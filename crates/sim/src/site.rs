//! Websites: the ground-truth objects whose popularity the top lists estimate.

use topple_psl::{DomainName, Origin, Scheme};
use topple_stats::cast;

use crate::ids::SiteId;
use crate::taxonomy::{Category, Country};

/// Role of one FQDN within a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostKind {
    /// The registrable domain itself (`example.com`).
    Apex,
    /// The `www.` host — the default navigation target for most sites.
    Www,
    /// The `m.` mobile host.
    Mobile,
    /// Service hosts (`cdn.`, `api.`, `static.`…) fetched as subresources,
    /// never navigated to.
    Service,
}

/// Host-mask bits, in host-index order after the apex (which every site
/// has): each set bit adds one FQDN `{label}.{domain}` of the given role.
pub(crate) const HOST_WWW: u8 = 1 << 0;
pub(crate) const HOST_M: u8 = 1 << 1;
pub(crate) const HOST_CDN: u8 = 1 << 2;
pub(crate) const HOST_STATIC: u8 = 1 << 3;
pub(crate) const HOST_API: u8 = 1 << 4;
pub(crate) const HOST_IMG: u8 = 1 << 5;
pub(crate) const HOST_CHECKOUT: u8 = 1 << 6;

/// Label of each host-mask bit, by bit position.
const HOST_LABELS: [&str; 7] = ["www", "m", "cdn", "static", "api", "img", "checkout"];

/// A website in the synthetic universe.
///
/// `weight` is *ground truth popularity* — the quantity every vantage point
/// and top list estimates with its own bias. It is never exposed to the
/// observer crates except through generated traffic.
#[derive(Debug, Clone)]
pub struct Site {
    /// Dense id.
    pub id: SiteId,
    /// Registrable domain (unique within the world).
    pub domain: DomainName,
    /// Website category.
    pub category: Category,
    /// Country of the site's primary audience.
    pub home_country: Country,
    /// Whether the site has a global rather than local audience.
    pub is_global: bool,
    /// Ground-truth popularity weight (Zipf × log-normal noise).
    pub weight: f64,
    /// Per-country share of the site's audience (sums to 1).
    pub country_mix: [f64; Country::COUNT],
    /// Mobile-vs-desktop affinity multiplier (>1 = mobile-heavy).
    pub mobile_affinity: f64,
    /// Whether the site serves HTTPS (drives TLS handshakes and origin scheme).
    pub https: bool,
    /// Whether the site is proxied by the Cloudflare-style CDN.
    pub cloudflare: bool,
    /// Whether the site is publicly linked and crawlable (Chrome telemetry
    /// excludes non-public domains; crawlers cannot discover unlinked sites).
    pub public_web: bool,
    /// Probability a page load completes (First Contentful Paint reached).
    pub completion_rate: f64,
    /// Mean same-site subresource requests per page load.
    pub subresource_mean: f64,
    /// Fraction of requests answered with a non-200 status.
    pub error_rate: f64,
    /// Log-space mean of dwell time per completed view.
    pub dwell_mu: f64,
    /// Fraction of visits made in a private browsing window.
    pub private_share: f64,
    /// Fraction of navigations that land on the root path `/`.
    pub root_nav_share: f64,
    /// The site's FQDNs as a bitmask of `HOST_*` bits over its domain (the
    /// apex is implied). Only bits whose name is valid are set; host index
    /// 0 is the apex and index `k` the `k`-th set bit, lowest first. Read
    /// it through [`Site::host_count`], [`Site::host_kind`] and
    /// [`Site::host_name`].
    pub host_mask: u8,
    /// Third-party infrastructure dependencies: `(zone, inclusion prob)`.
    pub third_party: Vec<(SiteId, f32)>,
    /// Whether this site *is* third-party infrastructure (analytics, ads,
    /// CDN) fetched by other sites' pages and queried by background jobs.
    pub is_infrastructure: bool,
    /// Multiplier the Alexa-style rank applies to this site's panel score.
    ///
    /// Models "Alexa Certify" \[4\]: sites that install the certification code
    /// are measured directly and systematically rank better than panel
    /// sampling alone would place them (1.0 = not certified). One of the
    /// mechanisms that pushes traffic-poor sites into the list's head.
    pub certify_boost: f64,
}

impl Site {
    /// URL scheme implied by the site's TLS deployment.
    pub fn scheme(&self) -> Scheme {
        if self.https {
            Scheme::Https
        } else {
            Scheme::Http
        }
    }

    /// The host mask of `domain` keeping only the `drawn` bits whose name
    /// `{label}.{domain}` is a valid domain name.
    pub(crate) fn effective_host_mask(domain: &DomainName, drawn: u8) -> u8 {
        let mut mask = 0;
        for (bit, label) in HOST_LABELS.iter().enumerate() {
            if drawn & (1 << bit) != 0 && domain.can_prepend(label) {
                mask |= 1 << bit;
            }
        }
        mask
    }

    /// Number of FQDNs the site serves (the apex plus one per mask bit).
    pub fn host_count(&self) -> usize {
        1 + cast::usize_from_u32(self.host_mask.count_ones())
    }

    /// Mask bit position of host `host_idx >= 1`. Panics when the site has
    /// no such host, like an out-of-range slice index.
    fn host_bit(&self, host_idx: usize) -> usize {
        assert!(
            host_idx >= 1 && host_idx < self.host_count(),
            "host index {host_idx} out of range for {} hosts",
            self.host_count()
        );
        let mut rest = self.host_mask;
        for _ in 1..host_idx {
            rest &= rest - 1; // drop the lowest set bit
        }
        cast::usize_from_u32(rest.trailing_zeros())
    }

    /// Role of host `host_idx` (0 is the apex).
    pub fn host_kind(&self, host_idx: usize) -> HostKind {
        if host_idx == 0 {
            return HostKind::Apex;
        }
        match self.host_bit(host_idx) {
            0 => HostKind::Www,
            1 => HostKind::Mobile,
            _ => HostKind::Service,
        }
    }

    /// Fully-qualified name of host `host_idx` (0 is the apex), built on
    /// demand.
    #[allow(clippy::expect_used)]
    pub fn host_name(&self, host_idx: usize) -> DomainName {
        if host_idx == 0 {
            return self.domain.clone();
        }
        self.domain
            .prepend(HOST_LABELS[self.host_bit(host_idx)])
            // topple-lint: allow(unwrap): the mask only keeps bits whose name can_prepend accepted
            .expect("host mask bits name valid hosts")
    }

    /// The web origin of one of this site's hosts (CrUX's aggregation unit).
    pub fn origin_of(&self, host_idx: usize) -> Origin {
        Origin::new(self.scheme(), self.host_name(host_idx), None)
    }

    /// Index of the preferred navigation host for a platform class.
    ///
    /// Mobile clients prefer the `m.` host when one exists; desktop clients
    /// split between `www` and the apex. The scalar reference for the SoA
    /// projection `SiteSoa::nav_host` the traffic generator calls.
    #[cfg(test)]
    pub fn nav_host(&self, mobile: bool, coin: f64) -> usize {
        let position = |kind| (0..self.host_count()).find(|&i| self.host_kind(i) == kind);
        if mobile {
            if let Some(i) = position(HostKind::Mobile) {
                if coin < 0.55 {
                    return i;
                }
            }
        }
        match position(HostKind::Www) {
            Some(www) if coin < 0.75 => www,
            _ => 0, // apex
        }
    }

    /// Index of a service host for third-party fetches (falls back to
    /// apex). The scalar reference for `SiteSoa::service_host`.
    #[cfg(test)]
    pub fn service_host(&self, coin: f64) -> usize {
        let services =
            || (0..self.host_count()).filter(|&i| self.host_kind(i) == HostKind::Service);
        let n = services().count();
        if n == 0 {
            return 0;
        }
        let pick = cast::floor_index(coin * n as f64, n);
        services().nth(pick).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_site() -> Site {
        Site {
            id: SiteId(0),
            domain: DomainName::new("example.com").unwrap(),
            category: Category::News,
            home_country: Country::UnitedStates,
            is_global: true,
            weight: 1.0,
            country_mix: [1.0 / Country::COUNT as f64; Country::COUNT],
            mobile_affinity: 1.0,
            https: true,
            cloudflare: true,
            public_web: true,
            completion_rate: 0.9,
            subresource_mean: 10.0,
            error_rate: 0.05,
            dwell_mu: 4.0,
            private_share: 0.03,
            root_nav_share: 0.5,
            host_mask: HOST_WWW | HOST_M | HOST_CDN,
            third_party: vec![],
            is_infrastructure: false,
            certify_boost: 1.0,
        }
    }

    #[test]
    fn origins_follow_scheme() {
        let mut s = dummy_site();
        assert_eq!(s.origin_of(1).to_string(), "https://www.example.com");
        s.https = false;
        assert_eq!(s.origin_of(0).to_string(), "http://example.com");
    }

    #[test]
    fn nav_host_prefers_mobile_on_mobile() {
        let s = dummy_site();
        let idx = s.nav_host(true, 0.1);
        assert_eq!(s.host_kind(idx), HostKind::Mobile);
        let idx = s.nav_host(false, 0.1);
        assert_eq!(s.host_kind(idx), HostKind::Www);
        let idx = s.nav_host(false, 0.9);
        assert_eq!(s.host_kind(idx), HostKind::Apex);
    }

    #[test]
    fn service_host_selection() {
        let s = dummy_site();
        let idx = s.service_host(0.3);
        assert_eq!(s.host_kind(idx), HostKind::Service);
        // Site with no service hosts falls back to apex.
        let mut s2 = dummy_site();
        s2.host_mask = HOST_WWW;
        assert_eq!(s2.service_host(0.3), 0);
    }

    #[test]
    fn hosts_derive_from_the_mask_in_bit_order() {
        let mut s = dummy_site();
        s.host_mask = HOST_M | HOST_API | HOST_CHECKOUT;
        let hosts: Vec<(String, HostKind)> = (0..s.host_count())
            .map(|i| (s.host_name(i).into_string(), s.host_kind(i)))
            .collect();
        assert_eq!(
            hosts,
            [
                ("example.com".to_owned(), HostKind::Apex),
                ("m.example.com".to_owned(), HostKind::Mobile),
                ("api.example.com".to_owned(), HostKind::Service),
                ("checkout.example.com".to_owned(), HostKind::Service),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn host_past_the_count_panics() {
        let s = dummy_site();
        let _ = s.host_kind(s.host_count());
    }

    #[test]
    fn effective_mask_drops_names_that_would_be_too_long() {
        let short = DomainName::new("example.com").unwrap();
        assert_eq!(Site::effective_host_mask(&short, 0x7f), 0x7f);
        // 245 bytes: "m." (247) and "www." (249) fit, "checkout." (254) does not.
        let long = format!(
            "{}.{}.{}.{}.com",
            "a".repeat(60),
            "b".repeat(60),
            "c".repeat(60),
            "d".repeat(58)
        );
        let long = DomainName::new(&long).unwrap();
        assert_eq!(long.as_str().len(), 245);
        let kept = Site::effective_host_mask(&long, 0x7f);
        assert_eq!(kept & HOST_CHECKOUT, 0);
        assert_eq!(kept & (HOST_WWW | HOST_M), HOST_WWW | HOST_M);
        for (bit, label) in HOST_LABELS.iter().enumerate() {
            assert_eq!(kept & (1 << bit) != 0, long.can_prepend(label), "{label}");
        }
    }
}
