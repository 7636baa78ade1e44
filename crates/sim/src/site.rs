//! Websites: the ground-truth objects whose popularity the top lists estimate.

use topple_psl::{DomainName, Origin, Scheme};

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

/// One FQDN belonging to a site.
#[derive(Debug, Clone)]
pub struct SiteHost {
    /// The fully-qualified name.
    pub name: DomainName,
    /// Its role.
    pub kind: HostKind,
}

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
    /// The site's FQDNs; index 0 is always the apex.
    pub hosts: Vec<SiteHost>,
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

    /// The web origin of one of this site's hosts (CrUX's aggregation unit).
    pub fn origin_of(&self, host_idx: usize) -> Origin {
        Origin::new(self.scheme(), self.hosts[host_idx].name.clone(), None)
    }

    /// Index of the preferred navigation host for a platform class.
    ///
    /// Mobile clients prefer the `m.` host when one exists; desktop clients
    /// split between `www` and the apex. The scalar reference for the SoA
    /// projection `SiteSoa::nav_host` the traffic generator calls.
    #[cfg(test)]
    pub fn nav_host(&self, mobile: bool, coin: f64) -> usize {
        if mobile {
            if let Some(i) = self.hosts.iter().position(|h| h.kind == HostKind::Mobile) {
                if coin < 0.55 {
                    return i;
                }
            }
        }
        match self.hosts.iter().position(|h| h.kind == HostKind::Www) {
            Some(www) if coin < 0.75 => www,
            _ => 0, // apex
        }
    }

    /// Index of a service host for third-party fetches (falls back to
    /// apex). The scalar reference for `SiteSoa::service_host`.
    #[cfg(test)]
    pub fn service_host(&self, coin: f64) -> usize {
        let n = self
            .hosts
            .iter()
            .filter(|h| h.kind == HostKind::Service)
            .count();
        if n == 0 {
            return 0;
        }
        let pick = topple_stats::cast::floor_index(coin * n as f64, n);
        self.hosts
            .iter()
            .enumerate()
            .filter(|(_, h)| h.kind == HostKind::Service)
            .nth(pick)
            .map_or(0, |(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_site() -> Site {
        let domain = DomainName::new("example.com").unwrap();
        Site {
            id: SiteId(0),
            domain: domain.clone(),
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
            hosts: vec![
                SiteHost {
                    name: domain.clone(),
                    kind: HostKind::Apex,
                },
                SiteHost {
                    name: domain.prepend("www").unwrap(),
                    kind: HostKind::Www,
                },
                SiteHost {
                    name: domain.prepend("m").unwrap(),
                    kind: HostKind::Mobile,
                },
                SiteHost {
                    name: domain.prepend("cdn").unwrap(),
                    kind: HostKind::Service,
                },
            ],
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
        assert_eq!(s.hosts[idx].kind, HostKind::Mobile);
        let idx = s.nav_host(false, 0.1);
        assert_eq!(s.hosts[idx].kind, HostKind::Www);
        let idx = s.nav_host(false, 0.9);
        assert_eq!(s.hosts[idx].kind, HostKind::Apex);
    }

    #[test]
    fn service_host_selection() {
        let s = dummy_site();
        let idx = s.service_host(0.3);
        assert_eq!(s.hosts[idx].kind, HostKind::Service);
        // Site with no service hosts falls back to apex.
        let mut s2 = dummy_site();
        s2.hosts.truncate(2);
        assert_eq!(s2.service_host(0.3), 0);
    }
}
