//! Struct-of-arrays projections of the world for the epoch-2 generator.
//!
//! A [`crate::site::Site`] is a 232-byte record with heap pointers (the
//! domain string, the dependency list); a per-load loop over those
//! records touches a handful of scalar fields per page load and drags the
//! rest through the cache with them. These tables project exactly the fields
//! the traffic engine reads into dense parallel arrays — six
//! probability/rate arrays, a packed flag byte, host-role indices and
//! bitmasks, and the third-party dependency lists flattened CSR-style — so a
//! load touches a few adjacent cache lines instead of a scattered record.
//! This is also the layout that scales to the 10M-domain tier, where the AoS
//! `Site` universe stops fitting in memory comfortably.
//!
//! Rates are narrowed to `f32` (their generation-time precision is far
//! coarser than 1e-7 relative) — a deliberate epoch-2 distributional choice,
//! covered by the distributional tests in `crates/sim/tests` rather than
//! byte pins.
//!
//! The projections are pure functions of the generated world: building them
//! consumes no RNG and therefore does not touch the determinism contract.

use topple_stats::cast;

use crate::client::Client;
use crate::ids::ClientId;
use crate::site::{HostKind, Site};
use crate::taxonomy::Country;

/// Sentinel for "this site has no host of that role".
pub const NO_HOST: u8 = u8::MAX;

/// Site flag bit: serves HTTPS.
pub const SITE_HTTPS: u8 = 1 << 0;
/// Site flag bit: category is under-reported by panel demographics.
pub const SITE_PANEL_AVERSE: u8 = 1 << 1;

/// Client flag bit: mobile platform.
pub const CLIENT_MOBILE: u8 = 1 << 0;
/// Client flag bit: enterprise browsing profile.
pub const CLIENT_ENTERPRISE: u8 = 1 << 1;
/// Client flag bit: carries the Alexa-style panel extension.
pub const CLIENT_PANELIST: u8 = 1 << 2;

/// Dense per-site arrays, indexed by `SiteId`.
#[derive(Debug)]
pub struct SiteSoa {
    /// Probability a page load completes.
    pub completion: Vec<f32>,
    /// Mean same-site subresource requests per completed load.
    pub subres_mean: Vec<f32>,
    /// Fraction of requests answered non-200.
    pub error_rate: Vec<f32>,
    /// Log-space mean of dwell time.
    pub dwell_mu: Vec<f32>,
    /// Fraction of visits made in a private window.
    pub private_share: Vec<f32>,
    /// Fraction of navigations landing on `/`.
    pub root_nav_share: Vec<f32>,
    /// Packed `SITE_*` flag bits.
    pub flags: Vec<u8>,
    /// Host index of the `m.` host, or [`NO_HOST`].
    pub nav_mobile: Vec<u8>,
    /// Host index of the `www.` host, or [`NO_HOST`].
    pub nav_www: Vec<u8>,
    /// Bitmask over host indices whose role is Apex or Www (root-path
    /// navigation candidates). Host counts are bounded well below 16.
    pub root_mask: Vec<u16>,
    /// Bitmask over host indices whose role is Service.
    pub svc_mask: Vec<u16>,
    /// Number of service hosts (popcount of `svc_mask`, cached).
    pub svc_count: Vec<u8>,
    /// CSR row offsets into `tp_zone`/`tp_prob`; length `n_sites + 1`.
    pub tp_offsets: Vec<u32>,
    /// Flattened third-party dependency zones.
    pub tp_zone: Vec<u32>,
    /// Flattened third-party inclusion probabilities.
    pub tp_prob: Vec<f32>,
}

impl SiteSoa {
    /// Projects the site universe into dense arrays.
    pub fn from_sites(sites: &[Site]) -> SiteSoa {
        let mut out = SiteSoa::with_capacity(sites.len());
        for s in sites {
            out.push(s);
        }
        out
    }

    /// An empty projection with room for `n` sites' per-site columns.
    pub fn with_capacity(n: usize) -> SiteSoa {
        let mut out = SiteSoa {
            completion: Vec::with_capacity(n),
            subres_mean: Vec::with_capacity(n),
            error_rate: Vec::with_capacity(n),
            dwell_mu: Vec::with_capacity(n),
            private_share: Vec::with_capacity(n),
            root_nav_share: Vec::with_capacity(n),
            flags: Vec::with_capacity(n),
            nav_mobile: Vec::with_capacity(n),
            nav_www: Vec::with_capacity(n),
            root_mask: Vec::with_capacity(n),
            svc_mask: Vec::with_capacity(n),
            svc_count: Vec::with_capacity(n),
            tp_offsets: Vec::with_capacity(n + 1),
            tp_zone: Vec::new(),
            tp_prob: Vec::new(),
        };
        out.tp_offsets.push(0);
        out
    }

    /// Projects one more site; sites must be pushed in id order. The
    /// generator pushes each shard's sites as it folds them in.
    pub fn push(&mut self, s: &Site) {
        self.completion.push(s.completion_rate as f32);
        self.subres_mean.push(s.subresource_mean as f32);
        self.error_rate.push(s.error_rate as f32);
        self.dwell_mu.push(s.dwell_mu as f32);
        self.private_share.push(s.private_share as f32);
        self.root_nav_share.push(s.root_nav_share as f32);
        let mut flags = 0u8;
        if s.https {
            flags |= SITE_HTTPS;
        }
        if s.category.panel_averse() {
            flags |= SITE_PANEL_AVERSE;
        }
        self.flags.push(flags);
        let (mut mobile, mut www) = (NO_HOST, NO_HOST);
        let (mut root_mask, mut svc_mask) = (0u16, 0u16);
        for i in 0..s.host_count() {
            let bit = 1u16 << i;
            match s.host_kind(i) {
                HostKind::Apex => root_mask |= bit,
                HostKind::Www => {
                    root_mask |= bit;
                    if www == NO_HOST {
                        www = cast::u8_from_usize(i);
                    }
                }
                HostKind::Mobile => {
                    if mobile == NO_HOST {
                        mobile = cast::u8_from_usize(i);
                    }
                }
                HostKind::Service => svc_mask |= bit,
            }
        }
        self.nav_mobile.push(mobile);
        self.nav_www.push(www);
        self.root_mask.push(root_mask);
        self.svc_mask.push(svc_mask);
        self.svc_count
            .push(cast::u8_from_usize(cast::usize_from_u32(
                svc_mask.count_ones(),
            )));
        for &(zone, p) in &s.third_party {
            self.tp_zone.push(zone.0);
            self.tp_prob.push(p);
        }
        self.tp_offsets
            .push(cast::u32_from_usize(self.tp_zone.len()));
    }

    /// Number of sites projected.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Whether the projection is empty.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// Navigation host for `(site, platform, coin)` — the table-driven twin
    /// of `Site::nav_host`, same semantics, no host-vector scan.
    #[inline]
    pub fn nav_host(&self, site: usize, mobile: bool, coin: f64) -> u8 {
        if mobile && self.nav_mobile[site] != NO_HOST && coin < 0.55 {
            return self.nav_mobile[site];
        }
        if self.nav_www[site] != NO_HOST && coin < 0.75 {
            self.nav_www[site]
        } else {
            0 // apex
        }
    }

    /// Service host for a third-party fetch — the twin of
    /// `Site::service_host`: picks the n-th service host uniformly by
    /// `coin`, falling back to the apex when the zone has none.
    #[inline]
    pub fn service_host(&self, site: usize, coin: f64) -> u8 {
        let n = usize::from(self.svc_count[site]);
        if n == 0 {
            return 0;
        }
        let pick = cast::floor_index(coin * n as f64, n);
        // Select the pick-th set bit of the service mask.
        let mut mask = self.svc_mask[site];
        for _ in 0..pick {
            mask &= mask - 1; // clear lowest set bit
        }
        cast::u8_from_usize(cast::usize_from_u32(mask.trailing_zeros()))
    }

    /// Whether navigating to `host_idx` can land on the root path (the host
    /// is the apex or `www`).
    #[inline]
    pub fn is_root_candidate(&self, site: usize, host_idx: u8) -> bool {
        (self.root_mask[site] >> host_idx) & 1 == 1
    }

    /// CSR range of `site`'s third-party dependencies.
    #[inline]
    pub fn tp_range(&self, site: usize) -> std::ops::Range<usize> {
        cast::usize_from_u32(self.tp_offsets[site])..cast::usize_from_u32(self.tp_offsets[site + 1])
    }
}

/// Dense per-client arrays, indexed by `ClientId`.
#[derive(Debug)]
pub struct ClientSoa {
    /// Dense ids (parallel to all other arrays).
    pub id: Vec<ClientId>,
    /// Mean page loads per day.
    pub activity: Vec<f32>,
    /// Audience country.
    pub country: Vec<Country>,
    /// Packed `CLIENT_*` flag bits.
    pub flags: Vec<u8>,
}

impl ClientSoa {
    /// Projects the client population into dense arrays.
    pub fn from_clients(clients: &[Client]) -> ClientSoa {
        let mut out = ClientSoa::with_capacity(clients.len());
        for c in clients {
            out.push(c);
        }
        out
    }

    /// An empty projection with room for `n` clients.
    pub fn with_capacity(n: usize) -> ClientSoa {
        ClientSoa {
            id: Vec::with_capacity(n),
            activity: Vec::with_capacity(n),
            country: Vec::with_capacity(n),
            flags: Vec::with_capacity(n),
        }
    }

    /// Projects one more client; clients must be pushed in id order.
    pub fn push(&mut self, c: &Client) {
        self.id.push(c.id);
        self.activity.push(c.activity);
        self.country.push(c.country);
        let mut flags = 0u8;
        if c.platform.is_mobile() {
            flags |= CLIENT_MOBILE;
        }
        if c.enterprise {
            flags |= CLIENT_ENTERPRISE;
        }
        if c.alexa_panelist {
            flags |= CLIENT_PANELIST;
        }
        self.flags.push(flags);
    }

    /// Number of clients projected.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Whether the projection is empty.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }
}

/// Both projections, built once per world by `World::generate`.
#[derive(Debug)]
pub struct SoaTables {
    /// Per-site arrays.
    pub sites: SiteSoa,
    /// Per-client arrays.
    pub clients: ClientSoa,
}

impl SoaTables {
    /// Projects a generated world's sites and clients.
    pub fn build(sites: &[Site], clients: &[Client]) -> SoaTables {
        SoaTables {
            sites: SiteSoa::from_sites(sites),
            clients: ClientSoa::from_clients(clients),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use crate::rng::{substream, Stream};
    use crate::world::World;
    use rand::Rng;

    #[test]
    fn projections_agree_with_the_aos_world() {
        let w = World::generate(WorldConfig::tiny(31)).expect("world generates");
        let soa = SoaTables::build(&w.sites, &w.clients);
        assert_eq!(soa.sites.len(), w.sites.len());
        assert_eq!(soa.clients.len(), w.clients.len());
        assert!(!soa.sites.is_empty() && !soa.clients.is_empty());
        let mut rng = substream(31, Stream::TrafficClient, 0);
        for (i, s) in w.sites.iter().enumerate() {
            assert_eq!(soa.sites.flags[i] & SITE_HTTPS != 0, s.https);
            assert_eq!(
                soa.sites.flags[i] & SITE_PANEL_AVERSE != 0,
                s.category.panel_averse()
            );
            assert_eq!(
                f64::from(soa.sites.completion[i]),
                // topple-lint: allow(lossy-cast): test mirrors the projection's own narrowing
                f64::from(s.completion_rate as f32)
            );
            assert_eq!(soa.sites.tp_range(i).len(), s.third_party.len());
            for (j, &(zone, p)) in s.third_party.iter().enumerate() {
                let at = soa.sites.tp_range(i).start + j;
                assert_eq!(soa.sites.tp_zone[at], zone.0);
                assert_eq!(soa.sites.tp_prob[at], p);
            }
            // Host projections replicate the scan-based pickers exactly.
            for _ in 0..8 {
                let coin: f64 = rng.random();
                for mobile in [false, true] {
                    assert_eq!(
                        usize::from(soa.sites.nav_host(i, mobile, coin)),
                        s.nav_host(mobile, coin),
                        "site {i} mobile={mobile} coin={coin}"
                    );
                }
                assert_eq!(
                    usize::from(soa.sites.service_host(i, coin)),
                    s.service_host(coin),
                    "site {i} coin={coin}"
                );
            }
            for h in 0..s.host_count() {
                let is_root = matches!(s.host_kind(h), HostKind::Apex | HostKind::Www);
                assert_eq!(
                    soa.sites.is_root_candidate(i, cast::u8_from_usize(h)),
                    is_root
                );
            }
        }
        for (i, c) in w.clients.iter().enumerate() {
            assert_eq!(soa.clients.id[i], c.id);
            assert_eq!(soa.clients.activity[i], c.activity);
            assert_eq!(soa.clients.country[i], c.country);
            assert_eq!(
                soa.clients.flags[i] & CLIENT_MOBILE != 0,
                c.platform.is_mobile()
            );
            assert_eq!(soa.clients.flags[i] & CLIENT_ENTERPRISE != 0, c.enterprise);
            assert_eq!(
                soa.clients.flags[i] & CLIENT_PANELIST != 0,
                c.alexa_panelist
            );
        }
    }
}
