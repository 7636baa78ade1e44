//! The Cloudflare-style CDN vantage and its 21 popularity metrics.
//!
//! Section 3 of the paper derives popularity metrics from server-side request
//! logs as *filter × aggregation* combinations: seven filters (all requests,
//! HTML-only, 200-only, non-null referer, top-5 browsers, TLS handshakes, root
//! page loads) by three aggregations (raw count, unique client IPs, unique
//! (IP, User-Agent) tuples). This module reproduces all 21 and exposes both
//! the full suite (Appendix Figure 8) and the paper's chosen seven (Figure 1).
//!
//! The vantage sees traffic **only for sites it proxies** (`site.cloudflare`),
//! exactly like the real CDN: server-side logging is unaffected by private
//! browsing, but blind to every non-customer site.

use std::collections::BTreeMap;

use topple_sim::{Browser, PageLoad, ThirdPartyFetch, World};

use crate::metrics::{add_assign, scale, ScoreVec};
use crate::scratch::{ScratchMap, ScratchTable};

/// Request-log filters (Section 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CfFilter {
    /// 1: all HTTP(S) requests.
    AllRequests,
    /// 1.1: requests for `text/html` resources.
    Html,
    /// 1.2: requests answered 200 OK.
    Status200,
    /// 1.3: requests carrying a non-null `Referer`.
    Referer,
    /// 1.4: requests from the five most popular browsers.
    TopBrowsers,
    /// 2: TLS handshakes.
    Tls,
    /// 3: root page loads (`GET /`).
    RootPage,
}

impl CfFilter {
    /// All seven filters in stable order.
    pub const ALL: [CfFilter; 7] = [
        CfFilter::AllRequests,
        CfFilter::Html,
        CfFilter::Status200,
        CfFilter::Referer,
        CfFilter::TopBrowsers,
        CfFilter::Tls,
        CfFilter::RootPage,
    ];

    /// Dense index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short label used in heatmaps.
    pub fn label(self) -> &'static str {
        match self {
            CfFilter::AllRequests => "all-req",
            CfFilter::Html => "html",
            CfFilter::Status200 => "200-only",
            CfFilter::Referer => "referer",
            CfFilter::TopBrowsers => "top5-brws",
            CfFilter::Tls => "tls",
            CfFilter::RootPage => "root-page",
        }
    }
}

/// Log aggregations (Section 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CfAgg {
    /// Raw event count.
    Raw,
    /// Unique client IPs per day.
    UniqueIp,
    /// Unique (client IP, User-Agent) tuples per day.
    UniqueIpUa,
}

impl CfAgg {
    /// All aggregations in stable order.
    pub const ALL: [CfAgg; 3] = [CfAgg::Raw, CfAgg::UniqueIp, CfAgg::UniqueIpUa];

    /// Dense index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short label used in heatmaps.
    pub fn label(self) -> &'static str {
        match self {
            CfAgg::Raw => "raw",
            CfAgg::UniqueIp => "uniq-ip",
            CfAgg::UniqueIpUa => "uniq-ip-ua",
        }
    }
}

/// One of the 21 filter × aggregation popularity metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CfMetric {
    /// The filter.
    pub filter: CfFilter,
    /// The aggregation.
    pub agg: CfAgg,
}

impl CfMetric {
    /// Dense index in `0..21`.
    #[inline]
    pub fn index(self) -> usize {
        self.filter.index() * CfAgg::ALL.len() + self.agg.index()
    }

    /// All 21 combinations (Appendix Figure 8).
    pub fn full_suite() -> Vec<CfMetric> {
        let mut v = Vec::with_capacity(21);
        for f in CfFilter::ALL {
            for a in CfAgg::ALL {
                v.push(CfMetric { filter: f, agg: a });
            }
        }
        v
    }

    /// The paper's seven chosen metrics (Section 3.3, Figure 1):
    /// (1) all requests, (2) TLS handshakes, (3) root-page requests,
    /// (4) top-5-browser requests, (5) unique IPs, (6) unique IPs on the
    /// root page, (7) unique IPs from top-5 browsers.
    pub fn final_seven() -> [CfMetric; 7] {
        [
            CfMetric {
                filter: CfFilter::AllRequests,
                agg: CfAgg::Raw,
            },
            CfMetric {
                filter: CfFilter::Tls,
                agg: CfAgg::Raw,
            },
            CfMetric {
                filter: CfFilter::RootPage,
                agg: CfAgg::Raw,
            },
            CfMetric {
                filter: CfFilter::TopBrowsers,
                agg: CfAgg::Raw,
            },
            CfMetric {
                filter: CfFilter::AllRequests,
                agg: CfAgg::UniqueIp,
            },
            CfMetric {
                filter: CfFilter::RootPage,
                agg: CfAgg::UniqueIp,
            },
            CfMetric {
                filter: CfFilter::TopBrowsers,
                agg: CfAgg::UniqueIp,
            },
        ]
    }

    /// Human-readable label.
    pub fn label(self) -> String {
        format!("{}/{}", self.filter.label(), self.agg.label())
    }
}

/// Number of metrics in the full suite.
pub const METRIC_COUNT: usize = 21;

/// Per-filter event contribution, in request counts.
#[derive(Debug, Clone, Copy, Default)]
struct FilterCounts {
    counts: [u32; 7],
}

impl FilterCounts {
    #[inline]
    fn bits(&self) -> u8 {
        let mut b = 0u8;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                b |= 1 << i;
            }
        }
        b
    }

    /// The per-filter contribution of a page load to a customer site (the
    /// caller filters out non-customer sites, which the CDN never sees).
    fn of_page_load(world: &World, pl: &PageLoad) -> (FilterCounts, Browser, u32) {
        let client = &world.clients[pl.client.index()];
        let total = pl.total_requests();
        let mut fc = FilterCounts::default();
        fc.counts[CfFilter::AllRequests.index()] = total;
        fc.counts[CfFilter::Html.index()] = 1;
        fc.counts[CfFilter::Status200.index()] = total - u32::from(pl.non200);
        // Subresources always carry a Referer; the navigation does iff it
        // was a link click.
        fc.counts[CfFilter::Referer.index()] =
            u32::from(pl.own_requests) + u32::from(pl.link_click);
        fc.counts[CfFilter::TopBrowsers.index()] = if client.browser.is_top5() { total } else { 0 };
        fc.counts[CfFilter::Tls.index()] = u32::from(pl.tls_handshakes);
        fc.counts[CfFilter::RootPage.index()] = u32::from(pl.is_root_path);
        (fc, client.browser, client.ip)
    }

    /// The per-filter contribution of a third-party fetch batch to a
    /// customer site.
    fn of_third_party(world: &World, tp: &ThirdPartyFetch) -> (FilterCounts, Browser, u32) {
        let client = &world.clients[tp.client.index()];
        let reqs = u32::from(tp.requests);
        let mut fc = FilterCounts::default();
        fc.counts[CfFilter::AllRequests.index()] = reqs;
        // Third-party fetches are assets, not documents, and always carry
        // a Referer; they never hit `GET /`.
        fc.counts[CfFilter::Status200.index()] = reqs - u32::from(tp.non200);
        fc.counts[CfFilter::Referer.index()] = reqs;
        fc.counts[CfFilter::TopBrowsers.index()] = if client.browser.is_top5() { reqs } else { 0 };
        fc.counts[CfFilter::Tls.index()] = u32::from(tp.tls_handshakes);
        (fc, client.browser, client.ip)
    }
}

/// Per-(site, ip) uniqueness state: which filters have already counted this
/// IP for the site, overall and per browser (User-Agent).
#[derive(Debug, Clone, Copy, Default)]
struct IpCell {
    /// Filter bits counted toward unique-IP.
    bits: u8,
    /// Filter bits counted toward unique-(IP, UA), per browser.
    ua_bits: [u8; 7],
}

/// Per-site accumulators for one day: raw request counts plus the two
/// unique-aggregation counters, per filter.
#[derive(Debug, Clone, Copy, Default)]
struct SiteCell {
    raw: [u32; 7],
    uniq_ip: [u32; 7],
    uniq_ip_ua: [u32; 7],
}

/// Reusable streaming builder of one day's CDN metrics.
///
/// Replaces the `BTreeMap<(site, ip), bits>` / `BTreeMap<(site, ip, ua),
/// bits>` uniqueness maps of the old materialized scan with an epoch-stamped
/// [`ScratchMap`] keyed by the packed `(site << 32) | ip` and per-site dense
/// counters: when an event sets a filter bit that the `(site, ip)` (or
/// `(site, ip, ua)`) pair has not produced yet today, the site's unique
/// counter for that filter increments — exactly the number of map entries
/// whose value contains the bit, i.e. the same count the maps produced.
/// Unique-IP tracking must key on the *IP*, not the client: enterprise
/// clients share NAT egress IPs, and the CDN can only see addresses.
#[derive(Debug)]
pub(crate) struct CdnDayBuilder {
    /// Dense per-site CDN-customer flag: every event reads it, so it must
    /// not cost a miss on the full site record.
    cloudflare: Vec<bool>,
    ip_cells: ScratchMap<IpCell>,
    per_site: ScratchTable<SiteCell>,
    /// Sites touched this day, for the finish scan (order irrelevant:
    /// results land in site-indexed vectors).
    touched: Vec<u32>,
}

impl CdnDayBuilder {
    pub(crate) fn new(world: &World) -> Self {
        CdnDayBuilder {
            cloudflare: world.sites.iter().map(|s| s.cloudflare).collect(),
            ip_cells: ScratchMap::new(),
            per_site: ScratchTable::with_len(world.sites.len()),
            touched: Vec::new(),
        }
    }

    /// Starts a new day; previous per-day state is invalidated in O(1).
    pub(crate) fn begin(&mut self) {
        self.ip_cells.begin_epoch();
        self.per_site.begin_epoch();
        self.touched.clear();
    }

    // topple-lint: hot-path-begin
    pub(crate) fn page_load(&mut self, world: &World, pl: &PageLoad) {
        if self.cloudflare[pl.site.index()] {
            let (fc, ua, ip) = FilterCounts::of_page_load(world, pl);
            self.accumulate(pl.site.0, ip, ua, &fc);
        }
    }

    pub(crate) fn third_party(&mut self, world: &World, tp: &ThirdPartyFetch) {
        if self.cloudflare[tp.site.index()] {
            let (fc, ua, ip) = FilterCounts::of_third_party(world, tp);
            self.accumulate(tp.site.0, ip, ua, &fc);
        }
    }

    fn accumulate(&mut self, site: u32, ip: u32, ua: Browser, fc: &FilterCounts) {
        let (first, sc) = self.per_site.slot(site as usize);
        if first {
            self.touched.push(site);
        }
        for i in 0..7 {
            sc.raw[i] += fc.counts[i];
        }
        let bits = fc.bits();
        if bits != 0 {
            let key = (u64::from(site) << 32) | u64::from(ip);
            let (_, cell) = self.ip_cells.entry(key);
            let ip_new = bits & !cell.bits;
            cell.bits |= bits;
            let ua_slot = &mut cell.ua_bits[ua.index()];
            let ua_new = bits & !*ua_slot;
            *ua_slot |= bits;
            if ip_new != 0 || ua_new != 0 {
                for f in 0..7 {
                    sc.uniq_ip[f] += u32::from((ip_new >> f) & 1);
                    sc.uniq_ip_ua[f] += u32::from((ua_new >> f) & 1);
                }
            }
        }
    }
    // topple-lint: hot-path-end

    /// Drains the day's accumulators into the 21 metric score vectors.
    pub(crate) fn finish_day(&mut self, n_sites: usize) -> CfDayMetrics {
        let mut scores: Vec<ScoreVec> = (0..METRIC_COUNT).map(|_| vec![0.0; n_sites]).collect();
        for &site in &self.touched {
            let sc = self.per_site.peek(site as usize);
            for f in CfFilter::ALL {
                let i = f.index();
                scores[CfMetric {
                    filter: f,
                    agg: CfAgg::Raw,
                }
                .index()][site as usize] = f64::from(sc.raw[i]);
                scores[CfMetric {
                    filter: f,
                    agg: CfAgg::UniqueIp,
                }
                .index()][site as usize] = f64::from(sc.uniq_ip[i]);
                scores[CfMetric {
                    filter: f,
                    agg: CfAgg::UniqueIpUa,
                }
                .index()][site as usize] = f64::from(sc.uniq_ip_ua[i]);
            }
        }
        CfDayMetrics { scores }
    }
}

/// All 21 metric scores for one day, indexed `[metric][site]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CfDayMetrics {
    /// Scores per metric per site.
    pub scores: Vec<ScoreVec>,
}

impl CfDayMetrics {
    /// Score vector of one metric.
    pub fn metric(&self, m: CfMetric) -> &ScoreVec {
        &self.scores[m.index()]
    }
}

/// A mergeable per-day observation of the CDN request log: the full
/// 21-metric snapshot of each covered day, keyed by day index.
///
/// Shards form a commutative monoid under [`Shard::merge`]: the identity is
/// the empty shard, merges over *distinct* days are a keyed union (no float
/// arithmetic, hence exactly associative), and merging the same day twice
/// sums its scores — the "observed the traffic twice" semantics shared by
/// every shard type. All scores are integer-valued counts stored as `f64`,
/// so even the degenerate same-day sum stays exact below 2^53.
///
/// [`Shard::merge`]: crate::Shard::merge
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CdnShard {
    days: BTreeMap<usize, CfDayMetrics>,
}

impl CdnDayBuilder {
    /// Drains the day's accumulation into a single-day [`CdnShard`].
    pub(crate) fn finish_shard(&mut self, world: &World, day_index: usize) -> CdnShard {
        let mut days = BTreeMap::new();
        days.insert(day_index, self.finish_day(world.sites.len()));
        CdnShard { days }
    }
}

impl CdnShard {
    /// Day indices covered by this shard, ascending.
    pub fn day_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.days.keys().copied()
    }

    /// Whether every day holds all 21 metrics, each with one score per
    /// site of an `n_sites`-site world.
    pub(crate) fn fits(&self, n_sites: usize) -> bool {
        self.days.values().all(|d| {
            d.scores.len() == METRIC_COUNT && d.scores.iter().all(|sv| sv.len() == n_sites)
        })
    }

    /// Appends this shard's canonical wire form (see [`crate::wire`]).
    pub(crate) fn wire_encode(&self, w: &mut crate::wire::Writer<'_>) {
        w.len(self.days.len());
        for (&day, metrics) in &self.days {
            w.u32(topple_stats::cast::u32_from_usize(day));
            w.len(metrics.scores.len());
            for sv in &metrics.scores {
                w.len(sv.len());
                for &x in sv {
                    w.f64(x);
                }
            }
        }
    }

    /// Decodes the canonical wire form, failing closed on hostile bytes.
    pub(crate) fn wire_decode(
        r: &mut crate::wire::Reader<'_>,
    ) -> Result<Self, crate::wire::WireError> {
        let n_days = r.len(8)?;
        let mut days = BTreeMap::new();
        for _ in 0..n_days {
            let day = topple_stats::cast::usize_from_u32(r.u32()?);
            let n_metrics = r.len(4)?;
            let mut scores = Vec::with_capacity(n_metrics);
            for _ in 0..n_metrics {
                let n_sites = r.len(8)?;
                let mut sv: ScoreVec = Vec::with_capacity(n_sites);
                for _ in 0..n_sites {
                    sv.push(r.f64()?);
                }
                scores.push(sv);
            }
            if days.insert(day, CfDayMetrics { scores }).is_some() {
                return Err(crate::wire::WireError::Malformed {
                    context: "duplicate CDN day",
                });
            }
        }
        Ok(CdnShard { days })
    }
}

impl crate::Shard for CdnShard {
    fn merge(&mut self, other: Self) {
        for (day, metrics) in other.days {
            match self.days.entry(day) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(metrics);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    for (dst, src) in e.get_mut().scores.iter_mut().zip(&metrics.scores) {
                        add_assign(dst, src);
                    }
                }
            }
        }
    }
}

/// The CDN vantage, accumulating per-day metrics over the window.
#[derive(Debug)]
pub struct CdnVantage {
    n_sites: usize,
    days_ingested: usize,
    /// Sum over days of each metric's daily score, `[metric][site]`.
    monthly_sum: Vec<ScoreVec>,
    /// Daily scores for the paper's seven final metrics, `[day][final_idx]`
    /// (the evaluation averages daily comparisons; keeping all 21 per day
    /// would be prohibitive at full scale).
    daily_final: Vec<Vec<ScoreVec>>,
    /// The full 21-metric snapshot of the first ingested day (Figure 8).
    first_day: Option<CfDayMetrics>,
}

impl CdnVantage {
    /// Creates an empty vantage for a world.
    pub fn new(world: &World) -> Self {
        CdnVantage {
            n_sites: world.sites.len(),
            days_ingested: 0,
            monthly_sum: (0..METRIC_COUNT)
                .map(|_| vec![0.0; world.sites.len()])
                .collect(),
            daily_final: Vec::new(),
            first_day: None,
        }
    }

    /// Folds a (possibly multi-day) shard into the accumulators, applying
    /// its days in ascending day order. Days must arrive contiguously —
    /// day `d` can only be ingested once days `0..d` have been.
    ///
    /// # Panics
    ///
    /// Panics if a shard day is out of order with respect to what this
    /// vantage has already ingested.
    pub fn ingest_shard(&mut self, shard: CdnShard) {
        for (day_index, day) in shard.days {
            assert_eq!(
                day_index, self.days_ingested,
                "CDN days must be ingested in order"
            );
            for m in 0..METRIC_COUNT {
                add_assign(&mut self.monthly_sum[m], &day.scores[m]);
            }
            self.daily_final.push(
                CfMetric::final_seven()
                    .iter()
                    .map(|m| day.scores[m.index()].clone())
                    .collect(),
            );
            if self.first_day.is_none() {
                self.first_day = Some(day);
            }
            self.days_ingested += 1;
        }
    }

    /// Number of days ingested so far.
    pub fn days(&self) -> usize {
        self.days_ingested
    }

    /// Number of sites in the underlying world.
    pub fn site_count(&self) -> usize {
        self.n_sites
    }

    /// Monthly mean daily score for a metric.
    pub fn monthly(&self, m: CfMetric) -> ScoreVec {
        let mut v = self.monthly_sum[m.index()].clone();
        if self.days_ingested > 0 {
            scale(&mut v, self.days_ingested as f64);
        }
        v
    }

    /// Daily scores for one of the seven final metrics (index into
    /// [`CfMetric::final_seven`]). All-requests is index 0 and root-page
    /// index 2, the two page-load bookends.
    pub fn daily_final(&self, final_idx: usize, day_index: usize) -> &ScoreVec {
        &self.daily_final[day_index][final_idx]
    }

    /// Daily all-requests scores (Figure 3's reference metric).
    pub fn daily_all_requests(&self, day_index: usize) -> &ScoreVec {
        self.daily_final(0, day_index)
    }

    /// The full 21-metric snapshot of the first ingested day (Figure 8).
    pub fn first_day(&self) -> Option<&CfDayMetrics> {
        self.first_day.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DayScratch;
    use topple_sim::{DayTraffic, World, WorldConfig};

    fn world_and_day() -> (World, DayTraffic) {
        let w = World::generate(WorldConfig::tiny(31)).unwrap();
        let t = w.simulate_day(0);
        (w, t)
    }

    /// The 21 metrics of the day `t` covers.
    fn observe(w: &World, t: &DayTraffic) -> CfDayMetrics {
        DayScratch::new(w)
            .observe_day(w, t.day_index)
            .cdn
            .days
            .remove(&t.day_index)
            .unwrap()
    }

    #[test]
    fn metric_indices_are_dense() {
        let all = CfMetric::full_suite();
        assert_eq!(all.len(), 21);
        for (i, m) in all.iter().enumerate() {
            assert_eq!(m.index(), i);
        }
        assert_eq!(CfMetric::final_seven().len(), 7);
    }

    #[test]
    fn non_customer_sites_are_invisible() {
        let (w, t) = world_and_day();
        let day = observe(&w, &t);
        for (i, site) in w.sites.iter().enumerate() {
            if !site.cloudflare {
                for m in CfMetric::full_suite() {
                    assert_eq!(day.metric(m)[i], 0.0, "{} leaked into {:?}", site.domain, m);
                }
            }
        }
    }

    #[test]
    fn filter_counts_are_ordered_subsets() {
        let (w, t) = world_and_day();
        let day = observe(&w, &t);
        let all = day.metric(CfMetric {
            filter: CfFilter::AllRequests,
            agg: CfAgg::Raw,
        });
        for f in [
            CfFilter::Html,
            CfFilter::Status200,
            CfFilter::Referer,
            CfFilter::TopBrowsers,
            CfFilter::RootPage,
        ] {
            let sub = day.metric(CfMetric {
                filter: f,
                agg: CfAgg::Raw,
            });
            for i in 0..w.sites.len() {
                assert!(
                    sub[i] <= all[i],
                    "filter {f:?} exceeds all-requests at site {i}: {} > {}",
                    sub[i],
                    all[i]
                );
            }
        }
    }

    #[test]
    fn unique_ip_bounded_by_raw_and_ip_ua_at_least_ip() {
        let (w, t) = world_and_day();
        let day = observe(&w, &t);
        for f in CfFilter::ALL {
            let raw = day.metric(CfMetric {
                filter: f,
                agg: CfAgg::Raw,
            });
            let ip = day.metric(CfMetric {
                filter: f,
                agg: CfAgg::UniqueIp,
            });
            let ipua = day.metric(CfMetric {
                filter: f,
                agg: CfAgg::UniqueIpUa,
            });
            for i in 0..w.sites.len() {
                assert!(
                    ip[i] <= raw[i].max(ip[i]),
                    "uniq ip should not exceed raw requests"
                );
                if raw[i] > 0.0 && f != CfFilter::Tls {
                    // Some requester must exist when requests were counted.
                    assert!(ip[i] >= 1.0, "site {i} filter {f:?}");
                }
                assert!(ipua[i] >= ip[i], "ip-ua tuples can only exceed plain ips");
            }
        }
    }

    #[test]
    fn https_only_tls() {
        let (w, t) = world_and_day();
        let day = observe(&w, &t);
        let tls = day.metric(CfMetric {
            filter: CfFilter::Tls,
            agg: CfAgg::Raw,
        });
        for (i, site) in w.sites.iter().enumerate() {
            if !site.https {
                assert_eq!(tls[i], 0.0, "plain-HTTP site {} counted TLS", site.domain);
            }
        }
    }

    #[test]
    fn monthly_is_mean_of_days() {
        let (w, _) = world_and_day();
        let mut v = CdnVantage::new(&w);
        let t0 = w.simulate_day(0);
        let t1 = w.simulate_day(1);
        let mut scratch = DayScratch::new(&w);
        v.ingest_shard(scratch.observe_day(&w, 0).cdn);
        v.ingest_shard(scratch.observe_day(&w, 1).cdn);
        let m = CfMetric {
            filter: CfFilter::AllRequests,
            agg: CfAgg::Raw,
        };
        let d0 = observe(&w, &t0);
        let d1 = observe(&w, &t1);
        let monthly = v.monthly(m);
        for (i, &got) in monthly.iter().enumerate().take(w.sites.len()) {
            let want = (d0.metric(m)[i] + d1.metric(m)[i]) / 2.0;
            assert!((got - want).abs() < 1e-9);
        }
        assert_eq!(v.days(), 2);
        assert!(v.first_day().is_some());
    }

    /// The retired map-based implementation, kept as an executable spec:
    /// the scratch-table builder must produce bit-identical metrics.
    fn reference_observe_day(world: &World, traffic: &DayTraffic) -> CfDayMetrics {
        let n = world.sites.len();
        let mut raw: Vec<FilterCounts> = vec![FilterCounts::default(); n];
        let mut uniq_ip: BTreeMap<(u32, u32), u8> = BTreeMap::new();
        let mut uniq_ip_ua: BTreeMap<(u32, u32, u8), u8> = BTreeMap::new();
        let mut bump = |site: u32, ip: u32, ua: Browser, fc: FilterCounts| {
            let r = &mut raw[site as usize];
            for i in 0..7 {
                r.counts[i] += fc.counts[i];
            }
            let bits = fc.bits();
            if bits != 0 {
                *uniq_ip.entry((site, ip)).or_default() |= bits;
                *uniq_ip_ua.entry((site, ip, ua.index() as u8)).or_default() |= bits;
            }
        };
        for pl in &traffic.page_loads {
            if world.sites[pl.site.index()].cloudflare {
                let (fc, ua, ip) = FilterCounts::of_page_load(world, pl);
                bump(pl.site.0, ip, ua, fc);
            }
        }
        for tp in &traffic.third_party {
            if world.sites[tp.site.index()].cloudflare {
                let (fc, ua, ip) = FilterCounts::of_third_party(world, tp);
                bump(tp.site.0, ip, ua, fc);
            }
        }
        let mut scores: Vec<ScoreVec> = (0..METRIC_COUNT).map(|_| vec![0.0; n]).collect();
        for (i, fc) in raw.iter().enumerate() {
            for f in CfFilter::ALL {
                scores[CfMetric {
                    filter: f,
                    agg: CfAgg::Raw,
                }
                .index()][i] = f64::from(fc.counts[f.index()]);
            }
        }
        for ((site, _ip), bits) in &uniq_ip {
            for f in CfFilter::ALL {
                if bits & (1 << f.index()) != 0 {
                    scores[CfMetric {
                        filter: f,
                        agg: CfAgg::UniqueIp,
                    }
                    .index()][*site as usize] += 1.0;
                }
            }
        }
        for ((site, _ip, _ua), bits) in &uniq_ip_ua {
            for f in CfFilter::ALL {
                if bits & (1 << f.index()) != 0 {
                    scores[CfMetric {
                        filter: f,
                        agg: CfAgg::UniqueIpUa,
                    }
                    .index()][*site as usize] += 1.0;
                }
            }
        }
        CfDayMetrics { scores }
    }

    #[test]
    fn builder_matches_map_based_reference() {
        let w = World::generate(WorldConfig::tiny(33)).unwrap();
        // Reuse one builder across days: epoch clearing must not leak
        // anything from day to day.
        let mut b = CdnDayBuilder::new(&w);
        for d in 0..3 {
            let t = w.simulate_day(d);
            b.begin();
            for pl in &t.page_loads {
                b.page_load(&w, pl);
            }
            for tp in &t.third_party {
                b.third_party(&w, tp);
            }
            let got = b.finish_day(w.sites.len());
            let want = reference_observe_day(&w, &t);
            for m in CfMetric::full_suite() {
                for i in 0..w.sites.len() {
                    assert_eq!(
                        got.metric(m)[i].to_bits(),
                        want.metric(m)[i].to_bits(),
                        "day {d} metric {m:?} site {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn automation_excluded_from_top_browsers() {
        let (w, t) = world_and_day();
        let day = observe(&w, &t);
        // Find a pageload from an automation client to a CF site.
        let m_all = CfMetric {
            filter: CfFilter::AllRequests,
            agg: CfAgg::Raw,
        };
        let m_top = CfMetric {
            filter: CfFilter::TopBrowsers,
            agg: CfAgg::Raw,
        };
        let mut automation_traffic = 0.0;
        for pl in &t.page_loads {
            let c = &w.clients[pl.client.index()];
            if c.browser == Browser::Automation && w.sites[pl.site.index()].cloudflare {
                automation_traffic += f64::from(pl.total_requests());
            }
        }
        if automation_traffic > 0.0 {
            let total_all: f64 = day.scores[m_all.index()].iter().sum();
            let total_top: f64 = day.scores[m_top.index()].iter().sum();
            assert!(
                total_top < total_all,
                "top-browser filter must drop automation"
            );
        }
    }
}
