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
//! browsing, but blind to every non-customer site. It keeps state for the
//! sites it serves only: shards hold one row per observed customer site,
//! and [`CdnVantage`]'s columns span the world's customers, never all sites.

use std::borrow::Cow;
use std::collections::BTreeMap;

use topple_sim::{Browser, PageLoad, SiteId, ThirdPartyFetch, World};

use crate::scratch::{ScratchMap, ScratchTable};
use crate::shard::merge_sorted;

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
    /// Sites touched this day, sorted at the finish so the day's rows come
    /// out in site order.
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

    /// Drains the day's accumulators into one row per observed customer
    /// site, ascending by site id.
    fn finish_rows(&mut self) -> Vec<CdnRow> {
        self.touched.sort_unstable();
        self.touched
            .iter()
            .map(|&site| {
                let sc = self.per_site.peek(site as usize);
                let mut scores = [0.0; METRIC_COUNT];
                for f in CfFilter::ALL {
                    for (agg, counts) in [
                        (CfAgg::Raw, &sc.raw),
                        (CfAgg::UniqueIp, &sc.uniq_ip),
                        (CfAgg::UniqueIpUa, &sc.uniq_ip_ua),
                    ] {
                        scores[CfMetric { filter: f, agg }.index()] = f64::from(counts[f.index()]);
                    }
                }
                CdnRow {
                    site: SiteId(site),
                    scores,
                }
            })
            .filter(CdnRow::is_observed)
            .collect()
    }

    /// Drains the day's accumulation into a single-day [`CdnShard`].
    pub(crate) fn finish_shard(&mut self, world: &World, day_index: usize) -> CdnShard {
        CdnShard {
            n_sites: world.sites.len(),
            days: BTreeMap::from([(day_index, self.finish_rows())]),
        }
    }
}

/// One customer site's 21 scores on one day: the unit a [`CdnShard`] holds.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CdnRow {
    site: SiteId,
    /// Indexed by [`CfMetric::index`].
    scores: [f64; METRIC_COUNT],
}

impl CdnRow {
    /// Whether any metric counted the site. Only such rows are kept, so a
    /// day has one in-memory form and its dense wire form (zeros at every
    /// other site) decodes back to exactly the same rows.
    fn is_observed(&self) -> bool {
        self.scores.iter().any(|&x| x > 0.0)
    }
}

/// A mergeable per-day observation of the CDN request log: the 21 metric
/// scores of every observed customer site on each covered day, keyed by
/// day index.
///
/// In memory a day is its rows, ascending by site id; the three quarters
/// of the world the CDN does not serve take no space. On the wire each day
/// is the dense `[metric][site]` layout over all `n_sites` sites, zeros
/// included (see [`crate::wire`]).
///
/// Shards form a commutative monoid under [`Shard::merge`]: the identity is
/// the empty shard, merges over *distinct* days are a keyed union (no float
/// arithmetic, hence exactly associative), and merging the same day twice
/// sums its scores row by row — the "observed the traffic twice" semantics
/// shared by every shard type. All scores are integer-valued counts stored
/// as `f64`, so even the degenerate same-day sum stays exact below 2^53.
///
/// [`Shard::merge`]: crate::Shard::merge
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CdnShard {
    /// Sites in the observed world: the width of each day's wire form.
    n_sites: usize,
    days: BTreeMap<usize, Vec<CdnRow>>,
}

impl CdnShard {
    /// Day indices covered by this shard, ascending.
    pub fn day_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.days.keys().copied()
    }

    /// Why this shard cannot fold into `world`, if it cannot: its days must
    /// span the world's sites, and its rows must sit at sites the world's
    /// CDN serves.
    pub(crate) fn misfit(&self, world: &World) -> Option<&'static str> {
        if !self.days.is_empty() && self.n_sites != world.sites.len() {
            return Some("CDN scores do not cover the world's sites");
        }
        let served = |site: SiteId| world.sites.get(site.index()).is_some_and(|s| s.cloudflare);
        if self.days.values().flatten().any(|row| !served(row.site)) {
            return Some("CDN row at a site the world's CDN does not serve");
        }
        None
    }

    /// Appends this shard's canonical wire form (see [`crate::wire`]): each
    /// day dense over all `n_sites` sites, zero where no row is.
    pub(crate) fn wire_encode(&self, w: &mut crate::wire::Writer<'_>) {
        w.len(self.days.len());
        for (&day, rows) in &self.days {
            w.u32(topple_stats::cast::u32_from_usize(day));
            w.len(METRIC_COUNT);
            for m in 0..METRIC_COUNT {
                w.len(self.n_sites);
                w.sparse_f64s(
                    self.n_sites,
                    rows.iter().map(|row| (row.site.index(), row.scores[m])),
                );
            }
        }
    }

    /// Decodes the canonical wire form, keeping each day's non-zero rows.
    /// Fails closed on hostile bytes: a day must hold all 21 metrics over
    /// one site count shared by the whole shard, and every score must be a
    /// non-negative finite count other than `-0.0` — so every accepted
    /// shard re-encodes byte for byte.
    pub(crate) fn wire_decode(
        r: &mut crate::wire::Reader<'_>,
    ) -> Result<Self, crate::wire::WireError> {
        let malformed = |context| crate::wire::WireError::Malformed { context };
        let n_days = r.len(8)?;
        let mut shard = CdnShard::default();
        // One day's dense `[metric][site]` scores, and which sites score.
        let mut dense: Vec<f64> = Vec::new();
        let mut observed: Vec<bool> = Vec::new();
        for d in 0..n_days {
            let day = topple_stats::cast::usize_from_u32(r.u32()?);
            if r.len(4)? != METRIC_COUNT {
                return Err(malformed("CDN day does not hold the 21 metrics"));
            }
            dense.clear();
            for m in 0..METRIC_COUNT {
                let n_sites = r.len(8)?;
                if d == 0 && m == 0 {
                    shard.n_sites = n_sites;
                } else if n_sites != shard.n_sites {
                    return Err(malformed("CDN metrics disagree on the site count"));
                }
                if m == 0 {
                    observed.clear();
                    observed.resize(n_sites, false);
                }
                for (seen, x) in observed.iter_mut().zip(r.f64s(n_sites)?) {
                    if !(x.is_finite() && x.is_sign_positive()) {
                        return Err(malformed("CDN score is negative, non-finite or -0.0"));
                    }
                    *seen |= x > 0.0;
                    dense.push(x);
                }
            }
            let n = shard.n_sites;
            let rows = (0..n)
                .filter(|&site| observed[site])
                .map(|site| {
                    let mut scores = [0.0; METRIC_COUNT];
                    for (m, x) in scores.iter_mut().enumerate() {
                        *x = dense[m * n + site];
                    }
                    CdnRow {
                        site: SiteId(topple_stats::cast::u32_from_usize(site)),
                        scores,
                    }
                })
                .collect();
            if shard.days.insert(day, rows).is_some() {
                return Err(malformed("duplicate CDN day"));
            }
        }
        Ok(shard)
    }
}

impl crate::Shard for CdnShard {
    fn merge(&mut self, other: Self) {
        self.n_sites = self.n_sites.max(other.n_sites);
        for (day, rows) in other.days {
            let mine = self.days.remove(&day).unwrap_or_default();
            let merged = merge_sorted(
                mine,
                rows,
                |a, b| a.site.cmp(&b.site),
                |a, b| {
                    for (x, y) in a.scores.iter_mut().zip(b.scores) {
                        *x += y;
                    }
                },
            );
            self.days.insert(day, merged);
        }
    }
}

/// One CDN metric's scores over the CDN's customer sites, ascending by
/// site id. Every other site scores zero: the CDN cannot see it.
#[derive(Debug, Clone, PartialEq)]
pub struct CfScores<'a> {
    sites: &'a [SiteId],
    scores: Cow<'a, [f64]>,
}

impl CfScores<'_> {
    /// `(site, score)` for every customer site, ascending by site id.
    pub fn iter(&self) -> impl Iterator<Item = (SiteId, f64)> + '_ {
        self.sites.iter().copied().zip(self.scores.iter().copied())
    }

    /// The observed sites, best first: descending score, ties broken by
    /// ascending site id, zero-score sites dropped. The one ranking every
    /// CDN reference list is read through.
    ///
    /// The tie order is deterministic but *arbitrary with respect to true
    /// popularity* — the same property that real list publishers' tie
    /// handling has.
    pub fn ranked(&self) -> Vec<SiteId> {
        let mut observed: Vec<(SiteId, f64)> = self.iter().filter(|&(_, s)| s > 0.0).collect();
        observed.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        observed.into_iter().map(|(site, _)| site).collect()
    }
}

/// The first ingested day's 21 metrics over the CDN's customer sites
/// (Figure 8).
#[derive(Debug, Clone, Copy)]
pub struct CfDay<'a> {
    sites: &'a [SiteId],
    /// `[metric][position]`, flattened.
    scores: &'a [f64],
}

impl<'a> CfDay<'a> {
    /// One metric's scores.
    pub fn metric(&self, m: CfMetric) -> CfScores<'a> {
        let n = self.sites.len();
        CfScores {
            sites: self.sites,
            scores: Cow::Borrowed(&self.scores[m.index() * n..][..n]),
        }
    }
}

/// The CDN vantage, accumulating per-day metrics over the window.
///
/// Every score it keeps is over the world's CDN customers only: position
/// `p` of each column below belongs to `customers[p]`, and customers are
/// in ascending site-id order, so position order is site-id order.
#[derive(Debug)]
pub struct CdnVantage {
    n_sites: usize,
    customers: Vec<SiteId>,
    days_ingested: usize,
    /// Sum over days of each metric's daily score, `[metric][position]`
    /// flattened.
    monthly_sum: Vec<f64>,
    /// Daily scores for the paper's seven final metrics, one
    /// `[final_idx][position]` block per day (the evaluation averages
    /// daily comparisons; keeping all 21 per day would be prohibitive at
    /// full scale).
    daily_final: Vec<Vec<f64>>,
    /// The first ingested day's 21 metrics, laid out like `monthly_sum`;
    /// empty until a day is ingested (Figure 8).
    first_day: Vec<f64>,
}

impl CdnVantage {
    /// Creates an empty vantage for a world.
    pub fn new(world: &World) -> Self {
        let customers: Vec<SiteId> = world
            .sites
            .iter()
            .filter(|s| s.cloudflare)
            .map(|s| s.id)
            .collect();
        CdnVantage {
            n_sites: world.sites.len(),
            days_ingested: 0,
            monthly_sum: vec![0.0; METRIC_COUNT * customers.len()],
            customers,
            daily_final: Vec::new(),
            first_day: Vec::new(),
        }
    }

    /// Folds a (possibly multi-day) shard into the accumulators, applying
    /// its days in ascending day order. Days must arrive contiguously —
    /// day `d` can only be ingested once days `0..d` have been.
    ///
    /// # Panics
    ///
    /// Panics if a shard day is out of order with respect to what this
    /// vantage has already ingested, or if a row sits at a site the world's
    /// CDN does not serve (`DayShards::check_ids` refuses such shards).
    pub fn ingest_shard(&mut self, shard: CdnShard) {
        let n = self.customers.len();
        let finals = CfMetric::final_seven();
        for (day_index, rows) in shard.days {
            assert_eq!(
                day_index, self.days_ingested,
                "CDN days must be ingested in order"
            );
            let first = self.days_ingested == 0;
            if first {
                self.first_day = vec![0.0; METRIC_COUNT * n];
            }
            let mut daily = vec![0.0; finals.len() * n];
            // Rows and customers both ascend by site id: one merge walk.
            let mut p = 0;
            for row in &rows {
                p += self.customers[p..].partition_point(|&c| c < row.site);
                assert!(
                    self.customers.get(p) == Some(&row.site),
                    "CDN row at a site the CDN does not serve"
                );
                for (m, &x) in row.scores.iter().enumerate() {
                    self.monthly_sum[m * n + p] += x;
                    if first {
                        self.first_day[m * n + p] = x;
                    }
                }
                for (f, metric) in finals.iter().enumerate() {
                    daily[f * n + p] = row.scores[metric.index()];
                }
            }
            self.daily_final.push(daily);
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

    /// The world's CDN customers, ascending by site id: the sites every
    /// score column covers.
    pub fn customers(&self) -> &[SiteId] {
        &self.customers
    }

    /// A customer column of `scores` (one per customer, in order).
    fn column<'a>(&'a self, scores: Cow<'a, [f64]>) -> CfScores<'a> {
        CfScores {
            sites: &self.customers,
            scores,
        }
    }

    /// Monthly mean daily score for a metric.
    pub fn monthly(&self, m: CfMetric) -> CfScores<'_> {
        let n = self.customers.len();
        let mut mean = self.monthly_sum[m.index() * n..][..n].to_vec();
        if self.days_ingested > 0 {
            let days = self.days_ingested as f64;
            for x in &mut mean {
                *x /= days;
            }
        }
        self.column(Cow::Owned(mean))
    }

    /// Daily scores for one of the seven final metrics (index into
    /// [`CfMetric::final_seven`]). All-requests is index 0 and root-page
    /// index 2, the two page-load bookends.
    pub fn daily_final(&self, final_idx: usize, day_index: usize) -> CfScores<'_> {
        let n = self.customers.len();
        self.column(Cow::Borrowed(
            &self.daily_final[day_index][final_idx * n..][..n],
        ))
    }

    /// Daily all-requests scores (Figure 3's reference metric).
    pub fn daily_all_requests(&self, day_index: usize) -> CfScores<'_> {
        self.daily_final(0, day_index)
    }

    /// The full 21-metric snapshot of the first ingested day (Figure 8).
    pub fn first_day(&self) -> Option<CfDay<'_>> {
        (self.days_ingested > 0).then_some(CfDay {
            sites: &self.customers,
            scores: &self.first_day,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Reader, WireError, Writer};
    use crate::DayScratch;
    use topple_sim::{DayTraffic, World, WorldConfig};

    /// A day's scores as dense `[metric][site]` vectors over the world —
    /// the reference form every test compares against.
    type Dense = Vec<Vec<f64>>;

    fn world_and_day() -> (World, DayTraffic) {
        let w = World::generate(WorldConfig::tiny(31)).unwrap();
        let t = w.simulate_day(0);
        (w, t)
    }

    fn densify(rows: &[CdnRow], n_sites: usize) -> Dense {
        let mut dense = vec![vec![0.0; n_sites]; METRIC_COUNT];
        for row in rows {
            for (m, &x) in row.scores.iter().enumerate() {
                dense[m][row.site.index()] = x;
            }
        }
        dense
    }

    /// The rows of the day `t` covers.
    fn observe_rows(w: &World, t: &DayTraffic) -> Vec<CdnRow> {
        DayScratch::new(w)
            .observe_day(w, t.day_index)
            .cdn
            .days
            .remove(&t.day_index)
            .unwrap()
    }

    /// The 21 metrics of the day `t` covers, densified.
    fn observe(w: &World, t: &DayTraffic) -> Dense {
        densify(&observe_rows(w, t), w.sites.len())
    }

    fn metric(f: CfFilter, agg: CfAgg) -> usize {
        CfMetric { filter: f, agg }.index()
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
        let rows = observe_rows(&w, &t);
        assert!(!rows.is_empty());
        assert!(rows.windows(2).all(|p| p[0].site < p[1].site));
        for row in &rows {
            let site = &w.sites[row.site.index()];
            assert!(site.cloudflare, "{} leaked into the CDN", site.domain);
            assert!(row.is_observed());
        }
    }

    #[test]
    fn filter_counts_are_ordered_subsets() {
        let (w, t) = world_and_day();
        let day = observe(&w, &t);
        let all = &day[metric(CfFilter::AllRequests, CfAgg::Raw)];
        for f in [
            CfFilter::Html,
            CfFilter::Status200,
            CfFilter::Referer,
            CfFilter::TopBrowsers,
            CfFilter::RootPage,
        ] {
            let sub = &day[metric(f, CfAgg::Raw)];
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
            let raw = &day[metric(f, CfAgg::Raw)];
            let ip = &day[metric(f, CfAgg::UniqueIp)];
            let ipua = &day[metric(f, CfAgg::UniqueIpUa)];
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
        let tls = &day[metric(CfFilter::Tls, CfAgg::Raw)];
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
        let mut scratch = DayScratch::new(&w);
        v.ingest_shard(scratch.observe_day(&w, 0).cdn);
        v.ingest_shard(scratch.observe_day(&w, 1).cdn);
        let d0 = observe(&w, &w.simulate_day(0));
        let d1 = observe(&w, &w.simulate_day(1));
        let customers: Vec<SiteId> = w
            .sites
            .iter()
            .filter(|s| s.cloudflare)
            .map(|s| s.id)
            .collect();
        assert_eq!(v.customers(), customers);
        for m in CfMetric::full_suite() {
            let monthly: Vec<(SiteId, f64)> = v.monthly(m).iter().collect();
            assert_eq!(monthly.len(), customers.len());
            for (p, (site, got)) in monthly.into_iter().enumerate() {
                assert_eq!(site, customers[p]);
                let i = site.index();
                let want = (d0[m.index()][i] + d1[m.index()][i]) / 2.0;
                assert_eq!(got.to_bits(), want.to_bits(), "{m:?} position {p}");
            }
            let first: Vec<f64> = v
                .first_day()
                .unwrap()
                .metric(m)
                .iter()
                .map(|(_, x)| x)
                .collect();
            let want: Vec<f64> = customers.iter().map(|s| d0[m.index()][s.index()]).collect();
            assert_eq!(first, want, "{m:?} first day");
        }
        for (fi, m) in CfMetric::final_seven().iter().enumerate() {
            for (d, dense) in [&d0, &d1].into_iter().enumerate() {
                let got: Vec<f64> = v.daily_final(fi, d).iter().map(|(_, x)| x).collect();
                let want: Vec<f64> = customers
                    .iter()
                    .map(|s| dense[m.index()][s.index()])
                    .collect();
                assert_eq!(got, want, "{m:?} day {d}");
            }
        }
        assert_eq!(v.days(), 2);
    }

    #[test]
    fn ranking_orders_by_score_then_site_and_drops_zeros() {
        let sites: Vec<SiteId> = [1, 3, 4, 7, 9, 12].map(SiteId).to_vec();
        let scores = CfScores {
            sites: &sites,
            scores: Cow::Owned(vec![5.0, 0.0, 2.0, 5.0, 0.0, 9.0]),
        };
        let ids: Vec<u32> = scores.ranked().iter().map(|s| s.0).collect();
        assert_eq!(ids, vec![12, 1, 7, 4]); // the tie (1, 7) broken by site id
    }

    #[test]
    fn same_day_merge_sums_rows_and_unions_sites() {
        let w = World::generate(WorldConfig::tiny(35)).unwrap();
        let a = DayScratch::new(&w).observe_day(&w, 0).cdn;
        let mut twice = a.clone();
        crate::Shard::merge(&mut twice, a.clone());
        let dense = densify(&a.days[&0], w.sites.len());
        let doubled = densify(&twice.days[&0], w.sites.len());
        for m in 0..METRIC_COUNT {
            for i in 0..w.sites.len() {
                assert_eq!(doubled[m][i], 2.0 * dense[m][i]);
            }
        }
        // A day only one side holds passes through untouched.
        let b = DayScratch::new(&w).observe_day(&w, 1).cdn;
        let mut both = a.clone();
        crate::Shard::merge(&mut both, b.clone());
        assert_eq!(both.days[&0], a.days[&0]);
        assert_eq!(both.days[&1], b.days[&1]);
    }

    /// Encodes `shard`, lets `patch` edit the dense bytes, decodes.
    fn decode_patched(
        shard: &CdnShard,
        patch: impl Fn(&mut Vec<u8>),
    ) -> Result<CdnShard, WireError> {
        let mut bytes = Vec::new();
        shard.wire_encode(&mut Writer::new(&mut bytes));
        patch(&mut bytes);
        let mut r = Reader::new(&bytes);
        let decoded = CdnShard::wire_decode(&mut r)?;
        r.finish()?;
        Ok(decoded)
    }

    #[test]
    fn wire_form_is_dense_and_decodes_to_the_same_rows() {
        let w = World::generate(WorldConfig::tiny(37)).unwrap();
        let shard = DayScratch::new(&w).observe_day(&w, 0).cdn;
        let mut bytes = Vec::new();
        shard.wire_encode(&mut Writer::new(&mut bytes));
        // n_days, day, n_metrics, then 21 × (n_sites, n_sites scores).
        assert_eq!(bytes.len(), 12 + METRIC_COUNT * (4 + 8 * w.sites.len()));
        assert_eq!(decode_patched(&shard, |_| {}).unwrap(), shard);
    }

    #[test]
    fn wire_decode_refuses_scores_that_are_not_counts() {
        let w = World::generate(WorldConfig::tiny(39)).unwrap();
        let shard = DayScratch::new(&w).observe_day(&w, 0).cdn;
        // The first score of metric 0 sits after n_days, day, n_metrics and
        // that metric's n_sites.
        for bad in [-1.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let got = decode_patched(&shard, |b| b[16..24].copy_from_slice(&bad.to_le_bytes()));
            assert!(
                matches!(got, Err(WireError::Malformed { .. })),
                "{bad} decoded: {got:?}"
            );
        }
        // A metric narrower than the first is refused too.
        let got = decode_patched(&shard, |b| {
            let n = u32::try_from(w.sites.len() - 1).unwrap();
            let at = 16 + 8 * w.sites.len();
            b[at..at + 4].copy_from_slice(&n.to_le_bytes());
        });
        assert!(matches!(got, Err(WireError::Malformed { .. })));
    }

    /// The retired map-based implementation, kept as an executable spec:
    /// the scratch-table builder must produce bit-identical metrics.
    fn reference_observe_day(world: &World, traffic: &DayTraffic) -> Dense {
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
        let mut scores: Dense = vec![vec![0.0; n]; METRIC_COUNT];
        for (i, fc) in raw.iter().enumerate() {
            for f in CfFilter::ALL {
                scores[metric(f, CfAgg::Raw)][i] = f64::from(fc.counts[f.index()]);
            }
        }
        for ((site, _ip), bits) in &uniq_ip {
            for f in CfFilter::ALL {
                if bits & (1 << f.index()) != 0 {
                    scores[metric(f, CfAgg::UniqueIp)][*site as usize] += 1.0;
                }
            }
        }
        for ((site, _ip, _ua), bits) in &uniq_ip_ua {
            for f in CfFilter::ALL {
                if bits & (1 << f.index()) != 0 {
                    scores[metric(f, CfAgg::UniqueIpUa)][*site as usize] += 1.0;
                }
            }
        }
        scores
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
            let got = densify(&b.finish_rows(), w.sites.len());
            let want = reference_observe_day(&w, &t);
            for m in 0..METRIC_COUNT {
                for i in 0..w.sites.len() {
                    assert_eq!(
                        got[m][i].to_bits(),
                        want[m][i].to_bits(),
                        "day {d} metric {m} site {i}"
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
        let mut automation_traffic = 0.0;
        for pl in &t.page_loads {
            let c = &w.clients[pl.client.index()];
            if c.browser == Browser::Automation && w.sites[pl.site.index()].cloudflare {
                automation_traffic += f64::from(pl.total_requests());
            }
        }
        if automation_traffic > 0.0 {
            let total_all: f64 = day[metric(CfFilter::AllRequests, CfAgg::Raw)].iter().sum();
            let total_top: f64 = day[metric(CfFilter::TopBrowsers, CfAgg::Raw)].iter().sum();
            assert!(
                total_top < total_all,
                "top-browser filter must drop automation"
            );
        }
    }
}
