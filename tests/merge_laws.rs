//! Merge-law property suite for the shard/merge ingestion architecture.
//!
//! The parallel study pipeline is only sound if every vantage's shard merge
//! is a commutative monoid (identity + associativity + commutativity) and if
//! ingesting a merged multi-day shard is indistinguishable from ingesting the
//! same days sequentially. These laws are what let workers build shards in
//! any completion order while the fold reconstructs the exact sequential
//! result — the byte-level consequence is pinned by `tests/determinism.rs`.
//!
//! Cases are generated by a hand-rolled seeded LCG (no external property
//! framework): random day triples over seeded tiny worlds, for all five
//! traffic-ingesting vantages of a study — CDN, Chrome, the two DNS
//! resolvers (Umbrella and the Chinese resolver behind Secrank), and the
//! panel — plus the combined `DayShards` unit the pipeline ships. The
//! crawler has no shard: it reads the static link graph, not daily traffic.
//!
//! The reference shards come from [`replay`], a segregated-order replay of
//! the collected day. The streamed `DayScratch` path must reproduce them
//! exactly on tiny worlds, over the small preset's full window on one
//! reused scratch, and through `observe_day_shards` on several workers:
//! stream order cannot change a shard.

use std::fmt::Debug;
use std::fmt::Write as _;

use toppling::core::observe_day_shards;
use toppling::sim::{DayTraffic, EventSink as _, Resolver, World, WorldConfig};
use toppling::vantage::{
    CdnShard, CdnVantage, CfMetric, CfScores, ChromeMetric, ChromeShard, ChromeVantage, DayScratch,
    DayShards, DnsShard, DnsVantage, PanelShard, PanelVantage, Shard, TELEMETRY_PLATFORMS,
};

/// Days each test world simulates (the tiny preset's full window).
const N_DAYS: usize = 7;

/// Deterministic case generator: a bare 64-bit LCG (Knuth MMIX constants).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// A triple of distinct day indices in `0..N_DAYS`, any order.
    fn day_triple(&mut self) -> [usize; 3] {
        let a = (self.next() as usize) % N_DAYS;
        let mut b = (self.next() as usize) % N_DAYS;
        while b == a {
            b = (self.next() as usize) % N_DAYS;
        }
        let mut c = (self.next() as usize) % N_DAYS;
        while c == a || c == b {
            c = (self.next() as usize) % N_DAYS;
        }
        [a, b, c]
    }
}

/// Observes a collected day through a fresh `DayScratch`'s observer in
/// segregated order — every page load, then every third-party fetch, then
/// every background query — so the only difference from the streamed path
/// is event order, which the builders' order-independent aggregations must
/// not see.
fn replay(world: &World, traffic: &DayTraffic) -> DayShards {
    let mut scratch = DayScratch::new(world);
    let (_, mut obs) = scratch.parts(world);
    for pl in &traffic.page_loads {
        obs.page_load(pl);
    }
    for tp in &traffic.third_party {
        obs.third_party(tp);
    }
    for bg in &traffic.background {
        obs.background(bg);
    }
    obs.finish_day(traffic.day_index)
}

/// A tiny world and every day's shards, replayed from the collected
/// `DayTraffic` (the reference path).
fn fixture(seed: u64) -> (World, Vec<DayShards>) {
    let world = World::generate(WorldConfig::tiny(seed)).unwrap();
    let shards = (0..N_DAYS)
        .map(|d| replay(&world, &world.simulate_day(d)))
        .collect();
    (world, shards)
}

fn merged<S: Shard>(mut a: S, b: S) -> S {
    a.merge(b);
    a
}

/// Identity, associativity, and commutativity over one day triple.
fn check_monoid_laws<S>(label: &str, days: [usize; 3], shard_of: impl Fn(usize) -> S)
where
    S: Shard + Clone + PartialEq + Debug,
{
    let [a, b, c] = days.map(&shard_of);

    // Identity on both sides.
    assert_eq!(
        merged(S::identity(), a.clone()),
        a,
        "{label}: left identity violated for day {}",
        days[0]
    );
    assert_eq!(
        merged(a.clone(), S::identity()),
        a,
        "{label}: right identity violated for day {}",
        days[0]
    );

    // Associativity: (a ∪ b) ∪ c == a ∪ (b ∪ c).
    let left = merged(merged(a.clone(), b.clone()), c.clone());
    let right = merged(a.clone(), merged(b.clone(), c.clone()));
    assert_eq!(left, right, "{label}: associativity violated for {days:?}");

    // Commutativity: a ∪ b == b ∪ a (stronger than the pipeline needs, but
    // every shard in the workspace satisfies it, so pin it).
    assert_eq!(
        merged(a.clone(), b.clone()),
        merged(b, a),
        "{label}: commutativity violated for {days:?}"
    );
}

#[test]
fn monoid_laws_hold_for_every_vantage_shard() {
    for world_seed in [71, 72] {
        let (_, ts) = fixture(world_seed);
        let mut lcg = Lcg(world_seed ^ 0x5EED);
        for _ in 0..6 {
            let days = lcg.day_triple();
            check_monoid_laws("cdn", days, |d| ts[d].cdn.clone());
            check_monoid_laws("chrome", days, |d| ts[d].chrome.clone());
            check_monoid_laws("dns/umbrella", days, |d| ts[d].umbrella.clone());
            check_monoid_laws("dns/china", days, |d| ts[d].china.clone());
            check_monoid_laws("panel", days, |d| ts[d].panel.clone());
            check_monoid_laws("day-shards", days, |d| ts[d].clone());
        }
    }
}

#[test]
fn shards_observe_something_on_every_day() {
    // Guards the laws above against vacuous truth: an all-empty shard set
    // satisfies every monoid law.
    let (_, ts) = fixture(73);
    for (d, sh) in ts.iter().enumerate() {
        assert_ne!(*sh, DayShards::identity(), "day {d} observed nothing");
        assert_eq!(sh.cdn.day_indices().collect::<Vec<_>>(), vec![d]);
        assert_eq!(sh.chrome.day_indices().collect::<Vec<_>>(), vec![d]);
        assert_eq!(sh.umbrella.day_indices().collect::<Vec<_>>(), vec![d]);
        assert_eq!(sh.china.day_indices().collect::<Vec<_>>(), vec![d]);
        assert_eq!(sh.panel.day_indices().collect::<Vec<_>>(), vec![d]);
    }
}

// ---- shard-vs-sequential equivalence --------------------------------------
//
// Ingesting merge(shard(0), ..., shard(k-1)) must equal ingesting days
// 0..k one at a time. Vantages don't implement Eq, so each is compared via
// an exhaustive textual fingerprint of its observable state.

/// Every customer site's `(site id, score)` row of a CDN column.
fn cdn_rows(scores: &CfScores<'_>) -> Vec<(u32, f64)> {
    scores.iter().map(|(site, x)| (site.0, x)).collect()
}

fn fp_cdn(v: &CdnVantage) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "days={} sites={} customers={}",
        v.days(),
        v.site_count(),
        v.customers().len()
    );
    for m in CfMetric::full_suite() {
        let _ = writeln!(out, "monthly {} {:?}", m.label(), cdn_rows(&v.monthly(m)));
    }
    for day in 0..v.days() {
        for (i, m) in CfMetric::final_seven().iter().enumerate() {
            let _ = writeln!(
                out,
                "daily d{day} {} {:?}",
                m.label(),
                cdn_rows(&v.daily_final(i, day))
            );
        }
    }
    if let Some(first) = v.first_day() {
        for m in CfMetric::full_suite() {
            let _ = writeln!(out, "first {} {:?}", m.label(), cdn_rows(&first.metric(m)));
        }
    }
    out
}

fn fp_chrome(w: &World, v: &ChromeVantage) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "days={} optin={}", v.day_count(), v.optin_clients());
    for (origin, score) in v.global_completed_list(1) {
        let _ = writeln!(
            out,
            "global {} {score:?}",
            ChromeVantage::origin_text(w, origin)
        );
    }
    for country in toppling::sim::Country::ALL {
        for platform in TELEMETRY_PLATFORMS {
            for metric in ChromeMetric::ALL {
                for (origin, score) in v.country_platform_list(country, platform, metric, 1) {
                    let _ = writeln!(
                        out,
                        "cp {country:?}/{platform:?}/{} {} {score:?}",
                        metric.label(),
                        ChromeVantage::origin_text(w, origin),
                    );
                }
            }
        }
    }
    out
}

fn fp_dns(w: &World, v: &DnsVantage) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "resolver={:?} days={}", v.resolver(), v.day_count());
    for day in 0..v.day_count() {
        let mut names: Vec<_> = v
            .day(day)
            .names()
            .map(|(n, s)| (*n, s.queries, s.unique_ips))
            .collect();
        names.sort_unstable();
        for (n, q, u) in names {
            let _ = writeln!(out, "d{day} {} q={q} u={u}", DnsVantage::name_text(w, n));
        }
    }
    let mut votes: Vec<_> = v
        .votes()
        .into_iter()
        .map(|((ip, site), cell)| (ip, site, cell.queries, cell.day_mask))
        .collect();
    votes.sort_unstable();
    for (ip, site, q, mask) in votes {
        let _ = writeln!(out, "vote {ip} {site:?} q={q} mask={mask:#x}");
    }
    out
}

fn fp_panel(v: &PanelVantage) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "days={} panel={}", v.day_count(), v.panel_size());
    for day in 0..v.day_count() {
        for (site, stats) in v.day(day).sites() {
            let _ = writeln!(
                out,
                "d{day} {site:?} pv={} vis={}",
                stats.pageviews, stats.visitors
            );
        }
    }
    out
}

/// Merges the first `k` day shards — in a fold order chosen by the LCG, to
/// exercise order independence — and compares the resulting vantage against
/// the sequential ingest of the same days.
fn check_equivalence(w: &World, ts: &[DayShards], k: usize, lcg: &mut Lcg) {
    let mut order: Vec<usize> = (0..k).collect();
    // Fisher–Yates driven by the LCG: shards arrive in shuffled order, as
    // they would from a worker pool.
    for i in (1..k).rev() {
        order.swap(i, (lcg.next() as usize) % (i + 1));
    }

    let mut cdn_sh = CdnShard::identity();
    let mut chrome_sh = ChromeShard::identity();
    let mut umb_sh = DnsShard::identity();
    let mut china_sh = DnsShard::identity();
    let mut panel_sh = PanelShard::identity();
    for &d in &order {
        cdn_sh.merge(ts[d].cdn.clone());
        chrome_sh.merge(ts[d].chrome.clone());
        umb_sh.merge(ts[d].umbrella.clone());
        china_sh.merge(ts[d].china.clone());
        panel_sh.merge(ts[d].panel.clone());
    }

    let mut cdn_a = CdnVantage::new(w);
    cdn_a.ingest_shard(cdn_sh);
    let mut chrome_a = ChromeVantage::new(w);
    chrome_a.ingest_shard(chrome_sh);
    let mut umb_a = DnsVantage::new(Resolver::Umbrella);
    umb_a.ingest_shard(w, umb_sh);
    let mut china_a = DnsVantage::new(Resolver::ChinaVoting);
    china_a.ingest_shard(w, china_sh);
    let mut panel_a = PanelVantage::new(w);
    panel_a.ingest_shard(panel_sh);

    let mut cdn_b = CdnVantage::new(w);
    let mut chrome_b = ChromeVantage::new(w);
    let mut umb_b = DnsVantage::new(Resolver::Umbrella);
    let mut china_b = DnsVantage::new(Resolver::ChinaVoting);
    let mut panel_b = PanelVantage::new(w);
    for sh in &ts[..k] {
        let sh = sh.clone();
        cdn_b.ingest_shard(sh.cdn);
        chrome_b.ingest_shard(sh.chrome);
        umb_b.ingest_shard(w, sh.umbrella);
        china_b.ingest_shard(w, sh.china);
        panel_b.ingest_shard(sh.panel);
    }

    assert_eq!(fp_cdn(&cdn_a), fp_cdn(&cdn_b), "cdn k={k} order={order:?}");
    assert_eq!(
        fp_chrome(w, &chrome_a),
        fp_chrome(w, &chrome_b),
        "chrome k={k} order={order:?}"
    );
    assert_eq!(
        fp_dns(w, &umb_a),
        fp_dns(w, &umb_b),
        "dns/umbrella k={k} order={order:?}"
    );
    assert_eq!(
        fp_dns(w, &china_a),
        fp_dns(w, &china_b),
        "dns/china k={k} order={order:?}"
    );
    assert_eq!(
        fp_panel(&panel_a),
        fp_panel(&panel_b),
        "panel k={k} order={order:?}"
    );
}

#[test]
fn merged_shards_equal_sequential_ingest() {
    for world_seed in [74, 75] {
        let (w, ts) = fixture(world_seed);
        let mut lcg = Lcg(world_seed ^ 0xCA5E);
        for k in [1, 2, 3, N_DAYS] {
            check_equivalence(&w, &ts, k, &mut lcg);
        }
    }
}

/// The fused streaming pipeline must be observationally identical to the
/// segregated replay: observing a day through a (reused) `DayScratch` yields
/// exactly the `DayShards` that [`replay`] builds from the collected
/// `DayTraffic`. This is what licenses `Study::run` to stream.
#[test]
fn streamed_day_shards_equal_materialized_day_shards() {
    for world_seed in [74, 77] {
        let (w, ts) = fixture(world_seed);
        let mut scratch = DayScratch::new(&w);
        // Deliberately out of order, with a revisit: scratch reuse across
        // days must leak nothing between epochs.
        for d in [0, 3, 1, 3, N_DAYS - 1] {
            let streamed = scratch.observe_day(&w, d);
            assert_eq!(streamed, ts[d], "seed {world_seed} day {d}");
        }
    }
}

/// The same equality over a realistic window: the small preset's full
/// window, observed on one scratch reused across every day.
#[test]
fn fused_window_matches_materialized_window() {
    let world = World::generate(WorldConfig::small(7070)).unwrap();
    let n_days = world.config.days.len();
    let mut scratch = DayScratch::new(&world);
    for d in 0..n_days {
        let fused = scratch.observe_day(&world, d);
        let traffic = world.simulate_day(d);
        assert_eq!(fused, replay(&world, &traffic), "day {d}");
    }
}

/// And through the study's fan-out: fewer workers than days, so each
/// worker's scratch is reused across days, in whatever order the workers
/// claim them — the study's access pattern.
#[test]
fn pooled_scratch_across_threads_matches_materialized() {
    let world = World::generate(WorldConfig::small(7071)).unwrap();
    let n_days = world.config.days.len();
    let fused = observe_day_shards(&world, n_days, 3);
    assert_eq!(fused.len(), n_days);
    for (d, got) in fused.into_iter().enumerate() {
        let traffic = world.simulate_day(d);
        let want = replay(&world, &traffic);
        assert_eq!(got, want, "day {d}");
    }
}

/// Adversarial same-day merge pressure: fixed-width counters must saturate,
/// not wrap. Doubling a one-day shard into itself 70 times pushes every
/// nonzero `u32`/`u64` counter past its range; with wrapping arithmetic
/// they would land on garbage (mostly zero), with saturating arithmetic
/// they pin at `MAX` — and `min(a + b, MAX)` stays associative and
/// commutative, so the monoid laws survive the abuse.
#[test]
fn counter_merges_saturate_instead_of_wrapping() {
    let (w, ts) = fixture(74);

    fn doubled<S: Shard + Clone>(mut s: S, times: usize) -> S {
        for _ in 0..times {
            let copy = s.clone();
            s.merge(copy);
        }
        s
    }

    // DNS: queries are u64, unique IPs u32 — both must pin at MAX. The TTL
    // gate clamps website-name candidates to one escaping query per client
    // at fold time, so the saturated counters are visible at the vantage
    // only through background names, whose per-day stats transfer verbatim.
    let sat = doubled(ts[0].umbrella.clone(), 70);
    let mut dns = DnsVantage::new(Resolver::Umbrella);
    dns.ingest_shard(&w, sat.clone());
    let mut names = 0;
    for (name, stats) in dns.day(0).names() {
        if !matches!(name, toppling::vantage::QueriedName::Background(_)) {
            continue;
        }
        names += 1;
        assert_eq!(stats.queries, u64::MAX, "u64 query counter wrapped");
        assert_eq!(stats.unique_ips, u32::MAX, "u32 ip counter wrapped");
    }
    assert!(names > 0, "fixture day observed no background DNS names");

    // Panel: pageviews and visitors are u32.
    let sat_panel = doubled(ts[0].panel.clone(), 70);
    let mut panel = PanelVantage::new(&w);
    panel.ingest_shard(sat_panel.clone());
    let mut sites = 0;
    for (_, stats) in panel.day(0).sites() {
        sites += 1;
        assert_eq!(stats.pageviews, u32::MAX, "pageview counter wrapped");
        assert_eq!(stats.visitors, u32::MAX, "visitor counter wrapped");
    }
    assert!(sites > 0, "fixture day observed no panel sites");

    // Once saturated, a self-merge is a fixed point (MAX + MAX = MAX and
    // client sets are already equal) — wrapping has no such fixed point at
    // MAX. Chrome is covered through the same check.
    let sat_chrome = doubled(ts[0].chrome.clone(), 70);
    assert_eq!(merged(sat_chrome.clone(), sat_chrome.clone()), sat_chrome);
    assert_eq!(merged(sat.clone(), sat.clone()), sat);
    assert_eq!(merged(sat_panel.clone(), sat_panel.clone()), sat_panel);

    // And the laws still hold between saturated and unsaturated shards.
    let day1 = ts[1].umbrella.clone();
    assert_eq!(
        merged(sat.clone(), day1.clone()),
        merged(day1.clone(), sat.clone()),
        "saturating merge lost commutativity"
    );
    assert_eq!(
        merged(merged(sat.clone(), day1.clone()), day1.clone()),
        merged(sat.clone(), merged(day1.clone(), day1)),
        "saturating merge lost associativity"
    );
}
