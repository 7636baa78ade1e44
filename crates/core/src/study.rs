//! Study orchestration: run the world once, feed every vantage, build every
//! list, and cache what the experiments need.
//!
//! Day simulation *and* per-day vantage observation run fused on the
//! ordered fan-out ([`topple_stats::fanout`], `WorldConfig::workers` /
//! `TOPPLE_WORKERS`): each worker streams a day's events straight into all
//! five vantage builders as the simulator generates them
//! ([`topple_vantage::DayScratch`] — no materialized `DayTraffic`, per-day
//! working state in the worker's reusable scratch) and condenses it into
//! mergeable [`DayShards`]; the calling thread folds completed shards into
//! the vantage accumulators in strict day order. The fold order — not the
//! workers' completion order — is what reaches the accumulators, so results
//! are byte-identical at any worker count (`tests/determinism.rs`), and the
//! fan-out's admission window keeps at most `2 × workers` days of shards
//! waiting for the fold.

use topple_lists::{
    alexa, crux, majestic, secrank, tranco, trexa, umbrella, BucketedList, DomainId, DomainTable,
    ListSource, NormalizedList, Normalizer, RankedList,
};
use topple_psl::DomainName;
use topple_sim::{Resolver, World, WorldConfig, WorldError};
use topple_stats::fanout::for_each_ordered;
use topple_vantage::{
    CdnVantage, CfMetric, ChromeVantage, CrawlerVantage, DayScratch, DayShards, DnsVantage,
    PanelVantage, ScoreVec,
};

use crate::index::{ColumnsSet, ListColumns, StudyIndex};

/// How many Alexa picks per Tranco pick in the Trexa interleave.
const TREXA_ALEXA_WEIGHT: usize = 2;

/// The month-representative normalized list of every source, stored as one
/// field per source so lookup is infallible by construction (no map, no
/// missing-key panic path).
struct NormalizedSet {
    alexa: NormalizedList,
    umbrella: NormalizedList,
    majestic: NormalizedList,
    secrank: NormalizedList,
    tranco: NormalizedList,
    trexa: NormalizedList,
    crux: NormalizedList,
}

impl NormalizedSet {
    fn get(&self, source: ListSource) -> &NormalizedList {
        match source {
            ListSource::Alexa => &self.alexa,
            ListSource::Umbrella => &self.umbrella,
            ListSource::Majestic => &self.majestic,
            ListSource::Secrank => &self.secrank,
            ListSource::Tranco => &self.tranco,
            ListSource::Trexa => &self.trexa,
            ListSource::Crux => &self.crux,
        }
    }
}

/// The five traffic-ingesting vantage accumulators a study folds shards
/// into, bundled so the pipeline can pass them around as one unit.
struct Accumulators {
    cdn: CdnVantage,
    chrome: ChromeVantage,
    umbrella_dns: DnsVantage,
    china_dns: DnsVantage,
    panel: PanelVantage,
}

impl Accumulators {
    fn new(world: &World) -> Self {
        Accumulators {
            cdn: CdnVantage::new(world),
            chrome: ChromeVantage::new(world),
            umbrella_dns: DnsVantage::new(Resolver::Umbrella),
            china_dns: DnsVantage::new(Resolver::ChinaVoting),
            panel: PanelVantage::new(world),
        }
    }

    /// Folds one day's shards in. Must be called in ascending day order —
    /// the vantages assert it.
    fn fold(&mut self, world: &World, shards: DayShards) {
        self.cdn.ingest_shard(shards.cdn);
        self.chrome.ingest_shard(shards.chrome);
        self.umbrella_dns.ingest_shard(world, shards.umbrella);
        self.china_dns.ingest_shard(world, shards.china);
        self.panel.ingest_shard(shards.panel);
    }
}

/// Simulates and ingests every day of the window through the fused
/// streaming pipeline ([`DayScratch::observe_day`]): each day's traffic is
/// observed by all five vantages as it is generated, with no materialized
/// `DayTraffic` and all per-day working state in reusable scratch.
///
/// Runs on [`for_each_ordered`]: each worker builds one [`DayScratch`] and
/// reuses its warmed capacity for every day it claims, and the calling
/// thread folds the days' [`DayShards`] in strict day order, with at most
/// `2 × workers` days of shards awaiting the fold.
fn run_days(world: &World, acc: &mut Accumulators, workers: usize) {
    for_each_ordered(
        world.config.days.len(),
        workers,
        || DayScratch::new(world),
        |scratch, d| scratch.observe_day(world, d),
        |_, shards| acc.fold(world, shards),
    );
}

/// Observes days `0..n_days` of the world into per-day [`DayShards`] without
/// folding them — the raw material for [`Study::from_shards`], delta
/// snapshots, and live ingestion.
///
/// Uses the same fused streaming pipeline and fan-out as [`Study::run`]
/// (days are RNG-independent), so the returned shards are identical at any
/// worker count. `n_days` is clamped to the world's window.
pub fn observe_day_shards(world: &World, n_days: usize, workers: usize) -> Vec<DayShards> {
    let n_days = n_days.min(world.config.days.len());
    let mut out = Vec::with_capacity(n_days);
    for_each_ordered(
        n_days,
        workers,
        || DayScratch::new(world),
        |scratch, d| scratch.observe_day(world, d),
        |_, shards| out.push(shards),
    );
    out
}

/// A fully-materialized study: the world, every vantage's accumulated view,
/// and every top list.
pub struct Study {
    /// The simulated world.
    pub world: World,
    /// The Cloudflare-style CDN vantage.
    pub cdn: CdnVantage,
    /// Chrome telemetry.
    pub chrome: ChromeVantage,
    /// The Umbrella resolver.
    pub umbrella_dns: DnsVantage,
    /// The Chinese resolver behind Secrank.
    pub china_dns: DnsVantage,
    /// The extension panel.
    pub panel: PanelVantage,
    /// The link-graph crawl.
    pub crawl: CrawlerVantage,
    /// Daily Alexa lists (trailing-window construction).
    pub alexa_daily: Vec<RankedList>,
    /// Daily Umbrella lists.
    pub umbrella_daily: Vec<RankedList>,
    /// The Majestic list (crawl-derived; essentially static within a month).
    pub majestic: RankedList,
    /// The Secrank list (monthly voting).
    pub secrank: RankedList,
    /// The Tranco list (Dowdall over the whole window).
    pub tranco: RankedList,
    /// The Trexa list.
    pub trexa: RankedList,
    /// The CrUX bucketed list.
    pub crux: BucketedList,
    /// Month-representative normalized lists, one per source.
    normalized: NormalizedSet,
    /// The interned columnar analysis index (see [`crate::index`]).
    index: StudyIndex,
}

impl Study {
    /// Runs the full pipeline at the given configuration.
    ///
    /// Day simulation *and* vantage observation run on
    /// `config.effective_workers()` worker threads (days are
    /// RNG-independent and shard construction is pure); the shards are then
    /// folded into the accumulators in strict day order, so the worker
    /// count never affects results.
    pub fn run(config: WorldConfig) -> Result<Study, WorldError> {
        let workers = config.effective_workers();
        let world = World::generate(config)?;
        let n_days = world.config.days.len();
        let mut acc = Accumulators::new(&world);
        run_days(&world, &mut acc, workers);
        Ok(Study::assemble(world, acc, n_days))
    }

    /// Builds a study from pre-observed day shards instead of simulating the
    /// window inline — the live-serving entry point.
    ///
    /// The shards are merged (order-insensitively — [`DayShards`] is a
    /// commutative monoid) and must cover a contiguous prefix of the world's
    /// day window starting at day 0; `world` must be the same world the
    /// shards were observed from. The resulting study is byte-identical to
    /// [`Study::run`] over the same prefix: the merged shard is folded into
    /// the accumulators exactly as the streaming pipeline would have folded
    /// the per-day shards in day order. Shards naming sites, clients or
    /// names that `world` lacks are refused with [`CoreError::ShardIds`]
    /// before anything is folded.
    ///
    /// [`CoreError::ShardIds`]: crate::error::CoreError::ShardIds
    pub fn from_shards(
        world: World,
        shards: Vec<DayShards>,
    ) -> Result<Study, crate::error::CoreError> {
        use crate::error::CoreError;
        use topple_vantage::Shard as _;

        let mut merged = DayShards::identity();
        for s in shards {
            merged.merge(s);
        }
        let days = merged.coverage().ok_or(CoreError::ShardWindow {
            context: "the five vantage shards disagree about day coverage",
        })?;
        let n_days = days.len();
        if n_days == 0 {
            return Err(CoreError::EmptyWindow);
        }
        if days.iter().copied().ne(0..n_days) {
            return Err(CoreError::ShardWindow {
                context: "day coverage is not a contiguous prefix starting at day 0",
            });
        }
        if n_days > world.config.days.len() {
            return Err(CoreError::ShardWindow {
                context: "shards cover more days than the world's window",
            });
        }
        merged.check_ids(&world).map_err(CoreError::ShardIds)?;
        let mut acc = Accumulators::new(&world);
        acc.fold(&world, merged);
        Ok(Study::assemble(world, acc, n_days))
    }

    /// Everything after ingestion: build every list and the columnar index
    /// from accumulators that have folded days `0..n_days`.
    fn assemble(world: World, acc: Accumulators, n_days: usize) -> Study {
        let list_len = world.sites.len();
        let Accumulators {
            cdn,
            chrome,
            umbrella_dns,
            china_dns,
            panel,
        } = acc;

        // The crawl is time-independent within the window.
        let crawl = CrawlerVantage::crawl(&world, 25, usize::MAX);

        // Daily lists.
        let alexa_daily: Vec<RankedList> = (0..n_days)
            .map(|d| alexa::build_daily(&world, &panel, d, n_days, list_len))
            .collect();
        // Umbrella daily snapshots fold a short trailing window (see the
        // builder's docs for the scale rationale).
        let umbrella_daily: Vec<RankedList> = (0..n_days)
            .map(|d| umbrella::build_daily(&world, &umbrella_dns, d, 3, list_len))
            .collect();
        let majestic = majestic::build(&world, &crawl, list_len);
        let secrank = secrank::build(&world, &china_dns, n_days, list_len);

        // Every normalization from here on shares one `Normalizer`: the
        // world's site domains are interned first (so site `i` has domain id
        // `i`), and the memoized PSL cache maps each distinct raw entry to
        // its registrable domain exactly once for the whole study.
        let mut table = DomainTable::with_capacity(world.sites.len());
        let site_ids: Vec<DomainId> = world
            .sites
            .iter()
            .map(|s| table.intern(&s.domain))
            .collect();
        let mut norm = Normalizer::with_table(&world.psl, table);

        // Tranco: Dowdall over every daily snapshot of its three inputs
        // (Majestic's list is stable, so each day contributes the same one).
        // Real Tranco aggregates at pay-level-domain granularity, so
        // Umbrella's FQDN entries are PSL-filtered first.
        let umbrella_domains: Vec<RankedList> = umbrella_daily
            .iter()
            .map(|l| norm.ranked(l).to_ranked_list())
            .collect();
        let mut tranco_inputs: Vec<&RankedList> = Vec::new();
        tranco_inputs.extend(alexa_daily.iter());
        tranco_inputs.extend(umbrella_domains.iter());
        for _ in 0..n_days {
            tranco_inputs.push(&majestic);
        }
        let tranco = tranco::build(&tranco_inputs, list_len);
        #[allow(clippy::expect_used)]
        // topple-lint: allow(unwrap): both callers guarantee n_days >= 1 (WorldConfig::validate rejects an empty window; from_shards rejects empty coverage)
        let alexa_month = alexa_daily.last().expect("window is non-empty");
        let trexa = trexa::build(&tranco, alexa_month, TREXA_ALEXA_WEIGHT, list_len);

        let magnitudes: Vec<usize> = world
            .config
            .rank_magnitudes()
            .iter()
            .map(|&(_, k)| k)
            .collect();
        let crux = crux::build(&world, &chrome, &magnitudes);

        // Month-representative normalized lists, one per source — the struct
        // makes "every source has one" a compile-time fact.
        let normalized = NormalizedSet {
            alexa: norm.ranked(alexa_month),
            umbrella: norm.ranked(&umbrella::build_monthly(&world, &umbrella_dns, list_len)),
            majestic: norm.ranked(&majestic),
            secrank: norm.ranked(&secrank),
            tranco: norm.ranked(&tranco),
            trexa: norm.ranked(&trexa),
            crux: norm.bucketed(&crux),
        };

        // Daily snapshots, normalized once here — analyses only ever see the
        // id columns, never a re-normalization inside a day loop. The
        // `NormalizedList`s are transient; only the columns survive.
        let alexa_daily_norm: Vec<NormalizedList> =
            alexa_daily.iter().map(|l| norm.ranked(l)).collect();
        let umbrella_daily_norm: Vec<NormalizedList> =
            umbrella_daily.iter().map(|l| norm.ranked(l)).collect();

        // Interning is complete: freeze the table and precompute the
        // CDN-served flag per id (one `is_cloudflare` probe per distinct
        // domain for the whole study).
        let table = norm.into_table();
        let is_cf: Vec<bool> = table
            .names()
            .iter()
            .map(|n| world.is_cloudflare(n))
            .collect();
        let cf = |id: DomainId| is_cf[id.index()];
        let monthly = ColumnsSet {
            alexa: ListColumns::from_normalized(&normalized.alexa, cf),
            umbrella: ListColumns::from_normalized(&normalized.umbrella, cf),
            majestic: ListColumns::from_normalized(&normalized.majestic, cf),
            secrank: ListColumns::from_normalized(&normalized.secrank, cf),
            tranco: ListColumns::from_normalized(&normalized.tranco, cf),
            trexa: ListColumns::from_normalized(&normalized.trexa, cf),
            crux: ListColumns::from_normalized(&normalized.crux, cf),
        };
        let alexa_cols: Vec<ListColumns> = alexa_daily_norm
            .iter()
            .map(|nl| ListColumns::from_normalized(nl, cf))
            .collect();
        let umbrella_cols: Vec<ListColumns> = umbrella_daily_norm
            .iter()
            .map(|nl| ListColumns::from_normalized(nl, cf))
            .collect();
        let index = StudyIndex::new(table, site_ids, is_cf, monthly, alexa_cols, umbrella_cols);

        Study {
            world,
            cdn,
            chrome,
            umbrella_dns,
            china_dns,
            panel,
            crawl,
            alexa_daily,
            umbrella_daily,
            majestic,
            secrank,
            tranco,
            trexa,
            crux,
            normalized,
            index,
        }
    }

    /// The interned columnar analysis index (domain table, id columns,
    /// CF-served flags).
    pub fn index(&self) -> &StudyIndex {
        &self.index
    }

    /// The month-representative normalized list for a source. Infallible:
    /// every source's list is a plain struct field, filled at construction.
    pub fn normalized(&self, source: ListSource) -> &NormalizedList {
        self.normalized.get(source)
    }

    /// The scaled rank magnitudes of this study's world.
    pub fn magnitudes(&self) -> Vec<(&'static str, usize)> {
        self.world.config.rank_magnitudes()
    }

    /// Ranked Cloudflare domains for a metric score vector (best first).
    pub fn cf_ranked_domains(&self, scores: &ScoreVec) -> Vec<&DomainName> {
        topple_vantage::ranked_sites(scores)
            .into_iter()
            .map(|(site, _)| &self.world.sites[site.index()].domain)
            .collect()
    }

    /// Ranked Cloudflare domains for a monthly metric.
    pub fn cf_monthly_domains(&self, metric: CfMetric) -> Vec<DomainName> {
        let scores = self.cdn.monthly(metric);
        topple_vantage::ranked_sites(&scores)
            .into_iter()
            .map(|(site, _)| self.world.sites[site.index()].domain.clone())
            .collect()
    }

    /// Ranked Cloudflare domain ids for a monthly metric — the id-space form
    /// of [`Self::cf_monthly_domains`], identically ordered.
    pub fn cf_monthly_ids(&self, metric: CfMetric) -> Vec<DomainId> {
        let scores = self.cdn.monthly(metric);
        self.index.cf_ranked_ids(&scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pipeline_runs_on_tiny_world() {
        let s = Study::run(WorldConfig::tiny(201)).unwrap();
        assert_eq!(s.alexa_daily.len(), 7);
        assert_eq!(s.umbrella_daily.len(), 7);
        assert!(!s.majestic.is_empty());
        assert!(!s.tranco.is_empty());
        assert!(!s.trexa.is_empty());
        assert!(!s.crux.is_empty());
        assert_eq!(s.cdn.days(), 7);
        for src in ListSource::ALL {
            assert!(!s.normalized(src).is_empty(), "{src} normalized empty");
        }
    }

    #[test]
    fn deterministic_end_to_end() {
        let a = Study::run(WorldConfig::tiny(202)).unwrap();
        let b = Study::run(WorldConfig::tiny(202)).unwrap();
        assert_eq!(a.tranco, b.tranco);
        assert_eq!(a.secrank, b.secrank);
        assert_eq!(a.crux.to_csv(), b.crux.to_csv());
        let m = CfMetric::final_seven()[0];
        assert_eq!(a.cf_monthly_domains(m), b.cf_monthly_domains(m));
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let seq = Study::run(WorldConfig {
            workers: Some(1),
            ..WorldConfig::tiny(204)
        })
        .unwrap();
        let par = Study::run(WorldConfig {
            workers: Some(3),
            ..WorldConfig::tiny(204)
        })
        .unwrap();
        assert_eq!(seq.tranco, par.tranco);
        assert_eq!(seq.secrank, par.secrank);
        assert_eq!(seq.trexa, par.trexa);
        assert_eq!(seq.crux.to_csv(), par.crux.to_csv());
        let m = CfMetric::final_seven()[0];
        assert_eq!(seq.cf_monthly_domains(m), par.cf_monthly_domains(m));
    }

    #[test]
    fn from_shards_matches_streaming_run() {
        let config = WorldConfig::tiny(205);
        let full = Study::run(config.clone()).unwrap();
        let world = World::generate(config).unwrap();
        let shards = observe_day_shards(&world, world.config.days.len(), 2);
        let rebuilt = Study::from_shards(world, shards).unwrap();
        assert_eq!(full.tranco, rebuilt.tranco);
        assert_eq!(full.secrank, rebuilt.secrank);
        assert_eq!(full.trexa, rebuilt.trexa);
        assert_eq!(full.crux.to_csv(), rebuilt.crux.to_csv());
        let m = CfMetric::final_seven()[0];
        assert_eq!(full.cf_monthly_domains(m), rebuilt.cf_monthly_domains(m));
    }

    #[test]
    fn from_shards_accepts_prefix_window() {
        let world = World::generate(WorldConfig::tiny(206)).unwrap();
        let shards = observe_day_shards(&world, 3, 1);
        let s = Study::from_shards(world, shards).unwrap();
        assert_eq!(s.alexa_daily.len(), 3);
        assert_eq!(s.umbrella_daily.len(), 3);
        assert_eq!(s.cdn.days(), 3);
        assert!(!s.tranco.is_empty());
    }

    #[test]
    fn from_shards_rejects_gaps_and_empty() {
        let world = World::generate(WorldConfig::tiny(207)).unwrap();
        let mut shards = observe_day_shards(&world, 4, 1);
        shards.remove(2); // days 0, 1, 3 — a hole at day 2
        assert!(matches!(
            Study::from_shards(world, shards),
            Err(crate::error::CoreError::ShardWindow { .. })
        ));
        let world = World::generate(WorldConfig::tiny(207)).unwrap();
        assert!(matches!(
            Study::from_shards(world, Vec::new()),
            Err(crate::error::CoreError::EmptyWindow)
        ));
    }

    #[test]
    fn from_shards_rejects_ids_outside_the_world() {
        // A larger world's shards name sites and clients the tiny one lacks.
        let small = World::generate(WorldConfig::small(208)).unwrap();
        let shards = observe_day_shards(&small, 1, 1);
        let tiny = World::generate(WorldConfig::tiny(208)).unwrap();
        assert!(matches!(
            Study::from_shards(tiny, shards),
            Err(crate::error::CoreError::ShardIds(_))
        ));
    }

    #[test]
    fn cf_domains_are_cloudflare_served() {
        let s = Study::run(WorldConfig::tiny(203)).unwrap();
        for m in CfMetric::final_seven() {
            for d in s.cf_monthly_domains(m).iter().take(50) {
                assert!(
                    s.world.is_cloudflare(d),
                    "{d} in CF metric but not CF-served"
                );
            }
        }
    }
}
