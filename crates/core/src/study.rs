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
//!
//! Every study goes through one [`StudyPrefix`]: the state that grows day by
//! day (world, vantages, crawl, daily lists). Its fallible `fold` is the
//! only way days get in, and [`Study::from_prefix`] is the only assemble,
//! so the offline run, the shard rebuild and the live engine share one path.

use topple_lists::{
    alexa, crux, majestic, secrank, tranco, trexa, umbrella, BucketedList, DomainId, DomainTable,
    ListSource, NormalizedColumns, NormalizedList, Normalizer, NormalizerMemo, RankedList,
};
use topple_psl::DomainName;
use topple_sim::{Resolver, World, WorldConfig, WorldError};
use topple_stats::fanout::for_each_ordered;
use topple_vantage::{
    CdnVantage, CfMetric, ChromeVantage, CrawlerVantage, DayScratch, DayShards, DnsVantage,
    PanelVantage, ScoreVec,
};

use crate::error::CoreError;
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

/// Everything a study folds each day into: the five traffic-ingesting
/// vantage accumulators, and the daily Alexa and Umbrella lists built from
/// them, one per folded day.
struct Accumulators {
    cdn: CdnVantage,
    chrome: ChromeVantage,
    umbrella_dns: DnsVantage,
    china_dns: DnsVantage,
    panel: PanelVantage,
    alexa_daily: Vec<RankedList>,
    umbrella_daily: Vec<RankedList>,
}

impl Accumulators {
    fn new(world: &World) -> Self {
        Accumulators {
            cdn: CdnVantage::new(world),
            chrome: ChromeVantage::new(world),
            umbrella_dns: DnsVantage::new(Resolver::Umbrella),
            china_dns: DnsVantage::new(Resolver::ChinaVoting),
            panel: PanelVantage::new(world),
            alexa_daily: Vec::new(),
            umbrella_daily: Vec::new(),
        }
    }

    /// Days folded so far.
    fn days(&self) -> usize {
        self.panel.day_count()
    }

    /// Validates `shards`, then folds them in and builds the daily lists of
    /// the days they add. See [`StudyPrefix::fold`] for what is checked;
    /// nothing is touched unless every check passes.
    fn fold(&mut self, world: &World, shards: DayShards) -> Result<(), CoreError> {
        let days = shards.coverage().ok_or(CoreError::ShardWindow {
            context: "the five vantage shards disagree about day coverage",
        })?;
        if days.is_empty() {
            return Err(CoreError::EmptyWindow);
        }
        let start = self.days();
        let end = start + days.len();
        if days.iter().copied().ne(start..end) {
            return Err(CoreError::ShardWindow {
                context: "day coverage is not the next contiguous run after the folded days",
            });
        }
        if end > world.config.days.len() {
            return Err(CoreError::ShardWindow {
                context: "shards cover more days than the world's window",
            });
        }
        shards.check_ids(world).map_err(CoreError::ShardIds)?;

        self.cdn.ingest_shard(shards.cdn);
        self.chrome.ingest_shard(shards.chrome);
        self.umbrella_dns.ingest_shard(world, shards.umbrella);
        self.china_dns.ingest_shard(world, shards.china);
        self.panel.ingest_shard(shards.panel);

        let list_len = world.sites.len();
        for d in start..end {
            // Alexa averages every ingested day (a window of `d + 1` starts
            // at day 0), so day `d`'s list reads days `0..=d`.
            self.alexa_daily
                .push(alexa::build_daily(world, &self.panel, d, d + 1, list_len));
            // Umbrella daily snapshots fold a short trailing window (see the
            // builder's docs for the scale rationale): days `d-2..=d`.
            self.umbrella_daily.push(umbrella::build_daily(
                world,
                &self.umbrella_dns,
                d,
                3,
                list_len,
            ));
        }
        Ok(())
    }
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

/// The study's domain universe, kept between assembles.
///
/// Ids follow one interning order: site domains, the Umbrella dailies in
/// day order, the seven monthly lists, then the Alexa dailies before the
/// last. Sites and Umbrella dailies form the *stable region*: no earlier
/// day's list changes when a day is folded, so the region only grows at its
/// end. Each assemble [rewinds](Normalizer::rewind) the table to the
/// region, normalizes only the Umbrella dailies of days it has not seen,
/// [seals](Normalizer::seal) the region again, and re-interns the monthly
/// lists and the Alexa dailies behind it. That gives every id the value a
/// fresh normalizer would give it, while the memo answers every raw name it
/// has met before with one probe.
struct Interning {
    /// Issued ids; lent to the [`StudyIndex`] while a study is assembled.
    table: DomainTable,
    memo: NormalizerMemo,
    /// `site_ids[i]` is site `i`'s id (the identity: sites come first).
    site_ids: Vec<DomainId>,
    /// `is_cf[id]`, dense over the table.
    is_cf: Vec<bool>,
    /// The Umbrella daily columns normalized so far, one per day.
    umbrella: Vec<ListColumns>,
}

impl Interning {
    /// The site region of `world`, with nothing else interned yet.
    fn new(world: &World) -> Interning {
        let mut table = DomainTable::with_capacity(world.sites.len());
        let site_ids: Vec<DomainId> = world
            .sites
            .iter()
            .map(|s| table.intern(&s.domain))
            .collect();
        let is_cf = table
            .names()
            .iter()
            .map(|n| world.is_cloudflare(n))
            .collect();
        Interning {
            table,
            memo: NormalizerMemo::new(),
            site_ids,
            is_cf,
            umbrella: Vec::new(),
        }
    }
}

/// The part of a study that grows with its day window: the world, the
/// crawl and its Majestic list (both fixed for the world), the five vantage
/// accumulators, and the daily Alexa and Umbrella lists of every folded day.
///
/// Every study is built through one. [`Study::run`] folds each simulated
/// day as it completes, [`Study::from_shards`] folds the merged shards
/// once, and the live engine keeps one resident and folds only each
/// delta's new days. All three give the same bytes: shard counters are
/// integer sums and every vantage walks a shard's days in ascending order,
/// so folding is exact at any grouping of contiguous days; and no list of
/// an earlier day changes when later days arrive (Alexa's day `d` reads
/// days `0..=d`, Umbrella's reads `d-2..=d`). [`Study::from_prefix`]
/// derives the rest of the study from the prefix, and
/// [`Study::into_prefix`] hands the prefix back so a longer window can be
/// folded on without re-folding a day. The prefix also keeps the study's
/// domain universe between assembles (`Interning`), so an assemble
/// normalizes only the Umbrella dailies of the new days and answers every
/// raw name it has met before from the memo.
pub struct StudyPrefix {
    world: World,
    crawl: CrawlerVantage,
    majestic: RankedList,
    acc: Accumulators,
    interning: Interning,
}

impl StudyPrefix {
    /// An empty prefix over `world`: no day folded yet. Runs the crawl and
    /// builds the Majestic list, which the day window does not change.
    pub fn new(world: World) -> StudyPrefix {
        let crawl = CrawlerVantage::crawl(&world, 25, usize::MAX);
        let majestic = majestic::build(&world, &crawl, world.sites.len());
        let acc = Accumulators::new(&world);
        let interning = Interning::new(&world);
        StudyPrefix {
            world,
            crawl,
            majestic,
            acc,
            interning,
        }
    }

    /// The world the days are folded from.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Days folded so far: the prefix covers days `0..days()`.
    pub fn days(&self) -> usize {
        self.acc.days()
    }

    /// Folds `shards`, which must cover exactly the next contiguous days
    /// `days()..days() + k` with `k >= 1`, and builds those days' daily
    /// lists.
    ///
    /// Validates before it touches anything, so on error the prefix is
    /// unchanged:
    /// - the five vantage shards must agree about which days they cover,
    ///   and those days must be the next contiguous run inside the world's
    ///   window ([`CoreError::ShardWindow`]);
    /// - they must cover at least one day ([`CoreError::EmptyWindow`]);
    /// - every site, host, client and name they name must exist in the
    ///   world ([`CoreError::ShardIds`]).
    pub fn fold(&mut self, shards: DayShards) -> Result<(), CoreError> {
        self.acc.fold(&self.world, shards)
    }

    /// Simulates days `days()..n_days` (`n_days` clamped to the world's
    /// window) through the fused streaming pipeline and folds each one.
    ///
    /// Runs on [`for_each_ordered`]: each worker builds one [`DayScratch`]
    /// and reuses its warmed capacity for every day it claims
    /// ([`DayScratch::observe_day`]: all five vantages observe a day's
    /// events as they are generated, with no materialized `DayTraffic`),
    /// and the calling thread folds the days' [`DayShards`] in strict day
    /// order, with at most `2 × workers` days of shards awaiting the fold.
    /// Stops folding at the first error, which it returns.
    pub fn simulate_through(&mut self, n_days: usize, workers: usize) -> Result<(), CoreError> {
        let StudyPrefix { world, acc, .. } = self;
        let start = acc.days();
        let end = n_days.min(world.config.days.len()).max(start);
        let mut folded = Ok(());
        for_each_ordered(
            end - start,
            workers,
            || DayScratch::new(world),
            |scratch, i| scratch.observe_day(world, start + i),
            |_, shards| {
                if folded.is_ok() {
                    folded = acc.fold(world, shards);
                }
            },
        );
        folded
    }
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
    /// The normalizer memo, kept for [`Study::into_prefix`].
    memo: NormalizerMemo,
}

impl Study {
    /// Runs the full pipeline at the given configuration.
    ///
    /// Day simulation *and* vantage observation run on
    /// `config.effective_workers()` worker threads (days are
    /// RNG-independent and shard construction is pure); the shards are then
    /// folded into a [`StudyPrefix`] in strict day order, so the worker
    /// count never affects results.
    pub fn run(config: WorldConfig) -> Result<Study, WorldError> {
        let workers = config.effective_workers();
        let mut prefix = StudyPrefix::new(World::generate(config)?);
        let n_days = prefix.world().config.days.len();
        prefix
            .simulate_through(n_days, workers)
            .and_then(|()| Study::from_prefix(prefix))
            .map(Study::release_memo)
            .map_err(|e| WorldError(format!("the world's own days did not fold: {e}")))
    }

    /// Builds a study from pre-observed day shards instead of simulating the
    /// window inline — the cold oracle the live engine's resident prefix
    /// is checked against.
    ///
    /// The shards are merged (order-insensitively — [`DayShards`] is a
    /// commutative monoid) and folded once into a fresh [`StudyPrefix`], so
    /// they must cover a contiguous prefix of the world's day window
    /// starting at day 0; `world` must be the same world the shards were
    /// observed from. The resulting study is byte-identical to
    /// [`Study::run`] over the same prefix. Shards that cover no day, leave
    /// a gap, or name sites, clients or names that `world` lacks are
    /// refused by [`StudyPrefix::fold`] before anything is folded.
    pub fn from_shards(world: World, shards: Vec<DayShards>) -> Result<Study, CoreError> {
        use topple_vantage::Shard as _;

        let mut merged = DayShards::identity();
        for s in shards {
            merged.merge(s);
        }
        let mut prefix = StudyPrefix::new(world);
        prefix.fold(merged)?;
        Study::from_prefix(prefix).map(Study::release_memo)
    }

    /// Frees the normalizer memo of a study built in one go, which will
    /// most likely never be assembled again; [`Study::into_prefix`] still
    /// works, and its next assemble meets every raw name afresh.
    fn release_memo(mut self) -> Study {
        self.memo.release();
        self
    }

    /// Everything after ingestion: builds the lists that read the whole
    /// window (Secrank, Tranco, Trexa, CrUX and Umbrella's monthly list),
    /// normalizes every list and builds the columnar index, all borrowing
    /// the prefix's state; the study then takes that state over as its own
    /// fields. Refuses a prefix with no folded day
    /// ([`CoreError::EmptyWindow`]).
    pub fn from_prefix(prefix: StudyPrefix) -> Result<Study, CoreError> {
        let n_days = prefix.days();
        let StudyPrefix {
            world,
            crawl,
            majestic,
            acc:
                Accumulators {
                    cdn,
                    chrome,
                    umbrella_dns,
                    china_dns,
                    panel,
                    alexa_daily,
                    umbrella_daily,
                },
            interning:
                Interning {
                    table,
                    memo,
                    site_ids,
                    mut is_cf,
                    umbrella: mut umbrella_cols,
                },
        } = prefix;
        let Some((alexa_month, alexa_earlier)) = alexa_daily.split_last() else {
            return Err(CoreError::EmptyWindow);
        };
        let list_len = world.sites.len();
        let secrank = secrank::build(&world, &china_dns, n_days, list_len);

        // Every normalization shares the prefix's resident `Normalizer`
        // state (see `Interning` for the interning order). Back to the
        // stable region first: the site domains (site `i` has id `i`) and
        // the Umbrella dailies already normalized, whose columns are kept.
        let mut norm = Normalizer::resume(&world.psl, table, memo);
        norm.rewind();
        // Extends the CDN-served flags over ids interned since the last
        // call (one `is_cloudflare` probe per distinct domain).
        let flag_new_ids = |is_cf: &mut Vec<bool>, table: &DomainTable| {
            is_cf.truncate(table.len());
            let seen = is_cf.len();
            is_cf.extend(table.names()[seen..].iter().map(|n| world.is_cloudflare(n)));
        };
        flag_new_ids(&mut is_cf, norm.table());

        // Daily snapshots keep only their id and value columns; analyses
        // never re-normalize inside a day loop. Only the days folded since
        // the last assemble are new.
        let new_umbrella: Vec<NormalizedColumns> = umbrella_daily[umbrella_cols.len()..]
            .iter()
            .map(|l| norm.ranked_columns(l))
            .collect();
        norm.seal();
        flag_new_ids(&mut is_cf, norm.table());
        let cf = |id: DomainId| is_cf[id.index()];
        let daily = |c: NormalizedColumns| ListColumns::new(c.ids, c.values, c.ordered, cf);
        umbrella_cols.extend(new_umbrella.into_iter().map(daily));

        // Tranco: Dowdall over every daily snapshot of its three inputs
        // (Majestic's list is stable, so each day contributes the same one).
        // Real Tranco aggregates at pay-level-domain granularity, so
        // Umbrella's FQDN entries enter PSL-filtered: the normalized
        // dailies above, ranked 1..n, their names read off the table.
        let mut dowdall = tranco::Dowdall::new();
        for l in &alexa_daily {
            dowdall.add_list(l);
        }
        for u in &umbrella_cols {
            dowdall.add_sorted_names(u.ids.iter().map(|&id| norm.table().name(id).as_str()));
        }
        dowdall.add_list_repeated(&majestic, n_days);
        let tranco = dowdall.finish(list_len);
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

        // The Alexa month list is the last daily one, already normalized
        // above; only the days before it are left.
        let alexa_daily_norm: Vec<NormalizedColumns> = alexa_earlier
            .iter()
            .map(|l| norm.ranked_columns(l))
            .collect();

        // Interning is complete: flag the ids past the stable region.
        let (table, memo) = norm.into_parts();
        flag_new_ids(&mut is_cf, &table);
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
        let daily = |c: NormalizedColumns| ListColumns::new(c.ids, c.values, c.ordered, cf);
        let mut alexa_cols: Vec<ListColumns> = alexa_daily_norm.into_iter().map(daily).collect();
        alexa_cols.push(monthly.alexa.clone());
        let index = StudyIndex::new(table, site_ids, is_cf, monthly, alexa_cols, umbrella_cols);

        Ok(Study {
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
            memo,
        })
    }

    /// Takes the study apart into the [`StudyPrefix`] it was assembled
    /// from, dropping everything [`Study::from_prefix`] derived — so more
    /// days can be folded on and the study assembled again without
    /// re-folding a day. The domain table, the normalizer memo and the
    /// Umbrella daily columns go back into the prefix, so the next
    /// assemble re-normalizes only what follows the stable region.
    pub fn into_prefix(self) -> StudyPrefix {
        let (table, site_ids, is_cf, umbrella) = self.index.into_resident();
        StudyPrefix {
            world: self.world,
            crawl: self.crawl,
            majestic: self.majestic,
            acc: Accumulators {
                cdn: self.cdn,
                chrome: self.chrome,
                umbrella_dns: self.umbrella_dns,
                china_dns: self.china_dns,
                panel: self.panel,
                alexa_daily: self.alexa_daily,
                umbrella_daily: self.umbrella_daily,
            },
            interning: Interning {
                table,
                memo: self.memo,
                site_ids,
                is_cf,
                umbrella,
            },
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
    use topple_vantage::Shard as _;

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
            Err(CoreError::ShardWindow { .. })
        ));
        let world = World::generate(WorldConfig::tiny(207)).unwrap();
        assert!(matches!(
            Study::from_shards(world, Vec::new()),
            Err(CoreError::EmptyWindow)
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
            Err(CoreError::ShardIds(_))
        ));
    }

    /// Asserts two studies carry the same index: the table's names in id
    /// order, the site ids, the CDN-served flags, and every monthly and
    /// daily column.
    fn assert_same_index(warm: &Study, cold: &Study) {
        let (w, c) = (warm.index(), cold.index());
        assert_eq!(w.table().names(), c.table().names());
        assert_eq!(w.site_ids(), c.site_ids());
        assert_eq!(w.cf_flags(), c.cf_flags());
        for source in ListSource::ALL {
            assert_eq!(w.monthly(source), c.monthly(source), "{source} monthly");
        }
        assert_eq!(w.alexa_daily(), c.alexa_daily());
        assert_eq!(w.umbrella_daily(), c.umbrella_daily());
    }

    #[test]
    fn prefix_folded_in_runs_matches_the_cold_rebuild() {
        let world = World::generate(WorldConfig::tiny(209)).unwrap();
        let n = world.config.days.len();
        let all = observe_day_shards(&world, n, 1);
        let cold_at = |days: usize| {
            let cold_world = World::generate(WorldConfig::tiny(209)).unwrap();
            Study::from_shards(cold_world, all[..days].to_vec()).unwrap()
        };
        let mut shards = all.clone().into_iter();
        // Days 0..2 merged, then 2..5 merged, then one at a time, assembling
        // and taking the study apart between runs as the live engine does.
        // The resident normalizer must issue every id a fresh one would.
        // (Simulated worlds put every name in the stable region, so the
        // rewind past the seal is pinned at the normalizer's level, by
        // `rewound_normalizer_issues_the_ids_of_a_fresh_one` in
        // topple-lists.)
        let mut prefix = StudyPrefix::new(world);
        for run in [2usize, 3, 1, 1] {
            let mut merged = DayShards::identity();
            for s in shards.by_ref().take(run) {
                merged.merge(s);
            }
            prefix.fold(merged).unwrap();
            let warm = Study::from_prefix(prefix).unwrap();
            assert_same_index(&warm, &cold_at(warm.alexa_daily.len()));
            prefix = warm.into_prefix();
        }
        assert_eq!(prefix.days(), n);
        // Re-assembling with nothing new folded changes nothing either.
        let warm = Study::from_prefix(prefix).unwrap();
        let cold = cold_at(n);
        assert_same_index(&warm, &cold);
        assert_eq!(warm.alexa_daily, cold.alexa_daily);
        assert_eq!(warm.umbrella_daily, cold.umbrella_daily);
        assert_eq!(warm.tranco, cold.tranco);
        assert_eq!(warm.secrank, cold.secrank);
        assert_eq!(warm.crux.to_csv(), cold.crux.to_csv());
        let m = CfMetric::final_seven()[0];
        assert_eq!(warm.cf_monthly_domains(m), cold.cf_monthly_domains(m));
    }

    #[test]
    fn prefix_fold_refuses_anything_but_the_next_days_and_stays_unchanged() {
        let world = World::generate(WorldConfig::tiny(210)).unwrap();
        let mut shards = observe_day_shards(&world, 4, 1);
        let mut prefix = StudyPrefix::new(world);
        prefix.fold(shards.remove(0)).unwrap();
        // Day 2 over a prefix of one day skips day 1.
        let day2 = shards.remove(1);
        assert!(matches!(
            prefix.fold(day2),
            Err(CoreError::ShardWindow { .. })
        ));
        // Day 0 again is behind the prefix.
        let again = observe_day_shards(prefix.world(), 1, 1).remove(0);
        assert!(matches!(
            prefix.fold(again),
            Err(CoreError::ShardWindow { .. })
        ));
        assert!(matches!(
            prefix.fold(DayShards::identity()),
            Err(CoreError::EmptyWindow)
        ));
        assert_eq!(prefix.days(), 1);
        // The refusals left nothing behind: day 1 still folds.
        prefix.fold(shards.remove(0)).unwrap();
        assert_eq!(prefix.days(), 2);
        let empty = StudyPrefix::new(World::generate(WorldConfig::tiny(210)).unwrap());
        assert!(matches!(
            Study::from_prefix(empty),
            Err(CoreError::EmptyWindow)
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
