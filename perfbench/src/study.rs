//! The batch workloads: `study-medium` (the researcher's end-to-end job)
//! and `worldgen-large` (one sharded generation-epoch-2 world).

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use topple_core::listeval::ListEvaluation;
use topple_core::{
    bias, category, consistency, coverage, listeval, movement, psl_dev, temporal, CoreError,
    ListColumns, Study, StudyIndex,
};
use topple_lists::{
    alexa, crux, majestic, secrank, tranco, trexa, umbrella, DomainId, DomainTable, ListSource,
    Normalizer, RankedList,
};
use topple_sim::{
    BackgroundQuery, EventSink, GenBudget, PageLoad, ThirdPartyFetch, TrafficScratch, World,
    WorldConfig,
};
use topple_vantage::{
    CdnVantage, ChromeVantage, CrawlerVantage, DayScratch, DayShards, DnsVantage, PanelVantage,
};

use crate::stats::median;
use crate::trace::Tracer;
use crate::{procfs, Args, Outcome};

/// Trexa's Alexa weight, as the study builds it.
const TREXA_ALEXA_WEIGHT: usize = 2;
/// Seed of every study world (the experiments CLI's default). The study,
/// snapshot and live worlds are fixed so that run-to-run spread measures
/// the code rather than the world drawn: event volume varies by about 10%
/// between seeds at medium scale. The workload seed drives the read mixes;
/// `worldgen-large`, whose cost barely depends on the draw, uses it as the
/// world seed.
pub const STUDY_SEED: u64 = 20_220_201;
/// Set-ups timed before the first op and again after every op; the median
/// over the run is the set-up figure. Spreading them over the run matters
/// on a shared host whose speed switches between states lasting seconds:
/// seven set-ups in a burst before the first op all landed in one state,
/// and the figure moved by a third between runs.
const SETUP_ROUND: usize = 3;

/// Runs `f` inside a span when tracing, plainly otherwise.
pub fn span<T>(t: Option<&mut Tracer>, name: &str, f: impl FnOnce() -> T) -> T {
    match t {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

/// The study configuration for a run.
pub fn study_config(args: &Args) -> WorldConfig {
    let base = if args.smoke {
        WorldConfig::tiny(STUDY_SEED)
    } else {
        WorldConfig::medium(STUDY_SEED)
    };
    WorldConfig {
        workers: Some(crate::workers()),
        ..base
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Every analysis `topple-experiments all` renders, one span per analysis
/// module. Returns Figure 2's evaluation for the output check.
fn analyses(study: &Study, mut t: Option<&mut Tracer>) -> Result<ListEvaluation, CoreError> {
    let mags = study.magnitudes();
    let heat_k = mags[mags.len().saturating_sub(2)].1;
    let cell_k = mags[mags.len().saturating_sub(3).min(mags.len() - 1)].1;
    black_box(span(t.as_deref_mut(), "core.analysis.coverage", || {
        coverage::table1(study)
    }));
    black_box(span(t.as_deref_mut(), "core.analysis.psl_dev", || {
        psl_dev::table2(study)
    })?);
    black_box(span(t.as_deref_mut(), "core.analysis.consistency", || {
        Ok::<_, CoreError>((
            consistency::intra_cloudflare_final(study, heat_k),
            consistency::intra_cloudflare_full(study, heat_k)?,
            consistency::intra_chrome(study, cell_k),
        ))
    })?);
    let ev = span(t.as_deref_mut(), "core.analysis.listeval", || {
        let ev = listeval::figure2(study, heat_k);
        for &src in &ev.lists {
            black_box(listeval::mean_ji_ci(study, src, heat_k)?);
        }
        black_box(ev.metric_agreement());
        Ok::<_, CoreError>(ev)
    })?;
    black_box(span(t.as_deref_mut(), "core.analysis.temporal", || {
        (
            temporal::figure3(study, heat_k),
            topple_lists::stability(&study.alexa_daily, heat_k),
            topple_lists::stability(&study.umbrella_daily, heat_k),
        )
    }));
    black_box(span(t.as_deref_mut(), "core.analysis.movement", || {
        (
            movement::figure5(study, ListSource::Alexa),
            movement::figure5(study, ListSource::Crux),
        )
    }));
    black_box(span(t.as_deref_mut(), "core.analysis.bias", || {
        (bias::figure4(study, cell_k), bias::figure7(study, cell_k))
    }));
    black_box(span(t, "core.analysis.category", || {
        category::table3(study, heat_k)
    })?);
    Ok(ev)
}

/// Module names of [`analyses`]' spans.
const ANALYSIS_MODULES: [&str; 8] = [
    "coverage",
    "psl_dev",
    "consistency",
    "listeval",
    "temporal",
    "movement",
    "bias",
    "category",
];

/// A ranked list is well formed: ranks run 1..=len, names are unique, and
/// it is no longer than `max_len`.
fn ranked_ok(list: &RankedList, max_len: usize) -> bool {
    let mut names = HashSet::with_capacity(list.len());
    !list.is_empty()
        && list.len() <= max_len
        && list
            .entries
            .iter()
            .enumerate()
            .all(|(i, e)| e.rank as usize == i + 1 && names.insert(e.name.as_str()))
}

/// Structural invariants of every list, and the paper's headline: CrUX has
/// the best mean Jaccard index against the Cloudflare metrics.
fn check_study(study: &Study, ev: &ListEvaluation, out: &mut Outcome) {
    let n_days = study.world.config.days.len();
    let max_len = study.world.sites.len();
    let daily_ok =
        |lists: &[RankedList]| lists.len() == n_days && lists.iter().all(|l| ranked_ok(l, max_len));
    out.check(
        daily_ok(&study.alexa_daily),
        "alexa daily lists well formed",
    );
    out.check(
        daily_ok(&study.umbrella_daily),
        "umbrella daily lists well formed",
    );
    for (name, list) in [
        ("majestic", &study.majestic),
        ("secrank", &study.secrank),
        ("tranco", &study.tranco),
        ("trexa", &study.trexa),
    ] {
        out.check(
            ranked_ok(list, max_len),
            &format!("{name} list well formed"),
        );
    }
    let magnitudes: Vec<u32> = study.magnitudes().iter().map(|&(_, k)| k as u32).collect();
    let mut origins = HashSet::new();
    let crux_ok = !study.crux.is_empty()
        && study
            .crux
            .entries
            .windows(2)
            .all(|w| w[0].bucket <= w[1].bucket)
        && study
            .crux
            .entries
            .iter()
            .all(|e| magnitudes.contains(&e.bucket) && origins.insert(e.name.as_str()));
    out.check(crux_ok, "crux list well formed");
    out.check(
        ListSource::ALL
            .iter()
            .all(|&s| !study.normalized(s).is_empty()),
        "every normalized list is non-empty",
    );
    let mean = |row: &Vec<f64>| row.iter().sum::<f64>() / row.len().max(1) as f64;
    let crux = ev.lists.iter().position(|&s| s == ListSource::Crux);
    let best = crux.is_some_and(|c| {
        let m = mean(&ev.jaccard[c]);
        ev.jaccard
            .iter()
            .enumerate()
            .all(|(i, row)| i == c || mean(row) < m)
    });
    out.check(best, "crux has the best mean Jaccard against Cloudflare");
}

/// One round of set-ups: world generation for the run's configuration.
fn study_setup(config: &WorldConfig, times: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..SETUP_ROUND {
        let t0 = Instant::now();
        let world = World::generate(config.clone()).map_err(err)?;
        times.push(t0.elapsed().as_secs_f64());
        drop(black_box(world));
    }
    Ok(())
}

/// `study-medium`: `Study::run` at medium scale, then every analysis of
/// `topple-experiments all`, repeated for the measured time.
pub fn study_medium(args: &Args) -> Result<Outcome, String> {
    let config = study_config(args);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    study_setup(&config, &mut setups)?;
    if args.trace {
        return study_traced(args, config, out);
    }
    let (mut wall, mut cpu, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    while wall.iter().sum::<f64>() < args.seconds {
        procfs::reset_peak_rss();
        let cpu0 = procfs::process_cpu_s();
        let t0 = Instant::now();
        let study = Study::run(config.clone()).map_err(err)?;
        let ev = analyses(&study, None);
        wall.push(t0.elapsed().as_secs_f64());
        cpu.push(procfs::process_cpu_s() - cpu0);
        rss.push(procfs::peak_rss_mib());
        println!(
            "op wall_s={} cpu_s={} peak_rss_mib={}",
            wall[wall.len() - 1],
            cpu[cpu.len() - 1],
            rss[rss.len() - 1]
        );
        match ev {
            Ok(ev) => check_study(&study, &ev, &mut out),
            Err(e) => out.check(false, &format!("analysis failed: {e}")),
        }
        drop(study);
        study_setup(&config, &mut setups)?;
    }
    println!("ops studies={}", wall.len());
    crate::batch_metrics(&mut out, &setups, &wall, &cpu, &rss);
    Ok(out)
}

/// Counts the traffic floor's events without observing them.
#[derive(Default)]
struct CountingSink {
    events: u64,
}

impl EventSink for CountingSink {
    fn page_load(&mut self, _: &PageLoad) {
        self.events += 1;
    }
    fn third_party(&mut self, _: &ThirdPartyFetch) {
        self.events += 1;
    }
    fn background(&mut self, _: &BackgroundQuery) {
        self.events += 1;
    }
}

/// The traced study: the end-to-end op once plain and once inside spans
/// (their ratio is the tracing overhead), then one serial pass per layer
/// through the public functions the study composes.
fn study_traced(args: &Args, config: WorldConfig, mut out: Outcome) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let plain = Study::run(config.clone()).map_err(err)?;
    black_box(analyses(&plain, None).map_err(err)?);
    let plain_s = t0.elapsed().as_secs_f64();
    drop(plain);

    let mut t = Tracer::new(args.seed);
    let t0 = Instant::now();
    let (study, ev) = t.span("study", |t| {
        let study = t.span("core.study_run", |_| Study::run(config.clone()));
        let study = study.map_err(err)?;
        let ev = analyses(&study, Some(t)).map_err(err)?;
        Ok::<_, String>((study, ev))
    })?;
    let traced_s = t0.elapsed().as_secs_f64();
    check_study(&study, &ev, &mut out);

    // The layer pass is the benchmark's own copy of what `Study::run`
    // composes. A correct change inside the study (a parameter, an
    // interning order) can make the copy stale without making the study
    // wrong, so a mismatch is reported as run context, not as a failed op.
    let layers = t.span("layers", |t| layer_pass(t, &config))?;
    let index_names = |index: &StudyIndex| -> Vec<String> {
        let table = index.table();
        let ids = &index.monthly(ListSource::Tranco).ids;
        ids.iter()
            .map(|&id| table.name(id).as_str().to_owned())
            .collect()
    };
    let matches = layers.tranco == study.tranco
        && layers.crux_csv == study.crux.to_csv()
        && index_names(&layers.index) == index_names(study.index());
    println!("context layers.match_study={}", u8::from(matches));
    if !matches {
        eprintln!(
            "note: the layer pass no longer rebuilds the study's tranco, crux and \
             index; its per-layer figures may not describe the study"
        );
    }

    out.metric(
        "sim.worldgen.allocs",
        t.allocs("sim.worldgen") as f64,
        "count",
    );
    out.metric("sim.traffic.busy_s", t.total("sim.traffic"), "s");
    out.metric("sim.traffic.events", layers.events as f64, "count");
    let observe = t.total("vantage.observe.stream") + t.total("vantage.observe.finish");
    out.metric(
        "vantage.observe.busy_s",
        observe - t.total("sim.traffic"),
        "s",
    );
    out.metric(
        "vantage.observe.allocs",
        t.allocs("vantage.observe.warm") as f64,
        "count",
    );
    out.metric("vantage.shard_bytes", layers.shard_bytes as f64, "bytes");
    out.metric("core.fold.busy_s", t.total("core.fold"), "s");
    for src in ListSource::ALL {
        let name = format!("lists.build.{}", src.name().to_lowercase());
        out.metric(&format!("{name}_s"), t.total(&name), "s");
    }
    out.metric("lists.normalize_s", t.total("lists.normalize"), "s");
    out.metric(
        "lists.normalize.entries",
        layers.normalized_entries as f64,
        "count",
    );
    out.metric("core.index_s", t.total("core.index"), "s");
    let mut analysis_allocs = 0;
    for m in ANALYSIS_MODULES {
        let name = format!("core.analysis.{m}");
        out.metric(&format!("{name}_s"), t.total(&name), "s");
        analysis_allocs += t.allocs(&name);
    }
    out.metric("core.analysis.allocs", analysis_allocs as f64, "count");
    out.metric("tracing.overhead_share", traced_s / plain_s - 1.0, "share");
    t.finish();
    Ok(out)
}

/// Order of the monthly lists the layer pass normalizes.
const MONTHLY_ORDER: [ListSource; 7] = [
    ListSource::Alexa,
    ListSource::Umbrella,
    ListSource::Majestic,
    ListSource::Secrank,
    ListSource::Tranco,
    ListSource::Trexa,
    ListSource::Crux,
];

/// What the per-layer pass rebuilt, for comparison with the study.
struct Layers {
    events: u64,
    shard_bytes: usize,
    normalized_entries: usize,
    tranco: RankedList,
    crux_csv: String,
    index: StudyIndex,
}

/// One serial pass per layer: world generation, the traffic floor, fused
/// observation, the fold, every list build and normalization, and the
/// index. Mirrors `Study::run`'s composition step by step.
fn layer_pass(t: &mut Tracer, config: &WorldConfig) -> Result<Layers, String> {
    let world = t.span("sim.worldgen", |_| World::generate(config.clone()));
    let world = world.map_err(err)?;
    let n_days = world.config.days.len();

    let events = t.span("sim.traffic", |_| {
        let mut scratch = TrafficScratch::for_world(&world);
        let mut sink = CountingSink::default();
        for d in 0..n_days {
            world.simulate_day_into(d, &mut scratch, &mut sink);
        }
        sink.events
    });

    let mut scratch = DayScratch::new(&world);
    let mut shards: Vec<DayShards> = Vec::with_capacity(n_days);
    for d in 0..n_days {
        let (traffic, mut obs) = scratch.parts(&world);
        t.span("vantage.observe.stream", |_| {
            world.simulate_day_into(d, traffic, &mut obs)
        });
        shards.push(t.span("vantage.observe.finish", |_| obs.finish_day(d)));
    }
    // Once the scratch has seen the whole window, the per-event path must
    // not allocate: re-observe the first week and count.
    for d in 0..n_days.min(7) {
        let (traffic, mut obs) = scratch.parts(&world);
        t.span("vantage.observe.warm", |_| {
            world.simulate_day_into(d, traffic, &mut obs)
        });
    }
    let mut buf = Vec::new();
    for s in &shards {
        s.encode(&mut buf);
    }
    let shard_bytes = buf.len();
    drop(buf);

    let (cdn, chrome, umbrella_dns, china_dns, panel) = t.span("core.fold", |_| {
        let mut cdn = CdnVantage::new(&world);
        let mut chrome = ChromeVantage::new(&world);
        let mut umbrella_dns = DnsVantage::new(topple_sim::Resolver::Umbrella);
        let mut china_dns = DnsVantage::new(topple_sim::Resolver::ChinaVoting);
        let mut panel = PanelVantage::new(&world);
        for s in shards {
            cdn.ingest_shard(s.cdn);
            chrome.ingest_shard(s.chrome);
            umbrella_dns.ingest_shard(&world, s.umbrella);
            china_dns.ingest_shard(&world, s.china);
            panel.ingest_shard(s.panel);
        }
        (cdn, chrome, umbrella_dns, china_dns, panel)
    });
    black_box(&cdn);

    let list_len = world.sites.len();
    let alexa_daily: Vec<RankedList> = t.span("lists.build.alexa", |_| {
        (0..n_days)
            .map(|d| alexa::build_daily(&world, &panel, d, n_days, list_len))
            .collect()
    });
    let umbrella_daily: Vec<RankedList> = t.span("lists.build.umbrella", |_| {
        (0..n_days)
            .map(|d| umbrella::build_daily(&world, &umbrella_dns, d, 3, list_len))
            .collect()
    });
    let majestic = t.span("lists.build.majestic", |_| {
        let crawl = CrawlerVantage::crawl(&world, 25, usize::MAX);
        majestic::build(&world, &crawl, list_len)
    });
    let secrank = t.span("lists.build.secrank", |_| {
        secrank::build(&world, &china_dns, n_days, list_len)
    });

    let mut normalized_entries = 0usize;
    let (mut norm, site_ids) = t.span("lists.normalize", |_| {
        let mut table = DomainTable::with_capacity(world.sites.len());
        let site_ids: Vec<DomainId> = world
            .sites
            .iter()
            .map(|s| table.intern(&s.domain))
            .collect();
        (Normalizer::with_table(&world.psl, table), site_ids)
    });
    let umbrella_domains: Vec<RankedList> = t.span("lists.normalize", |_| {
        umbrella_daily
            .iter()
            .map(|l| {
                normalized_entries += l.len();
                norm.ranked(l).to_ranked_list()
            })
            .collect()
    });
    let tranco = t.span("lists.build.tranco", |_| {
        let mut inputs: Vec<&RankedList> = Vec::new();
        inputs.extend(alexa_daily.iter());
        inputs.extend(umbrella_domains.iter());
        for _ in 0..n_days {
            inputs.push(&majestic);
        }
        tranco::build(&inputs, list_len)
    });
    let alexa_month = alexa_daily.last().ok_or("empty window")?;
    let trexa = t.span("lists.build.trexa", |_| {
        trexa::build(&tranco, alexa_month, TREXA_ALEXA_WEIGHT, list_len)
    });
    let magnitudes: Vec<usize> = world
        .config
        .rank_magnitudes()
        .iter()
        .map(|&(_, k)| k)
        .collect();
    let crux = t.span("lists.build.crux", |_| {
        crux::build(&world, &chrome, &magnitudes)
    });
    let umbrella_month = t.span("lists.build.umbrella", |_| {
        umbrella::build_monthly(&world, &umbrella_dns, list_len)
    });

    let ranked_inputs: Vec<&RankedList> = [
        alexa_month,
        &umbrella_month,
        &majestic,
        &secrank,
        &tranco,
        &trexa,
    ]
    .into_iter()
    .chain(alexa_daily.iter())
    .chain(umbrella_daily.iter())
    .collect();
    normalized_entries += ranked_inputs.iter().map(|l| l.len()).sum::<usize>() + crux.len();
    let (monthly, alexa_norm, umbrella_norm) = t.span("lists.normalize", |_| {
        let monthly = [
            norm.ranked(alexa_month),
            norm.ranked(&umbrella_month),
            norm.ranked(&majestic),
            norm.ranked(&secrank),
            norm.ranked(&tranco),
            norm.ranked(&trexa),
            norm.bucketed(&crux),
        ];
        let a: Vec<_> = alexa_daily.iter().map(|l| norm.ranked(l)).collect();
        let u: Vec<_> = umbrella_daily.iter().map(|l| norm.ranked(l)).collect();
        (monthly, a, u)
    });

    let index = t.span("core.index", |_| {
        let table = norm.into_table();
        let is_cf: Vec<bool> = table
            .names()
            .iter()
            .map(|n| world.is_cloudflare(n))
            .collect();
        let cols = |nl| ListColumns::from_normalized(nl, |id: DomainId| is_cf[id.index()]);
        let mut monthly_cols: Vec<Option<ListColumns>> =
            monthly.iter().map(|nl| Some(cols(nl))).collect();
        let alexa_cols = alexa_norm.iter().map(cols).collect();
        let umbrella_cols = umbrella_norm.iter().map(cols).collect();
        let by_source = |s: ListSource| {
            let at = MONTHLY_ORDER.iter().position(|&o| o == s);
            at.and_then(|i| monthly_cols[i].take())
                .expect("from_columns asks for each source once")
        };
        StudyIndex::from_columns(table, site_ids, is_cf, by_source, alexa_cols, umbrella_cols)
    });

    Ok(Layers {
        events,
        shard_bytes,
        normalized_entries,
        tranco,
        crux_csv: crux.to_csv(),
        index,
    })
}

/// The world-generation configuration for a run.
fn worldgen_config(args: &Args) -> WorldConfig {
    let base = if args.smoke {
        WorldConfig {
            n_sites: 4_000,
            n_clients: 1_000,
            gen_epoch: Some(2),
            gen_budget_bytes: Some(1 << 30),
            ..WorldConfig::tiny(args.seed)
        }
    } else {
        WorldConfig::large(args.seed)
    };
    WorldConfig {
        workers: Some(crate::workers()),
        ..base
    }
}

/// One round of set-ups before a large generation: the `GenBudget` pricing
/// and check plus one warm-up generation of a world a tenth the size on the
/// same generation epoch and workers, so worker start-up, allocator growth
/// and the generator's first-touch faults are paid before timing. Pricing
/// alone takes about 10 ns, and on identical code that figure sat in one of
/// two modes (7.5 ns or 13.5 ns) depending on the process; a
/// hundredth-size warm-up (20 ms) moved by a third between two sets of runs.
fn worldgen_setup(config: &WorldConfig, times: &mut Vec<f64>) -> Result<(), String> {
    let warm = WorldConfig {
        n_sites: (config.n_sites / 10).max(400),
        n_clients: (config.n_clients / 10).max(300),
        ..config.clone()
    };
    for _ in 0..SETUP_ROUND {
        let t0 = Instant::now();
        GenBudget::for_config(config).check(config.gen_budget_bytes)?;
        let world = World::generate(warm.clone()).map_err(err)?;
        times.push(t0.elapsed().as_secs_f64());
        drop(black_box(world));
    }
    Ok(())
}

/// Counts, budget check, and the budget breakdown of one generated world.
fn check_world(world: &World, config: &WorldConfig, out: &mut Outcome) {
    out.check(
        world.sites.len() == config.n_sites,
        "world has the configured site count",
    );
    out.check(
        world.clients.len() == config.n_clients,
        "world has the configured client count",
    );
    out.check(
        GenBudget::for_config(config)
            .check(config.gen_budget_bytes)
            .is_ok(),
        "generation budget check passes",
    );
}

/// `worldgen-large`: one `World::generate` of the large tier (generation
/// epoch 2), repeated for the measured time.
pub fn worldgen_large(args: &Args) -> Result<Outcome, String> {
    let config = worldgen_config(args);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    worldgen_setup(&config, &mut setups)?;
    if args.trace {
        return worldgen_traced(args, config, out);
    }
    let (mut wall, mut cpu, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    while wall.iter().sum::<f64>() < args.seconds {
        procfs::reset_peak_rss();
        let cpu0 = procfs::process_cpu_s();
        let t0 = Instant::now();
        let world = World::generate(config.clone()).map_err(err)?;
        wall.push(t0.elapsed().as_secs_f64());
        cpu.push(procfs::process_cpu_s() - cpu0);
        rss.push(procfs::peak_rss_mib());
        println!(
            "op wall_s={} cpu_s={} peak_rss_mib={}",
            wall[wall.len() - 1],
            cpu[cpu.len() - 1],
            rss[rss.len() - 1]
        );
        check_world(&world, &config, &mut out);
        drop(world);
        worldgen_setup(&config, &mut setups)?;
    }
    println!("ops generations={}", wall.len());
    crate::batch_metrics(&mut out, &setups, &wall, &cpu, &rss);
    Ok(out)
}

/// Generation-epoch-2 phase names as `GenTimings` reports them, with the
/// metric each becomes.
const GEN2_PHASES: [(&str, &str); 6] = [
    ("site-draws", "site_draws"),
    ("names-and-tables", "names_and_tables"),
    ("assemble-sites", "assemble_sites"),
    ("clients", "clients"),
    ("nav-tables", "nav_tables"),
    ("index", "index"),
];

/// One plain generation, then traced generations for the measured time,
/// each phase recorded as a child span of `sim.worldgen`.
fn worldgen_traced(args: &Args, config: WorldConfig, mut out: Outcome) -> Result<Outcome, String> {
    let t0 = Instant::now();
    drop(World::generate(config.clone()).map_err(err)?);
    let plain_s = t0.elapsed().as_secs_f64();

    let mut t = Tracer::new(args.seed);
    let mut walls = Vec::new();
    let mut allocs = Vec::new();
    let mut phases: Vec<Vec<f64>> = vec![Vec::new(); GEN2_PHASES.len()];
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let before = t.spans().len();
        let generated = t.span("sim.worldgen", |t| {
            let g = World::generate_instrumented(config.clone());
            if let Ok((_, timings)) = &g {
                t.children_from(&timings.phases);
            }
            g
        });
        let (world, timings) = generated.map_err(err)?;
        let span = &t.spans()[before];
        walls.push(span.duration());
        allocs.push(span.allocs as f64);
        for (i, (phase, _)) in GEN2_PHASES.iter().enumerate() {
            let d = timings
                .phases
                .iter()
                .find(|(p, _)| p == phase)
                .map(|(_, d)| d.as_secs_f64());
            match d {
                Some(d) => phases[i].push(d),
                None => out.check(false, &format!("generation reports phase {phase}")),
            }
        }
        check_world(&world, &config, &mut out);
    }
    for (i, (_, metric)) in GEN2_PHASES.iter().enumerate() {
        out.metric(
            &format!("sim.worldgen.{metric}_s"),
            median(&phases[i]).unwrap_or(0.0),
            "s",
        );
    }
    out.metric(
        "sim.worldgen.budget_estimate_mib",
        GenBudget::for_config(&config).total() as f64 / (1024.0 * 1024.0),
        "MiB",
    );
    out.metric(
        "sim.worldgen.allocs",
        median(&allocs).unwrap_or(0.0),
        "count",
    );
    let traced_s = median(&walls).unwrap_or(0.0);
    out.metric("tracing.overhead_share", traced_s / plain_s - 1.0, "share");
    t.finish();
    Ok(out)
}
