//! Regenerates every table and figure of the paper's evaluation, and fronts
//! the snapshot store / query daemon.
//!
//! ```text
//! topple-experiments [--scale tiny|small|medium|paper|large|web] [--seed N] [--workers N] <what>
//!   what: table1 table2 table3 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8
//!         ablate attack intext attribution all
//!
//! topple-experiments worldgen [--scale ..] [--seed N] [--workers N] [--shard N]
//!   Generates the world only (no traffic study) and reports per-phase
//!   wall-clock, the GenBudget memory estimate vs. its declared cap, the
//!   process peak RSS, and the world content digest. The digest line is what
//!   the CI worldgen-smoke job compares across worker counts: on generation
//!   epoch 2 (the `large`/`web` tiers) it must be byte-identical for any
//!   `--workers` / `--shard` choice.
//!
//! topple-experiments snapshot write <path> [--scale ..] [--seed N] [--workers N]
//!                                   [--days K] [--artifacts-from <tpls>]
//!   Runs the study and persists its columnar index (plus rendered table1 /
//!   fig1 artifacts) as a checksummed binary snapshot. `--days K` truncates
//!   the study to the first K days (the offline oracle for live serving);
//!   `--artifacts-from` copies the baked artifacts out of an existing
//!   snapshot instead of re-rendering, so a truncated rebuild is
//!   byte-identical to a live hot-swapped one.
//!
//! topple-experiments snapshot delta <path> --day D [--scale ..] [--seed N] [--workers N]
//!   Observes one simulated day and writes it as a checksummed `tpld` delta
//!   for `POST /v1/admin/ingest`.
//!
//! topple-experiments snapshot domain <tpls> <list> <pos>
//!   Prints the domain at 0-based monthly position `pos` of `list` — lets
//!   scripts pick a query target without parsing the binary snapshot.
//!
//! topple-experiments snapshot body <tpls> [--generation N] <request-path>
//!   Renders the exact response body the query layer would serve for
//!   `request-path` (e.g. `/v1/rank/tranco/site-000001.example`) — the
//!   offline oracle the CI swap-smoke job byte-compares live responses
//!   against.
//!
//! topple-experiments serve <path> [--addr HOST:PORT] [--workers N] [--live [--window N]]
//!   Serves rank/compare/movement queries from a snapshot over HTTP/1.1;
//!   prints `ready addr=.. snapshot=..` on stdout once bound, drains
//!   gracefully on SIGINT/SIGTERM. `--live` additionally accepts day-shard
//!   deltas on `POST /v1/admin/ingest` and hot-swaps the serving snapshot
//!   without a restart (ISSUE 9 / DESIGN.md §17); `--window` caps the
//!   ingestable day range (default: the scale's full study window).
//! ```
//!
//! Output is plain text: the same rows/series the paper reports, produced
//! from the synthetic world (see DESIGN.md for the substitution rationale and
//! EXPERIMENTS.md for paper-vs-measured).

use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use topple_core::{CoreError, Study};
use topple_lists::ListSource;
use topple_serve::lru::Lru;
use topple_serve::metrics::Metrics;
use topple_serve::query::parse_list;
use topple_serve::{Delta, DeltaIdentity, LiveEngine, LiveStore, QuerySnapshot, Server, Snapshot};
use topple_sim::{GenBudget, World, WorldConfig};
use topple_vantage::DayScratch;

mod render;

/// Every experiment name the default mode accepts, in `all` order plus the
/// standalone extras.
const EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "ablate",
    "attack",
    "intext",
    "attribution",
    "all",
];

/// Wall-clock plus process peak RSS, sampled after a measured phase.
struct Timing {
    wall: Duration,
    /// Peak resident set (`VmHWM`) in bytes; `None` off Linux-like procfs.
    peak_rss: Option<u64>,
}

impl Timing {
    /// `"12.3s (peak rss 512 MiB)"`, degrading gracefully without procfs.
    fn report(&self) -> String {
        match self.peak_rss {
            Some(bytes) => format!(
                "{:.1}s (peak rss {} MiB)",
                self.wall.as_secs_f64(),
                bytes >> 20
            ),
            None => format!("{:.1}s", self.wall.as_secs_f64()),
        }
    }
}

/// Runs `f` and reports how long it took plus the process's peak RSS so
/// far. Timing here feeds operator progress output on stderr and never
/// enters a result, so determinism is unaffected.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Timing) {
    // topple-lint: allow(wall-clock): operator progress reporting only; never part of results
    let t0 = std::time::Instant::now();
    let value = f();
    (
        value,
        Timing {
            wall: t0.elapsed(),
            peak_rss: topple_sim::vm_hwm_bytes(),
        },
    )
}

fn usage() -> String {
    format!(
        "usage:\n  topple-experiments [--scale tiny|small|medium|paper|large|web] [--seed N] [--workers N] <experiment>\n  \
         topple-experiments worldgen [--scale ..] [--seed N] [--workers N] [--shard N]\n  \
         topple-experiments snapshot write <path> [--scale ..] [--seed N] [--workers N] [--days K] [--artifacts-from <tpls>]\n  \
         topple-experiments snapshot delta <path> --day D [--scale ..] [--seed N] [--workers N]\n  \
         topple-experiments snapshot domain <tpls> <list> <pos>\n  \
         topple-experiments snapshot body <tpls> [--generation N] <request-path>\n  \
         topple-experiments serve <path> [--addr HOST:PORT] [--workers N] [--live [--window N]]\n\
         experiments: {}",
        EXPERIMENTS.join(" ")
    )
}

/// World-building flags shared by experiment mode and `snapshot write`.
struct WorldFlags {
    scale: String,
    seed: u64,
    workers: Option<usize>,
}

impl WorldFlags {
    fn new() -> Self {
        WorldFlags {
            scale: "medium".to_owned(),
            seed: 20220201,
            workers: None,
        }
    }

    /// Consumes one flag if it is a world flag; `Ok(false)` means "not
    /// mine", `Err` is a malformed value.
    fn consume(
        &mut self,
        arg: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match arg {
            "--scale" => {
                self.scale = args.next().ok_or("--scale requires a value")?;
                Ok(true)
            }
            "--seed" => {
                self.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed requires an integer")?;
                Ok(true)
            }
            "--workers" => {
                self.workers = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--workers requires an integer")?,
                );
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    fn config(&self) -> Result<WorldConfig, String> {
        let base = match self.scale.as_str() {
            "tiny" => WorldConfig::tiny(self.seed),
            "small" => WorldConfig::small(self.seed),
            "medium" => WorldConfig::medium(self.seed),
            "paper" => WorldConfig::paper(self.seed),
            "large" => WorldConfig::large(self.seed),
            "web" => WorldConfig::web(self.seed),
            other => return Err(format!("unknown scale `{other}`")),
        };
        Ok(WorldConfig {
            workers: self.workers,
            ..base
        })
    }
}

/// Builds the world and runs the full study, with progress on stderr.
fn run_study(flags: &WorldFlags) -> Result<Study, String> {
    let config = flags.config()?;
    eprintln!(
        "# world: {} sites, {} clients, {} days, seed {} (scale {}, {} workers)",
        config.n_sites,
        config.n_clients,
        config.days.len(),
        config.seed,
        flags.scale,
        config.effective_workers(),
    );
    let (study, took) = timed(|| Study::run(config));
    let study = study.map_err(|e| format!("study failed: {e}"))?;
    eprintln!("# study ready in {}", took.report());
    Ok(study)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("snapshot") => snapshot_main(args),
        Some("serve") => serve_main(args),
        Some("worldgen") => worldgen_main(args),
        Some(first) => experiment_main(first, args),
        None => {
            eprintln!("{}", usage());
            Ok(ExitCode::FAILURE)
        }
    }
    .unwrap_or_else(|message| {
        eprintln!("{message}\n{}", usage());
        ExitCode::FAILURE
    })
}

/// `worldgen`: generate the world only and report phase timings, the
/// GenBudget estimate vs. cap, peak RSS, and the content digest (the CI
/// cross-worker byte-identity witness).
fn worldgen_main(mut args: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let mut flags = WorldFlags::new();
    let mut shard: Option<usize> = None;
    while let Some(arg) = args.next() {
        if flags.consume(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--shard" => {
                shard = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--shard requires an integer")?,
                )
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let mut config = flags.config()?;
    if shard.is_some() {
        config.gen_shard = shard;
    }
    let budget = GenBudget::for_config(&config);
    let cap = config.gen_budget_bytes;
    println!(
        "worldgen scale={} seed={} gen_epoch={} workers={} shard={}",
        flags.scale,
        config.seed,
        config.effective_gen_epoch(),
        config.effective_workers(),
        config.effective_gen_shard(),
    );
    println!("# {}", budget.breakdown());
    let (generated, took) = timed(|| World::generate_instrumented(config));
    let (world, timings) = generated.map_err(|e| format!("world generation failed: {e}"))?;
    for (phase, dur) in &timings.phases {
        println!("phase {phase} {:.3}s", dur.as_secs_f64());
    }
    println!(
        "sites={} clients={} link_edges={} total {}",
        world.sites.len(),
        world.clients.len(),
        world.link_graph.edge_count(),
        took.report(),
    );
    println!(
        "budget estimate_bytes={} cap_bytes={} ok={}",
        budget.total(),
        cap.map(|c| c.to_string()).unwrap_or_else(|| "-".to_owned()),
        u8::from(budget.check(cap).is_ok()),
    );
    match took.peak_rss {
        Some(rss) => println!("peak_rss_bytes={rss}"),
        None => println!("peak_rss_bytes=-"),
    }
    println!("digest=0x{:016x}", world.gen_digest());
    Ok(ExitCode::SUCCESS)
}

/// `snapshot <write|delta|domain|body>`: persist, diff, or query snapshots.
fn snapshot_main(mut args: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    match args.next().as_deref() {
        Some("write") => snapshot_write(args),
        Some("delta") => snapshot_delta(args),
        Some("domain") => snapshot_domain(args),
        Some("body") => snapshot_body(args),
        Some(other) => Err(format!("unknown snapshot subcommand `{other}`")),
        None => Err("snapshot requires a subcommand (write delta domain body)".to_owned()),
    }
}

/// `snapshot write <path>`: run the study (optionally truncated to the first
/// `--days K`), persist it.
fn snapshot_write(mut args: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let mut flags = WorldFlags::new();
    let mut path: Option<String> = None;
    let mut days: Option<usize> = None;
    let mut artifacts_from: Option<String> = None;
    while let Some(arg) = args.next() {
        if flags.consume(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--days" => {
                days = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--days requires an integer")?,
                )
            }
            "--artifacts-from" => {
                artifacts_from = Some(args.next().ok_or("--artifacts-from requires a path")?)
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(ExitCode::SUCCESS);
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_owned()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let path = path.ok_or("snapshot write requires an output path")?;
    let study = match days {
        None => run_study(&flags)?,
        Some(days) => {
            // The live-serving oracle: observe only a prefix of the window.
            // Per the determinism-epoch contract this matches what a live
            // server reaches after ingesting those same days as deltas.
            let config = flags.config()?;
            if days == 0 || days > config.days.len() {
                return Err(format!(
                    "--days must be in 1..={} for scale {}",
                    config.days.len(),
                    flags.scale
                ));
            }
            let workers = config.effective_workers();
            let world =
                World::generate(config).map_err(|e| format!("world generation failed: {e}"))?;
            let shards = topple_core::observe_day_shards(&world, days, workers);
            let (study, took) = timed(|| Study::from_shards(world, shards));
            let study = study.map_err(|e| format!("study failed: {e}"))?;
            eprintln!("# {days}-day study ready in {}", took.report());
            study
        }
    };
    // Bake the headline rendered reports in alongside the index so a serving
    // host needs nothing but the snapshot file. `--artifacts-from` instead
    // carries them over from an existing snapshot — exactly what the live
    // engine does on a hot swap, so oracle rebuilds stay byte-identical.
    let artifacts = match artifacts_from {
        None => vec![
            ("table1".to_owned(), render::table1(&study)),
            ("fig1".to_owned(), render::fig1(&study)),
        ],
        Some(from) => {
            Snapshot::read_from(Path::new(&from))
                .map_err(|e| format!("cannot read artifacts from `{from}`: {e}"))?
                .artifacts
        }
    };
    let (written, took) =
        timed(|| topple_serve::write_study(&study, &flags.scale, &artifacts, Path::new(&path)));
    let id = written.map_err(|e| format!("snapshot write failed: {e}"))?;
    let size = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    eprintln!("# snapshot encoded in {:.2}s", took.wall.as_secs_f64());
    println!("wrote {path} snapshot={id} bytes={size}");
    Ok(ExitCode::SUCCESS)
}

/// `snapshot delta <path> --day D`: observe one simulated day and write it
/// as a `tpld` delta for `POST /v1/admin/ingest`.
fn snapshot_delta(mut args: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let mut flags = WorldFlags::new();
    let mut path: Option<String> = None;
    let mut day: Option<usize> = None;
    while let Some(arg) = args.next() {
        if flags.consume(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--day" => {
                day = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--day requires an integer")?,
                )
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(ExitCode::SUCCESS);
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_owned()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let path = path.ok_or("snapshot delta requires an output path")?;
    let day = day.ok_or("snapshot delta requires --day D")?;
    let config = flags.config()?;
    if day >= config.days.len() {
        return Err(format!(
            "--day must be in 0..{} for scale {}",
            config.days.len(),
            flags.scale
        ));
    }
    let world = World::generate(config).map_err(|e| format!("world generation failed: {e}"))?;
    let identity = DeltaIdentity {
        seed: world.config.seed,
        n_sites: world.config.n_sites as u64,
        n_clients: world.config.n_clients as u64,
        scale: flags.scale.clone(),
    };
    let (observed, took) = timed(|| DayScratch::new(&world).observe_day(&world, day));
    eprintln!("# day {day} observed in {}", took.report());
    let delta =
        Delta::new(identity, observed).map_err(|e| format!("delta construction failed: {e}"))?;
    let id = delta
        .write_to(Path::new(&path))
        .map_err(|e| format!("delta write failed: {e}"))?;
    let size = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!("wrote {path} delta={id} bytes={size}");
    Ok(ExitCode::SUCCESS)
}

/// `snapshot domain <tpls> <list> <pos>`: print the domain at 0-based
/// monthly position `pos` — a query target for scripts.
fn snapshot_domain(args: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let positional: Vec<String> = args.collect();
    let [path, list, pos] = positional.as_slice() else {
        return Err("snapshot domain requires <tpls> <list> <pos>".to_owned());
    };
    let source = parse_list(list).ok_or_else(|| format!("unknown list `{list}`"))?;
    let pos: usize = pos
        .parse()
        .map_err(|_| format!("position `{pos}` is not an integer"))?;
    let snap =
        Snapshot::read_from(Path::new(path)).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let ids = &snap.index.monthly(source).ids;
    let id = ids
        .get(pos)
        .ok_or_else(|| format!("list `{list}` has only {} entries", ids.len()))?;
    println!("{}", snap.index.table().name(*id).as_str());
    Ok(ExitCode::SUCCESS)
}

/// `snapshot body <tpls> [--generation N] <request-path>`: print the exact
/// response body the query layer renders for `request-path` — the offline
/// oracle live responses are byte-compared against.
fn snapshot_body(mut args: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let mut path: Option<String> = None;
    let mut target: Option<String> = None;
    let mut generation: u64 = 0;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--generation" => {
                generation = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--generation requires an integer")?
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(ExitCode::SUCCESS);
            }
            other if path.is_none() => path = Some(other.to_owned()),
            other if target.is_none() => target = Some(other.to_owned()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let path = path.ok_or("snapshot body requires a snapshot path")?;
    let target = target.ok_or("snapshot body requires a request path")?;
    let snap =
        Snapshot::read_from(Path::new(&path)).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let qs = QuerySnapshot::with_generation(snap, generation, &[]);
    print!("{}", oracle_body(&qs, &target)?);
    let _ = std::io::stdout().flush();
    Ok(ExitCode::SUCCESS)
}

/// Renders the body for one request path through the same pure renderers the
/// daemon serves from (its hot cache and compare cache pre-render/memoise
/// these exact strings, so bodies agree byte-for-byte).
fn oracle_body(qs: &QuerySnapshot, target: &str) -> Result<String, String> {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    if path == "/health" {
        return Ok(qs.health().body);
    }
    if path == "/v1/snapshot" {
        return Ok(String::from_utf8_lossy(qs.snapshot_bytes()).into_owned());
    }
    if let Some(rest) = path.strip_prefix("/v1/rank/") {
        let (list, domain) = rest
            .split_once('/')
            .ok_or("expected /v1/rank/{list}/{domain}")?;
        return Ok(qs.rank(list, domain).body);
    }
    if let Some(domain) = path.strip_prefix("/v1/movement/") {
        return Ok(qs.movement(domain).body);
    }
    if path == "/v1/compare" {
        let (mut a, mut b, mut k) = ("", "", "");
        for pair in query.split('&') {
            match pair.split_once('=') {
                Some(("a", v)) => a = v,
                Some(("b", v)) => b = v,
                Some(("k", v)) => k = v,
                _ => {}
            }
        }
        return Ok(qs.compare(a, b, k).body);
    }
    Err(format!("oracle cannot render `{target}`"))
}

/// `serve <path>`: load a snapshot and run the query daemon until signaled.
fn serve_main(mut args: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let mut addr = "127.0.0.1:8643".to_owned();
    let mut workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .min(8);
    let mut live = false;
    let mut window: Option<u32> = None;
    let mut path: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next().ok_or("--addr requires HOST:PORT")?,
            "--workers" => {
                workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--workers requires an integer")?
            }
            "--live" => live = true,
            "--window" => {
                window = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--window requires an integer")?,
                )
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(ExitCode::SUCCESS);
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_owned()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let path = path.ok_or("serve requires a snapshot path")?;
    if window.is_some() && !live {
        return Err("--window only applies with --live".to_owned());
    }
    let (loaded, took) = timed(|| QuerySnapshot::load(std::path::Path::new(&path)));
    let snapshot = loaded.map_err(|e| format!("cannot serve `{path}`: {e}"))?;
    eprintln!(
        "# snapshot loaded in {:.2}s: {} domains, scale {}",
        took.wall.as_secs_f64(),
        snapshot.snapshot().index.table().len(),
        snapshot.snapshot().identity.scale,
    );

    // `--live` re-derives the world configuration from the snapshot's
    // identity: the delta ingest path re-observes days of the *same* world,
    // so scale label + seed must reproduce the base world exactly.
    let mut engine_setup = None;
    let server = if live {
        let identity = snapshot.snapshot().identity.clone();
        let flags = WorldFlags {
            scale: identity.scale.clone(),
            seed: identity.seed,
            workers: None,
        };
        let config = flags
            .config()
            .map_err(|e| format!("snapshot scale is not servable live: {e}"))?;
        if config.n_sites as u64 != identity.n_sites
            || config.n_clients as u64 != identity.n_clients
        {
            return Err(format!(
                "snapshot identity ({} sites, {} clients) does not match scale `{}` ({} sites, {} clients)",
                identity.n_sites, identity.n_clients, identity.scale, config.n_sites, config.n_clients,
            ));
        }
        let window = window.unwrap_or(config.days.len() as u32);
        let store = Arc::new(LiveStore::new(
            snapshot,
            window,
            Arc::new(Metrics::new()),
            Arc::new(Lru::new(256)),
        ));
        let engine_workers = config.effective_workers();
        let engine = LiveEngine::new(Arc::clone(&store), config, engine_workers)
            .spawn()
            .map_err(|e| format!("cannot spawn live engine: {e}"))?;
        engine_setup = Some((Arc::clone(&store), engine));
        Server::bind_live(&addr, store, workers).map_err(|e| e.to_string())?
    } else {
        Server::bind(&addr, snapshot, workers).map_err(|e| e.to_string())?
    };
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    // Bridge delivered signals to the server's shutdown flag.
    topple_serve::signal::install_handlers();
    let handle = server.handle();
    std::thread::spawn(move || loop {
        if topple_serve::signal::shutdown_requested() {
            handle.store(true, std::sync::atomic::Ordering::SeqCst);
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    });

    println!(
        "ready addr={bound} snapshot={} workers={workers}{}",
        server.snapshot().id(),
        if live { " live=1" } else { "" },
    );
    let _ = std::io::stdout().flush();
    let ran = server.run();
    if let Some((store, engine)) = engine_setup {
        store.shutdown();
        let _ = engine.join();
        if let Some(reason) = store.poisoned() {
            eprintln!("# live engine poisoned: {reason}");
        }
    }
    match ran {
        Ok(stats) => {
            eprintln!(
                "# drained: {} connections, {} requests",
                stats.connections, stats.requests
            );
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => Err(format!("serve failed: {e}")),
    }
}

/// Default mode: regenerate tables/figures. The experiment name is validated
/// *before* the study runs, so a typo fails in milliseconds, not minutes.
fn experiment_main(
    first: &str,
    mut args: impl Iterator<Item = String>,
) -> Result<ExitCode, String> {
    let mut flags = WorldFlags::new();
    let mut what: Option<String> = None;
    let mut pending = Some(first.to_owned());
    while let Some(arg) = pending.take().or_else(|| args.next()) {
        if flags.consume(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(ExitCode::SUCCESS);
            }
            other if what.is_none() && !other.starts_with('-') => what = Some(other.to_owned()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let what = what.ok_or("missing experiment name")?;
    if !EXPERIMENTS.contains(&what.as_str()) {
        return Err(format!("unknown experiment `{what}`"));
    }
    flags.config()?; // validate --scale before the expensive run too
    let study = run_study(&flags)?;

    let run = |name: &str| -> Result<(), CoreError> {
        match name {
            "table1" => print!("{}", render::table1(&study)),
            "table2" => print!("{}", render::table2(&study)?),
            "table3" => print!("{}", render::table3(&study)?),
            "fig1" => print!("{}", render::fig1(&study)),
            "fig2" => print!("{}", render::fig2(&study)?),
            "fig3" => print!("{}", render::fig3(&study)),
            "fig4" => print!("{}", render::fig4(&study)),
            "fig5" => {
                print!("{}", render::fig5(&study, ListSource::Alexa));
                print!("{}", render::fig5(&study, ListSource::Crux));
            }
            "fig6" => print!("{}", render::fig6(&study)),
            "fig7" => print!("{}", render::fig7(&study)),
            "fig8" => print!("{}", render::fig8(&study)?),
            "ablate" => print!("{}", render::ablations(&study)?),
            "attack" => print!("{}", render::attack(&study)),
            "intext" => print!("{}", render::intext_numbers(&study)?),
            "attribution" => print!("{}", render::attribution(&study)?),
            // Unreachable: `what` was validated against EXPERIMENTS above.
            _ => {}
        }
        Ok(())
    };

    if what == "all" {
        let mut all_ok = true;
        for name in [
            "table1", "table2", "fig1", "fig8", "fig2", "fig3", "fig5", "fig6", "fig4", "fig7",
            "table3",
        ] {
            match run(name) {
                Ok(()) => println!(),
                Err(e) => {
                    eprintln!("{name} failed: {e}");
                    all_ok = false;
                }
            }
        }
        if !all_ok {
            return Err("one or more experiments failed".to_owned());
        }
    } else if let Err(e) = run(&what) {
        return Err(format!("{what} failed: {e}"));
    }
    Ok(ExitCode::SUCCESS)
}
