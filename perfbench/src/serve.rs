//! The serving workloads: `serve-read` (the daemon over a medium snapshot,
//! read-only) and `serve-live` (a live daemon ingesting the remaining days
//! of a small world one delta at a time while the same reads continue).
//!
//! Fixtures (the snapshot, the deltas) are built by a child process running
//! this binary with `--fixture`, so their memory never reaches the measured
//! process's peak-resident mark.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use topple_core::{observe_day_shards, Study};
use topple_serve::lru::Lru;
use topple_serve::metrics::Metrics;
use topple_serve::{
    encode_study, Delta, DeltaIdentity, DrainStats, LiveEngine, LiveStore, QuerySnapshot,
    ServeError, Server, Snapshot,
};
use topple_sim::{World, WorldConfig};

use crate::http::{self, Conn};
use crate::loadgen::{self, build_mix, closed_loop, json_u64, json_u64_array, FirstSeen, Query};
use crate::stats::{median, nearest_rank};
use crate::study::STUDY_SEED;
use crate::trace::Tracer;
use crate::{procfs, Args, Outcome, WorkDir};

/// Reads in the pre-built mix (cycled through during a phase).
const MIX_LEN: usize = 1 << 15;
/// Reactor shards: nproc − 1 leaves one core to the generator.
const SHARDS: usize = 1;
/// The caller's pace: one read per 125 µs (8,000 reads/s), each still
/// waiting for the previous reply. Paced, a run serves a fixed number of
/// reads: on serve-live a saturating caller made that number depend on how
/// the rebuilds competed for the CPUs, and server CPU per read (which
/// carries the rebuild CPU) moved by a quarter between runs; serve-read
/// keeps the same caller so the two workloads differ only by the writes.
const READ_PERIOD: Duration = Duration::from_micros(125);
/// Smallest window a read percentile is taken over.
const WINDOW_MIN_READS: usize = 200;
/// The set-up figure is the median of daemon boots spread over the run. On
/// a shared host whose speed switches between states lasting seconds, seven
/// boots in one burst before the phase all landed in one state and the
/// figure moved by a third between runs. serve-read splits its read phase
/// into segments and boots this many side daemons before, between and
/// after them (the measured daemon idles meanwhile); serve-live boots this
/// many before and after its phase.
const READ_BOOTS_PER_GAP: usize = 3;
const LIVE_BOOTS_PER_GAP: usize = 4;
/// Segments of the serve-read phase.
const READ_SEGMENTS: usize = 5;
/// Days in the live daemon's base snapshot; the rest arrive as deltas.
const LIVE_BASE_DAYS: usize = 4;
/// Every this many reads one response body is kept for the output check.
const SAMPLE_EVERY: usize = 61;
/// Reads checked against the offline rebuild after the last swap.
const LIVE_CHECKS: usize = 600;
/// Longest a delta may take to become visible before it counts as failed.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(30);
/// Artifacts baked into fixture snapshots.
fn artifacts() -> Vec<(String, String)> {
    vec![("perfbench".to_owned(), format!("fixture seed {STUDY_SEED}"))]
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The serve-read snapshot's world: the study world, medium scale.
fn read_config(smoke: bool) -> (WorldConfig, &'static str) {
    let (base, label) = if smoke {
        (WorldConfig::tiny(STUDY_SEED), "tiny")
    } else {
        (WorldConfig::medium(STUDY_SEED), "medium")
    };
    (
        WorldConfig {
            workers: Some(crate::workers()),
            ..base
        },
        label,
    )
}

/// The serve-live world: the study world, small scale.
fn live_config(smoke: bool) -> (WorldConfig, &'static str) {
    let (base, label) = if smoke {
        (WorldConfig::tiny(STUDY_SEED), "tiny")
    } else {
        (WorldConfig::small(STUDY_SEED), "small")
    };
    (
        WorldConfig {
            workers: Some(crate::workers()),
            ..base
        },
        label,
    )
}

/// `--fixture --kind read|live --dir D [--smoke]`: writes the workload's
/// snapshot (and, for `live`, one delta per remaining day) into `D`, and
/// prints the snapshot's encode time and size. The world is the study
/// world (`STUDY_SEED`), built with the machine's workers.
pub fn fixture_main(mut it: impl Iterator<Item = String>) -> Result<(), String> {
    let (mut kind, mut dir, mut smoke) = (None, None, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--kind" => kind = Some(value()?),
            "--dir" => dir = Some(PathBuf::from(value()?)),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown fixture argument `{other}`")),
        }
    }
    let dir = dir.ok_or("--dir is required")?;
    let (study, label, deltas) = match kind.as_deref() {
        Some("read") => {
            let (config, label) = read_config(smoke);
            (Study::run(config).map_err(err)?, label, Vec::new())
        }
        Some("live") => {
            let (config, label) = live_config(smoke);
            let world = World::generate(config.clone()).map_err(err)?;
            let identity = DeltaIdentity {
                seed: STUDY_SEED,
                n_sites: config.n_sites as u64,
                n_clients: config.n_clients as u64,
                scale: label.to_owned(),
            };
            let mut shards = observe_day_shards(&world, config.days.len(), crate::workers());
            let later = shards.split_off(LIVE_BASE_DAYS.min(shards.len()));
            let deltas = later
                .into_iter()
                .map(|s| Delta::new(identity.clone(), s).map(|d| d.to_bytes()))
                .collect::<Result<Vec<_>, _>>()
                .map_err(err)?;
            (
                Study::from_shards(world, shards).map_err(err)?,
                label,
                deltas,
            )
        }
        _ => return Err("--kind must be read or live".to_owned()),
    };
    let t0 = Instant::now();
    let bytes = encode_study(&study, label, &artifacts());
    let encode_s = t0.elapsed().as_secs_f64();
    std::fs::write(dir.join("snapshot.tpls"), &bytes).map_err(err)?;
    for (i, d) in deltas.iter().enumerate() {
        std::fs::write(dir.join(format!("delta-{i:03}.tpld")), d).map_err(err)?;
    }
    println!("fixture encode_s={encode_s} bytes={}", bytes.len());
    Ok(())
}

/// What the fixture child reported.
struct Fixture {
    snapshot: PathBuf,
    deltas: Vec<Vec<u8>>,
    encode_s: f64,
    bytes: f64,
}

fn build_fixture(kind: &str, args: &Args, dir: &Path) -> Result<Fixture, String> {
    let mut cmd = Command::new(std::env::current_exe().map_err(err)?);
    cmd.args(["--fixture", "--kind", kind, "--dir"]).arg(dir);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(err)?;
    if !out.status.success() {
        return Err(format!(
            "fixture child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let field = |key: &str| -> Option<f64> {
        let line = text.lines().find(|l| l.starts_with("fixture "))?;
        let kv = line.split_whitespace().find_map(|w| w.strip_prefix(key))?;
        kv.strip_prefix('=')?.parse().ok()
    };
    let mut delta_paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(err)?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "tpld"))
        .collect();
    delta_paths.sort();
    let deltas = delta_paths
        .iter()
        .map(std::fs::read)
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    Ok(Fixture {
        snapshot: dir.join("snapshot.tpls"),
        deltas,
        encode_s: field("encode_s").ok_or("fixture printed no encode time")?,
        bytes: field("bytes").ok_or("fixture printed no size")?,
    })
}

/// A running daemon (and, when live, its rebuild engine).
struct Daemon {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    server: JoinHandle<Result<DrainStats, ServeError>>,
    live: Option<(Arc<LiveStore>, JoinHandle<()>)>,
}

impl Daemon {
    /// Runs `server` on its own thread, pinned with its reactor shards to
    /// the first allowed CPU; the generator runs on the last. Left to the
    /// scheduler, the pair sometimes shared a CPU and read latency halved
    /// for the whole run. A live engine, spawned before, is not pinned.
    fn start(
        server: Server,
        live: Option<(Arc<LiveStore>, JoinHandle<()>)>,
    ) -> Result<Daemon, String> {
        let addr = server.local_addr().map_err(err)?;
        let shutdown = server.handle();
        let server = std::thread::Builder::new()
            .name("pb-server".to_owned())
            .spawn(move || {
                pin(false);
                server.run()
            })
            .map_err(err)?;
        Ok(Daemon {
            addr,
            shutdown,
            server,
            live,
        })
    }

    /// Drains the server, stops the engine, and waits for both threads.
    fn stop(self) -> Result<(), String> {
        self.shutdown.store(true, Ordering::SeqCst);
        let served = self.server.join().map_err(|_| "server thread panicked")?;
        if let Some((store, engine)) = self.live {
            store.shutdown();
            engine.join().map_err(|_| "live engine panicked")?;
            if let Some(why) = store.poisoned() {
                return Err(format!("live engine poisoned: {why}"));
            }
        }
        served.map(drop).map_err(err)
    }
}

/// Pins the calling thread to the first (or last) allowed CPU and returns
/// the mask it had.
fn pin(last: bool) -> Option<procfs::CpuMask> {
    let allowed = procfs::thread_affinity()?;
    procfs::set_thread_affinity(&procfs::single_cpu(&allowed, last)?);
    Some(allowed)
}

/// One `GET` on a fresh connection.
fn fetch(addr: SocketAddr, path: &str) -> Result<(u16, Vec<u8>), String> {
    Conn::connect(addr)
        .and_then(|mut c| c.call(&http::get(path)))
        .map_err(err)
}

/// Waits for `/health` to answer 200.
fn ready(addr: SocketAddr) -> Result<(), String> {
    match fetch(addr, "/health")? {
        (200, _) => Ok(()),
        (status, _) => Err(format!("/health answered {status}")),
    }
}

/// The end-to-end metrics of a serve workload, whose op is one read. The
/// latency is the median over the phase's one-second windows of each
/// window's p50, so a burst of host steal moves one window rather than the
/// run; the CPU is the server's per read served. The read tail (windowed
/// p90, whole-phase p50 to p99.9 with how many samples lie beyond each) is
/// printed on a `tail` line and not gated.
fn read_metrics(
    out: &mut Outcome,
    setups: &[f64],
    report: &loadgen::LoadReport,
    server_cpu_us_per_req: f64,
    peak_rss_mib: f64,
) {
    let windowed = |q| {
        report
            .latency
            .windowed(&report.windows, q, WINDOW_MIN_READS)
            .unwrap_or(0.0)
    };
    out.metric("setup_s", crate::setup_median(setups), "s");
    out.metric("op_p50_ms", windowed(50.0), "ms");
    out.metric("op_cpu_ms", server_cpu_us_per_req / 1e3, "ms");
    out.metric("peak_rss_mib", peak_rss_mib, "MiB");
    let ms = report.latency.sorted_ms();
    let p = |q| nearest_rank(&ms, q).unwrap_or(0.0);
    println!(
        "tail reads={} windows={} read_p90_ms={} phase_p50_ms={} phase_p90_ms={} read_p99_ms={} ({} beyond) read_p99.9_ms={} ({} beyond)",
        ms.len(),
        report.windows.len(),
        windowed(90.0),
        p(50.0),
        p(90.0),
        p(99.0),
        ms.len() / 100,
        p(99.9),
        ms.len() / 1000
    );
}

/// Counter deltas from `/v1/metrics` over a phase.
#[derive(Default)]
struct ServerCounters {
    requests: u64,
    compares: u64,
    compare_hits: u64,
    hot_hits: u64,
    hot_misses: u64,
    wakeups: u64,
    flushes: u64,
    swaps: u64,
}

impl ServerCounters {
    fn read(addr: SocketAddr) -> Result<ServerCounters, String> {
        let (_, body) = fetch(addr, "/v1/metrics")?;
        let text = String::from_utf8_lossy(&body);
        let get = |k| json_u64(&text, k).unwrap_or(0);
        Ok(ServerCounters {
            requests: get("2xx") + get("4xx") + get("5xx"),
            compares: get("compare"),
            compare_hits: get("compare_cache_hits"),
            hot_hits: get("hits"),
            hot_misses: get("misses"),
            wakeups: get("epoll_wakeups"),
            flushes: json_u64_array(&text, "pipelined_per_flush").map_or(0, |v| v.iter().sum()),
            swaps: get("swaps"),
        })
    }

    fn since(&self, before: &ServerCounters) -> ServerCounters {
        ServerCounters {
            requests: self.requests - before.requests,
            compares: self.compares - before.compares,
            compare_hits: self.compare_hits - before.compare_hits,
            hot_hits: self.hot_hits - before.hot_hits,
            hot_misses: self.hot_misses - before.hot_misses,
            wakeups: self.wakeups - before.wakeups,
            flushes: self.flushes - before.flushes,
            swaps: self.swaps - before.swaps,
        }
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// One closed-loop read phase against a fixed snapshot.
struct ReadPhase {
    report: loadgen::LoadReport,
    /// Process CPU over the phase minus the generator thread's.
    server_cpu_s: f64,
}

impl ReadPhase {
    fn server_cpu_us_per_req(&self) -> f64 {
        self.server_cpu_s / self.report.latency.len().max(1) as f64 * 1e6
    }

    fn append(&mut self, later: ReadPhase) {
        self.report.append(later.report);
        self.server_cpu_s += later.server_cpu_s;
    }
}

fn read_phase(daemon: &Daemon, mix: &[loadgen::Read], base_id: &str, seconds: f64) -> ReadPhase {
    let seen = FirstSeen::new(1);
    let restore = pin(true);
    let cpu0 = procfs::process_cpu_s();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let report = closed_loop(
        daemon.addr,
        mix,
        base_id,
        t0,
        &seen,
        SAMPLE_EVERY,
        READ_PERIOD,
        &|| Instant::now() >= deadline,
    );
    let server_cpu = procfs::process_cpu_s() - cpu0 - report.cpu_s;
    if let Some(mask) = restore {
        procfs::set_thread_affinity(&mask);
    }
    ReadPhase {
        server_cpu_s: server_cpu,
        report,
    }
}

/// Boots a read-only daemon over the fixture and waits for its first
/// `/health` reply; returns the daemon and how long that took.
fn boot_read(fixture: &Fixture) -> Result<(Daemon, f64), String> {
    let t0 = Instant::now();
    let qs = QuerySnapshot::load(&fixture.snapshot).map_err(err)?;
    let server = Server::bind("127.0.0.1:0", qs, SHARDS).map_err(err)?;
    let d = Daemon::start(server, None)?;
    ready(d.addr)?;
    Ok((d, t0.elapsed().as_secs_f64()))
}

/// Boots `n` daemons one after another, each stopped before the next
/// boots, and returns the last one running. The peak-resident mark is reset
/// to live memory just before the last boot, so it holds that daemon only.
fn boot_before(
    n: usize,
    setups: &mut Vec<f64>,
    mut boot: impl FnMut() -> Result<(Daemon, f64), String>,
) -> Result<Daemon, String> {
    boot_and_stop(n - 1, setups, &mut boot)?;
    procfs::reset_peak_rss();
    let (d, s) = boot()?;
    setups.push(s);
    Ok(d)
}

/// Boots and stops `n` side daemons.
fn boot_and_stop(
    n: usize,
    setups: &mut Vec<f64>,
    mut boot: impl FnMut() -> Result<(Daemon, f64), String>,
) -> Result<(), String> {
    for _ in 0..n {
        let (d, s) = boot()?;
        setups.push(s);
        d.stop()?;
    }
    Ok(())
}

/// Compares kept bodies with the query layer's renders of the same
/// snapshot.
fn check_samples(
    report: &loadgen::LoadReport,
    mix: &[loadgen::Read],
    oracle: &QuerySnapshot,
    out: &mut Outcome,
) {
    let mut bad = 0usize;
    for (i, body) in &report.samples {
        let expected = mix[*i % mix.len()].query.render(oracle);
        if expected.as_bytes() != body.as_slice() {
            bad += 1;
        }
    }
    out.check(
        !report.samples.is_empty(),
        "read phase kept response samples",
    );
    out.check(
        bad == 0,
        &format!(
            "{bad} of {} sampled bodies differ from the offline render",
            report.samples.len()
        ),
    );
}

/// `serve-read`: the daemon over a medium snapshot, read-only, closed-loop.
pub fn serve_read(args: &Args) -> Result<Outcome, String> {
    let dir = WorkDir::create().map_err(err)?;
    let fixture = build_fixture("read", args, dir.path())?;
    let mut out = Outcome::default();

    let oracle = QuerySnapshot::load(&fixture.snapshot).map_err(err)?;
    let base_id = oracle.id().to_owned();
    let mix = build_mix(&oracle, args.seed, MIX_LEN);
    drop(oracle);

    let mut setups = Vec::new();
    let boot = || boot_read(&fixture);
    let daemon = boot_before(READ_BOOTS_PER_GAP, &mut setups, boot)?;

    if args.trace {
        return read_traced(args, daemon, &fixture, &mix, &base_id, out);
    }
    // Side boots raise the peak-resident mark; it is reset to live memory
    // after them, and the figure is the highest mark of any segment.
    let segment = args.seconds / READ_SEGMENTS as f64;
    let mut phase = read_phase(&daemon, &mix, &base_id, segment);
    let mut peak = procfs::peak_rss_mib();
    for _ in 1..READ_SEGMENTS {
        boot_and_stop(READ_BOOTS_PER_GAP, &mut setups, boot)?;
        procfs::reset_peak_rss();
        phase.append(read_phase(&daemon, &mix, &base_id, segment));
        peak = peak.max(procfs::peak_rss_mib());
    }
    daemon.stop()?;
    boot_and_stop(READ_BOOTS_PER_GAP, &mut setups, boot)?;
    out.attempted += phase.report.attempted;
    out.failed += phase.report.failed;
    let oracle = QuerySnapshot::load(&fixture.snapshot).map_err(err)?;
    check_samples(&phase.report, &mix, &oracle, &mut out);

    read_metrics(
        &mut out,
        &setups,
        &phase.report,
        phase.server_cpu_us_per_req(),
        peak,
    );
    println!(
        "context loadgen.lateness_p50_ms={}",
        nearest_rank(&phase.report.lateness.sorted_ms(), 50.0).unwrap_or(0.0)
    );
    Ok(out)
}

/// In-process replay of the mix against the query layer: mean
/// microseconds per rank, movement, and uncached compare.
struct Replay {
    rank_us: f64,
    movement_us: f64,
    compare_us: f64,
    /// Share of the mix that is rank, movement, compare.
    shares: [f64; 3],
}

fn replay(qs: &QuerySnapshot, mix: &[loadgen::Read]) -> Replay {
    use topple_serve::query::list_url_name;
    let mut ns = [0u128; 3];
    let mut n = [0u64; 3];
    for read in mix {
        let t0 = Instant::now();
        let slot = match &read.query {
            Query::Rank(l, d) => {
                let len = match qs.hot_rank(*l, d) {
                    Some(b) => b.len(),
                    None => qs.rank(list_url_name(*l), d).body.len(),
                };
                std::hint::black_box(len);
                0
            }
            Query::Movement(d) => {
                let len = match qs.hot_movement(d) {
                    Some(b) => b.len(),
                    None => qs.movement(d).body.len(),
                };
                std::hint::black_box(len);
                1
            }
            Query::Compare(a, b, k) => {
                std::hint::black_box(qs.compare_body(*a, *b, *k));
                2
            }
        };
        ns[slot] += t0.elapsed().as_nanos();
        n[slot] += 1;
    }
    let mean = |i: usize| ns[i] as f64 / n[i].max(1) as f64 / 1e3;
    let total = mix.len().max(1) as f64;
    Replay {
        rank_us: mean(0),
        movement_us: mean(1),
        compare_us: mean(2),
        shares: [
            n[0] as f64 / total,
            n[1] as f64 / total,
            n[2] as f64 / total,
        ],
    }
}

/// The traced read run: an untraced and a traced half-phase (their server
/// CPU per read gives the tracing overhead), set-up split into decode and
/// hot-cache spans, the reactor's counters, and a query-layer replay.
fn read_traced(
    args: &Args,
    daemon: Daemon,
    fixture: &Fixture,
    mix: &[loadgen::Read],
    base_id: &str,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let half = args.seconds / 2.0;
    let plain = read_phase(&daemon, mix, base_id, half);
    let mut t = Tracer::new(args.seed);
    let before = ServerCounters::read(daemon.addr)?;
    let traced = t.span("serve.read_phase", |_| {
        read_phase(&daemon, mix, base_id, half)
    });
    let counters = ServerCounters::read(daemon.addr)?.since(&before);
    daemon.stop()?;
    for p in [&plain, &traced] {
        out.attempted += p.report.attempted;
        out.failed += p.report.failed;
    }

    let qs = t.span("serve.setup", |t| {
        let bytes = std::fs::read(&fixture.snapshot).map_err(err)?;
        let snap = t.span("serve.snapshot.decode", |_| Snapshot::from_bytes(&bytes));
        let snap = snap.map_err(err)?;
        Ok::<_, String>(t.span("serve.hotcache.build", |_| QuerySnapshot::new(snap)))
    })?;
    check_samples(&traced.report, mix, &qs, &mut out);
    let r = t.span("serve.query.replay", |_| replay(&qs, mix));

    let lru_hit = ratio(counters.compare_hits, counters.compares);
    let query_us = r.rank_us * r.shares[0]
        + r.movement_us * r.shares[1]
        + r.compare_us * r.shares[2] * (1.0 - lru_hit);
    out.metric("serve.snapshot.encode_s", fixture.encode_s, "s");
    out.metric("serve.snapshot.bytes", fixture.bytes, "bytes");
    out.metric(
        "serve.snapshot.decode_s",
        t.total("serve.snapshot.decode"),
        "s",
    );
    out.metric(
        "serve.hotcache.build_s",
        t.total("serve.hotcache.build"),
        "s",
    );
    out.metric("serve.query.rank_us", r.rank_us, "us");
    out.metric("serve.query.movement_us", r.movement_us, "us");
    out.metric("serve.query.compare_miss_us", r.compare_us, "us");
    out.metric(
        "serve.hotcache.hit_ratio",
        ratio(counters.hot_hits, counters.hot_hits + counters.hot_misses),
        "ratio",
    );
    out.metric("serve.lru.hit_ratio", lru_hit, "ratio");
    out.metric(
        "serve.reactor.cpu_us_per_req",
        traced.server_cpu_us_per_req() - query_us,
        "us",
    );
    out.metric(
        "serve.reactor.wakeups_per_req",
        ratio(counters.wakeups, counters.requests),
        "ratio",
    );
    out.metric(
        "serve.reactor.responses_per_flush",
        ratio(counters.requests, counters.flushes),
        "ratio",
    );
    out.metric(
        "loadgen.lateness_p50_ms",
        nearest_rank(&traced.report.lateness.sorted_ms(), 50.0).unwrap_or(0.0),
        "ms",
    );
    out.metric(
        "tracing.overhead_share",
        traced.server_cpu_us_per_req() / plain.server_cpu_us_per_req() - 1.0,
        "share",
    );
    t.finish();
    Ok(out)
}

/// Boots a live daemon over the fixture's base snapshot and waits until the
/// engine has finished verifying it: the engine thread (and every worker it
/// spawned, which inherit its name) has gone to sleep on the ingest queue.
fn boot_live(args: &Args, fixture: &Fixture) -> Result<(Daemon, f64), String> {
    let (config, _) = live_config(args.smoke);
    let t0 = Instant::now();
    let qs = QuerySnapshot::load(&fixture.snapshot).map_err(err)?;
    let store = Arc::new(LiveStore::new(
        qs,
        config.days.len() as u32,
        Arc::new(Metrics::new()),
        Arc::new(Lru::new(256)),
    ));
    let engine = LiveEngine::new(Arc::clone(&store), config, crate::workers())
        .spawn()
        .map_err(err)?;
    let server = Server::bind_live("127.0.0.1:0", Arc::clone(&store), SHARDS).map_err(err)?;
    let daemon = Daemon::start(server, Some((Arc::clone(&store), engine)))?;
    ready(daemon.addr)?;
    wait_engine_idle(&store)?;
    Ok((daemon, t0.elapsed().as_secs_f64()))
}

/// Polls until every `topple-live` thread (the engine and any worker it
/// spawned) has been asleep on four consecutive polls.
fn wait_engine_idle(store: &LiveStore) -> Result<(), String> {
    let deadline = Instant::now() + VISIBLE_TIMEOUT;
    let mut asleep = 0;
    while asleep < 4 {
        if let Some(why) = store.poisoned() {
            return Err(format!("live engine poisoned at boot: {why}"));
        }
        if Instant::now() > deadline {
            return Err("live engine did not finish booting".to_owned());
        }
        let states = procfs::thread_states("topple-live");
        asleep = if !states.is_empty() && states.iter().all(|&s| s == 'S') {
            asleep + 1
        } else {
            0
        };
        std::thread::sleep(Duration::from_micros(500));
    }
    Ok(())
}

/// What the ingest caller observed.
struct IngestReport {
    attempted: u64,
    failed: u64,
    ack_ms: Vec<f64>,
    freshness_ms: Vec<f64>,
    cpu_s: f64,
}

/// Posts each delta in turn and waits until a read is served by the
/// generation it creates. Gives up on the rest (counting them failed) once
/// a generation never shows or the readers have stopped.
fn ingest_all(
    addr: SocketAddr,
    deltas: &[Vec<u8>],
    origin: Instant,
    seen: &FirstSeen,
    readers_done: &AtomicBool,
) -> IngestReport {
    let cpu0 = procfs::thread_cpu_s();
    let mut r = IngestReport {
        attempted: 0,
        failed: 0,
        ack_ms: Vec::new(),
        freshness_ms: Vec::new(),
        cpu_s: 0.0,
    };
    let mut conn = Conn::connect(addr).ok();
    for (i, delta) in deltas.iter().enumerate() {
        let generation = i as u64 + 1;
        r.attempted += 1;
        let Some(c) = conn.as_mut() else {
            r.failed += 1;
            continue;
        };
        let request = http::post("/v1/admin/ingest", delta);
        let sent = Instant::now();
        let sent_ns = (sent - origin).as_nanos() as u64;
        match c.call(&request) {
            Ok((202, _)) => r.ack_ms.push(sent.elapsed().as_secs_f64() * 1e3),
            _ => {
                r.failed += 1;
                conn = None;
                continue;
            }
        }
        let deadline = sent + VISIBLE_TIMEOUT;
        loop {
            if let Some(at) = seen.get(generation) {
                r.freshness_ms.push(at.saturating_sub(sent_ns) as f64 / 1e6);
                break;
            }
            if Instant::now() > deadline || readers_done.load(Ordering::SeqCst) {
                r.failed += 1;
                conn = None;
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    r.cpu_s = procfs::thread_cpu_s() - cpu0;
    r
}

/// `serve-live`: closed-loop reads on a live daemon while every remaining
/// day is ingested as a delta, each waiting for its generation to serve.
pub fn serve_live(args: &Args) -> Result<Outcome, String> {
    let dir = WorkDir::create().map_err(err)?;
    let fixture = build_fixture("live", args, dir.path())?;
    let mut out = Outcome::default();

    let base = QuerySnapshot::load(&fixture.snapshot).map_err(err)?;
    let base_id = base.id().to_owned();
    let base_artifacts = base.snapshot().artifacts.clone();
    let mix = build_mix(&base, args.seed, MIX_LEN);
    drop(base);

    let mut setups = Vec::new();
    let boot = || boot_live(args, &fixture);
    let daemon = boot_before(LIVE_BOOTS_PER_GAP, &mut setups, boot)?;

    // The traced run first reads for a second untraced and a second traced:
    // their server CPU per read gives the tracing overhead.
    let mut tracer = None;
    let mut overhead = 0.0;
    if args.trace {
        let plain = read_phase(&daemon, &mix, &base_id, 1.0);
        let mut t = Tracer::new(args.seed);
        let traced = t.span("serve.read_phase", |_| {
            read_phase(&daemon, &mix, &base_id, 1.0)
        });
        overhead = traced.server_cpu_us_per_req() / plain.server_cpu_us_per_req() - 1.0;
        for p in [&plain, &traced] {
            out.attempted += p.report.attempted;
            out.failed += p.report.failed;
        }
        tracer = Some(t);
    }

    // Reads and ingests run side by side; reads stop once the last delta is
    // visible and the measured time is up.
    let seen = FirstSeen::new(fixture.deltas.len() + 1);
    let done = AtomicBool::new(false);
    let readers_done = AtomicBool::new(false);
    let cpu0 = procfs::process_cpu_s();
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(args.seconds);
    let (reads, ingest) = std::thread::scope(|s| {
        let ingester = s.spawn(|| {
            let r = ingest_all(daemon.addr, &fixture.deltas, origin, &seen, &readers_done);
            done.store(true, Ordering::SeqCst);
            r
        });
        let stop = || done.load(Ordering::SeqCst) && Instant::now() >= deadline;
        let restore = pin(true);
        let reads = closed_loop(
            daemon.addr,
            &mix,
            &base_id,
            origin,
            &seen,
            0,
            READ_PERIOD,
            &stop,
        );
        if let Some(mask) = restore {
            procfs::set_thread_affinity(&mask);
        }
        readers_done.store(true, Ordering::SeqCst);
        (reads, ingester.join())
    });
    let ingest = ingest.map_err(|_| "ingest thread panicked")?;
    let phase_cpu = procfs::process_cpu_s() - cpu0;
    let peak = procfs::peak_rss_mib();
    let n_reads = reads.latency.len().max(1) as f64;
    let server_cpu_us = (phase_cpu - reads.cpu_s - ingest.cpu_s) / n_reads * 1e6;
    println!(
        "ops reads={} ingests={} swaps_seen={}",
        reads.latency.len(),
        ingest.attempted,
        reads.max_generation
    );
    out.attempted += reads.attempted + ingest.attempted;
    out.failed += reads.failed + ingest.failed;

    // The offline oracle: the same prefix rebuilt from shards.
    let counters = ServerCounters::read(daemon.addr)?;
    let final_gen = fixture.deltas.len() as u64;
    let (config, label) = live_config(args.smoke);
    let world = World::generate(config.clone()).map_err(err)?;
    let shards = observe_day_shards(&world, config.days.len(), crate::workers());
    let rebuild = |t: Option<&mut Tracer>| -> Result<(QuerySnapshot, usize), String> {
        let mut t = t;
        let study = crate::study::span(t.as_deref_mut(), "core.from_shards", || {
            Study::from_shards(world, shards)
        })
        .map_err(err)?;
        let bytes = crate::study::span(t.as_deref_mut(), "serve.snapshot.encode", || {
            encode_study(&study, label, &base_artifacts)
        });
        drop(study);
        let snap = crate::study::span(t.as_deref_mut(), "serve.snapshot.decode", || {
            Snapshot::from_bytes(&bytes)
        })
        .map_err(err)?;
        let qs = crate::study::span(t, "serve.hotcache.build", || {
            QuerySnapshot::with_generation(snap, final_gen, &[])
        });
        Ok((qs, bytes.len()))
    };
    let (oracle, rebuilt_bytes) = match tracer.as_mut() {
        Some(t) => t.span("serve.live.rebuild", |t| rebuild(Some(t)))?,
        None => rebuild(None)?,
    };
    let mut bad = 0usize;
    let mut conn = Conn::connect(daemon.addr).map_err(err)?;
    for read in mix
        .iter()
        .step_by(mix.len() / LIVE_CHECKS)
        .take(LIVE_CHECKS)
    {
        match conn.call(&read.request) {
            Ok((200, body)) if body == read.query.render(&oracle).as_bytes() => {}
            _ => bad += 1,
        }
    }
    drop(conn);
    daemon.stop()?;
    out.check(
        reads.max_generation == final_gen,
        "reads reached the last generation",
    );
    out.check(
        bad == 0,
        &format!(
            "{bad} of {LIVE_CHECKS} bodies after the last swap differ from the offline rebuild"
        ),
    );

    if let Some(t) = tracer {
        out.metric("serve.live.boot_s", median(&setups).unwrap_or(0.0), "s");
        out.metric(
            "serve.live.ingest_ack_ms",
            median(&ingest.ack_ms).unwrap_or(0.0),
            "ms",
        );
        let rebuild_s = t.total("core.from_shards")
            + t.total("serve.snapshot.encode")
            + t.total("serve.hotcache.build")
            + t.total("serve.snapshot.decode");
        out.metric("serve.live.rebuild_s", rebuild_s, "s");
        let delta_bytes: Vec<f64> = fixture.deltas.iter().map(|d| d.len() as f64).collect();
        out.metric(
            "serve.live.delta_bytes",
            median(&delta_bytes).unwrap_or(0.0),
            "bytes",
        );
        out.metric("serve.live.swaps", counters.swaps as f64, "count");
        out.metric(
            "serve.live.freshness_p50_ms",
            median(&ingest.freshness_ms).unwrap_or(0.0),
            "ms",
        );
        out.metric(
            "serve.snapshot.encode_s",
            t.total("serve.snapshot.encode"),
            "s",
        );
        out.metric("serve.snapshot.bytes", rebuilt_bytes as f64, "bytes");
        out.metric(
            "serve.snapshot.decode_s",
            t.total("serve.snapshot.decode"),
            "s",
        );
        out.metric(
            "serve.hotcache.build_s",
            t.total("serve.hotcache.build"),
            "s",
        );
        out.metric(
            "loadgen.lateness_p50_ms",
            nearest_rank(&reads.lateness.sorted_ms(), 50.0).unwrap_or(0.0),
            "ms",
        );
        out.metric("tracing.overhead_share", overhead, "share");
        t.finish();
        return Ok(out);
    }
    drop(oracle);
    boot_and_stop(LIVE_BOOTS_PER_GAP, &mut setups, boot)?;
    read_metrics(&mut out, &setups, &reads, server_cpu_us, peak);
    println!(
        "context loadgen.lateness_p50_ms={} freshness_p50_ms={}",
        nearest_rank(&reads.lateness.sorted_ms(), 50.0).unwrap_or(0.0),
        median(&ingest.freshness_ms).unwrap_or(0.0)
    );
    Ok(out)
}
