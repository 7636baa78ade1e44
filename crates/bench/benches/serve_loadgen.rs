//! Loopback load generator for the `topple-serve` daemon: closed-loop
//! (sequential and pipelined) and open-loop modes.
//!
//! Unlike the other targets this is not a criterion closure: the number
//! being measured is the throughput of a multi-shard reactor under
//! concurrent clients, which criterion's single-threaded `iter` model
//! cannot express. The harness is custom but honours the same `--test`
//! smoke flag the vendored criterion uses, so `cargo bench -- --test`
//! stays a cheap build-and-run check in CI.
//!
//! Three load models (EXPERIMENTS.md discusses why all three matter):
//!
//! - **Closed-loop sequential**: each client issues its next request only
//!   after fully reading the previous response — one request in flight per
//!   connection. Comparable to every earlier baseline in EXPERIMENTS.md.
//! - **Closed-loop pipelined**: each client keeps `PIPELINE_DEPTH`
//!   requests in flight on one keep-alive connection; the reactor drains
//!   them per read and coalesces the responses into one flush. This is the
//!   throughput headline — it measures the server's per-request cost with
//!   syscalls amortised over the batch.
//! - **Open-loop**: requests depart on a fixed schedule regardless of
//!   completions (arrivals don't slow down when the server does), and each
//!   latency is measured from the request's *scheduled* departure time.
//!   This is the honest tail-latency number: unlike closed-loop, it does
//!   not let a slow server throttle its own load (coordinated omission).
//!
//! `--drain-smoke` runs the CI accounting check instead of the full study:
//! clients pipeline a fixed request count, shutdown flips mid-load, and
//! the drain's served-request total must equal `clients x requests`
//! exactly — including requests that were pipelined but unanswered when
//! the drain began — plus a conservative throughput floor.
//!
//! `--swap-storm` runs the live hot-swap stress instead: clients keep
//! pipelined load on a `--live` server while the harness force-ingests one
//! day delta after another. Every in-storm response must be non-5xx with no
//! connection resets — a swap must never drop or fail a request — and the
//! per-swap latency (ingest accepted -> new generation serving) is reported
//! as percentiles for EXPERIMENTS.md.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use topple_bench::{small_study, BENCH_SEED};
use topple_serve::lru::Lru;
use topple_serve::metrics::Metrics;
use topple_serve::{
    encode_study, Delta, DeltaIdentity, LiveEngine, LiveStore, QuerySnapshot, Server, Snapshot,
};
use topple_sim::{World, WorldConfig};
use topple_vantage::DayScratch;

/// Clients per scenario (each owns one keep-alive connection).
const CLIENTS: usize = 8;
/// Reactor shard threads.
const SHARDS: usize = 4;
/// Requests per client in a full closed-loop measurement run.
const FULL_REQUESTS: usize = 4_000;
/// Requests per client in a full *pipelined* run (cheap enough per request
/// that a bigger count stabilises the number).
const FULL_PIPELINED_REQUESTS: usize = 40_000;
/// Requests per client under `--test` (build-and-run smoke only).
const SMOKE_REQUESTS: usize = 5;
/// In-flight requests per connection in pipelined mode. Sized so the
/// aggregate in-flight count (CLIENTS x depth) keeps p99 under 1ms on one
/// core while still amortising syscalls enough to clear the throughput
/// target: queueing delay is roughly in-flight x per-request cost.
const PIPELINE_DEPTH: usize = 16;
/// Aggregate arrival rates (req/s) exercised by the open-loop study.
const OPEN_LOOP_RATES: [u64; 3] = [20_000, 60_000, 120_000];
/// Requests per client per open-loop rate (full mode).
const OPEN_LOOP_REQUESTS: usize = 10_000;
/// Throughput floor asserted by `--drain-smoke` (req/s, pipelined rank).
const SMOKE_FLOOR_RPS: f64 = 10_000.0;

/// Reads exactly one HTTP response (headers + `Content-Length` body) off a
/// keep-alive stream, leaving any over-read (pipelined) bytes in `carry`.
fn read_one_response(stream: &mut TcpStream, carry: &mut Vec<u8>) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        if let Some(head_end) = find_head_end(carry) {
            let content_len = content_length(&carry[..head_end]);
            let frame_len = head_end + 4 + content_len;
            if carry.len() >= frame_len {
                carry.drain(..frame_len);
                return;
            }
        }
        // topple-lint: allow(unwrap): bench; a dead connection must abort the run
        let n = stream.read(&mut buf).expect("server closed mid-response");
        assert!(n > 0, "server closed mid-response");
        carry.extend_from_slice(&buf[..n]);
    }
}

/// Like [`read_one_response`], but also returns the response's status code
/// (the swap storm tolerates 404s on rotated rank targets yet must never
/// see a 5xx).
fn read_one_status(stream: &mut TcpStream, carry: &mut Vec<u8>) -> u16 {
    let mut buf = [0u8; 16 * 1024];
    loop {
        if let Some(head_end) = find_head_end(carry) {
            let status = status_code(&carry[..head_end]);
            let content_len = content_length(&carry[..head_end]);
            let frame_len = head_end + 4 + content_len;
            if carry.len() >= frame_len {
                carry.drain(..frame_len);
                return status;
            }
        }
        // topple-lint: allow(unwrap): bench; a reset connection must abort the run
        let n = stream
            .read(&mut buf)
            .expect("connection reset mid-response");
        assert!(n > 0, "connection reset mid-response");
        carry.extend_from_slice(&buf[..n]);
    }
}

fn find_head_end(raw: &[u8]) -> Option<usize> {
    raw.windows(4).position(|w| w == b"\r\n\r\n")
}

fn status_code(head: &[u8]) -> u16 {
    let text = String::from_utf8_lossy(head);
    text.split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or(0)
}

fn content_length(head: &[u8]) -> usize {
    let text = String::from_utf8_lossy(head);
    text.lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Sorted-slice percentile (nearest-rank).
fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted_us.len() as f64).ceil() as usize;
    sorted_us[rank.saturating_sub(1).min(sorted_us.len() - 1)]
}

/// Spawns a fresh server on an ephemeral loopback port, runs `f` against
/// it, then drains and verifies exact request accounting.
fn with_server<T>(
    snapshot: &[u8],
    expect_requests: Option<u64>,
    f: impl FnOnce(std::net::SocketAddr) -> T,
) -> T {
    // topple-lint: allow(unwrap): bench; a broken snapshot must abort the run
    let qs = QuerySnapshot::new(Snapshot::from_bytes(snapshot).expect("snapshot decodes"));
    let server = Arc::new(Server::bind("127.0.0.1:0", qs, SHARDS).expect("binds loopback"));
    let addr = server.local_addr().expect("bound addr");
    let handle = server.handle();
    let runner = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };
    let out = f(addr);
    handle.store(true, Ordering::SeqCst);
    let stats = runner
        .join()
        .expect("server thread")
        .expect("graceful drain");
    if let Some(expected) = expect_requests {
        assert_eq!(stats.requests, expected, "drain accounting drifted");
    }
    out
}

/// Prints one scenario's numbers and returns the req/s.
fn report(name: &str, latencies: &mut [u64], elapsed: Duration) -> f64 {
    latencies.sort_unstable();
    let total = latencies.len();
    let rps = total as f64 / elapsed.as_secs_f64();
    println!(
        "serve_loadgen/{name}: {total} reqs over {CLIENTS} clients in {:.2}s -> {rps:.0} req/s, \
         p50={}us p99={}us p999={}us",
        elapsed.as_secs_f64(),
        percentile(latencies, 50.0),
        percentile(latencies, 99.0),
        percentile(latencies, 99.9),
    );
    rps
}

/// Prebuilds the wire bytes for each path.
fn render_requests(paths: &[String]) -> Vec<Vec<u8>> {
    paths
        .iter()
        .map(|p| format!("GET {p} HTTP/1.1\r\n\r\n").into_bytes())
        .collect()
}

/// Closed-loop sequential: one request in flight per connection; latency is
/// send-to-last-body-byte.
fn run_closed_sequential(
    name: &str,
    snapshot: &[u8],
    paths: &[String],
    requests_per_client: usize,
) {
    let (mut latencies, elapsed) = with_server(
        snapshot,
        Some((CLIENTS * requests_per_client) as u64),
        |addr| {
            let begun = Instant::now();
            let latencies: Vec<u64> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..CLIENTS)
                    .map(|client| {
                        scope.spawn(move || {
                            let mut stream = TcpStream::connect(addr).expect("connects");
                            // No Nagle buffering: otherwise the delayed-ACK
                            // interaction adds ~40ms per request and the
                            // harness measures TCP pathology, not the server.
                            stream.set_nodelay(true).expect("nodelay");
                            let requests = render_requests(paths);
                            let mut carry = Vec::with_capacity(16 * 1024);
                            let mut lat = Vec::with_capacity(requests_per_client);
                            for i in 0..requests_per_client {
                                // Stagger clients so they do not walk the
                                // path list in lockstep.
                                let request = &requests[(client * 7 + i) % requests.len()];
                                let sent = Instant::now();
                                stream.write_all(request).expect("writes");
                                read_one_response(&mut stream, &mut carry);
                                lat.push(sent.elapsed().as_micros().min(u64::MAX as u128) as u64);
                            }
                            lat
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().expect("client thread"))
                    .collect()
            });
            (latencies, begun.elapsed())
        },
    );
    report(name, &mut latencies, elapsed);
}

/// Closed-loop pipelined: keep `depth` requests in flight per connection;
/// latency is send-to-last-body-byte per request.
fn run_closed_pipelined(
    name: &str,
    snapshot: &[u8],
    paths: &[String],
    requests_per_client: usize,
    depth: usize,
) -> f64 {
    let (mut latencies, elapsed) = with_server(
        snapshot,
        Some((CLIENTS * requests_per_client) as u64),
        |addr| {
            let begun = Instant::now();
            let latencies: Vec<u64> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..CLIENTS)
                    .map(|client| {
                        scope.spawn(move || {
                            let mut stream = TcpStream::connect(addr).expect("connects");
                            stream.set_nodelay(true).expect("nodelay");
                            let requests = render_requests(paths);
                            let mut carry = Vec::with_capacity(64 * 1024);
                            let mut in_flight: VecDeque<Instant> = VecDeque::with_capacity(depth);
                            let mut lat = Vec::with_capacity(requests_per_client);
                            for i in 0..requests_per_client {
                                let request = &requests[(client * 7 + i) % requests.len()];
                                if in_flight.len() == depth {
                                    read_one_response(&mut stream, &mut carry);
                                    let sent = in_flight.pop_front().expect("in-flight");
                                    lat.push(
                                        sent.elapsed().as_micros().min(u64::MAX as u128) as u64
                                    );
                                }
                                in_flight.push_back(Instant::now());
                                stream.write_all(request).expect("writes");
                            }
                            while let Some(sent) = in_flight.pop_front() {
                                read_one_response(&mut stream, &mut carry);
                                lat.push(sent.elapsed().as_micros().min(u64::MAX as u128) as u64);
                            }
                            lat
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().expect("client thread"))
                    .collect()
            });
            (latencies, begun.elapsed())
        },
    );
    report(name, &mut latencies, elapsed)
}

/// Open-loop: requests depart on a fixed schedule (aggregate `rate` req/s
/// split across clients); latency runs from the *scheduled* departure, so
/// server-side queueing is charged to the server, not hidden by a stalled
/// client (no coordinated omission).
fn run_open_loop(
    name: &str,
    snapshot: &[u8],
    paths: &[String],
    rate: u64,
    requests_per_client: usize,
) {
    let interval = Duration::from_nanos(1_000_000_000 * CLIENTS as u64 / rate);
    let (mut latencies, elapsed) = with_server(
        snapshot,
        Some((CLIENTS * requests_per_client) as u64),
        |addr| {
            let begun = Instant::now();
            let latencies: Vec<u64> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..CLIENTS)
                    .map(|client| {
                        scope.spawn(move || {
                            let mut writer = TcpStream::connect(addr).expect("connects");
                            writer.set_nodelay(true).expect("nodelay");
                            let mut reader = writer.try_clone().expect("clones stream");
                            let requests = render_requests(paths);
                            // Deterministic schedule shared by writer and
                            // reader: request i departs at base + i*interval.
                            let base = Instant::now();
                            let sender = scope.spawn(move || {
                                for i in 0..requests_per_client {
                                    let due = base + interval * i as u32;
                                    let now = Instant::now();
                                    if due > now {
                                        std::thread::sleep(due - now);
                                    }
                                    let request = &requests[(client * 7 + i) % requests.len()];
                                    writer.write_all(request).expect("writes");
                                }
                            });
                            // Responses come back in order on one
                            // connection, so the i-th response pairs with
                            // the i-th scheduled departure.
                            let mut carry = Vec::with_capacity(64 * 1024);
                            let mut lat = Vec::with_capacity(requests_per_client);
                            for i in 0..requests_per_client {
                                read_one_response(&mut reader, &mut carry);
                                let due = base + interval * i as u32;
                                lat.push(
                                    Instant::now()
                                        .saturating_duration_since(due)
                                        .as_micros()
                                        .min(u64::MAX as u128)
                                        as u64,
                                );
                            }
                            sender.join().expect("sender thread");
                            lat
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().expect("client thread"))
                    .collect()
            });
            (latencies, begun.elapsed())
        },
    );
    report(name, &mut latencies, elapsed);
}

/// Builds the rank probe paths: the head of Tranco plus a guaranteed miss.
fn rank_paths(study: &topple_core::Study) -> Vec<String> {
    let mut paths: Vec<String> = study
        .tranco
        .entries
        .iter()
        .take(256)
        .map(|e| format!("/v1/rank/tranco/{}", e.name))
        .collect();
    paths.push("/v1/rank/tranco/absent.example".to_owned());
    paths
}

/// CI drain check: pipeline a fixed request count per client, flip
/// shutdown mid-load, and require exact served-request accounting plus a
/// conservative pipelined-throughput floor.
fn run_drain_smoke(snapshot: &[u8], paths: &[String]) {
    const DRAIN_CLIENTS: usize = 4;
    const DRAIN_DEPTH: usize = 64;

    // Floor check first, on a healthy server.
    let rps = run_closed_pipelined(
        "smoke-pipelined-rank",
        snapshot,
        paths,
        2_000,
        PIPELINE_DEPTH,
    );
    assert!(
        rps >= SMOKE_FLOOR_RPS,
        "pipelined rank fell below the smoke floor: {rps:.0} < {SMOKE_FLOOR_RPS} req/s"
    );

    // Accounting check: every pipelined-but-unanswered request at drain
    // start is served and counted exactly once.
    // topple-lint: allow(unwrap): bench; a broken snapshot must abort the run
    let qs = QuerySnapshot::new(Snapshot::from_bytes(snapshot).expect("snapshot decodes"));
    let server = Arc::new(Server::bind("127.0.0.1:0", qs, SHARDS).expect("binds loopback"));
    let addr = server.local_addr().expect("bound addr");
    let handle = server.handle();
    let runner = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };
    let mut conns: Vec<TcpStream> = (0..DRAIN_CLIENTS)
        .map(|_| {
            let mut s = TcpStream::connect(addr).expect("connects");
            let burst = format!("GET {} HTTP/1.1\r\n\r\n", paths[0]).repeat(DRAIN_DEPTH);
            s.write_all(burst.as_bytes()).expect("writes");
            s
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));
    handle.store(true, Ordering::SeqCst);
    let stats = runner
        .join()
        .expect("server thread")
        .expect("graceful drain");
    assert_eq!(
        stats.requests,
        (DRAIN_CLIENTS * DRAIN_DEPTH) as u64,
        "drain accounting drifted"
    );
    for s in &mut conns {
        let mut carry = Vec::new();
        for _ in 0..DRAIN_DEPTH {
            read_one_response(s, &mut carry);
        }
    }
    println!(
        "serve_loadgen/drain-smoke: {} pipelined requests all served and counted across drain",
        DRAIN_CLIENTS * DRAIN_DEPTH
    );
}

/// Live hot-swap stress: pipelined load over a `--live` server while day
/// deltas are force-ingested one after another. Asserts the swap path never
/// produces a 5xx or a reset, and reports per-swap latency percentiles.
fn run_swap_storm(smoke: bool) {
    const STORM_CLIENTS: usize = 4;
    const STORM_DEPTH: usize = 8;

    // Tiny world: rebuilds are milliseconds, so the storm exercises many
    // swaps rather than waiting on study construction.
    let config = WorldConfig::tiny(BENCH_SEED);
    let window = config.days.len();
    let base_days = if smoke { window - 2 } else { 2 };
    let n_swaps = window - base_days;
    let workers = config.effective_workers();
    // topple-lint: allow(unwrap): bench; a broken fixture must abort the run
    let world = World::generate(config.clone()).expect("world");
    let identity = DeltaIdentity {
        seed: world.config.seed,
        n_sites: world.config.n_sites as u64,
        n_clients: world.config.n_clients as u64,
        scale: "tiny".to_owned(),
    };
    let mut scratch = DayScratch::new(&world);
    let deltas: Vec<Vec<u8>> = (base_days..window)
        .map(|day| {
            let observed = scratch.observe_day(&world, day);
            Delta::new(identity.clone(), observed)
                .expect("delta encodes")
                .to_bytes()
        })
        .collect();
    let shards = topple_core::observe_day_shards(&world, base_days, workers);
    let study = topple_core::Study::from_shards(world, shards).expect("base study");
    let mut paths = rank_paths(&study);
    paths.push("/v1/snapshot".to_owned());
    paths.push("/health".to_owned());
    let bytes = encode_study(&study, "tiny", &[]);

    let qs = QuerySnapshot::new(Snapshot::from_bytes(&bytes).expect("snapshot decodes"));
    let store = Arc::new(LiveStore::new(
        qs,
        window as u32,
        Arc::new(Metrics::new()),
        Arc::new(Lru::new(64)),
    ));
    let server =
        Arc::new(Server::bind_live("127.0.0.1:0", Arc::clone(&store), SHARDS).expect("binds"));
    let addr = server.local_addr().expect("bound addr");
    let handle = server.handle();
    let runner = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };
    let engine = LiveEngine::new(Arc::clone(&store), config, workers)
        .spawn()
        .expect("engine spawns");

    let stop = AtomicBool::new(false);
    let (served, swap_us) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..STORM_CLIENTS)
            .map(|client| {
                let (stop, paths) = (&stop, &paths);
                scope.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connects");
                    stream.set_nodelay(true).expect("nodelay");
                    let requests = render_requests(paths);
                    let mut carry = Vec::with_capacity(64 * 1024);
                    let mut in_flight = 0usize;
                    let mut served = 0u64;
                    let mut i = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        while in_flight < STORM_DEPTH {
                            let request = &requests[(client * 7 + i) % requests.len()];
                            stream.write_all(request).expect("writes");
                            i += 1;
                            in_flight += 1;
                        }
                        let status = read_one_status(&mut stream, &mut carry);
                        assert!(status < 500, "5xx under swap storm: {status}");
                        served += 1;
                        in_flight -= 1;
                    }
                    while in_flight > 0 {
                        let status = read_one_status(&mut stream, &mut carry);
                        assert!(status < 500, "5xx under swap storm drain: {status}");
                        served += 1;
                        in_flight -= 1;
                    }
                    served
                })
            })
            .collect();

        // Storm controller: ingest each delta, then watch for its swap.
        // `generation` is the same atomic the HTTP layer stamps into
        // `/v1/snapshot`, so this measures ingest-accepted -> serving.
        let mut swap_us = Vec::with_capacity(n_swaps);
        for (i, delta) in deltas.iter().enumerate() {
            let mut s = TcpStream::connect(addr).expect("connects");
            s.set_nodelay(true).expect("nodelay");
            let begun = Instant::now();
            s.write_all(
                format!(
                    "POST /v1/admin/ingest HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                    delta.len()
                )
                .as_bytes(),
            )
            .expect("writes header");
            s.write_all(delta).expect("writes body");
            let mut reply = Vec::new();
            s.read_to_end(&mut reply).expect("reads ingest reply");
            let status = status_code(&reply);
            assert_eq!(status, 202, "ingest rejected mid-storm: {status}");
            let want = (i + 1) as u64;
            while store.generation() < want {
                std::thread::sleep(Duration::from_micros(200));
            }
            swap_us.push(begun.elapsed().as_micros().min(u64::MAX as u128) as u64);
        }
        stop.store(true, Ordering::Relaxed);
        let served: u64 = clients.into_iter().map(|c| c.join().expect("client")).sum();
        (served, swap_us)
    });

    // Post-storm invariants: every swap landed, nothing poisoned, and the
    // served snapshot is the fully-caught-up generation.
    assert!(store.poisoned().is_none(), "{:?}", store.poisoned());
    assert_eq!(store.generation(), n_swaps as u64);
    let serving = store.current();
    assert!(
        serving.id().ends_with(&format!("-g{n_swaps}")),
        "{}",
        serving.id()
    );
    store.shutdown();
    engine.join().expect("engine joins");
    handle.store(true, Ordering::SeqCst);
    runner
        .join()
        .expect("server thread")
        .expect("graceful drain");

    let mut sorted = swap_us.clone();
    sorted.sort_unstable();
    println!(
        "serve_loadgen/swap-storm: {n_swaps} hot swaps under {STORM_CLIENTS}x{STORM_DEPTH} \
         pipelined load, {served} requests, 0 errors, 0 resets; \
         swap latency p50={}us p99={}us max={}us",
        percentile(&sorted, 50.0),
        percentile(&sorted, 99.0),
        sorted.last().copied().unwrap_or(0),
    );
}

fn main() {
    // `cargo bench -- --test` (CI smoke) pins the run to a handful of
    // requests; `--drain-smoke` runs the accounting check; `--swap-storm`
    // runs the live hot-swap stress; any other criterion-style flags are
    // ignored.
    let smoke = std::env::args().any(|a| a == "--test");
    let drain_smoke = std::env::args().any(|a| a == "--drain-smoke");
    let swap_storm = std::env::args().any(|a| a == "--swap-storm");
    if swap_storm {
        run_swap_storm(smoke);
        return;
    }

    let study = small_study();
    let bytes = encode_study(study, "small", &[]);
    println!(
        "serve_loadgen: snapshot {} bytes, {} domains, {SHARDS} shards, mode={}",
        bytes.len(),
        study.index().table().len(),
        if drain_smoke {
            "drain-smoke"
        } else if smoke {
            "smoke"
        } else {
            "full"
        },
    );

    let ranks = rank_paths(study);
    if drain_smoke {
        run_drain_smoke(&bytes, &ranks);
        return;
    }

    let requests = if smoke { SMOKE_REQUESTS } else { FULL_REQUESTS };
    let pipelined_requests = if smoke {
        SMOKE_REQUESTS
    } else {
        FULL_PIPELINED_REQUESTS
    };

    // Closed-loop sequential: comparable to every earlier baseline.
    run_closed_sequential("rank", &bytes, &ranks, requests);

    // Compare cells: a handful of (a, b, k) combinations so the LRU serves
    // most requests from cache, as a real dashboard would.
    let mut compare_paths = Vec::new();
    for (a, b) in [
        ("tranco", "alexa"),
        ("tranco", "umbrella"),
        ("alexa", "majestic"),
        ("secrank", "trexa"),
        ("crux", "tranco"),
    ] {
        for k in [100usize, 1_000, 10_000] {
            compare_paths.push(format!("/v1/compare?a={a}&b={b}&k={k}"));
        }
    }
    run_closed_sequential("compare", &bytes, &compare_paths, requests);

    // Movement: the widest response body (per-source monthly + daily series).
    let movement_paths: Vec<String> = study
        .tranco
        .entries
        .iter()
        .take(64)
        .map(|e| format!("/v1/movement/{}", e.name))
        .collect();
    run_closed_sequential("movement", &bytes, &movement_paths, requests);

    // Closed-loop pipelined: the throughput headline.
    run_closed_pipelined(
        "rank-pipelined",
        &bytes,
        &ranks,
        pipelined_requests,
        PIPELINE_DEPTH,
    );
    run_closed_pipelined(
        "movement-pipelined",
        &bytes,
        &movement_paths,
        pipelined_requests,
        PIPELINE_DEPTH,
    );

    // Open-loop: fixed arrival rates, latency from scheduled departure.
    if !smoke {
        for rate in OPEN_LOOP_RATES {
            run_open_loop(
                &format!("rank-open-{rate}rps"),
                &bytes,
                &ranks,
                rate,
                OPEN_LOOP_REQUESTS,
            );
        }
    }
}
