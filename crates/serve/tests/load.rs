//! The daemon under pipelined load: a throughput floor on a healthy
//! server, and zero failed requests across live hot swaps.
//!
//! Both checks drive real loopback clients against a multi-shard reactor.
//! The floor is deliberately loose (an unoptimized build clears it several
//! times over) so it catches a pathological stall — a read path that sleeps,
//! a flush that waits for a timeout — rather than a percent-level drift;
//! perfbench's `serve-read` workload is where speed is measured. The swap
//! storm pins the live path's availability contract: a swap never fails,
//! drops or resets a request that was in flight when it landed.

// Test harness: aborting on a broken fixture is the correct failure mode
// (clippy.toml's allow-*-in-tests covers `#[test]` fns but not helpers).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use topple_core::Study;
use topple_serve::lru::Lru;
use topple_serve::metrics::Metrics;
use topple_serve::{
    encode_study, Delta, DeltaIdentity, DrainStats, LiveEngine, LiveStore, QuerySnapshot,
    ServeError, Server, Snapshot,
};
use topple_sim::{World, WorldConfig};
use topple_vantage::DayScratch;

/// Seed of every fixture here (the load generator's world).
const SEED: u64 = 0xBEEF;
/// Reactor shard threads.
const SHARDS: usize = 4;
/// Pipelined-rank throughput every build must clear (req/s).
const FLOOR_RPS: f64 = 10_000.0;

/// Reads one response frame off the front of `carry`, reading more as
/// needed, and returns its status. A reset or an early close fails the test.
fn next_status(s: &mut TcpStream, carry: &mut Vec<u8>) -> u16 {
    let mut buf = [0u8; 16 * 1024];
    loop {
        if let Some(head_end) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&carry[..head_end]).into_owned();
            let status: u16 = head
                .split_whitespace()
                .nth(1)
                .and_then(|c| c.parse().ok())
                .expect("status code");
            let content_len: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .and_then(|v| v.trim().parse().ok())
                .expect("content-length");
            let frame_len = head_end + 4 + content_len;
            if carry.len() >= frame_len {
                carry.drain(..frame_len);
                return status;
            }
        }
        let n = s.read(&mut buf).expect("connection reset mid-response");
        assert!(n > 0, "connection closed mid-response");
        carry.extend_from_slice(&buf[..n]);
    }
}

/// A client with Nagle off (or the delayed-ACK interaction costs ~40 ms
/// per request) whose reads time out, so a response the server never
/// sends fails the test instead of hanging it.
fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connects");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("sets read timeout");
    stream
}

/// Rank probes over the head of Tranco plus one guaranteed miss, as wire
/// bytes.
fn rank_requests(study: &Study) -> Vec<Vec<u8>> {
    study
        .tranco
        .entries
        .iter()
        .take(256)
        .map(|e| e.name.as_str())
        .chain(["absent.example"])
        .map(|name| format!("GET /v1/rank/tranco/{name} HTTP/1.1\r\n\r\n").into_bytes())
        .collect()
}

/// Raises its flag when dropped, panics included.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Starts `server` on its own thread.
fn spawn(server: &Arc<Server>) -> JoinHandle<Result<DrainStats, ServeError>> {
    let server = Arc::clone(server);
    std::thread::spawn(move || server.run())
}

#[test]
fn pipelined_rank_reads_clear_the_throughput_floor_and_drain_exactly() {
    const CLIENTS: usize = 8;
    const REQUESTS: usize = 2_000;
    const DEPTH: usize = 16;

    let study = Study::run(WorldConfig::small(SEED)).expect("small study");
    let requests = rank_requests(&study);
    let bytes = encode_study(&study, "small", &[]);
    let qs = QuerySnapshot::new(Snapshot::from_bytes(&bytes).expect("decodes"));
    let server = Arc::new(Server::bind("127.0.0.1:0", qs, SHARDS).expect("binds"));
    let addr = server.local_addr().expect("addr");
    let handle = server.handle();
    let runner = spawn(&server);

    let begun = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let requests = &requests;
            scope.spawn(move || {
                let mut stream = connect(addr);
                let mut carry = Vec::with_capacity(64 * 1024);
                let mut in_flight = 0;
                for i in 0..REQUESTS {
                    if in_flight == DEPTH {
                        next_status(&mut stream, &mut carry);
                        in_flight -= 1;
                    }
                    // Stagger clients so they do not walk the probes in
                    // lockstep.
                    let request = &requests[(client * 7 + i) % requests.len()];
                    stream.write_all(request).expect("writes");
                    in_flight += 1;
                }
                for _ in 0..in_flight {
                    next_status(&mut stream, &mut carry);
                }
            });
        }
    });
    let elapsed = begun.elapsed();
    handle.store(true, Ordering::SeqCst);
    let stats = runner.join().expect("joins").expect("drains cleanly");

    let total = CLIENTS * REQUESTS;
    assert_eq!(stats.requests, total as u64, "drain accounting drifted");
    let rps = total as f64 / elapsed.as_secs_f64();
    assert!(
        rps >= FLOOR_RPS,
        "pipelined rank fell below the floor: {rps:.0} < {FLOOR_RPS} req/s"
    );
}

#[test]
fn hot_swaps_under_pipelined_load_fail_no_request() {
    const CLIENTS: usize = 4;
    const DEPTH: usize = 8;
    const SWAPS: usize = 2;

    // Tiny world: rebuilds take milliseconds, so the storm exercises the
    // swaps rather than waiting on study construction.
    let config = WorldConfig::tiny(SEED);
    let window = config.days.len();
    let base_days = window - SWAPS;
    let workers = config.effective_workers();
    let world = World::generate(config.clone()).expect("tiny world");
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
    let study = Study::from_shards(world, shards).expect("base study");
    let mut requests = rank_requests(&study);
    for path in ["/v1/snapshot", "/health"] {
        requests.push(format!("GET {path} HTTP/1.1\r\n\r\n").into_bytes());
    }
    let bytes = encode_study(&study, "tiny", &[]);

    let qs = QuerySnapshot::new(Snapshot::from_bytes(&bytes).expect("decodes"));
    let store = Arc::new(LiveStore::new(
        qs,
        window as u32,
        Arc::new(Metrics::new()),
        Arc::new(Lru::new(64)),
    ));
    let server =
        Arc::new(Server::bind_live("127.0.0.1:0", Arc::clone(&store), SHARDS).expect("binds"));
    let addr = server.local_addr().expect("addr");
    let handle = server.handle();
    let runner = spawn(&server);
    let engine = LiveEngine::new(Arc::clone(&store), config, workers)
        .spawn()
        .expect("engine spawns");

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (stop, requests) = (&stop, &requests);
            scope.spawn(move || {
                let mut stream = connect(addr);
                let mut carry = Vec::with_capacity(64 * 1024);
                let mut in_flight = 0;
                let mut i = 0;
                while !stop.load(Ordering::Relaxed) {
                    while in_flight < DEPTH {
                        let request = &requests[(client * 7 + i) % requests.len()];
                        stream.write_all(request).expect("writes");
                        i += 1;
                        in_flight += 1;
                    }
                    // Rotated rank targets may 404; a swap must never 5xx.
                    let status = next_status(&mut stream, &mut carry);
                    assert!(status < 500, "5xx under swap storm: {status}");
                    in_flight -= 1;
                }
                for _ in 0..in_flight {
                    let status = next_status(&mut stream, &mut carry);
                    assert!(status < 500, "5xx as the storm drained: {status}");
                }
            });
        }

        // Stop the clients however the controller below exits, so a failed
        // assertion fails the test instead of hanging the scope's join.
        let _stop = StopOnDrop(&stop);
        // Ingest each delta, then wait for its swap to start serving.
        for (i, delta) in deltas.iter().enumerate() {
            let mut s = connect(addr);
            write!(
                s,
                "POST /v1/admin/ingest HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                delta.len()
            )
            .expect("writes header");
            s.write_all(delta).expect("writes body");
            let mut carry = Vec::new();
            assert_eq!(next_status(&mut s, &mut carry), 202, "ingest rejected");
            let accepted = Instant::now();
            while store.generation() < (i + 1) as u64 {
                assert!(store.poisoned().is_none(), "{:?}", store.poisoned());
                assert!(
                    accepted.elapsed() < Duration::from_secs(60),
                    "swap {} never landed",
                    i + 1
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    });

    // Every swap landed, nothing poisoned, and the caught-up generation
    // is the one serving.
    assert!(store.poisoned().is_none(), "{:?}", store.poisoned());
    assert_eq!(store.generation(), SWAPS as u64);
    let serving = store.current();
    assert!(
        serving.id().ends_with(&format!("-g{SWAPS}")),
        "{}",
        serving.id()
    );
    store.shutdown();
    engine.join().expect("engine joins");
    handle.store(true, Ordering::SeqCst);
    runner.join().expect("joins").expect("drains cleanly");
}
