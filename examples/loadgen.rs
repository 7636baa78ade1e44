//! Loopback load generator for the query daemon: closed-loop sequential,
//! closed-loop pipelined and open-loop load against a multi-shard reactor.
//!
//! ```sh
//! cargo run --release --example loadgen          # full run
//! cargo run --release --example loadgen -- 5     # 5 requests per client
//! ```
//!
//! The only argument is the request count per client; without it each mode
//! runs its full count. Every scenario boots a fresh server over a
//! small-scale snapshot and, after a graceful drain, checks that the server
//! counted exactly the requests sent. Three load models:
//!
//! - **Closed-loop sequential**: each client sends its next request only
//!   after fully reading the previous response, one request in flight per
//!   connection.
//! - **Closed-loop pipelined**: each client keeps `PIPELINE_DEPTH` requests
//!   in flight on one keep-alive connection, so the reactor drains several
//!   per read and coalesces their responses into one flush. This measures
//!   the per-request cost with syscalls amortised over the batch.
//! - **Open-loop**: requests depart on a fixed schedule whether or not
//!   earlier ones have completed, and each latency is measured from the
//!   request's *scheduled* departure, so a slow server cannot throttle its
//!   own load (no coordinated omission).

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use toppling::core::Study;
use toppling::serve::{encode_study, QuerySnapshot, Server, Snapshot};
use toppling::sim::WorldConfig;

/// Seed of the snapshot under load.
const SEED: u64 = 0xBEEF;
/// Clients per scenario (each owns one keep-alive connection).
const CLIENTS: usize = 8;
/// Reactor shard threads.
const SHARDS: usize = 4;
/// Requests per client in a full closed-loop sequential run.
const FULL_REQUESTS: usize = 4_000;
/// Requests per client in a full pipelined run (cheap enough per request
/// that a bigger count stabilises the number).
const FULL_PIPELINED_REQUESTS: usize = 40_000;
/// Requests per client per rate in a full open-loop run.
const FULL_OPEN_LOOP_REQUESTS: usize = 10_000;
/// In-flight requests per connection in pipelined mode. Sized so the
/// aggregate in-flight count (CLIENTS x depth) keeps p99 under 1ms on one
/// core while still amortising syscalls: queueing delay is roughly
/// in-flight x per-request cost.
const PIPELINE_DEPTH: usize = 16;
/// Aggregate arrival rates (req/s) of the open-loop runs.
const OPEN_LOOP_RATES: [u64; 3] = [20_000, 60_000, 120_000];

/// Reads exactly one HTTP response (headers + `Content-Length` body) off a
/// keep-alive stream, leaving any over-read (pipelined) bytes in `carry`.
fn read_one_response(stream: &mut TcpStream, carry: &mut Vec<u8>) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        if let Some(head_end) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&carry[..head_end]);
            let content_len: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0);
            let frame_len = head_end + 4 + content_len;
            if carry.len() >= frame_len {
                carry.drain(..frame_len);
                return;
            }
        }
        let n = stream.read(&mut buf).expect("server closed mid-response");
        assert!(n > 0, "server closed mid-response");
        carry.extend_from_slice(&buf[..n]);
    }
}

/// Sorted-slice percentile (nearest-rank).
fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted_us.len() as f64).ceil() as usize;
    sorted_us[rank.saturating_sub(1).min(sorted_us.len() - 1)]
}

fn micros(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

/// Boots a fresh server on an ephemeral loopback port, runs every client
/// against it, drains, and checks the drain counted exactly the requests
/// sent. Prints the scenario's throughput and latency percentiles.
fn run_scenario(
    name: &str,
    snapshot: &[u8],
    requests_per_client: usize,
    client: impl Fn(usize, SocketAddr) -> Vec<u64> + Sync,
) {
    let qs = QuerySnapshot::new(Snapshot::from_bytes(snapshot).expect("snapshot decodes"));
    let server = Arc::new(Server::bind("127.0.0.1:0", qs, SHARDS).expect("binds loopback"));
    let addr = server.local_addr().expect("bound addr");
    let handle = server.handle();
    let runner = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };

    let begun = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = &client;
                scope.spawn(move || client(c, addr))
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    });
    let elapsed = begun.elapsed();

    handle.store(true, Ordering::SeqCst);
    let stats = runner
        .join()
        .expect("server thread")
        .expect("graceful drain");
    assert_eq!(
        stats.requests,
        (CLIENTS * requests_per_client) as u64,
        "drain accounting drifted"
    );

    latencies.sort_unstable();
    let total = latencies.len();
    println!(
        "serve_loadgen/{name}: {total} reqs over {CLIENTS} clients in {:.2}s -> {:.0} req/s, \
         p50={}us p99={}us p999={}us",
        elapsed.as_secs_f64(),
        total as f64 / elapsed.as_secs_f64(),
        percentile(&latencies, 50.0),
        percentile(&latencies, 99.0),
        percentile(&latencies, 99.9),
    );
}

/// Prebuilds the wire bytes for each path.
fn render_requests(paths: &[String]) -> Vec<Vec<u8>> {
    paths
        .iter()
        .map(|p| format!("GET {p} HTTP/1.1\r\n\r\n").into_bytes())
        .collect()
}

/// Connects one client with Nagle off: otherwise the delayed-ACK
/// interaction adds ~40ms per request and the run measures TCP, not the
/// server.
fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connects");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

/// Closed-loop sequential: one request in flight per connection; latency is
/// send-to-last-body-byte.
fn run_closed_sequential(name: &str, snapshot: &[u8], paths: &[String], requests: usize) {
    run_scenario(name, snapshot, requests, |client, addr| {
        let mut stream = connect(addr);
        let wire = render_requests(paths);
        let mut carry = Vec::with_capacity(16 * 1024);
        let mut lat = Vec::with_capacity(requests);
        for i in 0..requests {
            // Stagger clients so they do not walk the path list in lockstep.
            let request = &wire[(client * 7 + i) % wire.len()];
            let sent = Instant::now();
            stream.write_all(request).expect("writes");
            read_one_response(&mut stream, &mut carry);
            lat.push(micros(sent.elapsed()));
        }
        lat
    });
}

/// Closed-loop pipelined: keep `PIPELINE_DEPTH` requests in flight per
/// connection; latency is send-to-last-body-byte per request.
fn run_closed_pipelined(name: &str, snapshot: &[u8], paths: &[String], requests: usize) {
    run_scenario(name, snapshot, requests, |client, addr| {
        let mut stream = connect(addr);
        let wire = render_requests(paths);
        let mut carry = Vec::with_capacity(64 * 1024);
        let mut in_flight: VecDeque<Instant> = VecDeque::with_capacity(PIPELINE_DEPTH);
        let mut lat = Vec::with_capacity(requests);
        for i in 0..requests {
            if in_flight.len() == PIPELINE_DEPTH {
                read_one_response(&mut stream, &mut carry);
                let sent = in_flight.pop_front().expect("in-flight");
                lat.push(micros(sent.elapsed()));
            }
            in_flight.push_back(Instant::now());
            stream
                .write_all(&wire[(client * 7 + i) % wire.len()])
                .expect("writes");
        }
        while let Some(sent) = in_flight.pop_front() {
            read_one_response(&mut stream, &mut carry);
            lat.push(micros(sent.elapsed()));
        }
        lat
    });
}

/// Open-loop: requests depart on a fixed schedule (aggregate `rate` req/s
/// split across clients); latency runs from the *scheduled* departure, so
/// server-side queueing is charged to the server, not hidden by a stalled
/// client.
fn run_open_loop(name: &str, snapshot: &[u8], paths: &[String], rate: u64, requests: usize) {
    let interval = Duration::from_nanos(1_000_000_000 * CLIENTS as u64 / rate);
    run_scenario(name, snapshot, requests, |client, addr| {
        let mut writer = connect(addr);
        let mut reader = writer.try_clone().expect("clones stream");
        let wire = render_requests(paths);
        // Request i departs at base + i * interval.
        let base = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..requests {
                    let due = base + interval * i as u32;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    writer
                        .write_all(&wire[(client * 7 + i) % wire.len()])
                        .expect("writes");
                }
            });
            // Responses come back in order on one connection, so the i-th
            // response pairs with the i-th scheduled departure.
            let mut carry = Vec::with_capacity(64 * 1024);
            (0..requests)
                .map(|i| {
                    read_one_response(&mut reader, &mut carry);
                    micros(Instant::now().saturating_duration_since(base + interval * i as u32))
                })
                .collect()
        })
    });
}

fn main() {
    let per_client: Option<usize> = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("usage: loadgen [REQUESTS_PER_CLIENT]"));
    let requests = per_client.unwrap_or(FULL_REQUESTS);
    let pipelined = per_client.unwrap_or(FULL_PIPELINED_REQUESTS);
    let open_loop = per_client.unwrap_or(FULL_OPEN_LOOP_REQUESTS);

    let study = Study::run(WorldConfig::small(SEED)).expect("small study");
    let bytes = encode_study(&study, "small", &[]);
    println!(
        "serve_loadgen: snapshot {} bytes, {} domains, {SHARDS} shards, requests per client \
         {requests} sequential / {pipelined} pipelined / {open_loop} open-loop",
        bytes.len(),
        study.index().table().len(),
    );

    // Rank probes: the head of Tranco plus a guaranteed miss.
    let mut ranks: Vec<String> = study
        .tranco
        .entries
        .iter()
        .take(256)
        .map(|e| format!("/v1/rank/tranco/{}", e.name))
        .collect();
    ranks.push("/v1/rank/tranco/absent.example".to_owned());
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

    run_closed_pipelined("rank-pipelined", &bytes, &ranks, pipelined);
    run_closed_pipelined("movement-pipelined", &bytes, &movement_paths, pipelined);

    for rate in OPEN_LOOP_RATES {
        run_open_loop(
            &format!("rank-open-{rate}rps"),
            &bytes,
            &ranks,
            rate,
            open_loop,
        );
    }
}
