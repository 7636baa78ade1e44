//! The event-loop rewrite's contract: bytes on the wire are exactly the
//! query layer's renders.
//!
//! The thread-pool server the reactor replaced wrote `Reply.body` strings
//! straight from [`QuerySnapshot`]'s formatting functions, so "byte-identical
//! to the old implementation" and "byte-identical to the query layer" are
//! the same statement. This file pins it from every angle the rewrite
//! touched: shard counts 1 and 4, sequential clients (one request per
//! connection) and pipelined clients (every request in one write, responses
//! coalesced), plus the behavioral guarantees that are new with the
//! reactor — burst accepts without a poll-interval stall, a graceful drain
//! that serves and exactly counts requests that were pipelined but not yet
//! answered when shutdown began, and the edge-triggered read contract
//! (DESIGN.md §16): a request split across writes, a half-closed peer, and
//! a pipelined burst larger than one read chunk are all answered in full.

// Test harness: aborting on a broken fixture is the correct failure mode
// (clippy.toml's allow-*-in-tests covers `#[test]` fns but not helpers).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use topple_core::Study;
use topple_lists::ListSource;
use topple_serve::query::list_url_name;
use topple_serve::snapshot::encode_study;
use topple_serve::{DrainStats, QuerySnapshot, Server, Snapshot};
use topple_sim::WorldConfig;

fn query_snapshot() -> QuerySnapshot {
    let study = Study::run(WorldConfig::tiny(4099)).expect("tiny study");
    let bytes = encode_study(&study, "tiny", &[("note".to_owned(), "n".to_owned())]);
    QuerySnapshot::new(Snapshot::from_bytes(&bytes).expect("decodes"))
}

/// Probe paths paired with the body the query layer renders for each —
/// the ground truth the wire must reproduce byte for byte.
fn probes(qs: &QuerySnapshot) -> Vec<(String, u16, String)> {
    let table = qs.snapshot().index.table();
    let mut out = Vec::new();
    out.push(("/health".to_owned(), qs.health().status, qs.health().body));
    for source in ListSource::ALL {
        let cols = qs.snapshot().index.monthly(source);
        for &id in cols.ids.iter().take(3) {
            let name = table.name(id).as_str().to_owned();
            let list = list_url_name(source);
            let reply = qs.rank(list, &name);
            out.push((format!("/v1/rank/{list}/{name}"), reply.status, reply.body));
            let reply = qs.movement(&name);
            out.push((format!("/v1/movement/{name}"), reply.status, reply.body));
        }
    }
    let miss = qs.rank("tranco", "absent-domain.example");
    out.push((
        "/v1/rank/tranco/absent-domain.example".to_owned(),
        miss.status,
        miss.body,
    ));
    for (a, b, k) in [("alexa", "tranco", "40"), ("crux", "umbrella", "100")] {
        let reply = qs.compare(a, b, k);
        out.push((
            format!("/v1/compare?a={a}&b={b}&k={k}"),
            reply.status,
            reply.body,
        ));
    }
    let reply = qs.artifact("note");
    out.push(("/v1/artifact/note".to_owned(), reply.status, reply.body));
    out
}

fn with_server<T>(qs: QuerySnapshot, shards: usize, f: impl FnOnce(SocketAddr) -> T) -> T {
    let server = Arc::new(Server::bind("127.0.0.1:0", qs, shards).expect("binds"));
    let addr = server.local_addr().expect("addr");
    let handle = server.handle();
    let runner = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run())
    };
    let out = f(addr);
    handle.store(true, Ordering::SeqCst);
    runner.join().expect("joins").expect("drains cleanly");
    out
}

/// Splits one complete response frame off the front of `carry`, reading
/// more bytes as needed; returns (status, body).
fn next_response(s: &mut TcpStream, carry: &mut Vec<u8>) -> (u16, Vec<u8>) {
    let mut buf = [0u8; 4096];
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
                let body = carry[head_end + 4..frame_len].to_vec();
                carry.drain(..frame_len);
                return (status, body);
            }
        }
        let n = s.read(&mut buf).expect("reads");
        assert!(n > 0, "connection closed mid-response");
        carry.extend_from_slice(&buf[..n]);
    }
}

/// One request per connection (`Connection: close`), like the old pool's
/// simplest client.
fn fetch_sequential(addr: SocketAddr, path: &str) -> (u16, Vec<u8>) {
    let mut s = TcpStream::connect(addr).expect("connects");
    write!(s, "GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").expect("writes");
    let mut carry = Vec::new();
    next_response(&mut s, &mut carry)
}

/// Every request in one write over one keep-alive connection; responses
/// read back in order.
fn fetch_pipelined(addr: SocketAddr, paths: &[&str]) -> Vec<(u16, Vec<u8>)> {
    let mut s = TcpStream::connect(addr).expect("connects");
    let mut burst = Vec::new();
    for path in paths {
        burst.extend_from_slice(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes());
    }
    s.write_all(&burst).expect("writes");
    let mut carry = Vec::new();
    paths
        .iter()
        .map(|_| next_response(&mut s, &mut carry))
        .collect()
}

#[test]
fn wire_bodies_match_query_layer_across_shards_and_client_modes() {
    let reference = probes(&query_snapshot());
    let paths: Vec<&str> = reference.iter().map(|(p, _, _)| p.as_str()).collect();
    for shards in [1usize, 4] {
        let (sequential, pipelined) = with_server(query_snapshot(), shards, |addr| {
            let sequential: Vec<(u16, Vec<u8>)> =
                paths.iter().map(|p| fetch_sequential(addr, p)).collect();
            let pipelined = fetch_pipelined(addr, &paths);
            (sequential, pipelined)
        });
        for (i, (path, status, body)) in reference.iter().enumerate() {
            assert_eq!(
                (sequential[i].0, sequential[i].1.as_slice()),
                (*status, body.as_bytes()),
                "{shards} shards, sequential: `{path}` diverged from query layer"
            );
            assert_eq!(
                (pipelined[i].0, pipelined[i].1.as_slice()),
                (*status, body.as_bytes()),
                "{shards} shards, pipelined: `{path}` diverged from query layer"
            );
        }
    }
}

#[test]
fn connection_burst_is_accepted_without_poll_stall() {
    const BURST: usize = 50;
    with_server(query_snapshot(), 1, |addr| {
        // Open the whole burst before sending a single request: the old
        // accept loop parked in a 10ms poll-sleep would stretch this out;
        // the reactor accepts the backlog on one listener-readable edge.
        let mut conns: Vec<TcpStream> = (0..BURST)
            .map(|_| TcpStream::connect(addr).expect("connects"))
            .collect();
        let begun = Instant::now();
        for s in &mut conns {
            write!(s, "GET /health HTTP/1.1\r\nConnection: close\r\n\r\n").expect("writes");
        }
        for s in &mut conns {
            let mut carry = Vec::new();
            let (status, _) = next_response(s, &mut carry);
            assert_eq!(status, 200);
        }
        let elapsed = begun.elapsed();
        // One poll interval per accept would cost BURST * 10ms = 500ms on
        // the old server; the reactor finishes the lot in a few ms. The
        // bound leaves slack for a loaded CI core.
        assert!(
            elapsed < Duration::from_millis(450),
            "burst of {BURST} took {elapsed:?}: accept path is stalling"
        );
    });
}

/// Pipelined requests per client whose responses overflow the loopback
/// buffers while the client is not reading, so the server is still holding
/// unanswered requests when the shutdown flag flips. The requests are
/// `/v1/metrics` reads: at ~1 KiB a body, 16 Ki of them outrun the socket
/// buffers (the send side caps at 4 MiB on Linux) while the request bytes
/// stay well under the server's read-buffer flood limit.
const DRAIN_DEPTH: usize = 16_384;

/// The `"2xx"` counter of a `/v1/metrics` body.
fn served_2xx(metrics_body: &[u8]) -> u64 {
    let text = std::str::from_utf8(metrics_body).expect("utf-8 metrics");
    let at = text.find("\"2xx\":").expect("2xx counter") + 6;
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("2xx count")
}

#[test]
fn drain_serves_and_counts_pipelined_but_unanswered_requests() {
    const CLIENTS: usize = 4;
    for depth in [8usize, 64, DRAIN_DEPTH] {
        let server = Arc::new(Server::bind("127.0.0.1:0", query_snapshot(), 2).expect("binds"));
        let addr = server.local_addr().expect("addr");
        let handle = server.handle();
        let runner = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.run())
        };

        // Each client pipelines `depth` requests in one write, then stops
        // sending and reads nothing until the flag flips: once the
        // responses fill the socket buffers, the server holds the rest of
        // the requests unanswered.
        let conns: Vec<TcpStream> = (0..CLIENTS)
            .map(|_| {
                let mut s = connect(addr);
                let burst = "GET /v1/metrics HTTP/1.1\r\n\r\n".repeat(depth);
                s.write_all(burst.as_bytes()).expect("writes");
                s
            })
            .collect();
        // Give the shards a moment to accept every connection (drain does
        // not accept) and answer what fits, then count what they answered.
        std::thread::sleep(Duration::from_millis(150));
        let (status, metrics) = fetch_sequential(addr, "/v1/metrics");
        assert_eq!(status, 200);
        let answered = served_2xx(&metrics);
        if depth == DRAIN_DEPTH {
            assert!(
                answered < (CLIENTS * depth) as u64,
                "all {answered} requests were answered before the flip; \
                 the drain had nothing to serve (raise DRAIN_DEPTH)"
            );
        }
        handle.store(true, Ordering::SeqCst);

        // Every client reads all `depth` responses — whether answered
        // before the flip or served by the drain — followed by a clean
        // close (EOF, not a reset, nothing truncated). Each reads on its
        // own thread: the drain flushes one connection at a time.
        let readers: Vec<_> = conns
            .into_iter()
            .map(|mut s| {
                std::thread::spawn(move || {
                    let mut carry = Vec::new();
                    for _ in 0..depth {
                        let (status, _) = next_response(&mut s, &mut carry);
                        assert_eq!(status, 200);
                    }
                    assert!(carry.is_empty(), "bytes past the final response: {carry:?}");
                    let mut rest = [0u8; 64];
                    assert_eq!(
                        s.read(&mut rest).expect("reads"),
                        0,
                        "expected EOF after drain at depth {depth}"
                    );
                })
            })
            .collect();
        for reader in readers {
            reader.join().expect("client reads every response");
        }
        let stats: DrainStats = runner.join().expect("joins").expect("drains cleanly");

        // Exact accounting: every pipelined request — answered before or
        // during the drain — is served and counted once, plus the metrics
        // probe on its own connection.
        assert_eq!(stats.connections, CLIENTS as u64 + 1, "depth {depth}");
        assert_eq!(
            stats.requests,
            (CLIENTS * depth) as u64 + 1,
            "depth {depth}"
        );
    }
}

/// The `/health` body the query layer renders for [`query_snapshot`].
fn health_body() -> Vec<u8> {
    query_snapshot().health().body.into_bytes()
}

/// A client whose reads time out, so a response the server never sends
/// fails the test instead of hanging it.
fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connects");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("sets read timeout");
    s
}

#[test]
fn request_split_across_two_writes_is_answered() {
    let want = health_body();
    with_server(query_snapshot(), 1, |addr| {
        let mut s = connect(addr);
        s.set_nodelay(true).expect("nodelay");
        s.write_all(b"GET /hea").expect("writes first half");
        // Long enough that the first half is read and parsed as partial
        // before the rest lands on a fresh readable edge.
        std::thread::sleep(Duration::from_millis(50));
        s.write_all(b"lth HTTP/1.1\r\n\r\n")
            .expect("writes second half");
        let mut carry = Vec::new();
        assert_eq!(next_response(&mut s, &mut carry), (200, want));
    });
}

#[test]
fn half_closed_peer_gets_every_pipelined_response_then_eof() {
    let want = health_body();
    with_server(query_snapshot(), 1, |addr| {
        let mut s = connect(addr);
        s.write_all("GET /health HTTP/1.1\r\n\r\n".repeat(3).as_bytes())
            .expect("writes");
        s.shutdown(Shutdown::Write).expect("half-closes");
        let mut carry = Vec::new();
        for _ in 0..3 {
            assert_eq!(next_response(&mut s, &mut carry), (200, want.clone()));
        }
        assert!(carry.is_empty(), "bytes past the final response: {carry:?}");
        let mut rest = [0u8; 64];
        assert_eq!(s.read(&mut rest).expect("reads"), 0, "expected EOF");
    });
}

#[test]
fn pipelined_burst_past_two_read_chunks_is_answered_in_full() {
    // The server reads in 16 KiB chunks (`READ_CHUNK` in server.rs); the
    // burst must span more than two of them.
    const READ_CHUNK: usize = 16 * 1024;
    const REQUEST: &str = "GET /health HTTP/1.1\r\n\r\n";
    const COUNT: usize = 2 * READ_CHUNK / REQUEST.len() + 64;
    let want = health_body();
    with_server(query_snapshot(), 1, |addr| {
        let mut reader = connect(addr);
        let mut writer = reader.try_clone().expect("clones stream");
        // A second thread writes so neither side's socket buffer can fill
        // while the other waits on it.
        let sender = std::thread::spawn(move || {
            writer
                .write_all(REQUEST.repeat(COUNT).as_bytes())
                .expect("writes burst");
        });
        let mut carry = Vec::new();
        for i in 0..COUNT {
            assert_eq!(
                next_response(&mut reader, &mut carry),
                (200, want.clone()),
                "response {i} of {COUNT}"
            );
        }
        sender.join().expect("sender joins");
    });
}
