//! The daemon: a readiness-based HTTP/1.1 event loop with keep-alive
//! pipelining and graceful drain.
//!
//! Architecture (DESIGN.md §16): [`Server::run`] spawns N shard threads.
//! Each shard owns one [`Epoll`] instance and a slab of edge-triggered
//! non-blocking connections; every shard also registers the shared listener,
//! so whichever shard wakes first accepts — in a loop, until `EWOULDBLOCK`,
//! which is what removes the old accept-poll latency (a burst of connections
//! is drained the moment the backlog becomes readable, not one per poll
//! tick). Accepted connections stay on the accepting shard for life.
//!
//! Per connection the shard runs a small state machine: read until
//! `WouldBlock`, parse every complete pipelined request out of the read
//! buffer in place ([`parse_request`]), append each response to the write
//! buffer ([`write_response_into`]), then flush the whole batch with as few
//! `write` calls as the socket accepts. Responses to N pipelined requests
//! coalesce into one flush. The buffers are reused for the connection's
//! lifetime, response bodies for hot endpoints come pre-rendered from the
//! snapshot's [`HotCache`], and header formatting is heap-free — a warmed
//! keep-alive connection serves requests with zero allocations (pinned by
//! `tests/serve_alloc.rs`).
//!
//! Shutdown is cooperative: flip the [`Server::handle`] flag (the CLI wires
//! it to SIGINT/SIGTERM via [`crate::signal`]) and every shard stops
//! accepting, then drains: requests already pipelined into a read buffer —
//! even ones the client wrote but the server had not yet parsed — are
//! served and counted, the final response on each connection carries
//! `Connection: close`, and buffered bytes are flushed until written or the
//! deadline passes ([`ServeError::DrainTimeout`] reports connections still
//! unflushed).
//!
//! [`Epoll`]: crate::reactor::Epoll
//! [`HotCache`]: crate::query::QuerySnapshot
//! [`parse_request`]: crate::http::parse_request
//! [`write_response_into`]: crate::http::write_response_into

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::ServeError;
use crate::http::{
    buffered_limit, parse_request, route, write_error_into, write_response_into, Parse,
};
use crate::live::LiveStore;
use crate::lru::Lru;
use crate::metrics::Metrics;
use crate::query::QuerySnapshot;
use crate::reactor::{Epoll, EventBuffer, Readiness};

/// Upper bound on descriptors delivered per `epoll_wait`.
const EVENT_CAPACITY: usize = 1_024;
/// `epoll_wait` timeout: bounds how long a parked shard takes to notice the
/// shutdown flag.
const WAIT_TIMEOUT_MS: i32 = 20;
/// Bytes read per `read` call on the stack before landing in the
/// connection's buffer.
const READ_CHUNK: usize = 16 * 1024;
/// Stop parsing further pipelined requests once this many response bytes
/// are buffered; flushing first bounds memory under deep pipelines.
const WBUF_SOFT_LIMIT: usize = 256 * 1024;
/// A connection whose unparsed input exceeds this is flooding without
/// reading responses; fail it closed.
const RBUF_LIMIT: usize = 2 * 1024 * 1024;
/// How long drain retries flushing buffered responses before reporting the
/// connection stuck.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);
/// Compare-cache capacity (response bodies; a few hundred bytes each).
const CACHE_CAPACITY: usize = 256;
/// Slab capacity reserved per shard at startup.
const SLAB_RESERVE: usize = 64;
/// Token under which every shard registers the shared listener.
const LISTENER_TOKEN: u64 = u64::MAX;

/// What a graceful drain accomplished.
#[derive(Debug, Clone, Copy)]
pub struct DrainStats {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Requests served over the server's lifetime.
    pub requests: u64,
}

/// Where the daemon's snapshot comes from: pinned at bind time, or the
/// hot-swappable live store.
enum ServerStore {
    /// One immutable snapshot for the server's whole life.
    Fixed(Arc<QuerySnapshot>),
    /// A [`LiveStore`]: each shard re-reads the published generation per
    /// wakeup and swaps its local `Arc` when a rebuild landed.
    Live(Arc<LiveStore>),
}

/// The query daemon, bound and ready to run.
pub struct Server {
    listener: TcpListener,
    store: ServerStore,
    metrics: Arc<Metrics>,
    cache: Arc<Lru>,
    shards: usize,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) with `shards`
    /// reactor threads (clamped to at least 1).
    pub fn bind(addr: &str, snapshot: QuerySnapshot, shards: usize) -> Result<Server, ServeError> {
        let listener = Server::bind_listener(addr)?;
        Ok(Server {
            listener,
            store: ServerStore::Fixed(Arc::new(snapshot)),
            metrics: Arc::new(Metrics::new()),
            cache: Arc::new(Lru::new(CACHE_CAPACITY)),
            shards: shards.max(1),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// Binds a live daemon over `store`: `POST /v1/admin/ingest` is routed
    /// to the store and every shard follows its hot-swaps. The server
    /// shares the store's metrics and compare cache, so `/v1/metrics`
    /// reports swaps and the cache is cleared with each one.
    pub fn bind_live(
        addr: &str,
        store: Arc<LiveStore>,
        shards: usize,
    ) -> Result<Server, ServeError> {
        let listener = Server::bind_listener(addr)?;
        Ok(Server {
            listener,
            metrics: store.metrics(),
            cache: store.cache(),
            store: ServerStore::Live(store),
            shards: shards.max(1),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    fn bind_listener(addr: &str) -> Result<TcpListener, ServeError> {
        TcpListener::bind(addr).map_err(|source| ServeError::Bind {
            addr: addr.to_owned(),
            source,
        })
    }

    /// The actually-bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        self.listener.local_addr().map_err(ServeError::Listener)
    }

    /// The shared shutdown flag: store `true` (from any thread or a signal
    /// handler) and every shard begins a graceful drain.
    pub fn handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// The snapshot being served right now (for a live server, the current
    /// generation at the time of the call).
    pub fn snapshot(&self) -> Arc<QuerySnapshot> {
        match &self.store {
            ServerStore::Fixed(s) => Arc::clone(s),
            ServerStore::Live(live) => live.current(),
        }
    }

    /// The live store, when this daemon was bound with [`Server::bind_live`].
    fn live(&self) -> Option<&LiveStore> {
        match &self.store {
            ServerStore::Fixed(_) => None,
            ServerStore::Live(live) => Some(live),
        }
    }

    /// Runs the shard event loops until the shutdown flag flips, then
    /// drains. Blocks the calling thread for the server's whole life.
    pub fn run(&self) -> Result<DrainStats, ServeError> {
        self.listener
            .set_nonblocking(true)
            .map_err(ServeError::Listener)?;
        let connections = AtomicU64::new(0);
        let requests = AtomicU64::new(0);

        let shard_results: Vec<Result<usize, ServeError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.shards)
                .map(|_| scope.spawn(|| self.shard_loop(&connections, &requests)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(ServeError::Reactor(io::Error::other("shard panicked")))
                    })
                })
                .collect()
        });

        let mut stuck_connections = 0usize;
        for result in shard_results {
            stuck_connections += result?;
        }
        if stuck_connections > 0 {
            return Err(ServeError::DrainTimeout { stuck_connections });
        }
        Ok(DrainStats {
            connections: connections.load(Ordering::Relaxed),
            requests: requests.load(Ordering::Relaxed),
        })
    }

    /// One shard: an epoll instance, a connection slab, and the event loop.
    /// Returns the number of connections left unflushed at drain deadline.
    fn shard_loop(
        &self,
        connections: &AtomicU64,
        requests: &AtomicU64,
    ) -> Result<usize, ServeError> {
        let epoll = Epoll::new().map_err(ServeError::Reactor)?;
        epoll
            .register_read(self.listener.as_raw_fd(), LISTENER_TOKEN)
            .map_err(ServeError::Reactor)?;
        let mut events = EventBuffer::with_capacity(EVENT_CAPACITY);
        let mut shard = Shard {
            server: self,
            epoll,
            slab: Vec::with_capacity(SLAB_RESERVE),
            free: Vec::with_capacity(SLAB_RESERVE),
            connections,
            requests,
            current: self.snapshot(),
            seen_generation: self.live().map_or(0, LiveStore::generation),
        };

        while !self.shutdown.load(Ordering::SeqCst) {
            let n = shard
                .server
                .wait(&shard.epoll, &mut events)
                .map_err(ServeError::Reactor)?;
            // Follow hot-swaps between event batches: one atomic load when
            // nothing changed, an Arc clone when a rebuild landed. Requests
            // parsed in this batch all serve from the same snapshot.
            shard.refresh();
            if n == 0 {
                continue;
            }
            self.metrics.record_wakeup();
            for ev in events.iter() {
                shard.dispatch(ev);
            }
        }

        Ok(shard.drain())
    }

    fn wait(&self, epoll: &Epoll, events: &mut EventBuffer) -> io::Result<usize> {
        epoll.wait(events, WAIT_TIMEOUT_MS)
    }
}

/// One connection's state: the socket plus its reusable buffers.
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet parsed into requests.
    rbuf: Vec<u8>,
    /// Response bytes not yet written; `wpos` marks the written prefix.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Close once `wbuf` is fully flushed (Connection: close, a 400, drain).
    close_after_flush: bool,
    /// The peer will send no more bytes (EOF observed).
    peer_eof: bool,
    /// Requests served on this connection (feeds the reuse metric).
    served: u64,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::with_capacity(4 * 1024),
            wbuf: Vec::with_capacity(16 * 1024),
            wpos: 0,
            close_after_flush: false,
            peer_eof: false,
            served: 0,
        }
    }

    fn has_pending_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }
}

/// What a read pass learned about the connection.
enum Fill {
    /// Socket drained to `WouldBlock` (possibly after an EOF).
    Drained,
    /// Unrecoverable socket error (reset, torn connection): close it.
    Broken,
}

/// Per-thread reactor state: the epoll instance plus the connection slab.
struct Shard<'a> {
    server: &'a Server,
    epoll: Epoll,
    slab: Vec<Option<Conn>>,
    free: Vec<usize>,
    connections: &'a AtomicU64,
    requests: &'a AtomicU64,
    /// The snapshot this shard serves from. For a live server it trails
    /// [`LiveStore::generation`] by at most one event batch; for a fixed
    /// server it never changes.
    current: Arc<QuerySnapshot>,
    /// The generation `current` was cloned at.
    seen_generation: u64,
}

impl Shard<'_> {
    /// The swap-follow fast path: one atomic generation load per event
    /// batch; only when a rebuild landed does the shard take the store
    /// lock and bump an `Arc`. No allocation either way, so readers stay
    /// allocation-free across hot-swaps.
    fn refresh(&mut self) {
        // topple-lint: hot-path-begin
        if let Some(live) = self.server.live() {
            let generation = live.generation();
            if generation != self.seen_generation {
                self.current = live.current();
                self.seen_generation = generation;
            }
        }
        // topple-lint: hot-path-end
    }
    /// Routes one readiness event to its handler.
    fn dispatch(&mut self, ev: Readiness) {
        if ev.token == LISTENER_TOKEN {
            self.accept_burst();
            return;
        }
        let slot = ev.token as usize;
        // Stale tokens (connection closed earlier in this batch) miss here.
        let Some(conn) = self.slab.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if ev.closed {
            self.close(slot);
            return;
        }
        if ev.readable {
            if let Fill::Broken = fill(conn) {
                self.close(slot);
                return;
            }
        }
        self.pump(slot);
    }

    /// Accepts until the backlog is empty — never one-per-wakeup, so a
    /// connection burst incurs no poll-interval queueing.
    fn accept_burst(&mut self) {
        loop {
            match self.server.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue; // dead on arrival; drop it
                    }
                    let _ = stream.set_nodelay(true);
                    self.connections.fetch_add(1, Ordering::Relaxed);
                    self.server.metrics.record_accept();
                    let fd = stream.as_raw_fd();
                    let slot = match self.free.pop() {
                        Some(s) => s,
                        None => {
                            self.slab.push(None);
                            self.slab.len() - 1
                        }
                    };
                    if self.epoll.register(fd, slot as u64).is_err() {
                        self.free.push(slot);
                        continue; // conn dropped; client sees a reset
                    }
                    self.slab[slot] = Some(Conn::new(stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failure (e.g. aborted handshake): the
                // listener stays registered; the next readiness retries.
                Err(_) => break,
            }
        }
    }

    /// Parses and responds to buffered requests, flushing between batches,
    /// until no further progress is possible; closes the connection when
    /// its protocol life is over.
    fn pump(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.slab.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            let responses = self
                .server
                .process_buffered(conn, self.requests, &self.current);
            let flushed_clean = match flush(conn) {
                Ok(()) => !conn.has_pending_write(),
                Err(_) => {
                    self.close(slot);
                    return;
                }
            };
            if conn.close_after_flush && flushed_clean {
                self.close(slot);
                return;
            }
            if conn.peer_eof && flushed_clean && !has_complete_request(&conn.rbuf) {
                // Peer is done sending, everything owed is written: the
                // keep-alive conversation is over.
                self.close(slot);
                return;
            }
            // Another round only if this one both produced responses and
            // fully flushed them (i.e. the soft limit interrupted parsing).
            if responses == 0 || !flushed_clean {
                return;
            }
            if !has_complete_request(self.slab[slot].as_ref().map_or(&[][..], |c| &c.rbuf)) {
                return;
            }
        }
    }

    /// Releases a connection: the socket drop closes the fd, which also
    /// removes it from the epoll interest set.
    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.slab.get_mut(slot).and_then(Option::take) {
            drop(conn);
            self.free.push(slot);
        }
    }

    /// Graceful drain: serve every request already pipelined into a read
    /// buffer (clients that wrote before the signal landed get all their
    /// responses, the last marked `Connection: close`), then flush until
    /// done or deadline. Returns connections still unflushed.
    fn drain(&mut self) -> usize {
        // topple-lint: allow(wall-clock): graceful-drain deadline; timing only, results unaffected
        let deadline = Instant::now() + DRAIN_DEADLINE;
        let mut stuck = 0usize;
        for slot in 0..self.slab.len() {
            let Some(conn) = self.slab[slot].as_mut() else {
                continue;
            };
            // Pick up bytes that arrived since the last readiness event:
            // they may hold complete, unserved pipelined requests.
            let _ = fill(conn);
            loop {
                let responses = self
                    .server
                    .process_buffered(conn, self.requests, &self.current);
                flush_blocking(conn, deadline);
                if responses == 0 || conn.has_pending_write() {
                    break;
                }
            }
            if conn.has_pending_write() {
                stuck += 1;
            }
            self.slab[slot] = None;
        }
        stuck
    }
}

impl Server {
    /// Parses every complete request at the front of `conn.rbuf` (up to the
    /// write-buffer soft limit), appends the responses to `conn.wbuf`, and
    /// compacts the read buffer. Returns responses appended. `snapshot` is
    /// the calling shard's current snapshot — the whole batch serves from
    /// it, so a hot-swap mid-buffer never mixes generations within a batch.
    fn process_buffered(
        &self,
        conn: &mut Conn,
        requests: &AtomicU64,
        snapshot: &QuerySnapshot,
    ) -> u64 {
        // topple-lint: hot-path-begin
        // Draining: serve everything already buffered, then close. The
        // *last* buffered response carries `Connection: close`; earlier
        // pipelined ones keep their requested semantics so the client reads
        // a well-formed sequence.
        let draining = self.shutdown.load(Ordering::SeqCst);
        let remaining = if draining {
            count_complete_requests(&conn.rbuf)
        } else {
            0
        };
        let mut consumed = 0usize;
        let mut responses = 0u64;
        while !conn.close_after_flush {
            match parse_request(&conn.rbuf[consumed..]) {
                Parse::Complete(request, n) => {
                    let timer = self.metrics.start();
                    let last_of_drain = draining && responses + 1 >= remaining;
                    let keep = request.keep_alive && !last_of_drain;
                    let routed = route(snapshot, &self.metrics, &self.cache, self.live(), &request);
                    write_response_into(
                        &mut conn.wbuf,
                        routed.status,
                        routed.body.as_bytes(),
                        keep,
                    );
                    self.metrics.record(routed.endpoint, routed.status, timer);
                    requests.fetch_add(1, Ordering::Relaxed);
                    conn.served += 1;
                    if conn.served == 2 {
                        self.metrics.record_reuse();
                    }
                    responses += 1;
                    consumed += n;
                    if !keep {
                        // Pipelined bytes after a `Connection: close` request
                        // are a protocol error; discard them.
                        consumed = conn.rbuf.len();
                        conn.close_after_flush = true;
                        break;
                    }
                    if conn.wbuf.len() - conn.wpos >= WBUF_SOFT_LIMIT {
                        break; // flush before parsing deeper
                    }
                }
                Parse::Partial => {
                    let limit = buffered_limit(&conn.rbuf[consumed..], RBUF_LIMIT);
                    if conn.rbuf.len() - consumed > limit {
                        let timer = self.metrics.start();
                        write_error_into(&mut conn.wbuf, 400, "request too large", false);
                        self.metrics
                            .record(crate::metrics::Endpoint::Other, 400, timer);
                        responses += 1;
                        consumed = conn.rbuf.len();
                        conn.close_after_flush = true;
                    }
                    break;
                }
                Parse::Bad(message) => {
                    // Fail closed: one 400 naming the violation, then close.
                    let timer = self.metrics.start();
                    write_error_into(&mut conn.wbuf, 400, message, false);
                    self.metrics
                        .record(crate::metrics::Endpoint::Other, 400, timer);
                    responses += 1;
                    consumed = conn.rbuf.len();
                    conn.close_after_flush = true;
                    break;
                }
            }
        }
        if consumed > 0 {
            let len = conn.rbuf.len();
            conn.rbuf.copy_within(consumed.., 0);
            conn.rbuf.truncate(len - consumed);
        }
        if responses > 0 {
            self.metrics.record_flush(responses);
        }
        responses
        // topple-lint: hot-path-end
    }
}

/// Reads until `WouldBlock`/EOF, appending to the connection's read buffer.
fn fill(conn: &mut Conn) -> Fill {
    // topple-lint: hot-path-begin
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.peer_eof = true;
                return Fill::Drained;
            }
            Ok(n) => {
                conn.rbuf.extend_from_slice(&chunk[..n]);
                if conn.rbuf.len() > buffered_limit(&conn.rbuf, RBUF_LIMIT) + READ_CHUNK {
                    // Flooding past every processing bound: stop reading;
                    // process_buffered fails the connection closed.
                    return Fill::Drained;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Fill::Drained,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Fill::Broken,
        }
    }
    // topple-lint: hot-path-end
}

/// Writes pending response bytes until done or `WouldBlock` (the next
/// writable edge resumes). `Err` means the connection is broken.
fn flush(conn: &mut Conn) -> io::Result<()> {
    // topple-lint: hot-path-begin
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero)),
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    conn.wbuf.clear();
    conn.wpos = 0;
    Ok(())
    // topple-lint: hot-path-end
}

/// Drain-time flush: retry `WouldBlock` with short sleeps until the bytes
/// are out or the deadline passes.
fn flush_blocking(conn: &mut Conn, deadline: Instant) {
    loop {
        match flush(conn) {
            Ok(()) if !conn.has_pending_write() => return,
            Ok(()) => {
                // topple-lint: allow(wall-clock): graceful-drain deadline; timing only, results unaffected
                if Instant::now() >= deadline {
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => {
                // Peer gone: nothing left to deliver.
                conn.wbuf.clear();
                conn.wpos = 0;
                return;
            }
        }
    }
}

/// True when the buffer's front holds at least one complete request.
fn has_complete_request(buf: &[u8]) -> bool {
    matches!(parse_request(buf), Parse::Complete(..) | Parse::Bad(_))
}

/// How many complete requests sit back-to-back at the buffer's front.
fn count_complete_requests(buf: &[u8]) -> u64 {
    let mut at = 0usize;
    let mut count = 0u64;
    while let Parse::Complete(_, n) = parse_request(&buf[at..]) {
        at += n;
        count += 1;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{encode_study, Snapshot};
    use topple_core::Study;
    use topple_sim::WorldConfig;

    fn tiny_server(shards: usize) -> Server {
        let study = Study::run(WorldConfig::tiny(3)).expect("tiny study");
        let bytes = encode_study(&study, "tiny", &[]);
        let qs = QuerySnapshot::new(Snapshot::from_bytes(&bytes).expect("decodes"));
        Server::bind("127.0.0.1:0", qs, shards).expect("binds")
    }

    /// Consumes exactly one response (headers + Content-Length body) off a
    /// keep-alive connection. `carry` holds bytes read past the frame (a
    /// pipelined server coalesces responses, so one `read` may return
    /// several) and must be reused across calls on the same stream.
    fn read_one_response(s: &mut TcpStream, carry: &mut Vec<u8>) -> String {
        let mut buf = [0u8; 2048];
        loop {
            let text = String::from_utf8_lossy(carry).into_owned();
            if let Some(head_end) = text.find("\r\n\r\n") {
                let content_len: usize = text
                    .lines()
                    .find_map(|l| l.strip_prefix("Content-Length: "))
                    .and_then(|v| v.trim().parse().ok())
                    .expect("content-length");
                let frame_len = head_end + 4 + content_len;
                if carry.len() >= frame_len {
                    let response = String::from_utf8_lossy(&carry[..frame_len]).into_owned();
                    carry.drain(..frame_len);
                    return response;
                }
            }
            let n = s.read(&mut buf).expect("reads");
            assert!(n > 0, "connection closed mid-response");
            carry.extend_from_slice(&buf[..n]);
        }
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut s = TcpStream::connect(addr).expect("connects");
        write!(s, "GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").expect("writes");
        let mut raw = String::new();
        s.read_to_string(&mut raw).expect("reads");
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .expect("status");
        let body = raw.split("\r\n\r\n").nth(1).unwrap_or("").to_owned();
        (status, body)
    }

    #[test]
    fn serves_and_drains_gracefully() {
        let server = Arc::new(tiny_server(2));
        let addr = server.local_addr().expect("addr");
        let handle = server.handle();
        let runner = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.run())
        };
        let (status, body) = get(addr, "/health");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""));
        let (status, _) = get(addr, "/v1/metrics");
        assert_eq!(status, 200);
        handle.store(true, Ordering::SeqCst);
        let stats = runner.join().expect("joins").expect("drains");
        assert!(stats.connections >= 2);
        assert!(stats.requests >= 2);
    }

    #[test]
    fn keep_alive_serves_multiple_requests() {
        let server = Arc::new(tiny_server(1));
        let addr = server.local_addr().expect("addr");
        let handle = server.handle();
        let runner = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.run())
        };
        let mut s = TcpStream::connect(addr).expect("connects");
        let mut carry = Vec::new();
        for _ in 0..3 {
            write!(s, "GET /health HTTP/1.1\r\n\r\n").expect("writes");
            let text = read_one_response(&mut s, &mut carry);
            assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
            assert!(text.contains("keep-alive"), "{text}");
        }
        drop(s);
        handle.store(true, Ordering::SeqCst);
        let stats = runner.join().expect("joins").expect("drains");
        assert_eq!(stats.requests, 3);
    }

    #[test]
    fn pipelined_requests_coalesce_into_ordered_responses() {
        let server = Arc::new(tiny_server(1));
        let addr = server.local_addr().expect("addr");
        let handle = server.handle();
        let runner = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.run())
        };
        let mut s = TcpStream::connect(addr).expect("connects");
        // Three requests in one write; responses must come back in order.
        let burst = "GET /health HTTP/1.1\r\n\r\n\
                     GET /nope HTTP/1.1\r\n\r\n\
                     GET /health HTTP/1.1\r\n\r\n";
        s.write_all(burst.as_bytes()).expect("writes");
        let mut carry = Vec::new();
        let first = read_one_response(&mut s, &mut carry);
        let second = read_one_response(&mut s, &mut carry);
        let third = read_one_response(&mut s, &mut carry);
        assert!(first.starts_with("HTTP/1.1 200 OK"), "{first}");
        assert!(second.starts_with("HTTP/1.1 404 Not Found"), "{second}");
        assert!(third.starts_with("HTTP/1.1 200 OK"), "{third}");
        drop(s);
        handle.store(true, Ordering::SeqCst);
        let stats = runner.join().expect("joins").expect("drains");
        assert_eq!(stats.requests, 3);
    }

    #[test]
    fn oversized_request_line_is_rejected_with_400() {
        let server = Arc::new(tiny_server(1));
        let addr = server.local_addr().expect("addr");
        let handle = server.handle();
        let runner = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.run())
        };
        let mut s = TcpStream::connect(addr).expect("connects");
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(32 * 1024));
        s.write_all(long.as_bytes()).expect("writes");
        let mut raw = String::new();
        s.read_to_string(&mut raw).expect("reads");
        assert!(raw.starts_with("HTTP/1.1 400 Bad Request"), "{raw}");
        assert!(raw.contains("Connection: close"), "{raw}");
        handle.store(true, Ordering::SeqCst);
        runner.join().expect("joins").expect("drains");
    }

    fn post(addr: SocketAddr, path: &str, body: &[u8]) -> (u16, String) {
        let mut s = TcpStream::connect(addr).expect("connects");
        write!(
            s,
            "POST {path} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .expect("writes");
        s.write_all(body).expect("writes body");
        let mut raw = String::new();
        s.read_to_string(&mut raw).expect("reads");
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .expect("status");
        let reply = raw.split("\r\n\r\n").nth(1).unwrap_or("").to_owned();
        (status, reply)
    }

    /// End-to-end hot swap: boot a live server on a 5-day base, ingest day 5
    /// over HTTP, and watch the same process — same sockets, no restart —
    /// start serving the 6-day snapshot. Both before and after the swap the
    /// served `/v1/rank` body is byte-identical to what the offline query
    /// layer renders from a cold build of the same days.
    #[test]
    fn live_ingest_hot_swaps_without_restart() {
        use crate::delta::{Delta, DeltaIdentity};
        use crate::live::{LiveEngine, LiveStore};
        use topple_lists::ListSource;
        use topple_sim::World;
        use topple_vantage::DayScratch;

        const SEED: u64 = 11;
        let world = || World::generate(WorldConfig::tiny(SEED)).expect("world");
        let snapshot_of = |days: usize| {
            let w = world();
            let shards = topple_core::observe_day_shards(&w, days, 1);
            let study = Study::from_shards(w, shards).expect("study");
            Snapshot::from_bytes(&encode_study(&study, "tiny", &[])).expect("decodes")
        };

        let w = world();
        let window = w.config.days.len() as u32;
        let base = QuerySnapshot::new(snapshot_of(5));
        let delta = Delta::new(
            DeltaIdentity {
                seed: SEED,
                n_sites: w.config.n_sites as u64,
                n_clients: w.config.n_clients as u64,
                scale: "tiny".to_owned(),
            },
            DayScratch::new(&w).observe_day(&w, 5),
        )
        .expect("delta");
        let delta_id = delta.id();

        let store = Arc::new(LiveStore::new(
            base,
            window,
            Arc::new(Metrics::new()),
            Arc::new(Lru::new(8)),
        ));
        let server =
            Arc::new(Server::bind_live("127.0.0.1:0", Arc::clone(&store), 2).expect("binds"));
        let addr = server.local_addr().expect("addr");
        let handle = server.handle();
        let runner = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.run())
        };
        let engine = LiveEngine::new(Arc::clone(&store), WorldConfig::tiny(SEED), 1)
            .spawn()
            .expect("engine spawns");

        // Pre-swap: generation 0, and the served rank body matches a cold
        // offline build of the same five days byte-for-byte.
        let offline0 = QuerySnapshot::new(snapshot_of(5));
        let top = offline0.snapshot().index.monthly(ListSource::Tranco).ids[0];
        let domain = offline0
            .snapshot()
            .index
            .table()
            .name(top)
            .as_str()
            .to_owned();
        let (status, body) = get(addr, "/v1/snapshot");
        assert_eq!(status, 200);
        assert!(body.contains("\"generation\":0"), "{body}");
        let (status, body) = get(addr, &format!("/v1/rank/tranco/{domain}"));
        assert_eq!(status, 200);
        assert_eq!(body, offline0.rank("tranco", &domain).body);

        // Ingest day 5 over the wire; the swap lands asynchronously.
        let (status, reply) = post(addr, "/v1/admin/ingest", &delta.to_bytes());
        assert_eq!(status, 202, "{reply}");
        assert!(reply.contains(&delta_id), "{reply}");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let (status, body) = get(addr, "/v1/snapshot");
            assert_eq!(status, 200);
            if body.contains("\"generation\":1") {
                assert!(body.contains(&delta_id), "{body}");
                break;
            }
            assert!(Instant::now() < deadline, "swap never landed: {body}");
            std::thread::sleep(Duration::from_millis(20));
        }

        // Post-swap: same process now serves the 6-day index, byte-identical
        // to the offline query layer stamped with the same generation.
        let offline1 = QuerySnapshot::with_generation(snapshot_of(6), 1, &[delta_id]);
        let (status, body) = get(addr, &format!("/v1/rank/tranco/{domain}"));
        assert_eq!(status, 200);
        assert_eq!(body, offline1.rank("tranco", &domain).body);

        // Re-ingesting the same day is a conflict, not a crash.
        let (status, reply) = post(addr, "/v1/admin/ingest", &delta.to_bytes());
        assert_eq!(status, 400, "{reply}");

        assert!(store.poisoned().is_none(), "{:?}", store.poisoned());
        store.shutdown();
        engine.join().expect("engine joins");
        handle.store(true, Ordering::SeqCst);
        runner.join().expect("joins").expect("drains");
    }
}
