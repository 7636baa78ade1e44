//! Minimal HTTP/1.1 parsing, routing, and response writing — incremental
//! and allocation-free on the hot path.
//!
//! The daemon speaks just enough HTTP for its GET endpoints: request line +
//! headers (bounded in count and length), keep-alive by HTTP/1.1 default,
//! `Connection: close` honored both ways, and full pipelining — a read
//! buffer may hold any number of back-to-back requests, each parsed in place
//! by [`parse_request`] without copying a byte. Anything outside that
//! envelope — an oversized line, a malformed request line, too many headers —
//! gets a `400` and a closed connection, never a panic: the socket is the
//! untrusted input here, exactly like snapshot bytes are for the store.
//!
//! Responses are appended to the connection's reusable write buffer by
//! [`write_response_into`]; header rendering formats integers into a stack
//! array, so a warmed keep-alive connection serves hot requests with zero
//! heap allocations (pinned by `crates/serve/tests/serve_alloc.rs`).

use std::sync::Arc;

use crate::live::LiveStore;
use crate::lru::Lru;
use crate::metrics::{Endpoint, Metrics};
use crate::query::{escape, parse_list, QuerySnapshot, MAX_K};

/// Longest accepted request or header line, bytes. Also the body cap for
/// every endpoint except ingest.
pub const MAX_LINE: usize = 8 * 1024;
/// Most headers read before the request is rejected.
pub const MAX_HEADERS: usize = 64;
/// Body cap for `POST /v1/admin/ingest` — a day delta is a serialized
/// [`DayShards`](topple_vantage::DayShards) bundle, megabytes at paper
/// scale, so the GET-sized cap cannot apply.
pub const MAX_INGEST_BODY: usize = 64 * 1024 * 1024;

/// The ingest path, the one target allowed a [`MAX_INGEST_BODY`] body.
const INGEST_PATH: &str = "/v1/admin/ingest";

/// True when the request target names the ingest endpoint (exactly, or with
/// a query string).
fn is_ingest_target(target: &str) -> bool {
    target == INGEST_PATH
        || target
            .strip_prefix(INGEST_PATH)
            .is_some_and(|rest| rest.starts_with('?'))
}

/// How many unparsed bytes a connection may buffer before it is failed
/// closed: requests heading for the ingest endpoint get the large body
/// allowance, everything else the flood limit the caller passes.
pub fn buffered_limit(buf: &[u8], flood_limit: usize) -> usize {
    if buf.starts_with(b"POST /v1/admin/ingest") {
        MAX_INGEST_BODY + MAX_LINE * (MAX_HEADERS + 2)
    } else {
        flood_limit
    }
}

/// One parsed request, borrowing the connection's read buffer.
#[derive(Debug, Clone, Copy)]
pub struct RequestRef<'a> {
    /// Request method, uppercase as sent.
    pub method: &'a str,
    /// Path portion of the target (before `?`).
    pub path: &'a str,
    /// Raw query string (after `?`, may be empty).
    pub query: &'a str,
    /// Request body (empty for the usual GETs).
    pub body: &'a [u8],
    /// Whether the client allows the connection to stay open.
    pub keep_alive: bool,
}

impl<'a> RequestRef<'a> {
    /// The first value of query parameter `key`, unescaped as-is.
    pub fn param(&self, key: &str) -> Option<&'a str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// The outcome of parsing the front of a read buffer.
#[derive(Debug)]
pub enum Parse<'a> {
    /// One complete request; `.1` is the bytes it consumed (head + body).
    Complete(RequestRef<'a>, usize),
    /// No complete request yet — read more bytes and try again.
    Partial,
    /// The stream is unsalvageable; respond `400` with this message and
    /// close. Fail-closed: an oversized or malformed frame never silently
    /// desynchronizes the connection.
    Bad(&'static str),
}

/// Finds the end of the line starting at `from` (the index of its `\n`),
/// enforcing [`MAX_LINE`] on the line's length.
fn find_line_end(buf: &[u8], from: usize) -> Result<Option<usize>, &'static str> {
    // A valid line has content of at most MAX_LINE plus `\r\n`, so its `\n`
    // sits within the first MAX_LINE + 2 bytes; more buffered bytes than
    // that without a newline is fail-closed, even before the line ends.
    let window = &buf[from..];
    let searched = window.len().min(MAX_LINE + 2);
    match window[..searched].iter().position(|&b| b == b'\n') {
        Some(at) => Ok(Some(from + at)),
        None if window.len() > MAX_LINE + 2 => Err("request line too long"),
        None => Ok(None),
    }
}

/// The line's text with the terminating `\n` (and optional `\r`) stripped.
fn line_text(buf: &[u8], start: usize, newline: usize) -> Result<&str, &'static str> {
    let mut end = newline;
    if end > start && buf[end - 1] == b'\r' {
        end -= 1;
    }
    if end - start > MAX_LINE {
        return Err("request line too long");
    }
    std::str::from_utf8(&buf[start..end]).map_err(|_| "non-UTF-8 line")
}

/// Parses one request from the front of `buf`, incrementally: a buffer
/// holding half a request (split anywhere, even mid-line) is `Partial`, and
/// re-parsing after more bytes arrive yields exactly what a single-shot
/// parse of the whole stream would have (pinned by the byte-split proptest
/// in `crates/serve/tests/http_framing.rs`).
pub fn parse_request(buf: &[u8]) -> Parse<'_> {
    // Request line.
    let Some(line_end) = (match find_line_end(buf, 0) {
        Ok(v) => v,
        Err(m) => return Parse::Bad(m),
    }) else {
        return Parse::Partial;
    };
    let request_line = match line_text(buf, 0, line_end) {
        Ok(t) => t,
        Err(m) => return Parse::Bad(m),
    };
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Parse::Bad("malformed request line");
    };

    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
    let mut keep_alive = version == "HTTP/1.1";
    let mut content_len = 0usize;
    let mut at = line_end + 1;
    for _ in 0..MAX_HEADERS {
        let Some(line_end) = (match find_line_end(buf, at) {
            Ok(v) => v,
            Err(m) => return Parse::Bad(m),
        }) else {
            return Parse::Partial;
        };
        let line = match line_text(buf, at, line_end) {
            Ok(t) => t,
            Err(m) => return Parse::Bad(m),
        };
        at = line_end + 1;
        if line.is_empty() {
            // End of headers. Bodies are tolerated but bounded: the ingest
            // endpoint gets the delta-sized cap, everything else the line
            // cap; either way the body is consumed so the next pipelined
            // request starts at the right byte.
            let body_cap = if is_ingest_target(target) {
                MAX_INGEST_BODY
            } else {
                MAX_LINE
            };
            if content_len > body_cap {
                return Parse::Bad("request body too large");
            }
            if buf.len() - at < content_len {
                return Parse::Partial;
            }
            let (path, query) = match target.split_once('?') {
                Some((p, q)) => (p, q),
                None => (target, ""),
            };
            return Parse::Complete(
                RequestRef {
                    method,
                    path,
                    query,
                    body: &buf[at..at + content_len],
                    keep_alive,
                },
                at + content_len,
            );
        }
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("connection") {
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            } else if name.eq_ignore_ascii_case("content-length") {
                let Ok(parsed) = value.parse::<usize>() else {
                    return Parse::Bad("bad content-length");
                };
                content_len = parsed;
            }
        }
    }
    Parse::Bad("too many headers")
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Appends `value`'s decimal digits to `out` without allocating.
fn push_decimal(out: &mut Vec<u8>, value: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut v = value;
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends one complete response (status line, headers, body) to `out`.
/// Byte-for-byte the frame the original thread-pool daemon wrote; the only
/// difference is that nothing here touches the heap — the caller's buffer
/// absorbs the bytes and integer formatting uses a stack array.
pub fn write_response_into(out: &mut Vec<u8>, status: u16, body: &[u8], keep_alive: bool) {
    out.extend_from_slice(b"HTTP/1.1 ");
    push_decimal(out, u64::from(status));
    out.push(b' ');
    out.extend_from_slice(reason(status).as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: application/json\r\nContent-Length: ");
    push_decimal(out, body.len() as u64);
    out.extend_from_slice(b"\r\nConnection: ");
    out.extend_from_slice(if keep_alive {
        b"keep-alive".as_slice()
    } else {
        b"close".as_slice()
    });
    out.extend_from_slice(b"\r\n\r\n");
    out.extend_from_slice(body);
}

/// Appends a `{"error":"..."}` response for a static message. The message
/// must need no JSON escaping (all call sites pass fixed ASCII text).
pub fn write_error_into(out: &mut Vec<u8>, status: u16, message: &str, keep_alive: bool) {
    const PREFIX: &[u8] = b"{\"error\":\"";
    const SUFFIX: &[u8] = b"\"}";
    debug_assert!(!message.bytes().any(|b| b == b'"' || b == b'\\'));
    out.extend_from_slice(b"HTTP/1.1 ");
    push_decimal(out, u64::from(status));
    out.push(b' ');
    out.extend_from_slice(reason(status).as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: application/json\r\nContent-Length: ");
    push_decimal(out, (PREFIX.len() + message.len() + SUFFIX.len()) as u64);
    out.extend_from_slice(b"\r\nConnection: ");
    out.extend_from_slice(if keep_alive {
        b"keep-alive".as_slice()
    } else {
        b"close".as_slice()
    });
    out.extend_from_slice(b"\r\n\r\n");
    out.extend_from_slice(PREFIX);
    out.extend_from_slice(message.as_bytes());
    out.extend_from_slice(SUFFIX);
}

/// A routed response body. Hot paths borrow pre-rendered bytes (or clone an
/// `Arc`); only cold paths (cache misses, errors, unbounded inputs) build a
/// fresh `String`.
pub enum Body<'a> {
    /// Borrowed from the snapshot's hot-response cache — a pure memcpy.
    Cached(&'a [u8]),
    /// A shared compare-cache body (`Arc` clone, no heap traffic).
    Shared(Arc<str>),
    /// Rendered for this request (cold path).
    Owned(String),
    /// A fixed error body.
    Static(&'static str),
}

impl Body<'_> {
    /// The body bytes, whatever the storage.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            Body::Cached(b) => b,
            Body::Shared(s) => s.as_bytes(),
            Body::Owned(s) => s.as_bytes(),
            Body::Static(s) => s.as_bytes(),
        }
    }
}

/// One routed request: endpoint class (for metrics), status, body.
pub struct Routed<'a> {
    /// The endpoint class for metrics accounting.
    pub endpoint: Endpoint,
    /// HTTP status code.
    pub status: u16,
    /// The response body.
    pub body: Body<'a>,
}

fn routed(endpoint: Endpoint, status: u16, body: Body<'_>) -> Routed<'_> {
    Routed {
        endpoint,
        status,
        body,
    }
}

/// Routes one parsed request to its endpoint.
///
/// The hot endpoints (`/health`, `/v1/rank`, `/v1/movement` over top-K
/// domains, warmed `/v1/compare` cells) resolve to borrowed or shared bytes
/// without allocating; everything else falls back to the same pure renderers
/// in [`crate::query`] the thread-pool daemon used, so bodies are identical
/// either way.
pub fn route<'a>(
    snapshot: &'a QuerySnapshot,
    metrics: &Metrics,
    cache: &Lru,
    live: Option<&LiveStore>,
    request: &RequestRef<'_>,
) -> Routed<'a> {
    // topple-lint: hot-path-begin
    if request.method != "GET" {
        if request.method == "POST" && request.path == INGEST_PATH {
            return route_ingest(live, metrics, request);
        }
        return routed(
            Endpoint::Other,
            405,
            Body::Static("{\"error\":\"only GET is served\"}"),
        );
    }
    let path = request.path;
    if path == "/health" {
        return routed(Endpoint::Health, 200, Body::Cached(snapshot.health_bytes()));
    }
    if let Some(rest) = path.strip_prefix("/v1/rank/") {
        let Some((list, domain)) = rest.split_once('/') else {
            return routed(
                Endpoint::Rank,
                400,
                Body::Static("{\"error\":\"expected /v1/rank/{list}/{domain}\"}"),
            );
        };
        if let Some(source) = parse_list(list) {
            if let Some(body) = snapshot.hot_rank(source, domain) {
                metrics.record_hot(true);
                return routed(Endpoint::Rank, 200, Body::Cached(body));
            }
        }
        metrics.record_hot(false);
        let reply = snapshot.rank(list, domain);
        return routed(Endpoint::Rank, reply.status, Body::Owned(reply.body));
    }
    if path == "/v1/compare" {
        let (a, b, k) = (
            request.param("a").unwrap_or(""),
            request.param("b").unwrap_or(""),
            request.param("k").unwrap_or(""),
        );
        // Cache only well-formed cells; errors are cheap to recompute.
        if let (Some(sa), Some(sb), Ok(ki)) = (parse_list(a), parse_list(b), k.parse::<usize>()) {
            if (1..=MAX_K).contains(&ki) {
                let key = QuerySnapshot::compare_key(sa, sb, ki);
                if let Some(body) = cache.get(key) {
                    metrics.record_cache_hit();
                    return routed(Endpoint::Compare, 200, Body::Shared(body));
                }
                let body: Arc<str> = snapshot.compare_body(sa, sb, ki).into();
                cache.insert(key, Arc::clone(&body));
                return routed(Endpoint::Compare, 200, Body::Shared(body));
            }
        }
        let reply = snapshot.compare(a, b, k);
        return routed(Endpoint::Compare, reply.status, Body::Owned(reply.body));
    }
    if let Some(domain) = path.strip_prefix("/v1/movement/") {
        if let Some(body) = snapshot.hot_movement(domain) {
            metrics.record_hot(true);
            return routed(Endpoint::Movement, 200, Body::Cached(body));
        }
        metrics.record_hot(false);
        let reply = snapshot.movement(domain);
        return routed(Endpoint::Movement, reply.status, Body::Owned(reply.body));
    }
    if path == "/v1/snapshot" {
        // Pre-rendered at snapshot construction: serving it is a memcpy,
        // so generation polling under a swap storm costs the hot path
        // nothing.
        return routed(
            Endpoint::Snapshot,
            200,
            Body::Cached(snapshot.snapshot_bytes()),
        );
    }
    // topple-lint: hot-path-end
    if path == "/v1/metrics" {
        return routed(
            Endpoint::Metrics,
            200,
            Body::Owned(metrics.render(snapshot.id())),
        );
    }
    if let Some(name) = path.strip_prefix("/v1/artifact/") {
        let reply = snapshot.artifact(name);
        return routed(Endpoint::Artifact, reply.status, Body::Owned(reply.body));
    }
    routed(
        Endpoint::Other,
        404,
        Body::Static(
            "{\"error\":\"no such endpoint; see /health /v1/rank /v1/compare /v1/movement /v1/metrics\"}",
        ),
    )
}

/// `POST /v1/admin/ingest`: hand the body to the live store. 202 means the
/// delta passed full validation (framing, checksum, base identity, day
/// window) and is queued for the background rebuild; the hot-swap lands
/// asynchronously, observable via `/v1/snapshot`'s `generation`.
fn route_ingest<'a>(
    live: Option<&LiveStore>,
    metrics: &Metrics,
    request: &RequestRef<'_>,
) -> Routed<'a> {
    let Some(live) = live else {
        return routed(
            Endpoint::Ingest,
            404,
            Body::Static(
                "{\"error\":\"live ingestion is not enabled; restart with serve --live\"}",
            ),
        );
    };
    match live.submit(request.body) {
        Ok(delta_id) => {
            metrics.record_ingest(true);
            routed(
                Endpoint::Ingest,
                202,
                Body::Owned(format!(
                    "{{\"accepted\":true,\"delta\":\"{delta_id}\",\"generation\":{}}}",
                    live.generation()
                )),
            )
        }
        Err(e) => {
            metrics.record_ingest(false);
            let status = match &e {
                crate::error::LiveError::Delta(_) => 400,
                crate::error::LiveError::DayOutOfRange { .. }
                | crate::error::LiveError::Rebuild(_) => 409,
                crate::error::LiveError::Poisoned(_) => 503,
            };
            routed(
                Endpoint::Ingest,
                status,
                Body::Owned(format!("{{\"error\":\"{}\"}}", escape(&e.to_string()))),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{encode_study, Snapshot};
    use topple_core::Study;
    use topple_sim::WorldConfig;

    fn query() -> QuerySnapshot {
        let study = Study::run(WorldConfig::tiny(5)).expect("tiny study");
        let bytes = encode_study(&study, "tiny", &[]);
        QuerySnapshot::new(Snapshot::from_bytes(&bytes).expect("decodes"))
    }

    fn parse(raw: &str) -> (RequestRef<'_>, usize) {
        match parse_request(raw.as_bytes()) {
            Parse::Complete(r, n) => (r, n),
            other => panic!("expected complete parse, got {other:?}"),
        }
    }

    #[test]
    fn parses_request_line_and_query() {
        let raw = "GET /v1/compare?a=alexa&b=tranco&k=100 HTTP/1.1\r\nHost: x\r\n\r\n";
        let (r, consumed) = parse(raw);
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/v1/compare");
        assert_eq!(r.param("a"), Some("alexa"));
        assert_eq!(r.param("k"), Some("100"));
        assert!(r.keep_alive);
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn connection_close_is_honored() {
        let (r, _) = parse("GET /health HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!r.keep_alive);
        let (r, _) = parse("GET /health HTTP/1.0\r\n\r\n");
        assert!(!r.keep_alive);
        let (r, _) = parse("GET /health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(r.keep_alive);
    }

    #[test]
    fn partial_until_blank_line() {
        assert!(matches!(parse_request(b""), Parse::Partial));
        assert!(matches!(parse_request(b"GET /heal"), Parse::Partial));
        assert!(matches!(
            parse_request(b"GET /health HTTP/1.1\r\n"),
            Parse::Partial
        ));
        assert!(matches!(
            parse_request(b"GET /health HTTP/1.1\r\nHost: x\r\n"),
            Parse::Partial
        ));
    }

    #[test]
    fn pipelined_requests_consume_exactly_one_frame() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let Parse::Complete(first, n) = parse_request(raw) else {
            panic!("first frame");
        };
        assert_eq!(first.path, "/a");
        let Parse::Complete(second, m) = parse_request(&raw[n..]) else {
            panic!("second frame");
        };
        assert_eq!(second.path, "/b");
        assert_eq!(n + m, raw.len());
    }

    #[test]
    fn body_bytes_are_consumed_with_the_frame() {
        let raw = b"GET /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyzGET /b HTTP/1.1\r\n\r\n";
        let Parse::Complete(first, n) = parse_request(raw) else {
            panic!("first frame");
        };
        assert_eq!(first.path, "/a");
        assert_eq!(&raw[n..n + 5], b"GET /");
        // A body split across reads is Partial until it arrives.
        assert!(matches!(
            parse_request(b"GET /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nxy"),
            Parse::Partial
        ));
    }

    #[test]
    fn oversized_line_is_bad_request() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_LINE + 1));
        assert!(matches!(parse_request(raw.as_bytes()), Parse::Bad(_)));
        // ... even before the newline ever arrives (fail-closed, not stuck).
        let unterminated = vec![b'x'; MAX_LINE + 8];
        assert!(matches!(parse_request(&unterminated), Parse::Bad(_)));
    }

    #[test]
    fn malformed_inputs_are_bad_not_partial() {
        assert!(matches!(parse_request(b"GET\r\n\r\n"), Parse::Bad(_)));
        assert!(matches!(
            parse_request(b"GET / HTTP/1.1\r\nContent-Length: ten\r\n\r\n"),
            Parse::Bad(_)
        ));
        assert!(matches!(
            parse_request(b"GET /\xff\xfe HTTP/1.1\r\n\r\n"),
            Parse::Bad(_)
        ));
        let mut many = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..MAX_HEADERS + 1 {
            many.extend_from_slice(format!("H{i}: v\r\n").as_bytes());
        }
        many.extend_from_slice(b"\r\n");
        assert!(matches!(parse_request(&many), Parse::Bad(_)));
        assert!(matches!(
            parse_request(
                format!("GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_LINE + 1).as_bytes()
            ),
            Parse::Bad(_)
        ));
    }

    #[test]
    fn routes_every_endpoint() {
        let q = query();
        let m = Metrics::new();
        let c = Lru::new(8);
        for (path, want) in [
            ("/health", 200),
            ("/v1/rank/tranco/a.com", 200),
            ("/v1/compare?a=alexa&b=tranco&k=50", 200),
            ("/v1/movement/a.com", 200),
            ("/v1/metrics", 200),
            ("/v1/snapshot", 200),
            ("/nope", 404),
            ("/v1/rank/alexa", 400),
        ] {
            let raw = format!("GET {path} HTTP/1.1\r\n\r\n");
            let (req, _) = parse(&raw);
            let r = route(&q, &m, &c, None, &req);
            assert_eq!(r.status, want, "{path}");
        }
        let (req, _) = parse("POST /health HTTP/1.1\r\n\r\n");
        assert_eq!(route(&q, &m, &c, None, &req).status, 405);
        // Ingest on a server without a live store is a 404, not a 405: the
        // route exists, this daemon just is not running it.
        let (req, _) = parse("POST /v1/admin/ingest HTTP/1.1\r\n\r\n");
        let r = route(&q, &m, &c, None, &req);
        assert_eq!(r.status, 404);
        assert!(String::from_utf8_lossy(r.body.as_bytes()).contains("--live"));
    }

    #[test]
    fn snapshot_route_serves_prerendered_bytes() {
        let q = query();
        let m = Metrics::new();
        let c = Lru::new(8);
        let (req, _) = parse("GET /v1/snapshot HTTP/1.1\r\n\r\n");
        let r = route(&q, &m, &c, None, &req);
        assert_eq!(r.body.as_bytes(), q.snapshot_bytes());
    }

    #[test]
    fn ingest_target_gets_the_large_body_cap() {
        // A body over MAX_LINE on a normal target is rejected...
        let big = MAX_LINE + 1;
        let normal = format!("POST /health HTTP/1.1\r\nContent-Length: {big}\r\n\r\n");
        assert!(matches!(parse_request(normal.as_bytes()), Parse::Bad(_)));
        // ...but the same declaration on the ingest target parses once the
        // bytes arrive.
        let mut raw =
            format!("POST /v1/admin/ingest HTTP/1.1\r\nContent-Length: {big}\r\n\r\n").into_bytes();
        assert!(matches!(parse_request(&raw), Parse::Partial));
        raw.extend(vec![0xABu8; big]);
        let Parse::Complete(req, n) = parse_request(&raw) else {
            panic!("ingest body should parse");
        };
        assert_eq!(req.body.len(), big);
        assert_eq!(n, raw.len());
        // Over the ingest cap is still fail-closed.
        let huge = format!(
            "POST /v1/admin/ingest HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_INGEST_BODY + 1
        );
        assert!(matches!(parse_request(huge.as_bytes()), Parse::Bad(_)));
        // The buffered-byte allowance follows the target.
        assert!(buffered_limit(b"POST /v1/admin/ingest HTTP/1.1", 100) > MAX_INGEST_BODY);
        assert_eq!(buffered_limit(b"GET /health HTTP/1.1", 100), 100);
    }

    #[test]
    fn compare_cache_hit_returns_identical_bytes() {
        let q = query();
        let m = Metrics::new();
        let c = Lru::new(8);
        let raw = "GET /v1/compare?a=alexa&b=umbrella&k=40 HTTP/1.1\r\n\r\n";
        let (req, _) = parse(raw);
        let first = route(&q, &m, &c, None, &req).body.as_bytes().to_vec();
        let second = route(&q, &m, &c, None, &req).body.as_bytes().to_vec();
        assert_eq!(first, second);
    }

    #[test]
    fn response_carries_length_and_connection() {
        let mut out = Vec::new();
        write_response_into(&mut out, 200, b"{\"x\":1}", false);
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"x\":1}"));
    }

    #[test]
    fn error_response_matches_rendered_form() {
        let mut direct = Vec::new();
        write_error_into(&mut direct, 400, "request line too long", true);
        let mut via_body = Vec::new();
        write_response_into(
            &mut via_body,
            400,
            b"{\"error\":\"request line too long\"}",
            true,
        );
        assert_eq!(direct, via_body);
    }

    #[test]
    fn decimal_formatting_matches_display() {
        for v in [0u64, 7, 10, 99, 100, 8_192, u64::from(u16::MAX), u64::MAX] {
            let mut out = Vec::new();
            push_decimal(&mut out, v);
            assert_eq!(String::from_utf8(out).expect("utf8"), v.to_string());
        }
    }
}
