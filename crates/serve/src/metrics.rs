//! Request counters and latency histogram for `/v1/metrics`.
//!
//! This is the one deliberately nondeterministic surface of the daemon:
//! counters reflect whatever traffic actually arrived, and latencies read
//! the wall clock. Everything else the server emits is a pure function of
//! the snapshot; the metrics endpoint is documented as exempt from the
//! byte-identical guarantee and the wall-clock reads below carry lint
//! directives saying so.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The routed endpoint classes we count separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /health`.
    Health,
    /// `GET /v1/rank/{list}/{domain}`.
    Rank,
    /// `GET /v1/compare`.
    Compare,
    /// `GET /v1/movement/{domain}`.
    Movement,
    /// `GET /v1/metrics`.
    Metrics,
    /// `GET /v1/artifact/{name}`.
    Artifact,
    /// `GET /v1/snapshot`.
    Snapshot,
    /// `POST /v1/admin/ingest`.
    Ingest,
    /// Anything that did not route (404/405/400 before routing).
    Other,
}

/// All endpoint classes in report order.
const ENDPOINTS: [(Endpoint, &str); 9] = [
    (Endpoint::Health, "health"),
    (Endpoint::Rank, "rank"),
    (Endpoint::Compare, "compare"),
    (Endpoint::Movement, "movement"),
    (Endpoint::Metrics, "metrics"),
    (Endpoint::Artifact, "artifact"),
    (Endpoint::Snapshot, "snapshot"),
    (Endpoint::Ingest, "ingest"),
    (Endpoint::Other, "other"),
];

fn endpoint_slot(e: Endpoint) -> usize {
    match e {
        Endpoint::Health => 0,
        Endpoint::Rank => 1,
        Endpoint::Compare => 2,
        Endpoint::Movement => 3,
        Endpoint::Metrics => 4,
        Endpoint::Artifact => 5,
        Endpoint::Snapshot => 6,
        Endpoint::Ingest => 7,
        Endpoint::Other => 8,
    }
}

/// Upper bounds (µs) of the latency histogram buckets; the last bucket is
/// open-ended. Powers of four from 1µs to ~16ms.
const BUCKET_BOUNDS_US: [u64; 8] = [1, 4, 16, 64, 256, 1_024, 4_096, 16_384];

/// Upper bounds of the pipelined-responses-per-flush histogram buckets; the
/// last bucket is open-ended. Powers of two from 1 to 64.
const FLUSH_BOUNDS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The live engine's rebuild steps, in the order a rebuild runs them
/// (DESIGN.md §17).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildStep {
    /// Folding the delta's new days into the resident prefix.
    Fold,
    /// `Study::from_prefix`: window-wide lists, normalization, index.
    Assemble,
    /// Encoding the study into `tpls` bytes (and taking it apart again).
    Encode,
    /// Decoding those bytes into the snapshot to serve.
    Decode,
    /// `QuerySnapshot`: position columns, daily cuts and the hot cache.
    QuerySnapshot,
}

/// The `/v1/metrics` key of each rebuild step, indexed by
/// `RebuildStep as usize`.
const REBUILD_STEPS: [&str; 5] = ["fold", "assemble", "encode", "decode", "query_snapshot"];

/// Times one rebuild's steps for `/v1/metrics`: each [`lap`](Self::lap)
/// charges the time since the previous lap (or the start) to a step.
pub struct RebuildClock {
    last: Instant,
    steps_us: [u64; REBUILD_STEPS.len()],
}

impl RebuildClock {
    /// Starts timing a rebuild.
    pub fn start() -> Self {
        RebuildClock {
            // topple-lint: allow(wall-clock): live-rebuild step metric; /v1/metrics is exempt from the byte-identical guarantee
            last: Instant::now(),
            steps_us: [0; REBUILD_STEPS.len()],
        }
    }

    /// Ends `step`, which ran since the previous lap.
    pub fn lap(&mut self, step: RebuildStep) {
        // topple-lint: allow(wall-clock): live-rebuild step metric; /v1/metrics is exempt from the byte-identical guarantee
        let now = Instant::now();
        let micros = now.duration_since(self.last).as_micros();
        self.steps_us[step as usize] += micros.min(u128::from(u64::MAX)) as u64;
        self.last = now;
    }
}

/// Lock-free request metrics, shared by every reactor shard.
#[derive(Default)]
pub struct Metrics {
    by_endpoint: [AtomicU64; ENDPOINTS.len()],
    status_2xx: AtomicU64,
    status_4xx: AtomicU64,
    status_5xx: AtomicU64,
    latency_buckets: [AtomicU64; BUCKET_BOUNDS_US.len() + 1],
    latency_total_us: AtomicU64,
    cache_hits: AtomicU64,
    // Event-loop counters (DESIGN.md §16): how the reactor earned its
    // throughput, so the loadgen study can attribute wins.
    epoll_wakeups: AtomicU64,
    conns_accepted: AtomicU64,
    conns_reused: AtomicU64,
    flush_buckets: [AtomicU64; FLUSH_BOUNDS.len() + 1],
    hot_hits: AtomicU64,
    hot_misses: AtomicU64,
    // Live-serving counters (DESIGN.md §17): the snapshot generation being
    // served, how many hot-swaps have landed, and the ingest ledger.
    live_generation: AtomicU64,
    swaps: AtomicU64,
    ingest_accepted: AtomicU64,
    ingest_rejected: AtomicU64,
    // The live engine's rebuild steps (µs): the last rebuild's, and the
    // sum over every rebuild since boot.
    rebuild_last_us: [AtomicU64; REBUILD_STEPS.len()],
    rebuild_total_us: [AtomicU64; REBUILD_STEPS.len()],
}

impl Metrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Starts a latency measurement for one request.
    pub fn start(&self) -> RequestTimer {
        RequestTimer {
            // topple-lint: allow(wall-clock): request latency metric; /v1/metrics is exempt from the byte-identical guarantee
            begun: Instant::now(),
        }
    }

    /// Records one routed request: endpoint class, response status, and the
    /// timer started before routing.
    pub fn record(&self, endpoint: Endpoint, status: u16, timer: RequestTimer) {
        self.by_endpoint[endpoint_slot(endpoint)].fetch_add(1, Ordering::Relaxed);
        match status {
            200..=299 => &self.status_2xx,
            400..=499 => &self.status_4xx,
            _ => &self.status_5xx,
        }
        .fetch_add(1, Ordering::Relaxed);
        let micros = timer.begun.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let bucket = BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| micros <= bound)
            .unwrap_or(BUCKET_BOUNDS_US.len());
        self.latency_buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.latency_total_us.fetch_add(micros, Ordering::Relaxed);
    }

    /// Notes a compare-cache hit.
    pub fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Notes one `epoll_wait` return that delivered at least one event.
    pub fn record_wakeup(&self) {
        self.epoll_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Notes an accepted connection.
    pub fn record_accept(&self) {
        self.conns_accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Notes a connection reuse: the moment a connection serves its second
    /// request (so `reused` counts keep-alive connections, once each).
    pub fn record_reuse(&self) {
        self.conns_reused.fetch_add(1, Ordering::Relaxed);
    }

    /// Notes one write-buffer flush that coalesced `responses` pipelined
    /// responses.
    pub fn record_flush(&self, responses: u64) {
        let bucket = FLUSH_BOUNDS
            .iter()
            .position(|&bound| responses <= bound)
            .unwrap_or(FLUSH_BOUNDS.len());
        self.flush_buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Notes a hot-response-cache lookup outcome on `/health`, `/v1/rank`,
    /// or `/v1/movement`.
    pub fn record_hot(&self, hit: bool) {
        if hit {
            self.hot_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hot_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Publishes the snapshot generation now being served (a gauge, not a
    /// counter) and notes the hot-swap that installed it.
    pub fn record_swap(&self, generation: u64) {
        self.live_generation.store(generation, Ordering::Relaxed);
        self.swaps.fetch_add(1, Ordering::Relaxed);
    }

    /// Notes one ingest submission's outcome.
    pub fn record_ingest(&self, accepted: bool) {
        if accepted {
            self.ingest_accepted.fetch_add(1, Ordering::Relaxed);
        } else {
            self.ingest_rejected.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Publishes one rebuild's step times (engine-side, before its swap).
    pub fn record_rebuild(&self, clock: &RebuildClock) {
        for (i, &us) in clock.steps_us.iter().enumerate() {
            self.rebuild_last_us[i].store(us, Ordering::Relaxed);
            self.rebuild_total_us[i].fetch_add(us, Ordering::Relaxed);
        }
    }

    /// Renders the `/v1/metrics` JSON body.
    pub fn render(&self, snapshot_id: &str) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\"snapshot\":\"");
        out.push_str(snapshot_id);
        out.push_str("\",\"requests\":{");
        for (i, &(e, name)) in ENDPOINTS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(name);
            out.push_str("\":");
            out.push_str(
                &self.by_endpoint[endpoint_slot(e)]
                    .load(Ordering::Relaxed)
                    .to_string(),
            );
        }
        out.push_str("},\"status\":{\"2xx\":");
        out.push_str(&self.status_2xx.load(Ordering::Relaxed).to_string());
        out.push_str(",\"4xx\":");
        out.push_str(&self.status_4xx.load(Ordering::Relaxed).to_string());
        out.push_str(",\"5xx\":");
        out.push_str(&self.status_5xx.load(Ordering::Relaxed).to_string());
        out.push_str("},\"compare_cache_hits\":");
        out.push_str(&self.cache_hits.load(Ordering::Relaxed).to_string());
        out.push_str(",\"event_loop\":{\"epoll_wakeups\":");
        out.push_str(&self.epoll_wakeups.load(Ordering::Relaxed).to_string());
        out.push_str(",\"accepted\":");
        out.push_str(&self.conns_accepted.load(Ordering::Relaxed).to_string());
        out.push_str(",\"reused\":");
        out.push_str(&self.conns_reused.load(Ordering::Relaxed).to_string());
        out.push_str(",\"pipelined_per_flush\":[");
        for (i, bucket) in self.flush_buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&bucket.load(Ordering::Relaxed).to_string());
        }
        out.push_str("]},\"live\":{\"generation\":");
        out.push_str(&self.live_generation.load(Ordering::Relaxed).to_string());
        out.push_str(",\"swaps\":");
        out.push_str(&self.swaps.load(Ordering::Relaxed).to_string());
        out.push_str(",\"ingest_accepted\":");
        out.push_str(&self.ingest_accepted.load(Ordering::Relaxed).to_string());
        out.push_str(",\"ingest_rejected\":");
        out.push_str(&self.ingest_rejected.load(Ordering::Relaxed).to_string());
        out.push_str("},\"rebuild_us\":{");
        let columns = [
            ("last", &self.rebuild_last_us),
            ("total", &self.rebuild_total_us),
        ];
        for (j, (label, column)) in columns.into_iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(label);
            out.push_str("\":{");
            for (i, (name, v)) in REBUILD_STEPS.iter().zip(column).enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(name);
                out.push_str("\":");
                out.push_str(&v.load(Ordering::Relaxed).to_string());
            }
            out.push('}');
        }
        out.push_str("},\"hot_cache\":{\"hits\":");
        out.push_str(&self.hot_hits.load(Ordering::Relaxed).to_string());
        out.push_str(",\"misses\":");
        out.push_str(&self.hot_misses.load(Ordering::Relaxed).to_string());
        out.push_str("},\"latency_us\":{\"total\":");
        out.push_str(&self.latency_total_us.load(Ordering::Relaxed).to_string());
        out.push_str(",\"buckets\":[");
        for (i, bucket) in self.latency_buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&bucket.load(Ordering::Relaxed).to_string());
        }
        out.push_str("]}}");
        out
    }
}

/// An in-flight request's start time (opaque; consumed by [`Metrics::record`]).
pub struct RequestTimer {
    begun: Instant,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_renders() {
        let m = Metrics::new();
        let t = m.start();
        m.record(Endpoint::Rank, 200, t);
        let t = m.start();
        m.record(Endpoint::Other, 404, t);
        m.record_cache_hit();
        m.record_wakeup();
        m.record_accept();
        m.record_reuse();
        m.record_flush(3);
        m.record_hot(true);
        m.record_hot(false);
        let body = m.render("tpls-v1-deadbeef-s1");
        assert!(body.contains("\"rank\":1"));
        assert!(body.contains("\"other\":1"));
        assert!(body.contains("\"2xx\":1"));
        assert!(body.contains("\"4xx\":1"));
        assert!(body.contains("\"compare_cache_hits\":1"));
        assert!(body.contains("\"event_loop\":{\"epoll_wakeups\":1,\"accepted\":1,\"reused\":1"));
        // 3 responses/flush lands in the `<=4` bucket (bounds 1,2,4,...).
        assert!(body.contains("\"pipelined_per_flush\":[0,0,1,0,0,0,0,0]"));
        assert!(body.contains("\"hot_cache\":{\"hits\":1,\"misses\":1}"));
        assert!(body.contains("tpls-v1-deadbeef-s1"));
    }

    #[test]
    fn live_counters_render() {
        let m = Metrics::new();
        assert!(m.render("s").contains(
            "\"live\":{\"generation\":0,\"swaps\":0,\"ingest_accepted\":0,\"ingest_rejected\":0}"
        ));
        m.record_swap(1);
        m.record_swap(2);
        m.record_ingest(true);
        m.record_ingest(false);
        m.record_ingest(false);
        let body = m.render("s");
        assert!(body.contains(
            "\"live\":{\"generation\":2,\"swaps\":2,\"ingest_accepted\":1,\"ingest_rejected\":2}"
        ));
    }

    #[test]
    fn rebuild_steps_render_last_and_total() {
        let m = Metrics::new();
        assert!(m.render("s").contains(
            "\"rebuild_us\":{\"last\":{\"fold\":0,\"assemble\":0,\"encode\":0,\"decode\":0,\
             \"query_snapshot\":0},\"total\":{\"fold\":0,"
        ));
        let mut clock = RebuildClock::start();
        clock.steps_us = [1, 2, 3, 4, 5];
        m.record_rebuild(&clock);
        clock.steps_us = [10, 20, 30, 40, 50];
        m.record_rebuild(&clock);
        assert!(m.render("s").contains(
            "\"rebuild_us\":{\"last\":{\"fold\":10,\"assemble\":20,\"encode\":30,\"decode\":40,\
             \"query_snapshot\":50},\"total\":{\"fold\":11,\"assemble\":22,\"encode\":33,\
             \"decode\":44,\"query_snapshot\":55}}"
        ));
        // Laps charge the time between them to the step named.
        let mut clock = RebuildClock::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        clock.lap(RebuildStep::Assemble);
        clock.lap(RebuildStep::Fold);
        assert!(clock.steps_us[RebuildStep::Assemble as usize] >= 2_000);
        assert!(clock.steps_us[RebuildStep::Fold as usize] < 2_000);
    }

    #[test]
    fn flush_histogram_covers_all_batch_sizes() {
        let m = Metrics::new();
        for n in [1u64, 2, 5, 64, 65, 10_000] {
            m.record_flush(n);
        }
        let total: u64 = m
            .flush_buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum();
        assert_eq!(total, 6);
        // 65 and 10_000 both land in the open-ended last bucket.
        assert_eq!(
            m.flush_buckets[FLUSH_BOUNDS.len()].load(Ordering::Relaxed),
            2
        );
    }

    #[test]
    fn buckets_cover_all_latencies() {
        let m = Metrics::new();
        for _ in 0..50 {
            let t = m.start();
            m.record(Endpoint::Health, 200, t);
        }
        let total: u64 = m
            .latency_buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum();
        assert_eq!(total, 50);
    }
}
