//! Live ingestion and zero-restart hot-swap serving (DESIGN.md §17).
//!
//! The offline pipeline is *batch*: run the whole study window, write one
//! `tpls` snapshot, serve it immutably. This module makes the window
//! extensible while the daemon runs. New day-shards arrive as checksummed
//! [`Delta`] containers (`POST /v1/admin/ingest`); a background engine
//! folds each newly contiguous day into its resident study state, rebuilds
//! the full [`QuerySnapshot`] — columnar index, pre-rendered hot cache and
//! all — *off* the serving path, and atomically installs it. Readers never
//! block on a rebuild and never see a half-updated index: a request is
//! served entirely from whichever `Arc<QuerySnapshot>` its worker shard
//! held when the request was parsed.
//!
//! Determinism doctrine, extended to time: shards are commutative monoids
//! ([`Shard::merge`](topple_vantage::Shard::merge)), so the serving state
//! after any set of accepted deltas is a pure function of *which* days were
//! ingested, not when or in what order. The engine keeps one
//! [`StudyPrefix`] resident from boot and folds each day into it exactly
//! once; every swap assembles it through the same [`Study::from_prefix`]
//! the offline pipeline uses, then [`encode_study`] →
//! [`Snapshot::from_bytes`]. [`Study::from_shards`] — merge every day,
//! fold once into a fresh prefix — is the cold oracle: a live-swapped
//! generation's response bodies are byte-identical to a cold daemon
//! serving a from-scratch snapshot of the same days (pinned by this
//! module's per-swap tests, the swap-smoke CI job and
//! `tests/delta_equivalence.rs`).
//!
//! A rebuild pays for what a delta adds, not for the month. The prefix
//! keeps its domain table and normalizer memo between assembles. Ids are
//! interned in one order: site domains, the Umbrella dailies in day
//! order, the monthly lists, then the Alexa dailies. Sites and Umbrella
//! dailies form a stable region that only grows at its end, so each
//! assemble cuts the table back to that region, normalizes only the new
//! days' Umbrella dailies, and re-interns the monthly and Alexa lists
//! behind it through a warm memo. Every id comes out as a fresh build
//! would issue it. The hot cache of the new [`QuerySnapshot`] is written
//! in place by the query layer's own renderers. Each swap's step times
//! (fold, assemble, encode, decode, `QuerySnapshot`) reach `/v1/metrics`.
//!
//! Split of responsibilities:
//!
//! * [`LiveStore`] — the shared handle. Validates and queues submitted
//!   deltas (fail-closed, full validation *before* 202), hands out the
//!   current snapshot, publishes the monotonic generation counter, and
//!   performs the atomic swap (install snapshot, clear the compare cache,
//!   then publish the generation).
//! * [`LiveEngine`] — the single background rebuild thread. At boot it
//!   generates the base world once, folds the base days into a fresh
//!   [`StudyPrefix`], and *verifies* the loaded snapshot by rebuilding it
//!   — a byte-level self-check that the serving file really is this
//!   world's prefix. Afterwards it pools only the delta bundles above the
//!   folded prefix and folds, merged into one shard, the whole bundles
//!   that extend it. On any verification or rebuild failure the store is
//!   **poisoned**: the last good snapshot keeps serving, further ingests
//!   are refused with `503`, and nothing is ever swapped in unverified.
//!
//! Swap ordering invariant: the new snapshot is installed under the
//! `current` lock and the compare cache is cleared *before* the generation
//! counter is released. A reader that observes generation N is therefore
//! guaranteed to find a snapshot of generation ≥ N and no stale cache
//! entry rendered by an older snapshot.

use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use topple_core::{Study, StudyPrefix};
use topple_sim::{World, WorldConfig};
use topple_stats::cast;
use topple_vantage::DayShards;

use crate::delta::Delta;
use crate::error::{ContainerError, LiveError};
use crate::lru::Lru;
use crate::metrics::{Metrics, RebuildClock, RebuildStep};
use crate::query::QuerySnapshot;
use crate::snapshot::{encode_study, Snapshot, SnapshotIdentity};

/// Locks a mutex, recovering from poisoning: every structure guarded here
/// (snapshot pointer, delta queue) is valid at all times, so a panicked
/// peer cannot have left state that matters half-written.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The ingest queue and its bookkeeping, guarded by one mutex.
struct Inbox {
    /// Validated deltas awaiting the engine, submission order.
    queue: VecDeque<Delta>,
    /// Every day index accepted so far (base days plus queued/applied
    /// deltas): duplicates are rejected at submit time because shard
    /// merging is commutative but *not* idempotent — re-merging a day
    /// would double-count its traffic.
    accepted_days: BTreeSet<u32>,
    /// Engine shutdown requested.
    stop: bool,
    /// Set when the engine failed verification or a rebuild; the stored
    /// reason is echoed to every refused ingest.
    poisoned: Option<String>,
}

/// Shared state between the serving shards, the ingest route, and the
/// background rebuild engine.
pub struct LiveStore {
    /// The snapshot being served. Readers take the lock only to bump an
    /// `Arc` refcount, and only when the generation counter tells them a
    /// swap landed; the per-request fast path is one atomic load.
    current: Mutex<Arc<QuerySnapshot>>,
    /// Monotonic serving generation, published *after* the snapshot under
    /// `current` reaches (at least) that generation.
    generation: AtomicU64,
    /// The snapshot the store booted from: every delta must extend its
    /// world, and its day count is where ingestion starts.
    base: SnapshotIdentity,
    /// Days in the world's full window; deltas past it are refused.
    window: u32,
    metrics: Arc<Metrics>,
    cache: Arc<Lru>,
    inbox: Mutex<Inbox>,
    wake: Condvar,
}

impl LiveStore {
    /// Wraps a loaded snapshot for live serving. `window` is the total
    /// day count of the world's configured window (the base snapshot may
    /// cover a prefix of it).
    pub fn new(
        initial: QuerySnapshot,
        window: u32,
        metrics: Arc<Metrics>,
        cache: Arc<Lru>,
    ) -> LiveStore {
        let base = initial.snapshot().identity.clone();
        let base_days = base.n_days;
        let generation = AtomicU64::new(initial.generation());
        LiveStore {
            current: Mutex::new(Arc::new(initial)),
            generation,
            base,
            window,
            metrics,
            cache,
            inbox: Mutex::new(Inbox {
                queue: VecDeque::new(),
                accepted_days: (0..base_days).collect(),
                stop: false,
                poisoned: None,
            }),
            wake: Condvar::new(),
        }
    }

    /// The generation currently published. One atomic load — this is the
    /// per-wakeup check on the serving fast path.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Days the base snapshot covered at boot.
    pub fn base_days(&self) -> u32 {
        self.base.n_days
    }

    /// The snapshot currently being served (an `Arc` clone).
    pub fn current(&self) -> Arc<QuerySnapshot> {
        Arc::clone(&lock(&self.current))
    }

    /// The metrics instance swaps are recorded into (shared with the
    /// serving daemon so `/v1/metrics` sees them).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// The compare cache cleared at each swap (shared with the daemon).
    pub fn cache(&self) -> Arc<Lru> {
        Arc::clone(&self.cache)
    }

    /// Validates delta bytes and queues them for the engine.
    ///
    /// Everything checkable without a rebuild is checked *here*, before the
    /// caller sees 202: container framing and checksum, base-world
    /// identity, day-window bounds, and double-ingest of a day. The engine
    /// thread then only ever applies deltas that are known-good in
    /// isolation; its own failures (which would mean a bug or a corrupted
    /// process) poison the store rather than surfacing per-request.
    pub fn submit(&self, bytes: &[u8]) -> Result<String, LiveError> {
        let delta = Delta::from_bytes(bytes)?;
        delta.identity().check_base(&self.base)?;
        let mut inbox = lock(&self.inbox);
        if let Some(why) = &inbox.poisoned {
            return Err(LiveError::Poisoned(why.clone()));
        }
        for &day in delta.days() {
            if day >= self.window {
                return Err(LiveError::DayOutOfRange {
                    day,
                    window: self.window,
                });
            }
            if inbox.accepted_days.contains(&day) {
                return Err(LiveError::Delta(ContainerError::Malformed {
                    context: "day already ingested (shard merge is not idempotent)",
                }));
            }
        }
        let id = delta.id();
        for &day in delta.days() {
            inbox.accepted_days.insert(day);
        }
        inbox.queue.push_back(delta);
        drop(inbox);
        self.wake.notify_one();
        Ok(id)
    }

    /// Atomically installs a rebuilt snapshot (engine-side).
    ///
    /// Ordering: snapshot first (under the lock), compare cache cleared
    /// second, generation published last with `Release` — so any reader
    /// that observes the new generation finds the new snapshot and no
    /// stale cached body.
    pub fn swap(&self, next: Arc<QuerySnapshot>) {
        let generation = next.generation();
        *lock(&self.current) = next;
        self.cache.clear();
        self.metrics.record_swap(generation);
        self.generation.store(generation, Ordering::Release);
    }

    /// Marks the store failed: the current snapshot keeps serving, every
    /// future ingest is refused with this reason.
    pub fn poison(&self, why: String) {
        lock(&self.inbox).poisoned = Some(why);
        self.wake.notify_all();
    }

    /// The poison reason, if the store is poisoned.
    pub fn poisoned(&self) -> Option<String> {
        lock(&self.inbox).poisoned.clone()
    }

    /// Asks the engine thread to exit once the queue is drained.
    pub fn shutdown(&self) {
        lock(&self.inbox).stop = true;
        self.wake.notify_all();
    }

    /// Blocks until a delta is available (engine-side); `None` means
    /// shutdown was requested and the queue is empty.
    fn next_delta(&self) -> Option<Delta> {
        let mut inbox = lock(&self.inbox);
        loop {
            if let Some(d) = inbox.queue.pop_front() {
                return Some(d);
            }
            if inbox.stop {
                return None;
            }
            inbox = match self.wake.wait(inbox) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

/// One delta's shards waiting in the engine's pool for the days below them.
struct Pending {
    /// Highest day the bundle covers.
    last_day: u32,
    /// How many days it covers (its days need not be contiguous).
    n_days: u32,
    shards: DayShards,
}

/// The background rebuild engine: keeps the study's [`StudyPrefix`]
/// resident and folds each delta's newly contiguous days into it.
pub struct LiveEngine {
    store: Arc<LiveStore>,
    config: WorldConfig,
    scale: String,
    /// Artifacts carried over from the base snapshot: rendered reports are
    /// a function of the *base* study, and re-rendering them would need the
    /// experiments crate. Lineage makes the carry-over visible.
    artifacts: Vec<(String, String)>,
    workers: usize,
    /// Delta bundles above the folded prefix, held until the days below
    /// them arrive.
    pool: Vec<Pending>,
    /// Delta ids applied so far, oldest first.
    lineage: Vec<String>,
}

impl LiveEngine {
    /// Prepares an engine for `store`, which must serve a snapshot of the
    /// world `config` describes. Scale label and artifacts are taken from
    /// the serving snapshot.
    pub fn new(store: Arc<LiveStore>, config: WorldConfig, workers: usize) -> LiveEngine {
        let current = store.current();
        let snapshot = current.snapshot();
        let scale = snapshot.identity.scale.clone();
        let artifacts = snapshot.artifacts.clone();
        drop(current);
        LiveEngine {
            store,
            config,
            scale,
            artifacts,
            workers: workers.max(1),
            pool: Vec::new(),
            lineage: Vec::new(),
        }
    }

    /// Runs the engine until [`LiveStore::shutdown`]: boot verification,
    /// then one pool insert (+ fold, rebuild and swap, when the pooled
    /// bundles extend the folded prefix) per queued delta.
    pub fn run(mut self) {
        let mut prefix = match self.boot() {
            Ok(prefix) => prefix,
            Err(why) => {
                self.store.poison(why);
                return;
            }
        };
        while let Some(delta) = self.store.next_delta() {
            prefix = match self.apply(prefix, delta) {
                Ok(prefix) => prefix,
                Err(why) => {
                    self.store.poison(why);
                    return;
                }
            };
        }
    }

    /// Spawns the engine on a named background thread.
    pub fn spawn(self) -> std::io::Result<std::thread::JoinHandle<()>> {
        std::thread::Builder::new()
            .name("topple-live".to_owned())
            .spawn(move || self.run())
    }

    /// Regenerates the base world, folds the base days into a fresh
    /// prefix, and proves the loaded snapshot is exactly this world's
    /// prefix by rebuilding it.
    fn boot(&self) -> Result<StudyPrefix, String> {
        let world = World::generate(self.config.clone())
            .map_err(|e| format!("base world regeneration failed: {e}"))?;
        if world.sites.len() as u64 != self.store.base.n_sites
            || world.clients.len() as u64 != self.store.base.n_clients
        {
            return Err(
                "world config does not reproduce the base snapshot's site/client counts".to_owned(),
            );
        }
        let base_days = cast::usize_from_u32(self.store.base_days());
        let mut prefix = StudyPrefix::new(world);
        prefix
            .simulate_through(base_days, self.workers)
            .map_err(|e| format!("base days did not fold: {e}"))?;
        let (rebuilt, prefix) = self.encode(prefix, &mut RebuildClock::start())?;
        let rebuilt_id = Snapshot::from_bytes(&rebuilt)
            .map_err(|e| format!("boot verification rebuild did not decode: {e}"))?
            .id();
        let serving_id = self.store.current().snapshot().id();
        if rebuilt_id != serving_id {
            return Err(format!(
                "boot verification failed: rebuilt {rebuilt_id} but serving {serving_id}; \
                 the snapshot is not this world's day prefix"
            ));
        }
        Ok(prefix)
    }

    /// Pools one validated delta; when the pool now extends the folded
    /// prefix, folds those bundles into it, rebuilds and swaps.
    fn apply(&mut self, mut prefix: StudyPrefix, delta: Delta) -> Result<StudyPrefix, String> {
        self.lineage.push(delta.id());
        let days = delta.days();
        let pending = Pending {
            last_day: days.last().copied().unwrap_or(0),
            n_days: cast::u32_from_usize(days.len()),
            shards: delta.into_shards(),
        };
        self.pool.push(pending);
        let Some(shards) = self.take_foldable(prefix.days()) else {
            // Out-of-order arrival left a gap below the new days: hold the
            // shards, swap nothing. The generation advances when the gap
            // fills — the serving index is always a verified prefix.
            return Ok(prefix);
        };
        let mut clock = RebuildClock::start();
        prefix
            .fold(shards)
            .map_err(|e| format!("shard fold rejected the pool: {e}"))?;
        clock.lap(RebuildStep::Fold);
        let (bytes, prefix) = self.encode(prefix, &mut clock)?;
        let snapshot = Snapshot::from_bytes(&bytes)
            .map_err(|e| format!("rebuilt snapshot did not decode: {e}"))?;
        clock.lap(RebuildStep::Decode);
        let generation = self.store.generation() + 1;
        let next = QuerySnapshot::with_generation(snapshot, generation, &self.lineage);
        clock.lap(RebuildStep::QuerySnapshot);
        self.store.metrics.record_rebuild(&clock);
        self.store.swap(Arc::new(next));
        Ok(prefix)
    }

    /// Removes from the pool, merged into one shard, the bundles that
    /// extend the `folded` prefix furthest: the longest run of days
    /// `folded..m` that bundles lying wholly below `m` cover exactly.
    /// `None` when no such run exists.
    ///
    /// Bundles count whole: one whose days straddle a gap ({3, 5} over
    /// days 0–2) waits until the gap fills. Pooled days are distinct and
    /// all `>= folded` (submit refuses a day twice), so the bundles wholly
    /// below `m` cover `folded..m` exactly when they hold `m - folded`
    /// days.
    fn take_foldable(&mut self, folded: usize) -> Option<DayShards> {
        use topple_vantage::Shard as _;

        self.pool.sort_by_key(|p| p.last_day);
        let mut held = 0usize;
        let mut take = 0;
        for (i, p) in self.pool.iter().enumerate() {
            held += cast::usize_from_u32(p.n_days);
            if cast::usize_from_u32(p.last_day) + 1 == folded + held {
                take = i + 1;
            }
        }
        if take == 0 {
            return None;
        }
        let mut merged = DayShards::identity();
        for p in self.pool.drain(..take) {
            merged.merge(p.shards);
        }
        Some(merged)
    }

    /// Assembles the prefix into a study, encodes it, and takes the study
    /// apart again so the prefix stays resident.
    fn encode(
        &self,
        prefix: StudyPrefix,
        clock: &mut RebuildClock,
    ) -> Result<(Vec<u8>, StudyPrefix), String> {
        let study =
            Study::from_prefix(prefix).map_err(|e| format!("study did not assemble: {e}"))?;
        clock.lap(RebuildStep::Assemble);
        let bytes = encode_study(&study, &self.scale, &self.artifacts);
        let prefix = study.into_prefix();
        clock.lap(RebuildStep::Encode);
        Ok((bytes, prefix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaIdentity;
    use topple_vantage::DayScratch;

    const SEED: u64 = 74;

    fn tiny_world() -> World {
        World::generate(WorldConfig::tiny(SEED)).expect("world")
    }

    /// A base snapshot of the first `days` days of the tiny world.
    fn base_snapshot(days: usize) -> QuerySnapshot {
        let world = tiny_world();
        let shards = topple_core::observe_day_shards(&world, days, 1);
        let study = Study::from_shards(world, shards).expect("study");
        let bytes = encode_study(&study, "tiny", &[("report".into(), "body".into())]);
        QuerySnapshot::new(Snapshot::from_bytes(&bytes).expect("decodes"))
    }

    fn delta_for_day(day: usize) -> Delta {
        let world = tiny_world();
        let shards = DayScratch::new(&world).observe_day(&world, day);
        Delta::new(
            DeltaIdentity {
                seed: SEED,
                n_sites: world.config.n_sites as u64,
                n_clients: world.config.n_clients as u64,
                scale: "tiny".to_owned(),
            },
            shards,
        )
        .expect("delta")
    }

    fn live_fixture(base_days: usize) -> (Arc<LiveStore>, LiveEngine) {
        let window = tiny_world().config.days.len() as u32;
        let store = Arc::new(LiveStore::new(
            base_snapshot(base_days),
            window,
            Arc::new(Metrics::new()),
            Arc::new(Lru::new(8)),
        ));
        let engine = LiveEngine::new(Arc::clone(&store), WorldConfig::tiny(SEED), 1);
        (store, engine)
    }

    #[test]
    fn submit_validates_before_accepting() {
        let (store, _engine) = live_fixture(3);
        // Garbage bytes are a 4xx-class delta error.
        assert!(matches!(
            store.submit(b"not a delta"),
            Err(LiveError::Delta(ContainerError::BadMagic { .. }))
        ));
        // A delta of another world is refused by the base-identity check.
        let day3 = delta_for_day(3);
        let alien = Delta::new(
            DeltaIdentity {
                seed: SEED + 1,
                ..day3.identity().clone()
            },
            day3.into_shards(),
        )
        .expect("alien delta");
        assert!(matches!(
            store.submit(&alien.to_bytes()),
            Err(LiveError::Delta(ContainerError::BaseMismatch {
                context: "seed"
            }))
        ));
        // A base day cannot be re-ingested.
        assert!(matches!(
            store.submit(&delta_for_day(1).to_bytes()),
            Err(LiveError::Delta(ContainerError::Malformed { .. }))
        ));
        // An in-range, new day is accepted.
        let id = store.submit(&delta_for_day(3).to_bytes()).expect("accepts");
        assert!(id.starts_with("tpld-v1-"));
        // The same day twice is now a duplicate.
        assert!(matches!(
            store.submit(&delta_for_day(3).to_bytes()),
            Err(LiveError::Delta(ContainerError::Malformed { .. }))
        ));
    }

    /// Submits `delta` and applies it from the store's queue: one step of
    /// [`LiveEngine::run`] after boot.
    fn step(
        store: &LiveStore,
        engine: &mut LiveEngine,
        prefix: StudyPrefix,
        delta: &Delta,
    ) -> StudyPrefix {
        store.submit(&delta.to_bytes()).expect("accepts");
        let queued = store.next_delta().expect("queued");
        engine.apply(prefix, queued).expect("applies")
    }

    #[test]
    fn engine_boot_verifies_and_applies_deltas_in_order() {
        let (store, mut engine) = live_fixture(3);
        let base_id = store.current().id().to_owned();
        let mut prefix = engine.boot().expect("boot verifies");
        let window = tiny_world().config.days.len();
        for day in 3..window {
            prefix = step(&store, &mut engine, prefix, &delta_for_day(day));
            assert!(store.poisoned().is_none(), "{:?}", store.poisoned());
            let generation = (day - 2) as u64;
            assert_eq!(store.generation(), generation);
            let now = store.current();
            assert_eq!(now.generation(), generation);
            assert_ne!(now.id(), base_id);
            assert!(now.id().ends_with(&format!("-g{generation}")));
            assert_eq!(now.snapshot().identity.n_days as usize, day + 1);
            // Each swapped snapshot is byte-identical to a cold offline
            // build of the same days (same artifacts), modulo the
            // generation stamp, and nothing is left waiting in the pool.
            assert_eq!(
                now.snapshot().id(),
                base_snapshot(day + 1).snapshot().id(),
                "live fold of days 0..={day} must equal the offline rebuild"
            );
            assert!(engine.pool.is_empty(), "day {day} left bundles pooled");
            assert_eq!(prefix.days(), day + 1);
            let body = std::str::from_utf8(now.snapshot_bytes()).expect("utf8");
            assert!(body.contains(&format!("\"generation\":{generation}")));
            assert!(body.contains("tpld-v1-"), "{body}");
        }
    }

    /// The number after `"key":` in the first object named `object`.
    fn metric(body: &str, object: &str, key: &str) -> u64 {
        let at = body.find(&format!("\"{object}\":{{")).expect("object");
        let rest = &body[at..];
        let at = rest.find(&format!("\"{key}\":")).expect("key") + key.len() + 3;
        let digits: String = rest[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().expect("a number")
    }

    #[test]
    fn rebuild_steps_reach_the_metrics_after_a_swap() {
        let (store, mut engine) = live_fixture(3);
        let steps = ["fold", "assemble", "encode", "decode", "query_snapshot"];
        let before = store.metrics().render("x");
        for step in steps {
            assert_eq!(metric(&before, "total", step), 0, "{step} before any swap");
        }
        let mut prefix = engine.boot().expect("boot verifies");
        let booted = store.metrics().render("x");
        assert_eq!(
            metric(&booted, "total", "assemble"),
            0,
            "boot is not a swap"
        );
        for day in [3, 4] {
            prefix = step(&store, &mut engine, prefix, &delta_for_day(day));
        }
        assert_eq!(prefix.days(), 5);
        let body = store.metrics().render("x");
        assert!(body.contains("\"swaps\":2"), "{body}");
        for step in steps {
            let last = metric(&body, "last", step);
            let total = metric(&body, "total", step);
            assert!(last <= total, "{step}: last {last} > total {total}");
        }
        // A tiny assemble still takes well over a microsecond, twice.
        assert!(metric(&body, "total", "assemble") >= 2, "{body}");
        assert!(metric(&body, "total", "query_snapshot") >= 2, "{body}");
    }

    #[test]
    fn engine_run_drains_the_queue_and_applies_deltas_in_order() {
        let (store, engine) = live_fixture(3);
        store.submit(&delta_for_day(3).to_bytes()).expect("day 3");
        store.submit(&delta_for_day(4).to_bytes()).expect("day 4");
        store.shutdown();
        engine.run(); // boots, drains the queue, then exits on stop
        assert!(store.poisoned().is_none(), "{:?}", store.poisoned());
        assert_eq!(store.generation(), 2);
        assert_eq!(
            store.current().snapshot().id(),
            base_snapshot(5).snapshot().id()
        );
    }

    #[test]
    fn a_bundle_straddling_a_gap_waits_for_the_gap() {
        let (store, mut engine) = live_fixture(3);
        let base_id = store.current().snapshot().id();
        let mut prefix = engine.boot().expect("boot verifies");
        // Days {3, 5} in one bundle: day 3 extends the prefix, but the
        // bundle also holds day 5 above the hole at day 4, so nothing folds.
        let straddling =
            Delta::compact(vec![delta_for_day(3), delta_for_day(5)]).expect("compacts");
        assert_eq!(straddling.days(), &[3u32, 5]);
        prefix = step(&store, &mut engine, prefix, &straddling);
        assert!(store.poisoned().is_none(), "{:?}", store.poisoned());
        assert_eq!(store.generation(), 0, "no swap while day 4 is missing");
        assert_eq!(store.current().snapshot().id(), base_id);
        assert_eq!(prefix.days(), 3);
        assert_eq!(engine.pool.len(), 1);
        // Day 4 fills the hole: one swap, to six days.
        prefix = step(&store, &mut engine, prefix, &delta_for_day(4));
        assert!(store.poisoned().is_none(), "{:?}", store.poisoned());
        assert_eq!(store.generation(), 1);
        assert_eq!(store.current().snapshot().identity.n_days, 6);
        assert_eq!(
            store.current().snapshot().id(),
            base_snapshot(6).snapshot().id()
        );
        assert_eq!(prefix.days(), 6);
        assert!(engine.pool.is_empty());
    }

    #[test]
    fn out_of_order_days_swap_only_when_the_gap_fills() {
        let (store, engine) = live_fixture(3);
        // Day 4 first: accepted, but day 3 is missing — no swap yet.
        store.submit(&delta_for_day(4).to_bytes()).expect("day 4");
        store.submit(&delta_for_day(3).to_bytes()).expect("day 3");
        store.shutdown();
        engine.run();
        assert!(store.poisoned().is_none(), "{:?}", store.poisoned());
        // One swap: the gap-filling delta brought both days in at once.
        assert_eq!(store.generation(), 1);
        assert_eq!(store.current().snapshot().identity.n_days, 5);
        // Same index bytes as the in-order path produced at its final step.
        assert_eq!(
            store.current().snapshot().id(),
            base_snapshot(5).snapshot().id()
        );
    }

    #[test]
    fn poisoned_store_keeps_serving_but_refuses_ingest() {
        let (store, _engine) = live_fixture(3);
        let before = store.current().id().to_owned();
        store.poison("verification failed".to_owned());
        assert!(matches!(
            store.submit(&delta_for_day(3).to_bytes()),
            Err(LiveError::Poisoned(_))
        ));
        assert_eq!(store.current().id(), before);
        assert_eq!(store.poisoned().as_deref(), Some("verification failed"));
    }

    #[test]
    fn swap_clears_the_compare_cache_and_publishes_last() {
        let cache = Arc::new(Lru::new(8));
        let metrics = Arc::new(Metrics::new());
        let store = LiveStore::new(
            base_snapshot(3),
            7,
            Arc::clone(&metrics),
            Arc::clone(&cache),
        );
        cache.insert(9, "stale".into());
        let next = QuerySnapshot::with_generation(
            Snapshot::from_bytes(&{
                let world = tiny_world();
                let shards = topple_core::observe_day_shards(&world, 4, 1);
                let study = Study::from_shards(world, shards).expect("study");
                encode_study(&study, "tiny", &[("report".into(), "body".into())])
            })
            .expect("decodes"),
            1,
            &["tpld-test".to_owned()],
        );
        store.swap(Arc::new(next));
        assert_eq!(store.generation(), 1);
        assert_eq!(cache.get(9), None, "swap must clear the compare cache");
        assert!(metrics.render("x").contains("\"swaps\":1"));
    }
}
