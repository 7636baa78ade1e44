//! Live ingestion and zero-restart hot-swap serving (DESIGN.md §17).
//!
//! The offline pipeline is *batch*: run the whole study window, write one
//! `tpls` snapshot, serve it immutably. This module makes the window
//! extensible while the daemon runs. New day-shards arrive as checksummed
//! [`Delta`] containers (`POST /v1/admin/ingest`); a background engine
//! merges them into its day pool, rebuilds the full [`QuerySnapshot`] —
//! columnar index, pre-rendered hot cache and all — *off* the serving path,
//! and atomically installs it. Readers never block on a rebuild and never
//! see a half-updated index: a request is served entirely from whichever
//! `Arc<QuerySnapshot>` its worker shard held when the request was parsed.
//!
//! Determinism doctrine, extended to time: shards are commutative monoids
//! ([`Shard::merge`](topple_vantage::Shard::merge)), so the serving state
//! after any set of accepted deltas is a pure function of *which* days were
//! ingested, not when or in what order. Every rebuild runs the exact
//! offline pipeline ([`Study::from_shards`] → [`encode_study`] →
//! [`Snapshot::from_bytes`]), so a live-swapped generation's response
//! bodies are byte-identical to a cold daemon serving a from-scratch
//! snapshot of the same days (pinned by the swap-smoke CI job and
//! `tests/delta_equivalence.rs`).
//!
//! Split of responsibilities:
//!
//! * [`LiveStore`] — the shared handle. Validates and queues submitted
//!   deltas (fail-closed, full validation *before* 202), hands out the
//!   current snapshot, publishes the monotonic generation counter, and
//!   performs the atomic swap (install snapshot, clear the compare cache,
//!   then publish the generation).
//! * [`LiveEngine`] — the single background rebuild thread. At boot it
//!   regenerates the base world, re-observes the base days' shards to seed
//!   its pool, and *verifies* the loaded snapshot by rebuilding it — a
//!   byte-level self-check that the serving file really is this world's
//!   prefix. On any verification or rebuild failure the store is
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

use topple_core::Study;
use topple_sim::{World, WorldConfig};
use topple_stats::cast;
use topple_vantage::DayShards;

use crate::delta::{Delta, DeltaIdentity};
use crate::error::{DeltaError, LiveError};
use crate::lru::Lru;
use crate::metrics::Metrics;
use crate::query::QuerySnapshot;
use crate::snapshot::{encode_study, Snapshot};

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
    /// The base world every delta must extend.
    base_identity: DeltaIdentity,
    /// Days already in the base snapshot when the store booted.
    base_days: u32,
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
        let base_identity = DeltaIdentity::of_base(&initial.snapshot().identity);
        let base_days = initial.snapshot().identity.n_days;
        let generation = AtomicU64::new(initial.generation());
        LiveStore {
            current: Mutex::new(Arc::new(initial)),
            generation,
            base_identity,
            base_days,
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
        self.base_days
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
        delta.identity().check(&self.base_identity)?;
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
                return Err(LiveError::Delta(DeltaError::Malformed {
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

impl DeltaIdentity {
    /// Field-by-field equality against the store's base identity, with the
    /// same error vocabulary as [`DeltaIdentity::check_base`].
    fn check(&self, base: &DeltaIdentity) -> Result<(), DeltaError> {
        if self.seed != base.seed {
            return Err(DeltaError::BaseMismatch { context: "seed" });
        }
        if self.n_sites != base.n_sites {
            return Err(DeltaError::BaseMismatch {
                context: "site count",
            });
        }
        if self.n_clients != base.n_clients {
            return Err(DeltaError::BaseMismatch {
                context: "client count",
            });
        }
        if self.scale != base.scale {
            return Err(DeltaError::BaseMismatch {
                context: "scale label",
            });
        }
        Ok(())
    }
}

/// The background rebuild engine: owns the day-shard pool and runs the
/// offline pipeline per applied delta.
pub struct LiveEngine {
    store: Arc<LiveStore>,
    config: WorldConfig,
    scale: String,
    /// Artifacts carried over from the base snapshot: rendered reports are
    /// a function of the *base* study, and re-rendering them would need the
    /// experiments crate. Lineage makes the carry-over visible.
    artifacts: Vec<(String, String)>,
    workers: usize,
    /// One entry per ingested shard bundle (base days first, then deltas
    /// in application order). Rebuilds merge a clone of everything.
    pool: Vec<DayShards>,
    /// Day indices present in the pool.
    days_present: BTreeSet<u32>,
    /// Delta ids applied so far, oldest first.
    lineage: Vec<String>,
    /// Days covered by the snapshot currently serving.
    built_prefix: u32,
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
        let built_prefix = snapshot.identity.n_days;
        drop(current);
        LiveEngine {
            store,
            config,
            scale,
            artifacts,
            workers: workers.max(1),
            pool: Vec::new(),
            days_present: BTreeSet::new(),
            lineage: Vec::new(),
            built_prefix,
        }
    }

    /// Runs the engine until [`LiveStore::shutdown`]: boot verification,
    /// then one pool-merge (+ rebuild and swap, when the ingested days form
    /// a longer contiguous prefix) per queued delta.
    pub fn run(mut self) {
        if let Err(why) = self.boot() {
            self.store.poison(why);
            return;
        }
        while let Some(delta) = self.store.next_delta() {
            if let Err(why) = self.apply(delta) {
                self.store.poison(why);
                return;
            }
        }
    }

    /// Spawns the engine on a named background thread.
    pub fn spawn(self) -> std::io::Result<std::thread::JoinHandle<()>> {
        std::thread::Builder::new()
            .name("topple-live".to_owned())
            .spawn(move || self.run())
    }

    /// Seeds the pool with the base days' shards and proves the loaded
    /// snapshot is exactly this world's prefix by rebuilding it.
    fn boot(&mut self) -> Result<(), String> {
        let base_days = cast::usize_from_u32(self.store.base_days());
        let world = World::generate(self.config.clone())
            .map_err(|e| format!("base world regeneration failed: {e}"))?;
        if world.sites.len() as u64 != self.store.base_identity.n_sites
            || world.clients.len() as u64 != self.store.base_identity.n_clients
        {
            return Err(
                "world config does not reproduce the base snapshot's site/client counts".to_owned(),
            );
        }
        let shards = topple_core::observe_day_shards(&world, base_days, self.workers);
        self.days_present = (0..cast::u32_from_usize(shards.len())).collect();
        self.pool = shards;
        let rebuilt = self.rebuild_bytes(world)?;
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
        Ok(())
    }

    /// Merges one validated delta into the pool; rebuilds and swaps when
    /// the ingested days now form a longer contiguous prefix from day 0.
    fn apply(&mut self, delta: Delta) -> Result<(), String> {
        self.lineage.push(delta.id());
        for &day in delta.days() {
            self.days_present.insert(day);
        }
        self.pool.push(delta.into_shards());
        let prefix = self.contiguous_prefix();
        if prefix <= self.built_prefix {
            // Out-of-order arrival left a gap below the new days: hold the
            // shards, swap nothing. The generation advances when the gap
            // fills — the serving index is always a verified prefix.
            return Ok(());
        }
        let world = World::generate(self.config.clone())
            .map_err(|e| format!("world regeneration failed: {e}"))?;
        let bytes = self.rebuild_bytes(world)?;
        let snapshot = Snapshot::from_bytes(&bytes)
            .map_err(|e| format!("rebuilt snapshot did not decode: {e}"))?;
        let generation = self.store.generation() + 1;
        let next = QuerySnapshot::with_generation(snapshot, generation, &self.lineage);
        self.store.swap(Arc::new(next));
        self.built_prefix = prefix;
        Ok(())
    }

    /// Length of the contiguous day prefix starting at 0 in the pool.
    fn contiguous_prefix(&self) -> u32 {
        let mut n = 0u32;
        for &d in &self.days_present {
            if d != n {
                break;
            }
            n += 1;
        }
        n
    }

    /// Runs the offline pipeline over a clone of the pool's contiguous
    /// prefix: merge → fold → encode. Consumes the world.
    fn rebuild_bytes(&self, world: World) -> Result<Vec<u8>, String> {
        let prefix = self.contiguous_prefix();
        let bundles: Vec<DayShards> = self
            .pool
            .iter()
            .filter(|b| {
                // A bundle joins the rebuild only when *all* its days are
                // inside the prefix; coverage() is Some by construction
                // (validated at submit / observed directly).
                b.coverage()
                    .map(|days| days.iter().all(|&d| cast::u32_from_usize(d) < prefix))
                    .unwrap_or(false)
            })
            .cloned()
            .collect();
        let study = Study::from_shards(world, bundles)
            .map_err(|e| format!("shard fold rejected the pool: {e}"))?;
        Ok(encode_study(&study, &self.scale, &self.artifacts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            Err(LiveError::Delta(DeltaError::BadMagic { .. }))
        ));
        // A base day cannot be re-ingested.
        assert!(matches!(
            store.submit(&delta_for_day(1).to_bytes()),
            Err(LiveError::Delta(DeltaError::Malformed { .. }))
        ));
        // An in-range, new day is accepted.
        let id = store.submit(&delta_for_day(3).to_bytes()).expect("accepts");
        assert!(id.starts_with("tpld-v1-"));
        // The same day twice is now a duplicate.
        assert!(matches!(
            store.submit(&delta_for_day(3).to_bytes()),
            Err(LiveError::Delta(DeltaError::Malformed { .. }))
        ));
    }

    #[test]
    fn engine_boot_verifies_and_applies_deltas_in_order() {
        let (store, engine) = live_fixture(3);
        let base_id = store.current().id().to_owned();
        store.submit(&delta_for_day(3).to_bytes()).expect("day 3");
        store.submit(&delta_for_day(4).to_bytes()).expect("day 4");
        store.shutdown();
        engine.run(); // drains the queue, then exits on stop

        assert!(store.poisoned().is_none(), "{:?}", store.poisoned());
        assert_eq!(store.generation(), 2);
        let now = store.current();
        assert_eq!(now.generation(), 2);
        assert_ne!(now.id(), base_id);
        assert!(now.id().ends_with("-g2"));
        assert_eq!(now.snapshot().identity.n_days, 5);
        // The swapped snapshot is byte-identical to a cold offline build of
        // the same five days (same artifacts), modulo the generation stamp.
        let offline = base_snapshot(5);
        assert_eq!(
            now.snapshot().id(),
            offline.snapshot().id(),
            "live rebuild must equal the offline rebuild"
        );
        let body = std::str::from_utf8(now.snapshot_bytes()).expect("utf8");
        assert!(body.contains("\"generation\":2"));
        assert!(body.contains("tpld-v1-"), "{body}");
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
