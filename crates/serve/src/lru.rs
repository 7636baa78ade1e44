//! A small sharded LRU for hot compare cells.
//!
//! A `/v1/compare` miss walks the shorter top-k cut against the other
//! list's position column and formats a body; repeated queries for the same
//! `(a, b, k)` cell — the common dashboard pattern — hit this cache instead
//! and skip both the walk and the formatting. Keys are the request parameters alone and values
//! are the full response bodies, so a hit returns exactly the bytes a miss
//! would have computed: the cache can change latency, never content.
//!
//! Sharding keeps the hot path to one short `Mutex` over a tiny `Vec` per
//! shard. Entries are scanned linearly (capacities are double-digit) and
//! moved to the front on hit; no hash map is ever iterated, so determinism
//! is structural, not incidental.

use std::sync::{Arc, Mutex};

/// Shards in the cache. A power of two so shard selection is a mask.
const SHARDS: usize = 8;

/// One shard: most-recently-used first.
struct Shard {
    entries: Vec<(u64, Arc<str>)>,
}

/// Sharded LRU from a `u64` key to a shared response body. Values are
/// `Arc<str>` so a hit hands back the cached bytes with a reference-count
/// bump — no clone of the body, no heap allocation on the serve hot path.
pub struct Lru {
    shards: Vec<Mutex<Shard>>,
    per_shard: usize,
}

impl Lru {
    /// A cache holding at most `capacity` entries across all shards
    /// (rounded up to a multiple of the shard count).
    pub fn new(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(SHARDS).max(1);
        Lru {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: Vec::with_capacity(per_shard),
                    })
                })
                .collect(),
            per_shard,
        }
    }

    /// Locks the shard for `key`, recovering from a poisoned mutex: the
    /// cached values are plain strings, always valid, so a panicked peer
    /// cannot have left a shard half-written in any way that matters.
    fn shard(&self, key: u64) -> std::sync::MutexGuard<'_, Shard> {
        let at = (key as usize) & (SHARDS - 1);
        match self.shards[at].lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Looks `key` up, moving it to the front of its shard on a hit.
    pub fn get(&self, key: u64) -> Option<Arc<str>> {
        let mut shard = self.shard(key);
        let at = shard.entries.iter().position(|(k, _)| *k == key)?;
        let entry = shard.entries.remove(at);
        let value = Arc::clone(&entry.1);
        shard.entries.insert(0, entry);
        Some(value)
    }

    /// Inserts at the front, evicting the least-recently-used entry when the
    /// shard is full. Racing inserts of the same key keep one copy.
    pub fn insert(&self, key: u64, value: Arc<str>) {
        let mut shard = self.shard(key);
        if let Some(at) = shard.entries.iter().position(|(k, _)| *k == key) {
            shard.entries.remove(at);
        }
        shard.entries.insert(0, (key, value));
        let cap = self.per_shard;
        shard.entries.truncate(cap);
    }

    /// Empties every shard. The live store calls this at each hot-swap:
    /// cached compare bodies embed the previous snapshot's id, so serving
    /// them past a swap would violate the byte-identical guarantee against
    /// the new snapshot.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = match shard.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            shard.entries.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let lru = Lru::new(16);
        assert_eq!(lru.get(7), None);
        lru.insert(7, "seven".into());
        assert_eq!(lru.get(7).as_deref(), Some("seven"));
    }

    #[test]
    fn evicts_least_recent_within_a_shard() {
        let lru = Lru::new(SHARDS); // one entry per shard
                                    // Two keys in the same shard: the second insert evicts the first.
        let (a, b) = (8, 16);
        lru.insert(a, "a".into());
        lru.insert(b, "b".into());
        assert_eq!(lru.get(a), None);
        assert_eq!(lru.get(b).as_deref(), Some("b"));
    }

    #[test]
    fn clear_empties_every_shard() {
        let lru = Lru::new(16);
        for k in 0..16u64 {
            lru.insert(k, "v".into());
        }
        lru.clear();
        for k in 0..16u64 {
            assert_eq!(lru.get(k), None);
        }
    }

    #[test]
    fn reinsert_replaces() {
        let lru = Lru::new(16);
        lru.insert(3, "old".into());
        lru.insert(3, "new".into());
        assert_eq!(lru.get(3).as_deref(), Some("new"));
    }
}
