//! Epoch-stamped scratch structures for allocation-free per-day ingestion.
//!
//! The fused ingestion path (see [`crate::fused`]) accumulates one day of
//! traffic at a time into dense working tables, then resets them for the
//! next day. Resetting by reallocation (or even by `clear()`-and-rezero)
//! would put an `O(capacity)` cost and fresh heap traffic on every day; the
//! structures here instead stamp each slot with the *epoch* (day generation
//! counter) that last wrote it. Bumping the epoch invalidates every slot in
//! `O(1)`, and a slot whose stamp is stale reads as its `Default` value —
//! indistinguishable from a freshly zeroed table. That equivalence is the
//! **scratch-epoch invariant**, pinned by the property tests in
//! `crates/vantage/tests/scratch_props.rs`.
//!
//! [`ScratchTable`] epochs are `u64` and only ever incremented, so they
//! cannot wrap within any feasible run (2^64 days). [`ScratchMap`] stamps
//! are `u32` to keep its slots small; on the one epoch in 2^32 where its
//! counter would wrap, it clears every stamp first, so a stale slot can
//! never read as current.
//!
//! Three pieces:
//!
//! * [`ScratchTable`] — a dense index-addressed table (for site- or
//!   name-indexed accumulators over the world's fixed universe).
//! * [`ScratchMap`] — an open-addressed `u64`-keyed hash map (for sparse
//!   composite keys like `(site, ip)` packed into 64 bits). A map whose
//!   epoch is never bumped is a plain persistent table: the vantages' fold
//!   state (TTL cache, vote cells, seen-client sets) lives in such maps.
//! * [`KeyPacker`] — lossless mixed-radix packing of bounded id tuples into
//!   the `u64` keys those maps take, with the width checked once up front.

use std::fmt;

/// A dense, epoch-stamped table addressed by `usize` index.
///
/// `slot(i)` returns the value for `i` in the current epoch, resetting it to
/// `V::default()` first if the slot was last written in an earlier epoch.
/// [`ScratchTable::begin_epoch`] therefore "clears" the whole table in
/// `O(1)` without touching memory.
#[derive(Debug)]
pub struct ScratchTable<V> {
    stamps: Vec<u64>,
    vals: Vec<V>,
    epoch: u64,
}

impl<V: Default + Clone> ScratchTable<V> {
    /// A table covering indices `0..len` (the universe size is fixed per
    /// world, so the one allocation happens at construction).
    pub fn with_len(len: usize) -> Self {
        ScratchTable {
            stamps: vec![0; len],
            vals: vec![V::default(); len],
            // Stamps start at 0, so the first epoch must be 1 — otherwise
            // every slot would read as already claimed.
            epoch: 1,
        }
    }

    /// Starts a new epoch: every slot now reads as `V::default()`.
    pub fn begin_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Mutable access to slot `i`, plus whether this is the slot's first
    /// touch in the current epoch (after the reset to default).
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside the constructed length.
    pub fn slot(&mut self, i: usize) -> (bool, &mut V) {
        let first = self.stamps[i] != self.epoch;
        if first {
            self.stamps[i] = self.epoch;
            self.vals[i] = V::default();
        }
        (first, &mut self.vals[i])
    }

    /// Reads slot `i` without claiming it: the current-epoch value, or
    /// `V::default()` if untouched this epoch.
    pub fn peek(&self, i: usize) -> V {
        if self.stamps[i] == self.epoch {
            self.vals[i].clone()
        } else {
            V::default()
        }
    }

    /// The constructed length.
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// Whether the table covers no indices at all.
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }
}

/// An open-addressed, linear-probed hash map from packed `u64` keys to `V`,
/// with epoch-stamped slots.
///
/// Designed for the per-day uniqueness tracking in the fused ingestion path:
/// `entry(key)` either finds the key's current-epoch slot or claims a stale
/// one (resetting it to `V::default()`), reporting which happened. The table
/// grows geometrically at 7/8 load — growth re-seats only current-epoch
/// entries, and once a scratch has seen its heaviest day the capacity is
/// final, making subsequent days allocation-free.
///
/// Hash-layout order is never exposed: the only iteration,
/// [`ScratchMap::sorted`], hands entries out in ascending key order, so
/// results stay independent of the table's layout and growth history.
#[derive(Debug)]
pub struct ScratchMap<V> {
    slots: Vec<Slot<V>>,
    epoch: u32,
    live: usize,
}

/// One table slot. Key, stamp and value sit together so a probe touches one
/// cache line, not one per field; the key is stored as two `u32` halves so
/// a slot is 4-byte aligned and a key-only slot takes 12 bytes, not 16.
#[derive(Debug, Clone, Default)]
struct Slot<V> {
    key: [u32; 2],
    stamp: u32,
    val: V,
}

impl<V> Slot<V> {
    #[inline]
    fn key(&self) -> u64 {
        (u64::from(self.key[1]) << 32) | u64::from(self.key[0])
    }

    #[inline]
    fn set_key(&mut self, key: u64) {
        self.key = [key as u32, (key >> 32) as u32];
    }
}

/// Initial capacity (slots) of a [`ScratchMap`]; always a power of two.
const MAP_INITIAL_CAPACITY: usize = 64;

/// Multiplicative hash (Fibonacci constant); the high bits index the table.
#[inline]
fn spread(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl<V: Default + Clone> ScratchMap<V> {
    /// An empty map with the default initial capacity.
    pub fn new() -> Self {
        ScratchMap {
            slots: vec![Slot::default(); MAP_INITIAL_CAPACITY],
            // Stamps start at 0, so the first epoch must be 1 — otherwise
            // every slot would look live and probes could cycle forever.
            epoch: 1,
            live: 0,
        }
    }

    /// Starts a new epoch: the map now reads as empty.
    pub fn begin_epoch(&mut self) {
        if self.epoch == u32::MAX {
            // The counter would wrap onto stamps still in the table: clear
            // them all, once per 2^32 epochs, and restart the count.
            for slot in &mut self.slots {
                slot.stamp = 0;
            }
            self.epoch = 0;
        }
        self.epoch += 1;
        self.live = 0;
    }

    /// Number of distinct keys inserted in the current epoch.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no key has been inserted in the current epoch.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The value for `key` in the current epoch, if inserted.
    pub fn get(&self, key: u64) -> Option<&V> {
        let mask = self.slots.len() - 1;
        let mut i = (spread(key) >> 32) as usize & mask;
        loop {
            let slot = &self.slots[i];
            if slot.stamp != self.epoch {
                return None;
            }
            if slot.key() == key {
                return Some(&slot.val);
            }
            i = (i + 1) & mask;
        }
    }

    /// Finds or inserts `key`'s slot for the current epoch. Returns whether
    /// the key is new this epoch (value freshly reset to `V::default()`)
    /// and the slot itself.
    pub fn entry(&mut self, key: u64) -> (bool, &mut V) {
        if (self.live + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (spread(key) >> 32) as usize & mask;
        loop {
            if self.slots[i].stamp != self.epoch {
                let slot = &mut self.slots[i];
                slot.set_key(key);
                slot.stamp = self.epoch;
                slot.val = V::default();
                self.live += 1;
                return (true, &mut slot.val);
            }
            if self.slots[i].key() == key {
                return (false, &mut self.slots[i].val);
            }
            i = (i + 1) & mask;
        }
    }

    /// The current epoch's entries in ascending key order.
    pub fn sorted(&self) -> Vec<(u64, V)> {
        let mut out: Vec<(u64, V)> = self
            .slots
            .iter()
            .filter(|slot| slot.stamp == self.epoch)
            .map(|slot| (slot.key(), slot.val.clone()))
            .collect();
        out.sort_unstable_by_key(|&(key, _)| key);
        out
    }

    /// Doubles capacity, re-seating only the current epoch's live entries.
    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); new_cap]);
        let mask = new_cap - 1;
        for slot in old {
            if slot.stamp != self.epoch {
                continue;
            }
            let mut i = (spread(slot.key()) >> 32) as usize & mask;
            while self.slots[i].stamp == self.epoch {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }
}

impl<V: Default + Clone> Default for ScratchMap<V> {
    fn default() -> Self {
        ScratchMap::new()
    }
}

/// A key space too wide to pack into 64 bits: the product of its radices
/// exceeds `2^64`, so some distinct id tuples would share a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyWidthError {
    /// The radices of the rejected key space, most significant first.
    pub radices: Vec<u64>,
}

impl fmt::Display for KeyWidthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "packed key space {:?} does not fit in 64 bits",
            self.radices
        )
    }
}

impl std::error::Error for KeyWidthError {}

/// Lossless mixed-radix packing of `N` bounded ids into one `u64`.
///
/// Digit `i` must lie in `0..radices[i]`; the first digit is the most
/// significant, so packed keys sort exactly like the digit tuples they
/// encode. [`KeyPacker::new`] checks once that the whole key space fits in
/// 64 bits, and [`KeyPacker::pack`] checks every digit against its radix,
/// so two distinct tuples can never share a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyPacker<const N: usize> {
    radices: [u64; N],
}

impl<const N: usize> KeyPacker<N> {
    /// A packer over `radices`, or [`KeyWidthError`] if their product
    /// exceeds `2^64` (or a radix is zero, which leaves no valid digit).
    pub fn new(radices: [u64; N]) -> Result<Self, KeyWidthError> {
        let mut span: u128 = 1;
        for &r in &radices {
            span = span.saturating_mul(u128::from(r));
        }
        if span == 0 || span > 1u128 << 64 {
            return Err(KeyWidthError {
                radices: radices.to_vec(),
            });
        }
        Ok(KeyPacker { radices })
    }

    /// Packs `digits` into one key.
    ///
    /// # Panics
    ///
    /// Panics if a digit is not below its radix: such a tuple has no key of
    /// its own, and packing it anyway would alias another tuple's key.
    #[inline]
    pub fn pack(&self, digits: [u64; N]) -> u64 {
        let mut key = 0u64;
        for (&d, &r) in digits.iter().zip(&self.radices) {
            assert!(d < r, "packed-key digit {d} outside its radix {r}");
            // Cannot overflow: the radix product fits in 2^64 (checked in
            // `new`) and every digit is below its radix.
            key = key * r + d;
        }
        key
    }

    /// Recovers the digits of a key made by [`KeyPacker::pack`].
    pub fn unpack(&self, mut key: u64) -> [u64; N] {
        let mut digits = [0u64; N];
        for (d, &r) in digits.iter_mut().zip(&self.radices).rev() {
            *d = key % r;
            key /= r;
        }
        digits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_epoch_reads_as_fresh() {
        let mut t: ScratchTable<u32> = ScratchTable::with_len(8);
        let (first, v) = t.slot(3);
        assert!(first);
        *v = 7;
        assert_eq!(t.peek(3), 7);
        let (first, v) = t.slot(3);
        assert!(!first);
        assert_eq!(*v, 7);
        t.begin_epoch();
        assert_eq!(t.peek(3), 0, "stale slot must read as default");
        let (first, v) = t.slot(3);
        assert!(first, "stale slot must be re-claimable");
        assert_eq!(*v, 0);
    }

    #[test]
    fn map_entry_tracks_freshness_across_epochs() {
        let mut m: ScratchMap<u8> = ScratchMap::new();
        let (fresh, v) = m.entry(42);
        assert!(fresh);
        *v = 9;
        let (fresh, v) = m.entry(42);
        assert!(!fresh);
        assert_eq!(*v, 9);
        assert_eq!(m.len(), 1);
        m.begin_epoch();
        assert!(m.get(42).is_none());
        assert!(m.is_empty());
        let (fresh, v) = m.entry(42);
        assert!(fresh, "key from a past epoch must count as new");
        assert_eq!(*v, 0);
    }

    #[test]
    fn map_grows_past_load_factor_and_keeps_entries() {
        let mut m: ScratchMap<u64> = ScratchMap::new();
        for k in 0..1000u64 {
            let key = k.wrapping_mul(0x1234_5678_9ABC_DEF1);
            let (fresh, v) = m.entry(key);
            assert!(fresh);
            *v = k;
        }
        assert_eq!(m.len(), 1000);
        for k in 0..1000u64 {
            let key = k.wrapping_mul(0x1234_5678_9ABC_DEF1);
            assert_eq!(m.get(key), Some(&k));
        }
    }

    #[test]
    fn map_probes_past_bucket_collisions() {
        // Keys 1, 60, 129 all spread into bucket 57 of the 64-slot initial
        // table (verified against `spread` below), so the second and third
        // inserts exercise the linear-probe path, not the happy path.
        let colliding = [1u64, 60, 129];
        let mask = MAP_INITIAL_CAPACITY - 1;
        for &k in &colliding {
            assert_eq!(
                (spread(k) >> 32) as usize & mask,
                (spread(colliding[0]) >> 32) as usize & mask,
                "test premise: keys must share a bucket"
            );
        }
        let mut m: ScratchMap<u64> = ScratchMap::new();
        for &k in &colliding {
            let (fresh, v) = m.entry(k);
            assert!(fresh, "distinct colliding keys must each claim a slot");
            *v = k * 10;
        }
        assert_eq!(m.len(), 3);
        for &k in &colliding {
            assert_eq!(m.get(k), Some(&(k * 10)), "probe chain must find {k}");
            let (fresh, v) = m.entry(k);
            assert!(!fresh, "re-entry must reuse the probed slot for {k}");
            assert_eq!(*v, k * 10);
        }
        // A fourth key in a different bucket is unaffected by the chain.
        assert!(m.get(2).is_none());
    }

    #[test]
    fn map_probe_wraps_around_the_table_end() {
        // Keys 69, 128, 187 all spread into the LAST slot (63) of the
        // 64-slot initial table, so the probe sequence must wrap to slot 0
        // via the index mask rather than run off the end.
        let wrapping = [69u64, 128, 187];
        let mask = MAP_INITIAL_CAPACITY - 1;
        for &k in &wrapping {
            assert_eq!(
                (spread(k) >> 32) as usize & mask,
                mask,
                "test premise: keys must hash to the final slot"
            );
        }
        let mut m: ScratchMap<u64> = ScratchMap::new();
        for &k in &wrapping {
            let (fresh, v) = m.entry(k);
            assert!(fresh);
            *v = k + 1;
        }
        for &k in &wrapping {
            assert_eq!(m.get(k), Some(&(k + 1)), "wrapped probe must find {k}");
        }
        // Absent keys whose bucket sits inside the wrapped chain terminate
        // (the chain stamps break the loop) instead of probing forever.
        assert!(m.get(u64::MAX).is_none());
        // Freshness survives the wrap across epochs too.
        m.begin_epoch();
        for &k in &wrapping {
            assert!(m.get(k).is_none(), "{k} must expire with the epoch");
        }
        let (fresh, _) = m.entry(wrapping[2]);
        assert!(fresh, "wrapped slot must be re-claimable next epoch");
    }

    #[test]
    fn map_epoch_wrap_clears_stale_stamps() {
        let mut m: ScratchMap<u32> = ScratchMap::new();
        // Run the counter up to the wrap with entries written at both ends
        // of the stamp range.
        m.epoch = 1;
        *m.entry(7).1 = 70;
        m.epoch = u32::MAX - 1;
        m.begin_epoch();
        *m.entry(8).1 = 80;
        assert_eq!(m.epoch, u32::MAX);
        m.begin_epoch();
        // Epoch 1 again: the key stamped 1 long ago must not resurrect, and
        // the key stamped u32::MAX must be gone too.
        assert_eq!(m.epoch, 1);
        assert!(
            m.get(7).is_none(),
            "pre-wrap stamp leaked into the new cycle"
        );
        assert!(
            m.get(8).is_none(),
            "last-cycle stamp leaked across the wrap"
        );
        let (fresh, v) = m.entry(7);
        assert!(fresh);
        assert_eq!(*v, 0);
    }
}
