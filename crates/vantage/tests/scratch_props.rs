//! Property suite for the epoch-stamped scratch primitives.
//!
//! The scratch-epoch invariant — after `begin_epoch`, every slot reads as
//! if freshly zeroed, regardless of what earlier epochs wrote — is what
//! makes reusing one scratch state across days safe. These properties pit
//! a long-lived, epoch-cleared [`ScratchTable`]/[`ScratchMap`] against a
//! freshly allocated model under randomized operation sequences, including
//! checkout/return interleavings where several logical "days" take turns on
//! a small set of physical scratch states.

use std::collections::BTreeMap;

use proptest::prelude::*;
use topple_vantage::scratch::{ScratchMap, ScratchTable};

const TABLE_LEN: usize = 48;

/// Replays one epoch of table touches against a fresh zeroed model.
fn check_table_epoch(table: &mut ScratchTable<u32>, touches: &[u16]) {
    table.begin_epoch();
    let mut model = [0u32; TABLE_LEN];
    let mut touched = [false; TABLE_LEN];
    for &t in touches {
        let i = usize::from(t) % TABLE_LEN;
        let (first, v) = table.slot(i);
        assert_eq!(first, !touched[i], "first-touch flag diverged at {i}");
        touched[i] = true;
        *v += u32::from(t) + 1;
        model[i] += u32::from(t) + 1;
    }
    for (i, &want) in model.iter().enumerate() {
        assert_eq!(table.peek(i), want, "slot {i} diverged from model");
    }
}

/// Replays one epoch of map entries against a fresh `BTreeMap` model.
fn check_map_epoch(map: &mut ScratchMap<u32>, keys: &[u64]) {
    map.begin_epoch();
    let mut model: BTreeMap<u64, u32> = BTreeMap::new();
    for &k in keys {
        let (fresh, v) = map.entry(k);
        assert_eq!(fresh, !model.contains_key(&k), "freshness diverged at {k}");
        *v += 1;
        *model.entry(k).or_insert(0) += 1;
    }
    assert_eq!(map.len(), model.len());
    for (&k, &want) in &model {
        assert_eq!(map.get(k), Some(&want), "value diverged at key {k}");
    }
    // Keys never inserted this epoch must read as absent, even if a prior
    // epoch wrote them (stale stamps are the whole point).
    for probe in 0..64u64 {
        let k = probe.wrapping_mul(0x5851_F42D_4C95_7F2D);
        if !model.contains_key(&k) {
            assert_eq!(map.get(k), None, "stale key {k} leaked across epochs");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An epoch-cleared table is indistinguishable from a freshly zeroed
    /// one across many consecutive epochs with random touch patterns.
    #[test]
    fn table_epoch_clearing_equals_fresh_table(
        epochs in proptest::collection::vec(
            proptest::collection::vec(any::<u16>(), 0..200), 1..8)
    ) {
        let mut table = ScratchTable::<u32>::with_len(TABLE_LEN);
        for touches in &epochs {
            check_table_epoch(&mut table, touches);
        }
    }

    /// Same for the open-addressed map, with keys drawn from a small range
    /// (forcing cross-epoch collisions) and a large one (forcing growth).
    #[test]
    fn map_epoch_clearing_equals_fresh_map(
        epochs in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 0..150), 1..8),
        narrow in proptest::collection::vec(0u64..24, 0..150),
    ) {
        let mut map = ScratchMap::<u32>::new();
        check_map_epoch(&mut map, &narrow);
        for keys in &epochs {
            check_map_epoch(&mut map, keys);
        }
    }

    /// Reuse across tasks: logical tasks take states from a free list in a
    /// randomized interleaving; whichever physical state a task lands on
    /// — brand new or warmed by any previous task — behaves identically to
    /// a fresh one.
    #[test]
    fn pooled_scratch_is_indistinguishable_from_fresh(
        lanes in proptest::collection::vec(0u8..3, 1..24),
        keysets in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 0..60), 1..24),
    ) {
        let mut free: Vec<ScratchMap<u32>> = Vec::new();
        // Up to three states in flight at once, returned in varying order.
        let mut held: Vec<ScratchMap<u32>> = Vec::new();
        for (lane, keys) in lanes.iter().zip(&keysets) {
            let mut state = free.pop().unwrap_or_default();
            check_map_epoch(&mut state, keys);
            held.push(state);
            // Return a lane-dependent member, not necessarily the newest:
            // interleavings where a warmed state skips several "days" before
            // its next checkout are the interesting ones.
            if held.len() > usize::from(*lane) {
                let idx = usize::from(*lane) % held.len();
                free.push(held.swap_remove(idx));
            }
        }
    }
}
