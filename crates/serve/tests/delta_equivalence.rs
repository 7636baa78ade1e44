//! Property tests for the live-update algebra: applying day deltas over a
//! base — in any order, and through `compact` — rebuilds a snapshot
//! byte-identical to a cold full build, and any corruption or truncation
//! of a `tpld` container fails closed with a typed error.
//!
//! `Study::from_shards` is the cold oracle here. The live engine never
//! runs it per delta: it folds each day once into a resident
//! `StudyPrefix`, and `from_shards` folds the same merged days once into
//! a fresh one, so both go through one fold and one assemble. Byte-equality
//! of every base/delta split and order here, together with the per-swap
//! checks in `live.rs`, means a hot-swapped server answers every query
//! with the same bytes a freshly-restarted one would.

// Test harness: aborting on a broken fixture is the correct failure mode
// (clippy.toml's allow-*-in-tests covers `#[test]` fns but not helpers).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::OnceLock;

use proptest::{proptest, ProptestConfig};
use topple_core::Study;
use topple_serve::delta::HEADER_LEN;
use topple_serve::{encode_study, Delta, DeltaError, DeltaIdentity};
use topple_sim::{World, WorldConfig};
use topple_vantage::DayScratch;

const SEED: u64 = 20220201;

fn world() -> World {
    World::generate(WorldConfig::tiny(SEED)).expect("tiny world")
}

fn identity(world: &World) -> DeltaIdentity {
    DeltaIdentity {
        seed: world.config.seed,
        n_sites: world.config.n_sites as u64,
        n_clients: world.config.n_clients as u64,
        scale: "tiny".to_owned(),
    }
}

/// One observed day as a [`Delta`], exactly what `snapshot delta` writes
/// and `POST /v1/admin/ingest` accepts.
fn day_delta(world: &World, day: usize) -> Delta {
    Delta::new(
        identity(world),
        DayScratch::new(world).observe_day(world, day),
    )
    .expect("delta encodes")
}

/// Snapshot bytes of a cold full rebuild over the whole tiny window.
fn full_rebuild() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let w = world();
        let days = w.config.days.len();
        let shards = topple_core::observe_day_shards(&w, days, 1);
        let study = Study::from_shards(w, shards).expect("full study");
        encode_study(&study, "tiny", &[])
    })
}

/// One serialized day-5 delta shared by the corruption/truncation cases.
fn baseline_delta() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| day_delta(&world(), 5).to_bytes())
}

/// Rebuilds snapshot bytes from a base prefix plus per-day delta bundles in
/// the given order — the exact computation the live engine runs on a swap.
fn incremental_rebuild(base_days: usize, delta_order: &[usize]) -> Vec<u8> {
    let w = world();
    let mut bundles = topple_core::observe_day_shards(&w, base_days, 1);
    for &day in delta_order {
        // Round-trip each delta through its wire form: what the engine
        // applies is what survived framing + CRC + typed decode.
        let delta = Delta::from_bytes(&day_delta(&w, day).to_bytes()).expect("decodes");
        bundles.push(delta.into_shards());
    }
    let study = Study::from_shards(w, bundles).expect("incremental study");
    encode_study(&study, "tiny", &[])
}

#[test]
fn deltas_over_any_base_match_the_full_rebuild() {
    let window = world().config.days.len();
    for base_days in [1, 3, window - 1] {
        let order: Vec<usize> = (base_days..window).collect();
        assert_eq!(
            incremental_rebuild(base_days, &order),
            full_rebuild(),
            "base {base_days} + deltas drifted from the full rebuild"
        );
    }
}

#[test]
fn compacted_deltas_match_the_full_rebuild() {
    let w = world();
    let window = w.config.days.len();
    let base_days = 4;
    let compacted =
        Delta::compact((base_days..window).map(|d| day_delta(&w, d)).collect()).expect("compacts");
    assert_eq!(compacted.days(), &[4u32, 5, 6]);
    let roundtrip = Delta::from_bytes(&compacted.to_bytes()).expect("decodes");

    let mut bundles = topple_core::observe_day_shards(&w, base_days, 1);
    bundles.push(roundtrip.into_shards());
    let study = Study::from_shards(w, bundles).expect("compacted study");
    assert_eq!(
        encode_study(&study, "tiny", &[]),
        full_rebuild(),
        "compact(deltas) drifted from the full rebuild"
    );
}

#[test]
fn compacting_mismatched_bases_fails_closed() {
    let w = world();
    let mut alien = day_delta(&w, 6);
    alien = Delta::new(
        DeltaIdentity {
            seed: SEED + 1,
            ..identity(&w)
        },
        alien.into_shards(),
    )
    .expect("alien delta");
    assert!(matches!(
        Delta::compact(vec![day_delta(&w, 5), alien]),
        Err(DeltaError::BaseMismatch { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Shard merge is commutative: any application order of the day deltas
    /// lands on the same snapshot bytes.
    #[test]
    fn permuted_delta_order_is_byte_identical(base_days in 1usize..=6, shuffle in 0u64..u64::MAX) {
        let window = world().config.days.len();
        let mut order: Vec<usize> = (base_days..window).collect();
        // Deterministic Fisher–Yates driven by the proptest-drawn seed.
        let mut state = shuffle | 1;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        proptest::prop_assert_eq!(
            incremental_rebuild(base_days, &order),
            full_rebuild(),
            "order {:?} over base {} drifted",
            order,
            base_days
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flipping any byte of a `tpld` container must yield a typed error —
    /// never a panic, never a silently-wrong delta. (Unlike `tpls`, the
    /// reserved header bytes are held to zero, so no offset is exempt.)
    #[test]
    fn corruption_fails_closed(offset in 0usize..200_000usize, flip in 1u8..=255u8) {
        let mut bytes = baseline_delta().to_vec();
        let at = offset % bytes.len();
        bytes[at] ^= flip;
        let err = match Delta::from_bytes(&bytes) {
            Err(e) => e,
            Ok(_) => panic!("byte {at} ^ {flip:#04x} decoded successfully"),
        };
        assert!(!err.to_string().is_empty());
    }

    /// Every truncation point must yield a typed error (a short read can
    /// never masquerade as a smaller valid delta).
    #[test]
    fn truncation_fails_closed(keep in 0usize..200_000usize) {
        let bytes = baseline_delta();
        let keep = keep % bytes.len(); // strictly less than full length
        let err = match Delta::from_bytes(&bytes[..keep]) {
            Err(e) => e,
            Ok(_) => panic!("{keep}-byte prefix decoded successfully"),
        };
        if keep >= HEADER_LEN {
            assert!(
                matches!(err, DeltaError::Truncated { .. }),
                "prefix {keep}: expected Truncated, got {err}"
            );
        }
    }

    /// Appending garbage must be rejected, not ignored.
    #[test]
    fn trailing_bytes_fail_closed(extra in 1usize..64usize) {
        let mut bytes = baseline_delta().to_vec();
        let grown = bytes.len() + extra;
        bytes.resize(grown, 0xAA);
        assert!(matches!(
            Delta::from_bytes(&bytes),
            Err(DeltaError::TrailingBytes { .. })
        ));
    }
}
