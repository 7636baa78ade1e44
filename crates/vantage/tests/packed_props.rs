//! Property suite for the persistent packed-key tables behind the vantage
//! folds.
//!
//! The DNS TTL cache and vote cells and the Chrome seen-client sets are
//! [`ScratchMap`]s whose epoch never advances, keyed by ids packed with a
//! [`KeyPacker`]. Three things must hold for the folds to equal the keyed
//! maps they replaced: the table behaves exactly like a `BTreeMap` over its
//! whole life (growth included), the packing never sends two id tuples to
//! one key, and a world too large to pack is refused with a typed error
//! rather than folded with aliased keys.

use std::collections::BTreeMap;

use proptest::prelude::*;
use topple_sim::WorldConfig;
use topple_vantage::chrome::ChromeKeys;
use topple_vantage::dns::DnsKeys;
use topple_vantage::scratch::{KeyPacker, KeyWidthError, ScratchMap};

/// Keys that stress the probe path: 1, 60 and 129 share a bucket of the
/// initial 64-slot table, 69, 128 and 187 land in its last slot (so their
/// probe chain wraps to slot 0), and the extremes of the key domain.
const EDGE_KEYS: [u64; 8] = [1, 60, 129, 69, 128, 187, 0, u64::MAX];

/// The largest world the configuration presets describe.
fn largest_world() -> (usize, usize) {
    let web = WorldConfig::web(1);
    (web.n_sites, web.n_clients)
}

/// Maps a random word to a key: mostly a narrow range (repeats and
/// collisions), sometimes an edge key, sometimes anything.
fn key_of(word: u64) -> u64 {
    match word % 4 {
        0 => EDGE_KEYS[(word >> 2) as usize % EDGE_KEYS.len()],
        1 => word >> 2,
        _ => (word >> 2) % 512,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Inserts, updates and lookups on a never-cleared map agree with a
    /// `BTreeMap` model at every step, and the key-ordered view equals the
    /// model's iteration.
    #[test]
    fn persistent_table_equals_btreemap(
        ops in proptest::collection::vec(any::<u64>(), 0..3000),
    ) {
        let mut table: ScratchMap<u64> = ScratchMap::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for &word in &ops {
            let key = key_of(word >> 2);
            match word & 3 {
                // Lookup.
                0 => prop_assert_eq!(table.get(key), model.get(&key)),
                // Insert-or-overwrite.
                1 => {
                    let (fresh, v) = table.entry(key);
                    prop_assert_eq!(fresh, !model.contains_key(&key));
                    *v = word;
                    model.insert(key, word);
                }
                // Update in place (the fold's read-modify-write).
                _ => {
                    let (fresh, v) = table.entry(key);
                    prop_assert_eq!(fresh, !model.contains_key(&key));
                    *v = v.wrapping_add(word | 1);
                    let m = model.entry(key).or_insert(0);
                    *m = m.wrapping_add(word | 1);
                }
            }
        }
        prop_assert_eq!(table.len(), model.len());
        let sorted: Vec<(u64, u64)> = model.into_iter().collect();
        prop_assert_eq!(table.sorted(), sorted);
    }

    /// At the largest ids a world can have, packing round-trips, is
    /// injective, and orders keys exactly like the digit tuples.
    #[test]
    fn packing_is_injective_at_the_largest_world(
        words in proptest::collection::vec(any::<u64>(), 10..=10),
    ) {
        let (n_sites, n_clients) = largest_world();
        // The widest layout the folds use: (country, platform, site, host,
        // client) for the per-(country, platform) seen-client set.
        let radices = [
            topple_sim::Country::COUNT as u64,
            topple_sim::Platform::COUNT as u64,
            n_sites as u64,
            256,
            n_clients as u64,
        ];
        let packer = KeyPacker::new(radices).unwrap();
        // Digits hug the top of each radix half the time.
        let digits = |w: &[u64]| -> [u64; 5] {
            let mut d = [0u64; 5];
            for i in 0..5 {
                let r = radices[i];
                d[i] = if w[i] & 1 == 0 { r - 1 - (w[i] >> 1) % r.min(3) } else { (w[i] >> 1) % r };
            }
            d
        };
        let a = digits(&words[..5]);
        let b = digits(&words[5..]);
        let (ka, kb) = (packer.pack(a), packer.pack(b));
        prop_assert_eq!(packer.unpack(ka), a);
        prop_assert_eq!(packer.unpack(kb), b);
        prop_assert_eq!(ka == kb, a == b);
        prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
    }
}

#[test]
fn largest_world_layouts_fit() {
    let (n_sites, n_clients) = largest_world();
    assert!(ChromeKeys::new(n_sites, n_clients).is_ok());
    assert!(DnsKeys::new(n_sites, n_clients).is_ok());
    // The last key of the widest layout is the largest key in use.
    let packer = KeyPacker::new([12, 5, n_sites as u64, 256, n_clients as u64]).unwrap();
    let top = packer.pack([11, 4, n_sites as u64 - 1, 255, n_clients as u64 - 1]);
    assert_eq!(top, 12 * 5 * n_sites as u64 * 256 * n_clients as u64 - 1);
}

#[test]
fn a_world_too_large_to_pack_is_a_typed_error() {
    // 2^32 sites × 2^32 clients: the telemetry key space is 2^64 × 12 × 5 × 256.
    let huge = 1usize << 32;
    let err = ChromeKeys::new(huge, huge).unwrap_err();
    assert!(matches!(err, KeyWidthError { .. }));
    assert!(err.to_string().contains("does not fit in 64 bits"));
    // 2^56 sites overflow the DNS name space itself.
    assert!(DnsKeys::new(1 << 56, 10).is_err());
    assert!(DnsKeys::new(1 << 40, 1 << 20).is_err());
    // Exactly 2^64 keys still fit; one more radix step does not.
    assert!(KeyPacker::new([1 << 32, 1 << 32]).is_ok());
    assert!(KeyPacker::new([1 << 32, (1 << 32) + 1]).is_err());
    assert!(KeyPacker::new([5, 0]).is_err());
}

#[test]
#[should_panic(expected = "outside its radix")]
fn an_out_of_range_id_panics_instead_of_aliasing() {
    let packer = KeyPacker::new([10, 10]).unwrap();
    // (1, 10) would alias (2, 0) if packed.
    packer.pack([1, 10]);
}
