//! `/v1/compare` bodies against the sort + merge-walk reference.
//!
//! The query layer answers a compare by walking the shorter top-k cut and
//! probing the other list's dense position column. This file keeps the
//! computation it replaced — copy both cuts, sort them, merge-walk them for
//! the intersection and the Jaccard index — as a local reference, and
//! requires byte-equal bodies for every ordered list pair (`a == b`
//! included) at the benchmark's compare depths, at each list's length and
//! its neighbours, at every CrUX bucket boundary and its neighbours, and at
//! `MAX_K`, on tiny and small snapshots.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use topple_core::Study;
use topple_lists::ListSource;
use topple_serve::query::{list_url_name, MAX_K};
use topple_serve::snapshot::encode_study;
use topple_serve::{QuerySnapshot, Snapshot};
use topple_sim::WorldConfig;
use topple_stats::sets::{intersection_size_sorted, jaccard_sorted};

/// The load generator's compare depths.
const BENCH_K: [usize; 12] = [
    10, 20, 50, 100, 200, 500, 1000, 2000, 3000, 5000, 7500, 10_000,
];

/// The compare body as rendered before the position columns: sorted copies
/// of both cuts, two merge-walks.
fn reference_body(qs: &QuerySnapshot, a: ListSource, b: ListSource, k: usize) -> String {
    let sorted_cut = |s: ListSource| {
        let cols = qs.snapshot().index.monthly(s);
        let mut v: Vec<u32> = cols.top_ids(k).iter().map(|d| d.raw()).collect();
        v.sort_unstable();
        v
    };
    let ca = sorted_cut(a);
    let cb = sorted_cut(b);
    let inter = intersection_size_sorted(&ca, &cb);
    let jac = jaccard_sorted(&ca, &cb);
    format!(
        "{{\"snapshot\":\"{}\",\"a\":\"{}\",\"b\":\"{}\",\"k\":{k},\
         \"len_a\":{},\"len_b\":{},\"intersection\":{inter},\"jaccard\":{jac}}}",
        qs.id(),
        list_url_name(a),
        list_url_name(b),
        ca.len(),
        cb.len(),
    )
}

/// Every depth the test checks on `qs`, ascending and in `1..=MAX_K`.
fn depths(qs: &QuerySnapshot) -> Vec<usize> {
    let mut ks: Vec<usize> = BENCH_K.to_vec();
    ks.extend([1, MAX_K]);
    for source in ListSource::ALL {
        let cols = qs.snapshot().index.monthly(source);
        let mut edges = vec![cols.len()];
        if !cols.ordered {
            edges.extend(cols.values.iter().map(|&v| v as usize));
        }
        for n in edges {
            ks.extend([n.saturating_sub(1), n, n + 1]);
        }
    }
    ks.retain(|&k| (1..=MAX_K).contains(&k));
    ks.sort_unstable();
    ks.dedup();
    ks
}

fn assert_matches_reference(config: WorldConfig, scale: &str) {
    let study = Study::run(config).expect("study");
    let bytes = encode_study(&study, scale, &[]);
    let qs = QuerySnapshot::new(Snapshot::from_bytes(&bytes).expect("decodes"));
    let crux = qs.snapshot().index.monthly(ListSource::Crux);
    assert!(
        !crux.ordered && !crux.is_empty(),
        "{scale}: CrUX must be a non-empty bucketed list"
    );
    let ks = depths(&qs);
    let mut cells = 0usize;
    for a in ListSource::ALL {
        for b in ListSource::ALL {
            for &k in &ks {
                let got = qs.compare_body(a, b, k);
                assert_eq!(
                    got,
                    reference_body(&qs, a, b, k),
                    "{scale}: {a:?} vs {b:?} at k={k}"
                );
                cells += 1;
            }
        }
    }
    assert!(cells >= 49 * (BENCH_K.len() + 2), "{scale}: {cells} cells");
}

#[test]
fn tiny_compare_bodies_match_the_reference() {
    assert_matches_reference(WorldConfig::tiny(11), "tiny");
}

#[test]
fn small_compare_bodies_match_the_reference() {
    assert_matches_reference(WorldConfig::small(7), "small");
}
