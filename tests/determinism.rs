//! Determinism regression: two studies run from the same seed must produce
//! byte-identical artifacts. This is the property `topple-lint`'s `hash-iter`
//! rule exists to protect — a single unsorted `HashMap` iteration anywhere in
//! the list-construction or analysis paths shows up here as a diff.

use std::fmt::Write as _;

use toppling::core::{consistency, coverage, listeval, temporal, Study};
use toppling::lists::ListSource;
use toppling::sim::WorldConfig;

/// Serializes every artifact that historically depended on map iteration
/// order: the normalized lists themselves (ranks included), the Figure 2
/// similarity matrices, and the intra-Cloudflare consistency matrix.
fn snapshot(seed: u64) -> String {
    snapshot_with_workers(seed, None)
}

/// Like [`snapshot`], pinning the pipeline worker count. `None` defers to
/// `TOPPLE_WORKERS` / machine parallelism, which is what CI varies.
fn snapshot_with_workers(seed: u64, workers: Option<usize>) -> String {
    let config = WorldConfig {
        workers,
        ..WorldConfig::tiny(seed)
    };
    let s = Study::run(config).expect("study runs");
    let mags = s.magnitudes();
    let k = mags[mags.len() - 2].1;

    let mut out = String::new();
    for &src in ListSource::ALL.iter() {
        let list = s.normalized(src);
        let _ = writeln!(out, "## {src:?} ({} entries)", list.entries.len());
        for (domain, rank) in &list.entries {
            let _ = writeln!(out, "{rank}\t{}", domain.as_str());
        }
    }
    let ev = listeval::figure2(&s, k);
    let _ = writeln!(out, "## figure2 jaccard {:?}", ev.jaccard);
    let _ = writeln!(out, "## figure2 spearman {:?}", ev.spearman);
    let m = consistency::intra_cloudflare_final(&s, k);
    let _ = writeln!(out, "## fig1 jaccard {:?}", m.jaccard);
    let _ = writeln!(out, "## fig1 spearman {:?}", m.spearman);
    // The remaining parallel analysis surfaces: the day-fan-out temporal
    // series, the columnar coverage table, and the Chrome cell matrix.
    for series in temporal::figure3(&s, k) {
        let _ = writeln!(
            out,
            "## fig3 {:?} ji {:?} rho {:?}",
            series.source, series.jaccard, series.spearman
        );
    }
    for row in coverage::table1(&s) {
        let _ = writeln!(out, "## table1 {:?} {:?}", row.source, row.cells);
    }
    let chrome = consistency::intra_chrome(&s, k);
    let _ = writeln!(out, "## chrome jaccard {:?}", chrome.jaccard);
    out
}

/// FNV-1a over the snapshot text: a stable, dependency-free digest for
/// pinning the byte-identity contract across releases.
fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Pinned digest of `snapshot(4242)` under traffic epoch
/// `DETERMINISM_EPOCH` (2). When the draw sequence changes intentionally:
/// bump `DETERMINISM_EPOCH` in `crates/sim`, re-run `topple-lint epoch emit
/// --write`, and re-pin the digest here (printed by this test on mismatch).
/// `topple-lint epoch verify` keeps sources and manifest honest; this pin
/// keeps the *bytes* honest.
const EPOCH_SNAPSHOT: u64 = 0xc733_5963_64ad_8625;

#[test]
fn epoch_snapshot_digest_is_pinned() {
    let got = fnv1a(&snapshot(4242));
    assert_eq!(
        got, EPOCH_SNAPSHOT,
        "snapshot digest is {got:#018x}, pinned {EPOCH_SNAPSHOT:#018x}; \
         an unbumped draw-sequence change slipped past `topple-lint epoch verify`"
    );
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let a = snapshot(4242);
    let b = snapshot(4242);
    if a != b {
        // Point at the first diverging line rather than dumping megabytes.
        for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
            assert_eq!(la, lb, "first divergence at snapshot line {}", i + 1);
        }
        panic!(
            "snapshots differ in length: {} vs {} bytes",
            a.len(),
            b.len()
        );
    }
}

#[test]
fn different_seeds_differ() {
    // Guards against the snapshot accidentally serializing nothing seeded.
    assert_ne!(snapshot(4242), snapshot(4243));
}

#[test]
fn worker_count_does_not_change_artifacts() {
    // The shard/merge pipeline must be invisible in the output: the inline
    // single-worker path and the threaded pool at several widths (including
    // more workers than days) all reconstruct the same sequential fold.
    let inline = snapshot_with_workers(4242, Some(1));
    for workers in [2, 8] {
        let pooled = snapshot_with_workers(4242, Some(workers));
        if inline != pooled {
            for (i, (la, lb)) in inline.lines().zip(pooled.lines()).enumerate() {
                assert_eq!(
                    la,
                    lb,
                    "workers={workers}: first divergence at snapshot line {}",
                    i + 1
                );
            }
            panic!(
                "workers={workers}: snapshots differ in length: {} vs {} bytes",
                inline.len(),
                pooled.len()
            );
        }
    }
}
