//! The Chrome UX Report (CrUX) public list.
//!
//! CrUX publishes monthly *rank-magnitude buckets* (top 1K, 10K, 100K, 1M) of
//! web origins, ranked by completed page loads (First Contentful Paint) from
//! opted-in Chrome users, with a privacy threshold on unique visitors \[8, 13\].
//! The bucket magnitudes here are the world's scaled equivalents
//! (`WorldConfig::rank_magnitudes`).

use topple_sim::World;
use topple_vantage::ChromeVantage;

use crate::model::{BucketedEntry, BucketedList, ListSource};

/// Builds the monthly CrUX-style bucketed origin list.
///
/// `magnitudes` must be ascending bucket sizes (e.g. scaled {1K, 10K, 100K,
/// 1M}); origins ranked beyond the largest magnitude are not published.
pub fn build(world: &World, chrome: &ChromeVantage, magnitudes: &[usize]) -> BucketedList {
    assert!(!magnitudes.is_empty(), "need at least one magnitude");
    assert!(
        magnitudes.windows(2).all(|w| w[0] < w[1]),
        "magnitudes must ascend"
    );
    let ranked = chrome.global_completed_list(world.config.crux_privacy_threshold);
    let mut entries = Vec::new();
    for (pos, (origin, _score)) in ranked.iter().enumerate() {
        let Some(&bucket) = magnitudes.iter().find(|&&m| pos < m) else {
            break; // beyond the largest published magnitude
        };
        entries.push(BucketedEntry {
            name: ChromeVantage::origin_text(world, *origin),
            bucket: bucket as u32,
        });
    }
    BucketedList {
        source: ListSource::Crux,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topple_sim::WorldConfig;
    use topple_vantage::DayScratch;

    fn setup() -> (World, ChromeVantage) {
        let w = World::generate(WorldConfig::small(121)).unwrap();
        let mut v = ChromeVantage::new(&w);
        let mut scratch = DayScratch::new(&w);
        for d in 0..4 {
            v.ingest_shard(scratch.observe_day(&w, d).chrome);
        }
        (w, v)
    }

    #[test]
    fn buckets_ascend_and_nest() {
        let (w, v) = setup();
        let l = build(&w, &v, &[40, 400, 4000]);
        assert!(!l.is_empty());
        let b40 = l.names_within(40).count();
        let b400 = l.names_within(400).count();
        let b4000 = l.names_within(4000).count();
        assert!(b40 <= 40);
        assert!(b40 <= b400 && b400 <= b4000);
        assert!(b400 <= 400);
    }

    #[test]
    fn entries_are_origins() {
        let (w, v) = setup();
        let l = build(&w, &v, &[40, 400]);
        for e in &l.entries {
            assert!(
                e.name.starts_with("https://") || e.name.starts_with("http://"),
                "not an origin: {}",
                e.name
            );
        }
    }

    #[test]
    fn beyond_largest_magnitude_unpublished() {
        let (w, v) = setup();
        let small = build(&w, &v, &[40]);
        assert!(small.len() <= 40);
    }

    #[test]
    #[should_panic(expected = "magnitudes must ascend")]
    fn rejects_unordered_magnitudes() {
        let (w, v) = setup();
        build(&w, &v, &[400, 40]);
    }
}
