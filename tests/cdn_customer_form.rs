//! The CDN vantage keeps its scores over the sites it serves only, and
//! ranks them through one function, `CfScores::ranked`. These tests hold
//! that form to the dense one it replaced: every ranking equals the dense
//! reference ranking of the same scores spread over all sites, and the fold
//! refuses every CDN shard the customer form cannot hold.

use toppling::core::{observe_day_shards, CoreError, Study, StudyPrefix};
use toppling::sim::{SiteId, World, WorldConfig};
use toppling::vantage::wire::WireError;
use toppling::vantage::{CdnVantage, CfMetric, CfScores, DayScratch, DayShards};

/// The dense reference ranking: sites by descending score, ties by
/// ascending site id, zero-score sites dropped.
fn dense_ranking(scores: &[f64]) -> Vec<SiteId> {
    let mut out: Vec<(SiteId, f64)> = scores
        .iter()
        .enumerate()
        .filter(|(_, &s)| s > 0.0)
        .map(|(i, &s)| (SiteId(i as u32), s))
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    out.into_iter().map(|(id, _)| id).collect()
}

/// A customer column spread over all `n_sites` sites, zero off the CDN.
fn densify(n_sites: usize, scores: &CfScores<'_>) -> Vec<f64> {
    let mut dense = vec![0.0; n_sites];
    for (site, x) in scores.iter() {
        dense[site.index()] = x;
    }
    dense
}

/// Asserts every ranking `cdn` serves — the first day's 21 metrics, the
/// final seven on every day, the 21 monthly means — equals the dense
/// reference, and returns how many rankings were checked.
fn assert_rankings_match(cdn: &CdnVantage) -> usize {
    let n = cdn.site_count();
    let mut checked = 0;
    let mut check = |what: String, scores: CfScores<'_>| {
        let ranked = scores.ranked();
        assert!(!ranked.is_empty(), "{what} ranks nothing");
        assert_eq!(ranked, dense_ranking(&densify(n, &scores)), "{what}");
        checked += 1;
    };
    let first = cdn.first_day().expect("a day was ingested");
    for m in CfMetric::full_suite() {
        check(format!("first day {}", m.label()), first.metric(m));
        check(format!("monthly {}", m.label()), cdn.monthly(m));
    }
    for day in 0..cdn.days() {
        for (i, m) in CfMetric::final_seven().iter().enumerate() {
            check(format!("day {day} {}", m.label()), cdn.daily_final(i, day));
        }
    }
    checked
}

#[test]
fn customer_rankings_equal_the_dense_reference_on_tiny_studies() {
    for seed in [301, 20220201, 7] {
        let s = Study::run(WorldConfig::tiny(seed)).expect("tiny study runs");
        let n_days = s.world.config.days.len();
        assert_eq!(assert_rankings_match(&s.cdn), 42 + 7 * n_days);
        // The study's id rankings read the same order through the index.
        for m in CfMetric::full_suite() {
            let dense = dense_ranking(&densify(s.world.sites.len(), &s.cdn.monthly(m)));
            let want: Vec<_> = dense
                .into_iter()
                .map(|site| s.index().site_id(site))
                .collect();
            assert_eq!(s.cf_monthly_ids(m), want, "seed {seed} {}", m.label());
        }
    }
}

#[test]
fn customer_rankings_equal_the_dense_reference_on_a_small_world() {
    let world = World::generate(WorldConfig::small(20220201)).expect("small world generates");
    let mut cdn = CdnVantage::new(&world);
    let mut scratch = DayScratch::new(&world);
    for d in 0..world.config.days.len() {
        cdn.ingest_shard(scratch.observe_day(&world, d).cdn);
    }
    assert_eq!(assert_rankings_match(&cdn), 42 + 7 * cdn.days());
}

/// A tiny prefix with day 0 folded, and day 1's shard bytes.
fn prefix_and_next_day() -> (StudyPrefix, Vec<u8>) {
    let world = World::generate(WorldConfig::tiny(211)).expect("tiny world generates");
    let mut shards = observe_day_shards(&world, 2, 1);
    let mut prefix = StudyPrefix::new(world);
    prefix.fold(shards.remove(0)).expect("day 0 folds");
    let mut bytes = Vec::new();
    shards[0].encode(&mut bytes);
    (prefix, bytes)
}

/// Overwrites site `site`'s first-metric score in shard bytes: the CDN
/// section leads them (day count, day, metric count, then metric 0's site
/// count and its dense scores).
fn patch_score(bytes: &mut [u8], site: usize, x: f64) {
    bytes[16 + 8 * site..][..8].copy_from_slice(&x.to_le_bytes());
}

/// Decodes shard bytes and folds them: the path a delta takes.
fn fold_bytes(prefix: &mut StudyPrefix, bytes: &[u8]) -> Result<(), CoreError> {
    let shards = DayShards::decode(bytes).map_err(CoreError::ShardIds)?;
    prefix.fold(shards)
}

#[test]
fn fold_refuses_a_cdn_row_at_a_site_the_cdn_does_not_serve() {
    let (mut prefix, bytes) = prefix_and_next_day();
    let outside = prefix
        .world()
        .sites
        .iter()
        .position(|s| !s.cloudflare)
        .expect("the CDN serves a minority of sites");
    let mut hostile = bytes.clone();
    patch_score(&mut hostile, outside, 1.0);
    let refused = fold_bytes(&mut prefix, &hostile);
    assert!(
        matches!(
            refused,
            Err(CoreError::ShardIds(WireError::Malformed {
                context: "CDN row at a site the world's CDN does not serve"
            }))
        ),
        "{refused:?}"
    );
    assert_eq!(prefix.days(), 1, "the refusal folded nothing");
    fold_bytes(&mut prefix, &bytes).expect("the untouched day folds");
    assert_eq!(prefix.days(), 2);
}

#[test]
fn fold_refuses_a_cdn_score_that_is_not_a_count() {
    let (mut prefix, bytes) = prefix_and_next_day();
    let customer = prefix
        .world()
        .sites
        .iter()
        .position(|s| s.cloudflare)
        .expect("the CDN serves some site");
    for bad in [-1.0, -0.0, f64::NAN, f64::INFINITY] {
        let mut hostile = bytes.clone();
        patch_score(&mut hostile, customer, bad);
        let refused = fold_bytes(&mut prefix, &hostile);
        assert!(
            matches!(
                refused,
                Err(CoreError::ShardIds(WireError::Malformed {
                    context: "CDN score is negative, non-finite or -0.0"
                }))
            ),
            "{bad}: {refused:?}"
        );
        assert_eq!(prefix.days(), 1, "{bad} folded");
    }
    fold_bytes(&mut prefix, &bytes).expect("the untouched day folds");
    assert_eq!(prefix.days(), 2);
}
