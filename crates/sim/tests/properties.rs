//! Property-based tests over world generation and traffic invariants.

use proptest::prelude::*;
use rand::{Rng, RngCore};
use topple_sim::rng::{normal_from_uniforms, poisson_from_normal, substream, Stream};
use topple_sim::{Date, UniformBlock, World, WorldConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn worlds_generate_for_any_seed(seed in any::<u64>()) {
        let w = World::generate(WorldConfig::tiny(seed)).unwrap();
        prop_assert_eq!(w.sites.len(), 400);
        prop_assert_eq!(w.clients.len(), 300);
        // All site country mixes are distributions.
        for s in &w.sites {
            let total: f64 = s.country_mix.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-6);
        }
        // Domain index covers every site.
        for s in &w.sites {
            prop_assert!(w.site_by_domain(&s.domain).is_some());
        }
    }

    #[test]
    fn traffic_invariants_for_any_seed(seed in any::<u64>(), day in 0usize..7) {
        let w = World::generate(WorldConfig::tiny(seed)).unwrap();
        let t = w.simulate_day(day);
        for pl in &t.page_loads {
            prop_assert!(pl.site.index() < w.sites.len());
            prop_assert!(pl.client.index() < w.clients.len());
            prop_assert!((pl.host_idx as usize) < w.sites[pl.site.index()].hosts.len());
            prop_assert!(u32::from(pl.non200) <= pl.total_requests());
            if !pl.completed {
                prop_assert_eq!(pl.dwell_secs, 0);
            }
        }
        for tp in &t.third_party {
            prop_assert!(w.sites[tp.site.index()].is_infrastructure);
            prop_assert!(tp.requests >= 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Epoch-2 contract: the batched block is a pure *re-buffering* of the
    // scalar stream. Feeding the same substream through `UniformBlock` and
    // through scalar `RngCore`/`Rng` calls must yield identical bytes.

    #[test]
    fn block_words_replay_the_scalar_stream(seed in any::<u64>(), index in any::<u64>(), n in 1usize..700) {
        let mut scalar = substream(seed, Stream::TrafficClient, index);
        let mut batched = substream(seed, Stream::TrafficClient, index);
        let mut block = UniformBlock::new();
        for _ in 0..n {
            prop_assert_eq!(block.take_word(&mut batched), scalar.next_u64());
        }
    }

    #[test]
    fn block_f64_matches_vendored_uniform(seed in any::<u64>(), n in 1usize..300) {
        let mut scalar = substream(seed, Stream::TrafficClient, 0);
        let mut batched = substream(seed, Stream::TrafficClient, 0);
        let mut block = UniformBlock::new();
        for _ in 0..n {
            let want: f64 = scalar.random();
            prop_assert_eq!(block.take_f64(&mut batched).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn block_chance_matches_scalar_threshold(seed in any::<u64>(), p in 0.0f64..1.0) {
        let mut scalar = substream(seed, Stream::TrafficClient, 1);
        let mut batched = substream(seed, Stream::TrafficClient, 1);
        let mut block = UniformBlock::new();
        for _ in 0..64 {
            let want = scalar.random::<f64>() < p;
            prop_assert_eq!(block.take_chance(&mut batched, p), want);
        }
    }

    #[test]
    fn block_normal_is_box_muller_of_scalar_uniforms(seed in any::<u64>()) {
        let mut scalar = substream(seed, Stream::TrafficClient, 2);
        let mut batched = substream(seed, Stream::TrafficClient, 2);
        let mut block = UniformBlock::new();
        for _ in 0..64 {
            let u1: f64 = scalar.random();
            let u2: f64 = scalar.random();
            let want = normal_from_uniforms(u1, u2);
            prop_assert_eq!(block.take_normal(&mut batched).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn block_poisson_large_lambda_matches_scalar_normal(seed in any::<u64>(), lambda in 30.0f64..500.0) {
        let mut scalar = substream(seed, Stream::TrafficClient, 3);
        let mut batched = substream(seed, Stream::TrafficClient, 3);
        let mut block = UniformBlock::new();
        for _ in 0..32 {
            let u1: f64 = scalar.random();
            let u2: f64 = scalar.random();
            let want = poisson_from_normal(lambda, normal_from_uniforms(u1, u2));
            prop_assert_eq!(block.take_poisson(&mut batched, lambda), want);
        }
    }

    #[test]
    fn block_reset_discards_the_tail(seed in any::<u64>(), consumed in 0usize..128) {
        // After a reset, the next take refills from the rng's *current*
        // position — leftover buffered words never leak across clients.
        let mut rng = substream(seed, Stream::TrafficClient, 4);
        let mut block = UniformBlock::new();
        for _ in 0..consumed {
            let _ = block.take_word(&mut rng);
        }
        block.reset();
        let mut fresh = substream(seed, Stream::TrafficClient, 4);
        // Skip the words already pulled out of the shared stream: a full
        // refill's worth if any were consumed.
        if consumed > 0 {
            for _ in 0..128 {
                let _ = fresh.next_u64();
            }
        }
        prop_assert_eq!(block.take_word(&mut rng), fresh.next_u64());
    }

    #[test]
    fn calendar_roundtrips(year in 1900i32..2100, month in 1u8..=12, day in 1u8..=28) {
        let d = Date::new(year, month, day);
        // succ() advances by exactly one day within a month.
        let next = d.succ();
        prop_assert!(next > d);
        // Weekdays cycle with period 7.
        let mut cur = d;
        for _ in 0..7 {
            cur = cur.succ();
        }
        prop_assert_eq!(cur.weekday(), d.weekday());
    }

    #[test]
    fn iter_days_is_consecutive(year in 1980i32..2050, month in 1u8..=12, count in 1usize..40) {
        let d = Date::new(year, month, 1);
        let days: Vec<Date> = d.iter_days(count).collect();
        prop_assert_eq!(days.len(), count);
        for pair in days.windows(2) {
            prop_assert_eq!(pair[0].succ(), pair[1]);
        }
    }
}
