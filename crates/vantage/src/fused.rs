//! Fused single-pass ingestion: every vantage observes the traffic stream
//! as it is generated.
//!
//! [`DayScratch::observe_day`] drives `World::simulate_day_into` with a
//! [`FusedObserver`] sink that dispatches each event — still on the stack,
//! by reference — to all five shard builders at once. No per-day event
//! buffer ever exists, and all per-day working state (uniqueness maps,
//! dense accumulators, the traffic engine's stub cache) lives in reusable
//! epoch-stamped scratch (see [`crate::scratch`]), so a warmed-up
//! `DayScratch` ingests a day without heap allocation until the final shard
//! materialization.
//!
//! The same observer is the only way shards are built:
//! [`DayShards::observe`] replays a materialized `DayTraffic` through a
//! fresh `DayScratch`'s observer with the three streams segregated. The
//! builders' per-day aggregations are order-independent (exact presence
//! sets and commutative integer counters), so the streamed interleaving of
//! page loads with their third-party fetches cannot produce different
//! shards than the segregated replay. `tests/merge_laws.rs` and
//! `tests/ingest_fused.rs` assert the equality; `tests/determinism.rs` pins
//! that study outputs stay byte-identical across worker counts.

use topple_sim::{
    BackgroundQuery, EventSink, PageLoad, Resolver, ThirdPartyFetch, TrafficScratch, World,
};

use crate::chrome::ChromeDayBuilder;
use crate::cloudflare::CdnDayBuilder;
use crate::dns::DnsDayBuilder;
use crate::panel::PanelDayBuilder;
use crate::shard::DayShards;

/// All per-worker reusable state for fused day ingestion: the traffic
/// engine's scratch plus one streaming builder per vantage.
///
/// Create one per worker and call [`DayScratch::observe_day`] for each day
/// it handles; capacity warmed up on early days is reused for the rest of
/// the window. Carries no cross-day data — every day starts a fresh scratch
/// epoch — so reuse cannot affect results.
#[derive(Debug)]
pub struct DayScratch {
    traffic: TrafficScratch,
    cdn: CdnDayBuilder,
    chrome: ChromeDayBuilder,
    umbrella: DnsDayBuilder,
    china: DnsDayBuilder,
    panel: PanelDayBuilder,
}

impl DayScratch {
    /// Scratch sized for `world`'s site and name universes.
    pub fn new(world: &World) -> Self {
        DayScratch {
            traffic: TrafficScratch::for_world(world),
            cdn: CdnDayBuilder::new(world),
            chrome: ChromeDayBuilder::new(world),
            umbrella: DnsDayBuilder::new(world, Resolver::Umbrella),
            china: DnsDayBuilder::new(world, Resolver::ChinaVoting),
            panel: PanelDayBuilder::new(world),
        }
    }

    /// Splits the scratch into the traffic engine's part and an observer
    /// over the five builders, with all builders reset for a new day. The
    /// split borrow is what lets `simulate_day_into` feed the observer
    /// while both live in the same scratch.
    pub fn parts<'a>(
        &'a mut self,
        world: &'a World,
    ) -> (&'a mut TrafficScratch, FusedObserver<'a>) {
        self.cdn.begin();
        self.chrome.begin();
        self.umbrella.begin();
        self.china.begin();
        self.panel.begin();
        let DayScratch {
            traffic,
            cdn,
            chrome,
            umbrella,
            china,
            panel,
        } = self;
        (
            traffic,
            FusedObserver {
                world,
                cdn,
                chrome,
                umbrella,
                china,
                panel,
            },
        )
    }

    /// Simulates day `day_index` and observes it from all five vantages in
    /// one streaming pass, returning the day's shards.
    ///
    /// # Panics
    ///
    /// Panics if `day_index` is outside the world's configured window or
    /// the scratch was built for a different (smaller) world.
    pub fn observe_day(&mut self, world: &World, day_index: usize) -> DayShards {
        let (traffic, mut obs) = self.parts(world);
        world.simulate_day_into(day_index, traffic, &mut obs);
        obs.finish_day(day_index)
    }
}

/// The [`EventSink`] that fans each traffic event out to all five shard
/// builders. Borrowed out of a [`DayScratch`] via [`DayScratch::parts`].
#[derive(Debug)]
pub struct FusedObserver<'a> {
    world: &'a World,
    cdn: &'a mut CdnDayBuilder,
    chrome: &'a mut ChromeDayBuilder,
    umbrella: &'a mut DnsDayBuilder,
    china: &'a mut DnsDayBuilder,
    panel: &'a mut PanelDayBuilder,
}

impl FusedObserver<'_> {
    /// Materializes the observed day into its five single-day shards.
    pub fn finish_day(self, day_index: usize) -> DayShards {
        DayShards {
            cdn: self.cdn.finish_shard(self.world, day_index),
            chrome: self.chrome.finish_day(day_index),
            umbrella: self.umbrella.finish_day(day_index),
            china: self.china.finish_day(day_index),
            panel: self.panel.finish_day(day_index),
        }
    }
}

impl EventSink for FusedObserver<'_> {
    fn page_load(&mut self, pl: &PageLoad) {
        self.cdn.page_load(self.world, pl);
        self.chrome.page_load(self.world, pl);
        self.umbrella.page_load(self.world, pl);
        self.china.page_load(self.world, pl);
        self.panel.page_load(self.world, pl);
    }

    fn third_party(&mut self, tp: &ThirdPartyFetch) {
        self.cdn.third_party(self.world, tp);
        self.umbrella.third_party(self.world, tp);
        self.china.third_party(self.world, tp);
    }

    fn background(&mut self, bg: &BackgroundQuery) {
        self.umbrella.background(self.world, bg);
        self.china.background(self.world, bg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topple_sim::WorldConfig;

    #[test]
    fn fused_equals_materialized_with_scratch_reuse() {
        let w = World::generate(WorldConfig::tiny(101)).unwrap();
        let mut scratch = DayScratch::new(&w);
        // Revisit day 0 after later days: epoch clearing must leak nothing.
        for d in [0, 1, 2, 0, 6] {
            let fused = scratch.observe_day(&w, d);
            let t = w.simulate_day(d);
            let materialized = DayShards::observe(&w, &t);
            assert_eq!(fused, materialized, "day {d}");
        }
    }
}
