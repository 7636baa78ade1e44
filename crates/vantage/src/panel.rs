//! The browser-extension measurement panel behind the Alexa-style ranking.
//!
//! The panel is small (a percent-ish of clients), skews desktop and
//! non-China, and — critically — sees nothing from private browsing windows,
//! where extensions are disabled by default \[15\]. Alexa's rank combines
//! "average daily visitors and pageviews" \[3\], so the panel records both per
//! site per day.

use std::collections::BTreeMap;

use topple_sim::{PageLoad, SiteId, World};

use crate::scratch::{ScratchMap, ScratchTable};

/// A mergeable observation of panel activity for a set of days, keyed by
/// day index.
///
/// Each day's stats are final at observation time (the panel has no
/// cross-day state), so the merge is a keyed union over days — exactly
/// associative and commutative. Merging the same day twice sums its stats
/// ("observed the traffic twice"), like every other shard type.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PanelShard {
    days: BTreeMap<usize, PanelDay>,
}

impl PanelShard {
    /// Day indices covered by this shard, ascending.
    pub fn day_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.days.keys().copied()
    }

    /// Whether every site the shard names lies in an `n_sites`-site world.
    pub(crate) fn fits(&self, n_sites: usize) -> bool {
        self.days
            .values()
            .all(|d| d.per_site.keys().all(|site| site.index() < n_sites))
    }

    /// Appends this shard's canonical wire form (see [`crate::wire`]).
    pub(crate) fn wire_encode(&self, w: &mut crate::wire::Writer<'_>) {
        w.len(self.days.len());
        for (&day, d) in &self.days {
            w.u32(topple_stats::cast::u32_from_usize(day));
            w.len(d.per_site.len());
            for (&site, stats) in &d.per_site {
                w.u32(site.0);
                w.u32(stats.pageviews);
                w.u32(stats.visitors);
            }
        }
    }

    /// Decodes the canonical wire form, failing closed on hostile bytes.
    pub(crate) fn wire_decode(
        r: &mut crate::wire::Reader<'_>,
    ) -> Result<Self, crate::wire::WireError> {
        use crate::wire::WireError;
        let n_days = r.len(8)?;
        let mut days = BTreeMap::new();
        for _ in 0..n_days {
            let day = topple_stats::cast::usize_from_u32(r.u32()?);
            let n_sites = r.len(12)?;
            let mut per_site = BTreeMap::new();
            for _ in 0..n_sites {
                let site = SiteId(r.u32()?);
                let stats = PanelDayStats {
                    pageviews: r.u32()?,
                    visitors: r.u32()?,
                };
                if per_site.insert(site, stats).is_some() {
                    return Err(WireError::Malformed {
                        context: "duplicate panel site",
                    });
                }
            }
            if days.insert(day, PanelDay { per_site }).is_some() {
                return Err(WireError::Malformed {
                    context: "duplicate panel day",
                });
            }
        }
        Ok(PanelShard { days })
    }
}

/// Reusable streaming builder of one day's panel shard: a dense
/// site-indexed stats table plus a packed `(site, client)` presence map for
/// visitor deduplication, both epoch-cleared between days.
#[derive(Debug)]
pub(crate) struct PanelDayBuilder {
    per_site: ScratchTable<PanelDayStats>,
    /// Sites touched this day (order irrelevant: the finish step emits into
    /// a `BTreeMap`).
    touched: Vec<u32>,
    /// Presence of packed `(site << 32) | client` pairs.
    visitors: ScratchMap<()>,
}

impl PanelDayBuilder {
    pub(crate) fn new(world: &World) -> Self {
        PanelDayBuilder {
            per_site: ScratchTable::with_len(world.sites.len()),
            touched: Vec::new(),
            visitors: ScratchMap::new(),
        }
    }

    /// Starts a new day; previous per-day state is invalidated in O(1).
    pub(crate) fn begin(&mut self) {
        self.per_site.begin_epoch();
        self.touched.clear();
        self.visitors.begin_epoch();
    }

    // topple-lint: hot-path-begin
    pub(crate) fn page_load(&mut self, world: &World, pl: &PageLoad) {
        let client = &world.clients[pl.client.index()];
        // Extensions are disabled in private windows: those loads vanish.
        if !client.alexa_panelist || pl.private_mode {
            return;
        }
        let (first, stats) = self.per_site.slot(pl.site.index());
        if first {
            self.touched.push(pl.site.0);
        }
        stats.pageviews += 1;
        let (new_visitor, ()) = self
            .visitors
            .entry((u64::from(pl.site.0) << 32) | u64::from(pl.client.0));
        if new_visitor {
            stats.visitors += 1;
        }
    }
    // topple-lint: hot-path-end

    /// Drains the day's stats into a single-day shard.
    pub(crate) fn finish_day(&mut self, day_index: usize) -> PanelShard {
        let mut day = PanelDay::default();
        for &site in &self.touched {
            day.per_site
                .insert(SiteId(site), self.per_site.peek(site as usize));
        }
        let mut days = BTreeMap::new();
        days.insert(day_index, day);
        PanelShard { days }
    }
}

impl crate::Shard for PanelShard {
    fn merge(&mut self, other: Self) {
        for (day_index, day) in other.days {
            match self.days.entry(day_index) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(day);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let dst = e.get_mut();
                    for (site, stats) in day.per_site {
                        // Saturating rather than wrapping: `min(a + b, MAX)`
                        // keeps the merge associative and commutative, so
                        // the monoid laws hold even for adversarial
                        // same-day self-merges (`tests/merge_laws.rs`).
                        let s = dst.per_site.entry(site).or_default();
                        s.pageviews = s.pageviews.saturating_add(stats.pageviews);
                        s.visitors = s.visitors.saturating_add(stats.visitors);
                    }
                }
            }
        }
    }
}

/// One site's panel observation for one day.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PanelDayStats {
    /// Page views by panelists.
    pub pageviews: u32,
    /// Distinct panelists who visited.
    pub visitors: u32,
}

/// One day of panel data.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PanelDay {
    per_site: BTreeMap<SiteId, PanelDayStats>,
}

impl PanelDay {
    /// Iterates observed `(site, stats)`.
    pub fn sites(&self) -> impl Iterator<Item = (&SiteId, &PanelDayStats)> {
        self.per_site.iter()
    }

    /// Stats for one site, if observed.
    pub fn get(&self, s: SiteId) -> Option<PanelDayStats> {
        self.per_site.get(&s).copied()
    }

    /// Number of sites the panel saw that day.
    pub fn site_count(&self) -> usize {
        self.per_site.len()
    }
}

/// The extension panel vantage.
#[derive(Debug, Default)]
pub struct PanelVantage {
    days: Vec<PanelDay>,
    panel_size: usize,
}

impl PanelVantage {
    /// Creates an empty panel vantage.
    pub fn new(world: &World) -> Self {
        PanelVantage {
            days: Vec::new(),
            panel_size: world.clients.iter().filter(|c| c.alexa_panelist).count(),
        }
    }

    /// Number of panelists in the population.
    pub fn panel_size(&self) -> usize {
        self.panel_size
    }

    /// Folds a (possibly multi-day) shard into the day list, applying its
    /// days in ascending day order. Days must arrive contiguously so the
    /// day-indexed accessors stay meaningful.
    ///
    /// # Panics
    ///
    /// Panics if a shard day is out of order with respect to what this
    /// vantage has already ingested.
    pub fn ingest_shard(&mut self, shard: PanelShard) {
        for (day_index, day) in shard.days {
            assert_eq!(
                day_index,
                self.days.len(),
                "panel days must be ingested in order"
            );
            self.days.push(day);
        }
    }

    /// Number of ingested days.
    pub fn day_count(&self) -> usize {
        self.days.len()
    }

    /// One day of panel data.
    pub fn day(&self, day_index: usize) -> &PanelDay {
        &self.days[day_index]
    }

    /// All ingested days.
    pub fn all_days(&self) -> &[PanelDay] {
        &self.days
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DayScratch;
    use topple_sim::{Category, WorldConfig};

    fn setup() -> (World, PanelVantage) {
        let w = World::generate(WorldConfig::small(61)).unwrap();
        let mut p = PanelVantage::new(&w);
        p.ingest_shard(DayScratch::new(&w).observe_day(&w, 0).panel);
        (w, p)
    }

    #[test]
    fn panel_is_small() {
        let (w, p) = setup();
        assert!(p.panel_size() > 0);
        assert!(p.panel_size() < w.clients.len() / 10);
    }

    #[test]
    fn visitors_bounded_by_pageviews_and_panel() {
        let (_, p) = setup();
        for (_, s) in p.day(0).sites() {
            assert!(s.visitors <= s.pageviews);
            assert!(s.visitors as usize <= p.panel_size());
            assert!(s.visitors >= 1);
        }
    }

    #[test]
    fn private_browsing_is_invisible() {
        // Adult traffic is mostly private; the panel's adult share must be
        // far below the true traffic share.
        let w = World::generate(WorldConfig {
            n_clients: 3_000,
            ..WorldConfig::small(62)
        })
        .unwrap();
        let t = w.simulate_day(0);
        let mut p = PanelVantage::new(&w);
        p.ingest_shard(DayScratch::new(&w).observe_day(&w, 0).panel);

        let true_adult = t
            .page_loads
            .iter()
            .filter(|pl| w.sites[pl.site.index()].category == Category::Adult)
            .count() as f64
            / t.page_loads.len() as f64;
        let panel_total: u32 = p.day(0).sites().map(|(_, s)| s.pageviews).sum();
        let panel_adult: u32 = p
            .day(0)
            .sites()
            .filter(|(id, _)| w.sites[id.index()].category == Category::Adult)
            .map(|(_, s)| s.pageviews)
            .sum();
        if panel_total > 200 && true_adult > 0.0 {
            let panel_share = f64::from(panel_adult) / f64::from(panel_total);
            assert!(
                panel_share < true_adult * 0.7,
                "panel adult share {panel_share:.4} vs true {true_adult:.4}"
            );
        }
    }

    #[test]
    fn only_panelists_counted() {
        let (w, p) = setup();
        let t = w.simulate_day(0);
        let panel_loads = t
            .page_loads
            .iter()
            .filter(|pl| w.clients[pl.client.index()].alexa_panelist && !pl.private_mode)
            .count() as u32;
        let counted: u32 = p.day(0).sites().map(|(_, s)| s.pageviews).sum();
        assert_eq!(counted, panel_loads);
    }
}
