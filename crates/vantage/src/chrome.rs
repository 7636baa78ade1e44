//! The Chrome telemetry vantage: the data source behind CrUX and the paper's
//! Section 6 platform/country analyses.
//!
//! Telemetry covers only Chrome users who opted into history sync and usage
//! statistics. It is aggregated by *web origin*, excludes private (incognito)
//! windows and non-public domains, and applies a minimum-unique-visitors
//! privacy threshold before an origin may appear in any published list \[13\].
//!
//! Three client metrics are collected (Section 6.1): initiated page loads,
//! completed page loads (First Contentful Paint, the public CrUX metric), and
//! total time on site — broken down by client country and platform
//! (Windows and Android, the representative desktop and mobile platforms).

use std::collections::BTreeSet;

use topple_sim::{Country, PageLoad, Platform, SiteId, World};

use crate::scratch::{KeyPacker, KeyWidthError, ScratchMap};
use crate::shard::merge_sorted;

/// A web origin in telemetry: `(site, host index)`. The textual origin is
/// recoverable via [`ChromeVantage::origin_text`].
pub type OriginKey = (SiteId, u8);

/// A per-(country, platform) telemetry cell key.
type CellKey = (Country, Platform, OriginKey);

/// A `u64` that sorts exactly like the origin.
fn origin_sort_key(&(site, host): &OriginKey) -> u64 {
    (u64::from(site.0) << 8) | u64::from(host)
}

/// A `u64` that sorts exactly like the cell key (country and platform order
/// by their dense index, origins need 40 bits).
fn cell_sort_key(&(country, platform, origin): &CellKey) -> u64 {
    ((country.index() as u64) << 48) | ((platform.index() as u64) << 40) | origin_sort_key(&origin)
}

/// Client telemetry metrics (Section 6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChromeMetric {
    /// Page loads that began.
    InitiatedLoads,
    /// Page loads that reached First Contentful Paint — the CrUX metric.
    CompletedLoads,
    /// Total seconds spent on the origin.
    TimeOnSite,
}

impl ChromeMetric {
    /// All three metrics in stable order.
    pub const ALL: [ChromeMetric; 3] = [
        ChromeMetric::InitiatedLoads,
        ChromeMetric::CompletedLoads,
        ChromeMetric::TimeOnSite,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ChromeMetric::InitiatedLoads => "initiated",
            ChromeMetric::CompletedLoads => "completed",
            ChromeMetric::TimeOnSite => "time-on-site",
        }
    }
}

/// Per-origin accumulated counters.
#[derive(Debug, Clone, Copy, Default)]
struct OriginCell {
    initiated: u64,
    completed: u64,
    dwell_secs: u64,
    unique_clients: u32,
}

impl OriginCell {
    fn add(&mut self, other: &OriginCell) {
        self.initiated += other.initiated;
        self.completed += other.completed;
        self.dwell_secs += other.dwell_secs;
        self.unique_clients += other.unique_clients;
    }
}

/// The platforms Chrome telemetry breaks out (Section 6.1).
pub const TELEMETRY_PLATFORMS: [Platform; 2] = [Platform::Windows, Platform::Android];

/// Per-origin counters of a shard, carrying the exact client *set* (not just
/// its size) so that unique-client counts merge losslessly across shards.
#[derive(Debug, Clone, Default, PartialEq)]
struct ShardCell {
    initiated: u64,
    completed: u64,
    dwell_secs: u64,
    /// Ascending, no client twice.
    clients: Vec<u32>,
}

impl ShardCell {
    fn merge(&mut self, other: ShardCell) {
        // Saturating: a fixed-width counter must clamp at its maximum
        // rather than wrap when pathological shards (e.g. the same heavy
        // day merged into itself many times) meet. Saturating addition is
        // still associative and commutative — `min(a + b, MAX)` composed in
        // any order yields `min(a + b + …, MAX)` — so the monoid laws the
        // pipeline relies on survive; `tests/merge_laws.rs` pins both.
        self.initiated = self.initiated.saturating_add(other.initiated);
        self.completed = self.completed.saturating_add(other.completed);
        self.dwell_secs = self.dwell_secs.saturating_add(other.dwell_secs);
        self.clients = merge_sorted(
            std::mem::take(&mut self.clients),
            other.clients,
            u32::cmp,
            |_, _| {},
        );
    }

    fn wire_encode(&self, w: &mut crate::wire::Writer<'_>) {
        w.u64(self.initiated);
        w.u64(self.completed);
        w.u64(self.dwell_secs);
        w.len(self.clients.len());
        for &c in &self.clients {
            w.u32(c);
        }
    }

    fn wire_decode(r: &mut crate::wire::Reader<'_>) -> Result<Self, crate::wire::WireError> {
        let initiated = r.u64()?;
        let completed = r.u64()?;
        let dwell_secs = r.u64()?;
        let n = r.len(4)?;
        let mut clients = Vec::with_capacity(n);
        for _ in 0..n {
            clients.push(r.u32()?);
        }
        crate::wire::sort_unique(&mut clients, |&c| c, "duplicate telemetry client")?;
        Ok(ShardCell {
            initiated,
            completed,
            dwell_secs,
            clients,
        })
    }
}

/// A mergeable observation of Chrome telemetry for a set of days.
///
/// Every field merges commutatively and exactly: counters are integer sums,
/// unique clients are set unions, and covered days are a set union — so the
/// merge is associative regardless of the order shards are combined in.
/// Cells are flat vectors sorted by key, merged by a sorted merge-join.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChromeShard {
    day_indices: BTreeSet<usize>,
    global: Vec<(OriginKey, ShardCell)>,
    cells: Vec<(CellKey, ShardCell)>,
}

impl ChromeShard {
    /// Day indices covered by this shard, ascending.
    pub fn day_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.day_indices.iter().copied()
    }

    /// Whether every origin and client the shard names exists in `world`.
    pub(crate) fn fits(&self, world: &World) -> bool {
        let origin_fits = |&(site, host): &OriginKey| {
            world
                .sites
                .get(site.index())
                .is_some_and(|s| usize::from(host) < s.host_count())
        };
        let cell_fits = |cell: &ShardCell| {
            cell.clients
                .iter()
                .all(|&c| topple_stats::cast::usize_from_u32(c) < world.clients.len())
        };
        self.global
            .iter()
            .all(|(origin, cell)| origin_fits(origin) && cell_fits(cell))
            && self
                .cells
                .iter()
                .all(|((_, _, origin), cell)| origin_fits(origin) && cell_fits(cell))
    }

    /// Appends this shard's canonical wire form (see [`crate::wire`]).
    pub(crate) fn wire_encode(&self, w: &mut crate::wire::Writer<'_>) {
        w.len(self.day_indices.len());
        for &d in &self.day_indices {
            w.u32(topple_stats::cast::u32_from_usize(d));
        }
        w.len(self.global.len());
        for ((site, host), cell) in &self.global {
            w.u32(site.0);
            w.u8(*host);
            cell.wire_encode(w);
        }
        w.len(self.cells.len());
        for ((country, platform, (site, host)), cell) in &self.cells {
            w.u8(topple_stats::cast::u8_from_usize(country.index()));
            w.u8(topple_stats::cast::u8_from_usize(platform.index()));
            w.u32(site.0);
            w.u8(*host);
            cell.wire_encode(w);
        }
    }

    /// Decodes the canonical wire form, failing closed on hostile bytes.
    pub(crate) fn wire_decode(
        r: &mut crate::wire::Reader<'_>,
    ) -> Result<Self, crate::wire::WireError> {
        use crate::wire::{sort_unique, WireError};
        let n_days = r.len(4)?;
        let mut day_indices = BTreeSet::new();
        for _ in 0..n_days {
            if !day_indices.insert(topple_stats::cast::usize_from_u32(r.u32()?)) {
                return Err(WireError::Malformed {
                    context: "duplicate telemetry day",
                });
            }
        }
        let n_global = r.len(29)?;
        let mut global = Vec::with_capacity(n_global);
        for _ in 0..n_global {
            let key: OriginKey = (SiteId(r.u32()?), r.u8()?);
            global.push((key, ShardCell::wire_decode(r)?));
        }
        sort_unique(
            &mut global,
            |(o, _)| origin_sort_key(o),
            "duplicate telemetry origin",
        )?;
        let n_cells = r.len(31)?;
        let mut cells = Vec::with_capacity(n_cells);
        for _ in 0..n_cells {
            let country = *Country::ALL
                .get(usize::from(r.u8()?))
                .ok_or(WireError::Malformed {
                    context: "unknown country index",
                })?;
            let platform =
                *Platform::ALL
                    .get(usize::from(r.u8()?))
                    .ok_or(WireError::Malformed {
                        context: "unknown platform index",
                    })?;
            let key = (country, platform, (SiteId(r.u32()?), r.u8()?));
            cells.push((key, ShardCell::wire_decode(r)?));
        }
        sort_unique(
            &mut cells,
            |(k, _)| cell_sort_key(k),
            "duplicate telemetry cell",
        )?;
        Ok(ChromeShard {
            day_indices,
            global,
            cells,
        })
    }
}

/// One telemetry cell under construction: counters plus the deduplicated
/// client list (exact set semantics, order irrelevant).
#[derive(Debug, Default)]
struct CellScratch {
    initiated: u64,
    completed: u64,
    dwell_secs: u64,
    clients: Vec<u32>,
}

impl CellScratch {
    /// Resets for reuse, keeping the client list's capacity.
    fn reset(&mut self) {
        self.initiated = 0;
        self.completed = 0;
        self.dwell_secs = 0;
        self.clients.clear();
    }

    fn emit(&self) -> ShardCell {
        let mut clients = self.clients.clone();
        clients.sort_unstable();
        ShardCell {
            initiated: self.initiated,
            completed: self.completed,
            dwell_secs: self.dwell_secs,
            clients,
        }
    }
}

/// Reusable streaming builder of one day's Chrome telemetry shard.
///
/// Cells live in flat vectors addressed through epoch-stamped
/// [`ScratchMap`] indices; per-cell client deduplication goes through a
/// packed `(cell, client)` presence map instead of per-cell sets. Cell
/// *allocation* order depends on event order, but the finish step sorts
/// cells by key, so the resulting shard is order-independent.
#[derive(Debug)]
pub(crate) struct ChromeDayBuilder {
    /// Dense per-site public-web flag: telemetry reads it once per event,
    /// so it must not cost a miss on the full site record.
    public_web: Vec<bool>,
    /// Packed origin key `(site << 8) | host` → index into `global_cells`.
    global_idx: ScratchMap<u32>,
    global_cells: Vec<(OriginKey, CellScratch)>,
    global_live: usize,
    /// Packed `(country, platform, origin)` → index into `cp_cells`.
    cp_idx: ScratchMap<u32>,
    cp_cells: Vec<(CellKey, CellScratch)>,
    cp_live: usize,
    /// Presence of `(tagged cell, client)` pairs; global cells are tagged
    /// with the high bit clear, per-(country, platform) cells with it set.
    client_seen: ScratchMap<()>,
}

/// Tag bit distinguishing per-(country, platform) cells from global cells
/// in the shared `(cell, client)` presence map.
const CP_TAG: u64 = 1 << 31;

impl ChromeDayBuilder {
    pub(crate) fn new(world: &World) -> Self {
        ChromeDayBuilder {
            public_web: world.sites.iter().map(|s| s.public_web).collect(),
            global_idx: ScratchMap::new(),
            global_cells: Vec::new(),
            global_live: 0,
            cp_idx: ScratchMap::new(),
            cp_cells: Vec::new(),
            cp_live: 0,
            client_seen: ScratchMap::new(),
        }
    }

    /// Starts a new day; previous per-day state is invalidated in O(1).
    pub(crate) fn begin(&mut self) {
        self.global_idx.begin_epoch();
        self.cp_idx.begin_epoch();
        self.client_seen.begin_epoch();
        self.global_live = 0;
        self.cp_live = 0;
    }

    // topple-lint: hot-path-begin
    pub(crate) fn page_load(&mut self, world: &World, pl: &PageLoad) {
        let client = &world.clients[pl.client.index()];
        if !client.chrome_optin || pl.private_mode {
            return;
        }
        // Telemetry excludes non-public domains [13].
        if !self.public_web[pl.site.index()] {
            return;
        }
        let origin: OriginKey = (pl.site, pl.host_idx);
        let origin_key = origin_sort_key(&origin);

        let (fresh, slot) = self.global_idx.entry(origin_key);
        let gi = if fresh {
            let gi = claim(&mut self.global_cells, &mut self.global_live, origin);
            *slot = gi;
            gi
        } else {
            *slot
        };
        let cell = &mut self.global_cells[gi as usize].1;
        cell.initiated += 1;
        cell.completed += u64::from(pl.completed);
        cell.dwell_secs += u64::from(pl.dwell_secs);
        let (new_client, ()) = self
            .client_seen
            .entry((u64::from(gi) << 32) | u64::from(pl.client.0));
        if new_client {
            cell.clients.push(pl.client.0);
        }

        if TELEMETRY_PLATFORMS.contains(&client.platform) {
            let cp = (client.country, client.platform, origin);
            let (fresh, slot) = self.cp_idx.entry(cell_sort_key(&cp));
            let ci = if fresh {
                let ci = claim(&mut self.cp_cells, &mut self.cp_live, cp);
                *slot = ci;
                ci
            } else {
                *slot
            };
            let cell = &mut self.cp_cells[ci as usize].1;
            cell.initiated += 1;
            cell.completed += u64::from(pl.completed);
            cell.dwell_secs += u64::from(pl.dwell_secs);
            let (new_client, ()) = self
                .client_seen
                .entry(((CP_TAG | u64::from(ci)) << 32) | u64::from(pl.client.0));
            if new_client {
                cell.clients.push(pl.client.0);
            }
        }
    }
    // topple-lint: hot-path-end

    /// Drains the day's cells into a single-day shard, sorted by key.
    pub(crate) fn finish_day(&mut self, day_index: usize) -> ChromeShard {
        let mut global: Vec<(OriginKey, ShardCell)> = self.global_cells[..self.global_live]
            .iter()
            .map(|(origin, cell)| (*origin, cell.emit()))
            .collect();
        global.sort_unstable_by_key(|(origin, _)| origin_sort_key(origin));
        let mut cells: Vec<(CellKey, ShardCell)> = self.cp_cells[..self.cp_live]
            .iter()
            .map(|(key, cell)| (*key, cell.emit()))
            .collect();
        cells.sort_unstable_by_key(|(key, _)| cell_sort_key(key));
        ChromeShard {
            day_indices: BTreeSet::from([day_index]),
            global,
            cells,
        }
    }
}

/// Claims the next cell slot in `cells`, reusing a previous day's
/// allocation when one exists, and records its key.
fn claim<K: Copy>(cells: &mut Vec<(K, CellScratch)>, live: &mut usize, key: K) -> u32 {
    let idx = *live;
    *live += 1;
    if idx == cells.len() {
        cells.push((key, CellScratch::default()));
    } else {
        cells[idx].0 = key;
        cells[idx].1.reset();
    }
    idx as u32
}

impl crate::Shard for ChromeShard {
    fn merge(&mut self, other: Self) {
        self.day_indices.extend(other.day_indices);
        self.global = merge_sorted(
            std::mem::take(&mut self.global),
            other.global,
            |a, b| origin_sort_key(&a.0).cmp(&origin_sort_key(&b.0)),
            |a, b| a.1.merge(b.1),
        );
        self.cells = merge_sorted(
            std::mem::take(&mut self.cells),
            other.cells,
            |a, b| cell_sort_key(&a.0).cmp(&cell_sort_key(&b.0)),
            |a, b| a.1.merge(b.1),
        );
    }
}

/// The packed-key layout of one world's Chrome fold state: the
/// `(origin, client)` and `(country, platform, origin, client)` presence
/// sets that turn shard client sets into monotone unique-client counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeKeys {
    /// `(site, host, client)`.
    global: KeyPacker<3>,
    /// `(country, platform, site, host, client)`.
    cp: KeyPacker<5>,
}

impl ChromeKeys {
    /// The layout for a world of `n_sites` sites and `n_clients` clients,
    /// or [`KeyWidthError`] if a key space would not fit in 64 bits.
    pub fn new(n_sites: usize, n_clients: usize) -> Result<Self, KeyWidthError> {
        let sites = topple_stats::cast::u64_from_usize(n_sites);
        let clients = topple_stats::cast::u64_from_usize(n_clients);
        let countries = topple_stats::cast::u64_from_usize(Country::COUNT);
        let platforms = topple_stats::cast::u64_from_usize(Platform::COUNT);
        Ok(ChromeKeys {
            global: KeyPacker::new([sites, 1 << 8, clients])?,
            cp: KeyPacker::new([countries, platforms, sites, 1 << 8, clients])?,
        })
    }

    fn global_key(&self, (site, host): OriginKey, client: u32) -> u64 {
        self.global
            .pack([u64::from(site.0), u64::from(host), u64::from(client)])
    }

    fn cp_key(&self, (country, platform, (site, host)): CellKey, client: u32) -> u64 {
        self.cp.pack([
            topple_stats::cast::u64_from_usize(country.index()),
            topple_stats::cast::u64_from_usize(platform.index()),
            u64::from(site.0),
            u64::from(host),
            u64::from(client),
        ])
    }
}

/// The Chrome telemetry vantage.
#[derive(Debug)]
pub struct ChromeVantage {
    /// Monthly per-(country, platform) per-origin cells, sorted by key.
    cells: Vec<(CellKey, OriginCell)>,
    /// Global per-origin cells (all countries and platforms) — CrUX input,
    /// sorted by origin.
    global: Vec<(OriginKey, OriginCell)>,
    keys: ChromeKeys,
    /// Distinct packed (country, platform, origin, client) quadruples.
    seen_cp: ScratchMap<()>,
    /// Distinct packed (origin, client) pairs.
    seen_global: ScratchMap<()>,
    /// Opted-in population size (for reporting).
    optin_clients: usize,
    days: usize,
}

impl ChromeVantage {
    /// Creates an empty vantage.
    ///
    /// # Panics
    ///
    /// Panics if the world is too large to pack its keys
    /// ([`ChromeKeys::new`]).
    pub fn new(world: &World) -> Self {
        let (n_sites, n_clients) = (world.sites.len(), world.clients.len());
        #[allow(clippy::expect_used)]
        // topple-lint: allow(unwrap): a world whose telemetry key spaces exceed 64 bits cannot be folded without aliasing keys; the error names the widths
        let keys = ChromeKeys::new(n_sites, n_clients).expect("telemetry key width");
        ChromeVantage {
            cells: Vec::new(),
            global: Vec::new(),
            keys,
            seen_cp: ScratchMap::new(),
            seen_global: ScratchMap::new(),
            optin_clients: world.clients.iter().filter(|c| c.chrome_optin).count(),
            days: 0,
        }
    }

    /// Number of opted-in clients in the population.
    pub fn optin_clients(&self) -> usize {
        self.optin_clients
    }

    /// Number of ingested days.
    pub fn day_count(&self) -> usize {
        self.days
    }

    /// Folds a (possibly multi-day) shard into the accumulators. Chrome
    /// telemetry has no order-sensitive state, so shards may arrive in any
    /// order; the persistent seen-client sets turn shard client sets into
    /// monotone unique-client counts.
    ///
    /// # Panics
    ///
    /// Panics if the shard names a site or client outside this vantage's
    /// world.
    pub fn ingest_shard(&mut self, shard: ChromeShard) {
        let keys = self.keys;
        let seen = &mut self.seen_global;
        let global: Vec<(OriginKey, OriginCell)> = shard
            .global
            .into_iter()
            .map(|(origin, cell)| {
                let fresh = Self::first_sightings(seen, &cell, |c| keys.global_key(origin, c));
                (origin, fresh)
            })
            .collect();
        self.global = merge_sorted(
            std::mem::take(&mut self.global),
            global,
            |a, b| origin_sort_key(&a.0).cmp(&origin_sort_key(&b.0)),
            |a, b| a.1.add(&b.1),
        );
        let seen = &mut self.seen_cp;
        let cells: Vec<(CellKey, OriginCell)> = shard
            .cells
            .into_iter()
            .map(|(key, cell)| {
                let fresh = Self::first_sightings(seen, &cell, |c| keys.cp_key(key, c));
                (key, fresh)
            })
            .collect();
        self.cells = merge_sorted(
            std::mem::take(&mut self.cells),
            cells,
            |a, b| cell_sort_key(&a.0).cmp(&cell_sort_key(&b.0)),
            |a, b| a.1.add(&b.1),
        );
        self.days += shard.day_indices.len();
    }

    /// A shard cell's counters, counting as unique only the clients whose
    /// packed key `key(client)` enters the persistent `seen` set now.
    fn first_sightings(
        seen: &mut ScratchMap<()>,
        cell: &ShardCell,
        key: impl Fn(u32) -> u64,
    ) -> OriginCell {
        let mut unique_clients = 0;
        for &client in &cell.clients {
            if seen.entry(key(client)).0 {
                unique_clients += 1;
            }
        }
        OriginCell {
            initiated: cell.initiated,
            completed: cell.completed,
            dwell_secs: cell.dwell_secs,
            unique_clients,
        }
    }

    /// The published per-(country, platform) rank-order list for one metric:
    /// origins above the privacy threshold, sorted by descending score.
    ///
    /// Reads only the `(country, platform, ..)` key range of the cells.
    pub fn country_platform_list(
        &self,
        country: Country,
        platform: Platform,
        metric: ChromeMetric,
        privacy_threshold: u32,
    ) -> Vec<(OriginKey, f64)> {
        let lo = self
            .cells
            .partition_point(|((c, p, _), _)| (*c, *p) < (country, platform));
        let hi = self
            .cells
            .partition_point(|((c, p, _), _)| (*c, *p) <= (country, platform));
        let mut out: Vec<(OriginKey, f64)> = self.cells[lo..hi]
            .iter()
            .filter(|(_, cell)| cell.unique_clients >= privacy_threshold)
            .map(|((_, _, o), cell)| (*o, Self::score(cell, metric)))
            .filter(|&(_, s)| s > 0.0)
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// The global origin list by completed page loads (the public CrUX
    /// input), privacy-thresholded.
    pub fn global_completed_list(&self, privacy_threshold: u32) -> Vec<(OriginKey, f64)> {
        let mut out: Vec<(OriginKey, f64)> = self
            .global
            .iter()
            .filter(|(_, cell)| cell.unique_clients >= privacy_threshold && cell.completed > 0)
            .map(|(o, cell)| (*o, cell.completed as f64))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    fn score(cell: &OriginCell, metric: ChromeMetric) -> f64 {
        match metric {
            ChromeMetric::InitiatedLoads => cell.initiated as f64,
            ChromeMetric::CompletedLoads => cell.completed as f64,
            ChromeMetric::TimeOnSite => cell.dwell_secs as f64,
        }
    }

    /// Renders an origin key as its textual web origin.
    pub fn origin_text(world: &World, origin: OriginKey) -> String {
        world.sites[origin.0.index()]
            .origin_of(origin.1 as usize)
            .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Reader, WireError, Writer};
    use crate::{DayScratch, Shard as _};
    use proptest::prelude::*;
    use topple_sim::{Browser, WorldConfig};

    fn setup() -> (World, ChromeVantage) {
        let w = World::generate(WorldConfig::small(71)).unwrap();
        let mut v = ChromeVantage::new(&w);
        let mut scratch = DayScratch::new(&w);
        for d in 0..3 {
            v.ingest_shard(scratch.observe_day(&w, d).chrome);
        }
        (w, v)
    }

    #[test]
    fn only_optin_chrome_users_counted() {
        let (w, v) = setup();
        // Sum of global initiated equals opted-in non-private public loads.
        let mut expected = 0u64;
        for d in 0..3 {
            let t = w.simulate_day(d);
            expected += t
                .page_loads
                .iter()
                .filter(|pl| {
                    let c = &w.clients[pl.client.index()];
                    c.chrome_optin
                        && c.browser == Browser::Chrome
                        && !pl.private_mode
                        && w.sites[pl.site.index()].public_web
                })
                .count() as u64;
        }
        let got: u64 = v.global.iter().map(|(_, c)| c.initiated).sum();
        assert_eq!(got, expected);
    }

    #[test]
    fn completed_bounded_by_initiated() {
        let (_, v) = setup();
        for (_, cell) in &v.global {
            assert!(cell.completed <= cell.initiated);
        }
        for (_, cell) in &v.cells {
            assert!(cell.completed <= cell.initiated);
        }
    }

    #[test]
    fn privacy_threshold_filters() {
        let (_, v) = setup();
        let loose = v.global_completed_list(1);
        let strict = v.global_completed_list(5);
        assert!(strict.len() <= loose.len());
        for (o, _) in &strict {
            let (_, cell) = v.global.iter().find(|(k, _)| k == o).unwrap();
            assert!(cell.unique_clients >= 5);
        }
    }

    #[test]
    fn lists_are_sorted_descending() {
        let (_, v) = setup();
        let list = v.global_completed_list(1);
        assert!(!list.is_empty());
        for w in list.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        let cp = v.country_platform_list(
            Country::UnitedStates,
            Platform::Windows,
            ChromeMetric::CompletedLoads,
            1,
        );
        for w in cp.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn non_public_sites_excluded() {
        let (w, v) = setup();
        for (o, _) in v.global_completed_list(1) {
            assert!(w.sites[o.0.index()].public_web);
        }
    }

    #[test]
    fn platform_breakdown_covers_only_telemetry_platforms() {
        let (_, v) = setup();
        for ((c, p, _), _) in &v.cells {
            assert!(
                TELEMETRY_PLATFORMS.contains(p),
                "unexpected platform {p:?} for {c:?}"
            );
        }
    }

    #[test]
    fn origin_text_is_a_valid_origin() {
        let (w, v) = setup();
        if let Some((o, _)) = v.global_completed_list(1).first() {
            let text = ChromeVantage::origin_text(&w, *o);
            assert!(text.starts_with("http://") || text.starts_with("https://"));
        }
    }

    fn encode(shard: &ChromeShard) -> Vec<u8> {
        let mut bytes = Vec::new();
        shard.wire_encode(&mut Writer::new(&mut bytes));
        bytes
    }

    fn decode(bytes: &[u8]) -> Result<ChromeShard, WireError> {
        let mut r = Reader::new(bytes);
        let shard = ChromeShard::wire_decode(&mut r)?;
        r.finish()?;
        Ok(shard)
    }

    /// A two-day shard and its canonical bytes.
    fn wire_fixture() -> &'static (ChromeShard, Vec<u8>) {
        static FIXTURE: std::sync::OnceLock<(ChromeShard, Vec<u8>)> = std::sync::OnceLock::new();
        FIXTURE.get_or_init(|| {
            let w = World::generate(WorldConfig::tiny(73)).unwrap();
            let mut scratch = DayScratch::new(&w);
            let mut shard = scratch.observe_day(&w, 0).chrome;
            shard.merge(scratch.observe_day(&w, 1).chrome);
            let bytes = encode(&shard);
            (shard, bytes)
        })
    }

    /// Fisher–Yates driven by `words` (reused cyclically).
    fn shuffle<T>(items: &mut [T], words: &[u64]) {
        for i in (1..items.len()).rev() {
            let j = (words[i % words.len()] % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }

    /// The position of the first cell with at least two clients.
    fn multi_client_cell(cells: &[(OriginKey, ShardCell)]) -> usize {
        cells.iter().position(|(_, c)| c.clients.len() > 1).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Origins, cells and client lists in any order decode to the
        /// canonical shard and re-encode to the canonical bytes.
        #[test]
        fn permuted_entries_decode_canonically(
            words in proptest::collection::vec(any::<u64>(), 1..64),
        ) {
            let (shard, canonical) = wire_fixture();
            let mut permuted = shard.clone();
            shuffle(&mut permuted.global, &words);
            shuffle(&mut permuted.cells, &words);
            for (_, cell) in &mut permuted.global {
                shuffle(&mut cell.clients, &words);
            }
            for (_, cell) in &mut permuted.cells {
                shuffle(&mut cell.clients, &words);
            }
            let decoded = decode(&encode(&permuted)).unwrap();
            prop_assert_eq!(&decoded, shard);
            prop_assert_eq!(&encode(&decoded), canonical);
        }

        /// A repeated origin, cell or client fails closed with the same
        /// typed error as a repeated map or set insert.
        #[test]
        fn a_duplicated_key_fails_closed(
            pick in any::<u64>(),
            at in any::<u64>(),
            section in 0u8..3,
        ) {
            let (shard, _) = wire_fixture();
            let mut dup = shard.clone();
            let context = match section {
                0 => {
                    let row = dup.global[(pick % dup.global.len() as u64) as usize].clone();
                    let at = (at % (dup.global.len() as u64 + 1)) as usize;
                    dup.global.insert(at, row);
                    "duplicate telemetry origin"
                }
                1 => {
                    let row = dup.cells[(pick % dup.cells.len() as u64) as usize].clone();
                    let at = (at % (dup.cells.len() as u64 + 1)) as usize;
                    dup.cells.insert(at, row);
                    "duplicate telemetry cell"
                }
                _ => {
                    let i = multi_client_cell(&dup.global);
                    let clients = &mut dup.global[i].1.clients;
                    let c = clients[(pick % clients.len() as u64) as usize];
                    let at = (at % (clients.len() as u64 + 1)) as usize;
                    clients.insert(at, c);
                    "duplicate telemetry client"
                }
            };
            prop_assert_eq!(decode(&encode(&dup)), Err(WireError::Malformed { context }));
        }
    }
}
