//! The traffic engine: turns the world into per-day event streams.
//!
//! The primary interface is streaming: [`World::simulate_day_into`] pushes
//! each event — page loads (navigations with their same-site subresource
//! expansion), third-party fetches to embedded infrastructure zones, and
//! background DNS queries — into an [`EventSink`] by reference as it is
//! generated, so a full day never has to exist in memory at once. Observer
//! crates consume these streams; nothing downstream sees ground-truth
//! weights. [`World::simulate_day`] remains as a thin compatibility layer
//! that collects the stream into a materialized [`DayTraffic`] (via
//! [`CollectSink`]).
//!
//! Day simulation derives its RNG from `(seed, day index)`, so days are
//! independent and can be generated in any order or in parallel. The
//! streaming and materialized paths draw from the same RNG stream in the
//! same order, so they describe the *same* day.

use rand::Rng;
use topple_stats::cast;

use crate::batch::UniformBlock;
use crate::client::day_factor_for;
use crate::date::Date;
use crate::ids::{ClientId, SiteId};
use crate::rng::{chance, log_normal, poisson, substream, Stream};
use crate::soa::{
    CLIENT_ENTERPRISE, CLIENT_MOBILE, CLIENT_PANELIST, SITE_HTTPS, SITE_PANEL_AVERSE,
};
use crate::world::World;

/// One user-initiated page load and its same-site request expansion.
#[derive(Debug, Clone)]
pub struct PageLoad {
    /// The browsing client.
    pub client: ClientId,
    /// The site navigated to.
    pub site: SiteId,
    /// Index into the site's `hosts` of the navigated FQDN.
    pub host_idx: u8,
    /// Whether the navigation landed on the root path `/`.
    pub is_root_path: bool,
    /// Whether the navigation followed a hyperlink (sends a `Referer`).
    pub link_click: bool,
    /// Whether the load happened in a private browsing window.
    pub private_mode: bool,
    /// Whether the load completed (reached First Contentful Paint).
    pub completed: bool,
    /// Dwell time in seconds (0 when not completed).
    pub dwell_secs: u16,
    /// Same-site subresource requests beyond the main HTML document.
    pub own_requests: u16,
    /// Of the `own_requests + 1` requests, how many returned non-200.
    pub non200: u16,
    /// TLS handshakes performed against the site (0 for plain-HTTP sites).
    pub tls_handshakes: u16,
    /// Whether the client's stub resolver had to query upstream for this
    /// site's zone (first contact today).
    pub dns_fresh: bool,
}

impl PageLoad {
    /// Total same-site HTTP requests including the main document.
    pub fn total_requests(&self) -> u32 {
        u32::from(self.own_requests) + 1
    }
}

/// A batch of subresource requests to a third-party infrastructure zone.
#[derive(Debug, Clone)]
pub struct ThirdPartyFetch {
    /// The browsing client.
    pub client: ClientId,
    /// The third-party zone being fetched.
    pub site: SiteId,
    /// Index of the fetched service host within that zone.
    pub host_idx: u8,
    /// Number of HTTP requests in the batch.
    pub requests: u16,
    /// How many returned non-200.
    pub non200: u16,
    /// TLS handshakes (0 for plain-HTTP zones).
    pub tls_handshakes: u16,
    /// Stub-cache miss for the zone (first contact today).
    pub dns_fresh: bool,
    /// Whether the embedding page was in a private window.
    pub private_mode: bool,
}

/// A background (non-browsing) DNS query made by a device or OS job.
#[derive(Debug, Clone)]
pub struct BackgroundQuery {
    /// The querying client.
    pub client: ClientId,
    /// Index into [`World::background_names`].
    pub name_idx: u16,
}

/// Everything that happened on one simulated day.
#[derive(Debug, Clone)]
pub struct DayTraffic {
    /// Calendar day.
    pub day: Date,
    /// Index within the configured window.
    pub day_index: usize,
    /// User page loads.
    pub page_loads: Vec<PageLoad>,
    /// Third-party fetch batches.
    pub third_party: Vec<ThirdPartyFetch>,
    /// Background DNS queries.
    pub background: Vec<BackgroundQuery>,
}

/// A streaming consumer of one day's traffic.
///
/// [`World::simulate_day_into`] calls these hooks in generation order: each
/// page load, then (for completed loads) its third-party expansion, with a
/// client's background queries after its loads. Events arrive by reference
/// and are dropped after the call — a sink that needs an event beyond the
/// callback must copy the fields it cares about.
///
/// Per-day aggregations built on this interface must not depend on event
/// *order* beyond what the materialized [`DayTraffic`] vectors guarantee:
/// the streamed order interleaves page loads with their third-party fetches,
/// whereas `DayTraffic` segregates the three streams. All shard builders in
/// `topple-vantage` are order-independent (exact sets and commutative
/// counters), which is what makes the two paths byte-identical.
pub trait EventSink {
    /// One user navigation with its same-site request expansion.
    fn page_load(&mut self, pl: &PageLoad);
    /// One batch of subresource requests to a third-party zone.
    fn third_party(&mut self, tp: &ThirdPartyFetch);
    /// One background (non-browsing) DNS query.
    fn background(&mut self, bg: &BackgroundQuery);
}

/// Reusable per-worker state for [`World::simulate_day_into`].
///
/// Holds the per-day stub-resolver cache as a site-indexed table of
/// generation stamps (instead of a freshly allocated hash set per day) and
/// the per-client revisit list. After a warm-up day, simulating further days
/// through the same scratch performs no heap allocation.
#[derive(Debug)]
pub struct TrafficScratch {
    /// `stub_gen[site] == gen` ⇔ the current client already contacted
    /// `site`'s zone today. `gen` is bumped once per (client, day), which
    /// invalidates every stamp in O(1) without clearing the table.
    stub_gen: Vec<u64>,
    gen: u64,
    /// The current client's sites visited so far today (revisit pool).
    today: Vec<u32>,
    /// Epoch-2 block-filled uniform buffer (idle under epoch 1).
    block: UniformBlock,
    /// Epoch-2 per-client site selections (phase 1 output, phase 2 input;
    /// idle under epoch 1). Pre-sized so pushes never reallocate.
    picks: Vec<u32>,
}

impl TrafficScratch {
    /// Creates scratch sized for `world`'s site universe.
    pub fn for_world(world: &World) -> Self {
        // Loads per (client, day) are Poisson with mean activity × day
        // factor; size the pick buffer past the busiest client's mean by a
        // wide margin so the hot path never grows it.
        let max_activity = world
            .clients
            .iter()
            .map(|c| c.activity)
            .fold(0.0f32, f32::max);
        // topple-lint: allow(lossy-cast): capacity sizing; activity is bounded (≤ a few thousand)
        let picks_cap = ((max_activity * 1.5) as usize + 64).max(1024);
        TrafficScratch {
            stub_gen: vec![0; world.sites.len()],
            gen: 0,
            today: Vec::with_capacity(64),
            block: UniformBlock::new(),
            picks: Vec::with_capacity(picks_cap),
        }
    }

    /// Starts a fresh (client, day) scope: one bump invalidates all stamps.
    fn next_client(&mut self) {
        self.gen += 1; // u64 never wraps in any feasible run
        self.today.clear();
    }

    /// Marks `site`'s zone as contacted by the current client; returns
    /// whether this was the first contact (a stub-cache miss).
    fn stub_fresh(&mut self, site: SiteId) -> bool {
        stub_fresh_at(&mut self.stub_gen, self.gen, site.index())
    }
}

/// The stamp update behind [`TrafficScratch::stub_fresh`], usable on the
/// destructured scratch (the epoch-2 loop splits the scratch borrows).
#[inline]
fn stub_fresh_at(stub_gen: &mut [u64], generation: u64, site: usize) -> bool {
    let slot = &mut stub_gen[site];
    let fresh = *slot != generation;
    *slot = generation;
    fresh
}

/// An [`EventSink`] that materializes the stream into the three event
/// vectors of a [`DayTraffic`] — the compatibility bridge from the streaming
/// engine to consumers that want whole-day buffers.
#[derive(Debug, Default)]
pub struct CollectSink {
    /// Collected page loads, in generation order.
    pub page_loads: Vec<PageLoad>,
    /// Collected third-party fetches, in generation order.
    pub third_party: Vec<ThirdPartyFetch>,
    /// Collected background queries, in generation order.
    pub background: Vec<BackgroundQuery>,
}

impl CollectSink {
    /// Wraps the collected events into a [`DayTraffic`] for `day`.
    pub fn into_day_traffic(self, day: Date, day_index: usize) -> DayTraffic {
        DayTraffic {
            day,
            day_index,
            page_loads: self.page_loads,
            third_party: self.third_party,
            background: self.background,
        }
    }
}

impl EventSink for CollectSink {
    fn page_load(&mut self, pl: &PageLoad) {
        self.page_loads.push(pl.clone());
    }

    fn third_party(&mut self, tp: &ThirdPartyFetch) {
        self.third_party.push(tp.clone());
    }

    fn background(&mut self, bg: &BackgroundQuery) {
        self.background.push(bg.clone());
    }
}

impl World {
    /// Simulates one day of the configured window, collecting the event
    /// stream into a materialized [`DayTraffic`]. Deterministic in
    /// `(config.seed, day_index)` and independent across days.
    ///
    /// This is a compatibility wrapper over [`World::simulate_day_into`]
    /// with a [`CollectSink`]; the fused study pipeline streams instead.
    ///
    /// # Panics
    ///
    /// Panics if `day_index` is outside the configured window.
    pub fn simulate_day(&self, day_index: usize) -> DayTraffic {
        let day = self.config.days[day_index];
        let mut sink = CollectSink::default();
        let mut scratch = TrafficScratch::for_world(self);
        self.simulate_day_into(day_index, &mut scratch, &mut sink);
        sink.into_day_traffic(day, day_index)
    }

    /// Simulates one day of the configured window, pushing each event into
    /// `sink` as it is generated — no per-day event buffers. Deterministic
    /// in `(config.seed, day_index)`: it draws the same RNG stream in the
    /// same order as [`World::simulate_day`], so for a given day both paths
    /// emit the same events.
    ///
    /// `scratch` may be reused across days and worlds of the same site count
    /// (see [`TrafficScratch`]); reuse is what makes the fused ingestion
    /// path allocation-free per day.
    ///
    /// # Panics
    ///
    /// Panics if `day_index` is outside the configured window or `scratch`
    /// was built for a smaller site universe.
    pub fn simulate_day_into<S: EventSink>(
        &self,
        day_index: usize,
        scratch: &mut TrafficScratch,
        sink: &mut S,
    ) {
        // Pure dispatch — this function issues no draws itself, so each
        // epoch's contract is exactly its implementation's reachable set.
        // `World::generate` validated the effective epoch against
        // `SUPPORTED_EPOCHS`; any epoch above 1 is the batched generator.
        if self.config.effective_epoch() == 1 {
            self.simulate_day_epoch1(day_index, scratch, sink);
        } else {
            self.simulate_day_epoch2(day_index, scratch, sink);
        }
    }

    /// Epoch-1 traffic generation: per-client interleaved scalar draws from
    /// one per-day substream (`Stream::Traffic`). Frozen as the reference
    /// implementation — its output is pinned byte-for-byte by
    /// `tests/determinism.rs` and must never change.
    fn simulate_day_epoch1<S: EventSink>(
        &self,
        day_index: usize,
        scratch: &mut TrafficScratch,
        sink: &mut S,
    ) {
        let day = self.config.days[day_index];
        let weekend = day.weekday().is_weekend();
        let mut rng = substream(
            self.config.seed,
            Stream::Traffic,
            cast::u64_from_usize(day_index),
        );

        // topple-lint: hot-path-begin
        for client in &self.clients {
            scratch.next_client();
            let loads = poisson(
                &mut rng,
                f64::from(client.activity) * client.day_factor(weekend),
            );
            let mobile = client.platform.is_mobile();
            let table = self.nav_tables.get(client.country, mobile, weekend);
            for _ in 0..loads {
                // Personal browsing is bursty: about a third of loads return
                // to a site already visited today (mail, feeds, forums). This
                // is what separates raw-count metrics from unique-visitor
                // metrics on the server side.
                let mut site_idx = if !scratch.today.is_empty() && chance(&mut rng, 0.35) {
                    cast::usize_from_u32(scratch.today[rng.random_range(0..scratch.today.len())])
                } else {
                    cast::usize_from_u32(table.sample(&mut rng))
                };
                // Panel selection bias: extension panelists under-visit
                // sensitive categories. Rejection-resampling (up to twice,
                // 90% each) implements the demographic skew without touching
                // the global traffic model: sensitive-category visits by
                // panelists drop to a few percent of their population rate.
                if client.alexa_panelist && self.config.mechanisms.panel_aversion {
                    for _ in 0..2 {
                        if self.sites[site_idx].category.panel_averse() && chance(&mut rng, 0.9) {
                            site_idx = cast::usize_from_u32(table.sample(&mut rng));
                        } else {
                            break;
                        }
                    }
                }
                let site = &self.sites[site_idx];

                let host_idx = cast::u8_from_usize(site.nav_host(mobile, rng.random()));
                let private_mode = chance(&mut rng, site.private_share);
                let completed = chance(&mut rng, site.completion_rate);
                let dwell_secs = if completed {
                    cast::u16_from_f64(log_normal(&mut rng, site.dwell_mu, 0.9).min(3600.0))
                } else {
                    0
                };
                let own_requests = if completed {
                    cast::u16_from_u64(poisson(&mut rng, site.subresource_mean).min(2000))
                } else {
                    cast::u16_from_u64(poisson(&mut rng, 1.0).min(10))
                };
                let total = u32::from(own_requests) + 1;
                let non200 = cast::u16_from_u64(
                    poisson(&mut rng, f64::from(total) * site.error_rate).min(u64::from(total)),
                );
                // Connection reuse: roughly one handshake per 8 requests.
                let tls_handshakes = if site.https {
                    cast::u16_from_u64(1 + poisson(&mut rng, f64::from(own_requests) / 8.0))
                } else {
                    0
                };
                let is_root_path = matches!(
                    site.hosts[usize::from(host_idx)].kind,
                    crate::site::HostKind::Apex | crate::site::HostKind::Www
                ) && chance(&mut rng, site.root_nav_share);
                let link_click = chance(&mut rng, 0.72);
                let dns_fresh = scratch.stub_fresh(site.id);
                if scratch.today.len() < 64 && !scratch.today.contains(&site.id.0) {
                    scratch.today.push(site.id.0);
                }

                sink.page_load(&PageLoad {
                    client: client.id,
                    site: site.id,
                    host_idx,
                    is_root_path,
                    link_click,
                    private_mode,
                    completed,
                    dwell_secs,
                    own_requests,
                    non200,
                    tls_handshakes,
                    dns_fresh,
                });

                // Third-party expansion (only completed loads execute embeds).
                if completed {
                    for &(dep, p) in &site.third_party {
                        if chance(&mut rng, f64::from(p)) {
                            let dep_site = &self.sites[dep.index()];
                            let requests = cast::u16_from_u64(1 + poisson(&mut rng, 2.0));
                            let non200 = cast::u16_from_u64(
                                poisson(&mut rng, f64::from(requests) * dep_site.error_rate)
                                    .min(u64::from(requests)),
                            );
                            let tls = if dep_site.https { 1 } else { 0 };
                            let fresh = scratch.stub_fresh(dep);
                            sink.third_party(&ThirdPartyFetch {
                                client: client.id,
                                site: dep,
                                host_idx: cast::u8_from_usize(dep_site.service_host(rng.random())),
                                requests,
                                non200,
                                tls_handshakes: tls,
                                dns_fresh: fresh,
                                private_mode,
                            });
                        }
                    }
                }
            }

            // Background DNS noise: a few automatic queries per device-day.
            let n_bg = poisson(&mut rng, 2.5);
            let name_count = cast::u64_from_usize(self.background_names.len());
            for _ in 0..n_bg {
                let name_idx = cast::u16_from_u64(rng.random::<u64>() % name_count);
                sink.background(&BackgroundQuery {
                    client: client.id,
                    name_idx,
                });
            }
        }
        // topple-lint: hot-path-end
    }

    /// Epoch-2 traffic generation: batched struct-of-arrays draws.
    ///
    /// Differences from epoch 1, all legalized by the epoch bump and proven
    /// distributionally equivalent by `tests/epoch_equivalence.rs`:
    ///
    /// - **Per-client substreams.** Each `(day, client)` pair derives its own
    ///   RNG (`Stream::TrafficClient`, index `day << 32 | client`), so one
    ///   client's draw count never shifts another client's stream — the
    ///   precondition for generating clients out of order or in parallel.
    /// - **Block-filled uniforms.** Raw words are filled into the scratch
    ///   [`UniformBlock`] slab-at-a-time and consumed by fixed-word-count
    ///   samplers: single-uniform Poisson inversion below `λ = 30`,
    ///   multiply-high alias and index picks, unconditional root-path coin.
    /// - **SoA tables.** Per-load attributes come from `World::soa` dense
    ///   arrays instead of the ~300-byte `Site` records; third-party
    ///   dependency lists are walked in CSR layout.
    ///
    /// Event semantics (field invariants, stub-cache behavior, revisit pool,
    /// emission order of page loads → third-party → background per client)
    /// are identical to epoch 1.
    fn simulate_day_epoch2<S: EventSink>(
        &self,
        day_index: usize,
        scratch: &mut TrafficScratch,
        sink: &mut S,
    ) {
        let day = self.config.days[day_index];
        let weekend = day.weekday().is_weekend();
        let seed = self.config.seed;
        let sites = &self.soa.sites;
        let clients = &self.soa.clients;
        let panel_aversion = self.config.mechanisms.panel_aversion;
        let name_count = cast::u64_from_usize(self.background_names.len());
        let day_key = cast::u64_from_usize(day_index) << 32;
        let TrafficScratch {
            stub_gen,
            gen,
            today,
            block,
            picks,
        } = scratch;

        // topple-lint: hot-path-begin
        for ci in 0..clients.len() {
            *gen += 1; // u64 never wraps in any feasible run
            let generation = *gen;
            today.clear();
            let client = clients.id[ci];
            let cflags = clients.flags[ci];
            let mobile = cflags & CLIENT_MOBILE != 0;
            let panelist = cflags & CLIENT_PANELIST != 0;
            let mut rng = substream(seed, Stream::TrafficClient, day_key | u64::from(client.0));
            block.reset();

            let lambda = f64::from(clients.activity[ci])
                * day_factor_for(cflags & CLIENT_ENTERPRISE != 0, weekend);
            let loads = block.take_poisson(&mut rng, lambda);
            let table = self.nav_tables.get(clients.country[ci], mobile, weekend);

            // Phase 1: batched site selection. Semantics mirror epoch 1: a
            // ~third of loads revisit today's pool, the rest draw from the
            // popularity alias table, and panelists rejection-resample
            // sensitive categories (up to twice, 90% each).
            picks.clear();
            for _ in 0..loads {
                let mut site_idx = if !today.is_empty() && block.take_chance(&mut rng, 0.35) {
                    today[block.take_index(&mut rng, today.len())]
                } else {
                    table.sample_words(block.take_word(&mut rng), block.take_word(&mut rng))
                };
                if panelist && panel_aversion {
                    for _ in 0..2 {
                        let averse =
                            sites.flags[cast::usize_from_u32(site_idx)] & SITE_PANEL_AVERSE != 0;
                        if averse && block.take_chance(&mut rng, 0.9) {
                            site_idx = table
                                .sample_words(block.take_word(&mut rng), block.take_word(&mut rng));
                        } else {
                            break;
                        }
                    }
                }
                picks.push(site_idx);
                if today.len() < 64 && !today.contains(&site_idx) {
                    today.push(site_idx);
                }
            }

            // Phase 2: per-load detail and third-party expansion over the
            // SoA attribute arrays.
            for &pick in picks.iter() {
                let s = cast::usize_from_u32(pick);
                let host_idx = sites.nav_host(s, mobile, block.take_f64(&mut rng));
                let private_mode = block.take_chance(&mut rng, f64::from(sites.private_share[s]));
                let completed = block.take_chance(&mut rng, f64::from(sites.completion[s]));
                let dwell_secs = if completed {
                    cast::u16_from_f64(
                        block
                            .take_log_normal(&mut rng, f64::from(sites.dwell_mu[s]), 0.9)
                            .min(3600.0),
                    )
                } else {
                    0
                };
                let own_requests = if completed {
                    cast::u16_from_u64(
                        block
                            .take_poisson(&mut rng, f64::from(sites.subres_mean[s]))
                            .min(2000),
                    )
                } else {
                    cast::u16_from_u64(block.take_poisson(&mut rng, 1.0).min(10))
                };
                let total = u32::from(own_requests) + 1;
                let non200 = cast::u16_from_u64(
                    block
                        .take_poisson(&mut rng, f64::from(total) * f64::from(sites.error_rate[s]))
                        .min(u64::from(total)),
                );
                // Connection reuse: roughly one handshake per 8 requests.
                let https = sites.flags[s] & SITE_HTTPS != 0;
                let tls_handshakes = if https {
                    cast::u16_from_u64(
                        1 + block.take_poisson(&mut rng, f64::from(own_requests) / 8.0),
                    )
                } else {
                    0
                };
                // The root-path coin is drawn unconditionally (epoch 1
                // short-circuits it behind the host-role test): one word per
                // load regardless of host, same conditional distribution.
                let is_root_path = sites.is_root_candidate(s, host_idx)
                    && block.take_chance(&mut rng, f64::from(sites.root_nav_share[s]));
                let link_click = block.take_chance(&mut rng, 0.72);
                let dns_fresh = stub_fresh_at(stub_gen, generation, s);

                sink.page_load(&PageLoad {
                    client,
                    site: SiteId(pick),
                    host_idx,
                    is_root_path,
                    link_click,
                    private_mode,
                    completed,
                    dwell_secs,
                    own_requests,
                    non200,
                    tls_handshakes,
                    dns_fresh,
                });

                // Third-party expansion (only completed loads execute
                // embeds), walking the CSR dependency rows.
                if completed {
                    for j in sites.tp_range(s) {
                        if block.take_chance(&mut rng, f64::from(sites.tp_prob[j])) {
                            let dep = cast::usize_from_u32(sites.tp_zone[j]);
                            let requests =
                                cast::u16_from_u64(1 + block.take_poisson(&mut rng, 2.0));
                            let non200 = cast::u16_from_u64(
                                block
                                    .take_poisson(
                                        &mut rng,
                                        f64::from(requests) * f64::from(sites.error_rate[dep]),
                                    )
                                    .min(u64::from(requests)),
                            );
                            let tls = u16::from(sites.flags[dep] & SITE_HTTPS != 0);
                            let fresh = stub_fresh_at(stub_gen, generation, dep);
                            sink.third_party(&ThirdPartyFetch {
                                client,
                                site: SiteId(sites.tp_zone[j]),
                                host_idx: sites.service_host(dep, block.take_f64(&mut rng)),
                                requests,
                                non200,
                                tls_handshakes: tls,
                                dns_fresh: fresh,
                                private_mode,
                            });
                        }
                    }
                }
            }

            // Background DNS noise: a few automatic queries per device-day.
            let n_bg = block.take_poisson(&mut rng, 2.5);
            for _ in 0..n_bg {
                let name_idx = cast::u16_from_u64(block.take_word(&mut rng) % name_count);
                sink.background(&BackgroundQuery { client, name_idx });
            }
        }
        // topple-lint: hot-path-end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use crate::taxonomy::Category;

    fn world() -> World {
        World::generate(WorldConfig::tiny(21)).unwrap()
    }

    #[test]
    fn days_are_deterministic() {
        let w = world();
        let a = w.simulate_day(0);
        let b = w.simulate_day(0);
        assert_eq!(a.page_loads.len(), b.page_loads.len());
        for (x, y) in a.page_loads.iter().zip(&b.page_loads) {
            assert_eq!(x.client, y.client);
            assert_eq!(x.site, y.site);
            assert_eq!(x.own_requests, y.own_requests);
        }
        assert_eq!(a.third_party.len(), b.third_party.len());
    }

    /// The streaming path with a reused scratch must emit exactly the events
    /// the materialized path collects, in the per-stream order `DayTraffic`
    /// exposes — including the `dns_fresh` bits, which are the part the
    /// generation-stamped stub cache could plausibly get wrong.
    #[test]
    fn streamed_days_match_materialized_days() {
        let w = world();
        let mut scratch = TrafficScratch::for_world(&w);
        for day_index in [0, 3, 1, 3] {
            let mut sink = CollectSink::default();
            w.simulate_day_into(day_index, &mut scratch, &mut sink);
            let streamed = sink.into_day_traffic(w.config.days[day_index], day_index);
            let collected = w.simulate_day(day_index);
            assert_eq!(streamed.page_loads.len(), collected.page_loads.len());
            for (a, b) in streamed.page_loads.iter().zip(&collected.page_loads) {
                assert_eq!(
                    (a.client, a.site, a.host_idx, a.dns_fresh, a.own_requests),
                    (b.client, b.site, b.host_idx, b.dns_fresh, b.own_requests)
                );
            }
            assert_eq!(streamed.third_party.len(), collected.third_party.len());
            for (a, b) in streamed.third_party.iter().zip(&collected.third_party) {
                assert_eq!(
                    (a.client, a.site, a.dns_fresh, a.requests),
                    (b.client, b.site, b.dns_fresh, b.requests)
                );
            }
            assert_eq!(streamed.background.len(), collected.background.len());
            for (a, b) in streamed.background.iter().zip(&collected.background) {
                assert_eq!((a.client, a.name_idx), (b.client, b.name_idx));
            }
        }
    }

    #[test]
    fn days_are_independent_of_order() {
        let w = world();
        let d3_first = w.simulate_day(3);
        let _ = w.simulate_day(1);
        let d3_again = w.simulate_day(3);
        assert_eq!(d3_first.page_loads.len(), d3_again.page_loads.len());
    }

    #[test]
    fn volume_matches_activity_budget() {
        let w = world();
        let t = w.simulate_day(0);
        let expected: f64 = w
            .clients
            .iter()
            .map(|c| f64::from(c.activity) * c.day_factor(t.day.weekday().is_weekend()))
            .sum();
        let got = t.page_loads.len() as f64;
        assert!(
            (got - expected).abs() < expected * 0.1,
            "expected ~{expected} loads, got {got}"
        );
    }

    #[test]
    fn event_invariants_hold() {
        let w = world();
        let t = w.simulate_day(2);
        assert!(!t.page_loads.is_empty());
        for pl in &t.page_loads {
            let site = &w.sites[pl.site.index()];
            assert!((pl.host_idx as usize) < site.hosts.len());
            assert!(u32::from(pl.non200) <= pl.total_requests());
            if !site.https {
                assert_eq!(pl.tls_handshakes, 0);
            } else {
                assert!(pl.tls_handshakes >= 1);
            }
            if !pl.completed {
                assert_eq!(pl.dwell_secs, 0);
            }
        }
        for tp in &t.third_party {
            let site = &w.sites[tp.site.index()];
            assert!(site.is_infrastructure);
            assert!((tp.host_idx as usize) < site.hosts.len());
            assert!(tp.non200 <= tp.requests);
            assert!(tp.requests >= 1);
        }
        for bg in &t.background {
            assert!((bg.name_idx as usize) < w.background_names.len());
        }
    }

    #[test]
    fn dns_fresh_fires_exactly_once_per_zone_contact() {
        // The stub cache is shared between navigations and third-party
        // fetches: each (client, zone) pair contacted on a day produces
        // exactly one fresh upstream query across both streams.
        let w = world();
        let t = w.simulate_day(0);
        use std::collections::{HashMap, HashSet};
        let mut fresh: HashMap<(ClientId, SiteId), u32> = HashMap::new();
        let mut contacted: HashSet<(ClientId, SiteId)> = HashSet::new();
        for pl in &t.page_loads {
            contacted.insert((pl.client, pl.site));
            *fresh.entry((pl.client, pl.site)).or_default() += u32::from(pl.dns_fresh);
        }
        for tp in &t.third_party {
            contacted.insert((tp.client, tp.site));
            *fresh.entry((tp.client, tp.site)).or_default() += u32::from(tp.dns_fresh);
        }
        for key in &contacted {
            assert_eq!(fresh[key], 1, "exactly one fresh query for {key:?}");
        }
    }

    #[test]
    fn popular_sites_get_more_traffic() {
        let w = world();
        let mut counts = vec![0u32; w.sites.len()];
        let t = w.simulate_day(0);
        for pl in &t.page_loads {
            counts[pl.site.index()] += 1;
        }
        // Head sites (by generation order ≈ base rank) should dominate tail.
        let head: u32 = counts[..20].iter().sum();
        let tail: u32 = counts[counts.len() - 20..].iter().sum();
        assert!(head > tail * 5, "head {head} vs tail {tail}");
    }

    #[test]
    fn weekend_shifts_category_mix() {
        let w = World::generate(WorldConfig {
            n_clients: 600,
            ..WorldConfig::tiny(22)
        })
        .unwrap();
        // Day 0 = Tue Feb 1; day 4 = Sat Feb 5.
        let weekday = w.simulate_day(0);
        let weekend = w.simulate_day(4);
        let share = |t: &DayTraffic, cat: Category| {
            let hits = t
                .page_loads
                .iter()
                .filter(|p| w.sites[p.site.index()].category == cat)
                .count();
            hits as f64 / t.page_loads.len() as f64
        };
        // Business browsing concentrates on weekdays.
        assert!(
            share(&weekday, Category::Business) > share(&weekend, Category::Business),
            "business share should drop on weekends"
        );
    }

    #[test]
    fn private_mode_tracks_category() {
        let w = World::generate(WorldConfig {
            n_clients: 800,
            ..WorldConfig::tiny(23)
        })
        .unwrap();
        let t = w.simulate_day(0);
        let (mut adult_priv, mut adult_all, mut biz_priv, mut biz_all) = (0u32, 0u32, 0u32, 0u32);
        for pl in &t.page_loads {
            match w.sites[pl.site.index()].category {
                Category::Adult => {
                    adult_all += 1;
                    adult_priv += u32::from(pl.private_mode);
                }
                Category::Business => {
                    biz_all += 1;
                    biz_priv += u32::from(pl.private_mode);
                }
                _ => {}
            }
        }
        if adult_all > 20 && biz_all > 20 {
            assert!(
                f64::from(adult_priv) / f64::from(adult_all)
                    > 3.0 * f64::from(biz_priv) / f64::from(biz_all)
            );
        }
    }
}
