//! World generation: the complete synthetic web ecosystem.
//!
//! One generator builds every world (generation epoch 2; see DESIGN.md §18
//! and `crates/sim/src/rng.rs`). Every site and client seeds its *own*
//! substream (`Stream::GenSite(id)`, `Stream::GenClient(id)`, plus
//! `GenThirdParty(id)` / `GenLink(id)` for the wiring passes), so any
//! contiguous id shard can be built on any worker and folded into the final
//! vectors in id order. The result is byte-identical across worker counts
//! and shard sizes — only wall-clock changes.
//!
//! The per-entity draw sequences (`draw_site`, `draw_client`,
//! `choose_third_parties`, `draw_host_mask`) are the generation contract
//! that `determinism.gen.toml` pins.

use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::Rng;
use topple_psl::{DomainName, PublicSuffixList};
use topple_stats::cast;
use topple_stats::fanout::for_each_ordered;

use crate::alias::AliasTable;
use crate::budget::GenBudget;
use crate::client::{Client, Resolver};
use crate::config::WorldConfig;
use crate::domain_index::DomainIndex;
use crate::ids::{ClientId, SiteId};
use crate::linkgraph::{LinkGraph, LinkRows};
use crate::namegen::{pick_label, pick_suffix, resolve_names};
use crate::rng::{chance, log_normal, substream, zipf_weight, Stream};
use crate::site::{
    HostKind, Site, HOST_API, HOST_CDN, HOST_CHECKOUT, HOST_IMG, HOST_M, HOST_STATIC, HOST_WWW,
};
use crate::soa::{ClientSoa, SiteSoa, SoaTables};
use crate::taxonomy::{Browser, Category, Country, Platform};

/// Poisson mean of distinct outbound links per public site.
const MEAN_OUTLINKS: f64 = 10.0;

/// Error produced by world generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldError(pub String);

impl std::fmt::Display for WorldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "world generation failed: {}", self.0)
    }
}

impl std::error::Error for WorldError {}

/// Wall-clock phase timings from one `World::generate` run.
///
/// Purely observational: the phases and their durations never feed back into
/// generation. Consumed by the `worldgen` experiments subcommand and
/// EXPERIMENTS.md's parallel-fraction measurements.
#[derive(Debug, Clone, Default)]
pub struct GenTimings {
    /// `(phase name, wall-clock duration)` in execution order.
    pub phases: Vec<(&'static str, Duration)>,
}

impl GenTimings {
    /// Total wall-clock across all phases.
    pub fn total(&self) -> Duration {
        self.phases.iter().map(|(_, d)| *d).sum()
    }
}

/// Phase stopwatch for [`GenTimings`]; instrumentation only.
struct PhaseClock {
    last: std::time::Instant,
    timings: GenTimings,
}

impl PhaseClock {
    fn start() -> PhaseClock {
        PhaseClock {
            // topple-lint: allow(wall-clock): phase instrumentation for EXPERIMENTS.md; never feeds simulation state
            last: std::time::Instant::now(),
            timings: GenTimings::default(),
        }
    }

    fn mark(&mut self, phase: &'static str) {
        // topple-lint: allow(wall-clock): phase instrumentation for EXPERIMENTS.md; never feeds simulation state
        let now = std::time::Instant::now();
        self.timings.phases.push((phase, now - self.last));
        self.last = now;
    }
}

/// Navigation alias tables indexed by (country, mobile?, weekend?).
#[derive(Debug, Clone)]
pub(crate) struct NavTables {
    tables: Vec<AliasTable>, // COUNTRY_COUNT * 2 * 2
}

impl NavTables {
    fn idx(country: Country, mobile: bool, weekend: bool) -> usize {
        country.index() * 4 + usize::from(mobile) * 2 + usize::from(weekend)
    }

    pub(crate) fn get(&self, country: Country, mobile: bool, weekend: bool) -> &AliasTable {
        &self.tables[Self::idx(country, mobile, weekend)]
    }
}

/// The complete generated world: sites, clients, link graph, and samplers.
#[derive(Debug)]
pub struct World {
    /// The configuration the world was generated from.
    pub config: WorldConfig,
    /// The Public Suffix List in force.
    pub psl: PublicSuffixList,
    /// All websites, in descending ground-truth base-rank order (site 0 drew
    /// the largest Zipf weight before noise).
    pub sites: Vec<Site>,
    /// The client population.
    pub clients: Vec<Client>,
    /// The hyperlink graph.
    pub link_graph: LinkGraph,
    /// Non-website names queried by background jobs (TLD probes, NTP,
    /// connectivity checks). These pollute DNS-derived lists.
    pub background_names: Vec<DomainName>,
    pub(crate) nav_tables: NavTables,
    /// Struct-of-arrays projections of sites and clients for the traffic
    /// generator. A pure function of the fields above — rebuilding it never
    /// consumes RNG.
    pub(crate) soa: SoaTables,
    domain_index: DomainIndex,
}

impl World {
    /// Generates a world from a configuration. Deterministic in `config.seed`
    /// and independent of worker count and shard size (see the module docs).
    pub fn generate(config: WorldConfig) -> Result<World, WorldError> {
        Ok(World::generate_instrumented(config)?.0)
    }

    /// [`World::generate`] plus per-phase wall-clock timings: sharded
    /// parallel construction under a streaming memory budget.
    ///
    /// The timings are observational only; the returned world is
    /// byte-identical to `generate`'s.
    ///
    /// Pipeline (S = site phases, C = clients, N = navigation):
    ///
    /// 1. **S1 (parallel)** — per-site draws from `Stream::GenSite(id)`
    ///    substreams into compact `SiteDraw` records plus `(label,
    ///    suffix)` name candidates; shards fan out over
    ///    `config.effective_workers()`.
    /// 2. **S2 (serial)** — deterministic name collision resolution
    ///    ([`resolve_names`]), the infrastructure forcing fixup, and the two
    ///    global alias tables (infrastructure embeds, link targets) that
    ///    every shard samples against.
    /// 3. **S3 (parallel)** — per shard: materialize `Site` records from
    ///    the shard's own resolved names, taken by value (the host mask
    ///    keeps the drawn bits whose name is valid — no RNG, no host
    ///    strings), wire third parties from `Stream::GenThirdParty(id)`,
    ///    and draw link-graph CSR rows from `Stream::GenLink(id)`.
    /// 4. **S4 (serial, overlapped with S3)** — the calling thread folds
    ///    each finished shard in id order as `run_sharded` hands it over:
    ///    its sites move into the final vector and are projected into the
    ///    [`SiteSoa`], and its link rows append to the one CSR. At most
    ///    `2 · workers` shards are in flight, so no shard output is ever
    ///    collected whole and then copied.
    /// 5. **C (parallel)** — clients from `Stream::GenClient(id)`, same
    ///    shard/fold scheme.
    /// 6. **N (parallel)** — the 48 navigation alias tables, one cell per
    ///    work item, each worker reusing one weight buffer.
    ///
    /// The domain index is last: `u32` site ids in an open-addressed table
    /// that borrows its keys from the sites.
    ///
    /// Because every draw comes from an id-keyed substream and assembly is
    /// in id order, the world is byte-identical across workers 1/2/8 and
    /// across shard sizes; `gen_shard` and `workers` are scheduling knobs
    /// only.
    pub fn generate_instrumented(config: WorldConfig) -> Result<(World, GenTimings), WorldError> {
        config.validate().map_err(WorldError)?;
        GenBudget::for_config(&config)
            .check(config.gen_budget_bytes)
            .map_err(WorldError)?;
        let mut clock = PhaseClock::start();
        let psl = PublicSuffixList::builtin();
        let n = config.n_sites;
        let workers = config.effective_workers();
        let shard = config.effective_gen_shard();
        let seed = config.seed;

        let cat_weights: Vec<f64> = Category::ALL.iter().map(|c| c.universe_share()).collect();
        let cat_table = AliasTable::new(&cat_weights);
        let country_weights: Vec<f64> = Country::ALL.iter().map(|c| c.population_share()).collect();
        let country_table = AliasTable::new(&country_weights);
        let zipf_s = config.zipf_exponent;

        // S1: independent per-site draws; the name is a (label, suffix)
        // candidate drawn from the same per-site substream. Each shard is
        // folded into the final vectors as it arrives in id order.
        let mut draws = Vec::with_capacity(n);
        let mut candidates = Vec::with_capacity(n);
        run_sharded(
            n,
            shard,
            workers,
            |lo, hi| {
                let mut shard_draws = Vec::with_capacity(hi - lo);
                let mut shard_candidates = Vec::with_capacity(hi - lo);
                for i in lo..hi {
                    let mut rng = substream(seed, Stream::GenSite, cast::u64_from_usize(i));
                    let mut mint = |r: &mut SmallRng, cat: Category, home: Country, glob: bool| {
                        let label = pick_label(r, cat);
                        let suffix = pick_suffix(r, cat, home, glob);
                        (label, suffix)
                    };
                    let (candidate, draw) = draw_site(
                        &mut rng,
                        &config,
                        i,
                        zipf_weight(i, zipf_s),
                        &cat_table,
                        &country_table,
                        &mut mint,
                    );
                    shard_candidates.push(candidate);
                    shard_draws.push(draw);
                }
                (shard_draws, shard_candidates)
            },
            |(shard_draws, shard_candidates)| {
                draws.extend(shard_draws);
                candidates.extend(shard_candidates);
            },
        );
        clock.mark("site-draws");

        // S2: serial cross-shard passes — name resolution, the infra
        // forcing fixup, and the global sampling tables.
        let names = resolve_names(&candidates);
        drop(candidates);
        force_infrastructure(&config, &mut draws);
        let infra: Vec<SiteId> = draws
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_infrastructure)
            .map(|(i, _)| SiteId(cast::u32_from_usize(i)))
            .collect();
        let infra_table = if infra.is_empty() {
            None
        } else {
            // Popular infrastructure wins embeds (analytics-market
            // concentration).
            let infra_weights: Vec<f64> = infra
                .iter()
                .map(|id| draws[id.index()].weight.powf(0.6))
                .collect();
            Some(AliasTable::new(&infra_weights))
        };
        let link_weights: Vec<f64> = draws
            .iter()
            .map(|d| {
                LinkGraph::attractiveness(d.weight, d.category.link_propensity(), d.public_web)
            })
            .collect();
        let link_table = AliasTable::new(&link_weights);
        // S3 shard k owns names `k·shard..`; it takes them by value.
        let name_shards: Vec<Mutex<Vec<DomainName>>> = {
            let mut names = names.into_iter();
            (0..n.div_ceil(shard))
                .map(|_| Mutex::new(names.by_ref().take(shard).collect()))
                .collect()
        };
        clock.mark("names-and-tables");

        // S3: shard-local assembly — sites, third-party wiring and link CSR
        // rows, all from id-keyed substreams — folded in id order into the
        // final site vector, its SoA projection and the link CSR.
        let mut sites = Vec::with_capacity(n);
        let mut site_soa = SiteSoa::with_capacity(n);
        let mut links = LinkRows::with_capacity(n);
        run_sharded(
            n,
            shard,
            workers,
            |lo, hi| {
                let names = std::mem::take(
                    &mut *name_shards[lo / shard]
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner),
                );
                let mut shard_sites = Vec::with_capacity(hi - lo);
                let mut row_lens = Vec::with_capacity(hi - lo);
                let mut targets: Vec<u32> = Vec::new();
                for (i, domain) in (lo..hi).zip(names) {
                    let d = &draws[i];
                    let mut site = materialize_site(i, d, domain);
                    if let Some(table) = &infra_table {
                        let mut tp_rng =
                            substream(seed, Stream::GenThirdParty, cast::u64_from_usize(i));
                        site.third_party = choose_third_parties(
                            &mut tp_rng,
                            i,
                            d.is_infrastructure,
                            d.category,
                            &infra,
                            table,
                        );
                    }
                    let mut link_rng = substream(seed, Stream::GenLink, cast::u64_from_usize(i));
                    let row_start = targets.len();
                    LinkGraph::sample_row(
                        &mut link_rng,
                        cast::u32_from_usize(i),
                        d.weight,
                        d.public_web,
                        &link_table,
                        MEAN_OUTLINKS,
                        &mut targets,
                    );
                    row_lens.push(cast::u32_from_usize(targets.len() - row_start));
                    shard_sites.push(site);
                }
                (shard_sites, row_lens, targets)
            },
            |(shard_sites, row_lens, targets)| {
                for site in &shard_sites {
                    site_soa.push(site);
                }
                sites.extend(shard_sites);
                links.append(&row_lens, &targets);
            },
        );
        drop(draws);
        let link_graph = links.finish();
        clock.mark("assemble-sites");

        // C: clients, same shard/fold scheme.
        let mut clients = Vec::with_capacity(config.n_clients);
        let mut client_soa = ClientSoa::with_capacity(config.n_clients);
        run_sharded(
            config.n_clients,
            shard,
            workers,
            |lo, hi| {
                let mut shard_clients = Vec::with_capacity(hi - lo);
                // topple-lint: hot-path-begin
                for i in lo..hi {
                    let mut rng = substream(seed, Stream::GenClient, cast::u64_from_usize(i));
                    shard_clients.push(draw_client(&mut rng, &config, i, &country_table));
                }
                // topple-lint: hot-path-end
                shard_clients
            },
            |shard_clients| {
                for client in &shard_clients {
                    client_soa.push(client);
                }
                clients.extend(shard_clients);
            },
        );
        clock.mark("clients");

        // N: the 48 navigation alias tables, one (country, mobile, weekend)
        // cell per work item; each worker reuses one weight buffer. Cell
        // order must match NavTables::idx.
        let cells = Country::COUNT * 4;
        let mut tables = Vec::with_capacity(cells);
        for_each_ordered(
            cells,
            workers,
            || vec![0.0f64; sites.len()],
            |weights, cell| {
                let country = Country::ALL[cell / 4];
                let mobile = (cell / 2) % 2 == 1;
                let weekend = cell % 2 == 1;
                fill_nav_weights(&sites, country, mobile, weekend, weights);
                AliasTable::new(weights)
            },
            |_, table| tables.push(table),
        );
        let nav_tables = NavTables { tables };
        clock.mark("nav-tables");

        let background_names = background_names();
        let domain_index = DomainIndex::build(&sites);
        clock.mark("index");
        Ok((
            World {
                config,
                psl,
                sites,
                clients,
                link_graph,
                background_names,
                nav_tables,
                soa: SoaTables {
                    sites: site_soa,
                    clients: client_soa,
                },
                domain_index,
            },
            clock.timings,
        ))
    }

    /// Content digest (FNV-1a) over the generated world: every site field
    /// (domain, hosts, audience mixes, rates, third-party wiring), every
    /// client field, the link-graph CSR, and both SoA projections.
    ///
    /// Two worlds with equal digests were built from identical bytes — this
    /// is what the determinism tests and the CI `worldgen-smoke` job compare
    /// across worker counts and shard sizes. The navigation tables are
    /// excluded: they are a pure function of the site fields already
    /// digested.
    pub fn gen_digest(&self) -> u64 {
        let mut d = Fnv::new();
        d.usize(self.sites.len());
        d.usize(self.clients.len());
        for s in &self.sites {
            d.u32(s.id.0);
            d.str(s.domain.as_str());
            d.usize(s.category.index());
            d.usize(s.home_country.index());
            d.u8(u8::from(s.is_global));
            d.f64(s.weight);
            for &v in &s.country_mix {
                d.f64(v);
            }
            d.f64(s.mobile_affinity);
            d.u8(u8::from(s.https));
            d.u8(u8::from(s.cloudflare));
            d.u8(u8::from(s.public_web));
            d.f64(s.completion_rate);
            d.f64(s.subresource_mean);
            d.f64(s.error_rate);
            d.f64(s.dwell_mu);
            d.f64(s.private_share);
            d.f64(s.root_nav_share);
            d.usize(s.host_count());
            for h in 0..s.host_count() {
                d.str(s.host_name(h).as_str());
                d.u8(match s.host_kind(h) {
                    HostKind::Apex => 0,
                    HostKind::Www => 1,
                    HostKind::Mobile => 2,
                    HostKind::Service => 3,
                });
            }
            d.usize(s.third_party.len());
            for &(zone, p) in &s.third_party {
                d.u32(zone.0);
                d.f32(p);
            }
            d.u8(u8::from(s.is_infrastructure));
            d.f64(s.certify_boost);
        }
        for c in &self.clients {
            d.u32(c.id.0);
            d.usize(c.country.index());
            d.usize(c.platform.index());
            d.usize(c.browser.index());
            d.u32(c.ip);
            d.u8(u8::from(c.enterprise));
            d.f32(c.activity);
            d.u8(match c.resolver {
                Resolver::Umbrella => 0,
                Resolver::ChinaVoting => 1,
                Resolver::Isp => 2,
            });
            d.u8(u8::from(c.chrome_optin));
            d.u8(u8::from(c.alexa_panelist));
        }
        for i in 0..self.link_graph.site_count() {
            let row = self.link_graph.out_links(SiteId(cast::u32_from_usize(i)));
            d.usize(row.len());
            for &t in row {
                d.u32(t);
            }
        }
        for &v in self.link_graph.in_degrees() {
            d.u32(v);
        }
        for &v in self.link_graph.referring_domains() {
            d.u32(v);
        }
        digest_soa(&mut d, &self.soa);
        d.finish()
    }

    /// Looks up a site by registrable domain.
    pub fn site_by_domain(&self, domain: &DomainName) -> Option<&Site> {
        self.domain_index.get(&self.sites, domain.as_str())
    }

    /// Whether a registrable domain is served by the Cloudflare-style CDN.
    ///
    /// This models the paper's `HTTP HEAD` probe for the `cf_ray` response
    /// header (Section 4.3): the check is made against the *domain*, exactly
    /// as the probe would observe it, without consulting popularity data.
    pub fn is_cloudflare(&self, domain: &DomainName) -> bool {
        self.site_by_domain(domain)
            .map(|s| s.cloudflare)
            .unwrap_or(false)
    }

    /// Ground-truth top-k site ids by true weight (for framework validation
    /// tests only — no vantage or list construction may touch this).
    pub fn ground_truth_top(&self, k: usize) -> Vec<SiteId> {
        let mut ids: Vec<SiteId> = self.sites.iter().map(|s| s.id).collect();
        ids.sort_by(|a, b| {
            self.sites[b.index()]
                .weight
                .total_cmp(&self.sites[a.index()].weight)
        });
        ids.truncate(k);
        ids
    }
}

/// FNV-1a accumulator for [`World::gen_digest`].
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u8(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.u8(b);
        }
    }
    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(cast::u64_from_usize(v));
    }
    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Digests both SoA projections (fold order is exactly what these columns
/// witness: a misplaced offset or a reordered shard changes them).
fn digest_soa(d: &mut Fnv, soa: &SoaTables) {
    let s = &soa.sites;
    for &v in &s.completion {
        d.f32(v);
    }
    for &v in &s.subres_mean {
        d.f32(v);
    }
    for &v in &s.error_rate {
        d.f32(v);
    }
    for &v in &s.dwell_mu {
        d.f32(v);
    }
    for &v in &s.private_share {
        d.f32(v);
    }
    for &v in &s.root_nav_share {
        d.f32(v);
    }
    d.bytes(&s.flags);
    d.bytes(&s.nav_mobile);
    d.bytes(&s.nav_www);
    for &v in &s.root_mask {
        d.u32(u32::from(v));
    }
    for &v in &s.svc_mask {
        d.u32(u32::from(v));
    }
    d.bytes(&s.svc_count);
    for &v in &s.tp_offsets {
        d.u32(v);
    }
    for &v in &s.tp_zone {
        d.u32(v);
    }
    for &v in &s.tp_prob {
        d.f32(v);
    }
    let c = &soa.clients;
    for &id in &c.id {
        d.u32(id.0);
    }
    for &v in &c.activity {
        d.f32(v);
    }
    for &country in &c.country {
        d.usize(country.index());
    }
    d.bytes(&c.flags);
}

/// Runs `work(lo, hi)` over contiguous ranges of `0..n` (each `shard` wide,
/// the last one shorter) on up to `workers` threads, handing each result to
/// `fold` on the calling thread **in range order**.
///
/// The ranges are the work items of [`for_each_ordered`], so at most
/// `2 · workers` shard results exist at once, and the fold sees the same
/// sequence at any worker count: `work` is pure per range, and one worker
/// (or one shard) runs the same loop inline.
fn run_sharded<T: Send>(
    n: usize,
    shard: usize,
    workers: usize,
    work: impl Fn(usize, usize) -> T + Sync,
    mut fold: impl FnMut(T),
) {
    for_each_ordered(
        n.div_ceil(shard),
        workers,
        || (),
        |(), k| work(k * shard, ((k + 1) * shard).min(n)),
        |_, t| fold(t),
    );
}

/// Everything drawn for one site *except* its name, as plain scalars — the
/// shard-resident form of a site before materialization. ~140 bytes, no heap.
#[derive(Debug, Clone)]
struct SiteDraw {
    category: Category,
    home_country: Country,
    is_global: bool,
    weight: f64,
    country_mix: [f64; Country::COUNT],
    mobile_affinity: f64,
    https: bool,
    cloudflare: bool,
    public_web: bool,
    completion_rate: f64,
    subresource_mean: f64,
    error_rate: f64,
    dwell_mu: f64,
    private_share: f64,
    root_nav_share: f64,
    host_mask: u8,
    is_infrastructure: bool,
    certify_boost: f64,
}

/// Draws one site's full attribute set from `rng`, minting its name through
/// `mint` (a `(label, suffix)` candidate drawn from the same per-site
/// substream; collisions are resolved later by [`resolve_names`]). The draw
/// order here **is** the generation contract.
fn draw_site<N>(
    rng: &mut SmallRng,
    config: &WorldConfig,
    i: usize,
    base_weight: f64,
    cat_table: &AliasTable,
    country_table: &AliasTable,
    mint: &mut dyn FnMut(&mut SmallRng, Category, Country, bool) -> N,
) -> (N, SiteDraw) {
    let category = Category::ALL[cast::usize_from_u32(cat_table.sample(rng))];
    let home_country = Country::ALL[cast::usize_from_u32(country_table.sample(rng))];
    // Strongly local ecosystems produce fewer globally-oriented sites.
    let global_rate = 0.30 * (1.0 - home_country.locality()).max(0.15) / 0.45;
    let is_global = chance(rng, global_rate);
    let name = mint(rng, category, home_country, is_global);

    let weight =
        base_weight * category.popularity_damping() * log_normal(rng, 0.0, config.popularity_noise);
    let country_mix = country_mix(home_country, is_global, rng);

    // Category mobile affinity with a little per-site jitter.
    let mobile_affinity = (category.mobile_affinity() * log_normal(rng, 0.0, 0.15)).clamp(0.3, 1.8);

    let https = chance(
        rng,
        if matches!(category, Category::Parked | Category::Abuse) {
            0.55
        } else {
            0.93
        },
    );

    // CDN adoption: never the global top 10 (none of the web's top ten
    // sites use Cloudflare), mild category skew elsewhere.
    let cf_factor = match category {
        Category::Technology | Category::Blog | Category::Gaming => 1.25,
        Category::Adult | Category::Gambling => 1.15,
        Category::Government | Category::Education => 0.45,
        Category::Finance => 0.7,
        _ => 1.0,
    };
    let cloudflare = i >= 10 && chance(rng, (config.cloudflare_share * cf_factor).min(0.9));

    let public_web = chance(rng, category.public_web_rate());
    let completion_rate = match category {
        Category::Parked | Category::Abuse => 0.55,
        _ => 0.82 + 0.12 * rng.random::<f64>(),
    };
    let subresource_mean =
        (category.subresource_mean() * log_normal(rng, 0.0, 0.35)).clamp(0.5, 150.0);
    let error_rate = 0.02 + 0.08 * rng.random::<f64>();
    let dwell_mu = category.dwell_mean_secs().ln() - 0.32; // median below mean
    let private_noise = log_normal(rng, 0.0, 0.2);
    let private_share = if config.mechanisms.private_browsing {
        (category.private_mode_share() * private_noise).min(0.95)
    } else {
        0.0
    };
    let root_nav_share = match category {
        Category::News | Category::Blog | Category::Community => 0.25 + 0.15 * rng.random::<f64>(),
        Category::Parked => 0.9,
        _ => 0.40 + 0.25 * rng.random::<f64>(),
    };

    let host_mask = draw_host_mask(rng, category);
    let is_infrastructure = chance(rng, config.infrastructure_share)
        && matches!(category, Category::Technology | Category::Business);
    // Alexa Certify adoption: commercially-motivated mid-tail sites buy
    // direct measurement and rank better than panel sampling would place
    // them. Never the true giants (they don't need it).
    let certify_rate = match category {
        Category::Business | Category::Shopping | Category::News | Category::Travel => 0.08,
        Category::Parked | Category::Abuse | Category::Adult => 0.0,
        _ => 0.025,
    };
    // Draw unconditionally so counterfactual worlds (mechanism toggles)
    // consume identical RNG streams and differ only in the mechanism.
    let certify_drawn = chance(rng, certify_rate);
    let certify_factor = log_normal(rng, 2.0, 0.7).clamp(2.0, 120.0);
    let certify_boost = if config.mechanisms.certify && i >= 50 && certify_drawn {
        certify_factor
    } else {
        1.0
    };

    (
        name,
        SiteDraw {
            category,
            home_country,
            is_global,
            weight,
            country_mix,
            mobile_affinity,
            https,
            cloudflare,
            public_web,
            completion_rate,
            subresource_mean,
            error_rate,
            dwell_mu,
            private_share,
            root_nav_share,
            host_mask,
            is_infrastructure,
            certify_boost,
        },
    )
}

/// Draws the seven host coin flips into a bitmask (same coins, same order,
/// as the host vector push sequence).
fn draw_host_mask(rng: &mut SmallRng, category: Category) -> u8 {
    let mut mask = 0u8;
    if chance(rng, 0.85) {
        mask |= HOST_WWW;
    }
    if chance(rng, 0.35) {
        mask |= HOST_M;
    }
    for (bit, p) in [
        (HOST_CDN, 0.35),
        (HOST_STATIC, 0.25),
        (HOST_API, 0.30),
        (HOST_IMG, 0.15),
    ] {
        if chance(rng, p) {
            mask |= bit;
        }
    }
    if category == Category::Shopping && chance(rng, 0.4) {
        mask |= HOST_CHECKOUT;
    }
    mask
}

/// Builds the full `Site` record from a draw and its resolved domain — pure,
/// no RNG. Only the drawn host bits whose name is valid are kept. Third-party
/// wiring is attached separately.
fn materialize_site(i: usize, d: &SiteDraw, domain: DomainName) -> Site {
    Site {
        host_mask: Site::effective_host_mask(&domain, d.host_mask),
        id: SiteId(cast::u32_from_usize(i)),
        domain,
        category: d.category,
        home_country: d.home_country,
        is_global: d.is_global,
        weight: d.weight,
        country_mix: d.country_mix,
        mobile_affinity: d.mobile_affinity,
        https: d.https,
        cloudflare: d.cloudflare,
        public_web: d.public_web,
        completion_rate: d.completion_rate,
        subresource_mean: d.subresource_mean,
        error_rate: d.error_rate,
        dwell_mu: d.dwell_mu,
        private_share: d.private_share,
        root_nav_share: d.root_nav_share,
        third_party: Vec::new(),
        is_infrastructure: d.is_infrastructure,
        certify_boost: d.certify_boost,
    }
}

/// Forces a handful of infrastructure zones among popular technology sites
/// so that small worlds have them too. Pure fixup — consumes no RNG.
fn force_infrastructure(config: &WorldConfig, draws: &mut [SiteDraw]) {
    // topple-lint: allow(lossy-cast): share is in [0, 1], so the product is bounded by n
    let needed = (config.infrastructure_share * draws.len() as f64).ceil() as usize;
    let have = draws.iter().filter(|d| d.is_infrastructure).count();
    if have < needed.max(3) {
        let mut added = have;
        for draw in draws.iter_mut().skip(10) {
            if added >= needed.max(3) {
                break;
            }
            if matches!(draw.category, Category::Technology | Category::Business)
                && !draw.is_infrastructure
            {
                draw.is_infrastructure = true;
                added += 1;
            }
        }
    }
}

/// Chooses one site's third-party dependencies. Infrastructure zones and
/// parked pages embed nothing (and draw nothing); everyone else embeds 1–4
/// distinct infrastructure zones with per-dependency inclusion
/// probabilities.
fn choose_third_parties(
    rng: &mut SmallRng,
    site_idx: usize,
    is_infrastructure: bool,
    category: Category,
    infra: &[SiteId],
    table: &AliasTable,
) -> Vec<(SiteId, f32)> {
    if is_infrastructure || category == Category::Parked {
        return Vec::new();
    }
    let deps = 1 + cast::floor_index(rng.random::<f64>() * 4.0, 4); // 1..=4
    let mut chosen: Vec<(SiteId, f32)> = Vec::with_capacity(deps);
    for _ in 0..deps {
        let dep = infra[cast::usize_from_u32(table.sample(rng))];
        if dep.index() != site_idx && !chosen.iter().any(|(d, _)| *d == dep) {
            let p = 0.4 + 0.55 * rng.random::<f32>();
            chosen.push((dep, p));
        }
    }
    chosen
}

/// Audience mix over countries for a site.
fn country_mix(home: Country, is_global: bool, rng: &mut SmallRng) -> [f64; Country::COUNT] {
    let locality = if is_global { 0.06 } else { home.locality() };
    let mut mix = [0.0; Country::COUNT];
    for c in Country::ALL {
        let base = c.population_share();
        let mut v = (1.0 - locality) * base;
        // Cross-border damping into strongly-local ecosystems: foreign sites
        // reach China/Japan audiences weakly.
        if c != home {
            v *= 1.0 - 0.85 * c.locality().max(0.0).powi(2);
            // The Chinese ecosystem is additionally walled off: most foreign
            // sites are simply unreachable, so the resolver behind Secrank
            // observes an almost purely domestic web.
            if c == Country::China {
                v *= 0.25;
            }
        }
        // Per-site noise so mixes aren't identical within a class.
        v *= log_normal(rng, 0.0, 0.25);
        mix[c.index()] = v;
    }
    mix[home.index()] += locality;
    let total: f64 = mix.iter().sum();
    for v in &mut mix {
        *v /= total;
    }
    mix
}

/// Draws one client's full attribute set from `rng`. Like [`draw_site`],
/// this sequence is the generation contract (the country table is hoisted by
/// the caller — its construction draws nothing).
fn draw_client(
    rng: &mut SmallRng,
    config: &WorldConfig,
    i: usize,
    country_table: &AliasTable,
) -> Client {
    let country = Country::ALL[cast::usize_from_u32(country_table.sample(rng))];
    let mobile = chance(rng, country.mobile_share());
    let platform = if mobile {
        if chance(rng, ios_share(country)) {
            Platform::Ios
        } else {
            Platform::Android
        }
    } else if chance(rng, 0.12) {
        Platform::MacOs
    } else if chance(rng, 0.06) {
        Platform::Other
    } else {
        Platform::Windows
    };
    let browser = pick_browser(rng, platform, country);
    let enterprise = !mobile && chance(rng, country.enterprise_rate());
    let resolver = pick_resolver(rng, country, enterprise, mobile);
    let activity =
        log_normal(rng, config.mean_loads_per_day.ln() - 0.25, 0.7).clamp(1.0, 400.0) as f32;
    let ip = assign_ip(rng, country, enterprise, cast::u32_from_usize(i));
    let chrome_optin = browser == Browser::Chrome && chance(rng, config.chrome_optin_rate);
    // The panel is desktop-only and strongly geographically skewed: the
    // partnered extensions are overwhelmingly installed in the US and
    // western Europe, and essentially absent in China.
    let geo_factor = match country {
        Country::UnitedStates => 2.6,
        Country::UnitedKingdom | Country::Germany => 1.6,
        Country::China => 0.02,
        Country::Japan => 0.4,
        _ => 0.5,
    };
    let panel_rate = if platform.is_mobile() {
        0.0
    } else {
        config.alexa_panel_rate * geo_factor * if enterprise { 0.7 } else { 1.4 }
    };
    let alexa_panelist = browser != Browser::Automation && chance(rng, panel_rate);

    Client {
        id: ClientId(cast::u32_from_usize(i)),
        country,
        platform,
        browser,
        ip,
        enterprise,
        activity,
        resolver,
        chrome_optin,
        alexa_panelist,
    }
}

fn ios_share(country: Country) -> f64 {
    match country {
        Country::UnitedStates => 0.52,
        Country::Japan => 0.60,
        Country::UnitedKingdom => 0.48,
        Country::Germany => 0.36,
        Country::China => 0.24,
        Country::Brazil => 0.16,
        Country::India => 0.05,
        Country::Indonesia => 0.12,
        Country::Nigeria => 0.06,
        Country::Egypt => 0.10,
        Country::SouthAfrica => 0.14,
        Country::Rest => 0.20,
    }
}

fn pick_browser(rng: &mut SmallRng, platform: Platform, country: Country) -> Browser {
    // Small automation share on desktop platforms.
    if !platform.is_mobile() && chance(rng, 0.04) {
        return Browser::Automation;
    }
    let r: f64 = rng.random();
    match platform {
        Platform::Ios => {
            if r < 0.72 {
                Browser::Safari
            } else if r < 0.94 {
                Browser::Chrome
            } else {
                Browser::OtherBrowser
            }
        }
        Platform::Android => {
            if r < 0.66 {
                Browser::Chrome
            } else if r < 0.84 {
                Browser::Samsung
            } else if r < 0.92 {
                Browser::Firefox
            } else {
                Browser::OtherBrowser
            }
        }
        Platform::MacOs => {
            if r < 0.42 {
                Browser::Safari
            } else if r < 0.84 {
                Browser::Chrome
            } else if r < 0.93 {
                Browser::Firefox
            } else {
                Browser::OtherBrowser
            }
        }
        _ => {
            // Windows / Other desktop; China has a larger long-tail share.
            let other = if country == Country::China {
                0.22
            } else {
                0.08
            };
            if r < other {
                Browser::OtherBrowser
            } else if r < other + 0.58 {
                Browser::Chrome
            } else if r < other + 0.74 {
                Browser::Edge
            } else {
                Browser::Firefox
            }
        }
    }
}

fn pick_resolver(rng: &mut SmallRng, country: Country, enterprise: bool, mobile: bool) -> Resolver {
    if country == Country::China {
        return if chance(rng, 0.72) {
            Resolver::ChinaVoting
        } else {
            Resolver::Isp
        };
    }
    // Umbrella's base is managed desktop fleets behind shared egress NAT;
    // consumer desktops rarely and phones on mobile networks essentially
    // never route through it. The NAT sharing saturates unique-client-IP
    // counts for popular names, which is what destroys the list's
    // fine-grained rank fidelity.
    let p = if enterprise {
        country.umbrella_enterprise_rate()
    } else if mobile {
        0.001
    } else {
        0.02
    };
    if chance(rng, p) {
        Resolver::Umbrella
    } else {
        Resolver::Isp
    }
}

/// Assigns a post-NAT IPv4 address: country-partitioned /8-style blocks;
/// enterprise clients share egress IPs in pools of ~24.
fn assign_ip(rng: &mut SmallRng, country: Country, enterprise: bool, client_idx: u32) -> u32 {
    let block = (cast::u32_from_usize(country.index()) + 1) << 24;
    if enterprise {
        let org: u32 = rng.random_range(0..1 + client_idx / 24);
        block | 0x0080_0000 | (org & 0x003F_FFFF)
    } else {
        block | (client_idx & 0x007F_FFFF)
    }
}

/// Fills one navigation cell's unnormalized weights — pure, so each cell can
/// be built on any worker.
fn fill_nav_weights(
    sites: &[Site],
    country: Country,
    mobile: bool,
    weekend: bool,
    weights: &mut [f64],
) {
    // topple-lint: hot-path-begin
    for (i, s) in sites.iter().enumerate() {
        let platform_factor = if mobile {
            s.mobile_affinity
        } else {
            (2.0 - s.mobile_affinity).max(0.2)
        };
        let wf = s.category.weekday_factor();
        let day_factor = if weekend { 2.0 - wf } else { wf };
        let infra_damp = if s.is_infrastructure { 0.02 } else { 1.0 };
        weights[i] =
            s.weight * s.country_mix[country.index()] * platform_factor * day_factor * infra_damp;
    }
    // topple-lint: hot-path-end
}

/// Non-website names queried by devices automatically (the noise floor of any
/// DNS-derived top list: TLD probes, NTP pools, connectivity checks).
#[allow(clippy::expect_used)]
fn background_names() -> Vec<DomainName> {
    [
        "com",
        "net",
        "org",
        "pool.ntp.org",
        "time.windows.com",
        "connectivity-check.net",
        "captive.apple.com",
        "detectportal.firefox.com",
        "updates.push.services.net",
        "telemetry.os-vendor.com",
        "crl.certauthority.com",
        "ocsp.certauthority.com",
    ]
    .iter()
    // topple-lint: allow(unwrap): a fixed table of literal hostnames
    .map(|s| DomainName::new(s).expect("static names are valid"))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = World::generate(WorldConfig::tiny(5)).unwrap();
        let b = World::generate(WorldConfig::tiny(5)).unwrap();
        assert_eq!(a.sites.len(), b.sites.len());
        for (sa, sb) in a.sites.iter().zip(&b.sites) {
            assert_eq!(sa.domain, sb.domain);
            assert_eq!(sa.category, sb.category);
            assert!((sa.weight - sb.weight).abs() < 1e-12);
            assert_eq!(sa.cloudflare, sb.cloudflare);
        }
        for (ca, cb) in a.clients.iter().zip(&b.clients) {
            assert_eq!(ca.country, cb.country);
            assert_eq!(ca.ip, cb.ip);
            assert_eq!(ca.browser, cb.browser);
        }
        assert_eq!(a.gen_digest(), b.gen_digest());
    }

    #[test]
    fn different_seeds_differ() {
        let a = World::generate(WorldConfig::tiny(5)).unwrap();
        let b = World::generate(WorldConfig::tiny(6)).unwrap();
        let same = a
            .sites
            .iter()
            .zip(&b.sites)
            .filter(|(x, y)| x.domain == y.domain)
            .count();
        assert!(
            same < a.sites.len() / 2,
            "worlds too similar: {same} shared domains"
        );
        assert_ne!(a.gen_digest(), b.gen_digest());
    }

    #[test]
    fn domains_are_unique_and_indexed() {
        let w = World::generate(WorldConfig::tiny(7)).unwrap();
        let mut seen = std::collections::HashSet::new();
        for s in &w.sites {
            assert!(seen.insert(s.domain.as_str().to_owned()));
            assert_eq!(w.site_by_domain(&s.domain).unwrap().id, s.id);
        }
        assert!(w
            .site_by_domain(&DomainName::new("not-a-site.example").unwrap())
            .is_none());
    }

    #[test]
    fn top_ten_never_cloudflare() {
        let w = World::generate(WorldConfig::small(8)).unwrap();
        for s in &w.sites[..10] {
            assert!(
                !s.cloudflare,
                "top-10 site {} must not be on Cloudflare",
                s.domain
            );
        }
        // But a meaningful share of the rest is.
        let share = w.sites.iter().filter(|s| s.cloudflare).count() as f64 / w.sites.len() as f64;
        assert!(share > 0.15 && share < 0.40, "CF share {share}");
    }

    #[test]
    fn country_mixes_sum_to_one() {
        let w = World::generate(WorldConfig::tiny(9)).unwrap();
        for s in &w.sites {
            let total: f64 = s.country_mix.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "{}: {total}", s.domain);
            assert!(s.country_mix.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn local_sites_concentrate_at_home() {
        let w = World::generate(WorldConfig::small(10)).unwrap();
        for s in &w.sites {
            if !s.is_global && s.home_country == Country::Japan {
                assert!(
                    s.country_mix[Country::Japan.index()] > 0.5,
                    "Japanese local site {} mix {:?}",
                    s.domain,
                    s.country_mix[Country::Japan.index()]
                );
            }
        }
    }

    #[test]
    fn clients_have_sane_attributes() {
        let w = World::generate(WorldConfig::small(11)).unwrap();
        let chrome_optins = w.clients.iter().filter(|c| c.chrome_optin).count();
        let panelists = w.clients.iter().filter(|c| c.alexa_panelist).count();
        let umbrella = w
            .clients
            .iter()
            .filter(|c| c.resolver == Resolver::Umbrella)
            .count();
        let china = w
            .clients
            .iter()
            .filter(|c| c.resolver == Resolver::ChinaVoting)
            .count();
        assert!(
            chrome_optins > w.clients.len() / 20,
            "too few Chrome opt-ins"
        );
        assert!(panelists > 3, "panel empty");
        assert!(
            (panelists as f64) < w.clients.len() as f64 * 0.08,
            "panel too big"
        );
        assert!(umbrella > 0 && china > 0);
        // Only Chrome users can opt into Chrome telemetry.
        for c in &w.clients {
            if c.chrome_optin {
                assert_eq!(c.browser, Browser::Chrome);
            }
            if c.resolver == Resolver::ChinaVoting {
                assert_eq!(c.country, Country::China);
            }
        }
    }

    #[test]
    fn umbrella_user_base_is_us_enterprise_heavy() {
        let w = World::generate(WorldConfig::medium(12)).unwrap();
        let umbrella: Vec<_> = w
            .clients
            .iter()
            .filter(|c| c.resolver == Resolver::Umbrella)
            .collect();
        let us = umbrella
            .iter()
            .filter(|c| c.country == Country::UnitedStates)
            .count();
        assert!(
            us as f64 / umbrella.len() as f64 > 0.35,
            "US share of Umbrella base too low: {}/{}",
            us,
            umbrella.len()
        );
    }

    #[test]
    fn enterprise_clients_share_ips() {
        let w = World::generate(WorldConfig::medium(13)).unwrap();
        use std::collections::HashSet;
        let ent: Vec<u32> = w
            .clients
            .iter()
            .filter(|c| c.enterprise)
            .map(|c| c.ip)
            .collect();
        let distinct: HashSet<u32> = ent.iter().copied().collect();
        assert!(
            distinct.len() < ent.len(),
            "expected NAT sharing among enterprise clients"
        );
    }

    #[test]
    fn ground_truth_top_is_sorted() {
        let w = World::generate(WorldConfig::tiny(14)).unwrap();
        let top = w.ground_truth_top(50);
        for pair in top.windows(2) {
            assert!(w.sites[pair[0].index()].weight >= w.sites[pair[1].index()].weight);
        }
    }

    #[test]
    fn infrastructure_exists_and_is_wired() {
        let w = World::generate(WorldConfig::small(15)).unwrap();
        let infra = w.sites.iter().filter(|s| s.is_infrastructure).count();
        assert!(infra >= 3);
        let wired = w.sites.iter().filter(|s| !s.third_party.is_empty()).count();
        assert!(
            wired > w.sites.len() / 2,
            "most sites should embed third parties"
        );
    }

    #[test]
    fn run_sharded_folds_in_range_order_at_any_worker_count() {
        let expect: Vec<(usize, usize)> = vec![(0, 7), (7, 14), (14, 21), (21, 23)];
        for workers in [1, 2, 8] {
            let mut got = Vec::new();
            run_sharded(23, 7, workers, |lo, hi| (lo, hi), |r| got.push(r));
            assert_eq!(got, expect, "workers={workers}");
        }
        let mut none = Vec::new();
        run_sharded(0, 7, 4, |lo, hi| (lo, hi), |r| none.push(r));
        assert!(none.is_empty());
    }

    #[test]
    fn resident_soa_equals_a_one_pass_projection() {
        // The generator folds shards into the SoA as they arrive; at any
        // shard size the columns must equal projecting the final vectors.
        let mut cfg = WorldConfig::tiny(48);
        cfg.gen_shard = Some(97);
        cfg.workers = Some(2);
        let w = World::generate(cfg).unwrap();
        let whole = SoaTables::build(&w.sites, &w.clients);
        let mut a = Fnv::new();
        digest_soa(&mut a, &w.soa);
        let mut b = Fnv::new();
        digest_soa(&mut b, &whole);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn digest_is_worker_and_shard_invariant() {
        let digest_at = |workers: Option<usize>, shard: Option<usize>| {
            let mut cfg = WorldConfig::tiny(33);
            cfg.workers = workers;
            cfg.gen_shard = shard;
            World::generate(cfg).unwrap().gen_digest()
        };
        let reference = digest_at(Some(1), Some(64));
        for workers in [2, 8] {
            assert_eq!(digest_at(Some(workers), Some(64)), reference);
        }
        for shard in [1, 17, 1 << 20] {
            assert_eq!(digest_at(Some(4), Some(shard)), reference);
        }
    }
}
