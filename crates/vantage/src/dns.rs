//! DNS resolver vantages: the Umbrella-style enterprise resolver and the
//! Chinese resolver whose logs feed Secrank.
//!
//! A resolver sees *queried names*, not websites: FQDNs (including `www.`,
//! `m.`, and service hosts), background noise names (TLD probes, NTP pools,
//! connectivity checks), and nothing at all for clients using other
//! resolvers. Client-side stub caching means repeat visits within a day
//! usually don't reach the resolver (`dns_fresh` on the traffic events).
//!
//! Umbrella's published ranking is computed from unique client IPs per name
//! relative to all requests \[33\]; Secrank runs a voting algorithm over per-IP
//! query volume and frequency (Xie et al.). Both constructions live in
//! `topple-lists`; this module only collects what each resolver could log.

use std::collections::BTreeMap;

use topple_sim::{BackgroundQuery, ClientId, PageLoad, Resolver, SiteId, ThirdPartyFetch, World};

use crate::scratch::{KeyPacker, KeyWidthError, ScratchMap, ScratchTable};

/// A name as seen in resolver logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QueriedName {
    /// An FQDN belonging to a website: `(site, host index)`.
    Host(SiteId, u8),
    /// A background/non-website name, indexed into `World::background_names`.
    Background(u16),
}

impl QueriedName {
    /// A `u128` that sorts exactly like the name: the tag, then its fields.
    fn sort_key(self) -> u128 {
        match self {
            QueriedName::Host(site, host) => (u128::from(site.0) << 8) | u128::from(host),
            QueriedName::Background(idx) => (1 << 40) | u128::from(idx),
        }
    }

    /// Whether the name exists in `world`: a host of one of its sites, or
    /// one of its background names.
    fn fits(self, world: &World) -> bool {
        match self {
            QueriedName::Host(site, host) => world
                .sites
                .get(site.index())
                .is_some_and(|s| usize::from(host) < s.hosts.len()),
            QueriedName::Background(idx) => usize::from(idx) < world.background_names.len(),
        }
    }

    fn wire_encode(&self, w: &mut crate::wire::Writer<'_>) {
        match *self {
            QueriedName::Host(site, host) => {
                w.u8(0);
                w.u32(site.0);
                w.u8(host);
            }
            QueriedName::Background(idx) => {
                w.u8(1);
                w.u16(idx);
            }
        }
    }

    fn wire_decode(r: &mut crate::wire::Reader<'_>) -> Result<Self, crate::wire::WireError> {
        match r.u8()? {
            0 => Ok(QueriedName::Host(SiteId(r.u32()?), r.u8()?)),
            1 => Ok(QueriedName::Background(r.u16()?)),
            _ => Err(crate::wire::WireError::Malformed {
                context: "unknown queried-name tag",
            }),
        }
    }
}

/// A `u128` that sorts exactly like the `(client, name)` candidate key.
fn candidate_sort_key(&(client, name): &(ClientId, QueriedName)) -> u128 {
    (u128::from(client.0) << 64) | name.sort_key()
}

/// The packed-key layout of one world's DNS fold state.
///
/// A queried name packs to a dense *name id*: website hosts first, as
/// `site << 8 | host`, then the 2^16 background names after every site.
/// Name ids sort like [`QueriedName`]s, and every composite key below is a
/// [`KeyPacker`] over them, so key order is the tuple order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DnsKeys {
    n_sites: u64,
    /// `(client, name id)`: the multi-day TTL cache.
    ttl: KeyPacker<2>,
    /// `(name id, client ip)`: one day's unique-IP presence.
    name_ip: KeyPacker<2>,
    /// `(client ip, site)`: the monthly vote cells.
    vote: KeyPacker<2>,
}

impl DnsKeys {
    /// The layout for a world of `n_sites` sites and `n_clients` clients,
    /// or [`KeyWidthError`] if some key space would not fit in 64 bits.
    pub fn new(n_sites: usize, n_clients: usize) -> Result<Self, KeyWidthError> {
        let sites = topple_stats::cast::u64_from_usize(n_sites);
        let clients = topple_stats::cast::u64_from_usize(n_clients);
        let n_names = sites
            .checked_mul(1 << 8)
            .and_then(|hosts| hosts.checked_add(1 << 16))
            .ok_or(KeyWidthError {
                radices: vec![sites, 1 << 8],
            })?;
        Ok(DnsKeys {
            n_sites: sites,
            ttl: KeyPacker::new([clients, n_names])?,
            name_ip: KeyPacker::new([n_names, 1 << 32])?,
            vote: KeyPacker::new([1 << 32, sites])?,
        })
    }

    /// The name id of `name`.
    ///
    /// # Panics
    ///
    /// Panics if a website name's site is outside the world.
    fn name_id(&self, name: QueriedName) -> u64 {
        match name {
            QueriedName::Host(site, host) => {
                let site = u64::from(site.0);
                assert!(site < self.n_sites, "site {site} outside the world");
                (site << 8) | u64::from(host)
            }
            QueriedName::Background(idx) => (self.n_sites << 8) + u64::from(idx),
        }
    }

    /// The name a name id was made from.
    fn name(&self, id: u64) -> QueriedName {
        match id.checked_sub(self.n_sites << 8) {
            Some(idx) => QueriedName::Background(topple_stats::cast::u16_from_u64(idx)),
            None => QueriedName::Host(
                SiteId(topple_stats::cast::u32_from_u64(id >> 8)),
                (id & 0xFF) as u8,
            ),
        }
    }
}

/// Per-name counters for one day at one resolver.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NameDayStats {
    /// Total queries that reached the resolver.
    pub queries: u64,
    /// Distinct client IPs that queried the name.
    pub unique_ips: u32,
}

/// One day of logs at one resolver, in ascending name order.
#[derive(Debug, Default)]
pub struct ResolverDay {
    per_name: Vec<(QueriedName, NameDayStats)>,
}

impl ResolverDay {
    /// Iterates `(name, stats)` for the day, in ascending name order.
    pub fn names(&self) -> impl Iterator<Item = (&QueriedName, &NameDayStats)> {
        self.per_name.iter().map(|(name, stats)| (name, stats))
    }

    /// Number of distinct names seen.
    pub fn name_count(&self) -> usize {
        self.per_name.len()
    }

    /// Total queries across all names.
    pub fn total_queries(&self) -> u64 {
        self.per_name.iter().map(|(_, s)| s.queries).sum()
    }
}

/// Per-(client IP, registrable domain) monthly cell for the voting algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct VoteCell {
    /// Total queries from this IP for this domain over the window.
    pub queries: u32,
    /// Bitmask of days on which the IP queried the domain.
    pub day_mask: u32,
}

/// One day's raw, *ungated* resolver-bound activity: what reached the
/// client-side stub caches, before the multi-day TTL gate decides which
/// queries escape to the resolver at all.
#[derive(Debug, Clone, Default, PartialEq)]
struct DnsDayShard {
    /// Fresh website-name lookups: `((client, name), (client ip, events))`,
    /// sorted by key with no key twice. The TTL gate is applied at fold
    /// time, because whether a day-`d` query reaches the resolver depends
    /// on the days before it.
    candidates: Vec<((ClientId, QueriedName), (u32, u64))>,
    /// Background names bypass the TTL gate entirely (queried by jobs, not
    /// browsers), so their per-day stats are final at observation time.
    /// Sorted by name, no name twice.
    background: Vec<(QueriedName, NameDayStats)>,
}

impl DnsDayShard {
    fn merge(&mut self, other: DnsDayShard) {
        // Counter merges saturate instead of wrapping: `min(a + b, MAX)` is
        // associative and commutative, so the shard monoid laws survive
        // even for adversarial same-day self-merges (`tests/merge_laws.rs`).
        self.candidates = crate::shard::merge_sorted(
            std::mem::take(&mut self.candidates),
            other.candidates,
            |a, b| candidate_sort_key(&a.0).cmp(&candidate_sort_key(&b.0)),
            |a, b| a.1 .1 = a.1 .1.saturating_add(b.1 .1),
        );
        self.background = crate::shard::merge_sorted(
            std::mem::take(&mut self.background),
            other.background,
            |a, b| a.0.sort_key().cmp(&b.0.sort_key()),
            |a, b| {
                a.1.queries = a.1.queries.saturating_add(b.1.queries);
                a.1.unique_ips = a.1.unique_ips.saturating_add(b.1.unique_ips);
            },
        );
    }
}

/// A mergeable observation of one resolver's inbound queries for a set of
/// days, keyed by day index.
///
/// The shard stores *pre-gate* candidates rather than final per-day logs:
/// the multi-day TTL cache (see [`DnsVantage`]) makes day `d`'s resolver log
/// depend on days `0..d`, so that sequential dependency is deferred to
/// [`DnsVantage::ingest_shard`], which folds days in ascending order. The
/// merge itself is a keyed union — exactly associative and commutative —
/// which is what lets shards be built fully in parallel.
///
/// A shard is built *for one resolver* (its day builder filters to that
/// resolver's clients; [`DayShards`](crate::DayShards) carries one per
/// resolver); feeding it to a vantage modeling a different resolver is a
/// logic error the types do not prevent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DnsShard {
    days: BTreeMap<usize, DnsDayShard>,
}

impl DnsShard {
    /// Day indices covered by this shard, ascending.
    pub fn day_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.days.keys().copied()
    }

    /// Whether every client and name the shard names exists in `world`.
    pub(crate) fn fits(&self, world: &World) -> bool {
        self.days.values().all(|d| {
            d.candidates.iter().all(|&((client, name), _)| {
                client.index() < world.clients.len() && name.fits(world)
            }) && d.background.iter().all(|(name, _)| name.fits(world))
        })
    }

    /// Appends this shard's canonical wire form (see [`crate::wire`]).
    pub(crate) fn wire_encode(&self, w: &mut crate::wire::Writer<'_>) {
        w.len(self.days.len());
        for (&day, d) in &self.days {
            w.u32(topple_stats::cast::u32_from_usize(day));
            w.len(d.candidates.len());
            for &((client, name), (ip, events)) in &d.candidates {
                w.u32(client.0);
                name.wire_encode(w);
                w.u32(ip);
                w.u64(events);
            }
            w.len(d.background.len());
            for (name, stats) in &d.background {
                name.wire_encode(w);
                w.u64(stats.queries);
                w.u32(stats.unique_ips);
            }
        }
    }

    /// Decodes the canonical wire form, failing closed on hostile bytes.
    pub(crate) fn wire_decode(
        r: &mut crate::wire::Reader<'_>,
    ) -> Result<Self, crate::wire::WireError> {
        use crate::wire::{sort_unique, WireError};
        let n_days = r.len(8)?;
        let mut days = BTreeMap::new();
        for _ in 0..n_days {
            let day = topple_stats::cast::usize_from_u32(r.u32()?);
            let n_cand = r.len(17)?;
            let mut candidates = Vec::with_capacity(n_cand);
            for _ in 0..n_cand {
                let client = ClientId(r.u32()?);
                let name = QueriedName::wire_decode(r)?;
                let ip = r.u32()?;
                let events = r.u64()?;
                candidates.push(((client, name), (ip, events)));
            }
            sort_unique(
                &mut candidates,
                |c| candidate_sort_key(&c.0),
                "duplicate DNS candidate",
            )?;
            let n_bg = r.len(15)?;
            let mut background = Vec::with_capacity(n_bg);
            for _ in 0..n_bg {
                let name = QueriedName::wire_decode(r)?;
                let stats = NameDayStats {
                    queries: r.u64()?,
                    unique_ips: r.u32()?,
                };
                background.push((name, stats));
            }
            sort_unique(
                &mut background,
                |b| b.0.sort_key(),
                "duplicate DNS background name",
            )?;
            let shard_day = DnsDayShard {
                candidates,
                background,
            };
            if days.insert(day, shard_day).is_some() {
                return Err(WireError::Malformed {
                    context: "duplicate DNS day",
                });
            }
        }
        Ok(DnsShard { days })
    }
}

/// Reusable streaming builder of one resolver's single-day shard.
///
/// Website-name candidates append to a reusable vector instead of a map:
/// `dns_fresh` fires at most once per (client, zone) per day (the stub
/// cache is shared across page loads and third-party fetches), so
/// `(client, name)` keys cannot repeat within a day — the finish step still
/// sorts and coalesces equal keys, so even hypothetical duplicates would
/// merge exactly as a keyed map would. Background-name stats use a dense
/// name-indexed [`ScratchTable`] with a packed `(name, ip)` presence map for
/// unique-IP counting.
#[derive(Debug)]
pub(crate) struct DnsDayBuilder {
    resolver: Resolver,
    /// `((client, name), (client ip, events))` candidate rows, unsorted.
    candidates: Vec<((ClientId, QueriedName), (u32, u64))>,
    /// `name_idx → (queries, unique_ips)` for background names.
    bg: ScratchTable<(u64, u32)>,
    /// Background names touched this day (sorted at finish).
    bg_touched: Vec<u16>,
    /// Presence of packed `(name_idx << 32) | ip` pairs.
    bg_ip_seen: ScratchMap<()>,
}

impl DnsDayBuilder {
    pub(crate) fn new(world: &World, resolver: Resolver) -> Self {
        DnsDayBuilder {
            resolver,
            candidates: Vec::new(),
            bg: ScratchTable::with_len(world.background_names.len()),
            bg_touched: Vec::new(),
            bg_ip_seen: ScratchMap::new(),
        }
    }

    /// Starts a new day; previous per-day state is invalidated in O(1).
    pub(crate) fn begin(&mut self) {
        self.candidates.clear();
        self.bg.begin_epoch();
        self.bg_touched.clear();
        self.bg_ip_seen.begin_epoch();
    }

    // topple-lint: hot-path-begin
    pub(crate) fn page_load(&mut self, world: &World, pl: &PageLoad) {
        let client = &world.clients[pl.client.index()];
        if client.resolver != self.resolver || !pl.dns_fresh {
            return;
        }
        let name = QueriedName::Host(pl.site, pl.host_idx);
        self.candidates.push(((pl.client, name), (client.ip, 1)));
    }

    pub(crate) fn third_party(&mut self, world: &World, tp: &ThirdPartyFetch) {
        let client = &world.clients[tp.client.index()];
        if client.resolver != self.resolver || !tp.dns_fresh {
            return;
        }
        let name = QueriedName::Host(tp.site, tp.host_idx);
        self.candidates.push(((tp.client, name), (client.ip, 1)));
    }

    pub(crate) fn background(&mut self, world: &World, bg: &BackgroundQuery) {
        let client = &world.clients[bg.client.index()];
        if client.resolver != self.resolver {
            return;
        }
        let (first, stats) = self.bg.slot(bg.name_idx as usize);
        if first {
            self.bg_touched.push(bg.name_idx);
        }
        stats.0 += 1;
        let (new_ip, ()) = self
            .bg_ip_seen
            .entry((u64::from(bg.name_idx) << 32) | u64::from(client.ip));
        if new_ip {
            stats.1 += 1;
        }
    }
    // topple-lint: hot-path-end

    /// Drains the day's rows into a single-day shard.
    pub(crate) fn finish_day(&mut self, day_index: usize) -> DnsShard {
        // One client has one IP, so equal keys carry equal IPs; sorting the
        // whole row keeps the order total regardless.
        self.candidates
            .sort_unstable_by_key(|&(key, (ip, _))| (candidate_sort_key(&key), ip));
        let mut candidates: Vec<((ClientId, QueriedName), (u32, u64))> =
            Vec::with_capacity(self.candidates.len());
        for &(key, (ip, events)) in &self.candidates {
            match candidates.last_mut() {
                Some((last, (_, sum))) if *last == key => *sum += events,
                _ => candidates.push((key, (ip, events))),
            }
        }
        self.bg_touched.sort_unstable();
        let background = self
            .bg_touched
            .iter()
            .map(|&i| {
                let (queries, unique_ips) = self.bg.peek(i as usize);
                (
                    QueriedName::Background(i),
                    NameDayStats {
                        queries,
                        unique_ips,
                    },
                )
            })
            .collect();
        let mut days = BTreeMap::new();
        days.insert(
            day_index,
            DnsDayShard {
                candidates,
                background,
            },
        );
        DnsShard { days }
    }
}

impl crate::Shard for DnsShard {
    fn merge(&mut self, other: Self) {
        for (day, dshard) in other.days {
            match self.days.entry(day) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(dshard);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    e.get_mut().merge(dshard);
                }
            }
        }
    }
}

/// A DNS vantage accumulating daily logs for one resolver.
///
/// Its fold state lives in open-addressed [`ScratchMap`]s over packed
/// integer keys (see [`DnsKeys`]): the persistent TTL cache and vote cells
/// are maps whose epoch never advances, and the per-day name table and
/// unique-IP presence set are epoch-cleared once per day.
#[derive(Debug)]
pub struct DnsVantage {
    resolver: Resolver,
    days: Vec<ResolverDay>,
    /// Key layout of the world being folded, fixed by the first shard.
    keys: Option<DnsKeys>,
    /// Domain-level (site) monthly voting data: packed `(ip, site) -> cell`.
    /// Only maintained for the China resolver (Secrank's input).
    votes: ScratchMap<VoteCell>,
    /// Multi-day negative/positive cache: packed `(client, name) -> expiry
    /// day`. Records cached by OS stubs and CPE resolvers for their full TTL
    /// stop repeat queries from reaching the resolver for days — the
    /// mechanism that decouples DNS-derived rankings from fine-grained visit
    /// frequency (Section 5.2: "caching, TTLs, and other DNS complexities
    /// prevent capturing fine grained popularity").
    ttl_cache: ScratchMap<u32>,
    /// Scratch: the day being folded, packed name id → counters.
    day_names: ScratchMap<NameDayStats>,
    /// Scratch: distinct packed `(name, ip)` pairs seen on that day.
    day_seen_ip: ScratchMap<()>,
}

/// Deterministic TTL horizon in days (1..=16).
///
/// TTL is a property of the *zone*: operators publish anything from minutes
/// to weeks, and a long-TTL zone is revisited by every cache up to 16× less
/// often than a short-TTL one **regardless of its popularity**. This
/// per-name multiplicative distortion is the dominant reason DNS-derived
/// rankings preserve coarse membership but scramble fine-grained rank
/// (Section 5.2). A small per-client offset models stub/CPE cache eviction
/// differences.
fn ttl_days(client: ClientId, name: QueriedName) -> u32 {
    // Keyed per *zone* (site), not per FQDN: operators set one TTL policy
    // for the whole zone, so every host of a site shares the distortion.
    let zone = match name {
        QueriedName::Host(site, _host) => u64::from(site.0).wrapping_mul(0xBF58_476D_1CE4_E5B9),
        QueriedName::Background(i) => u64::from(i).wrapping_mul(0x94D0_49BB_1331_11EB),
    };
    // Zone TTL classes span minutes to weeks (roughly log-uniform); at the
    // resolver's daily granularity that is 1..=15 days between re-queries,
    // and the 0-or-1-day client offset stretches it to 1..=16.
    let z = (zone ^ (zone >> 31)) % 15;
    let c = (u64::from(client.0).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61) % 2;
    1 + (z + c).min(15) as u32
}

impl DnsVantage {
    /// Creates a vantage for the given resolver. Panics on [`Resolver::Isp`],
    /// which publishes nothing.
    pub fn new(resolver: Resolver) -> Self {
        assert!(
            resolver != Resolver::Isp,
            "ISP resolvers publish no popularity data"
        );
        DnsVantage {
            resolver,
            days: Vec::new(),
            keys: None,
            votes: ScratchMap::new(),
            ttl_cache: ScratchMap::new(),
            day_names: ScratchMap::new(),
            day_seen_ip: ScratchMap::new(),
        }
    }

    /// Whether a fresh-today query of name id `name_id` actually reaches the
    /// resolver, given the multi-day TTL cache; updates the cache when it
    /// does.
    fn reaches_resolver(
        &mut self,
        keys: &DnsKeys,
        client: ClientId,
        name: QueriedName,
        name_id: u64,
        day: u32,
    ) -> bool {
        let (_, expiry) = self
            .ttl_cache
            .entry(keys.ttl.pack([u64::from(client.0), name_id]));
        // A new entry reads as expiry 0, which no day is before.
        if day < *expiry {
            return false;
        }
        *expiry = day + ttl_days(client, name);
        true
    }

    /// Which resolver this vantage models.
    pub fn resolver(&self) -> Resolver {
        self.resolver
    }

    /// Folds a (possibly multi-day) shard into the resolver's state,
    /// applying its days in ascending day order: this is where the multi-day
    /// TTL gate runs, so the shard's pre-gate candidates become the day's
    /// actual resolver log. Days must arrive contiguously.
    ///
    /// The shard must have been built for the same resolver this vantage
    /// models.
    ///
    /// # Panics
    ///
    /// Panics if a shard day is out of order with respect to what this
    /// vantage has already ingested, if `world` differs in size from the
    /// world of earlier shards or is too large to pack its keys
    /// ([`DnsKeys::new`]), or if a shard names a client or site outside the
    /// world.
    pub fn ingest_shard(&mut self, world: &World, shard: DnsShard) {
        #[allow(clippy::expect_used)]
        // topple-lint: allow(unwrap): a world whose DNS key spaces exceed 64 bits cannot be folded without aliasing keys; the error names the widths
        let keys = DnsKeys::new(world.sites.len(), world.clients.len()).expect("DNS key width");
        assert_eq!(
            *self.keys.get_or_insert(keys),
            keys,
            "one DNS vantage folds shards of one world"
        );
        let collect_votes = self.resolver == Resolver::ChinaVoting;
        let gate = world.config.mechanisms.dns_ttl_distortion;
        for (day_index, dshard) in shard.days {
            assert_eq!(
                day_index,
                self.days.len(),
                "resolver days must be ingested in order"
            );
            let day_bit = 1u32 << (day_index.min(31));
            let day_no = day_index as u32;
            self.day_names.begin_epoch();
            self.day_seen_ip.begin_epoch();

            for ((client, name), (ip, events)) in dshard.candidates {
                let name_id = keys.name_id(name);
                // With the TTL gate on, at most the first fresh lookup of the
                // day escapes the client network; with it off, every fresh
                // lookup reaches the resolver.
                let reaching = if gate {
                    if self.reaches_resolver(&keys, client, name, name_id, day_no) {
                        1
                    } else {
                        0
                    }
                } else {
                    events
                };
                if reaching == 0 {
                    continue;
                }
                let (_, stats) = self.day_names.entry(name_id);
                stats.queries += reaching;
                let (new_ip, ()) = self
                    .day_seen_ip
                    .entry(keys.name_ip.pack([name_id, u64::from(ip)]));
                if new_ip {
                    stats.unique_ips += 1;
                }
                if collect_votes {
                    if let QueriedName::Host(site, _) = name {
                        let (_, cell) = self
                            .votes
                            .entry(keys.vote.pack([u64::from(ip), u64::from(site.0)]));
                        cell.queries += reaching as u32;
                        cell.day_mask |= day_bit;
                    }
                }
            }
            for (name, stats) in dshard.background {
                // Background names have short TTLs and bypass caching (they
                // are queried by jobs, not browsers); their keys are disjoint
                // from website names, so the stats transfer verbatim.
                let (_, e) = self.day_names.entry(keys.name_id(name));
                e.queries += stats.queries;
                e.unique_ips += stats.unique_ips;
            }
            let per_name = self
                .day_names
                .sorted()
                .into_iter()
                .map(|(id, stats)| (keys.name(id), stats))
                .collect();
            self.days.push(ResolverDay { per_name });
        }
    }

    /// Number of ingested days.
    pub fn day_count(&self) -> usize {
        self.days.len()
    }

    /// One day's logs.
    pub fn day(&self, day_index: usize) -> &ResolverDay {
        &self.days[day_index]
    }

    /// Monthly voting cells (Secrank input) in ascending `(ip, site)` order.
    /// Empty for the Umbrella resolver.
    pub fn votes(&self) -> Vec<((u32, SiteId), VoteCell)> {
        let Some(keys) = self.keys else {
            return Vec::new();
        };
        self.votes
            .sorted()
            .into_iter()
            .map(|(key, cell)| {
                let [ip, site] = keys.vote.unpack(key);
                let ip = topple_stats::cast::u32_from_u64(ip);
                ((ip, SiteId(topple_stats::cast::u32_from_u64(site))), cell)
            })
            .collect()
    }

    /// Renders a queried name to its textual FQDN.
    pub fn name_text(world: &World, name: QueriedName) -> String {
        match name {
            QueriedName::Host(site, host_idx) => world.sites[site.index()].hosts[host_idx as usize]
                .name
                .as_str()
                .to_owned(),
            QueriedName::Background(i) => world.background_names[i as usize].as_str().to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Reader, WireError, Writer};
    use crate::{DayShards, Shard as _};
    use proptest::prelude::*;
    use topple_sim::{Country, DayTraffic, WorldConfig};

    fn setup() -> (World, DayTraffic) {
        let w = World::generate(WorldConfig::tiny(41)).unwrap();
        let t = w.simulate_day(0);
        (w, t)
    }

    /// `v`'s resolver's shard of the materialized day `t`.
    fn observe(w: &World, t: &DayTraffic, v: &DnsVantage) -> DnsShard {
        let shards = DayShards::observe(w, t);
        match v.resolver() {
            Resolver::Umbrella => shards.umbrella,
            _ => shards.china,
        }
    }

    #[test]
    #[should_panic(expected = "publish no popularity data")]
    fn isp_resolver_rejected() {
        DnsVantage::new(Resolver::Isp);
    }

    #[test]
    fn only_own_clients_are_logged() {
        let (w, t) = setup();
        let mut v = DnsVantage::new(Resolver::ChinaVoting);
        v.ingest_shard(&w, observe(&w, &t, &v));
        // Every vote must come from a Chinese client IP block.
        let china_block = (Country::China.index() as u32 + 1) << 24;
        for ((ip, _), _) in v.votes() {
            assert_eq!(
                ip >> 24,
                china_block >> 24,
                "non-Chinese IP in China resolver logs"
            );
        }
    }

    #[test]
    fn cache_misses_only() {
        let (w, t) = setup();
        let mut v = DnsVantage::new(Resolver::Umbrella);
        v.ingest_shard(&w, observe(&w, &t, &v));
        let total = v.day(0).total_queries();
        // Raw page loads from Umbrella clients exceed resolver queries
        // because repeat visits are served from the stub cache.
        let umbrella_loads = t
            .page_loads
            .iter()
            .filter(|p| w.clients[p.client.index()].resolver == Resolver::Umbrella)
            .count() as u64;
        let umbrella_bg = t
            .background
            .iter()
            .filter(|b| w.clients[b.client.index()].resolver == Resolver::Umbrella)
            .count() as u64;
        assert!(total <= umbrella_loads + umbrella_bg + t.third_party.len() as u64);
        assert!(total > 0, "Umbrella resolver saw nothing");
    }

    #[test]
    fn background_names_present() {
        let (w, t) = setup();
        let mut v = DnsVantage::new(Resolver::Umbrella);
        v.ingest_shard(&w, observe(&w, &t, &v));
        let has_bg = v
            .day(0)
            .names()
            .any(|(n, _)| matches!(n, QueriedName::Background(_)));
        assert!(has_bg, "background DNS noise should reach the resolver");
    }

    #[test]
    fn unique_ips_bounded_by_queries() {
        let (w, t) = setup();
        let mut v = DnsVantage::new(Resolver::Umbrella);
        v.ingest_shard(&w, observe(&w, &t, &v));
        for (_, s) in v.day(0).names() {
            assert!(u64::from(s.unique_ips) <= s.queries);
            assert!(s.unique_ips >= 1);
        }
    }

    #[test]
    fn name_text_renders() {
        let (w, t) = setup();
        let mut v = DnsVantage::new(Resolver::Umbrella);
        v.ingest_shard(&w, observe(&w, &t, &v));
        for (n, _) in v.day(0).names().take(10) {
            let text = DnsVantage::name_text(&w, *n);
            assert!(!text.is_empty());
            assert!(text.contains('.') || matches!(n, QueriedName::Background(_)));
        }
    }

    #[test]
    fn ttl_days_span_one_to_sixteen() {
        let mut seen = std::collections::BTreeSet::new();
        for client in 0..64 {
            for site in 0..64 {
                seen.insert(ttl_days(
                    ClientId(client),
                    QueriedName::Host(SiteId(site), 0),
                ));
            }
        }
        assert_eq!(seen.first(), Some(&1));
        assert_eq!(seen.last(), Some(&16));
    }

    #[test]
    fn votes_accumulate_across_days() {
        let (w, _) = setup();
        let mut v = DnsVantage::new(Resolver::ChinaVoting);
        v.ingest_shard(&w, observe(&w, &w.simulate_day(0), &v));
        let after_one: u32 = v
            .votes()
            .iter()
            .map(|(_, c)| c.day_mask.count_ones())
            .max()
            .unwrap_or(0);
        v.ingest_shard(&w, observe(&w, &w.simulate_day(1), &v));
        let after_two: u32 = v
            .votes()
            .iter()
            .map(|(_, c)| c.day_mask.count_ones())
            .max()
            .unwrap_or(0);
        assert!(after_two >= after_one);
        assert!(after_two <= 2);
        assert_eq!(v.day_count(), 2);
    }

    fn encode(shard: &DnsShard) -> Vec<u8> {
        let mut bytes = Vec::new();
        shard.wire_encode(&mut Writer::new(&mut bytes));
        bytes
    }

    fn decode(bytes: &[u8]) -> Result<DnsShard, WireError> {
        let mut r = Reader::new(bytes);
        let shard = DnsShard::wire_decode(&mut r)?;
        r.finish()?;
        Ok(shard)
    }

    /// A two-day Umbrella shard and its canonical bytes.
    fn wire_fixture() -> &'static (DnsShard, Vec<u8>) {
        static FIXTURE: std::sync::OnceLock<(DnsShard, Vec<u8>)> = std::sync::OnceLock::new();
        FIXTURE.get_or_init(|| {
            let w = World::generate(WorldConfig::tiny(43)).unwrap();
            let mut shard = DayShards::observe(&w, &w.simulate_day(0)).umbrella;
            shard.merge(DayShards::observe(&w, &w.simulate_day(1)).umbrella);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Entries in any order decode to the canonical shard and re-encode
        /// to the canonical bytes.
        #[test]
        fn permuted_entries_decode_canonically(
            words in proptest::collection::vec(any::<u64>(), 1..64),
        ) {
            let (shard, canonical) = wire_fixture();
            let mut permuted = shard.clone();
            for day in permuted.days.values_mut() {
                shuffle(&mut day.candidates, &words);
                shuffle(&mut day.background, &words);
            }
            let decoded = decode(&encode(&permuted)).unwrap();
            prop_assert_eq!(&decoded, shard);
            prop_assert_eq!(&encode(&decoded), canonical);
        }

        /// A repeated key anywhere in a section fails closed with the same
        /// typed error as a repeated map insert.
        #[test]
        fn a_duplicated_key_fails_closed(
            pick in any::<u64>(),
            at in any::<u64>(),
            background in any::<bool>(),
        ) {
            let (shard, _) = wire_fixture();
            let mut dup = shard.clone();
            let day = dup.days.values_mut().next().unwrap();
            let context = if background {
                let row = day.background[(pick % day.background.len() as u64) as usize].clone();
                let at = (at % (day.background.len() as u64 + 1)) as usize;
                day.background.insert(at, row);
                "duplicate DNS background name"
            } else {
                let row = day.candidates[(pick % day.candidates.len() as u64) as usize];
                let at = (at % (day.candidates.len() as u64 + 1)) as usize;
                day.candidates.insert(at, row);
                "duplicate DNS candidate"
            };
            prop_assert_eq!(decode(&encode(&dup)), Err(WireError::Malformed { context }));
        }
    }
}
