//! The query layer: a loaded snapshot plus the lookup structures and JSON
//! renderers behind each endpoint.
//!
//! Everything here is a pure function of the snapshot bytes: response bodies
//! are built with hand-rolled JSON in a fixed key order, floats are rendered
//! through `Display` (shortest round-trip form), and all lookups run over
//! id columns: a dense position column per monthly list (one index per
//! rank lookup, one walk of the shorter top-k cut per compare) and an
//! [`IdCut`] binary search per daily list. That is what makes the daemon's
//! byte-identical guarantee hold across worker counts and restarts.

use std::fmt::{self, Write as _};
use std::path::Path;

use topple_core::compare::IdCut;
use topple_core::ListColumns;
use topple_lists::{DomainId, ListSource};
use topple_psl::DomainName;

use crate::error::ContainerError;
use crate::snapshot::Snapshot;

/// Largest accepted `k` for `/v1/compare` (the paper's largest magnitude).
pub const MAX_K: usize = 1_000_000;

/// Positions per monthly list whose `/v1/rank` (and `/v1/movement`) bodies
/// are pre-rendered into the hot-response cache at snapshot load. Top-list
/// traffic is head-heavy by the paper's own premise, so a small K covers
/// nearly all of it; everything past K falls back to the identical cold
/// renderers.
pub const HOT_K: usize = 1_024;

/// Pre-rendered response bodies for the hottest point lookups, built once
/// at snapshot load (DESIGN.md §16).
///
/// All bodies live in one contiguous arena and are addressed by `(start,
/// end)` ranges: serving a hot request is a binary search (or direct index)
/// plus a memcpy into the connection's write buffer — zero formatting, zero
/// heap allocation, the same discipline as the ingest window's scratch
/// tables. Every body is written by the *same* renderer the cold path
/// calls ([`QuerySnapshot::write_rank`], [`QuerySnapshot::write_movement`],
/// [`QuerySnapshot::write_health`]), so the cache can change latency, never
/// content. The build hands that renderer what it already knows — the
/// domain's id and position — and lets it write straight into the arena,
/// which is sized once from an upper bound on every body's length: no
/// per-body name parse, table probe or `String`.
struct HotCache {
    arena: String,
    /// `/health` body (snapshot-constant).
    health: (u32, u32),
    /// `rank[list][pos]` = body range for the domain at best-first position
    /// `pos` of that monthly list, `pos < HOT_K`. Indexed like
    /// [`ListSource::ALL`].
    rank: Vec<Vec<(u32, u32)>>,
    /// Sorted raw ids of the domains with a pre-rendered movement body
    /// (the union of every monthly list's top-K), parallel to
    /// `movement_ranges`.
    movement_ids: Vec<u32>,
    movement_ranges: Vec<(u32, u32)>,
}

/// Decimal digits of `v`.
fn digits(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

impl HotCache {
    fn empty() -> Self {
        HotCache {
            arena: String::new(),
            health: (0, 0),
            rank: Vec::new(),
            movement_ids: Vec::new(),
            movement_ranges: Vec::new(),
        }
    }

    /// Renders every hot body through `snapshot`'s renderers into one
    /// arena. `snapshot.hot` is not read, so the bodies come from the real
    /// formatting path, not the cache being built.
    fn build(snapshot: &QuerySnapshot) -> Self {
        let index = &snapshot.snapshot.index;
        let table = index.table();
        let hot = |source: ListSource| {
            let ids = &index.monthly(source).ids;
            &ids[..ids.len().min(HOT_K)]
        };
        let mut movement_ids: Vec<u32> = Vec::with_capacity(ListSource::ALL.len() * HOT_K);
        for &source in ListSource::ALL.iter() {
            movement_ids.extend(hot(source).iter().map(|id| id.raw()));
        }
        movement_ids.sort_unstable();
        movement_ids.dedup();

        // Size the arena once. Every number a body holds is a rank (at most
        // the table length) or a bucket (at most a list's last value), and
        // `null` takes 4 bytes.
        let widest = ListSource::ALL
            .iter()
            .filter_map(|&s| index.monthly(s).values.last().copied())
            .map(u64::from)
            .fold(table.len() as u64, u64::max);
        let number = digits(widest).max(4) + 1;
        let id = snapshot.id.len();
        let days = snapshot.alexa_daily_cuts.len() + snapshot.umbrella_daily_cuts.len();
        let name_len = |raw: u32| table.name(DomainId::from_raw(raw)).as_str().len();
        let mut bound = HEALTH_BODY_BOUND + id + 6 * snapshot.snapshot.identity.scale.len();
        for &source in ListSource::ALL.iter() {
            for d in hot(source) {
                bound += RANK_BODY_BOUND + id + number + name_len(d.raw());
            }
        }
        for &raw in &movement_ids {
            bound += MOVEMENT_BODY_BOUND + id + name_len(raw);
            bound += (ListSource::ALL.len() + days) * number;
        }
        let mut arena = String::with_capacity(bound);

        // Writing into a `String` cannot fail.
        let mut push = |render: &dyn Fn(&mut String) -> fmt::Result| -> (u32, u32) {
            let start = arena.len() as u32;
            let _ = render(&mut arena);
            (start, arena.len() as u32)
        };
        let health = push(&|a| snapshot.write_health(a));
        let mut rank = Vec::with_capacity(ListSource::ALL.len());
        for &source in ListSource::ALL.iter() {
            let ids = hot(source);
            let mut ranges = Vec::with_capacity(ids.len());
            for (pos, &id) in ids.iter().enumerate() {
                let (name, pos) = (table.name(id).as_str(), Some(pos as u32));
                ranges.push(push(&|a| snapshot.write_rank(a, source, name, pos)));
            }
            rank.push(ranges);
        }
        let mut movement_ranges = Vec::with_capacity(movement_ids.len());
        for &raw in &movement_ids {
            let name = table.name(DomainId::from_raw(raw)).as_str();
            movement_ranges.push(push(&|a| snapshot.write_movement(a, name, Some(raw))));
        }
        debug_assert!(arena.len() <= bound, "hot-cache arena bound too small");

        HotCache {
            arena,
            health,
            rank,
            movement_ids,
            movement_ranges,
        }
    }

    fn slice(&self, range: (u32, u32)) -> &[u8] {
        &self.arena.as_bytes()[range.0 as usize..range.1 as usize]
    }
}

/// Bytes of a `/health` body beside the snapshot id and the escaped scale
/// (at most 6 bytes per scale byte): the keys (~50) and the domain count
/// (≤ 20).
const HEALTH_BODY_BOUND: usize = 80;
/// Bytes of a `/v1/rank` body beside the snapshot id, the domain and the
/// number: the keys (~60) and the list name (≤ 8).
const RANK_BODY_BOUND: usize = 80;
/// Bytes of a `/v1/movement` body beside the snapshot id, the domain and
/// its numbers: the keys (~90) and the seven list names (≤ 8 + 3 each).
const MOVEMENT_BODY_BOUND: usize = 180;

/// One monthly list's dense position column: `pos[id]` is the best-first
/// position of raw id `id`, or [`PosColumn::ABSENT`] when the list does not
/// hold it. Sized to the domain table, built once per snapshot (and so once
/// per live swap).
///
/// A rank lookup is one index, and "is `id` in this list's top-k cut" is
/// `pos[id] < top_len(k)` because every cut is a best-first prefix. Decode
/// rejects a list that names an id twice, so each id has one position.
struct PosColumn(Box<[u32]>);

impl PosColumn {
    /// Marks an id the list does not hold.
    const ABSENT: u32 = u32::MAX;

    /// Builds the column for a best-first list of unique ids, each below
    /// `table_len` (decode guarantees both).
    fn new(ids: &[DomainId], table_len: usize) -> Self {
        let mut pos = vec![PosColumn::ABSENT; table_len].into_boxed_slice();
        for (i, id) in ids.iter().enumerate() {
            if let Some(slot) = pos.get_mut(id.raw() as usize) {
                *slot = i as u32;
            }
        }
        PosColumn(pos)
    }

    /// The 0-based best-first position of `id`, if the list holds it.
    fn rank_of(&self, id: u32) -> Option<u32> {
        self.0
            .get(id as usize)
            .copied()
            .filter(|&p| p != PosColumn::ABSENT)
    }

    /// How many of `ids` sit within this list's first `cut_len` positions.
    fn count_within(&self, ids: &[DomainId], cut_len: usize) -> usize {
        ids.iter()
            .filter(|id| {
                self.0
                    .get(id.raw() as usize)
                    .is_some_and(|&p| (p as usize) < cut_len)
            })
            .count()
    }
}

/// Intersection and Jaccard index of two top-k cuts, each given as its
/// best-first id prefix and the list's [`PosColumn`]. Walks the shorter cut
/// once and probes the other list's column; no sort, no temporary buffer.
///
/// The Jaccard value is `topple_stats::sets::jaccard_sorted`'s expression
/// (`inter / union` in `f64`, and 1.0 when both cuts are empty), so the
/// rendered digits match the sorted merge-walk it replaces.
fn cut_overlap(
    cut_a: &[DomainId],
    pos_a: &PosColumn,
    cut_b: &[DomainId],
    pos_b: &PosColumn,
) -> (usize, f64) {
    let inter = if cut_a.len() <= cut_b.len() {
        pos_b.count_within(cut_a, cut_b.len())
    } else {
        pos_a.count_within(cut_b, cut_a.len())
    };
    if cut_a.is_empty() && cut_b.is_empty() {
        return (inter, 1.0);
    }
    let union = cut_a.len() + cut_b.len() - inter;
    (inter, inter as f64 / union as f64)
}

/// A snapshot prepared for point queries: a dense position column per monthly
/// list for O(1) rank lookups and O(k) compares, an [`IdCut`] per daily
/// list for O(log n) trajectory lookups, and the hot cache of pre-rendered
/// top-K response bodies.
pub struct QuerySnapshot {
    snapshot: Snapshot,
    id: String,
    /// Live-serving generation: 0 for a snapshot loaded from disk, then +1
    /// per hot-swap. Stamped into every response via [`Self::id`].
    generation: u64,
    /// Pre-rendered `GET /v1/snapshot` body (id, generation, lineage).
    snapshot_body: String,
    /// One position column per monthly list, indexed like
    /// [`ListSource::ALL`].
    positions: [PosColumn; ListSource::ALL.len()],
    alexa_daily_cuts: Vec<IdCut>,
    umbrella_daily_cuts: Vec<IdCut>,
    hot: HotCache,
}

/// The result of routing one request: status code plus JSON body.
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// JSON body (always an object).
    pub body: String,
}

fn ok(body: String) -> Reply {
    Reply { status: 200, body }
}

fn err(status: u16, message: &str) -> Reply {
    Reply {
        status,
        body: format!("{{\"error\":\"{}\"}}", escape(message)),
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    let _ = write_escaped(&mut out, s);
    out
}

/// Writes `s` escaped for a JSON string literal into `out`.
fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        return out.write_str(s);
    }
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    Ok(())
}

/// Parses the lowercase list name used in URLs.
pub fn parse_list(name: &str) -> Option<ListSource> {
    Some(match name {
        "alexa" => ListSource::Alexa,
        "umbrella" => ListSource::Umbrella,
        "majestic" => ListSource::Majestic,
        "secrank" => ListSource::Secrank,
        "tranco" => ListSource::Tranco,
        "trexa" => ListSource::Trexa,
        "crux" => ListSource::Crux,
        _ => return None,
    })
}

/// The URL name of a list source (lowercase, stable).
pub fn list_url_name(source: ListSource) -> &'static str {
    match source {
        ListSource::Alexa => "alexa",
        ListSource::Umbrella => "umbrella",
        ListSource::Majestic => "majestic",
        ListSource::Secrank => "secrank",
        ListSource::Tranco => "tranco",
        ListSource::Trexa => "trexa",
        ListSource::Crux => "crux",
    }
}

fn all_index(source: ListSource) -> usize {
    ListSource::ALL
        .iter()
        .position(|&s| s == source)
        .unwrap_or(0)
}

impl QuerySnapshot {
    /// Prepares a decoded snapshot for serving at generation 0 (the form
    /// every offline consumer uses; ids carry no generation suffix).
    pub fn new(snapshot: Snapshot) -> Self {
        QuerySnapshot::with_generation(snapshot, 0, &[])
    }

    /// Prepares a decoded snapshot for serving at a live generation, with
    /// the snapshot itself as the `/v1/snapshot` body's `base` (what the
    /// offline query layer renders); [`QuerySnapshot::live`] with the
    /// snapshot's own id.
    pub fn with_generation(snapshot: Snapshot, generation: u64, lineage: &[String]) -> Self {
        let base_id = snapshot.id();
        QuerySnapshot::live(snapshot, generation, &base_id, lineage)
    }

    /// Prepares a snapshot rebuilt by a live daemon that booted from the
    /// snapshot `base_id`.
    ///
    /// Generation 0 renders the plain snapshot id (byte-identical to what
    /// the offline query layer produces for the same file); generation N>0
    /// suffixes `-gN` so every response names exactly which hot-swapped
    /// index produced it. `lineage` lists the delta ids applied since boot,
    /// oldest first; with `base_id` it is baked into the pre-rendered
    /// `/v1/snapshot` body, so the two name where the delta chain starts
    /// and every link of it. No other body mentions the base.
    pub fn live(snapshot: Snapshot, generation: u64, base_id: &str, lineage: &[String]) -> Self {
        let own_id = snapshot.id();
        let id = if generation > 0 {
            format!("{own_id}-g{generation}")
        } else {
            own_id
        };
        let mut snapshot_body = format!(
            "{{\"snapshot\":\"{id}\",\"base\":\"{}\",\"generation\":{generation},\
             \"n_days\":{},\"lineage\":[",
            escape(base_id),
            snapshot.identity.n_days
        );
        for (i, delta_id) in lineage.iter().enumerate() {
            if i > 0 {
                snapshot_body.push(',');
            }
            snapshot_body.push('"');
            snapshot_body.push_str(&escape(delta_id));
            snapshot_body.push('"');
        }
        snapshot_body.push_str("]}");
        let table_len = snapshot.index.table().len();
        let positions =
            ListSource::ALL.map(|s| PosColumn::new(&snapshot.index.monthly(s).ids, table_len));
        let cut = |cols: &ListColumns| IdCut::new(&cols.ids);
        let alexa_daily_cuts = snapshot.index.alexa_daily().iter().map(cut).collect();
        let umbrella_daily_cuts = snapshot.index.umbrella_daily().iter().map(cut).collect();
        let mut qs = QuerySnapshot {
            snapshot,
            id,
            generation,
            snapshot_body,
            positions,
            alexa_daily_cuts,
            umbrella_daily_cuts,
            hot: HotCache::empty(),
        };
        // Two-phase: the cache renders through `qs`'s own (still cold)
        // renderers, so every hot body is byte-identical to what a cache
        // miss would produce.
        qs.hot = HotCache::build(&qs);
        qs
    }

    /// Reads, validates, and prepares a snapshot file.
    pub fn load(path: &Path) -> Result<Self, ContainerError> {
        Ok(QuerySnapshot::new(Snapshot::read_from(path)?))
    }

    /// The snapshot's stable identity string (with a `-gN` suffix when
    /// serving a live generation N > 0).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The live generation this snapshot serves as (0 = loaded from disk).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The pre-rendered `GET /v1/snapshot` body: id, base id, generation,
    /// day count, and delta lineage. Borrowed — serving it allocates nothing.
    pub fn snapshot_bytes(&self) -> &[u8] {
        self.snapshot_body.as_bytes()
    }

    /// The underlying snapshot.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// The pre-rendered `/health` body (snapshot-constant).
    pub fn health_bytes(&self) -> &[u8] {
        self.hot.slice(self.hot.health)
    }

    /// The pre-rendered `/v1/rank` body for `domain` on `source`, if the
    /// domain sits in the list's top-[`HOT_K`]. Allocation-free: one hash
    /// probe, one binary search, one slice.
    ///
    /// A `Some` here is byte-identical to [`Self::rank`]'s body for the same
    /// inputs: an interned name round-trips through the table (the id it
    /// resolves to names exactly this domain), so the body pre-rendered for
    /// that position is the body this domain would render.
    pub fn hot_rank(&self, source: ListSource, domain: &str) -> Option<&[u8]> {
        // topple-lint: hot-path-begin
        let id = self.snapshot.index.table().id(domain)?;
        let pos = self.positions[all_index(source)].rank_of(id.raw())?;
        let range = *self.hot.rank.get(all_index(source))?.get(pos as usize)?;
        Some(self.hot.slice(range))
        // topple-lint: hot-path-end
    }

    /// The pre-rendered `/v1/movement` body for `domain`, if it is in any
    /// monthly list's top-[`HOT_K`]. Allocation-free, same argument as
    /// [`Self::hot_rank`].
    pub fn hot_movement(&self, domain: &str) -> Option<&[u8]> {
        // topple-lint: hot-path-begin
        let id = self.snapshot.index.table().id(domain)?;
        let at = self.hot.movement_ids.binary_search(&id.raw()).ok()?;
        Some(self.hot.slice(self.hot.movement_ranges[at]))
        // topple-lint: hot-path-end
    }

    /// `GET /health`.
    pub fn health(&self) -> Reply {
        let mut body = String::new();
        let _ = self.write_health(&mut body);
        ok(body)
    }

    /// The one `/health` renderer, shared by the cold path and the hot
    /// cache.
    fn write_health(&self, out: &mut impl fmt::Write) -> fmt::Result {
        write!(
            out,
            "{{\"status\":\"ok\",\"snapshot\":\"{}\",\"scale\":\"",
            self.id
        )?;
        write_escaped(out, &self.snapshot.identity.scale)?;
        write!(
            out,
            "\",\"domains\":{}}}",
            self.snapshot.index.table().len()
        )
    }

    /// The 0-based position of `domain` in a monthly list, if present.
    fn monthly_pos(&self, source: ListSource, domain: &str) -> Option<u32> {
        let id = self.snapshot.index.table().id(domain)?;
        self.positions[all_index(source)].rank_of(id.raw())
    }

    /// `GET /v1/rank/{list}/{domain}`.
    pub fn rank(&self, list: &str, domain: &str) -> Reply {
        let Some(source) = parse_list(list) else {
            return err(
                404,
                "unknown list; one of alexa umbrella majestic secrank tranco trexa crux",
            );
        };
        if domain.parse::<DomainName>().is_err() {
            return err(400, "invalid domain name");
        }
        let pos = self.monthly_pos(source, domain);
        let mut body = String::new();
        let _ = self.write_rank(&mut body, source, domain, pos);
        ok(body)
    }

    /// The one `/v1/rank` renderer, shared by the cold path and the hot
    /// cache: the body for `domain` on `source`'s monthly list, where `pos`
    /// is the domain's 0-based best-first position, if the list holds it.
    fn write_rank(
        &self,
        out: &mut impl fmt::Write,
        source: ListSource,
        domain: &str,
        pos: Option<u32>,
    ) -> fmt::Result {
        out.write_str("{\"snapshot\":\"")?;
        out.write_str(&self.id)?;
        out.write_str("\",\"list\":\"")?;
        out.write_str(list_url_name(source))?;
        out.write_str("\",\"domain\":\"")?;
        write_escaped(out, domain)?;
        let Some(pos) = pos else {
            return out.write_str("\",\"present\":false}");
        };
        let cols = self.snapshot.index.monthly(source);
        if cols.ordered {
            out.write_str("\",\"present\":true,\"rank\":")?;
            write_u32(out, pos + 1)?;
        } else {
            out.write_str("\",\"present\":true,\"bucket\":")?;
            write_u32(out, cols.values.get(pos as usize).copied().unwrap_or(0))?;
        }
        out.write_char('}')
    }

    /// The compare-cache key for `(a, b, k)` — parameters only, so a cache
    /// hit is guaranteed to return the bytes a miss would compute.
    pub fn compare_key(a: ListSource, b: ListSource, k: usize) -> u64 {
        ((all_index(a) as u64) << 48) | ((all_index(b) as u64) << 40) | (k as u64)
    }

    /// `GET /v1/compare?a={list}&b={list}&k={magnitude}`.
    pub fn compare(&self, a: &str, b: &str, k: &str) -> Reply {
        let (Some(sa), Some(sb)) = (parse_list(a), parse_list(b)) else {
            return err(
                404,
                "unknown list; one of alexa umbrella majestic secrank tranco trexa crux",
            );
        };
        let Ok(k) = k.parse::<usize>() else {
            return err(400, "k must be a positive integer");
        };
        if k == 0 || k > MAX_K {
            return err(400, "k must be between 1 and 1000000");
        }
        ok(self.compare_body(sa, sb, k))
    }

    /// The compare response body (cache value) for parsed parameters.
    ///
    /// O(min(len_a, len_b)) over the monthly position columns; the body
    /// `String` is the only allocation, at a capacity that fits it.
    pub fn compare_body(&self, a: ListSource, b: ListSource, k: usize) -> String {
        let cut_a = self.snapshot.index.monthly(a).top_ids(k);
        let cut_b = self.snapshot.index.monthly(b).top_ids(k);
        let (inter, jac) = cut_overlap(
            cut_a,
            &self.positions[all_index(a)],
            cut_b,
            &self.positions[all_index(b)],
        );
        let mut body = String::with_capacity(COMPARE_BODY_CAPACITY + self.id.len());
        let _ = write!(
            body,
            "{{\"snapshot\":\"{}\",\"a\":\"{}\",\"b\":\"{}\",\"k\":{k},\
             \"len_a\":{},\"len_b\":{},\"intersection\":{inter},\"jaccard\":{jac}}}",
            self.id,
            list_url_name(a),
            list_url_name(b),
            cut_a.len(),
            cut_b.len(),
        );
        body
    }

    /// `GET /v1/movement/{domain}`: monthly rank on every list plus the
    /// day-by-day rank trajectory on the two daily providers.
    pub fn movement(&self, domain: &str) -> Reply {
        if domain.parse::<DomainName>().is_err() {
            return err(400, "invalid domain name");
        }
        let id = self.snapshot.index.table().id(domain).map(|d| d.raw());
        let mut body = String::new();
        let _ = self.write_movement(&mut body, domain, id);
        ok(body)
    }

    /// The one `/v1/movement` renderer, shared by the cold path and the hot
    /// cache: the body for `domain`, whose raw id is `id` if the table
    /// holds it.
    fn write_movement(
        &self,
        out: &mut impl fmt::Write,
        domain: &str,
        id: Option<u32>,
    ) -> fmt::Result {
        out.write_str("{\"snapshot\":\"")?;
        out.write_str(&self.id)?;
        out.write_str("\",\"domain\":\"")?;
        write_escaped(out, domain)?;
        out.write_str(if id.is_some() {
            "\",\"present\":true,\"monthly\":{"
        } else {
            "\",\"present\":false,\"monthly\":{"
        })?;
        for (i, &source) in ListSource::ALL.iter().enumerate() {
            out.write_str(if i > 0 { ",\"" } else { "\"" })?;
            out.write_str(list_url_name(source))?;
            out.write_str("\":")?;
            let entry = id.and_then(|raw| {
                let pos = self.positions[all_index(source)].rank_of(raw)?;
                let cols = self.snapshot.index.monthly(source);
                if cols.ordered {
                    Some(pos + 1)
                } else {
                    cols.values.get(pos as usize).copied()
                }
            });
            write_number_or_null(out, entry)?;
        }
        out.write_str("},\"alexa_daily\":")?;
        write_daily(out, id, &self.alexa_daily_cuts)?;
        out.write_str(",\"umbrella_daily\":")?;
        write_daily(out, id, &self.umbrella_daily_cuts)?;
        out.write_char('}')
    }

    /// `GET /v1/artifact/{name}`: a rendered report stored in the snapshot.
    pub fn artifact(&self, name: &str) -> Reply {
        match self
            .snapshot
            .artifacts
            .iter()
            .find(|(n, _)| n.as_str() == name)
        {
            Some((n, text)) => ok(format!(
                "{{\"snapshot\":\"{}\",\"name\":\"{}\",\"body\":\"{}\"}}",
                self.id,
                escape(n),
                escape(text)
            )),
            None => err(404, "no such artifact"),
        }
    }
}

/// Bytes of a compare body beside the snapshot id: the keys (~80), two
/// list names (≤ 8 each), four integers (≤ 20 each) and a float (≤ 24).
const COMPARE_BODY_CAPACITY: usize = 200;

/// Writes `v`, or `null` when there is none.
fn write_number_or_null(out: &mut impl fmt::Write, v: Option<u32>) -> fmt::Result {
    match v {
        Some(v) => write_u32(out, v),
        None => out.write_str("null"),
    }
}

/// Writes `v`'s decimal digits through a stack buffer, skipping the
/// formatting machinery.
fn write_u32(out: &mut impl fmt::Write, mut v: u32) -> fmt::Result {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.write_str(std::str::from_utf8(&digits[at..]).unwrap_or("0"))
}

/// Writes a `[rank|null, ...]` array of one daily provider's trajectory.
fn write_daily(out: &mut impl fmt::Write, id: Option<u32>, cuts: &[IdCut]) -> fmt::Result {
    out.write_char('[')?;
    for (i, cut) in cuts.iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        write_number_or_null(out, id.and_then(|raw| cut.rank_of(raw)).map(|pos| pos + 1))?;
    }
    out.write_char(']')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::encode_study;
    use topple_core::Study;
    use topple_sim::WorldConfig;

    fn tiny_query() -> QuerySnapshot {
        let study = Study::run(WorldConfig::tiny(11)).expect("tiny study");
        let bytes = encode_study(&study, "tiny", &[("report".into(), "body".into())]);
        QuerySnapshot::new(Snapshot::from_bytes(&bytes).expect("decodes"))
    }

    #[test]
    fn health_names_the_snapshot() {
        let q = tiny_query();
        let r = q.health();
        assert_eq!(r.status, 200);
        assert!(r.body.contains(q.id()));
        assert!(r.body.contains("\"status\":\"ok\""));
    }

    #[test]
    fn rank_finds_a_listed_domain() {
        let q = tiny_query();
        let cols = q.snapshot().index.monthly(ListSource::Tranco);
        let first = q.snapshot().index.table().name(cols.ids[0]).to_string();
        let r = q.rank("tranco", &first);
        assert_eq!(r.status, 200);
        assert!(r.body.contains("\"rank\":1"), "{}", r.body);
        // A valid but absent domain is present:false, not an error.
        let r = q.rank("tranco", "never-listed-domain.example");
        assert_eq!(r.status, 200);
        assert!(r.body.contains("\"present\":false"));
        // Unknown list 404s, invalid domain 400s.
        assert_eq!(q.rank("nolist", &first).status, 404);
        assert_eq!(q.rank("tranco", "bad!!name").status, 400);
    }

    #[test]
    fn crux_rank_reports_buckets() {
        let q = tiny_query();
        let cols = q.snapshot().index.monthly(ListSource::Crux);
        if cols.is_empty() {
            return;
        }
        let name = q.snapshot().index.table().name(cols.ids[0]).to_string();
        let r = q.rank("crux", &name);
        assert!(r.body.contains("\"bucket\":"), "{}", r.body);
    }

    #[test]
    fn compare_is_symmetric_in_content() {
        let q = tiny_query();
        let r = q.compare("alexa", "tranco", "100");
        assert_eq!(r.status, 200);
        assert!(r.body.contains("\"jaccard\":"));
        assert_eq!(q.compare("alexa", "tranco", "0").status, 400);
        assert_eq!(q.compare("alexa", "tranco", "x").status, 400);
        assert_eq!(q.compare("alexa", "nolist", "10").status, 404);
    }

    #[test]
    fn movement_covers_every_list_and_day() {
        let q = tiny_query();
        let cols = q.snapshot().index.monthly(ListSource::Alexa);
        let name = q.snapshot().index.table().name(cols.ids[0]).to_string();
        let r = q.movement(&name);
        assert_eq!(r.status, 200);
        for source in ListSource::ALL {
            assert!(r.body.contains(&format!("\"{}\":", list_url_name(source))));
        }
        let days = q.snapshot().identity.n_days as usize;
        let daily_part = r.body.split("alexa_daily").nth(1).expect("daily section");
        assert!(daily_part.split(',').count() >= days);
    }

    #[test]
    fn every_hot_body_is_the_cold_renderers_body() {
        let study = Study::run(WorldConfig::tiny(11)).expect("tiny study");
        let bytes = encode_study(&study, "tiny", &[]);
        for generation in [0, 3] {
            let snap = Snapshot::from_bytes(&bytes).expect("decodes");
            let q = QuerySnapshot::with_generation(snap, generation, &[]);
            assert_eq!(q.health_bytes(), q.health().body.as_bytes());
            let table = q.snapshot().index.table();
            for source in ListSource::ALL {
                let cols = q.snapshot().index.monthly(source);
                for &id in cols.ids.iter().take(HOT_K) {
                    let name = table.name(id).as_str();
                    let cold = q.rank(list_url_name(source), name).body;
                    assert_eq!(q.hot_rank(source, name), Some(cold.as_bytes()));
                    let cold = q.movement(name).body;
                    assert_eq!(q.hot_movement(name), Some(cold.as_bytes()));
                }
            }
        }
    }

    #[test]
    fn bodies_keep_their_exact_shape() {
        let q = tiny_query();
        let id = q.id().to_owned();
        assert_eq!(
            q.rank("tranco", "absent.example").body,
            format!(
                "{{\"snapshot\":\"{id}\",\"list\":\"tranco\",\"domain\":\"absent.example\",\
                 \"present\":false}}"
            )
        );
        let cols = q.snapshot().index.monthly(ListSource::Tranco);
        let first = q.snapshot().index.table().name(cols.ids[0]).to_string();
        assert_eq!(
            q.rank("tranco", &first).body,
            format!(
                "{{\"snapshot\":\"{id}\",\"list\":\"tranco\",\"domain\":\"{first}\",\
                 \"present\":true,\"rank\":1}}"
            )
        );
        let nulls = vec!["null"; q.snapshot().identity.n_days as usize].join(",");
        assert_eq!(
            q.movement("absent.example").body,
            format!(
                "{{\"snapshot\":\"{id}\",\"domain\":\"absent.example\",\"present\":false,\
                 \"monthly\":{{\"alexa\":null,\"majestic\":null,\"secrank\":null,\"tranco\":null,\
                 \"trexa\":null,\"umbrella\":null,\"crux\":null}},\"alexa_daily\":[{nulls}],\
                 \"umbrella_daily\":[{nulls}]}}"
            )
        );
        assert_eq!(
            q.health().body,
            format!(
                "{{\"status\":\"ok\",\"snapshot\":\"{id}\",\"scale\":\"tiny\",\"domains\":{}}}",
                q.snapshot().index.table().len()
            )
        );
    }

    #[test]
    fn artifact_roundtrips() {
        let q = tiny_query();
        assert_eq!(q.artifact("report").status, 200);
        assert_eq!(q.artifact("missing").status, 404);
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    /// The compare arithmetic the position columns replaced: sort both cuts,
    /// then merge-walk them for the intersection and the Jaccard index.
    fn sorted_overlap(cut_a: &[DomainId], cut_b: &[DomainId]) -> (usize, f64) {
        let sorted = |cut: &[DomainId]| {
            let mut v: Vec<u32> = cut.iter().map(|d| d.raw()).collect();
            v.sort_unstable();
            v
        };
        let (a, b) = (sorted(cut_a), sorted(cut_b));
        (
            topple_stats::sets::intersection_size_sorted(&a, &b),
            topple_stats::sets::jaccard_sorted(&a, &b),
        )
    }

    /// A best-first list over `0..table_len`: ids ordered by `keys`, first
    /// `len` kept. Unique by construction.
    fn keyed_list(table_len: usize, keys: &[u64], len: usize) -> Vec<DomainId> {
        let mut ids: Vec<u32> = (0..table_len as u32).collect();
        ids.sort_by_key(|&i| keys[i as usize]);
        ids.truncate(len);
        ids.into_iter().map(DomainId::from_raw).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn cut_overlap_matches_the_sorted_merge_walk(
            table_len in 1usize..300,
            keys_a in proptest::collection::vec(proptest::prelude::any::<u64>(), 300),
            keys_b in proptest::collection::vec(proptest::prelude::any::<u64>(), 300),
            len_a in 0usize..300,
            len_b in 0usize..300,
            k in 1usize..320,
            same in proptest::prelude::any::<bool>(),
        ) {
            let list_a = keyed_list(table_len, &keys_a, len_a);
            let list_b = if same {
                list_a.clone()
            } else {
                keyed_list(table_len, &keys_b, len_b)
            };
            let (pos_a, pos_b) = (
                PosColumn::new(&list_a, table_len),
                PosColumn::new(&list_b, table_len),
            );
            let cut_a = &list_a[..k.min(list_a.len())];
            let cut_b = &list_b[..k.min(list_b.len())];
            let (inter, jac) = cut_overlap(cut_a, &pos_a, cut_b, &pos_b);
            let (want_inter, want_jac) = sorted_overlap(cut_a, cut_b);
            proptest::prop_assert_eq!(inter, want_inter);
            proptest::prop_assert_eq!(jac.to_bits(), want_jac.to_bits());
            for (i, id) in list_a.iter().enumerate() {
                proptest::prop_assert_eq!(pos_a.rank_of(id.raw()), Some(i as u32));
            }
        }
    }

    #[test]
    fn two_empty_cuts_are_identical() {
        let pos = PosColumn::new(&[], 4);
        assert_eq!(cut_overlap(&[], &pos, &[], &pos), (0, 1.0));
        assert_eq!(pos.rank_of(2), None);
        assert_eq!(pos.rank_of(99), None);
    }

    #[test]
    fn generation_zero_keeps_the_plain_id() {
        let q = tiny_query();
        assert_eq!(q.generation(), 0);
        assert!(q.id().starts_with("tpls-v1-"));
        assert!(!q.id().contains("-g"));
        let body = std::str::from_utf8(q.snapshot_bytes()).expect("utf8");
        assert!(body.contains("\"generation\":0"));
        assert!(body.contains("\"lineage\":[]"));
    }

    #[test]
    fn generation_suffix_reaches_every_body() {
        let study = Study::run(WorldConfig::tiny(11)).expect("tiny study");
        let bytes = encode_study(&study, "tiny", &[("report".into(), "body".into())]);
        let snap = || Snapshot::from_bytes(&bytes).expect("decodes");
        let lineage = vec!["tpld-v1-00000001-d3-3".to_owned()];
        let live = QuerySnapshot::with_generation(snap(), 2, &lineage);
        let base = QuerySnapshot::new(snap());
        assert_eq!(live.id(), format!("{}-g2", base.id()));
        // The suffixed id is stamped into rendered bodies, hot and cold.
        assert!(live.health().body.contains(live.id()));
        let cols = live.snapshot().index.monthly(ListSource::Tranco);
        let first = live.snapshot().index.table().name(cols.ids[0]).to_string();
        let hot = live.hot_rank(ListSource::Tranco, &first).expect("hot");
        assert!(std::str::from_utf8(hot).expect("utf8").contains("-g2"));
        // /v1/snapshot carries base id, generation, and the delta lineage.
        let body = std::str::from_utf8(live.snapshot_bytes()).expect("utf8");
        assert!(body.contains(&format!("\"base\":\"{}\"", base.id())));
        assert!(body.contains("\"generation\":2"));
        assert!(body.contains("tpld-v1-00000001-d3-3"));
    }
}
