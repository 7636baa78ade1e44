//! The query layer: a loaded snapshot plus the lookup structures and JSON
//! renderers behind each endpoint.
//!
//! Everything here is a pure function of the snapshot bytes: response bodies
//! are built with hand-rolled JSON in a fixed key order, floats are rendered
//! through `Display` (shortest round-trip form), and all lookups run over
//! sorted id columns ([`IdCut`] binary searches, merge-walk intersections).
//! That is what makes the daemon's byte-identical guarantee hold across
//! worker counts and restarts.

use std::path::Path;

use topple_core::compare::IdCut;
use topple_core::ListColumns;
use topple_lists::ListSource;
use topple_psl::DomainName;
use topple_stats::sets::jaccard_sorted;

use crate::error::SnapshotError;
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
/// tables. Every body is produced by the *same* renderer the cold path
/// calls, so the cache can change latency, never content.
struct HotCache {
    arena: Box<[u8]>,
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

impl HotCache {
    fn empty() -> Self {
        HotCache {
            arena: Box::default(),
            health: (0, 0),
            rank: Vec::new(),
            movement_ids: Vec::new(),
            movement_ranges: Vec::new(),
        }
    }

    /// Renders every hot body through `snapshot`'s public renderers.
    /// `snapshot.hot` must still be empty (bodies must come from the real
    /// formatting path, not the cache being built).
    fn build(snapshot: &QuerySnapshot) -> Self {
        let mut arena: Vec<u8> = Vec::new();
        let push = |arena: &mut Vec<u8>, body: &str| -> (u32, u32) {
            let start = arena.len() as u32;
            arena.extend_from_slice(body.as_bytes());
            (start, arena.len() as u32)
        };

        let health = push(&mut arena, &snapshot.health().body);

        let table = snapshot.snapshot.index.table();
        let mut rank = Vec::with_capacity(ListSource::ALL.len());
        let mut movement_id_set: std::collections::BTreeSet<u32> =
            std::collections::BTreeSet::new();
        for &source in ListSource::ALL.iter() {
            let cols = snapshot.snapshot.index.monthly(source);
            let k = cols.ids.len().min(HOT_K);
            let mut ranges = Vec::with_capacity(k);
            for &id in cols.ids.iter().take(k) {
                let name = table.name(id);
                let body = snapshot.rank(list_url_name(source), name.as_str()).body;
                ranges.push(push(&mut arena, &body));
                movement_id_set.insert(id.raw());
            }
            rank.push(ranges);
        }

        let mut movement_ids = Vec::with_capacity(movement_id_set.len());
        let mut movement_ranges = Vec::with_capacity(movement_id_set.len());
        for raw in movement_id_set {
            let name = table.name(topple_lists::DomainId::from_raw(raw));
            let body = snapshot.movement(name.as_str()).body;
            movement_ids.push(raw);
            movement_ranges.push(push(&mut arena, &body));
        }

        HotCache {
            arena: arena.into_boxed_slice(),
            health,
            rank,
            movement_ids,
            movement_ranges,
        }
    }

    fn slice(&self, range: (u32, u32)) -> &[u8] {
        &self.arena[range.0 as usize..range.1 as usize]
    }
}

/// A snapshot prepared for point queries: per-list [`IdCut`]s for O(log n)
/// rank lookups, the precomputed sorted id column of every monthly list,
/// and the hot cache of pre-rendered top-K response bodies.
pub struct QuerySnapshot {
    snapshot: Snapshot,
    id: String,
    /// Live-serving generation: 0 for a snapshot loaded from disk, then +1
    /// per hot-swap. Stamped into every response via [`Self::id`].
    generation: u64,
    /// Pre-rendered `GET /v1/snapshot` body (id, generation, lineage).
    snapshot_body: String,
    /// One cut per monthly list, indexed like [`ListSource::ALL`].
    monthly_cuts: Vec<IdCut>,
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
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
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

/// Count of common elements between two sorted slices (one merge-walk).
fn intersection_sorted(a: &[u32], b: &[u32]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut n = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

impl QuerySnapshot {
    /// Prepares a decoded snapshot for serving at generation 0 (the form
    /// every offline consumer uses; ids carry no generation suffix).
    pub fn new(snapshot: Snapshot) -> Self {
        QuerySnapshot::with_generation(snapshot, 0, &[])
    }

    /// Prepares a decoded snapshot for serving at a live generation.
    ///
    /// Generation 0 renders the plain snapshot id (byte-identical to what
    /// the offline query layer produces for the same file); generation N>0
    /// suffixes `-gN` so every response names exactly which hot-swapped
    /// index produced it. `lineage` lists the delta ids applied since boot,
    /// oldest first, and is baked into the pre-rendered `/v1/snapshot` body.
    pub fn with_generation(snapshot: Snapshot, generation: u64, lineage: &[String]) -> Self {
        let base_id = snapshot.id();
        let id = if generation > 0 {
            format!("{base_id}-g{generation}")
        } else {
            base_id.clone()
        };
        let mut snapshot_body = format!(
            "{{\"snapshot\":\"{id}\",\"base\":\"{base_id}\",\"generation\":{generation},\
             \"n_days\":{},\"lineage\":[",
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
        let cut = |cols: &ListColumns| IdCut::new(&cols.ids);
        let monthly_cuts = ListSource::ALL
            .iter()
            .map(|&s| cut(snapshot.index.monthly(s)))
            .collect();
        let alexa_daily_cuts = snapshot.index.alexa_daily().iter().map(cut).collect();
        let umbrella_daily_cuts = snapshot.index.umbrella_daily().iter().map(cut).collect();
        let mut qs = QuerySnapshot {
            snapshot,
            id,
            generation,
            snapshot_body,
            monthly_cuts,
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
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
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
        let pos = self
            .monthly_cuts
            .get(all_index(source))?
            .rank_of(id.raw())?;
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
        ok(format!(
            "{{\"status\":\"ok\",\"snapshot\":\"{}\",\"scale\":\"{}\",\"domains\":{}}}",
            self.id,
            escape(&self.snapshot.identity.scale),
            self.snapshot.index.table().len()
        ))
    }

    /// The 0-based position of `domain` in a monthly list, if present.
    fn monthly_pos(&self, source: ListSource, domain: &str) -> Option<u32> {
        let id = self.snapshot.index.table().id(domain)?;
        self.monthly_cuts.get(all_index(source))?.rank_of(id.raw())
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
        let head = format!(
            "{{\"snapshot\":\"{}\",\"list\":\"{}\",\"domain\":\"{}\"",
            self.id,
            list_url_name(source),
            escape(domain)
        );
        match self.monthly_pos(source, domain) {
            None => ok(format!("{head},\"present\":false}}")),
            Some(pos) => {
                let cols = self.snapshot.index.monthly(source);
                if cols.ordered {
                    ok(format!("{head},\"present\":true,\"rank\":{}}}", pos + 1))
                } else {
                    let bucket = cols.values.get(pos as usize).copied().unwrap_or(0);
                    ok(format!("{head},\"present\":true,\"bucket\":{bucket}}}"))
                }
            }
        }
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
    pub fn compare_body(&self, a: ListSource, b: ListSource, k: usize) -> String {
        let sorted_cut = |s: ListSource| {
            let cols = self.snapshot.index.monthly(s);
            let mut v: Vec<u32> = cols.top_ids(k).iter().map(|d| d.raw()).collect();
            v.sort_unstable();
            v
        };
        let ca = sorted_cut(a);
        let cb = sorted_cut(b);
        let inter = intersection_sorted(&ca, &cb);
        let jac = jaccard_sorted(&ca, &cb);
        format!(
            "{{\"snapshot\":\"{}\",\"a\":\"{}\",\"b\":\"{}\",\"k\":{k},\
             \"len_a\":{},\"len_b\":{},\"intersection\":{inter},\"jaccard\":{jac}}}",
            self.id,
            list_url_name(a),
            list_url_name(b),
            ca.len(),
            cb.len(),
        )
    }

    /// `GET /v1/movement/{domain}`: monthly rank on every list plus the
    /// day-by-day rank trajectory on the two daily providers.
    pub fn movement(&self, domain: &str) -> Reply {
        if domain.parse::<DomainName>().is_err() {
            return err(400, "invalid domain name");
        }
        let id = self.snapshot.index.table().id(domain).map(|d| d.raw());
        let mut body = format!(
            "{{\"snapshot\":\"{}\",\"domain\":\"{}\",\"present\":{},\"monthly\":{{",
            self.id,
            escape(domain),
            id.is_some()
        );
        for (i, &source) in ListSource::ALL.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push('"');
            body.push_str(list_url_name(source));
            body.push_str("\":");
            let entry = id.and_then(|raw| {
                let pos = self.monthly_cuts.get(all_index(source))?.rank_of(raw)?;
                let cols = self.snapshot.index.monthly(source);
                if cols.ordered {
                    Some(pos + 1)
                } else {
                    cols.values.get(pos as usize).copied()
                }
            });
            match entry {
                Some(v) => body.push_str(&v.to_string()),
                None => body.push_str("null"),
            }
        }
        body.push_str("},\"alexa_daily\":");
        push_daily(&mut body, id, &self.alexa_daily_cuts);
        body.push_str(",\"umbrella_daily\":");
        push_daily(&mut body, id, &self.umbrella_daily_cuts);
        body.push('}');
        ok(body)
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

/// Renders a `[rank|null, ...]` array of one daily provider's trajectory.
fn push_daily(body: &mut String, id: Option<u32>, cuts: &[IdCut]) {
    body.push('[');
    for (i, cut) in cuts.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        match id.and_then(|raw| cut.rank_of(raw)) {
            Some(pos) => body.push_str(&(pos + 1).to_string()),
            None => body.push_str("null"),
        }
    }
    body.push(']');
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
    fn artifact_roundtrips() {
        let q = tiny_query();
        assert_eq!(q.artifact("report").status, 200);
        assert_eq!(q.artifact("missing").status, 404);
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
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
