//! PSL-based list normalization (Section 4.2).
//!
//! Lists rank different objects — registrable domains (Alexa, Majestic,
//! Secrank, Tranco, Trexa), FQDNs (Umbrella), web origins (CrUX). To compare
//! them, every entry is reduced to its PSL-defined registrable domain and
//! each domain keeps the *smallest* (most popular) rank among its entries.
//!
//! The fraction of entries whose raw name differs from their registrable
//! domain is the "deviation" reported in Table 2.
//!
//! Normalization is the analysis stage's hottest string operation — a study
//! normalizes the same raw names across 56 daily lists and seven monthly
//! ones — so the work-horse here is the stateful [`Normalizer`]: it memoizes
//! the outcome of every distinct raw entry (via [`RegistrableCache`] for the
//! PSL walk) and interns each resulting registrable domain into a shared
//! [`DomainTable`]. Grouping runs on dense ids: a reused id-indexed slot
//! column points each touched id at its row in a reused row buffer, so a
//! list costs one memo probe per raw entry and one sort of its rows, with
//! no per-list map. [`Normalizer::ranked_columns`] stops there and yields
//! only the id and value columns ([`NormalizedColumns`]); the named
//! [`NormalizedList`] adds one `DomainName` clone per entry on top. The free
//! functions ([`normalize_ranked`] and friends) remain as one-shot wrappers
//! over a throwaway `Normalizer` and produce identical output.
//!
//! A normalizer can also stay resident across assembles of a growing study
//! ([`Normalizer::into_parts`] / [`Normalizer::resume`]; the PSL is
//! re-borrowed each time). Ids are issued in interning order, so a caller
//! whose first lists only ever grow at their end (the live study: site
//! domains, then one Umbrella daily per day) marks them as a *stable
//! region* with [`Normalizer::seal`]. The next assemble
//! [rewinds](Normalizer::rewind) the table to the seal in O(tail),
//! forgetting only the memo entries that name cut ids, normalizes the
//! lists that extend the region, seals again, and re-normalizes the rest.
//! Every id is then the one a fresh normalizer fed the same lists in the
//! same order would issue.

use std::collections::HashMap;

use topple_psl::{DomainName, PublicSuffixList, RegistrableCache};

use crate::interner::{DomainId, DomainTable};
use crate::model::{BucketedList, ListSource, RankedList, TopList};

/// A list normalized to registrable domains.
#[derive(Debug, Clone)]
pub struct NormalizedList {
    /// Which methodology produced the list.
    pub source: ListSource,
    /// `(domain, value)` sorted ascending by value. For rank-ordered sources
    /// the value is the min rank; for bucketed sources it is the min bucket.
    pub entries: Vec<(DomainName, u32)>,
    /// Interned id of each entry, parallel to [`entries`](Self::entries)
    /// (`ids[i]` is the id of `entries[i].0` in the producing
    /// [`DomainTable`]). Because entries are value-sorted, every top-k cut is
    /// a *prefix* of this column for ordered and bucketed lists alike.
    pub ids: Vec<DomainId>,
    /// Whether `value` is an individual rank (true) or a bucket size (false).
    pub ordered: bool,
    /// Raw entries inspected.
    pub raw_len: usize,
    /// Raw entries whose name deviated from its registrable domain.
    pub deviating: usize,
}

impl NormalizedList {
    /// Percent of raw entries deviating from the PSL-registrable form
    /// (Table 2's statistic).
    pub fn deviation_percent(&self) -> f64 {
        if self.raw_len == 0 {
            0.0
        } else {
            100.0 * self.deviating as f64 / self.raw_len as f64
        }
    }

    /// Re-materializes the normalized list as a ranked list of registrable
    /// domains (ranks re-assigned 1..n in normalized order).
    ///
    /// This models list publishers that PSL-filter their output — the real
    /// Tranco aggregates its inputs at the pay-level-domain granularity,
    /// which is why Table 2 shows it deviating 0% from the PSL.
    pub fn to_ranked_list(&self) -> RankedList {
        RankedList::from_sorted_names(
            self.source,
            self.entries
                .iter()
                .map(|(d, _)| d.as_str().to_owned())
                .collect(),
        )
    }

    /// Number of normalized entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the normalized list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A list normalized to dense ids only: a [`NormalizedList`] without its
/// name column. This is all the columnar index keeps of a daily snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NormalizedColumns {
    /// Which methodology produced the list.
    pub source: ListSource,
    /// Interned ids sorted ascending by value, ties broken by domain name.
    pub ids: Vec<DomainId>,
    /// The min rank (ordered) or min bucket (bucketed), parallel to `ids`.
    pub values: Vec<u32>,
    /// Whether `values` are individual ranks (true) or bucket sizes (false).
    pub ordered: bool,
    /// Raw entries inspected.
    pub raw_len: usize,
    /// Raw entries whose name deviated from its registrable domain.
    pub deviating: usize,
}

impl NormalizedColumns {
    /// Adds the name column from the table that issued the ids.
    pub fn into_list(self, table: &DomainTable) -> NormalizedList {
        let entries = self
            .ids
            .iter()
            .zip(&self.values)
            .map(|(&id, &v)| (table.name(id).clone(), v))
            .collect();
        NormalizedList {
            source: self.source,
            entries,
            ids: self.ids,
            ordered: self.ordered,
            raw_len: self.raw_len,
            deviating: self.deviating,
        }
    }
}

/// Extracts the host from a raw list entry (strips an origin's scheme/port).
fn entry_host(raw: &str) -> Option<DomainName> {
    if let Some((_scheme, rest)) = raw.split_once("://") {
        let host = rest.split(['/', ':']).next().unwrap_or(rest);
        DomainName::new(host).ok()
    } else {
        DomainName::new(raw).ok()
    }
}

/// Memoized fate of one distinct raw entry string.
#[derive(Debug, Clone, Copy)]
enum EntryOutcome {
    /// Grouped under the given interned registrable domain.
    Kept { id: DomainId, deviates: bool },
    /// Unparseable (e.g. raw IPs); counted as deviating and dropped, as the
    /// paper's domain grouping would do.
    Dropped,
}

/// Marks an id with no row in the list being grouped.
const UNSEEN: u32 = u32::MAX;

/// Everything a [`Normalizer`] keeps between lists except its PSL borrow
/// and its [`DomainTable`]: the PSL memo, the entry memo and the grouping
/// buffers. It owns no borrow, so a caller can keep it resident between
/// normalizer lifetimes ([`Normalizer::resume`] / [`Normalizer::into_parts`]).
///
/// The entry memo holds interned ids, so it is only meaningful beside the
/// table it was filled against. It is split at the *seal*
/// ([`Normalizer::seal`]): outcomes that name an id below the sealed
/// length live in `entry_memo` for good, outcomes that name a later id live
/// in `tail_memo` and are forgotten with those ids by
/// [`Normalizer::rewind`].
#[derive(Debug, Default)]
pub struct NormalizerMemo {
    cache: RegistrableCache,
    entry_memo: HashMap<String, EntryOutcome>,
    tail_memo: HashMap<String, EntryOutcome>,
    /// The table length at the last seal; `None` until the first one, and
    /// again after each rewind, while every new id extends the stable
    /// region.
    sealed: Option<usize>,
    /// `slot[id]` is the row of `id` in `rows` while a list is grouped, and
    /// [`UNSEEN`] otherwise: every list resets the slots it touched.
    slot: Vec<u32>,
    /// `(id, best value)` of the list being grouped, one row per id.
    rows: Vec<(DomainId, u32)>,
}

impl NormalizerMemo {
    /// An empty memo: no entry seen, nothing sealed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Frees every memoized outcome and buffer but keeps the seal, so a
    /// normalizer resumed on it still rewinds to the stable region and
    /// issues the same ids; it only has to meet every raw name again. For a
    /// holder that may never normalize again and would rather not keep the
    /// memory.
    pub fn release(&mut self) {
        *self = NormalizerMemo {
            sealed: self.sealed,
            ..NormalizerMemo::default()
        };
    }
}

/// Stateful, memoizing normalizer shared across a study's lists.
///
/// Each distinct raw entry string is parsed, PSL-walked, and interned exactly
/// once; re-normalizing a list (or a later day's list sharing most entries)
/// costs one hash lookup per entry. The accumulated [`DomainTable`] is the
/// study's domain universe, recoverable via [`into_table`](Self::into_table).
///
/// A normalizer can also outlive the borrow of its PSL: [`into_parts`]
/// hands back the table and the [`NormalizerMemo`], and [`resume`] picks
/// them up again. Between the two, [`seal`] marks the ids interned so far
/// as a stable region and [`rewind`] cuts the table back to it, so a caller
/// whose lists keep their order can re-normalize only what follows the
/// stable region (the live study's assemble, `topple-core`).
///
/// [`into_parts`]: Self::into_parts
/// [`resume`]: Self::resume
/// [`seal`]: Self::seal
/// [`rewind`]: Self::rewind
#[derive(Debug)]
pub struct Normalizer<'a> {
    psl: &'a PublicSuffixList,
    table: DomainTable,
    memo: NormalizerMemo,
}

impl<'a> Normalizer<'a> {
    /// Creates a normalizer with an empty [`DomainTable`].
    pub fn new(psl: &'a PublicSuffixList) -> Self {
        Self::with_table(psl, DomainTable::new())
    }

    /// Creates a normalizer over a pre-seeded table (e.g. one already holding
    /// the world's site domains, so site index == id; see `topple-core`).
    pub fn with_table(psl: &'a PublicSuffixList, table: DomainTable) -> Self {
        Self::resume(psl, table, NormalizerMemo::new())
    }

    /// Picks up a table and the memo that was filled against it (both from
    /// [`into_parts`](Self::into_parts)). `memo` must come from the same
    /// table: its ids index it.
    pub fn resume(psl: &'a PublicSuffixList, table: DomainTable, memo: NormalizerMemo) -> Self {
        Normalizer { psl, table, memo }
    }

    /// Consumes the normalizer, yielding the table and the memo for a
    /// later [`resume`](Self::resume).
    pub fn into_parts(self) -> (DomainTable, NormalizerMemo) {
        (self.table, self.memo)
    }

    /// Marks every id interned so far as the stable region: a later
    /// [`rewind`](Self::rewind) cuts the table back to here.
    pub fn seal(&mut self) {
        self.memo.sealed = Some(self.table.len());
    }

    /// Cuts the table back to the last [`seal`](Self::seal) and forgets
    /// every memoized outcome that names a cut id, in O(ids and entries
    /// past the seal); outcomes that name a stable id stay memoized. Names
    /// interned from here until the next seal extend the stable region. A
    /// no-op before the first seal.
    pub fn rewind(&mut self) {
        if let Some(len) = self.memo.sealed.take() {
            self.table.truncate(len);
            self.memo.tail_memo.clear();
        }
    }

    /// Interns a domain directly (used to seed the table before lists are
    /// normalized, and to map non-list names into the same id space).
    pub fn intern(&mut self, name: &DomainName) -> DomainId {
        self.table.intern(name)
    }

    /// The table built so far.
    pub fn table(&self) -> &DomainTable {
        &self.table
    }

    /// Consumes the normalizer, yielding the accumulated table.
    pub fn into_table(self) -> DomainTable {
        self.table
    }

    /// The underlying PSL memo (hit/miss counters for diagnostics).
    pub fn cache(&self) -> &RegistrableCache {
        &self.memo.cache
    }

    /// Normalizes a ranked list.
    pub fn ranked(&mut self, list: &RankedList) -> NormalizedList {
        self.ranked_columns(list).into_list(&self.table)
    }

    /// Normalizes a bucketed list.
    pub fn bucketed(&mut self, list: &BucketedList) -> NormalizedList {
        self.bucketed_columns(list).into_list(&self.table)
    }

    /// Normalizes either format.
    pub fn normalize(&mut self, list: &TopList) -> NormalizedList {
        match list {
            TopList::Ranked(l) => self.ranked(l),
            TopList::Bucketed(l) => self.bucketed(l),
        }
    }

    /// Normalizes a ranked list to its id and value columns only — the
    /// same ids, values and counts as [`ranked`](Self::ranked), without
    /// cloning a name per entry.
    pub fn ranked_columns(&mut self, list: &RankedList) -> NormalizedColumns {
        let raw = list.entries.iter().map(|e| (e.name.as_str(), e.rank));
        self.columns(list.source, true, raw)
    }

    /// Normalizes a bucketed list to its id and value columns only.
    pub fn bucketed_columns(&mut self, list: &BucketedList) -> NormalizedColumns {
        let raw = list.entries.iter().map(|e| (e.name.as_str(), e.bucket));
        self.columns(list.source, false, raw)
    }

    /// Whether a raw entry deviates from its registrable domain, as counted
    /// in [`NormalizedList::deviating`]: unparseable entries (dropped from
    /// the list) deviate too. Memoized like every other entry lookup.
    pub fn deviates(&mut self, raw: &str) -> bool {
        match self.entry_outcome(raw) {
            EntryOutcome::Dropped => true,
            EntryOutcome::Kept { deviates, .. } => deviates,
        }
    }

    fn entry_outcome(&mut self, raw: &str) -> EntryOutcome {
        let memo = &mut self.memo;
        if let Some(&o) = memo.entry_memo.get(raw) {
            return o;
        }
        if let Some(&o) = memo.tail_memo.get(raw) {
            return o;
        }
        let outcome = match entry_host(raw) {
            None => EntryOutcome::Dropped,
            Some(host) => {
                // The grouping key: registrable domain, or the host itself
                // when it is already a public suffix (e.g. the literal name
                // `com` on Umbrella). An entry "deviates" when the listed
                // host is not itself a registrable domain (subdomain FQDNs,
                // bare public suffixes). An origin whose host IS the apex
                // (https://example.com) does not deviate — the paper's
                // Table 2 measures name-shape, not scheme.
                let (id, deviates) = match memo.cache.registrable(self.psl, &host) {
                    Some(reg) => (self.table.intern(reg), *reg != host),
                    None => (self.table.intern(&host), true),
                };
                EntryOutcome::Kept { id, deviates }
            }
        };
        // Only an outcome naming an id past the seal can go stale.
        let past_seal = match (outcome, memo.sealed) {
            (EntryOutcome::Kept { id, .. }, Some(len)) => id.index() >= len,
            _ => false,
        };
        let into = if past_seal {
            &mut memo.tail_memo
        } else {
            &mut memo.entry_memo
        };
        into.insert(raw.to_owned(), outcome);
        outcome
    }

    /// Groups `raw` by registrable domain into `rows`, keeping each id's
    /// smallest value, and sorts the rows. Returns `(raw_len, deviating)`.
    fn group<'r>(&mut self, raw: impl Iterator<Item = (&'r str, u32)>) -> (usize, usize) {
        self.memo.rows.clear();
        let mut raw_len = 0usize;
        let mut deviating = 0usize;
        for (name, value) in raw {
            raw_len += 1;
            let id = match self.entry_outcome(name) {
                EntryOutcome::Dropped => {
                    deviating += 1;
                    continue;
                }
                EntryOutcome::Kept { id, deviates } => {
                    deviating += usize::from(deviates);
                    id
                }
            };
            let NormalizerMemo { slot, rows, .. } = &mut self.memo;
            if slot.len() <= id.index() {
                slot.resize(self.table.len(), UNSEEN);
            }
            let slot = &mut slot[id.index()];
            if *slot == UNSEEN {
                *slot = rows.len() as u32;
                rows.push((id, value));
            } else {
                let best = &mut rows[*slot as usize].1;
                *best = (*best).min(value);
            }
        }
        let NormalizerMemo { slot, rows, .. } = &mut self.memo;
        for &(id, _) in rows.iter() {
            slot[id.index()] = UNSEEN;
        }
        // Ascending by value, ties broken by domain name. Names are unique
        // per id, so this is a total order and the result does not depend
        // on the grouping order. Ranks are unique within a ranked list, so
        // its groups' min ranks are too, and for ranked input the name
        // comparison never runs.
        let table = &self.table;
        rows.sort_unstable_by(|a, b| {
            a.1.cmp(&b.1)
                .then_with(|| table.name(a.0).cmp(table.name(b.0)))
        });
        (raw_len, deviating)
    }

    fn columns<'r>(
        &mut self,
        source: ListSource,
        ordered: bool,
        raw: impl Iterator<Item = (&'r str, u32)>,
    ) -> NormalizedColumns {
        let (raw_len, deviating) = self.group(raw);
        let rows = &self.memo.rows;
        NormalizedColumns {
            source,
            ids: rows.iter().map(|&(id, _)| id).collect(),
            values: rows.iter().map(|&(_, v)| v).collect(),
            ordered,
            raw_len,
            deviating,
        }
    }
}

/// Normalizes a ranked list (one-shot; see [`Normalizer`] for the shared,
/// memoizing form).
pub fn normalize_ranked(psl: &PublicSuffixList, list: &RankedList) -> NormalizedList {
    Normalizer::new(psl).ranked(list)
}

/// Normalizes a bucketed list (one-shot).
pub fn normalize_bucketed(psl: &PublicSuffixList, list: &BucketedList) -> NormalizedList {
    Normalizer::new(psl).bucketed(list)
}

/// Normalizes either format (one-shot).
pub fn normalize(psl: &PublicSuffixList, list: &TopList) -> NormalizedList {
    Normalizer::new(psl).normalize(list)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::BucketedEntry;

    fn psl() -> PublicSuffixList {
        PublicSuffixList::builtin()
    }

    fn ranked(names: &[&str]) -> RankedList {
        RankedList::from_sorted_names(
            ListSource::Umbrella,
            names.iter().map(|s| s.to_string()).collect(),
        )
    }

    #[test]
    fn groups_by_registrable_domain_with_min_rank() {
        let l = ranked(&[
            "cdn.example.com",
            "example.com",
            "www.example.com",
            "other.net",
        ]);
        let n = normalize_ranked(&psl(), &l);
        assert_eq!(n.len(), 2);
        assert_eq!(n.entries[0].0.as_str(), "example.com");
        assert_eq!(n.entries[0].1, 1); // min rank of the group
        assert_eq!(n.entries[1].0.as_str(), "other.net");
        assert_eq!(n.entries[1].1, 4);
    }

    #[test]
    fn deviation_counts_subdomains_and_suffixes() {
        // cdn.example.com deviates; example.com does not; `com` (a public
        // suffix) deviates; www.example.com deviates.
        let l = ranked(&["cdn.example.com", "example.com", "com", "www.example.com"]);
        let n = normalize_ranked(&psl(), &l);
        assert_eq!(n.raw_len, 4);
        assert_eq!(n.deviating, 3);
        assert!((n.deviation_percent() - 75.0).abs() < 1e-9);
    }

    #[test]
    fn origins_are_stripped_and_deviate() {
        let b = BucketedList {
            source: ListSource::Crux,
            entries: vec![
                BucketedEntry {
                    name: "https://example.com".into(),
                    bucket: 100,
                },
                BucketedEntry {
                    name: "https://www.example.com".into(),
                    bucket: 1000,
                },
                BucketedEntry {
                    name: "https://shop.other.co.uk".into(),
                    bucket: 1000,
                },
            ],
        };
        let n = normalize_bucketed(&psl(), &b);
        assert_eq!(n.len(), 2);
        assert_eq!(n.entries[0].0.as_str(), "example.com");
        assert_eq!(n.entries[0].1, 100); // min bucket
        assert_eq!(n.entries[1].0.as_str(), "other.co.uk");
        // Subdomain-host origins deviate; the apex-host origin does not.
        assert_eq!(n.deviating, 2);
    }

    #[test]
    fn domain_lists_deviate_little() {
        let l = RankedList::from_sorted_names(
            ListSource::Alexa,
            vec!["a.com".into(), "b.co.uk".into(), "c.de".into()],
        );
        let n = normalize_ranked(&psl(), &l);
        assert_eq!(n.deviating, 0);
        assert_eq!(n.deviation_percent(), 0.0);
    }

    #[test]
    fn unparseable_entries_drop_but_count() {
        let l = ranked(&["good.com", "bad name!.com"]);
        let n = normalize_ranked(&psl(), &l);
        assert_eq!(n.len(), 1);
        assert_eq!(n.raw_len, 2);
        assert_eq!(n.deviating, 1);
    }

    #[test]
    fn ids_column_is_parallel_and_table_consistent() {
        let psl = psl();
        let mut norm = Normalizer::new(&psl);
        let n = norm.ranked(&ranked(&["cdn.example.com", "other.net", "example.com"]));
        assert_eq!(n.ids.len(), n.entries.len());
        let table = norm.table();
        for (i, (domain, _)) in n.entries.iter().enumerate() {
            assert_eq!(table.name(n.ids[i]), domain);
            assert_eq!(table.id(domain.as_str()), Some(n.ids[i]));
        }
    }

    #[test]
    fn shared_normalizer_matches_one_shot_output() {
        let psl = psl();
        let lists = [
            ranked(&["cdn.example.com", "example.com", "com", "other.net"]),
            // `https://example.com` is a distinct raw spelling of an
            // already-seen host: it must hit the PSL memo, not re-walk.
            ranked(&[
                "example.com",
                "other.net",
                "https://example.com",
                "third.org",
            ]),
        ];
        let mut norm = Normalizer::new(&psl);
        for l in &lists {
            let shared = norm.ranked(l);
            let oneshot = normalize_ranked(&psl, l);
            assert_eq!(shared.entries, oneshot.entries);
            assert_eq!(shared.raw_len, oneshot.raw_len);
            assert_eq!(shared.deviating, oneshot.deviating);
        }
        // Repeated raw entries short-circuit in the entry memo and never
        // reach the PSL cache: 8 raw entries, but only 5 distinct hosts were
        // ever PSL-walked, and the origin respelling was a cache hit.
        assert_eq!(norm.cache().misses(), 5);
        assert_eq!(norm.cache().hits(), 1);
    }

    #[test]
    fn preseeded_table_keeps_seed_ids() {
        let psl = psl();
        let mut table = DomainTable::new();
        let seeded = table.intern(&"example.com".parse().expect("valid"));
        let mut norm = Normalizer::with_table(&psl, table);
        let n = norm.ranked(&ranked(&["www.example.com"]));
        assert_eq!(n.ids, vec![seeded]);
    }
}
