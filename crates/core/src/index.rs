//! The study's interned, columnar analysis index.
//!
//! Built once by [`Study::run`](crate::study::Study::run): every domain a
//! study can mention — the world's site names plus every normalized list
//! entry — is interned into a dense [`DomainId`] space (site `i` is id `i`
//! by construction), and each list becomes a [`ListColumns`]: its normalized
//! entries as an id column in value order. Because normalized entries are
//! value-sorted, *every* magnitude cut (top-1K/10K/100K/1M) is a prefix view
//! of that one column — ordered lists by length, bucketed lists by binary
//! search — so all magnitudes share a single materialization. The
//! Cloudflare-served subset at any magnitude is likewise a prefix of one
//! precomputed `cf_ids` column via a running prefix count.
//!
//! Downstream, comparisons run over sorted-id slices
//! (`topple_stats::sets::jaccard_sorted`, [`crate::compare::similarity_ids`])
//! instead of hashing domain strings per call.

use topple_lists::{DomainId, DomainTable, ListSource, NormalizedList};
use topple_psl::DomainName;
use topple_sim::{SiteId, World};
use topple_vantage::CfScores;

/// One normalized list as dense-id columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListColumns {
    /// Entry ids in normalized (value-ascending) order — rank order for
    /// ordered lists.
    pub ids: Vec<DomainId>,
    /// The entry values (min rank, or min bucket), parallel to `ids`.
    pub values: Vec<u32>,
    /// Whether `values` are individual ranks (true) or bucket sizes (false).
    pub ordered: bool,
    /// Ids of Cloudflare-served entries, in list order.
    cf_ids: Vec<DomainId>,
    /// `cf_prefix[i]` = number of Cloudflare-served entries among the first
    /// `i` entries (length `ids.len() + 1`), so the CF subset of any top-k
    /// cut is the prefix `cf_ids[..cf_prefix[top_len(k)]]`.
    cf_prefix: Vec<u32>,
}

impl Default for ListColumns {
    /// An empty ordered list. `cf_prefix` still carries its leading 0 so the
    /// prefix-view invariant (`len() + 1` entries) holds for the empty case.
    fn default() -> Self {
        ListColumns {
            ids: Vec::new(),
            values: Vec::new(),
            ordered: true,
            cf_ids: Vec::new(),
            cf_prefix: vec![0],
        }
    }
}

impl ListColumns {
    /// Extracts the id columns from a normalized list, marking the
    /// Cloudflare-served entries via `is_cf`.
    pub fn from_normalized(list: &NormalizedList, is_cf: impl Fn(DomainId) -> bool) -> Self {
        let values = list.entries.iter().map(|&(_, v)| v).collect();
        ListColumns::new(list.ids.clone(), values, list.ordered, is_cf)
    }

    /// Wraps an id column and its parallel value column (value-ascending,
    /// as a [`Normalizer`](topple_lists::Normalizer) emits them), marking
    /// the Cloudflare-served entries via `is_cf`.
    pub fn new(
        ids: Vec<DomainId>,
        values: Vec<u32>,
        ordered: bool,
        is_cf: impl Fn(DomainId) -> bool,
    ) -> Self {
        debug_assert_eq!(ids.len(), values.len());
        let mut cf_ids = Vec::new();
        let mut cf_prefix = Vec::with_capacity(ids.len() + 1);
        cf_prefix.push(0);
        for &id in &ids {
            if is_cf(id) {
                cf_ids.push(id);
            }
            cf_prefix.push(cf_ids.len() as u32);
        }
        ListColumns {
            ids,
            values,
            ordered,
            cf_ids,
            cf_prefix,
        }
    }

    /// Length of the top-`k` prefix: `k` entries for ordered lists,
    /// everything with bucket ≤ `k` for bucketed ones (a prefix because
    /// entries are value-sorted).
    pub fn top_len(&self, k: usize) -> usize {
        if self.ordered {
            k.min(self.ids.len())
        } else {
            self.values.partition_point(|&b| b as usize <= k)
        }
    }

    /// The top-`k` cut as an id slice (list order, best first).
    pub fn top_ids(&self, k: usize) -> &[DomainId] {
        &self.ids[..self.top_len(k)]
    }

    /// The Cloudflare-served subset of the top-`k` cut, in list order — the
    /// paper's cf_ray-probe filter, as a prefix view (no per-call filtering).
    pub fn cf_subset_ids(&self, k: usize) -> &[DomainId] {
        let cut = self.top_len(k);
        &self.cf_ids[..self.cf_prefix[cut] as usize]
    }

    /// Number of normalized entries.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the list has no entries.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The full Cloudflare-served id column, in list order (snapshot export).
    pub fn cf_ids(&self) -> &[DomainId] {
        &self.cf_ids
    }

    /// The running Cloudflare prefix counts, length `len() + 1` (snapshot
    /// export).
    pub fn cf_prefix(&self) -> &[u32] {
        &self.cf_prefix
    }

    /// Reassembles columns from their raw parts (snapshot import), checking
    /// every structural invariant the prefix-view accessors rely on; a
    /// corrupted or hand-built input fails closed instead of producing
    /// out-of-bounds cuts later. `is_cf` holds the table's CDN-served flags
    /// (`is_cf[id]`): the Cloudflare columns must be exactly the list's
    /// flagged ids in list order, which one walk over the list checks.
    pub fn from_raw_parts(
        ids: Vec<DomainId>,
        values: Vec<u32>,
        ordered: bool,
        cf_ids: Vec<DomainId>,
        cf_prefix: Vec<u32>,
        is_cf: &[bool],
    ) -> Result<Self, &'static str> {
        if values.len() != ids.len() {
            return Err("values column length differs from ids column");
        }
        if cf_prefix.len() != ids.len() + 1 {
            return Err("cf_prefix length must be ids length + 1");
        }
        if cf_prefix.first() != Some(&0) {
            return Err("cf_prefix must start at 0");
        }
        if cf_prefix.last().copied().unwrap_or(0) as usize != cf_ids.len() {
            return Err("cf_prefix total differs from cf_ids length");
        }
        for (i, &id) in ids.iter().enumerate() {
            let Some(&flagged) = is_cf.get(id.index()) else {
                return Err("id column points past the cloudflare flags");
            };
            let (at, next) = (cf_prefix[i], cf_prefix[i + 1]);
            if next != at + u32::from(flagged) {
                return Err("cf_prefix steps where the cloudflare flags do not");
            }
            if flagged && cf_ids.get(at as usize) != Some(&id) {
                return Err("cf_ids entry is not the list's own id at its step");
            }
        }
        if values.windows(2).any(|w| w[1] < w[0]) {
            return Err("values column must be sorted ascending");
        }
        Ok(ListColumns {
            ids,
            values,
            ordered,
            cf_ids,
            cf_prefix,
        })
    }
}

/// Per-source monthly columns, one field per source so lookup is infallible
/// by construction (mirrors `study::NormalizedSet`).
#[derive(Debug, Clone)]
pub(crate) struct ColumnsSet {
    pub alexa: ListColumns,
    pub umbrella: ListColumns,
    pub majestic: ListColumns,
    pub secrank: ListColumns,
    pub tranco: ListColumns,
    pub trexa: ListColumns,
    pub crux: ListColumns,
}

impl ColumnsSet {
    fn get(&self, source: ListSource) -> &ListColumns {
        match source {
            ListSource::Alexa => &self.alexa,
            ListSource::Umbrella => &self.umbrella,
            ListSource::Majestic => &self.majestic,
            ListSource::Secrank => &self.secrank,
            ListSource::Tranco => &self.tranco,
            ListSource::Trexa => &self.trexa,
            ListSource::Crux => &self.crux,
        }
    }
}

/// The study-wide interning index: domain table, site↔id mapping, CDN-served
/// flags, and every list (monthly and daily) in columnar form.
#[derive(Debug)]
pub struct StudyIndex {
    table: DomainTable,
    /// `site_ids[site.index()]` is the site's domain id. Sites are interned
    /// first, so this is the identity mapping (`site i ⇒ id i`) — kept
    /// explicit so nothing downstream has to rely on the invariant.
    site_ids: Vec<DomainId>,
    /// `is_cf[id.index()]`: is the domain served by the Cloudflare-style CDN
    /// (`World::is_cloudflare`, precomputed per id).
    is_cf: Vec<bool>,
    monthly: ColumnsSet,
    alexa_daily: Vec<ListColumns>,
    umbrella_daily: Vec<ListColumns>,
}

impl StudyIndex {
    pub(crate) fn new(
        table: DomainTable,
        site_ids: Vec<DomainId>,
        is_cf: Vec<bool>,
        monthly: ColumnsSet,
        alexa_daily: Vec<ListColumns>,
        umbrella_daily: Vec<ListColumns>,
    ) -> Self {
        debug_assert_eq!(table.len(), is_cf.len());
        StudyIndex {
            table,
            site_ids,
            is_cf,
            monthly,
            alexa_daily,
            umbrella_daily,
        }
    }

    /// Takes the index apart into what a resident study prefix keeps: the
    /// table, the site ids, the CDN-served flags and the Umbrella daily
    /// columns (`study::Interning`). The monthly and Alexa columns are
    /// dropped; the next assemble re-derives them.
    pub(crate) fn into_resident(self) -> (DomainTable, Vec<DomainId>, Vec<bool>, Vec<ListColumns>) {
        (self.table, self.site_ids, self.is_cf, self.umbrella_daily)
    }

    /// Reassembles an index from snapshot-loaded columns. `monthly` is
    /// consulted once per [`ListSource`]; daily snapshots exist only for the
    /// two providers that publish them (everything else serves its monthly
    /// columns from [`Self::daily`]).
    pub fn from_columns(
        table: DomainTable,
        site_ids: Vec<DomainId>,
        is_cf: Vec<bool>,
        mut monthly: impl FnMut(ListSource) -> ListColumns,
        alexa_daily: Vec<ListColumns>,
        umbrella_daily: Vec<ListColumns>,
    ) -> Self {
        let monthly = ColumnsSet {
            alexa: monthly(ListSource::Alexa),
            umbrella: monthly(ListSource::Umbrella),
            majestic: monthly(ListSource::Majestic),
            secrank: monthly(ListSource::Secrank),
            tranco: monthly(ListSource::Tranco),
            trexa: monthly(ListSource::Trexa),
            crux: monthly(ListSource::Crux),
        };
        StudyIndex::new(table, site_ids, is_cf, monthly, alexa_daily, umbrella_daily)
    }

    /// The study's domain table (id ↔ name).
    pub fn table(&self) -> &DomainTable {
        &self.table
    }

    /// The site → domain-id column (snapshot export).
    pub fn site_ids(&self) -> &[DomainId] {
        &self.site_ids
    }

    /// The per-id Cloudflare-served flags, dense over the table (snapshot
    /// export).
    pub fn cf_flags(&self) -> &[bool] {
        &self.is_cf
    }

    /// Daily Alexa columns, one per study day (snapshot export).
    pub fn alexa_daily(&self) -> &[ListColumns] {
        &self.alexa_daily
    }

    /// Daily Umbrella columns, one per study day (snapshot export).
    pub fn umbrella_daily(&self) -> &[ListColumns] {
        &self.umbrella_daily
    }

    /// The interned id of a site's domain.
    pub fn site_id(&self, site: SiteId) -> DomainId {
        self.site_ids[site.index()]
    }

    /// Whether the domain behind `id` is Cloudflare-served.
    pub fn is_cf(&self, id: DomainId) -> bool {
        self.is_cf[id.index()]
    }

    /// The month-representative columns of a source.
    pub fn monthly(&self, source: ListSource) -> &ListColumns {
        self.monthly.get(source)
    }

    /// The day-`day` columns of a source: the daily snapshot for providers
    /// that publish daily (Alexa, Umbrella), the static month list for the
    /// rest — normalized once at study construction, never re-derived in
    /// analysis loops.
    pub fn daily(&self, source: ListSource, day: usize) -> &ListColumns {
        match source {
            ListSource::Alexa => &self.alexa_daily[day],
            ListSource::Umbrella => &self.umbrella_daily[day],
            _ => self.monthly.get(source),
        }
    }

    /// Columns for a list that never entered the study's table: a
    /// counterfactual rebuild (raw published names, another Tranco window,
    /// another CrUX threshold) or an external file. `entries` are
    /// `(name, value)` pairs in value-ascending list order with unique names,
    /// as every list's are.
    ///
    /// A name the table knows keeps its study id and CDN flag. Any other
    /// name gets the next tail id from `table().len()` up and the `cf_ray`
    /// zone probe: strip a URL scheme, take the registrable domain (or the
    /// name itself when it has none), and ask [`World::is_cloudflare`]. A
    /// tail id names no site, so it never matches a CDN ranking, just as the
    /// name matches no site domain. The columns are for scoring only
    /// ([`crate::against_cloudflare_ids`]); their tail ids mean nothing to
    /// the table.
    pub fn columns_for<'a>(
        &self,
        world: &World,
        entries: impl IntoIterator<Item = (&'a str, u32)>,
        ordered: bool,
    ) -> ListColumns {
        let known = self.table.len();
        let mut values = Vec::new();
        let mut tail_cf = Vec::new();
        let ids = entries
            .into_iter()
            .map(|(name, value)| {
                values.push(value);
                self.table.id(name).unwrap_or_else(|| {
                    let host = name.split_once("://").map_or(name, |(_, rest)| rest);
                    tail_cf.push(host.parse::<DomainName>().is_ok_and(|d| {
                        world.is_cloudflare(&world.psl.registrable_domain(&d).unwrap_or(d))
                    }));
                    DomainId::from_raw((known + tail_cf.len() - 1) as u32)
                })
            })
            .collect();
        ListColumns::new(ids, values, ordered, |id| {
            match id.index().checked_sub(known) {
                Some(tail) => tail_cf[tail],
                None => self.is_cf[id.index()],
            }
        })
    }

    /// Ranked Cloudflare domain ids for a CDN metric's scores (best first),
    /// in [`CfScores::ranked`] order.
    pub fn cf_ranked_ids(&self, scores: &CfScores<'_>) -> Vec<DomainId> {
        scores
            .ranked()
            .into_iter()
            .map(|site| self.site_id(site))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topple_lists::Normalizer;
    use topple_psl::PublicSuffixList;

    fn columns(names: &[&str], cf: &[bool]) -> (ListColumns, Vec<DomainId>) {
        let psl = PublicSuffixList::builtin();
        let mut norm = Normalizer::new(&psl);
        let list = topple_lists::RankedList::from_sorted_names(
            ListSource::Tranco,
            names.iter().map(|s| s.to_string()).collect(),
        );
        let nl = norm.ranked(&list);
        let ids = nl.ids.clone();
        let cols = ListColumns::from_normalized(&nl, |id| cf[id.index()]);
        (cols, ids)
    }

    #[test]
    fn cuts_are_prefix_views() {
        let (cols, ids) = columns(
            &["a.com", "b.com", "c.com", "d.com"],
            &[true, false, true, true],
        );
        assert_eq!(cols.top_ids(2), &ids[..2]);
        assert_eq!(cols.top_ids(100), &ids[..]);
        // CF subset of the top-2 keeps list order and only CF-served ids.
        let sub = cols.cf_subset_ids(2);
        let expect: Vec<DomainId> = ids
            .iter()
            .take(2)
            .copied()
            .filter(|id| [true, false, true, true][id.index()])
            .collect();
        assert_eq!(sub, &expect[..]);
        // Full cut: 3 of 4 entries are CF.
        assert_eq!(cols.cf_subset_ids(4).len(), 3);
    }

    #[test]
    fn bucketed_top_len_by_partition_point() {
        let psl = PublicSuffixList::builtin();
        let mut norm = Normalizer::new(&psl);
        let list = topple_lists::BucketedList {
            source: ListSource::Crux,
            entries: vec![
                topple_lists::BucketedEntry {
                    name: "a.com".into(),
                    bucket: 10,
                },
                topple_lists::BucketedEntry {
                    name: "b.com".into(),
                    bucket: 100,
                },
                topple_lists::BucketedEntry {
                    name: "c.com".into(),
                    bucket: 100,
                },
            ],
        };
        let nl = norm.bucketed(&list);
        let cols = ListColumns::from_normalized(&nl, |_| true);
        assert_eq!(cols.top_len(10), 1);
        assert_eq!(cols.top_len(99), 1);
        assert_eq!(cols.top_len(100), 3);
        assert!(!cols.ordered);
    }
}
