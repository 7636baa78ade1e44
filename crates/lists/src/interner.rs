//! Domain interning: dense integer IDs for a study's domain universe.
//!
//! The analysis stage (`topple-core`) compares the same few hundred thousand
//! registrable domains against each other thousands of times — 7 lists × 7+
//! CDN metrics × 4 magnitudes × 28 days, plus the 21-metric intra-CDN matrix.
//! Hashing domain *strings* per comparison dominates that grid. A
//! [`DomainTable`] maps every domain seen by a study (world site names plus
//! every normalized list entry) to a dense [`DomainId`] exactly once;
//! downstream set algebra then runs over sorted `u32` slices
//! (`topple_stats::sets::jaccard_sorted`) with no hashing and no per-call
//! allocation.
//!
//! IDs are assigned in insertion order, so a table built by a deterministic
//! construction order is itself deterministic; nothing in this module iterates
//! a hash map.

use std::collections::HashMap;

use topple_psl::DomainName;

/// Dense identifier of a domain within one study's [`DomainTable`].
///
/// IDs are only meaningful relative to the table that issued them; they are
/// assigned contiguously from 0 in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainId(u32);

impl DomainId {
    /// The raw dense index as `u32` (for columnar storage and merge-walks).
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Reconstructs an id from a raw dense index — the snapshot-import
    /// inverse of [`Self::raw`]. The caller is responsible for the value
    /// having been issued by (and bounds-checked against) the table it will
    /// be used with.
    pub fn from_raw(raw: u32) -> DomainId {
        DomainId(raw)
    }

    /// The raw dense index as `usize` (for indexing id-keyed columns).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Bidirectional domain ↔ [`DomainId`] table ("interner").
///
/// Built once per study; the id → name direction is a dense `Vec`, the
/// name → id direction a hash map that is only ever probed, never iterated.
#[derive(Debug, Clone, Default)]
pub struct DomainTable {
    names: Vec<DomainName>,
    index: HashMap<DomainName, DomainId>,
}

impl DomainTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table sized for roughly `capacity` domains.
    pub fn with_capacity(capacity: usize) -> Self {
        DomainTable {
            names: Vec::with_capacity(capacity),
            index: HashMap::with_capacity(capacity),
        }
    }

    /// Rebuilds a table from an id-ordered name column (index `i` becomes id
    /// `i`), re-deriving the name → id map — the snapshot-load inverse of
    /// [`Self::names`]. Duplicate names keep their first id, matching what
    /// `intern` would have produced.
    pub fn from_names(names: Vec<DomainName>) -> Self {
        let mut index = HashMap::with_capacity(names.len());
        for (i, name) in names.iter().enumerate() {
            index.entry(name.clone()).or_insert(DomainId(i as u32));
        }
        DomainTable { names, index }
    }

    /// Returns the id for `name`, interning it if unseen.
    pub fn intern(&mut self, name: &DomainName) -> DomainId {
        if let Some(&id) = self.index.get(name.as_str()) {
            return id;
        }
        debug_assert!(
            self.names.len() < u32::MAX as usize,
            "domain universe overflow"
        );
        let id = DomainId(self.names.len() as u32);
        self.names.push(name.clone());
        self.index.insert(name.clone(), id);
        id
    }

    /// Looks up the id of an already-interned domain.
    pub fn id(&self, name: &str) -> Option<DomainId> {
        self.index.get(name).copied()
    }

    /// The domain a given id was issued for.
    ///
    /// Panics (via slice indexing) when handed an id from a different table;
    /// ids never outlive their table in this codebase.
    pub fn name(&self, id: DomainId) -> &DomainName {
        &self.names[id.index()]
    }

    /// Number of interned domains (also the exclusive upper bound on raw ids).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All interned names in id order (index `i` holds the name of id `i`).
    pub fn names(&self) -> &[DomainName] {
        &self.names
    }

    /// Forgets every id from `len` on, so the next new name is issued id
    /// `len` again. Costs O(names removed): each dropped name leaves the
    /// name → id map by one probe. A no-op when `len >= self.len()`.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.names.len() {
            return;
        }
        for name in self.names.drain(len..) {
            // A name repeated by `from_names` maps to its first id, which
            // may sit below the cut and must stay.
            if self
                .index
                .get(name.as_str())
                .is_some_and(|id| id.index() >= len)
            {
                self.index.remove(name.as_str());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DomainName {
        s.parse().expect("valid domain")
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let mut t = DomainTable::new();
        let a = t.intern(&name("a.com"));
        let b = t.intern(&name("b.com"));
        assert_eq!(a.raw(), 0);
        assert_eq!(b.raw(), 1);
        // Re-interning returns the original id.
        assert_eq!(t.intern(&name("a.com")), a);
        assert_eq!(t.len(), 2);
        assert_eq!(t.name(a).as_str(), "a.com");
        assert_eq!(t.id("b.com"), Some(b));
        assert_eq!(t.id("missing.com"), None);
    }

    #[test]
    fn from_names_inverts_names() {
        let mut t = DomainTable::new();
        for s in ["z.com", "m.com", "a.com"] {
            t.intern(&name(s));
        }
        let rebuilt = DomainTable::from_names(t.names().to_vec());
        assert_eq!(rebuilt.len(), t.len());
        for (i, n) in t.names().iter().enumerate() {
            assert_eq!(rebuilt.id(n.as_str()).map(|id| id.index()), Some(i));
        }
    }

    #[test]
    fn truncate_reissues_the_cut_ids() {
        let mut t = DomainTable::new();
        for s in ["a.com", "b.com", "c.com"] {
            t.intern(&name(s));
        }
        t.truncate(1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.id("b.com"), None);
        assert_eq!(t.id("c.com"), None);
        // The next name takes the first cut id, exactly as in a table
        // that never held the cut names.
        assert_eq!(t.intern(&name("c.com")).raw(), 1);
        assert_eq!(t.id("a.com").map(|id| id.raw()), Some(0));
        t.truncate(5);
        assert_eq!(t.len(), 2);
        // A repeated name keeps its surviving first id.
        let mut dup = DomainTable::from_names(vec![name("a.com"), name("a.com")]);
        dup.truncate(1);
        assert_eq!(dup.id("a.com").map(|id| id.raw()), Some(0));
    }

    #[test]
    fn insertion_order_is_the_id_order() {
        let mut t = DomainTable::new();
        for s in ["z.com", "m.com", "a.com"] {
            t.intern(&name(s));
        }
        let order: Vec<&str> = t.names().iter().map(|d| d.as_str()).collect();
        assert_eq!(order, vec!["z.com", "m.com", "a.com"]);
    }
}
