//! Property-based tests for the list data model, normalization, and the
//! aggregation algorithms.
//!
//! The equivalence properties check the dense-id grouping and the slot-keyed
//! Tranco accumulator against the map-keyed implementations they replaced,
//! kept here as test-local references.

use std::collections::BTreeMap;

use proptest::prelude::*;
use topple_lists::{
    normalize_ranked, tranco, trexa, BucketedEntry, BucketedList, DomainId, DomainTable,
    ListSource, NormalizedList, Normalizer, RankedList,
};
use topple_psl::{DomainName, PublicSuffixList};

/// Strategy: a ranked list of unique plausible names (domains + FQDNs).
fn name_list() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::btree_set(
        "[a-z]{1,6}(\\.[a-z]{1,6}){0,2}\\.(com|net|org|co\\.uk)",
        1..40,
    )
    .prop_map(|set| set.into_iter().collect())
}

/// Strategy: raw list entries as published, drawn from a small name pool so
/// registrable domains repeat: FQDNs under a shared apex and origins with a
/// scheme and a port (three draws in four), and bare public suffixes, raw
/// IPs and unparseable names (one in four). Duplicate raw entries are
/// allowed.
fn raw_entries() -> impl Strategy<Value = Vec<String>> {
    macro_rules! named {
        () => {
            "(https?://)?((www|cdn|a\\.b)\\.)?[a-c]{1,2}\\.(com|co\\.uk|github\\.io)(:8443)?"
        };
    }
    const ENTRY: &str = concat!(
        "(",
        named!(),
        ")|(",
        named!(),
        ")|(",
        named!(),
        ")|(com|co\\.uk|github\\.io|10\\.0\\.[0-9]\\.[0-9]|2001:db8::[0-9]|bad name!\\.com)"
    );
    proptest::collection::vec(ENTRY, 0..30)
}

/// Strategy: one bucket per entry, few distinct values so buckets tie.
fn buckets() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec((0u32..3).prop_map(|i| 10u32.pow(i + 1)), 0..30)
}

/// The host of a raw entry, exactly as the normalizer extracts it.
fn reference_host(raw: &str) -> Option<DomainName> {
    match raw.split_once("://") {
        Some((_, rest)) => DomainName::new(rest.split(['/', ':']).next().unwrap_or(rest)).ok(),
        None => DomainName::new(raw).ok(),
    }
}

/// Reference normalization: the id-keyed `BTreeMap` grouping the normalizer
/// used before its dense slot column, with the PSL walk done afresh per
/// entry. Interns each kept entry's key into `table` in input order, as the
/// normalizer does on first sight of a raw entry.
fn reference_normalize(
    psl: &PublicSuffixList,
    table: &mut DomainTable,
    raw: &[(&str, u32)],
) -> (Vec<(DomainName, u32)>, Vec<DomainId>, usize, usize) {
    let mut best: BTreeMap<DomainId, u32> = BTreeMap::new();
    let mut deviating = 0usize;
    for &(name, value) in raw {
        let Some(host) = reference_host(name) else {
            deviating += 1;
            continue;
        };
        let (key, deviates) = match psl.registrable_domain(&host) {
            Some(reg) => {
                let deviates = reg != host;
                (reg, deviates)
            }
            None => (host, true),
        };
        deviating += usize::from(deviates);
        let id = table.intern(&key);
        best.entry(id)
            .and_modify(|v| *v = (*v).min(value))
            .or_insert(value);
    }
    let mut rows: Vec<(DomainId, u32)> = best.into_iter().collect();
    rows.sort_by(|a, b| {
        a.1.cmp(&b.1)
            .then_with(|| table.name(a.0).cmp(table.name(b.0)))
    });
    let ids = rows.iter().map(|&(id, _)| id).collect();
    let entries = rows
        .into_iter()
        .map(|(id, v)| (table.name(id).clone(), v))
        .collect();
    (entries, ids, raw.len(), deviating)
}

/// Checks one normalized list against the reference run on the same input.
fn assert_matches_reference(
    got: &NormalizedList,
    want: (Vec<(DomainName, u32)>, Vec<DomainId>, usize, usize),
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&got.entries, &want.0);
    prop_assert_eq!(&got.ids, &want.1);
    prop_assert_eq!(got.raw_len, want.2);
    prop_assert_eq!(got.deviating, want.3);
    Ok(())
}

/// Reference Tranco: the string-keyed `BTreeMap` Dowdall sum it replaced.
fn reference_tranco(inputs: &[&RankedList], max_len: usize) -> RankedList {
    let mut scores: BTreeMap<&str, f64> = BTreeMap::new();
    for list in inputs {
        for e in &list.entries {
            *scores.entry(e.name.as_str()).or_default() += 1.0 / f64::from(e.rank);
        }
    }
    let mut scored: Vec<(&str, f64)> = scores.into_iter().collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    scored.truncate(max_len);
    RankedList::from_sorted_names(
        ListSource::Tranco,
        scored.into_iter().map(|(n, _)| n.to_owned()).collect(),
    )
}

/// Strategy: a short ranked list over a three-name pool in any order, so
/// the same names recur across lists at swapped ranks and Dowdall scores tie
/// (`a` at 1 and 2, `b` at 2 and 1).
fn tie_list() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-c]\\.com", 1..4).prop_map(|mut names| {
        let mut seen = Vec::new();
        names.retain(|n| {
            let first = !seen.contains(n);
            seen.push(n.clone());
            first
        });
        names
    })
}

proptest! {
    #[test]
    fn csv_roundtrip(names in name_list()) {
        let l = RankedList::from_sorted_names(ListSource::Alexa, names);
        let back = RankedList::from_csv(ListSource::Alexa, &l.to_csv()).unwrap();
        prop_assert_eq!(back, l);
    }

    #[test]
    fn normalization_is_idempotent(names in name_list()) {
        let psl = PublicSuffixList::builtin();
        let l = RankedList::from_sorted_names(ListSource::Umbrella, names);
        let once = normalize_ranked(&psl, &l);
        let twice = normalize_ranked(&psl, &once.to_ranked_list());
        // Re-normalizing a normalized list changes nothing and deviates 0%.
        prop_assert_eq!(once.len(), twice.len());
        prop_assert_eq!(twice.deviation_percent(), 0.0);
        let a: Vec<&str> = once.entries.iter().map(|(d, _)| d.as_str()).collect();
        let b: Vec<&str> = twice.entries.iter().map(|(d, _)| d.as_str()).collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn normalization_never_grows(names in name_list()) {
        let psl = PublicSuffixList::builtin();
        let l = RankedList::from_sorted_names(ListSource::Umbrella, names);
        let n = normalize_ranked(&psl, &l);
        prop_assert!(n.len() <= l.len());
        prop_assert!(n.deviating <= n.raw_len);
        // Normalized values are sorted ascending.
        for w in n.entries.windows(2) {
            prop_assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn tranco_contains_exactly_the_union(a in name_list(), b in name_list()) {
        let la = RankedList::from_sorted_names(ListSource::Alexa, a.clone());
        let lb = RankedList::from_sorted_names(ListSource::Majestic, b.clone());
        let t = tranco::build(&[&la, &lb], usize::MAX);
        let union: std::collections::HashSet<&str> =
            a.iter().chain(b.iter()).map(String::as_str).collect();
        prop_assert_eq!(t.len(), union.len());
        for e in &t.entries {
            prop_assert!(union.contains(e.name.as_str()));
        }
        // Rank-1 everywhere dominates: the name ranked first in both lists
        // (if shared) must come first.
        if a.first() == b.first() {
            prop_assert_eq!(t.entries[0].name.as_str(), a[0].as_str());
        }
    }

    #[test]
    fn tranco_is_input_order_invariant(a in name_list(), b in name_list()) {
        let la = RankedList::from_sorted_names(ListSource::Alexa, a);
        let lb = RankedList::from_sorted_names(ListSource::Majestic, b);
        let t1 = tranco::build(&[&la, &lb], usize::MAX);
        let t2 = tranco::build(&[&lb, &la], usize::MAX);
        prop_assert_eq!(t1.entries, t2.entries);
    }

    #[test]
    fn trexa_has_no_duplicates_and_covers_both(a in name_list(), b in name_list()) {
        let alexa = RankedList::from_sorted_names(ListSource::Alexa, a.clone());
        let tr = RankedList::from_sorted_names(ListSource::Tranco, b.clone());
        let t = trexa::build(&tr, &alexa, 2, usize::MAX);
        let names: Vec<&str> = t.entries.iter().map(|e| e.name.as_str()).collect();
        let set: std::collections::HashSet<&str> = names.iter().copied().collect();
        prop_assert_eq!(set.len(), names.len(), "duplicates in Trexa output");
        let union: std::collections::HashSet<&str> =
            a.iter().chain(b.iter()).map(String::as_str).collect();
        prop_assert_eq!(set.len(), union.len(), "Trexa must cover the union");
    }

    #[test]
    fn dense_grouping_matches_the_map_reference(
        lists in proptest::collection::vec(raw_entries(), 1..4),
        crux_names in raw_entries(),
        crux_buckets in buckets(),
    ) {
        // Several lists through one normalizer interleave their interning;
        // the reference interns into its own table in the same order, so
        // ids must agree too.
        let psl = PublicSuffixList::builtin();
        let mut norm = Normalizer::new(&psl);
        let mut table = DomainTable::new();
        for names in &lists {
            let list = RankedList::from_sorted_names(ListSource::Umbrella, names.clone());
            let raw: Vec<(&str, u32)> =
                list.entries.iter().map(|e| (e.name.as_str(), e.rank)).collect();
            let want = reference_normalize(&psl, &mut table, &raw);
            let got = norm.ranked(&list);
            assert_matches_reference(&got, want)?;
            // The column form carries the same ids and values.
            let cols = norm.ranked_columns(&list);
            prop_assert_eq!(&cols.ids, &got.ids);
            let values: Vec<u32> = got.entries.iter().map(|&(_, v)| v).collect();
            prop_assert_eq!(cols.values, values);
        }
        let crux = BucketedList {
            source: ListSource::Crux,
            entries: crux_names
                .iter()
                .zip(&crux_buckets)
                .map(|(name, &bucket)| BucketedEntry { name: name.clone(), bucket })
                .collect(),
        };
        let raw: Vec<(&str, u32)> =
            crux.entries.iter().map(|e| (e.name.as_str(), e.bucket)).collect();
        let want = reference_normalize(&psl, &mut table, &raw);
        assert_matches_reference(&norm.bucketed(&crux), want)?;
        prop_assert_eq!(norm.table().names(), table.names());
    }

    #[test]
    fn tranco_matches_the_map_reference(lists in proptest::collection::vec(tie_list(), 0..5)) {
        let lists: Vec<RankedList> = lists
            .into_iter()
            .map(|names| RankedList::from_sorted_names(ListSource::Alexa, names))
            .collect();
        let inputs: Vec<&RankedList> = lists.iter().collect();
        for max_len in [1, 2, usize::MAX] {
            prop_assert_eq!(tranco::build(&inputs, max_len), reference_tranco(&inputs, max_len));
        }
    }

    #[test]
    fn tranco_over_table_names_matches_re_materialized_lists(
        alexa in name_list(),
        umbrella in raw_entries(),
    ) {
        // The study feeds Umbrella's normalized dailies to Tranco as names
        // read off the domain table; the reference re-materializes them as
        // ranked lists first.
        let psl = PublicSuffixList::builtin();
        let mut norm = Normalizer::new(&psl);
        let alexa = RankedList::from_sorted_names(ListSource::Alexa, alexa);
        let umbrella = RankedList::from_sorted_names(ListSource::Umbrella, umbrella);
        let cols = norm.ranked_columns(&umbrella);
        let mut dowdall = tranco::Dowdall::new();
        dowdall.add_list(&alexa);
        dowdall.add_sorted_names(cols.ids.iter().map(|&id| norm.table().name(id).as_str()));
        let got = dowdall.finish(usize::MAX);
        let rematerialized = normalize_ranked(&psl, &umbrella).to_ranked_list();
        prop_assert_eq!(got, reference_tranco(&[&alexa, &rematerialized], usize::MAX));
    }

    #[test]
    fn rewound_normalizer_issues_the_ids_of_a_fresh_one(
        stable in proptest::collection::vec(raw_entries(), 1..4),
        tail in proptest::collection::vec(raw_entries(), 1..3),
        added in proptest::collection::vec(raw_entries(), 1..3),
        release in any::<bool>(),
    ) {
        // The live study's assemble: a stable region of lists that only
        // grows at its end, then tail lists re-normalized behind it. A
        // resident normalizer that rewinds to the seal and normalizes only
        // the added stable lists must give every list the columns, and the
        // table the names, of a fresh normalizer over the whole sequence,
        // whether or not its memo was released in between.
        let psl = PublicSuffixList::builtin();
        let ranked = |names: &Vec<String>| {
            RankedList::from_sorted_names(ListSource::Umbrella, names.clone())
        };
        let stable: Vec<RankedList> = stable.iter().chain(&added).map(ranked).collect();
        let tail: Vec<RankedList> = tail.iter().map(ranked).collect();
        let first = stable.len() - added.len();

        let mut resident = Normalizer::new(&psl);
        for l in &stable[..first] {
            resident.ranked_columns(l);
        }
        resident.seal();
        for l in &tail {
            resident.ranked_columns(l);
        }
        let (table, mut memo) = resident.into_parts();
        if release {
            // A released memo keeps only the seal: same ids, all misses.
            memo.release();
        }
        let mut resident = Normalizer::resume(&psl, table, memo);
        resident.rewind();
        let added_cols: Vec<_> = stable[first..].iter().map(|l| resident.ranked_columns(l)).collect();
        resident.seal();
        let tail_cols: Vec<_> = tail.iter().map(|l| resident.ranked_columns(l)).collect();

        let mut fresh = Normalizer::new(&psl);
        let want_stable: Vec<_> = stable.iter().map(|l| fresh.ranked_columns(l)).collect();
        let want_tail: Vec<_> = tail.iter().map(|l| fresh.ranked_columns(l)).collect();
        prop_assert_eq!(&added_cols[..], &want_stable[first..]);
        prop_assert_eq!(tail_cols, want_tail);
        prop_assert_eq!(resident.table().names(), fresh.table().names());
    }
}
