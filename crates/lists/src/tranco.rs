//! The Tranco aggregation (Le Pochat et al., NDSS 2019 \[18\]).
//!
//! Tranco combines daily Alexa, Umbrella, and Majestic snapshots over a
//! 30-day window with the **Dowdall rule**: every appearance of a name at
//! rank *r* contributes `1/r`, and names are re-ranked by total score. The
//! aggregation smooths daily churn and raises manipulation cost, but — as the
//! paper shows — it inherits and averages its inputs' biases rather than
//! fixing them.

use std::collections::HashMap;

use crate::model::{ListSource, RankedList};

/// Dowdall accumulator: one score per distinct name, summed in the order the
/// terms arrive.
///
/// Scores live in a dense `(name, score)` column indexed by a name's
/// first-seen slot; the name → slot map is only ever probed, never
/// iterated, so the output order comes from the final sort alone (score
/// descending, name ascending). Every name's terms are added in input
/// order, so its float sum does not depend on how other names are stored.
#[derive(Debug, Default)]
pub struct Dowdall<'a> {
    slot: HashMap<&'a str, usize>,
    scores: Vec<(&'a str, f64)>,
}

impl<'a> Dowdall<'a> {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the term `1/rank` to `name`'s score.
    fn add(&mut self, name: &'a str, rank: u32) {
        let Dowdall { slot, scores } = self;
        let at = *slot.entry(name).or_insert_with(|| {
            scores.push((name, 0.0));
            scores.len() - 1
        });
        scores[at].1 += 1.0 / f64::from(rank);
    }

    /// Adds one snapshot, every entry at its published rank.
    pub fn add_list(&mut self, list: &'a RankedList) {
        for e in &list.entries {
            self.add(e.name.as_str(), e.rank);
        }
    }

    /// Adds one snapshot `times` times over, exactly as `times` calls of
    /// [`add_list`](Self::add_list) would: copy after copy, entry after
    /// entry, so every score receives the same terms in the same order and
    /// keeps its float bits. Only the name → slot probes are saved: each
    /// entry's slot is found once, not once per copy.
    pub fn add_list_repeated(&mut self, list: &'a RankedList, times: usize) {
        if times == 0 {
            return;
        }
        let Dowdall { slot, scores } = self;
        let terms: Vec<(usize, f64)> = list
            .entries
            .iter()
            .map(|e| {
                let at = *slot.entry(e.name.as_str()).or_insert_with(|| {
                    scores.push((e.name.as_str(), 0.0));
                    scores.len() - 1
                });
                (at, 1.0 / f64::from(e.rank))
            })
            .collect();
        for _ in 0..times {
            for &(at, term) in &terms {
                // `at` was issued above, so the slot exists.
                if let Some((_, score)) = scores.get_mut(at) {
                    *score += term;
                }
            }
        }
    }

    /// Adds one snapshot given as names already in rank order (ranks
    /// `1..=n`), e.g. a normalized list read off a domain table.
    pub fn add_sorted_names(&mut self, names: impl IntoIterator<Item = &'a str>) {
        for (i, name) in names.into_iter().enumerate() {
            self.add(name, i as u32 + 1);
        }
    }

    /// Ranks every name by total score (ties by name) and keeps the best
    /// `max_len`.
    pub fn finish(self, max_len: usize) -> RankedList {
        let mut scored = self.scores;
        scored.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        scored.truncate(max_len);
        RankedList::from_sorted_names(
            ListSource::Tranco,
            scored.into_iter().map(|(n, _)| n.to_owned()).collect(),
        )
    }
}

/// Aggregates input lists with the Dowdall rule into a Tranco-style list.
///
/// `inputs` holds every (list, day) snapshot in the window, from any mix of
/// providers. Names are aggregated exactly as published (no normalization —
/// real Tranco contains Umbrella's FQDN entries verbatim).
pub fn build(inputs: &[&RankedList], max_len: usize) -> RankedList {
    let mut dowdall = Dowdall::new();
    for list in inputs {
        dowdall.add_list(list);
    }
    dowdall.finish(max_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list(names: &[&str]) -> RankedList {
        RankedList::from_sorted_names(
            ListSource::Alexa,
            names.iter().map(|s| s.to_string()).collect(),
        )
    }

    #[test]
    fn repeated_list_adds_the_terms_of_repeated_calls_bit_for_bit() {
        // Ranks whose reciprocals round, a name listed twice, and a name
        // already scored by an earlier list: the float sums must match
        // `times` separate calls to the last bit, slot order included.
        let earlier = list(&["b.com", "q.com"]);
        let mut repeated = list(&["a.com", "b.com", "c.com", "a.com", "d.com"]);
        for (e, rank) in repeated.entries.iter_mut().zip([3, 7, 11, 13, 49]) {
            e.rank = rank;
        }
        for times in [0, 1, 2, 28] {
            let mut calls = Dowdall::new();
            calls.add_list(&earlier);
            for _ in 0..times {
                calls.add_list(&repeated);
            }
            let mut once = Dowdall::new();
            once.add_list(&earlier);
            once.add_list_repeated(&repeated, times);
            let bits = |d: &Dowdall| -> Vec<(String, u64)> {
                d.scores
                    .iter()
                    .map(|&(n, s)| (n.to_owned(), s.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&once), bits(&calls), "{times} copies");
        }
    }

    #[test]
    fn dowdall_scores_sum_reciprocal_ranks() {
        // a: rank 1 in both lists -> 2.0; b: rank 2 + rank 3 -> 0.8333;
        // c: rank 3 + rank 2 -> 0.8333 (tie, broken alphabetically: b first).
        let l1 = list(&["a.com", "b.com", "c.com"]);
        let l2 = list(&["a.com", "c.com", "b.com"]);
        let t = build(&[&l1, &l2], 10);
        let names: Vec<&str> = t.top_names(3).collect();
        assert_eq!(names, vec!["a.com", "b.com", "c.com"]);
    }

    #[test]
    fn appearing_in_more_snapshots_wins() {
        // x at rank 5 in three lists (3 × 0.2 = 0.6) beats y at rank 2 in one
        // list (0.5): persistence beats a single good day.
        let mk = |names: &[&str]| list(names);
        let l1 = mk(&["f1.com", "f2.com", "f3.com", "f4.com", "x.com"]);
        let l2 = mk(&["f5.com", "f6.com", "f7.com", "f8.com", "x.com"]);
        let l3 = mk(&["f9.com", "y.com", "f10.com", "f11.com", "x.com"]);
        let t = build(&[&l1, &l2, &l3], 100);
        let rank_of = |t: &RankedList, n: &str| {
            t.entries
                .iter()
                .find(|e| e.name == n)
                .map(|e| e.rank)
                .unwrap()
        };
        assert!(rank_of(&t, "x.com") < rank_of(&t, "y.com"));
    }

    #[test]
    fn stability_under_single_day_churn() {
        // Swapping two tail entries on one of 10 days barely moves the output.
        let base = list(&["a.com", "b.com", "c.com", "d.com", "e.com"]);
        let churned = list(&["a.com", "b.com", "c.com", "e.com", "d.com"]);
        let mut days: Vec<&RankedList> = vec![&base; 9];
        days.push(&churned);
        let t = build(&days, 10);
        assert_eq!(
            t.top_names(5).collect::<Vec<_>>(),
            vec!["a.com", "b.com", "c.com", "d.com", "e.com"]
        );
    }

    #[test]
    fn empty_inputs_give_empty_list() {
        let t = build(&[], 10);
        assert!(t.is_empty());
    }
}
