//! Top-list data model: ranked lists, rank-magnitude-bucketed lists, CSV I/O.

use std::fmt;

/// Which published list a dataset models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ListSource {
    /// Alexa Top 1M (browser-extension panel).
    Alexa,
    /// Cisco Umbrella 1M (DNS names by unique client IPs).
    Umbrella,
    /// Majestic Million (backlinks).
    Majestic,
    /// Secrank (voting over Chinese resolver logs).
    Secrank,
    /// Tranco (Dowdall aggregation of Alexa+Umbrella+Majestic).
    Tranco,
    /// Trexa (Tranco/Alexa interleave).
    Trexa,
    /// Chrome UX Report (origins, rank-magnitude buckets).
    Crux,
}

impl ListSource {
    /// All seven lists in the paper's table order.
    pub const ALL: [ListSource; 7] = [
        ListSource::Alexa,
        ListSource::Majestic,
        ListSource::Secrank,
        ListSource::Tranco,
        ListSource::Trexa,
        ListSource::Umbrella,
        ListSource::Crux,
    ];

    /// Display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ListSource::Alexa => "Alexa",
            ListSource::Umbrella => "Umbrella",
            ListSource::Majestic => "Majestic",
            ListSource::Secrank => "Secrank",
            ListSource::Tranco => "Tranco",
            ListSource::Trexa => "Trexa",
            ListSource::Crux => "CrUX",
        }
    }

    /// Whether the list publishes individual ranks (CrUX publishes only
    /// rank-magnitude buckets, so Spearman cannot be computed against it).
    pub fn is_rank_ordered(self) -> bool {
        self != ListSource::Crux
    }
}

impl fmt::Display for ListSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One entry of a ranked list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankedEntry {
    /// Rank, 1-based; unique within a list.
    pub rank: u32,
    /// The listed name exactly as published (domain, FQDN, or origin).
    pub name: String,
}

/// A rank-ordered top list (every list except CrUX).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankedList {
    /// Which methodology produced the list.
    pub source: ListSource,
    /// Entries sorted by ascending rank; ranks are 1..=len with no gaps.
    pub entries: Vec<RankedEntry>,
}

impl RankedList {
    /// Builds a list from names already sorted best-first, assigning ranks.
    pub fn from_sorted_names(source: ListSource, names: Vec<String>) -> Self {
        let entries = names
            .into_iter()
            .enumerate()
            .map(|(i, name)| RankedEntry {
                rank: i as u32 + 1,
                name,
            })
            .collect();
        RankedList { source, entries }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The top `k` names in rank order.
    pub fn top_names(&self, k: usize) -> impl Iterator<Item = &str> {
        self.entries.iter().take(k).map(|e| e.name.as_str())
    }

    /// Serializes in the `rank,name` CSV format the real lists publish.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.entries.len() * 24);
        for e in &self.entries {
            out.push_str(&format!("{},{}\n", e.rank, e.name));
        }
        out
    }

    /// Parses the `rank,name` CSV format. Lines must be sorted by rank.
    pub fn from_csv(source: ListSource, text: &str) -> Result<Self, ListParseError> {
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (rank_str, name) = line
                .split_once(',')
                .ok_or(ListParseError::MissingComma { line: i + 1 })?;
            // Ranks are 1-based: rank 0 would score `1/0 = inf` under
            // Tranco's Dowdall rule.
            let rank: u32 = rank_str
                .trim()
                .parse()
                .ok()
                .filter(|&r| r > 0)
                .ok_or(ListParseError::BadRank { line: i + 1 })?;
            if let Some(last) = entries.last() {
                let last: &RankedEntry = last;
                if rank <= last.rank {
                    return Err(ListParseError::OutOfOrder { line: i + 1 });
                }
            }
            entries.push(RankedEntry {
                rank,
                name: name.trim().to_owned(),
            });
        }
        Ok(RankedList { source, entries })
    }
}

/// One entry of a rank-magnitude-bucketed list (CrUX's format).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketedEntry {
    /// The listed origin, as published (`https://example.com`).
    pub name: String,
    /// The rank-magnitude bucket: the smallest of {1K, 10K, …} (scaled to the
    /// world) the origin falls into.
    pub bucket: u32,
}

/// A rank-magnitude-bucketed list (CrUX).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketedList {
    /// Which methodology produced the list.
    pub source: ListSource,
    /// Entries sorted by ascending bucket (order within a bucket is
    /// unspecified, as in the real dataset).
    pub entries: Vec<BucketedEntry>,
}

impl BucketedList {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes as `origin,bucket` CSV (the CrUX BigQuery export shape).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.entries.len() * 32);
        for e in &self.entries {
            out.push_str(&format!("{},{}\n", e.name, e.bucket));
        }
        out
    }
}

/// A top list in either publication format.
#[derive(Debug, Clone)]
pub enum TopList {
    /// Individually ranked (Alexa, Umbrella, Majestic, Secrank, Tranco, Trexa).
    Ranked(RankedList),
    /// Rank-magnitude bucketed (CrUX).
    Bucketed(BucketedList),
}

impl TopList {
    /// The list's source.
    pub fn source(&self) -> ListSource {
        match self {
            TopList::Ranked(l) => l.source,
            TopList::Bucketed(l) => l.source,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            TopList::Ranked(l) => l.len(),
            TopList::Bucketed(l) => l.len(),
        }
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// CSV parsing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListParseError {
    /// A line had no comma separator.
    MissingComma {
        /// 1-based line number.
        line: usize,
    },
    /// A rank failed to parse as a positive integer.
    BadRank {
        /// 1-based line number.
        line: usize,
    },
    /// Ranks were not strictly increasing.
    OutOfOrder {
        /// 1-based line number.
        line: usize,
    },
}

impl fmt::Display for ListParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ListParseError::MissingComma { line } => write!(f, "line {line}: missing comma"),
            ListParseError::BadRank { line } => {
                write!(f, "line {line}: rank is not a positive integer")
            }
            ListParseError::OutOfOrder { line } => write!(f, "line {line}: ranks out of order"),
        }
    }
}

impl std::error::Error for ListParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranked_list_roundtrips_csv() {
        let l = RankedList::from_sorted_names(
            ListSource::Alexa,
            vec!["a.com".into(), "b.net".into(), "c.org".into()],
        );
        let csv = l.to_csv();
        assert_eq!(csv, "1,a.com\n2,b.net\n3,c.org\n");
        let back = RankedList::from_csv(ListSource::Alexa, &csv).unwrap();
        assert_eq!(back, l);
    }

    #[test]
    fn csv_errors() {
        assert_eq!(
            RankedList::from_csv(ListSource::Alexa, "1 a.com"),
            Err(ListParseError::MissingComma { line: 1 })
        );
        assert_eq!(
            RankedList::from_csv(ListSource::Alexa, "x,a.com"),
            Err(ListParseError::BadRank { line: 1 })
        );
        assert_eq!(
            RankedList::from_csv(ListSource::Alexa, "2,a.com\n1,b.com"),
            Err(ListParseError::OutOfOrder { line: 2 })
        );
    }

    #[test]
    fn csv_rejects_rank_zero() {
        assert_eq!(
            RankedList::from_csv(ListSource::Alexa, "0,a.com\n1,b.com"),
            Err(ListParseError::BadRank { line: 1 })
        );
        assert_eq!(
            RankedList::from_csv(ListSource::Alexa, "1,a.com\n0,b.com"),
            Err(ListParseError::BadRank { line: 2 })
        );
    }

    #[test]
    fn top_names_truncates() {
        let l = RankedList::from_sorted_names(
            ListSource::Tranco,
            (0..10).map(|i| format!("s{i}.com")).collect(),
        );
        assert_eq!(
            l.top_names(3).collect::<Vec<_>>(),
            vec!["s0.com", "s1.com", "s2.com"]
        );
        assert_eq!(l.top_names(99).count(), 10);
    }

    #[test]
    fn source_metadata() {
        assert_eq!(ListSource::ALL.len(), 7);
        assert!(ListSource::Alexa.is_rank_ordered());
        assert!(!ListSource::Crux.is_rank_ordered());
        assert_eq!(ListSource::Crux.to_string(), "CrUX");
    }
}
