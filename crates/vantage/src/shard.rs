//! The shard/merge algebra shared by every vantage.
//!
//! A *shard* is a pure, mergeable observation of one (or, after merging,
//! several) days of traffic as one vantage would see it. Shards obey monoid
//! laws — an identity element, associativity, and (for every shard type in
//! this crate) commutativity — which is what makes it safe to *build* them
//! on any number of worker threads in any completion order. Order-sensitive
//! state (the DNS TTL gate, day-indexed accessors) lives entirely in the
//! vantages' `ingest_shard` folds, which consume a shard's days in ascending
//! day order.
//!
//! The laws are not aspirational: `tests/merge_laws.rs` at the workspace
//! root asserts identity, associativity, commutativity, and
//! shard-vs-sequential equivalence for every vantage over seeded worlds, and
//! `tests/determinism.rs` pins that study results are byte-identical across
//! worker counts.
//!
//! The crawler vantage has no shard type: it reads the static hyperlink
//! graph, not the daily traffic stream, so there is nothing per-day to
//! merge (see `DESIGN.md` §10).

use std::cmp::Ordering;

use topple_sim::World;

use crate::chrome::ChromeShard;
use crate::cloudflare::CdnShard;
use crate::dns::DnsShard;
use crate::panel::PanelShard;

/// A mergeable per-day observation: the monoid every vantage shard
/// implements.
///
/// Implementations must keep `merge` associative — and every shard in this
/// crate keeps it commutative too — with `Default::default()` as the
/// identity element. `merge` performs no floating-point arithmetic on
/// distinct days (keyed unions and integer sums only), so the laws hold
/// *exactly*, not just up to rounding.
pub trait Shard: Default {
    /// Folds `other` into `self`. Distinct days union; identical days
    /// combine as if their traffic had been observed twice.
    fn merge(&mut self, other: Self);

    /// The identity element: a shard that observed nothing.
    fn identity() -> Self {
        Self::default()
    }
}

/// Merges two runs that are sorted and duplicate-free under `cmp` into one
/// such run, folding an item of `b` into the equal item of `a` with
/// `combine` — the sorted merge-join behind every flat shard's `merge`.
/// Linear in `a.len() + b.len()`; either run being empty costs nothing.
pub(crate) fn merge_sorted<T>(
    a: Vec<T>,
    b: Vec<T>,
    cmp: impl Fn(&T, &T) -> Ordering,
    mut combine: impl FnMut(&mut T, T),
) -> Vec<T> {
    if b.is_empty() {
        return a;
    }
    if a.is_empty() {
        return b;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut a = a.into_iter().peekable();
    let mut b = b.into_iter().peekable();
    loop {
        let ord = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => cmp(x, y),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => return out,
        };
        match ord {
            Ordering::Less => out.extend(a.next()),
            Ordering::Greater => out.extend(b.next()),
            Ordering::Equal => {
                if let (Some(mut x), Some(y)) = (a.next(), b.next()) {
                    combine(&mut x, y);
                    out.push(x);
                }
            }
        }
    }
}

/// One day's observations for all five traffic-ingesting vantages of a
/// study: the unit of work a pipeline worker produces.
///
/// `DnsShard` appears twice because the study runs two resolver vantages
/// (Umbrella and the Chinese resolver behind Secrank) over the same traffic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DayShards {
    /// CDN request-log metrics.
    pub cdn: CdnShard,
    /// Chrome telemetry.
    pub chrome: ChromeShard,
    /// The Umbrella-style enterprise resolver.
    pub umbrella: DnsShard,
    /// The Chinese resolver feeding Secrank.
    pub china: DnsShard,
    /// The browser-extension panel.
    pub panel: PanelShard,
}

impl DayShards {
    /// The set of day indices this shard covers, or `None` if the five
    /// vantage shards disagree about coverage.
    ///
    /// [`DayScratch::observe_day`] always populates all five vantages for
    /// the observed day (even when a vantage saw no traffic, the day entry
    /// exists), so disagreement is only possible for hand-built or decoded
    /// shards — callers folding decoded shards must treat `None` as
    /// malformed input.
    ///
    /// [`DayScratch::observe_day`]: crate::DayScratch::observe_day
    pub fn coverage(&self) -> Option<std::collections::BTreeSet<usize>> {
        let days: std::collections::BTreeSet<usize> = self.cdn.day_indices().collect();
        let agree = self.chrome.day_indices().eq(days.iter().copied())
            && self.umbrella.day_indices().eq(days.iter().copied())
            && self.china.day_indices().eq(days.iter().copied())
            && self.panel.day_indices().eq(days.iter().copied());
        if agree {
            Some(days)
        } else {
            None
        }
    }

    /// Checks that every id the shard names exists in `world`: sites,
    /// hosts, clients and background names; CDN days span the world's
    /// sites and hold rows only at sites the world's CDN serves.
    ///
    /// Decoding checks only the wire structure; a decoded shard from a
    /// different (or hostile) world can still name ids `world` lacks, which
    /// the folds would index or pack into keys. Callers folding decoded
    /// shards must check them here first.
    pub fn check_ids(&self, world: &World) -> Result<(), crate::wire::WireError> {
        let malformed = |context| Err(crate::wire::WireError::Malformed { context });
        if let Some(context) = self.cdn.misfit(world) {
            return malformed(context);
        }
        if !self.chrome.fits(world) {
            return malformed("telemetry names an origin or client outside the world");
        }
        if !self.umbrella.fits(world) || !self.china.fits(world) {
            return malformed("DNS shard names a client or name outside the world");
        }
        if !self.panel.fits(world.sites.len()) {
            return malformed("panel names a site outside the world");
        }
        Ok(())
    }

    /// Appends this shard's canonical wire form to `out`.
    ///
    /// The encoding is deterministic (all shard state is kept in key
    /// order), so equal shards produce equal bytes; see [`crate::wire`] for
    /// the layout. Framing (magic, version, checksum) is the caller's job.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut w = crate::wire::Writer::new(out);
        self.cdn.wire_encode(&mut w);
        self.chrome.wire_encode(&mut w);
        self.umbrella.wire_encode(&mut w);
        self.china.wire_encode(&mut w);
        self.panel.wire_encode(&mut w);
    }

    /// Decodes a shard from its canonical wire form, consuming the whole
    /// buffer. Fails closed on truncated, trailing, or malformed bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, crate::wire::WireError> {
        let mut r = crate::wire::Reader::new(bytes);
        let shards = DayShards {
            cdn: CdnShard::wire_decode(&mut r)?,
            chrome: ChromeShard::wire_decode(&mut r)?,
            umbrella: DnsShard::wire_decode(&mut r)?,
            china: DnsShard::wire_decode(&mut r)?,
            panel: PanelShard::wire_decode(&mut r)?,
        };
        r.finish()?;
        Ok(shards)
    }
}

impl Shard for DayShards {
    fn merge(&mut self, other: Self) {
        self.cdn.merge(other.cdn);
        self.chrome.merge(other.chrome);
        self.umbrella.merge(other.umbrella);
        self.china.merge(other.china);
        self.panel.merge(other.panel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::DayScratch;
    use topple_sim::WorldConfig;

    #[test]
    fn day_shards_observe_and_merge() {
        let w = World::generate(WorldConfig::tiny(91)).unwrap();
        let mut scratch = DayScratch::new(&w);
        let mut a = scratch.observe_day(&w, 0);
        let b = scratch.observe_day(&w, 1);
        assert_ne!(a, b);
        a.merge(b.clone());
        assert_eq!(a.cdn.day_indices().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(a.panel.day_indices().collect::<Vec<_>>(), vec![0, 1]);
        // Identity on both sides.
        let mut id_left = DayShards::identity();
        id_left.merge(b.clone());
        let mut id_right = b.clone();
        id_right.merge(DayShards::identity());
        assert_eq!(id_left, b);
        assert_eq!(id_right, b);
    }

    #[test]
    fn wire_round_trip_is_exact_and_canonical() {
        let w = World::generate(WorldConfig::tiny(92)).unwrap();
        let mut scratch = DayScratch::new(&w);
        let mut merged = scratch.observe_day(&w, 0);
        merged.merge(scratch.observe_day(&w, 1));

        let mut bytes = Vec::new();
        merged.encode(&mut bytes);
        let decoded = DayShards::decode(&bytes).unwrap();
        assert_eq!(decoded, merged);
        assert_eq!(decoded.coverage(), Some([0, 1].into_iter().collect()));

        // Canonical: re-encoding the decoded shard reproduces the bytes.
        let mut again = Vec::new();
        decoded.encode(&mut again);
        assert_eq!(again, bytes);
    }

    #[test]
    fn wire_decode_fails_closed() {
        let w = World::generate(WorldConfig::tiny(93)).unwrap();
        let shards = DayScratch::new(&w).observe_day(&w, 0);
        let mut bytes = Vec::new();
        shards.encode(&mut bytes);

        // Truncation at any of a few depths is an error, never a panic.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(DayShards::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage is rejected.
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(matches!(
            DayShards::decode(&extra),
            Err(crate::wire::WireError::TrailingBytes { extra: 1 })
        ));
    }
}
