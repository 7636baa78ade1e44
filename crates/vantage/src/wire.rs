//! Binary wire encoding for vantage day-shards.
//!
//! [`crate::DayShards`] is the unit of incremental ingestion: the live
//! serving layer ships observed days between processes as `tpld` delta
//! payloads, and this module defines the byte form those payloads carry.
//! The format is little-endian and *canonical*: every shard keeps its
//! entries sorted by key, so encoding iterates in one deterministic order
//! and equal shards always produce equal bytes — the property that lets
//! delta application be proven byte-identical to a full rebuild.
//!
//! Decoding is fail-closed: externally-shaped bytes are an expected hostile
//! input, so every read is bounds-checked, every enum tag validated, and
//! every map key checked for duplicates, returning [`WireError`] values
//! rather than panicking. Entries may arrive in any order: the decoder
//! sorts each keyed section, so any permutation of a section decodes to the
//! same shard and re-encodes to the canonical bytes. Framing (magic,
//! version, checksum) belongs to `topple-serve`'s one container frame,
//! shared by `tpls` snapshots and `tpld` deltas; this module encodes only
//! the shard body. Its [`Reader`] is also the bounds-checked reader both
//! container payloads decode through.
//!
//! ```text
//! day_shards := cdn chrome dns(umbrella) dns(china) panel
//! cdn        := n_days u32 | { day u32 | n_metrics u32 |
//!                              { n_sites u32 | score f64 × n_sites } × n_metrics } × n_days
//! chrome     := n_days u32 | day u32 × n_days
//!             | n_global u32 | { origin | cell } × n_global
//!             | n_cells u32 | { country u8 | platform u8 | origin | cell } × n_cells
//! origin     := site u32 | host u8
//! cell       := initiated u64 | completed u64 | dwell u64 |
//!               n_clients u32 | client u32 × n_clients
//! dns        := n_days u32 | { day u32 |
//!                 n_cand u32 | { client u32 | name | ip u32 | events u64 } × n_cand |
//!                 n_bg u32 | { name | queries u64 | unique_ips u32 } × n_bg } × n_days
//! name       := 0u8 site u32 host u8  (website FQDN)
//!             | 1u8 idx u16           (background name)
//! panel      := n_days u32 | { day u32 | n_sites u32 |
//!                 { site u32 | pageviews u32 | visitors u32 } × n_sites } × n_days
//! ```

use std::fmt;

/// Anything that stops a shard from being decoded from wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ends before the structure it declares.
    Truncated {
        /// Bytes the decoder needed.
        need: u64,
        /// Bytes actually available.
        have: u64,
    },
    /// The bytes decode but violate a structural invariant (bad enum tag,
    /// duplicate map key, inconsistent day coverage).
    Malformed {
        /// Which invariant failed.
        context: &'static str,
    },
    /// Decoding finished but bytes remain past the declared structure.
    TrailingBytes {
        /// Leftover byte count.
        extra: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { need, have } => {
                write!(f, "shard bytes truncated: need {need}, have {have}")
            }
            WireError::Malformed { context } => write!(f, "shard bytes malformed: {context}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "shard bytes have {extra} trailing bytes")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Little-endian append-only encoder over a caller-owned buffer.
#[derive(Debug)]
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    /// Wraps a buffer; encoded bytes are appended to it.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        Writer { out }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    /// Appends a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a collection length as `u32`.
    pub fn len(&mut self, n: usize) {
        self.u32(topple_stats::cast::u32_from_usize(n));
    }

    /// Appends a string as a `u16` byte length and its UTF-8 bytes.
    pub fn str16(&mut self, s: &str) {
        debug_assert!(
            s.len() <= usize::from(u16::MAX),
            "string too long for u16 len"
        );
        self.u16(s.len() as u16);
        self.out.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked little-endian reader over externally-shaped bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice for decoding from its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, off: 0 }
    }

    /// Reads `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.off.checked_add(n).ok_or(WireError::Malformed {
            context: "length overflows the address space",
        })?;
        if end > self.buf.len() {
            return Err(WireError::Truncated {
                need: topple_stats::cast::u64_from_usize(n),
                have: topple_stats::cast::u64_from_usize(self.buf.len() - self.off),
            });
        }
        let s = &self.buf[self.off..end];
        self.off = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`, little-endian.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a `u32`, little-endian.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`, little-endian.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a string written by [`Writer::str16`]; bytes that are not
    /// UTF-8 are rejected.
    pub fn str16(&mut self) -> Result<&'a str, WireError> {
        let n = usize::from(self.u16()?);
        std::str::from_utf8(self.take(n)?).map_err(|_| WireError::Malformed {
            context: "string is not UTF-8",
        })
    }

    /// Reads a column of `n` little-endian `u32`s in one bulk pass. The
    /// byte length is checked against the buffer before the column is
    /// allocated, so a hostile `n` fails without allocating.
    pub fn u32s(&mut self, n: usize) -> Result<Vec<u32>, WireError> {
        let len = n.checked_mul(4).ok_or(WireError::Malformed {
            context: "element count overflows the address space",
        })?;
        Ok(self
            .take(len)?
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Reads a `u32` collection length and pre-checks that at least
    /// `per_item` bytes per element remain — so a hostile length cannot
    /// drive a huge allocation before the buffer runs out.
    pub fn len(&mut self, per_item: usize) -> Result<usize, WireError> {
        let n = topple_stats::cast::usize_from_u32(self.u32()?);
        let need = n.checked_mul(per_item).ok_or(WireError::Malformed {
            context: "element count overflows the address space",
        })?;
        if need > self.remaining() {
            return Err(WireError::Truncated {
                need: topple_stats::cast::u64_from_usize(need),
                have: topple_stats::cast::u64_from_usize(self.remaining()),
            });
        }
        Ok(n)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.off
    }

    /// Fails with [`WireError::TrailingBytes`] unless fully consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                extra: topple_stats::cast::u64_from_usize(self.remaining()),
            });
        }
        Ok(())
    }
}

/// Sorts one decoded section by `key` and fails with `duplicate` if two
/// entries share a key — the flat shards' counterpart of rejecting a
/// repeated map insert.
pub(crate) fn sort_unique<T, K: Ord>(
    items: &mut [T],
    key: impl Fn(&T) -> K,
    duplicate: &'static str,
) -> Result<(), WireError> {
    items.sort_unstable_by_key(|t| key(t));
    if items.windows(2).any(|w| key(&w[0]) == key(&w[1])) {
        return Err(WireError::Malformed { context: duplicate });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(1 << 40);
        w.f64(-0.125);
        w.len(3);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert_eq!(r.len(0).unwrap(), 3);
        assert!(r.finish().is_ok());
    }

    #[test]
    fn truncation_fails_closed() {
        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(
            r.u32(),
            Err(WireError::Truncated { need: 4, have: 2 })
        ));
    }

    #[test]
    fn hostile_length_is_rejected_before_allocation() {
        // Declares u32::MAX elements of 8 bytes each with a 4-byte buffer.
        let mut buf = Vec::new();
        Writer::new(&mut buf).u32(u32::MAX);
        let mut r = Reader::new(&buf);
        assert!(matches!(r.len(8), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn str16_round_trips_and_fails_closed() {
        let mut buf = Vec::new();
        Writer::new(&mut buf).str16("tranco");
        let mut r = Reader::new(&buf);
        assert_eq!(r.str16().unwrap(), "tranco");
        assert!(r.finish().is_ok());
        // A declared length past the buffer is truncation.
        let mut r = Reader::new(&buf[..buf.len() - 1]);
        assert!(matches!(
            r.str16(),
            Err(WireError::Truncated { need: 6, have: 5 })
        ));
        // A lone continuation byte is not UTF-8.
        let mut r = Reader::new(&[1, 0, 0x80]);
        assert!(matches!(
            r.str16(),
            Err(WireError::Malformed {
                context: "string is not UTF-8"
            })
        ));
    }

    #[test]
    fn u32_column_reads_in_bulk_and_rejects_hostile_counts() {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        for v in [3u32, 1 << 20, u32::MAX] {
            w.u32(v);
        }
        let mut r = Reader::new(&buf);
        assert_eq!(r.u32s(3).unwrap(), [3, 1 << 20, u32::MAX]);
        assert!(r.finish().is_ok());
        // Counts the buffer cannot hold fail before any column is built,
        // including one whose byte length overflows.
        let mut r = Reader::new(&buf);
        assert!(matches!(r.u32s(1 << 30), Err(WireError::Truncated { .. })));
        assert!(matches!(
            r.u32s(usize::MAX),
            Err(WireError::Malformed { .. })
        ));
        assert_eq!(r.remaining(), buf.len(), "a failed read consumes nothing");
    }

    #[test]
    fn trailing_bytes_detected() {
        let r = Reader::new(&[0]);
        assert!(matches!(
            r.finish(),
            Err(WireError::TrailingBytes { extra: 1 })
        ));
    }
}
