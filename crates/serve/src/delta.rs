//! The versioned, checksummed `tpld` day-delta format.
//!
//! A delta carries newly-observed [`DayShards`] against a base `tpls`
//! snapshot's world, so a multi-day serving history costs incremental bytes
//! instead of N full snapshots. The container mirrors the snapshot format:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"TPLD"
//! 4       2     format version (little-endian u16, currently 1)
//! 6       2     reserved (must be 0)
//! 8       8     payload length in bytes (little-endian u64)
//! 16      4     CRC-32 (IEEE) of the payload
//! 20      —     payload
//!
//! payload := seed u64 | n_sites u64 | n_clients u64 | scale str16
//!          | n_days u32 | day u32 × n_days      (ascending, days covered)
//!          | day-shard body                     (canonical vantage wire form)
//! ```
//!
//! The identity prefix names the *base world*, not a specific snapshot
//! file: shards commute ([`Shard::merge`]), so any set of deltas against
//! the same world can be applied in any order — the serving layer merges
//! them into its day pool and rebuilds, and the result is proven
//! byte-identical to a full offline rebuild (`tests/delta_equivalence.rs`).
//!
//! Decoding is fail-closed exactly like [`crate::snapshot`]: wrong magic,
//! unknown version, truncation, checksum mismatch, trailing bytes, or a day
//! list that disagrees with the shard body all return typed
//! [`DeltaError`]s; nothing here panics on input bytes.

use std::path::Path;

use topple_stats::cast;
use topple_vantage::{DayShards, Shard};

use crate::error::{DeltaError, SnapshotError};
use crate::snapshot::{crc32, Reader, SnapshotIdentity};

/// File magic: "TopPLe Delta".
pub const MAGIC: [u8; 4] = *b"TPLD";
/// Current format version.
pub const VERSION: u16 = 1;
/// Header length in bytes (magic + version + reserved + payload len + CRC).
pub const HEADER_LEN: usize = 20;

/// The base world a delta extends: every field must match the serving
/// snapshot's identity (the day count may differ — that is the point).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaIdentity {
    /// Master seed of the base world.
    pub seed: u64,
    /// Number of sites in the base world.
    pub n_sites: u64,
    /// Number of simulated clients.
    pub n_clients: u64,
    /// Scale label (`tiny`/`small`/`medium`/`paper`).
    pub scale: String,
}

impl DeltaIdentity {
    /// The delta identity of a base snapshot.
    pub fn of_base(base: &SnapshotIdentity) -> DeltaIdentity {
        DeltaIdentity {
            seed: base.seed,
            n_sites: base.n_sites,
            n_clients: base.n_clients,
            scale: base.scale.clone(),
        }
    }

    /// Checks this identity against a serving snapshot's, field by field.
    pub fn check_base(&self, base: &SnapshotIdentity) -> Result<(), DeltaError> {
        if self.seed != base.seed {
            return Err(DeltaError::BaseMismatch { context: "seed" });
        }
        if self.n_sites != base.n_sites {
            return Err(DeltaError::BaseMismatch {
                context: "site count",
            });
        }
        if self.n_clients != base.n_clients {
            return Err(DeltaError::BaseMismatch {
                context: "client count",
            });
        }
        if self.scale != base.scale {
            return Err(DeltaError::BaseMismatch {
                context: "scale label",
            });
        }
        Ok(())
    }
}

/// A decoded (or freshly-built) day delta: base identity, the days covered,
/// and the shard body itself.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    identity: DeltaIdentity,
    days: Vec<u32>,
    shards: DayShards,
    crc32: u32,
}

impl Delta {
    /// Wraps observed shards into a delta against `identity`'s world.
    ///
    /// The covered-day list is derived from the shards; shards whose five
    /// vantages disagree about coverage, or that cover no days, are
    /// rejected.
    pub fn new(identity: DeltaIdentity, shards: DayShards) -> Result<Delta, DeltaError> {
        let coverage = shards.coverage().ok_or(DeltaError::Malformed {
            context: "vantage shards disagree about day coverage",
        })?;
        if coverage.is_empty() {
            return Err(DeltaError::Malformed {
                context: "delta covers no days",
            });
        }
        let days: Vec<u32> = coverage.into_iter().map(cast::u32_from_usize).collect();
        let mut d = Delta {
            identity,
            days,
            shards,
            crc32: 0,
        };
        d.crc32 = crc32(&d.payload_bytes());
        Ok(d)
    }

    /// The base-world identity this delta extends.
    pub fn identity(&self) -> &DeltaIdentity {
        &self.identity
    }

    /// Day indices covered, ascending.
    pub fn days(&self) -> &[u32] {
        &self.days
    }

    /// The shard body. Consuming accessor: application means merging these
    /// into a day pool, and shards are large.
    pub fn into_shards(self) -> DayShards {
        self.shards
    }

    /// Payload CRC — the delta's content hash.
    pub fn crc32(&self) -> u32 {
        self.crc32
    }

    /// Stable identity string: version, payload CRC, and covered day span.
    pub fn id(&self) -> String {
        let first = self.days.first().copied().unwrap_or(0);
        let last = self.days.last().copied().unwrap_or(0);
        format!("tpld-v{VERSION}-{:08x}-d{first}-{last}", self.crc32)
    }

    fn payload_bytes(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(1 << 16);
        p.extend_from_slice(&self.identity.seed.to_le_bytes());
        p.extend_from_slice(&self.identity.n_sites.to_le_bytes());
        p.extend_from_slice(&self.identity.n_clients.to_le_bytes());
        debug_assert!(self.identity.scale.len() <= u16::MAX as usize);
        p.extend_from_slice(&(self.identity.scale.len() as u16).to_le_bytes());
        p.extend_from_slice(self.identity.scale.as_bytes());
        p.extend_from_slice(&cast::u32_from_usize(self.days.len()).to_le_bytes());
        for &d in &self.days {
            p.extend_from_slice(&d.to_le_bytes());
        }
        self.shards.encode(&mut p);
        p
    }

    /// Encodes to the on-disk/wire byte form. Deterministic: equal deltas
    /// produce equal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload = self.payload_bytes();
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes a delta, failing closed on any framing or structural fault.
    pub fn from_bytes(bytes: &[u8]) -> Result<Delta, DeltaError> {
        let mut r = Reader::new(bytes);
        let magic = r.take(4).map_err(map_snap)?;
        if magic != MAGIC {
            let mut found = [0u8; 4];
            found.copy_from_slice(magic);
            return Err(DeltaError::BadMagic { found });
        }
        let version = r.u16().map_err(map_snap)?;
        if version != VERSION {
            return Err(DeltaError::UnsupportedVersion { found: version });
        }
        let reserved = r.u16().map_err(map_snap)?;
        if reserved != 0 {
            return Err(DeltaError::Malformed {
                context: "reserved header field must be 0",
            });
        }
        let payload_len = r.u64().map_err(map_snap)?;
        let expected_crc = r.u32().map_err(map_snap)?;
        let have = r.remaining() as u64;
        if have < payload_len {
            return Err(DeltaError::Truncated {
                need: HEADER_LEN as u64 + payload_len,
                have: bytes.len() as u64,
            });
        }
        if have > payload_len {
            return Err(DeltaError::TrailingBytes {
                extra: have - payload_len,
            });
        }
        let payload = r.take(payload_len as usize).map_err(map_snap)?;
        let found_crc = crc32(payload);
        if found_crc != expected_crc {
            return Err(DeltaError::ChecksumMismatch {
                expected: expected_crc,
                found: found_crc,
            });
        }

        let mut r = Reader::new(payload);
        let identity = DeltaIdentity {
            seed: r.u64().map_err(map_snap)?,
            n_sites: r.u64().map_err(map_snap)?,
            n_clients: r.u64().map_err(map_snap)?,
            scale: r.str16().map_err(map_snap)?.to_owned(),
        };
        let n_days = r.count(4).map_err(map_snap)?;
        let mut days = Vec::with_capacity(n_days);
        for _ in 0..n_days {
            days.push(r.u32().map_err(map_snap)?);
        }
        let shards = DayShards::decode(r.take(r.remaining()).map_err(map_snap)?)?;
        let declared: Vec<usize> = days.iter().map(|&d| cast::usize_from_u32(d)).collect();
        let covered = shards.coverage().ok_or(DeltaError::Malformed {
            context: "vantage shards disagree about day coverage",
        })?;
        if covered.is_empty() {
            return Err(DeltaError::Malformed {
                context: "delta covers no days",
            });
        }
        if !covered.iter().copied().eq(declared.iter().copied()) {
            return Err(DeltaError::Malformed {
                context: "declared day list disagrees with the shard body",
            });
        }
        Ok(Delta {
            identity,
            days,
            shards,
            crc32: expected_crc,
        })
    }

    /// Reads and decodes a delta file (memory-mapped, like snapshots).
    pub fn read_from(path: &Path) -> Result<Delta, DeltaError> {
        let bytes = crate::mmap::MappedBytes::open(path)?;
        Delta::from_bytes(&bytes)
    }

    /// Encodes and writes the delta to `path`, returning its id.
    pub fn write_to(&self, path: &Path) -> Result<String, DeltaError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(self.id())
    }

    /// Compacts several deltas against the same base into one.
    ///
    /// Shard merging is commutative, so the input order never affects the
    /// output bytes. Deltas naming different base worlds are rejected.
    pub fn compact(deltas: Vec<Delta>) -> Result<Delta, DeltaError> {
        let mut iter = deltas.into_iter();
        let Some(first) = iter.next() else {
            return Err(DeltaError::Malformed {
                context: "nothing to compact",
            });
        };
        let identity = first.identity.clone();
        let mut merged = first.into_shards();
        for d in iter {
            if d.identity != identity {
                return Err(DeltaError::BaseMismatch {
                    context: "compacted deltas name different base worlds",
                });
            }
            merged.merge(d.into_shards());
        }
        Delta::new(identity, merged)
    }
}

/// Maps reader-level snapshot errors onto the delta's own error type; the
/// reader is shared with `snapshot.rs`, the error vocabulary is not.
fn map_snap(e: SnapshotError) -> DeltaError {
    match e {
        SnapshotError::Io(e) => DeltaError::Io(e),
        SnapshotError::BadMagic { found } => DeltaError::BadMagic { found },
        SnapshotError::UnsupportedVersion { found } => DeltaError::UnsupportedVersion { found },
        SnapshotError::Truncated { need, have } => DeltaError::Truncated { need, have },
        SnapshotError::ChecksumMismatch { expected, found } => {
            DeltaError::ChecksumMismatch { expected, found }
        }
        SnapshotError::Malformed { context } => DeltaError::Malformed { context },
        SnapshotError::TrailingBytes { extra } => DeltaError::TrailingBytes { extra },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topple_sim::{World, WorldConfig};
    use topple_vantage::DayScratch;

    fn tiny_delta(seed: u64, day: usize) -> Delta {
        let w = World::generate(WorldConfig::tiny(seed)).expect("world");
        let shards = DayScratch::new(&w).observe_day(&w, day);
        let identity = DeltaIdentity {
            seed,
            n_sites: w.config.n_sites as u64,
            n_clients: w.config.n_clients as u64,
            scale: "tiny".to_owned(),
        };
        Delta::new(identity, shards).expect("delta")
    }

    #[test]
    fn round_trips_byte_identical() {
        let d = tiny_delta(31, 2);
        let bytes = d.to_bytes();
        let back = Delta::from_bytes(&bytes).expect("decodes");
        assert_eq!(back, d);
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.days(), &[2]);
        assert!(d.id().starts_with("tpld-v1-"));
        assert!(d.id().ends_with("-d2-2"));
    }

    #[test]
    fn rejects_framing_faults() {
        let bytes = tiny_delta(32, 0).to_bytes();

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            Delta::from_bytes(&bad),
            Err(DeltaError::BadMagic { .. })
        ));

        let mut bad = bytes.clone();
        bad[4] = 9;
        assert!(matches!(
            Delta::from_bytes(&bad),
            Err(DeltaError::UnsupportedVersion { found: 9 })
        ));

        assert!(matches!(
            Delta::from_bytes(&bytes[..bytes.len() / 2]),
            Err(DeltaError::Truncated { .. })
        ));

        let mut bad = bytes.clone();
        bad.push(0);
        assert!(matches!(
            Delta::from_bytes(&bad),
            Err(DeltaError::TrailingBytes { extra: 1 })
        ));

        let mut bad = bytes.clone();
        let mid = HEADER_LEN + (bad.len() - HEADER_LEN) / 2;
        bad[mid] ^= 0xFF;
        assert!(matches!(
            Delta::from_bytes(&bad),
            Err(DeltaError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn base_identity_is_checked_field_by_field() {
        let d = tiny_delta(33, 0);
        let base = SnapshotIdentity {
            seed: 33,
            n_sites: d.identity().n_sites,
            n_clients: d.identity().n_clients,
            n_days: 7,
            scale: "tiny".to_owned(),
        };
        assert!(d.identity().check_base(&base).is_ok());
        let wrong = SnapshotIdentity { seed: 34, ..base };
        assert!(matches!(
            d.identity().check_base(&wrong),
            Err(DeltaError::BaseMismatch { context: "seed" })
        ));
    }

    #[test]
    fn compact_merges_commutatively() {
        let w = World::generate(WorldConfig::tiny(35)).expect("world");
        let identity = DeltaIdentity {
            seed: 35,
            n_sites: w.config.n_sites as u64,
            n_clients: w.config.n_clients as u64,
            scale: "tiny".to_owned(),
        };
        let mut scratch = DayScratch::new(&w);
        let d0 = Delta::new(identity.clone(), scratch.observe_day(&w, 0)).expect("d0");
        let d1 = Delta::new(identity.clone(), scratch.observe_day(&w, 1)).expect("d1");
        let ab = Delta::compact(vec![d0.clone(), d1.clone()]).expect("ab");
        let ba = Delta::compact(vec![d1, d0]).expect("ba");
        assert_eq!(ab.to_bytes(), ba.to_bytes());
        assert_eq!(ab.days(), &[0, 1]);
        // A different-world delta cannot join the compaction.
        let alien = tiny_delta(36, 0);
        assert!(matches!(
            Delta::compact(vec![ab, alien]),
            Err(DeltaError::BaseMismatch { .. })
        ));
    }
}
