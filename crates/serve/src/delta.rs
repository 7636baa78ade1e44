//! The versioned, checksummed `tpld` day-delta format.
//!
//! A delta carries newly-observed [`DayShards`] against a base `tpls`
//! snapshot's world, so a multi-day serving history costs incremental bytes
//! instead of N full snapshots. A delta is one `tpld` container: the same
//! 20-byte frame as a snapshot ([`crate::frame`], magic `b"TPLD"`), then
//!
//! ```text
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
//! Decoding goes through the same frame and payload reader as
//! [`crate::snapshot`], so it fails closed the same way: a framing fault,
//! a malformed shard body, or a day list that disagrees with the shard
//! body all return a typed [`ContainerError`]; nothing here panics on
//! input bytes.

use std::io::Write;
use std::path::Path;

use topple_stats::cast;
use topple_vantage::wire::{Reader, Writer};
use topple_vantage::{DayShards, Shard};

use crate::error::ContainerError;
use crate::frame;
use crate::snapshot::SnapshotIdentity;

/// File magic: "TopPLe Delta".
pub const MAGIC: [u8; 4] = *b"TPLD";

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
    /// Checks this identity against a serving snapshot's, field by field
    /// (the day count is free: that is what a delta extends).
    pub fn check_base(&self, base: &SnapshotIdentity) -> Result<(), ContainerError> {
        if self.seed != base.seed {
            return Err(ContainerError::BaseMismatch { context: "seed" });
        }
        if self.n_sites != base.n_sites {
            return Err(ContainerError::BaseMismatch {
                context: "site count",
            });
        }
        if self.n_clients != base.n_clients {
            return Err(ContainerError::BaseMismatch {
                context: "client count",
            });
        }
        if self.scale != base.scale {
            return Err(ContainerError::BaseMismatch {
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
    pub fn new(identity: DeltaIdentity, shards: DayShards) -> Result<Delta, ContainerError> {
        let coverage = shards.coverage().ok_or(ContainerError::Malformed {
            context: "vantage shards disagree about day coverage",
        })?;
        if coverage.is_empty() {
            return Err(ContainerError::Malformed {
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
        let mut payload = Vec::with_capacity(1 << 16);
        d.encode_payload(&mut payload);
        d.crc32 = frame::crc32(&payload);
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
        frame::id(MAGIC, self.crc32, format_args!("d{first}-{last}"))
    }

    /// Appends the payload (everything after the frame header) to `out`.
    fn encode_payload(&self, out: &mut Vec<u8>) {
        let mut w = Writer::new(out);
        w.u64(self.identity.seed);
        w.u64(self.identity.n_sites);
        w.u64(self.identity.n_clients);
        w.str16(&self.identity.scale);
        w.len(self.days.len());
        for &d in &self.days {
            w.u32(d);
        }
        self.shards.encode(out);
    }

    /// Encodes to the on-disk/wire byte form. Deterministic: equal deltas
    /// produce equal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        frame::seal(MAGIC, 1 << 16, |out| self.encode_payload(out))
    }

    /// Decodes a delta, failing closed on any framing or structural fault.
    pub fn from_bytes(bytes: &[u8]) -> Result<Delta, ContainerError> {
        let (payload, crc32) = frame::open(MAGIC, bytes)?;
        let mut r = Reader::new(payload);
        let identity = DeltaIdentity {
            seed: r.u64()?,
            n_sites: r.u64()?,
            n_clients: r.u64()?,
            scale: r.str16()?.to_owned(),
        };
        let n_days = r.len(4)?;
        let days = r.u32s(n_days)?;
        let shards = DayShards::decode(r.take(r.remaining())?)?;
        let declared: Vec<usize> = days.iter().map(|&d| cast::usize_from_u32(d)).collect();
        let covered = shards.coverage().ok_or(ContainerError::Malformed {
            context: "vantage shards disagree about day coverage",
        })?;
        if covered.is_empty() {
            return Err(ContainerError::Malformed {
                context: "delta covers no days",
            });
        }
        if !covered.iter().copied().eq(declared.iter().copied()) {
            return Err(ContainerError::Malformed {
                context: "declared day list disagrees with the shard body",
            });
        }
        Ok(Delta {
            identity,
            days,
            shards,
            crc32,
        })
    }

    /// Reads and decodes a delta file (memory-mapped, like snapshots).
    pub fn read_from(path: &Path) -> Result<Delta, ContainerError> {
        let bytes = crate::mmap::MappedBytes::open(path)?;
        Delta::from_bytes(&bytes)
    }

    /// Encodes and writes the delta to `path`, returning its id. The write
    /// is crash-safe like a snapshot's ([`frame::write_atomic`]): a failed
    /// write leaves the file previously at `path` intact.
    pub fn write_to(&self, path: &Path) -> Result<String, ContainerError> {
        let bytes = self.to_bytes();
        frame::write_atomic(path, |file| Ok(file.write_all(&bytes)?))?;
        Ok(self.id())
    }

    /// Compacts several deltas against the same base into one.
    ///
    /// Shard merging is commutative, so the input order never affects the
    /// output bytes. Deltas naming different base worlds are rejected.
    pub fn compact(deltas: Vec<Delta>) -> Result<Delta, ContainerError> {
        let mut iter = deltas.into_iter();
        let Some(first) = iter.next() else {
            return Err(ContainerError::Malformed {
                context: "nothing to compact",
            });
        };
        let identity = first.identity.clone();
        let mut merged = first.into_shards();
        for d in iter {
            if d.identity != identity {
                return Err(ContainerError::BaseMismatch {
                    context: "compacted deltas name different base worlds",
                });
            }
            merged.merge(d.into_shards());
        }
        Delta::new(identity, merged)
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
            Err(ContainerError::BadMagic { .. })
        ));

        let mut bad = bytes.clone();
        bad[4] = 9;
        assert!(matches!(
            Delta::from_bytes(&bad),
            Err(ContainerError::UnsupportedVersion { found: 9 })
        ));

        assert!(matches!(
            Delta::from_bytes(&bytes[..bytes.len() / 2]),
            Err(ContainerError::Truncated { .. })
        ));

        let mut bad = bytes.clone();
        bad.push(0);
        assert!(matches!(
            Delta::from_bytes(&bad),
            Err(ContainerError::TrailingBytes { extra: 1 })
        ));

        let mut bad = bytes.clone();
        let mid = frame::HEADER_LEN + (bad.len() - frame::HEADER_LEN) / 2;
        bad[mid] ^= 0xFF;
        assert!(matches!(
            Delta::from_bytes(&bad),
            Err(ContainerError::ChecksumMismatch { .. })
        ));

        for at in 6..8 {
            let mut bad = bytes.clone();
            bad[at] = 0x80;
            assert!(matches!(
                Delta::from_bytes(&bad),
                Err(ContainerError::Malformed {
                    context: "reserved header field must be 0"
                })
            ));
        }
    }

    #[test]
    fn formats_refuse_each_others_bytes() {
        let delta = tiny_delta(37, 1).to_bytes();
        let study = topple_core::Study::run(WorldConfig::tiny(37)).expect("tiny study");
        let snapshot = crate::snapshot::encode_study(&study, "tiny", &[]);
        assert!(matches!(
            crate::Snapshot::from_bytes(&delta),
            Err(ContainerError::BadMagic {
                expected: crate::snapshot::MAGIC,
                found: MAGIC,
            })
        ));
        assert!(matches!(
            Delta::from_bytes(&snapshot),
            Err(ContainerError::BadMagic {
                expected: MAGIC,
                found: crate::snapshot::MAGIC,
            })
        ));
    }

    #[test]
    fn failed_write_keeps_the_previous_delta() {
        let dir = std::env::temp_dir().join(format!("tpld-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("d.tpld");
        let first = tiny_delta(38, 0);
        assert_eq!(first.write_to(&path).expect("first write"), first.id());
        let before = std::fs::read(&path).expect("readable");
        assert_eq!(before, first.to_bytes());
        // A directory squatting on the temporary name makes the next write
        // fail before it touches anything.
        std::fs::create_dir(dir.join("d.tpld.tmp")).expect("blocker");
        let err = tiny_delta(38, 1).write_to(&path).expect_err("must fail");
        assert!(matches!(err, ContainerError::Io(_)), "{err:?}");
        assert_eq!(std::fs::read(&path).expect("still readable"), before);
        assert_eq!(
            Delta::read_from(&path).expect("previous delta decodes"),
            first
        );
        assert!(
            dir.join("d.tpld.tmp").is_dir(),
            "a foreign entry is left alone"
        );
        std::fs::remove_dir_all(&dir).ok();
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
        // The day count is what a delta extends, so it is not compared.
        let longer = SnapshotIdentity {
            n_days: 28,
            ..base.clone()
        };
        assert!(d.identity().check_base(&longer).is_ok());
        for field in ["seed", "site count", "client count", "scale label"] {
            let mut other = base.clone();
            match field {
                "seed" => other.seed += 1,
                "site count" => other.n_sites += 1,
                "client count" => other.n_clients += 1,
                _ => other.scale.push('x'),
            }
            assert!(
                matches!(
                    d.identity().check_base(&other),
                    Err(ContainerError::BaseMismatch { context }) if context == field
                ),
                "{field}"
            );
        }
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
            Err(ContainerError::BaseMismatch { .. })
        ));
    }
}
