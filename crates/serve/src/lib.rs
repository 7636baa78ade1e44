//! Snapshot store and HTTP query daemon over the columnar study index.
//!
//! A completed [`Study`](topple_core::Study) is expensive — minutes at paper
//! scale — but the questions asked of it afterwards ("where does this domain
//! rank on Tranco?", "how similar are Alexa and Umbrella at 10K?") are
//! point-lookups over the already-built columnar index. This crate splits
//! the two: [`snapshot`] persists a study's [`StudyIndex`], magnitudes, and
//! rendered report artifacts into one versioned, CRC-checksummed binary file
//! (the [`frame`] that [`delta`] day-deltas share),
//! and [`server`] serves rank/compare/movement queries from a loaded snapshot
//! over plain HTTP/1.1 — a readiness-based event loop ([`reactor`]: a thin
//! dependency-free epoll wrapper) with keep-alive pipelining and a
//! pre-rendered hot-response cache; no async runtime, no new dependencies.
//!
//! The determinism doctrine extends over the wire: for a given snapshot,
//! every response body except `/v1/metrics` is byte-for-byte identical
//! regardless of worker count, request interleaving, or process restarts.
//! Workers share the snapshot as an immutable `Arc` — reads take no locks —
//! and the compare cache is keyed purely by request parameters, so a cache
//! hit returns the same bytes a miss would have computed.
//!
//! [`StudyIndex`]: topple_core::StudyIndex

#![deny(unsafe_code)]

pub mod delta;
pub mod error;
pub mod frame;
pub mod http;
pub mod live;
pub mod lru;
pub mod metrics;
pub mod mmap;
pub mod query;
pub mod reactor;
pub mod server;
pub mod signal;
pub mod snapshot;

pub use delta::{Delta, DeltaIdentity};
pub use error::{ContainerError, LiveError, ServeError};
pub use live::{LiveEngine, LiveStore};
pub use mmap::MappedBytes;
pub use query::QuerySnapshot;
pub use server::{DrainStats, Server};
pub use snapshot::{encode_study, write_study, Snapshot, SnapshotIdentity};
