//! Observer vantage points over the simulated traffic stream.
//!
//! Each vantage sees only what its real-world counterpart could see:
//!
//! * [`cloudflare::CdnVantage`] — server-side request logs for the ~quarter of
//!   sites the CDN proxies, folded into the paper's 21 filter × aggregation
//!   popularity metrics (Section 3).
//! * [`dns::DnsVantage`] — the two resolvers that publish popularity data: the
//!   Umbrella-style enterprise resolver and the Chinese resolver feeding
//!   Secrank. Counts queries and unique client IPs per *queried name*.
//! * [`crawler::CrawlerVantage`] — a link-graph crawler counting referring
//!   domains (Majestic's signal).
//! * [`panel::PanelVantage`] — the browser-extension panel behind the
//!   Alexa-style list (small, desktop-skewed, blind to private browsing).
//! * [`chrome::ChromeVantage`] — opt-in browser telemetry: initiated loads,
//!   completed loads, and time-on-site per (country, platform), plus the
//!   origin-aggregated global view behind the public CrUX list.
//!
//! All vantages share the same shape: observe a day of traffic into a pure,
//! mergeable per-day [`Shard`] ([`shard`] module), then fold shards into the
//! vantage's accumulators in day order with its `ingest_shard`. Shard
//! *construction* is order-independent and safe to parallelize;
//! order-sensitive state (the DNS TTL gate, day-indexed storage) lives only
//! in the sequential `ingest_shard` folds. None of the vantages reads
//! ground-truth site weights.
//!
//! Shards are built in one place: [`fused::DayScratch::observe_day`]
//! observes every event for all five vantages as the simulator generates
//! it, with per-day working state held in reusable epoch-stamped scratch
//! ([`scratch`] module). The tests check it against a replay of the
//! collected day through the same observer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod cloudflare;
pub mod crawler;
pub mod dns;
pub mod fused;
pub mod metrics;
pub mod panel;
pub mod scratch;
pub mod shard;
pub mod wire;

pub use chrome::{ChromeMetric, ChromeShard, ChromeVantage, TELEMETRY_PLATFORMS};
pub use cloudflare::{CdnShard, CdnVantage, CfAgg, CfFilter, CfMetric};
pub use crawler::CrawlerVantage;
pub use dns::{DnsShard, DnsVantage, QueriedName};
pub use fused::{DayScratch, FusedObserver};
pub use metrics::{ranked_site_ids, ranked_sites, ScoreVec};
pub use panel::{PanelShard, PanelVantage};
pub use shard::{DayShards, Shard};
