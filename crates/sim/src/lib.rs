//! A deterministic synthetic web ecosystem.
//!
//! The paper's analyses consume privileged data: Cloudflare's server-side
//! request logs and Chrome's client telemetry. This crate is the substitution
//! that makes the study reproducible offline: a generative model of the web
//! with explicit ground truth, emitting the *same kinds of logs* those
//! parties hold.
//!
//! # Architecture
//!
//! * [`WorldConfig`] → [`World::generate`] builds the static universe:
//!   [`Site`]s (Zipf ground-truth popularity, categories, country/platform
//!   audience mixes, FQDNs, CDN hosting, third-party wiring), [`Client`]s
//!   (country, platform, browser, IP/NAT, resolver choice, panel and
//!   telemetry membership), and the hyperlink [`LinkGraph`].
//! * [`World::simulate_day_into`] streams one day of traffic — page loads
//!   with their HTTP request expansion, third-party fetches, and background
//!   DNS noise — into an [`EventSink`], one event at a time, with all
//!   per-day working state held in a reusable [`TrafficScratch`].
//!   [`World::simulate_day`] collects the same stream into a
//!   [`DayTraffic`], a test and inspection fixture. Days derive
//!   independent RNG substreams from `(seed, day)`, so simulation is
//!   reproducible and parallelizable.
//! * Observer crates (`topple-vantage`) fold these streams into the metrics
//!   the paper derives from Cloudflare and Chrome; ground-truth weights stay
//!   private to the generator.
//!
//! # Bias mechanisms modelled
//!
//! Every bias the paper reports has an explicit mechanism here: private
//! browsing hides adult traffic from extension panels; enterprise NAT and a
//! US-heavy customer base shape the Umbrella resolver's view; China-only
//! vantage shapes Secrank; link propensity shapes Majestic; opt-in Chrome
//! telemetry with a privacy threshold shapes CrUX; subresource-count
//! variation makes request-based metrics disagree with root-page loads.
//!
//! ```
//! use topple_sim::{World, WorldConfig};
//!
//! let world = World::generate(WorldConfig::tiny(42)).unwrap();
//! let day = world.simulate_day(0);
//! assert!(!day.page_loads.is_empty());
//! // Same seed, same traffic:
//! let again = World::generate(WorldConfig::tiny(42)).unwrap().simulate_day(0);
//! assert_eq!(day.page_loads.len(), again.page_loads.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alias;
pub mod batch;
pub mod budget;
pub mod client;
pub mod config;
pub mod date;
pub mod ids;
pub mod linkgraph;
pub mod namegen;
pub mod rng;
pub mod site;
pub mod soa;
pub mod taxonomy;
pub mod traffic;
pub mod world;

pub use batch::UniformBlock;
pub use budget::{vm_hwm_bytes, GenBudget};
pub use client::{Client, Resolver};
pub use config::{Mechanisms, WorldConfig};
pub use date::{Date, Weekday};
pub use ids::{ClientId, SiteId};
pub use linkgraph::LinkGraph;
pub use rng::{DETERMINISM_EPOCH, GENERATION_EPOCH, SUPPORTED_GEN_EPOCHS};
pub use site::{HostKind, Site, SiteHost};
pub use taxonomy::{Browser, Category, Country, Platform};
pub use traffic::{
    BackgroundQuery, CollectSink, DayTraffic, EventSink, PageLoad, ThirdPartyFetch, TrafficScratch,
};
pub use world::{World, WorldError};
