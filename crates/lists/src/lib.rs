//! The seven top-list construction methodologies and the list data model.
//!
//! Every list the paper evaluates is built here from the corresponding
//! vantage's output, using its published (or published-as-far-as-known)
//! methodology:
//!
//! | List | Builder | Input vantage | Signal |
//! |---|---|---|---|
//! | Alexa | [`alexa::build_daily`] | extension panel | avg daily visitors × pageviews |
//! | Umbrella | [`umbrella::build_daily`] | Umbrella resolver | unique client IPs per queried name |
//! | Majestic | [`majestic::build`] | crawler | distinct referring domains |
//! | Secrank | [`secrank::build`] | China resolver | diversity-weighted IP voting |
//! | Tranco | [`tranco::build`] | other lists | Dowdall rule over a 30-day window |
//! | Trexa | [`trexa::build`] | Tranco + Alexa | weighted interleave |
//! | CrUX | [`crux::build`] | Chrome telemetry | completed loads, origin buckets |
//!
//! Lists are plain name strings ([`RankedList`] / [`BucketedList`]) — they
//! carry no simulator identifiers, so the evaluation in `topple-core` can
//! only compare them the way the paper could: through PSL normalization
//! ([`mod@normalize`]) and name intersection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alexa;
pub mod crux;
pub mod interner;
pub mod majestic;
pub mod model;
pub mod normalize;
pub mod secrank;
pub mod stability;
pub mod tranco;
pub mod trexa;
pub mod umbrella;

pub use interner::{DomainId, DomainTable};
pub use model::{
    BucketedEntry, BucketedList, ListParseError, ListSource, RankedEntry, RankedList, TopList,
};
pub use normalize::{
    normalize, normalize_bucketed, normalize_ranked, NormalizedColumns, NormalizedList, Normalizer,
    NormalizerMemo,
};
pub use stability::{stability, StabilityReport};
