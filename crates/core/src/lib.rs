//! The paper's evaluation framework — the primary contribution reproduced.
//!
//! Given a simulated world ([`topple_sim`]), its vantage observations
//! ([`topple_vantage`]), and the constructed top lists ([`topple_lists`]),
//! this crate runs every analysis in the paper's evaluation:
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Table 1 — Cloudflare coverage of top lists | [`coverage`] |
//! | Table 2 — PSL deviation per list | [`psl_dev`] |
//! | Table 3 — odds of inclusion by category | [`category`] |
//! | Figure 1 — intra-Cloudflare consistency (7 metrics) | [`consistency`] |
//! | Figure 2 — lists vs Cloudflare metrics | [`listeval`] |
//! | Figure 3 — daily temporal stability | [`temporal`] |
//! | Figure 4 — performance by client platform | [`bias`] |
//! | Figure 5 — rank-magnitude movement | [`movement`] |
//! | Figure 6 — intra-Chrome consistency | [`consistency`] |
//! | Figure 7 — performance by client country | [`bias`] |
//! | Figure 8 — all 21 filter-aggregations, single day | [`consistency`] |
//!
//! [`study::Study::run`] orchestrates the whole pipeline once (parallel day
//! generation, sequential ordered ingestion) and caches everything the
//! analyses need; the `topple-experiments` binary renders each artifact via
//! [`report`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod attribution;
pub mod bias;
pub mod category;
pub mod compare;
pub mod consistency;
pub mod coverage;
pub mod error;
pub mod index;
pub mod intext;
pub mod listeval;
pub mod manipulation;
pub mod methodology;
pub mod movement;
pub mod psl_dev;
pub mod report;
pub mod study;
pub mod temporal;

pub use compare::{
    jaccard_domains, similarity, similarity_ids, spearman_intersection, IdCut, ListSimilarity,
};
pub use error::CoreError;
pub use index::{ListColumns, StudyIndex};
pub use methodology::{against_cloudflare, against_cloudflare_ids, cf_subset, Evaluation};
pub use study::{observe_day_shards, Study, StudyPrefix};
