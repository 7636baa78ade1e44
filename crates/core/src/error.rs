//! The analysis layer's typed error.
//!
//! Every fallible figure/table function returns [`CoreError`] instead of
//! panicking: a failed analysis must not abort a study that other analyses
//! could still complete, and `topple-lint` denies `unwrap`/`expect`/`panic!`
//! throughout the library crates.

use std::fmt;

use topple_lists::ListSource;
use topple_sim::WorldError;
use topple_stats::StatsError;
use topple_vantage::wire::WireError;

/// Anything that stops an analysis from producing its figure or table.
#[derive(Debug)]
pub enum CoreError {
    /// The study window holds no ingested days.
    EmptyWindow,
    /// An evaluation was asked about a list it does not contain.
    MissingList(ListSource),
    /// A statistics kernel rejected its input.
    Stats(StatsError),
    /// Re-running the world for a scenario failed.
    World(WorldError),
    /// Day-shard ingestion was handed shards that do not form a contiguous
    /// window starting at day 0 of the world, or whose five vantage shards
    /// disagree about which days they cover.
    ShardWindow {
        /// Which invariant failed.
        context: &'static str,
    },
    /// Day-shard ingestion was handed shards that name sites, hosts,
    /// clients or background names the world does not have.
    ShardIds(WireError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::EmptyWindow => write!(f, "the study window has no ingested days"),
            CoreError::MissingList(src) => write!(f, "list {src} absent from the evaluation"),
            CoreError::Stats(e) => write!(f, "statistics kernel failed: {e}"),
            CoreError::World(e) => write!(f, "world generation failed: {e}"),
            CoreError::ShardWindow { context } => {
                write!(f, "day-shard window invalid: {context}")
            }
            CoreError::ShardIds(e) => write!(f, "day shards do not fit the world: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Stats(e) => Some(e),
            CoreError::World(e) => Some(e),
            CoreError::ShardIds(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StatsError> for CoreError {
    fn from(e: StatsError) -> Self {
        CoreError::Stats(e)
    }
}

impl From<WorldError> for CoreError {
    fn from(e: WorldError) -> Self {
        CoreError::World(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_converts() {
        let e: CoreError = StatsError::ZeroVariance.into();
        assert!(e.to_string().contains("statistics kernel"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(CoreError::EmptyWindow
            .to_string()
            .contains("no ingested days"));
        let m = CoreError::MissingList(ListSource::Alexa).to_string();
        assert!(m.to_lowercase().contains("alexa"));
    }
}
