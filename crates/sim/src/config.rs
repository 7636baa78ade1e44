//! World configuration and scale presets.

use crate::date::Date;
use crate::rng::GENERATION_EPOCH;

/// Parameters of the synthetic web ecosystem.
///
/// The defaults model the paper's setting at a laptop-tractable scale; see
/// `DESIGN.md` §2 for the scale-substitution rationale. All experiments state
/// which preset they ran at.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Master seed; every random decision derives from it.
    pub seed: u64,
    /// Number of websites in the universe (the paper's ~1 M+, scaled).
    pub n_sites: usize,
    /// Number of simulated clients.
    pub n_clients: usize,
    /// Measurement window (default: February 1–28, 2022).
    pub days: Vec<Date>,
    /// Zipf exponent of ground-truth site popularity.
    pub zipf_exponent: f64,
    /// Log-space σ of multiplicative popularity noise.
    pub popularity_noise: f64,
    /// Baseline probability that a site is served by the Cloudflare-style CDN.
    pub cloudflare_share: f64,
    /// Mean page loads per client per day (log-normal across clients).
    pub mean_loads_per_day: f64,
    /// Fraction of Chrome users who opted into telemetry/history sync.
    pub chrome_optin_rate: f64,
    /// Fraction of desktop clients carrying the Alexa-style panel extension.
    pub alexa_panel_rate: f64,
    /// CrUX privacy threshold: minimum unique opted-in clients per origin and
    /// country before the origin may appear in a per-country list.
    pub crux_privacy_threshold: u32,
    /// Fraction of sites that are third-party infrastructure zones
    /// (analytics, ads, CDNs) fetched by other sites' pages.
    pub infrastructure_share: f64,
    /// Bias-mechanism toggles for counterfactual worlds (all on by default).
    pub mechanisms: Mechanisms,
    /// Worker threads for day simulation + shard construction **and** for
    /// the analysis-stage matrix fan-outs (consistency matrices, per-day
    /// list evaluation, temporal series, bias grids). `None` defers to the
    /// `TOPPLE_WORKERS` environment variable, then to the machine's
    /// available parallelism. Results are worker-count-invariant by
    /// construction (shard merges are associative and folded in day order;
    /// analysis folds collect by index); `tests/determinism.rs` pins that
    /// byte-for-byte.
    pub workers: Option<usize>,
    /// Optional pin on the generation epoch (see `rng::GENERATION_EPOCH`).
    /// There is one world generator, so the pin selects nothing:
    /// [`WorldConfig::validate`] accepts `None` or `Some(GENERATION_EPOCH)`
    /// and rejects any other value, so a caller that names an epoch learns
    /// when the generator moved past it.
    pub gen_epoch: Option<u32>,
    /// Sites/clients per generation shard. Purely a scheduling knob: entities are seeded from per-id substreams, so the
    /// generated bytes are identical for any shard size (pinned by
    /// `crates/sim/tests/worldgen.rs`). `None` picks a default that keeps
    /// per-worker scratch small.
    pub gen_shard: Option<usize>,
    /// Peak-resident byte budget for generation, enforced by the
    /// generator: construction fails up front when the `GenBudget` estimate
    /// exceeds it, instead of thrashing mid-build. `None` means unenforced
    /// (the estimate is still computed and reported).
    pub gen_budget_bytes: Option<u64>,
}

/// Switches for the individual bias mechanisms, enabling counterfactual
/// "what if this mechanism didn't exist" worlds (`topple-core::attribution`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mechanisms {
    /// Alexa Certify score inflation.
    pub certify: bool,
    /// Private browsing (hides traffic from panels and telemetry).
    pub private_browsing: bool,
    /// Panel demographic aversion to sensitive categories.
    pub panel_aversion: bool,
    /// Per-zone DNS TTL heterogeneity at the resolvers.
    pub dns_ttl_distortion: bool,
}

impl Default for Mechanisms {
    fn default() -> Self {
        Mechanisms {
            certify: true,
            private_browsing: true,
            panel_aversion: true,
            dns_ttl_distortion: true,
        }
    }
}

impl WorldConfig {
    /// Tiny world for unit and property tests (sub-second generation).
    pub fn tiny(seed: u64) -> Self {
        WorldConfig {
            seed,
            n_sites: 400,
            n_clients: 300,
            days: Date::new(2022, 2, 1).iter_days(7).collect(),
            ..WorldConfig::base()
        }
    }

    /// Small world for examples and integration tests (a few seconds).
    pub fn small(seed: u64) -> Self {
        WorldConfig {
            seed,
            n_sites: 4_000,
            n_clients: 2_000,
            ..WorldConfig::base()
        }
    }

    /// Medium world: the default for benchmark runs.
    pub fn medium(seed: u64) -> Self {
        WorldConfig {
            seed,
            n_sites: 20_000,
            n_clients: 8_000,
            ..WorldConfig::base()
        }
    }

    /// Full experiment scale used by `topple-experiments` (minutes).
    pub fn paper(seed: u64) -> Self {
        WorldConfig {
            seed,
            n_sites: 100_000,
            n_clients: 30_000,
            mean_loads_per_day: 40.0,
            ..WorldConfig::base()
        }
    }

    /// Large tier: the first rung past paper scale, and the scale of the
    /// benchmark's `worldgen-large` workload.
    pub fn large(seed: u64) -> Self {
        WorldConfig {
            seed,
            n_sites: 400_000,
            n_clients: 100_000,
            gen_budget_bytes: Some(4 << 30),
            ..WorldConfig::base()
        }
    }

    /// Web tier: ≥2M sites / 500k clients, the ROADMAP's first step toward
    /// the 10M-domain universe. Budget-enforced: the
    /// `GenBudget` estimate must fit [`gen_budget_bytes`] before a single
    /// site is built.
    ///
    /// [`gen_budget_bytes`]: WorldConfig::gen_budget_bytes
    pub fn web(seed: u64) -> Self {
        WorldConfig {
            seed,
            n_sites: 2_000_000,
            n_clients: 500_000,
            gen_budget_bytes: Some(12 << 30),
            ..WorldConfig::base()
        }
    }

    fn base() -> Self {
        WorldConfig {
            seed: 0,
            n_sites: 0,
            n_clients: 0,
            days: Date::study_window(),
            zipf_exponent: 1.03,
            popularity_noise: 0.35,
            cloudflare_share: 0.25,
            mean_loads_per_day: 30.0,
            chrome_optin_rate: 0.35,
            alexa_panel_rate: 0.02,
            crux_privacy_threshold: 3,
            infrastructure_share: 0.004,
            mechanisms: Mechanisms::default(),
            workers: None,
            gen_epoch: None,
            gen_shard: None,
            gen_budget_bytes: None,
        }
    }

    /// The effective generation shard size (entities per shard): the
    /// explicit [`gen_shard`] field if set (clamped to ≥ 1), else a default
    /// sized so per-worker scratch stays a small fraction of the world
    /// while shards remain plentiful enough to balance load. Never affects
    /// generated bytes.
    ///
    /// [`gen_shard`]: WorldConfig::gen_shard
    pub fn effective_gen_shard(&self) -> usize {
        self.gen_shard.unwrap_or(16_384).max(1)
    }

    /// The effective worker count for ingestion and analysis fan-outs: the
    /// explicit [`workers`] field if set, else the `TOPPLE_WORKERS`
    /// environment variable, else the machine's available parallelism —
    /// always at least 1. The knob only affects wall-clock time, never
    /// results.
    ///
    /// [`workers`]: WorldConfig::workers
    pub fn effective_workers(&self) -> usize {
        self.workers
            .or_else(|| {
                std::env::var("TOPPLE_WORKERS")
                    .ok()
                    .and_then(|v| v.parse().ok())
            })
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(2)
            })
            .max(1)
    }

    /// The paper's rank magnitudes {1K, 10K, 100K, 1M} mapped onto this
    /// world's universe size: `n/1000`, `n/100`, `n/10`, `n`.
    ///
    /// Returns `(label, k)` pairs, skipping magnitudes that would round to
    /// fewer than 10 sites.
    pub fn rank_magnitudes(&self) -> Vec<(&'static str, usize)> {
        let n = self.n_sites;
        [
            ("1K", n / 1000),
            ("10K", n / 100),
            ("100K", n / 10),
            ("1M", n),
        ]
        .into_iter()
        .filter(|&(_, k)| k >= 10)
        .collect()
    }

    /// Sanity-checks parameter ranges; called by `World::generate`.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_sites < 10 {
            return Err(format!("n_sites must be ≥ 10, got {}", self.n_sites));
        }
        if self.n_clients < 10 {
            return Err(format!("n_clients must be ≥ 10, got {}", self.n_clients));
        }
        if self.days.is_empty() {
            return Err("days must be non-empty".into());
        }
        for (name, v) in [
            ("cloudflare_share", self.cloudflare_share),
            ("chrome_optin_rate", self.chrome_optin_rate),
            ("alexa_panel_rate", self.alexa_panel_rate),
            ("infrastructure_share", self.infrastructure_share),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be in [0,1], got {v}"));
            }
        }
        if self.zipf_exponent <= 0.0 || self.mean_loads_per_day <= 0.0 {
            return Err("zipf_exponent and mean_loads_per_day must be positive".into());
        }
        if let Some(gen_epoch) = self.gen_epoch.filter(|&e| e != GENERATION_EPOCH) {
            return Err(format!(
                "generation epoch {gen_epoch} is not supported \
                 (the generator builds epoch {GENERATION_EPOCH})"
            ));
        }
        if self.gen_shard == Some(0) {
            return Err("gen_shard must be ≥ 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for cfg in [
            WorldConfig::tiny(1),
            WorldConfig::small(1),
            WorldConfig::medium(1),
            WorldConfig::paper(1),
            WorldConfig::large(1),
            WorldConfig::web(1),
        ] {
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn web_tier_is_budgeted() {
        let web = WorldConfig::web(1);
        assert!(web.n_sites >= 2_000_000 && web.n_clients >= 500_000);
        assert!(web.gen_budget_bytes.is_some(), "web tier must be budgeted");
    }

    #[test]
    fn gen_epoch_pin_accepts_only_the_current_epoch() {
        let mut cfg = WorldConfig::tiny(1);
        assert!(cfg.validate().is_ok());
        cfg.gen_epoch = Some(GENERATION_EPOCH);
        assert!(cfg.validate().is_ok());
        for retired_or_unknown in [1, 99] {
            cfg.gen_epoch = Some(retired_or_unknown);
            let err = cfg
                .validate()
                .expect_err("only the current epoch validates");
            assert!(
                err.contains(&format!("generation epoch {retired_or_unknown}")),
                "{err}"
            );
        }
    }

    #[test]
    fn gen_shard_is_clamped_and_validated() {
        let mut cfg = WorldConfig::tiny(1);
        assert!(cfg.effective_gen_shard() >= 1);
        cfg.gen_shard = Some(97);
        assert_eq!(cfg.effective_gen_shard(), 97);
        cfg.gen_shard = Some(0);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn magnitudes_scale_with_universe() {
        let cfg = WorldConfig::paper(1);
        assert_eq!(
            cfg.rank_magnitudes(),
            vec![
                ("1K", 100),
                ("10K", 1_000),
                ("100K", 10_000),
                ("1M", 100_000)
            ]
        );
        let tiny = WorldConfig::tiny(1);
        // 400 sites: 1K bucket would be 0 sites and 10K bucket 4; both skipped.
        assert_eq!(tiny.rank_magnitudes(), vec![("100K", 40), ("1M", 400)]);
    }

    #[test]
    fn explicit_worker_count_wins_and_is_clamped() {
        let mut cfg = WorldConfig::tiny(1);
        cfg.workers = Some(5);
        assert_eq!(cfg.effective_workers(), 5);
        // Zero is nonsensical; clamp to the sequential path.
        cfg.workers = Some(0);
        assert_eq!(cfg.effective_workers(), 1);
        cfg.workers = None;
        assert!(cfg.effective_workers() >= 1);
    }

    #[test]
    fn validation_catches_bad_params() {
        let mut cfg = WorldConfig::tiny(1);
        cfg.cloudflare_share = 1.5;
        assert!(cfg.validate().is_err());
        let mut cfg = WorldConfig::tiny(1);
        cfg.n_sites = 3;
        assert!(cfg.validate().is_err());
        let mut cfg = WorldConfig::tiny(1);
        cfg.days.clear();
        assert!(cfg.validate().is_err());
    }
}
