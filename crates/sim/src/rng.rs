//! Deterministic randomness: substream derivation and sampling primitives.
//!
//! Every random decision in the simulation derives from the world seed plus a
//! purpose tag, so that (a) full runs are reproducible bit-for-bit and (b) days
//! can be simulated independently — and therefore in parallel — without sharing
//! RNG state.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Version of the traffic determinism contract: the set and order of RNG
/// draws reachable from the result roots (`World::simulate_day_into`,
/// `Study::run`). The runtime generates traffic under this epoch only.
///
/// Bump this whenever the draw sequence changes — adding, removing, or
/// reordering any draw site listed in the `determinism.epoch.toml` manifest
/// — then regenerate the manifest with `topple-lint epoch emit --write` and
/// re-pin the snapshot digest in `tests/determinism.rs`. `topple-lint epoch
/// verify` fails CI when sources and manifest disagree.
///
/// Epoch history:
/// - **1** — per-client interleaved scalar draws from one per-day substream
///   (`Stream::Traffic`). Retired: epoch 2 had been the default since it
///   landed, and no default output depended on epoch 1.
/// - **2** — batched generation from per-`(day, client)` substreams
///   (`Stream::TrafficClient`) through block-filled uniform buffers
///   (`batch::UniformBlock`) and struct-of-arrays site/client tables
///   (`soa`). Distributionally equivalent to epoch 1, not byte-identical to
///   it; `crates/sim/tests/distributional.rs` checks its loads and shares
///   against the model's own expectations.
pub const DETERMINISM_EPOCH: u32 = 2;

/// Version of the *default* world-generation contract: which RNG draw
/// sequence `World::generate` follows when [`crate::config::WorldConfig`]
/// does not pin a generation epoch.
///
/// The generation dimension is independent of the traffic dimension above:
/// any generation epoch composes with the traffic epoch, because generation
/// and traffic consume disjoint [`Stream`] tags.
///
/// Generation-epoch history:
/// - **1** — sequential scalar construction from one substream per concern
///   (`Stream::Sites`, `Stream::Clients`, `Stream::Names`,
///   `Stream::ThirdParty`, `Stream::LinkGraph`). Kept alive as the frozen
///   reference: every committed experiments file and pinned snapshot digest
///   was produced under it, so it **remains the default** even though epoch
///   2 is newer (unlike `DETERMINISM_EPOCH`, which tracks the newest traffic
///   epoch).
/// - **2** — sharded parallel construction from per-entity substreams
///   (`Stream::GenSite(id)`, `Stream::GenClient(id)`,
///   `Stream::GenThirdParty(id)`, `Stream::GenLink(id)`): any contiguous id
///   shard can be built on any worker and spliced in id order, so the world
///   is byte-identical across worker counts and shard sizes. Selected by the
///   `large()`/`web()` tiers, `WorldConfig::gen_epoch`, or
///   `TOPPLE_GEN_EPOCH`. Distributionally equivalent to epoch 1, not
///   byte-identical to it.
pub const GENERATION_EPOCH: u32 = 1;

/// Every generation epoch the runtime can still build worlds under. The
/// default ([`GENERATION_EPOCH`]) is the *first* entry: the frozen reference
/// epoch keeps the committed byte pins valid, and newer epochs opt in per
/// tier.
pub const SUPPORTED_GEN_EPOCHS: &[u32] = &[1, 2];

/// Domain-separation tags for RNG substreams.
///
/// Adding a new consumer of randomness means adding a tag here, keeping every
/// stream independent of insertion order elsewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum Stream {
    /// Site attribute generation.
    Sites = 1,
    /// Client population generation.
    Clients = 2,
    /// Hyperlink graph generation.
    LinkGraph = 3,
    /// Per-day traffic of the retired traffic epoch 1. No generator draws
    /// from it any more; the tag stays reserved so no stream reuses it.
    Traffic = 4,
    /// Domain name synthesis.
    Names = 5,
    /// Third-party dependency wiring.
    ThirdParty = 6,
    /// Per-`(day, client)` traffic: the index packs `day << 32 | client`,
    /// making every client's day order-independent of every other client's.
    TrafficClient = 7,
    /// Per-site attribute generation under generation epoch ≥ 2: one
    /// substream per site id, so any shard of the id range can be built on
    /// any worker independently.
    GenSite = 8,
    /// Per-client generation under generation epoch ≥ 2 (index = client id).
    GenClient = 9,
    /// Per-site third-party dependency wiring under generation epoch ≥ 2.
    GenThirdParty = 10,
    /// Per-site outbound-link generation under generation epoch ≥ 2.
    GenLink = 11,
}

/// Derives an independent RNG for `(seed, stream, index)`.
///
/// Uses SplitMix64 over the packed key, which is a standard way to turn
/// correlated integer keys into independent seeds.
pub fn substream(seed: u64, stream: Stream, index: u64) -> SmallRng {
    let mut z = seed
        // topple-lint: allow(lossy-cast): Stream is repr(u64); the cast reads its discriminant losslessly
        ^ (stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    // Two SplitMix64 rounds.
    for _ in 0..2 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    SmallRng::seed_from_u64(z)
}

/// Maps one raw RNG word onto `[0, 1)` exactly the way the vendored
/// `rand::random::<f64>()` does (53 high bits → unit interval). Feeding a
/// substream's words through this yields bit-identical values to drawing
/// `f64`s from the same substream directly — the property the epoch-2
/// block-filled buffers rely on (proptested in `batch`).
#[inline]
pub fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Standard-normal deviate from two unit uniforms via Box–Muller.
///
/// Pure transform shared by the scalar [`normal`] and the epoch-2 batched
/// path: same inputs, same bits out.
#[inline]
pub fn normal_from_uniforms(u1: f64, u2: f64) -> f64 {
    // Avoid ln(0) by flooring the uniform away from zero.
    let u1 = u1.max(1e-300);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Standard-normal sample via Box–Muller.
pub fn normal(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.random();
    let u2: f64 = rng.random();
    normal_from_uniforms(u1, u2)
}

/// Log-normal sample with the given log-space mean and standard deviation.
pub fn log_normal(rng: &mut SmallRng, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * normal(rng)).exp()
}

/// Poisson sample. Uses Knuth's product method for small `lambda` and a
/// normal approximation (continuity-corrected) for large `lambda`.
pub fn poisson(rng: &mut SmallRng, lambda: f64) -> u64 {
    debug_assert!(lambda >= 0.0);
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.random::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
            if k > 10_000 {
                return k; // numerical guard; unreachable for lambda < 30
            }
        }
    }
    poisson_from_normal(lambda, normal(rng))
}

/// Large-`lambda` Poisson via the continuity-corrected normal approximation:
/// the pure tail of [`poisson`], shared with the epoch-2 batched path.
#[inline]
pub fn poisson_from_normal(lambda: f64, z: f64) -> u64 {
    let x = lambda + lambda.sqrt() * z + 0.5;
    if x < 0.0 {
        0
    } else {
        // topple-lint: allow(lossy-cast): x is non-negative (guarded above) and ~lambda in magnitude
        x as u64
    }
}

/// Small-`lambda` Poisson by CDF inversion of a single unit uniform.
///
/// This is the epoch-2 counterpart of [`poisson`]'s Knuth product loop: one
/// uniform instead of `~lambda` of them, same distribution (the inverse-CDF
/// of a discrete variable is exact). Only valid for `lambda < 30` — beyond
/// that `exp(-lambda)` underflows toward the f64 floor and the epoch-2 path
/// switches to [`poisson_from_normal`], exactly like the scalar sampler.
#[inline]
pub fn poisson_from_uniform(u: f64, lambda: f64) -> u64 {
    debug_assert!((0.0..30.0).contains(&lambda));
    if lambda <= 0.0 {
        return 0;
    }
    let mut p = (-lambda).exp();
    let mut cdf = p;
    let mut k = 0u64;
    while u >= cdf {
        k += 1;
        if k > 10_000 {
            return k; // numerical guard; unreachable for lambda < 30
        }
        p *= lambda / k as f64;
        cdf += p;
    }
    k
}

/// Bernoulli trial.
#[inline]
pub fn chance(rng: &mut SmallRng, p: f64) -> bool {
    rng.random::<f64>() < p
}

/// Zipf weights `(i+1)^(-s)` for `n` items, highest first, unnormalized.
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    (0..n).map(|i| zipf_weight(i, s)).collect()
}

/// The single Zipf weight `(rank+1)^(-s)` — the per-item form of
/// [`zipf_weights`], used by the sharded generator so a worker can compute
/// any site's base weight without materializing the full vector.
#[inline]
pub fn zipf_weight(rank: usize, s: f64) -> f64 {
    ((rank + 1) as f64).powf(-s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substreams_are_deterministic_and_distinct() {
        let mut a1 = substream(42, Stream::Sites, 0);
        let mut a2 = substream(42, Stream::Sites, 0);
        let mut b = substream(42, Stream::Clients, 0);
        let mut c = substream(42, Stream::Sites, 1);
        let va1: u64 = a1.random();
        let va2: u64 = a2.random();
        let vb: u64 = b.random();
        let vc: u64 = c.random();
        assert_eq!(va1, va2);
        assert_ne!(va1, vb);
        assert_ne!(va1, vc);
    }

    #[test]
    fn normal_moments() {
        let mut rng = substream(7, Stream::Traffic, 0);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn poisson_moments_small_lambda() {
        let mut rng = substream(9, Stream::Traffic, 1);
        let lambda = 4.5;
        let n = 100_000;
        let mean = (0..n)
            .map(|_| poisson(&mut rng, lambda) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - lambda).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn poisson_moments_large_lambda() {
        let mut rng = substream(9, Stream::Traffic, 2);
        let lambda = 120.0;
        let n = 50_000;
        let mean = (0..n)
            .map(|_| poisson(&mut rng, lambda) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - lambda).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn poisson_zero_lambda() {
        let mut rng = substream(9, Stream::Traffic, 3);
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }

    #[test]
    fn log_normal_median() {
        let mut rng = substream(11, Stream::Traffic, 4);
        let n = 100_000;
        let mut samples: Vec<f64> = (0..n).map(|_| log_normal(&mut rng, 2.0, 0.8)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[n / 2];
        // Median of log-normal = e^mu.
        assert!((median - 2.0f64.exp()).abs() < 0.2, "median {median}");
    }

    #[test]
    fn poisson_large_lambda_variance_and_floor() {
        // The normal-approximation branch must keep the second moment, not
        // just the mean, and its continuity correction must never produce a
        // negative count even deep in the left tail.
        let mut rng = substream(13, Stream::Traffic, 5);
        let lambda = 250.0;
        let n = 50_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| {
                // topple-lint: allow(lossy-cast): counts ~lambda fit f64 exactly
                poisson(&mut rng, lambda) as f64
            })
            .collect();
        let mean = samples.iter().sum::<f64>() / f64::from(n);
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / f64::from(n);
        assert!((mean - lambda).abs() < 2.0, "mean {mean}");
        assert!((var / lambda - 1.0).abs() < 0.05, "variance {var}");
        assert_eq!(poisson_from_normal(1.0, -100.0), 0, "tail must clamp at 0");
    }

    #[test]
    fn log_normal_sigma_zero_is_deterministic_exp_mu() {
        // σ → 0 collapses the distribution to the point mass e^mu; the
        // sampler must still consume its normal draw (the epoch contract
        // fixes the draw sequence regardless of parameter values).
        let mut rng = substream(14, Stream::Traffic, 6);
        for _ in 0..1000 {
            let x = log_normal(&mut rng, 3.0, 0.0);
            assert!((x - 3.0f64.exp()).abs() < 1e-12, "got {x}");
        }
    }

    #[test]
    fn normal_tail_bounds() {
        // Box–Muller over 53-bit uniforms is bounded: |z| <= sqrt(-2 ln u1)
        // with u1 floored at 1e-300, so ~37.2 absolute worst case. Over 2e5
        // draws the empirical max should sit in the (3.8, 7.5) band —
        // reaching genuine tail values without ever exceeding what the
        // uniform resolution allows.
        let mut rng = substream(15, Stream::Traffic, 7);
        let max_abs = (0..200_000)
            .map(|_| normal(&mut rng).abs())
            .fold(0.0f64, f64::max);
        assert!(max_abs > 3.8, "tails never reached: max |z| = {max_abs}");
        assert!(max_abs < 7.5, "implausible outlier: max |z| = {max_abs}");
    }

    #[test]
    fn poisson_inversion_matches_product_method_moments() {
        // Same distribution from one uniform (the traffic sampler) as from
        // Knuth's product loop (the scalar `poisson`), checked on mean and
        // variance.
        let mut rng = substream(16, Stream::Traffic, 8);
        let lambda = 6.5;
        let n = 100_000;
        let inv: Vec<f64> = (0..n)
            .map(|_| {
                // topple-lint: allow(lossy-cast): small counts fit f64 exactly
                poisson_from_uniform(rng.random(), lambda) as f64
            })
            .collect();
        let mean = inv.iter().sum::<f64>() / f64::from(n);
        let var = inv.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / f64::from(n);
        assert!((mean - lambda).abs() < 0.05, "mean {mean}");
        assert!((var / lambda - 1.0).abs() < 0.05, "variance {var}");
        assert_eq!(poisson_from_uniform(0.0, 5.0), 0, "u=0 is the CDF floor");
        assert_eq!(poisson_from_uniform(0.5, 0.0), 0, "λ=0 degenerates to 0");
    }

    #[test]
    fn unit_f64_matches_vendored_uniform_bits() {
        // The word→f64 map must be bit-identical to random::<f64>() on the
        // same substream; this is what lets the epoch-2 block buffer replay
        // the scalar uniform stream exactly.
        let mut words = substream(17, Stream::TrafficClient, 9);
        let mut direct = substream(17, Stream::TrafficClient, 9);
        for _ in 0..1000 {
            let w: u64 = words.random();
            let f: f64 = direct.random();
            assert_eq!(unit_f64(w).to_bits(), f.to_bits());
        }
    }

    #[test]
    fn gen_epoch_constants_are_consistent() {
        // The generation default is the *frozen* epoch (pinned outputs are
        // keyed to it), but it must always be a live, supported epoch.
        assert!(SUPPORTED_GEN_EPOCHS.contains(&GENERATION_EPOCH));
        assert!(SUPPORTED_GEN_EPOCHS.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn gen_streams_are_distinct_per_entity() {
        let mut a: SmallRng = substream(42, Stream::GenSite, 7);
        let mut b: SmallRng = substream(42, Stream::GenSite, 8);
        let mut c: SmallRng = substream(42, Stream::GenClient, 7);
        let mut d: SmallRng = substream(42, Stream::GenLink, 7);
        let (va, vb, vc, vd): (u64, u64, u64, u64) =
            (a.random(), b.random(), c.random(), d.random());
        assert_ne!(va, vb);
        assert_ne!(va, vc);
        assert_ne!(va, vd);
        assert_ne!(vc, vd);
    }

    #[test]
    fn zipf_weight_matches_the_vector_form() {
        let v = zipf_weights(64, 1.03);
        for (i, &w) in v.iter().enumerate() {
            assert_eq!(w.to_bits(), zipf_weight(i, 1.03).to_bits());
        }
    }

    #[test]
    fn zipf_weights_shape() {
        let w = zipf_weights(100, 1.0);
        assert_eq!(w.len(), 100);
        assert!((w[0] - 1.0).abs() < 1e-12);
        assert!((w[9] - 0.1).abs() < 1e-12);
        assert!(w.windows(2).all(|p| p[0] > p[1]));
    }
}
