//! Epoch-2 batched draw primitives: block-filled uniform buffers.
//!
//! The scalar samplers in [`crate::rng`] interleave every draw with the RNG
//! core — each `chance` or `poisson` call steps xoshiro, and Knuth's Poisson
//! loop steps it `~λ` times. Epoch 2 decouples the two: a [`UniformBlock`]
//! fills a fixed slab of raw 64-bit words from the client's substream in one
//! tight loop, and the samplers consume words from the slab. A word maps to
//! a unit uniform by exactly the vendored-`rand` conversion
//! ([`crate::rng::unit_f64`]), so the block replays the substream's `f64`
//! sequence bit-for-bit — the property the proptests below pin ("same
//! substream ⇒ same bytes"). On top of the slab, the samplers take fixed
//! word counts: Poisson by single-uniform CDF inversion below `λ = 30` and
//! the continuity-corrected normal approximation above (the same split the
//! scalar sampler uses), and the alias draw by a branchless multiply-high
//! index instead of Lemire rejection.
//!
//! Leftover words at the end of a client scope are discarded by
//! [`UniformBlock::reset`]; substreams are independent, so dropping tail
//! words costs nothing but the fill.

use rand::rngs::SmallRng;
use rand::RngCore;

use crate::rng::{normal_from_uniforms, poisson_from_normal, poisson_from_uniform, unit_f64};

/// Words per refill. One cache-friendly slab amortizes the RNG-core calls;
/// 128 words cover a typical page load's draw budget several times over.
pub const BLOCK_WORDS: usize = 128;

/// A refillable slab of raw RNG words feeding the epoch-2 samplers.
///
/// The buffer is allocated once (inside `TrafficScratch`) and refilled in
/// place, keeping the traffic hot path allocation-free.
#[derive(Debug)]
pub struct UniformBlock {
    buf: Vec<u64>,
    pos: usize,
}

impl Default for UniformBlock {
    fn default() -> Self {
        Self::new()
    }
}

impl UniformBlock {
    /// Creates an empty block (first take triggers a refill).
    pub fn new() -> Self {
        UniformBlock {
            buf: vec![0; BLOCK_WORDS],
            pos: BLOCK_WORDS,
        }
    }

    /// Discards any unconsumed words, so the next take refills from the
    /// current stream. Call when switching substreams (new client scope).
    #[inline]
    pub fn reset(&mut self) {
        self.pos = self.buf.len();
    }

    /// Refills the slab from `rng` in one pass.
    fn refill(&mut self, rng: &mut SmallRng) {
        for slot in &mut self.buf {
            *slot = rng.next_u64();
        }
        self.pos = 0;
    }

    /// One raw 64-bit word.
    #[inline]
    pub fn take_word(&mut self, rng: &mut SmallRng) -> u64 {
        if self.pos == self.buf.len() {
            self.refill(rng);
        }
        let w = self.buf[self.pos];
        self.pos += 1;
        w
    }

    /// One unit uniform in `[0, 1)` — bit-identical to drawing `f64` from
    /// the same substream directly.
    #[inline]
    pub fn take_f64(&mut self, rng: &mut SmallRng) -> f64 {
        unit_f64(self.take_word(rng))
    }

    /// Bernoulli trial (one word).
    #[inline]
    pub fn take_chance(&mut self, rng: &mut SmallRng, p: f64) -> bool {
        self.take_f64(rng) < p
    }

    /// Uniform index in `0..n` via multiply-high (branchless; one word).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `n == 0`.
    #[inline]
    pub fn take_index(&mut self, rng: &mut SmallRng, n: usize) -> usize {
        debug_assert!(n > 0);
        let w = self.take_word(rng);
        // topple-lint: allow(lossy-cast): mulhi of a word by n is always < n, which fits usize
        ((u128::from(w) * n as u128) >> 64) as usize
    }

    /// Standard-normal deviate via Box–Muller (two words).
    #[inline]
    pub fn take_normal(&mut self, rng: &mut SmallRng) -> f64 {
        let u1 = self.take_f64(rng);
        let u2 = self.take_f64(rng);
        normal_from_uniforms(u1, u2)
    }

    /// Log-normal deviate (two words).
    #[inline]
    pub fn take_log_normal(&mut self, rng: &mut SmallRng, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.take_normal(rng)).exp()
    }

    /// Poisson sample: CDF inversion (one word) below `λ = 30`, normal
    /// approximation (two words) above — the scalar sampler's split.
    #[inline]
    pub fn take_poisson(&mut self, rng: &mut SmallRng, lambda: f64) -> u64 {
        debug_assert!(lambda >= 0.0);
        if lambda <= 0.0 {
            0
        } else if lambda < 30.0 {
            poisson_from_uniform(self.take_f64(rng), lambda)
        } else {
            poisson_from_normal(lambda, self.take_normal(rng))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{substream, Stream};
    use rand::Rng;

    #[test]
    fn block_replays_the_substream_words_exactly() {
        // Words through the block == words drawn directly, across several
        // refills and a mid-stream reset (reset discards the tail but the
        // refill boundary itself must not reorder anything).
        let mut via_block = substream(3, Stream::TrafficClient, 42);
        let mut direct = substream(3, Stream::TrafficClient, 42);
        let mut block = UniformBlock::new();
        for _ in 0..3 * BLOCK_WORDS {
            let w = block.take_word(&mut via_block);
            let d: u64 = direct.random();
            assert_eq!(w, d);
        }
    }

    #[test]
    fn take_f64_is_bit_identical_to_scalar_uniforms() {
        let mut via_block = substream(4, Stream::TrafficClient, 7);
        let mut direct = substream(4, Stream::TrafficClient, 7);
        let mut block = UniformBlock::new();
        for _ in 0..500 {
            let f = block.take_f64(&mut via_block);
            let d: f64 = direct.random();
            assert_eq!(f.to_bits(), d.to_bits());
        }
    }

    #[test]
    fn reset_discards_only_the_tail() {
        let mut rng = substream(5, Stream::TrafficClient, 0);
        let mut block = UniformBlock::new();
        let _ = block.take_word(&mut rng); // word 0 of block 1
        block.reset();
        // After reset the next take refills: it must continue the stream
        // (words BLOCK_WORDS..), not replay discarded buffer content.
        let next = block.take_word(&mut rng);
        let mut direct = substream(5, Stream::TrafficClient, 0);
        let expected = (0..=BLOCK_WORDS)
            .map(|_| direct.random::<u64>())
            .last()
            .unwrap_or(0);
        assert_eq!(next, expected);
    }

    #[test]
    fn take_index_is_uniform_and_in_range() {
        let mut rng = substream(6, Stream::TrafficClient, 1);
        let mut block = UniformBlock::new();
        let n = 10;
        let mut counts = [0u32; 10];
        let draws = 100_000;
        for _ in 0..draws {
            let i = block.take_index(&mut rng, n);
            assert!(i < n);
            counts[i] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let share = f64::from(c) / f64::from(draws);
            assert!((share - 0.1).abs() < 0.01, "index {i}: share {share}");
        }
    }

    #[test]
    fn batched_poisson_matches_scalar_moments() {
        let mut rng = substream(7, Stream::TrafficClient, 2);
        let mut block = UniformBlock::new();
        for lambda in [0.0, 1.0, 6.5, 29.9, 30.0, 120.0] {
            let n = 50_000;
            let samples: Vec<f64> = (0..n)
                .map(|_| {
                    // topple-lint: allow(lossy-cast): counts ~lambda fit f64 exactly
                    block.take_poisson(&mut rng, lambda) as f64
                })
                .collect();
            let mean = samples.iter().sum::<f64>() / f64::from(n);
            let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / f64::from(n);
            let tol = 0.05 + lambda * 0.015;
            assert!((mean - lambda).abs() < tol, "λ={lambda}: mean {mean}");
            if lambda > 0.0 {
                assert!((var / lambda - 1.0).abs() < 0.06, "λ={lambda}: var {var}");
            }
        }
    }

    #[test]
    fn batched_normal_matches_scalar_bits_on_aligned_streams() {
        // take_normal consumes two uniforms exactly like rng::normal; on the
        // same substream the outputs are bit-identical.
        let mut via_block = substream(8, Stream::TrafficClient, 3);
        let mut direct = substream(8, Stream::TrafficClient, 3);
        let mut block = UniformBlock::new();
        for _ in 0..200 {
            let a = block.take_normal(&mut via_block);
            let b = crate::rng::normal(&mut direct);
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
