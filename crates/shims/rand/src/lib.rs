//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this shim provides
//! the exact API subset the workspace uses: [`rngs::StdRng`],
//! [`SeedableRng::seed_from_u64`], and the [`Rng`] extension methods
//! `gen_range` (over `Range<usize>` / `Range<f64>`), `gen_bool` and `gen`.
//!
//! The generator is **not** the upstream `StdRng` (ChaCha12); it is
//! xoshiro256++ seeded through SplitMix64. Every simulation result in this
//! repository is defined relative to this generator, which is deterministic,
//! portable and of more than sufficient statistical quality for Bernoulli
//! injection processes and uniform destination draws.

#![forbid(unsafe_code)]

use std::ops::Range;

/// Types that can be constructed from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose entire stream is determined by `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Random-value sampling, mirroring `rand::Rng`.
pub trait Rng {
    /// Advances the generator and returns 64 fresh bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform value in `[0, 1)` with 53 bits of precision.
    fn gen_f64(&mut self) -> f64 {
        // 53 high bits -> uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability must be in [0, 1]");
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.gen_f64() < p
    }

    /// Uniform sample from a half-open range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample(self)
    }
}

/// Ranges that can be sampled uniformly (the `rand` `SampleRange` analogue).
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

impl SampleRange<usize> for Range<usize> {
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> usize {
        assert!(self.start < self.end, "cannot sample an empty range");
        let span = (self.end - self.start) as u64;
        // Lemire-style rejection-free-enough bounded sampling: multiply-shift.
        // The bias for spans < 2^32 is far below anything observable here.
        let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
        self.start + hi as usize
    }
}

impl SampleRange<f64> for Range<f64> {
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample an empty range");
        self.start + (self.end - self.start) * rng.gen_f64()
    }
}

/// Concrete generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// Deterministic xoshiro256++ generator (offline `StdRng` stand-in).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            // SplitMix64 expansion of the 64-bit seed into the 256-bit state,
            // as recommended by the xoshiro authors.
            let mut sm = state;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng { s: [next(), next(), next(), next()] }
        }
    }

    impl StdRng {
        /// Returns the raw 256-bit xoshiro256++ state.
        ///
        /// Together with [`from_state`](Self::from_state) this allows a
        /// generator to be checkpointed and later resumed mid-stream: the
        /// restored generator produces exactly the remaining draws of the
        /// original stream.
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// Rebuilds a generator from a raw state captured by
        /// [`state`](Self::state).
        ///
        /// No seeding expansion is applied: the words are installed verbatim,
        /// so `from_state(r.state())` is a perfect clone of `r`.
        pub fn from_state(s: [u64; 4]) -> Self {
            StdRng { s }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(1);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "measured {rate}");
    }

    #[test]
    fn gen_range_usize_covers_and_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = rng.gen_range(0..10usize);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_range_f64_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = rng.gen_range(2.0..5.0);
            assert!((2.0..5.0).contains(&v));
        }
    }

    #[test]
    fn extreme_probabilities_short_circuit() {
        let mut rng = StdRng::seed_from_u64(4);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    /// xoshiro256++ seeded through SplitMix64, written from the authors'
    /// reference C (Blackman & Vigna) independently of the generator above:
    /// the first `n` outputs for `seed`.
    fn reference_stream(seed: u64, n: usize) -> Vec<u64> {
        // Spelled as the reference C spells it, not with the `rotate_left`
        // the generator under test uses.
        #[allow(clippy::manual_rotate)]
        fn rotl(x: u64, k: u32) -> u64 {
            (x << k) | (x >> (64 - k))
        }
        let mut x = seed;
        let mut s = [0u64; 4];
        for word in &mut s {
            x = x.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            *word = z ^ (z >> 31);
        }
        (0..n)
            .map(|_| {
                let result = rotl(s[0].wrapping_add(s[3]), 23).wrapping_add(s[0]);
                let t = s[1] << 17;
                s[2] ^= s[0];
                s[3] ^= s[1];
                s[1] ^= s[2];
                s[0] ^= s[3];
                s[2] ^= t;
                s[3] = rotl(s[3], 45);
                result
            })
            .collect()
    }

    /// Every golden in the workspace, and the integer Bernoulli test of the
    /// simulator's batched traffic draw, is defined against this stream.
    #[test]
    fn known_answers_pin_the_generator() {
        let known: [(u64, [u64; 8]); 2] = [
            (
                0,
                [
                    0x53175d61490b23df,
                    0x61da6f3dc380d507,
                    0x5c0fdf91ec9a7bfc,
                    0x02eebf8c3bbe5e1a,
                    0x7eca04ebaf4a5eea,
                    0x0543c37757f08d9a,
                    0xdb7490c75ab5026e,
                    0xd87343e6464bc959,
                ],
            ),
            (
                2015,
                [
                    0x6d335627880c16b6,
                    0x29253e2d9723f5c9,
                    0x805cae1b548ab3fc,
                    0x439544d3e6900c72,
                    0x2b151f5619045e17,
                    0x20a590b8a154aaf2,
                    0x607c31c27e0ba9dc,
                    0xbe7ed62bad21a90d,
                ],
            ),
        ];
        for (seed, expected) in known {
            assert_eq!(reference_stream(seed, 8), expected, "reference, seed {seed}");
            let mut rng = StdRng::seed_from_u64(seed);
            let stream: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
            assert_eq!(stream, expected, "seed {seed}");
            // `gen_f64` is the top 53 bits scaled by 2^-53, exactly.
            let mut rng = StdRng::seed_from_u64(seed);
            for x in expected {
                let unit = rng.gen_f64();
                assert_eq!(unit, (x >> 11) as f64 / 9_007_199_254_740_992.0);
                assert_eq!((unit * 9_007_199_254_740_992.0) as u64, x >> 11);
            }
        }
    }
}
