//! # rand — offline stand-in for the `rand` crate
//!
//! The build container has no network access to crates.io, so the workspace
//! vendors the *minimal* slice of the `rand 0.8` API its own code uses:
//! [`rngs::StdRng`], [`SeedableRng::seed_from_u64`], and the [`Rng`]
//! extension methods `gen`, `gen_range`, and `gen_bool`. Import paths match
//! the real crate so swapping the registry version back in later is a
//! one-line `Cargo.toml` change.
//!
//! The generator is **xoshiro256++** seeded through SplitMix64 — not the
//! ChaCha12 core of upstream `StdRng`, so *streams differ from upstream for
//! the same seed*. Nothing in this workspace depends on the exact stream,
//! only on determinism (same seed ⇒ same sequence) and on sound statistical
//! behaviour, both of which xoshiro256++ provides.

#![forbid(unsafe_code)]

/// A source of 64-bit random words.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits (upper half of [`Self::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Deterministic construction from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be drawn uniformly from an `Rng` (the `Standard`
/// distribution of the real crate, folded into a single trait).
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

/// Ranges a value can be drawn uniformly from.
pub trait SampleRange {
    /// The element type produced.
    type Output;

    /// Draws one value from the range.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for std::ops::Range<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange for std::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start() <= self.end(), "cannot sample from empty range");
                let span = (*self.end() as i128 - *self.start() as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (*self.start() as i128 + v as i128) as $t
            }
        }
    )*};
}

int_range!(i32, i64, u32, u64, usize);

impl SampleRange for std::ops::Range<f32> {
    type Output = f32;
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        self.start + f32::sample(rng) * (self.end - self.start)
    }
}

impl SampleRange for std::ops::Range<f64> {
    type Output = f64;
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

/// Convenience methods over any [`RngCore`], mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Draws a value of type `T` (uniform floats in `[0, 1)`, fair bools,
    /// full-range integers).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws uniformly from `range`.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    fn gen_range<Rg: SampleRange>(&mut self, range: Rg) -> Rg::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    //! Concrete generators (mirrors `rand::rngs`).

    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    ///
    /// Seeded through SplitMix64 so that every `u64` seed — including 0 —
    /// yields a well-mixed internal state.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, the reference seeding procedure for
            // the xoshiro family.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            Self {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
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
        for _ in 0..64 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f32_samples_live_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = rng.gen::<f32>();
            assert!((0.0..1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn f32_mean_is_near_half() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.gen::<f32>() as f64).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            let v = rng.gen_range(0..4);
            assert!((0..4).contains(&v));
            let w = rng.gen_range(3u32..=7);
            assert!((3..=7).contains(&w));
            let f = rng.gen_range(-2.0f32..2.0);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = StdRng::seed_from_u64(6);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn bool_samples_are_fair() {
        let mut rng = StdRng::seed_from_u64(8);
        let trues = (0..100_000).filter(|_| rng.gen::<bool>()).count();
        assert!((trues as f64 / 100_000.0 - 0.5).abs() < 0.01);
    }
}
