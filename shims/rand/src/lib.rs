//! Offline stand-in for the [`rand`](https://docs.rs/rand) crate.
//!
//! Implements the API subset KaPPa-rs uses — [`rngs::StdRng`] (backed by
//! xoshiro256++ with a SplitMix64 seeding routine), the [`Rng`] extension
//! methods `gen`, `gen_range` and `gen_bool`, [`SeedableRng::seed_from_u64`]
//! and [`seq::SliceRandom::shuffle`]. The streams differ from the real crate
//! (KaPPa only requires determinism for a fixed seed, not byte-compatible
//! sequences).

use std::ops::{Range, RangeInclusive};

pub mod rngs;
pub mod seq;

/// Core source of randomness: a stream of `u64`s.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Deterministic construction of a generator from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Creates a generator whose stream is a pure function of `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types that can be drawn uniformly from a generator (the shim's analogue of
/// sampling from the `Standard` distribution).
pub trait StandardSample {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl StandardSample for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl StandardSample for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardSample for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges a uniform value can be drawn from.
pub trait SampleRange<T> {
    /// Draws one value from `rng`; panics on an empty range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample from empty range");
                let span = ((end - start) as u64).wrapping_add(1);
                if span == 0 {
                    // Full-width inclusive range: every value is admissible.
                    return rng.next_u64() as $t;
                }
                start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

impl_sample_range_int!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_range_signed {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample from empty range");
                let span = (end.wrapping_sub(start) as u64).wrapping_add(1);
                if span == 0 {
                    return rng.next_u64() as $t;
                }
                start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}

impl_sample_range_signed!(i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample from empty range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "cannot sample from empty range");
        self.start + f32::sample(rng) * (self.end - self.start)
    }
}

/// Convenience extension methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a uniform value of type `T`.
    fn gen<T: StandardSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Draws a uniform value from `range`.
    fn gen_range<T, Ra: SampleRange<T>>(&mut self, range: Ra) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn full_width_inclusive_ranges_do_not_overflow() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let _: u64 = rng.gen_range(0u64..=u64::MAX);
            let _: usize = rng.gen_range(0usize..=usize::MAX);
            let _: u8 = rng.gen_range(0u8..=u8::MAX);
            let _: i64 = rng.gen_range(i64::MIN..=i64::MAX);
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = rng.gen_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(0u32..=4);
            assert!(y <= 4);
            let f = rng.gen_range(-0.5f64..0.5);
            assert!((-0.5..0.5).contains(&f));
            let u = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 100-element shuffle should not be identity");
    }
}
