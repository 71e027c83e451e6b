//! `Standard`, `Uniform` and range sampling.

use crate::{Rng, RngCore};
use std::ops::{Range, RangeInclusive};

/// Types that can produce values of `T` from a generator.
pub trait Distribution<T> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
}

/// The "natural" distribution of a type: all bit patterns for integers,
/// `[0, 1)` for floats.
#[derive(Clone, Copy, Debug)]
pub struct Standard;

impl Distribution<u32> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        rng.next_u32()
    }
}
impl Distribution<u64> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        rng.next_u64()
    }
}
impl Distribution<f64> for Standard {
    /// 53 high bits, scaled to `[0, 1)`.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}
impl Distribution<f32> for Standard {
    /// 24 high bits, scaled to `[0, 1)`.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Types `gen_range` and [`Uniform`] can sample.
pub trait SampleUniform: Sized + Copy + PartialOrd {
    /// One value from `[low, high)`, or `[low, high]` when `inclusive`.
    fn sample_between<R: RngCore + ?Sized>(
        low: Self,
        high: Self,
        inclusive: bool,
        rng: &mut R,
    ) -> Self;
}

/// Range syntax accepted by `Rng::gen_range`.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range: empty range");
        T::sample_between(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start() <= self.end(), "gen_range: empty range");
        T::sample_between(*self.start(), *self.end(), true, rng)
    }
}

// rand 0.8's integer sampler: widening multiply of one random word by the
// range, rejecting the low product above `zone` to remove the bias.
macro_rules! uniform_int {
    ($ty:ty, $unsigned:ty, $wide:ty, $draw:ident) => {
        impl SampleUniform for $ty {
            fn sample_between<R: RngCore + ?Sized>(
                low: Self,
                high: Self,
                inclusive: bool,
                rng: &mut R,
            ) -> Self {
                let high = if inclusive { high } else { high - 1 };
                let range = (high.wrapping_sub(low) as $unsigned).wrapping_add(1);
                if range == 0 {
                    return rng.$draw() as $ty;
                }
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                loop {
                    let v = rng.$draw() as $unsigned;
                    let wide = v as $wide * range as $wide;
                    let (hi, lo) = ((wide >> <$unsigned>::BITS) as $unsigned, wide as $unsigned);
                    if lo <= zone {
                        return low.wrapping_add(hi as $ty);
                    }
                }
            }
        }
    };
}
uniform_int!(u32, u32, u64, next_u32);
uniform_int!(usize, u64, u128, next_u64);

macro_rules! uniform_float {
    ($ty:ty) => {
        impl SampleUniform for $ty {
            fn sample_between<R: RngCore + ?Sized>(
                low: Self,
                high: Self,
                inclusive: bool,
                rng: &mut R,
            ) -> Self {
                let scale = high - low;
                assert!(scale.is_finite(), "uniform float range overflows");
                loop {
                    let unit: $ty = Standard.sample(rng);
                    let v = unit * scale + low;
                    if v < high || (inclusive && v <= high) {
                        return v;
                    }
                }
            }
        }
    };
}
uniform_float!(f32);
uniform_float!(f64);

/// A reusable uniform distribution over `[low, high)` or `[low, high]`.
#[derive(Clone, Copy, Debug)]
pub struct Uniform<T> {
    low: T,
    high: T,
    inclusive: bool,
}

impl<T: SampleUniform> Uniform<T> {
    pub fn new(low: T, high: T) -> Self {
        assert!(low < high, "Uniform::new called with `low >= high`");
        Uniform { low, high, inclusive: false }
    }

    pub fn new_inclusive(low: T, high: T) -> Self {
        assert!(low <= high, "Uniform::new_inclusive called with `low > high`");
        Uniform { low, high, inclusive: true }
    }
}

impl<T: SampleUniform> Distribution<T> for Uniform<T> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T {
        T::sample_between(self.low, self.high, self.inclusive, rng)
    }
}
