//! std-only stand-in for the part of `rand` 0.8 the seafl crates use.
//!
//! The benchmark builds the real `seafl-*` crates without a registry; this
//! crate is patched in for `rand` by `benchmark/Cargo.toml`. The generator
//! ([`chacha::ChaCha12Rng`]) is the real cipher with `rand_chacha`'s word
//! layout and `rand_core`'s PCG32 `seed_from_u64`, so word-position seeks
//! behave exactly as the seafl crates expect. The samplers follow rand
//! 0.8's algorithms where that is cheap but are not claimed bit-identical
//! to it: nothing here is compared against numbers from a registry build.

pub mod chacha;
pub mod distributions;
pub mod seq;

/// `rand::rngs`: `StdRng` is ChaCha12, as in rand 0.8.
pub mod rngs {
    pub type StdRng = crate::chacha::ChaCha12Rng;
}

use distributions::{Distribution, SampleRange, SampleUniform, Standard};

/// Source of random words.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Generators that can be built from a seed.
pub trait SeedableRng: Sized {
    type Seed: Sized + Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    /// `rand_core` 0.6's expansion: one PCG32 output per four seed bytes.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let x = xorshifted.rotate_right(rot);
            chunk.copy_from_slice(&x.to_le_bytes()[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// User-facing sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    fn gen<T>(&mut self) -> T
    where
        Standard: Distribution<T>,
    {
        Standard.sample(self)
    }

    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}
