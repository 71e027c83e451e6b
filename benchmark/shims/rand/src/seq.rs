//! Slice shuffling and sampling.

use crate::Rng;

/// Index below `ubound`, drawn from a `u32` when it fits (rand 0.8 does
/// the same, so a shuffle consumes one word per element on small slices).
fn gen_index<R: Rng + ?Sized>(rng: &mut R, ubound: usize) -> usize {
    if ubound <= u32::MAX as usize {
        rng.gen_range(0..ubound as u32) as usize
    } else {
        rng.gen_range(0..ubound)
    }
}

pub trait SliceRandom {
    type Item;

    /// Fisher–Yates, from the back.
    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

    /// `amount` distinct elements (all of them if the slice is shorter), in
    /// random order.
    fn choose_multiple<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        amount: usize,
    ) -> std::vec::IntoIter<&Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            self.swap(i, gen_index(rng, i + 1));
        }
    }

    fn choose_multiple<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        amount: usize,
    ) -> std::vec::IntoIter<&T> {
        let amount = amount.min(self.len());
        // Partial Fisher–Yates over the index set.
        let mut indices: Vec<usize> = (0..self.len()).collect();
        for i in 0..amount {
            let j = i + gen_index(rng, self.len() - i);
            indices.swap(i, j);
        }
        indices.truncate(amount);
        indices.into_iter().map(|i| &self[i]).collect::<Vec<_>>().into_iter()
    }
}
