//! Parallel iterators: a splittable source, `enumerate`, `map`, and the
//! terminal `for_each` / `collect`.

use crate::pool::{effective_width, run_pieces};
use std::sync::Mutex;

/// Pieces cut per thread. Many more than one, so that a cohort of a few
/// coarse jobs is handed out job by job (the last thread to finish waits for
/// at most one job), while a scan over a million items is still only a few
/// dozen pieces.
const PIECES_PER_THREAD: usize = 16;

/// A finite source of items that can be cut at any index and walked
/// sequentially. Every adapter keeps input order.
pub trait ParallelIterator: Sized + Send {
    type Item: Send;
    type Seq: Iterator<Item = Self::Item>;

    fn len(&self) -> usize;
    /// `(first mid items, the rest)`.
    fn split_at(self, mid: usize) -> (Self, Self);
    fn into_seq(self) -> Self::Seq;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self, offset: 0 }
    }

    fn map<F, R>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync + Send,
        R: Send,
    {
        Map { base: self, f }
    }

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        drive(self, &|seq: Self::Seq| seq.for_each(&f));
    }
}

/// Cut `source` into pieces, run `work` on each (in parallel when the
/// current pool is wider than one thread) and return the results in input
/// order.
fn drive<P: ParallelIterator, R: Send>(source: P, work: &(dyn Fn(P::Seq) -> R + Sync)) -> Vec<R> {
    let len = source.len();
    let pieces = match effective_width() {
        1 => 1,
        width => len.min(width * PIECES_PER_THREAD),
    };
    if pieces <= 1 {
        return vec![work(source.into_seq())];
    }
    let mut inputs = Vec::with_capacity(pieces);
    let mut rest = source;
    for i in 0..pieces - 1 {
        // Piece i covers [i·len/pieces, (i+1)·len/pieces).
        let size = (i + 1) * len / pieces - i * len / pieces;
        let (head, tail) = rest.split_at(size);
        inputs.push(Mutex::new(Some(head)));
        rest = tail;
    }
    inputs.push(Mutex::new(Some(rest)));
    let outputs: Vec<Mutex<Option<R>>> = (0..pieces).map(|_| Mutex::new(None)).collect();
    run_pieces(pieces, &|i| {
        let piece = inputs[i]
            .lock()
            .expect("piece slot is locked once, by its claimant")
            .take()
            .expect("each piece is claimed exactly once");
        let result = work(piece.into_seq());
        *outputs[i].lock().expect("result slot is locked once, by its claimant") = Some(result);
    });
    outputs
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot is not poisoned: piece panics are re-raised before this")
                .expect("run_pieces returned, so every piece stored its result")
        })
        .collect()
}

pub struct Enumerate<P> {
    base: P,
    offset: usize,
}

impl<P: ParallelIterator> ParallelIterator for Enumerate<P> {
    type Item = (usize, P::Item);
    type Seq = std::iter::Zip<std::ops::RangeFrom<usize>, P::Seq>;

    fn len(&self) -> usize {
        self.base.len()
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(mid);
        (
            Enumerate { base: a, offset: self.offset },
            Enumerate { base: b, offset: self.offset + mid },
        )
    }

    fn into_seq(self) -> Self::Seq {
        (self.offset..).zip(self.base.into_seq())
    }
}

/// `source.map(f)`: terminal-only (the seafl crates always `collect` right
/// after a `map`).
pub struct Map<P, F> {
    base: P,
    f: F,
}

impl<P, F, R> Map<P, F>
where
    P: ParallelIterator,
    F: Fn(P::Item) -> R + Sync + Send,
    R: Send,
{
    /// Results in input order.
    pub fn collect<C: From<Vec<R>>>(self) -> C {
        let f = &self.f;
        let mut parts = drive(self.base, &|seq: P::Seq| seq.map(f).collect::<Vec<R>>());
        let all =
            if parts.len() == 1 { parts.pop().unwrap_or_default() } else { parts.concat_vecs() };
        C::from(all)
    }
}

trait ConcatVecs<T> {
    fn concat_vecs(self) -> Vec<T>;
}

impl<T> ConcatVecs<T> for Vec<Vec<T>> {
    /// `concat` without the `Clone` bound.
    fn concat_vecs(self) -> Vec<T> {
        let mut all = Vec::with_capacity(self.iter().map(Vec::len).sum());
        for part in self {
            all.extend(part);
        }
        all
    }
}

/// `vec.into_par_iter()`.
pub trait IntoParallelIterator {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send;
    fn into_par_iter(self) -> Self::Iter;
}

/// `collection.par_iter()`.
pub trait IntoParallelRefIterator<'data> {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send + 'data;
    fn par_iter(&'data self) -> Self::Iter;
}

/// Owned items of a `Vec`.
pub struct VecIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for VecIter<T> {
    type Item = T;
    type Seq = std::vec::IntoIter<T>;

    fn len(&self) -> usize {
        self.items.len()
    }

    fn split_at(mut self, mid: usize) -> (Self, Self) {
        let tail = self.items.split_off(mid);
        (self, VecIter { items: tail })
    }

    fn into_seq(self) -> Self::Seq {
        self.items.into_iter()
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Iter = VecIter<T>;
    type Item = T;
    fn into_par_iter(self) -> VecIter<T> {
        VecIter { items: self }
    }
}

/// Shared references to the items of a slice.
pub struct SliceIter<'data, T> {
    items: &'data [T],
}

impl<'data, T: Sync> ParallelIterator for SliceIter<'data, T> {
    type Item = &'data T;
    type Seq = std::slice::Iter<'data, T>;

    fn len(&self) -> usize {
        self.items.len()
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.items.split_at(mid);
        (SliceIter { items: a }, SliceIter { items: b })
    }

    fn into_seq(self) -> Self::Seq {
        self.items.iter()
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Iter = SliceIter<'data, T>;
    type Item = &'data T;
    fn par_iter(&'data self) -> SliceIter<'data, T> {
        SliceIter { items: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Iter = SliceIter<'data, T>;
    type Item = &'data T;
    fn par_iter(&'data self) -> SliceIter<'data, T> {
        SliceIter { items: self }
    }
}
