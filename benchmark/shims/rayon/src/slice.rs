//! `par_chunks` and `par_chunks_mut`.

use crate::iter::ParallelIterator;

pub trait ParallelSlice<T: Sync> {
    fn as_parallel_slice(&self) -> &[T];

    fn par_chunks(&self, chunk_size: usize) -> Chunks<'_, T> {
        assert!(chunk_size != 0, "chunk_size must not be zero");
        Chunks { slice: self.as_parallel_slice(), chunk_size }
    }
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn as_parallel_slice(&self) -> &[T] {
        self
    }
}

pub trait ParallelSliceMut<T: Send> {
    fn as_parallel_slice_mut(&mut self) -> &mut [T];

    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T> {
        assert!(chunk_size != 0, "chunk_size must not be zero");
        ChunksMut { slice: self.as_parallel_slice_mut(), chunk_size }
    }
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn as_parallel_slice_mut(&mut self) -> &mut [T] {
        self
    }
}

pub struct Chunks<'data, T> {
    slice: &'data [T],
    chunk_size: usize,
}

impl<'data, T: Sync> ParallelIterator for Chunks<'data, T> {
    type Item = &'data [T];
    type Seq = std::slice::Chunks<'data, T>;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk_size)
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let at = (mid * self.chunk_size).min(self.slice.len());
        let (a, b) = self.slice.split_at(at);
        (
            Chunks { slice: a, chunk_size: self.chunk_size },
            Chunks { slice: b, chunk_size: self.chunk_size },
        )
    }

    fn into_seq(self) -> Self::Seq {
        self.slice.chunks(self.chunk_size)
    }
}

pub struct ChunksMut<'data, T> {
    slice: &'data mut [T],
    chunk_size: usize,
}

impl<'data, T: Send> ParallelIterator for ChunksMut<'data, T> {
    type Item = &'data mut [T];
    type Seq = std::slice::ChunksMut<'data, T>;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.chunk_size)
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let at = (mid * self.chunk_size).min(self.slice.len());
        let (a, b) = self.slice.split_at_mut(at);
        (
            ChunksMut { slice: a, chunk_size: self.chunk_size },
            ChunksMut { slice: b, chunk_size: self.chunk_size },
        )
    }

    fn into_seq(self) -> Self::Seq {
        self.slice.chunks_mut(self.chunk_size)
    }
}
