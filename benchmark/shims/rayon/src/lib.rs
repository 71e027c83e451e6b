//! std-only stand-in for the part of `rayon` 1.x the seafl crates use:
//! `par_iter` / `par_chunks` / `par_chunks_mut` / `into_par_iter` with
//! `enumerate`, `map`, `for_each`, `collect`, and `ThreadPoolBuilder` /
//! `ThreadPool::install` / `current_num_threads`.
//!
//! It really runs in parallel, on persistent worker threads:
//!
//! * A pool of width `n` owns `n − 1` parked workers; the thread that
//!   starts a parallel operation works too, so `n` threads compute.
//! * An operation is cut into contiguous pieces (up to sixteen per thread,
//!   claimed dynamically so uneven pieces balance) and the results are put
//!   back in input order. Which thread runs a piece never shows in the
//!   output.
//! * A parallel call made from inside a piece runs serially on that
//!   thread. rayon would let it steal; the seafl crates only nest small
//!   GEMMs inside cohort jobs, where serial is what one wants anyway.
//! * Without an `install`, operations use a lazily built global pool sized
//!   by `RAYON_NUM_THREADS` or the machine's parallelism.

mod pool;

pub mod iter;
pub mod slice;

pub mod prelude {
    pub use crate::iter::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
    pub use crate::slice::{ParallelSlice, ParallelSliceMut};
}

pub use pool::{current_num_threads, ThreadPool, ThreadPoolBuildError, ThreadPoolBuilder};
