//! Operand views, panel packing and the per-thread scratch arena behind the
//! blocked GEMM in [`crate::matmul`].
//!
//! The GEMM driver never reads its operands directly: it sees them through
//! the [`Operand`] trait, a read-only `rows × cols` view whose bulk entry
//! points ([`Operand::copy_row`] / [`Operand::copy_col`]) the packers call
//! to copy cache-sized panels into tile-ordered scratch. Plain matrices,
//! their transposes, and *virtual* matrices all plug in the same way. The
//! one virtual view is [`Gather`]: `at(r, c) = data[rows[r] + cols[c]]`
//! over two `u32` offset tables built by [`offsets`]. Over a zero-padded
//! input it is the im2col column matrix of a convolution (patch offsets ×
//! output-position offsets); over an NCHW gradient it is the channel-major
//! reading the weight gradient needs. Conv patches are therefore
//! materialized only panel-by-panel inside the pack step, never as a whole
//! `cols` tensor, and the pack loop does one table load and one add per
//! element — no division, no padding branch.
//!
//! Scratch for the packed panels comes from a per-thread arena
//! ([`scratch_buf`]): each rayon worker reuses its own buffers across calls
//! instead of allocating fresh `Vec`s per GEMM, and the arena is only
//! touched at checkout/return, never held across a parallel region.

use crate::microkernel::{MR, NR};
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// A read-only `rows × cols` GEMM operand the packers copy panels from.
///
/// [`Operand::at`] is the universal accessor; [`Operand::copy_row`] and
/// [`Operand::copy_col`] are the bulk entry points packing actually uses,
/// overridden when a view has a contiguous (or otherwise cheap) layout in
/// that direction.
pub(crate) trait Operand: Sync {
    /// Element at row `r`, column `c`.
    fn at(&self, r: usize, c: usize) -> f32;

    /// Fill `out` with columns `c0 .. c0 + out.len()` of row `r`.
    #[inline]
    fn copy_row(&self, r: usize, c0: usize, out: &mut [f32]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.at(r, c0 + i);
        }
    }

    /// Fill `out` with rows `r0 .. r0 + out.len()` of column `c`.
    #[inline]
    fn copy_col(&self, c: usize, r0: usize, out: &mut [f32]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.at(r0 + i, c);
        }
    }
}

/// Row-major matrix view over a borrowed slice with `cols` columns.
pub(crate) struct RowMajor<'a> {
    data: &'a [f32],
    cols: usize,
}

impl<'a> RowMajor<'a> {
    /// View `data` as a row-major matrix with `cols` columns.
    pub(crate) fn new(data: &'a [f32], cols: usize) -> Self {
        RowMajor { data, cols }
    }
}

impl Operand for RowMajor<'_> {
    #[inline(always)]
    fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    #[inline]
    fn copy_row(&self, r: usize, c0: usize, out: &mut [f32]) {
        let start = r * self.cols + c0;
        out.copy_from_slice(&self.data[start..start + out.len()]);
    }
}

/// Transpose view: the logical `(r, c)` element reads `data[c · rows + r]`,
/// i.e. the logical matrix is the transpose of a row-major matrix whose row
/// length is `rows`. Columns of the logical matrix are contiguous in
/// storage, so `copy_col` is a straight memcpy — packing Aᵀ panels costs
/// the same as packing A.
pub(crate) struct Transposed<'a> {
    data: &'a [f32],
    rows: usize,
}

impl<'a> Transposed<'a> {
    /// View `data` (row-major with `rows` columns per storage row) as its
    /// transpose: a logical matrix with `rows` rows.
    pub(crate) fn new(data: &'a [f32], rows: usize) -> Self {
        Transposed { data, rows }
    }
}

impl Operand for Transposed<'_> {
    #[inline(always)]
    fn at(&self, r: usize, c: usize) -> f32 {
        self.data[c * self.rows + r]
    }

    #[inline]
    fn copy_col(&self, c: usize, r0: usize, out: &mut [f32]) {
        let start = c * self.rows + r0;
        out.copy_from_slice(&self.data[start..start + out.len()]);
    }
}

/// A matrix whose element `(r, c)` is `data[rows[r] + cols[c]]`: one
/// offset table per axis. Every virtual operand of the convolution GEMMs is
/// one of these — the im2col matrix of a zero-padded input (patch offsets ×
/// output-position offsets) and the channel-major reading of an NCHW
/// gradient — so packing a panel is a table-driven gather with no
/// coordinate arithmetic and no halo branch.
pub(crate) struct Gather<'a> {
    data: &'a [f32],
    rows: &'a [u32],
    cols: &'a [u32],
}

impl<'a> Gather<'a> {
    /// View `data` through the row and column offset tables (see
    /// [`offsets`]).
    pub(crate) fn new(data: &'a [f32], rows: &'a [u32], cols: &'a [u32]) -> Self {
        Gather { data, rows, cols }
    }
}

impl Operand for Gather<'_> {
    #[inline(always)]
    fn at(&self, r: usize, c: usize) -> f32 {
        self.data[self.rows[r] as usize + self.cols[c] as usize]
    }

    #[inline]
    fn copy_row(&self, r: usize, c0: usize, out: &mut [f32]) {
        let base = &self.data[self.rows[r] as usize..];
        for (o, &c) in out.iter_mut().zip(&self.cols[c0..]) {
            *o = base[c as usize];
        }
    }

    #[inline]
    fn copy_col(&self, c: usize, r0: usize, out: &mut [f32]) {
        let base = &self.data[self.cols[c] as usize..];
        for (o, &r) in out.iter_mut().zip(&self.rows[r0..]) {
            *o = base[r as usize];
        }
    }
}

/// Offsets `Σ i_d · stride_d` of every point of the grid
/// `dims = [(count_d, stride_d), …]`, outermost axis first, in row-major
/// order — the tables a [`Gather`] reads through. Panics unless the largest
/// offset is `< 2^32`.
pub(crate) fn offsets(dims: &[(usize, usize)]) -> Vec<u32> {
    let extent: u128 = dims.iter().map(|&(n, s)| n.saturating_sub(1) as u128 * s as u128).sum();
    assert!(extent < 1 << 32, "gather offsets: largest offset {extent} must be < 2^32");
    let mut out = vec![0u32];
    for &(count, stride) in dims.iter().rev() {
        out = (0..count).flat_map(|i| out.iter().map(move |&o| o + (i * stride) as u32)).collect();
    }
    out
}

/// Pack rows `[i0, i0+mc)` × columns `[p0, p0+kc)` of `v` into MR-row
/// tiles: tile `t` holds rows `i0 + t·MR ..` as `kc` consecutive groups of
/// `MR` values (zero-padded past the last real row) — exactly the order
/// [`crate::microkernel::kernel`] reads its A panel in.
pub(crate) fn pack_a<V: Operand + ?Sized>(
    v: &V,
    i0: usize,
    mc: usize,
    p0: usize,
    kc: usize,
    out: &mut [f32],
) {
    let tiles = mc.div_ceil(MR);
    debug_assert!(out.len() >= tiles * kc * MR, "pack_a: scratch too small");
    for t in 0..tiles {
        let i = i0 + t * MR;
        let rows = MR.min(i0 + mc - i);
        let tile = &mut out[t * kc * MR..(t + 1) * kc * MR];
        for p in 0..kc {
            let dst = &mut tile[p * MR..(p + 1) * MR];
            v.copy_col(p0 + p, i, &mut dst[..rows]);
            for d in dst[rows..].iter_mut() {
                *d = 0.0;
            }
        }
    }
}

/// Pack rows `[p0, p0+kc)` × columns `[j0, j0+nc)` of `v` into NR-column
/// tiles: tile `t` holds columns `j0 + t·NR ..` as `kc` consecutive groups
/// of `NR` values (zero-padded past the last real column) — the B-panel
/// order of [`crate::microkernel::kernel`].
pub(crate) fn pack_b<V: Operand + ?Sized>(
    v: &V,
    p0: usize,
    kc: usize,
    j0: usize,
    nc: usize,
    out: &mut [f32],
) {
    let tiles = nc.div_ceil(NR);
    debug_assert!(out.len() >= tiles * kc * NR, "pack_b: scratch too small");
    for t in 0..tiles {
        let j = j0 + t * NR;
        let cols = NR.min(j0 + nc - j);
        let tile = &mut out[t * kc * NR..(t + 1) * kc * NR];
        for p in 0..kc {
            let dst = &mut tile[p * NR..(p + 1) * NR];
            v.copy_row(p0 + p, j, &mut dst[..cols]);
            for d in dst[cols..].iter_mut() {
                *d = 0.0;
            }
        }
    }
}

/// Per-thread pool of reusable `f32` buffers. Buffers are checked out
/// zero-filled via [`scratch_buf`] and their storage returns to the pool
/// when the guard drops, so steady-state GEMM and conv calls on a given
/// thread allocate nothing. Worker threads in a persistent rayon pool (the
/// `TrainerPool` case) keep their arenas across training sessions.
struct Scratch {
    pool: Vec<Vec<f32>>,
}

/// Pool-size cap: more simultaneous buffers than this per thread just fall
/// back to the allocator on release.
const SCRATCH_POOL_CAP: usize = 16;

impl Scratch {
    const fn new() -> Self {
        Scratch { pool: Vec::new() }
    }

    fn acquire(&mut self, len: usize) -> Vec<f32> {
        let mut v = self.pool.pop().unwrap_or_default();
        v.clear();
        v.resize(len, 0.0);
        v
    }

    fn release(&mut self, v: Vec<f32>) {
        if self.pool.len() < SCRATCH_POOL_CAP {
            self.pool.push(v);
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const { RefCell::new(Scratch::new()) };
}

/// A zero-filled scratch buffer checked out of the current thread's arena;
/// derefs to `[f32]` and returns its storage on drop. The arena is only
/// borrowed inside [`scratch_buf`] and `drop` — never while user code (or a
/// nested parallel region) runs — so checkout order and rayon
/// work-stealing can't conflict.
pub(crate) struct ScratchBuf {
    v: Vec<f32>,
}

/// Check a zero-filled buffer of `len` floats out of the calling thread's
/// scratch arena.
pub(crate) fn scratch_buf(len: usize) -> ScratchBuf {
    let v = SCRATCH.with(|s| s.borrow_mut().acquire(len));
    ScratchBuf { v }
}

impl Deref for ScratchBuf {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.v
    }
}

impl DerefMut for ScratchBuf {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.v
    }
}

impl Drop for ScratchBuf {
    fn drop(&mut self) {
        let v = std::mem::take(&mut self.v);
        // During thread teardown the arena TLS may already be destroyed;
        // the buffer then just drops normally.
        let _ = SCRATCH.try_with(move |s| s.borrow_mut().release(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transposed_view_matches_manual_transpose() {
        // Storage: 3 rows × 2 cols row-major; logical transpose is 2 × 3.
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let t = Transposed::new(&data, 2);
        for r in 0..2 {
            for c in 0..3 {
                assert_eq!(t.at(r, c), data[c * 2 + r]);
            }
        }
        let mut col = [0.0; 2];
        t.copy_col(1, 0, &mut col);
        assert_eq!(col, [3.0, 4.0]);
    }

    #[test]
    fn pack_a_tiles_and_zero_pads() {
        // 5×3 row-major matrix, mc = 5 ⇒ 2 tiles, second tile 1 real row.
        let data: Vec<f32> = (0..15).map(|x| x as f32).collect();
        let v = RowMajor::new(&data, 3);
        let kc = 3;
        let mut out = vec![f32::NAN; 2 * kc * MR];
        pack_a(&v, 0, 5, 0, kc, &mut out);
        for p in 0..kc {
            for i in 0..MR {
                assert_eq!(out[p * MR + i], data[i * 3 + p], "tile 0 p={p} i={i}");
            }
            assert_eq!(out[kc * MR + p * MR], data[4 * 3 + p], "tile 1 row");
            for i in 1..MR {
                assert_eq!(out[kc * MR + p * MR + i], 0.0, "tile 1 pad");
            }
        }
    }

    #[test]
    fn pack_b_tiles_and_zero_pads() {
        // 2×10 row-major matrix ⇒ 2 NR-tiles, second tile 2 real columns.
        let data: Vec<f32> = (0..20).map(|x| x as f32).collect();
        let v = RowMajor::new(&data, 10);
        let kc = 2;
        let mut out = vec![f32::NAN; 2 * kc * NR];
        pack_b(&v, 0, kc, 0, 10, &mut out);
        for p in 0..kc {
            for j in 0..NR {
                assert_eq!(out[p * NR + j], data[p * 10 + j], "tile 0");
            }
            for j in 0..2 {
                assert_eq!(out[kc * NR + p * NR + j], data[p * 10 + 8 + j], "tile 1");
            }
            for j in 2..NR {
                assert_eq!(out[kc * NR + p * NR + j], 0.0, "tile 1 pad");
            }
        }
    }

    #[test]
    fn offsets_enumerate_the_grid_row_major() {
        assert_eq!(
            offsets(&[(2, 100), (3, 10), (2, 1)]),
            [0, 1, 10, 11, 20, 21, 100, 101, 110, 111, 120, 121]
        );
        assert_eq!(offsets(&[]), [0]);
        assert!(offsets(&[(0, 7), (3, 1)]).is_empty());
        let g = Gather::new(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0], &[0, 3], &[0, 1, 2]);
        let mut row = [0.0; 2];
        g.copy_row(1, 1, &mut row);
        assert_eq!(row, [4.0, 5.0]);
        let mut col = [0.0; 2];
        g.copy_col(2, 0, &mut col);
        assert_eq!(col, [2.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "must be < 2^32")]
    fn offsets_reject_extents_past_u32() {
        offsets(&[(2, 1 << 16), (1 << 16, 1 << 16)]);
    }

    #[test]
    fn scratch_buf_zeroed_and_storage_reused() {
        let ptr = {
            let mut b = scratch_buf(128);
            assert!(b.iter().all(|&x| x == 0.0));
            b[0] = 42.0;
            b.as_ptr() as usize
        };
        // Same thread, same size: the dirtied storage comes back zeroed.
        let b2 = scratch_buf(128);
        assert!(b2.iter().all(|&x| x == 0.0));
        assert_eq!(b2.as_ptr() as usize, ptr, "storage should be reused");
    }
}
