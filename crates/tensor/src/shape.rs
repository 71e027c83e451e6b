//! Shape algebra for row-major tensors of rank 1–4.

use std::fmt;

/// A tensor shape of rank 1 to 4, stored as `[usize; 4]` with trailing 1s.
///
/// Ranks used in this project:
/// * rank 1: flat parameter vectors `[n]`
/// * rank 2: matrices `[rows, cols]` (e.g. dense layers, im2col buffers)
/// * rank 4: image batches `[n, c, h, w]` (NCHW)
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [usize; 4],
    rank: u8,
}

impl Shape {
    /// Rank-1 shape `[n]`.
    pub fn d1(n: usize) -> Self {
        Shape { dims: [n, 1, 1, 1], rank: 1 }
    }

    /// Rank-2 shape `[rows, cols]`.
    pub fn d2(rows: usize, cols: usize) -> Self {
        Shape { dims: [rows, cols, 1, 1], rank: 2 }
    }

    /// Rank-4 shape `[n, c, h, w]` (NCHW batch layout).
    pub fn d4(n: usize, c: usize, h: usize, w: usize) -> Self {
        Shape { dims: [n, c, h, w], rank: 4 }
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.rank as usize
    }

    /// Dimension `i`; panics if `i >= rank`.
    pub fn dim(&self, i: usize) -> usize {
        assert!(i < self.rank(), "dim {} out of range for rank {}", i, self.rank());
        self.dims[i]
    }

    /// All dimensions as a slice of length `rank`.
    pub(crate) fn dims(&self) -> &[usize] {
        &self.dims[..self.rank()]
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims[..self.rank()].iter().product()
    }

    /// True when any dimension is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reshape-compatibility check.
    pub(crate) fn same_len(&self, other: &Shape) -> bool {
        self.len() == other.len()
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.dims())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Flat offsets behind the test-only element accessors of `Tensor`.
    impl Shape {
        /// Flat row-major offset of a rank-2 index.
        pub(crate) fn at2(&self, r: usize, c: usize) -> usize {
            debug_assert_eq!(self.rank(), 2);
            debug_assert!(r < self.dims[0] && c < self.dims[1]);
            r * self.dims[1] + c
        }

        /// Flat row-major offset of a rank-4 index.
        pub(crate) fn at4(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
            debug_assert_eq!(self.rank(), 4);
            debug_assert!(
                n < self.dims[0] && c < self.dims[1] && h < self.dims[2] && w < self.dims[3]
            );
            ((n * self.dims[1] + c) * self.dims[2] + h) * self.dims[3] + w
        }
    }

    #[test]
    fn rank_and_len() {
        assert_eq!(Shape::d1(7).rank(), 1);
        assert_eq!(Shape::d1(7).len(), 7);
        assert_eq!(Shape::d2(3, 4).len(), 12);
        assert_eq!(Shape::d4(2, 3, 4, 5).len(), 120);
    }

    #[test]
    fn at4_matches_strides() {
        let s = Shape::d4(2, 3, 4, 5);
        let st = [60, 20, 5, 1];
        for n in 0..2 {
            for c in 0..3 {
                for h in 0..4 {
                    for w in 0..5 {
                        assert_eq!(
                            s.at4(n, c, h, w),
                            n * st[0] + c * st[1] + h * st[2] + w * st[3]
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dim_out_of_range_panics() {
        Shape::d2(2, 3).dim(2);
    }

    #[test]
    fn zero_dim_is_empty() {
        assert!(Shape::d2(0, 5).is_empty());
        assert!(!Shape::d1(1).is_empty());
    }

    #[test]
    fn prop_at2_is_bijective() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let (r, c) = (rng.gen_range(1usize..12), rng.gen_range(1usize..12));
            let s = Shape::d2(r, c);
            let mut seen = vec![false; r * c];
            for i in 0..r {
                for j in 0..c {
                    let o = s.at2(i, j);
                    assert!(o < r * c, "case {case}: at2({i}, {j}) = {o} outside {r}x{c}");
                    assert!(!seen[o], "case {case}: at2({i}, {j}) = {o} seen twice");
                    seen[o] = true;
                }
            }
        }
    }
}
