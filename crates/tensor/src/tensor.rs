//! The owned, contiguous, row-major `f32` tensor.

use crate::shape::Shape;
use std::fmt;

/// An owned dense `f32` tensor with row-major layout.
///
/// Invariant: `data.len() == shape.len()` at all times.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// All-zeros tensor of the given shape.
    pub fn zeros(shape: Shape) -> Self {
        Tensor { data: vec![0.0; shape.len()], shape }
    }

    /// Tensor filled with a constant.
    pub fn full(shape: Shape, value: f32) -> Self {
        Tensor { data: vec![value; shape.len()], shape }
    }

    /// Build from an existing buffer; panics if the length does not match.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.len(),
            "Tensor::from_vec: buffer length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.len()
        );
        Tensor { shape, data }
    }

    /// Rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor { shape: Shape::d1(data.len()), data: data.to_vec() }
    }

    pub fn shape(&self) -> Shape {
        self.shape
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the raw buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reinterpret with a new shape of identical element count.
    pub fn reshape(mut self, shape: Shape) -> Self {
        assert!(
            self.shape.same_len(&shape),
            "reshape: {} ({} elems) -> {} ({} elems)",
            self.shape,
            self.shape.len(),
            shape,
            shape.len()
        );
        self.shape = shape;
        self
    }

    /// Set every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// `self += other`, elementwise; shapes must match element count.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.len(), other.len(), "add_assign: length mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// `self *= s`.
    pub fn scale(&mut self, s: f32) {
        self.data.iter_mut().for_each(|x| *x *= s);
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { shape: self.shape, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Dot product (flattened), f64 accumulator.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.len(), other.len(), "dot: length mismatch");
        self.data.iter().zip(other.data.iter()).map(|(&a, &b)| a as f64 * b as f64).sum::<f64>()
            as f32
    }

    /// Sum of all elements, f64 accumulator.
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// L2 norm, f64 accumulator.
    pub fn norm(&self) -> f32 {
        crate::l2_norm(&self.data)
    }

    /// True iff any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Row `r` of a rank-2 tensor as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.shape.rank(), 2, "row requires rank-2");
        let cols = self.shape.dim(1);
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Maximum absolute elementwise difference (useful in tests).
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.len(), other.len(), "max_abs_diff: length mismatch");
        self.data.iter().zip(other.data.iter()).map(|(&a, &b)| (a - b).abs()).fold(0.0, f32::max)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}, ", self.shape)?;
        if self.len() <= 8 {
            write!(f, "{:?})", self.data)
        } else {
            write!(f, "[{:?}...; {}])", &self.data[..8], self.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Element access and the rank-2 transpose: the references the kernel
    /// tests compare against.
    impl Tensor {
        pub(crate) fn get2(&self, r: usize, c: usize) -> f32 {
            self.data[self.shape.at2(r, c)]
        }

        pub(crate) fn set2(&mut self, r: usize, c: usize, v: f32) {
            let i = self.shape.at2(r, c);
            self.data[i] = v;
        }

        pub(crate) fn get4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
            self.data[self.shape.at4(n, c, h, w)]
        }

        pub(crate) fn set4(&mut self, n: usize, c: usize, h: usize, w: usize, v: f32) {
            let i = self.shape.at4(n, c, h, w);
            self.data[i] = v;
        }

        pub(crate) fn transpose2(&self) -> Tensor {
            assert_eq!(self.shape.rank(), 2, "transpose2 requires rank-2");
            let (r, c) = (self.shape.dim(0), self.shape.dim(1));
            let mut out = Tensor::zeros(Shape::d2(c, r));
            for i in 0..r {
                for j in 0..c {
                    out.data[j * r + i] = self.data[i * c + j];
                }
            }
            out
        }
    }

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_slice(v)
    }

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(Shape::d2(2, 3));
        assert_eq!(z.len(), 6);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let f = Tensor::full(Shape::d1(4), 2.5);
        assert!(f.as_slice().iter().all(|&x| x == 2.5));
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_length_mismatch_panics() {
        Tensor::from_vec(Shape::d2(2, 2), vec![1.0; 3]);
    }

    #[test]
    fn add_and_scale() {
        let mut a = t(&[1.0, 2.0, 3.0]);
        a.add_assign(&t(&[1.0, 1.0, 1.0]));
        assert_eq!(a.as_slice(), &[2.0, 3.0, 4.0]);
        a.scale(3.0);
        assert_eq!(a.as_slice(), &[6.0, 9.0, 12.0]);
    }

    #[test]
    fn dot_sum_norm() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert!((a.dot(&b) - 32.0).abs() < 1e-6);
        assert!((a.sum() - 6.0).abs() < 1e-6);
        assert!((t(&[3.0, 4.0]).norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.]);
        let b = a.clone().reshape(Shape::d4(1, 3, 2, 1));
        assert_eq!(b.as_slice(), a.as_slice());
        assert_eq!(b.shape(), Shape::d4(1, 3, 2, 1));
    }

    #[test]
    #[should_panic(expected = "reshape")]
    fn reshape_bad_len_panics() {
        t(&[1.0, 2.0]).reshape(Shape::d1(3));
    }

    #[test]
    fn transpose2_involution() {
        let a = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.]);
        let tt = a.transpose2().transpose2();
        assert_eq!(tt, a);
        assert_eq!(a.transpose2().get2(2, 1), a.get2(1, 2));
    }

    #[test]
    fn rows() {
        let a = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.row(1), &[4., 5., 6.]);
    }

    #[test]
    fn non_finite_detection() {
        assert!(!t(&[1.0, 2.0]).has_non_finite());
        assert!(t(&[1.0, f32::NAN]).has_non_finite());
        assert!(t(&[f32::INFINITY]).has_non_finite());
    }

    #[test]
    fn fill_zero_keeps_capacity() {
        let mut a = t(&[1.0, 2.0, 3.0]);
        a.fill_zero();
        assert_eq!(a.as_slice(), &[0.0; 3]);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn prop_transpose_involution() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let (r, c) = (rng.gen_range(1usize..8), rng.gen_range(1usize..8));
            let mut s = rng.gen_range(0usize..1000) as u64;
            let data: Vec<f32> = (0..r * c)
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                    ((s >> 33) as f32 / 1e9) - 4.0
                })
                .collect();
            let a = Tensor::from_vec(Shape::d2(r, c), data);
            assert_eq!(a.transpose2().transpose2(), a, "case {case}");
        }
    }

    #[test]
    fn prop_dot_symmetric() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let n = rng.gen_range(1usize..64);
            let v: Vec<f32> = (0..n).map(|_| rng.gen_range(-5f32..5.0)).collect();
            let a = Tensor::from_slice(&v);
            let b = a.map(|x| x * 0.3 - 1.0);
            assert!((a.dot(&b) - b.dot(&a)).abs() < 1e-3, "case {case}");
        }
    }
}
