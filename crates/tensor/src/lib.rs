//! # seafl-tensor
//!
//! Dense `f32` tensor substrate used by the SEAFL reproduction.
//!
//! This crate deliberately implements only what the neural-network stack in
//! `seafl-nn` needs, but implements it well:
//!
//! * [`Shape`] — up-to-4-dimensional shape algebra with row-major strides.
//! * [`Tensor`] — an owned, contiguous, row-major `f32` tensor with
//!   elementwise ops, BLAS-1 style vector ops (`axpy`, `scale`, `dot`),
//!   and reductions.
//! * [`matmul`] — a packed, cache-blocked, rayon-parallel SGEMM (BLIS-style
//!   MC/KC/NC blocking over an `MR×NR` micro-kernel) plus matrix–vector
//!   products.
//! * `microkernel` — the register-blocked micro-kernel: scalar baseline,
//!   and an AVX variant chosen at run time on x86_64 CPUs that have it,
//!   bitwise identical to the scalar one (separate mul+add, no FMA).
//! * `pack` — operand views and panel packing for the GEMM, including
//!   the offset-table `pack::Gather` view that makes convolution
//!   im2col-free, and the per-thread scratch arena the panels live in.
//! * [`conv`] — im2col-free 2-D convolution over a zero-padded input
//!   (forward, backward, and the parameter-only backward a network's first
//!   layer uses), max/average pooling with index caching for backprop.
//! * [`stats`] — softmax, log-softmax, argmax and friends.
//! * [`init`] — Xavier/He/uniform initializers over seedable RNGs.
//!
//! Everything is deterministic for a fixed seed: rayon parallelism only
//! splits work whose per-element accumulation order is fixed (each output
//! cell is produced by exactly one thread, in one order), so results are
//! bitwise identical across thread counts and across the scalar/AVX
//! kernels.

pub mod conv;
pub mod init;
pub mod matmul;
pub(crate) mod microkernel;
pub(crate) mod pack;
pub(crate) mod shape;
pub mod stats;
pub(crate) mod tensor;

pub use microkernel::variant as kernel_variant;
pub use shape::Shape;
pub use tensor::Tensor;

/// Cosine similarity `Θ(a, b) = a·b / (‖a‖‖b‖)` between two equal-length
/// vectors, the quantity SEAFL's importance factor (Eq. 5) is built on.
///
/// Returns `0.0` when either vector has zero norm (an all-zero update carries
/// no directional information, so it is treated as orthogonal).
///
/// The result is clamped to `[-1, 1]` to absorb f32 rounding.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "cosine_similarity: length mismatch {} vs {}", a.len(), b.len());
    // One fused pass; f64 accumulators so model-sized (1e6+) vectors do not
    // lose the small-angle signal to cancellation.
    let (mut dot, mut na, mut nb) = (0f64, 0f64, 0f64);
    for (&x, &y) in a.iter().zip(b.iter()) {
        dot += x as f64 * y as f64;
        na += x as f64 * x as f64;
        nb += y as f64 * y as f64;
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    ((dot / (na.sqrt() * nb.sqrt())) as f32).clamp(-1.0, 1.0)
}

/// Euclidean (L2) norm of a vector with an f64 accumulator.
pub fn l2_norm(a: &[f32]) -> f32 {
    a.iter().map(|&x| x as f64 * x as f64).sum::<f64>().sqrt() as f32
}

/// Squared L2 distance `‖a − b‖²` between two equal-length vectors.
pub fn l2_distance_sq(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "l2_distance_sq: length mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum::<f64>() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_identical_is_one() {
        let v = vec![1.0, 2.0, -3.0, 0.5];
        assert!((cosine_similarity(&v, &v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_opposite_is_minus_one() {
        let v = vec![1.0, 2.0, -3.0];
        let w: Vec<f32> = v.iter().map(|x| -x).collect();
        assert!((cosine_similarity(&v, &w) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_orthogonal_is_zero() {
        let a = vec![1.0, 0.0];
        let b = vec![0.0, 1.0];
        assert!(cosine_similarity(&a, &b).abs() < 1e-7);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        let a = vec![0.0, 0.0];
        let b = vec![1.0, 2.0];
        assert_eq!(cosine_similarity(&a, &b), 0.0);
        assert_eq!(cosine_similarity(&b, &a), 0.0);
    }

    #[test]
    fn cosine_scale_invariant() {
        let a = vec![0.3, -0.7, 2.0, 1.1];
        let b = vec![1.0, 0.2, -0.5, 0.9];
        let scaled: Vec<f32> = a.iter().map(|x| x * 37.5).collect();
        let c1 = cosine_similarity(&a, &b);
        let c2 = cosine_similarity(&scaled, &b);
        assert!((c1 - c2).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn cosine_length_mismatch_panics() {
        cosine_similarity(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn l2_norm_345() {
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn l2_distance_matches_norm_of_difference() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![4.0, 6.0, 3.0];
        assert!((l2_distance_sq(&a, &b) - 25.0).abs() < 1e-5);
    }
}
