//! Weight initializers over seedable RNGs.
//!
//! All initializers take `&mut impl Rng`, so callers control determinism by
//! deriving per-layer RNG streams from a master seed.

use crate::shape::Shape;
use crate::tensor::Tensor;
use rand::Rng;
use rand_distr::{Distribution, Normal, Uniform};

/// Xavier/Glorot uniform: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
///
/// The classical choice for tanh/sigmoid-free linear stacks; used for the
/// final classifier layers.
pub fn xavier_uniform(shape: Shape, fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Tensor {
    assert!(fan_in + fan_out > 0, "xavier_uniform: zero fans");
    let a = (6.0 / (fan_in + fan_out) as f64).sqrt() as f32;
    let dist = Uniform::new_inclusive(-a, a);
    Tensor::from_vec(shape, (0..shape.len()).map(|_| dist.sample(rng)).collect())
}

/// He/Kaiming normal: `N(0, sqrt(2 / fan_in))`, the standard initializer for
/// ReLU networks (all convolution layers here).
pub fn he_normal(shape: Shape, fan_in: usize, rng: &mut impl Rng) -> Tensor {
    assert!(fan_in > 0, "he_normal: zero fan_in");
    let std = (2.0 / fan_in as f64).sqrt();
    let dist = Normal::new(0.0, std).expect("valid normal");
    Tensor::from_vec(shape, (0..shape.len()).map(|_| dist.sample(rng) as f32).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let a = he_normal(Shape::d2(8, 8), 8, &mut r1);
        let b = he_normal(Shape::d2(8, 8), 8, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(2);
        let a = xavier_uniform(Shape::d1(64), 8, 8, &mut r1);
        let b = xavier_uniform(Shape::d1(64), 8, 8, &mut r2);
        assert!(a.max_abs_diff(&b) > 0.0);
    }

    #[test]
    fn xavier_within_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = xavier_uniform(Shape::d1(1000), 100, 100, &mut rng);
        let a = (6.0f64 / 200.0).sqrt() as f32;
        assert!(t.as_slice().iter().all(|&x| x.abs() <= a + 1e-6));
    }

    #[test]
    fn he_normal_std_roughly_correct() {
        let mut rng = StdRng::seed_from_u64(4);
        let fan_in = 50;
        let t = he_normal(Shape::d1(20_000), fan_in, &mut rng);
        let mean = t.sum() / t.len() as f32;
        let var: f32 =
            t.as_slice().iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / t.len() as f32;
        let expected = 2.0 / fan_in as f32;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - expected).abs() / expected < 0.1, "var {var} vs {expected}");
    }
}
