//! Numerically stable softmax-family ops and classification utilities.

use crate::shape::Shape;
use crate::tensor::Tensor;

/// Row-wise, numerically stable softmax of a `[batch, classes]` matrix.
pub fn softmax_rows(logits: &Tensor) -> Tensor {
    assert_eq!(logits.shape().rank(), 2, "softmax_rows expects rank-2");
    let (b, c) = (logits.shape().dim(0), logits.shape().dim(1));
    let mut out = vec![0.0f32; b * c];
    for (orow, lrow) in out.chunks_exact_mut(c).zip(logits.as_slice().chunks_exact(c)) {
        let m = lrow.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for (o, &l) in orow.iter_mut().zip(lrow.iter()) {
            let e = (l - m).exp();
            *o = e;
            sum += e;
        }
        let inv = 1.0 / sum;
        orow.iter_mut().for_each(|o| *o *= inv);
    }
    Tensor::from_vec(Shape::d2(b, c), out)
}

/// Row-wise log-softmax (stable log-sum-exp).
pub fn log_softmax_rows(logits: &Tensor) -> Tensor {
    assert_eq!(logits.shape().rank(), 2, "log_softmax_rows expects rank-2");
    let (b, c) = (logits.shape().dim(0), logits.shape().dim(1));
    let mut out = vec![0.0f32; b * c];
    for (orow, lrow) in out.chunks_exact_mut(c).zip(logits.as_slice().chunks_exact(c)) {
        let m = lrow.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let lse = m + lrow.iter().map(|&l| (l - m).exp()).sum::<f32>().ln();
        for (o, &l) in orow.iter_mut().zip(lrow.iter()) {
            *o = l - lse;
        }
    }
    Tensor::from_vec(Shape::d2(b, c), out)
}

/// Index of the largest element of a slice (first on ties).
pub(crate) fn argmax(row: &[f32]) -> usize {
    assert!(!row.is_empty(), "argmax of empty slice");
    let mut best = 0usize;
    for (i, &v) in row.iter().enumerate().skip(1) {
        if v > row[best] {
            best = i;
        }
    }
    best
}

/// Fraction of rows whose argmax matches the label.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f64 {
    assert_eq!(logits.shape().rank(), 2, "accuracy expects rank-2 logits");
    let b = logits.shape().dim(0);
    assert_eq!(b, labels.len(), "accuracy: label count mismatch");
    if b == 0 {
        return 0.0;
    }
    let c = logits.shape().dim(1);
    let correct = logits
        .as_slice()
        .chunks_exact(c)
        .zip(labels.iter())
        .filter(|&(row, &y)| argmax(row) == y)
        .count();
    correct as f64 / b as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn softmax_rows_sum_to_one() {
        let l = Tensor::from_vec(Shape::d2(2, 3), vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let s = softmax_rows(&l);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(s.row(r).iter().all(|&p| p > 0.0));
        }
        // Larger logit -> larger probability.
        assert!(s.get2(0, 2) > s.get2(0, 1));
    }

    #[test]
    fn softmax_stable_for_huge_logits() {
        let l = Tensor::from_vec(Shape::d2(1, 3), vec![1e4, 1e4 + 1.0, 1e4 - 1.0]);
        let s = softmax_rows(&l);
        assert!(!s.has_non_finite());
        assert!((s.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let l = Tensor::from_vec(Shape::d2(2, 4), vec![0.5, -0.2, 1.3, 0.0, 2.0, 2.0, 2.0, 2.0]);
        let ls = log_softmax_rows(&l);
        let s = softmax_rows(&l);
        for i in 0..8 {
            assert!((ls.as_slice()[i] - s.as_slice()[i].ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }

    #[test]
    fn accuracy_counts() {
        let l = Tensor::from_vec(Shape::d2(3, 2), vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4]);
        assert!((accuracy(&l, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-9);
        assert!((accuracy(&l, &[0, 1, 0]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn prop_softmax_simplex() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let n = rng.gen_range(2usize..16);
            let v: Vec<f32> = (0..n).map(|_| rng.gen_range(-20f32..20.0)).collect();
            let s = softmax_rows(&Tensor::from_vec(Shape::d2(1, n), v));
            let sum: f32 = s.row(0).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "case {case}: sum {sum}");
            assert!(s.row(0).iter().all(|&p| (0.0..=1.0).contains(&p)), "case {case}");
        }
    }

    #[test]
    fn prop_softmax_shift_invariant() {
        for case in 0..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let n = rng.gen_range(2usize..8);
            let v: Vec<f32> = (0..n).map(|_| rng.gen_range(-5f32..5.0)).collect();
            let c = rng.gen_range(-10f32..10.0);
            let shifted: Vec<f32> = v.iter().map(|x| x + c).collect();
            let s1 = softmax_rows(&Tensor::from_vec(Shape::d2(1, n), v));
            let s2 = softmax_rows(&Tensor::from_vec(Shape::d2(1, n), shifted));
            assert!(s1.max_abs_diff(&s2) < 1e-5, "case {case}: shift {c}");
        }
    }
}
