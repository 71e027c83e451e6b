//! Softmax cross-entropy loss.

use seafl_tensor::{stats, Shape, Tensor};

/// Combined softmax + cross-entropy with the standard fused gradient
/// `(softmax(z) − onehot(y)) / batch`.
pub(crate) struct SoftmaxCrossEntropy;

impl SoftmaxCrossEntropy {
    /// Mean cross-entropy loss over the batch.
    ///
    /// `logits`: `[batch, classes]`, `labels`: class indices.
    pub(crate) fn loss(logits: &Tensor, labels: &[usize]) -> f32 {
        let (b, c) = (logits.shape().dim(0), logits.shape().dim(1));
        assert_eq!(b, labels.len(), "loss: label count mismatch");
        assert!(b > 0, "loss: empty batch");
        let ls = stats::log_softmax_rows(logits);
        let mut total = 0.0f64;
        for (i, &y) in labels.iter().enumerate() {
            assert!(y < c, "loss: label {y} out of range for {c} classes");
            total -= ls.as_slice()[i * c + y] as f64;
        }
        (total / b as f64) as f32
    }

    /// Loss and gradient in one pass. Gradient shape matches `logits`.
    pub(crate) fn loss_and_grad(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        let (b, c) = (logits.shape().dim(0), logits.shape().dim(1));
        assert_eq!(b, labels.len(), "loss_and_grad: label count mismatch");
        assert!(b > 0, "loss_and_grad: empty batch");
        let probs = stats::softmax_rows(logits);
        let mut grad = probs.clone();
        let inv_b = 1.0 / b as f32;
        let mut total = 0.0f64;
        for (i, &y) in labels.iter().enumerate() {
            assert!(y < c, "loss_and_grad: label {y} out of range");
            let p = probs.as_slice()[i * c + y].max(1e-12);
            total -= (p as f64).ln();
            grad.as_mut_slice()[i * c + y] -= 1.0;
        }
        grad.scale(inv_b);
        ((total / b as f64) as f32, grad.reshape(Shape::d2(b, c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_loss_is_ln_c() {
        let logits = Tensor::zeros(Shape::d2(4, 10));
        let labels = vec![0, 3, 7, 9];
        let l = SoftmaxCrossEntropy::loss(&logits, &labels);
        assert!((l - 10f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let mut logits = Tensor::zeros(Shape::d2(1, 3));
        logits.as_mut_slice()[1] = 20.0;
        assert!(SoftmaxCrossEntropy::loss(&logits, &[1]) < 1e-3);
        assert!(SoftmaxCrossEntropy::loss(&logits, &[0]) > 10.0);
    }

    #[test]
    fn grad_matches_finite_difference() {
        let logits = Tensor::from_vec(Shape::d2(2, 3), vec![0.5, -1.0, 0.2, 2.0, 0.1, -0.3]);
        let labels = vec![2, 0];
        let (_, grad) = SoftmaxCrossEntropy::loss_and_grad(&logits, &labels);
        let eps = 1e-3;
        for idx in 0..6 {
            let mut lp = logits.clone();
            lp.as_mut_slice()[idx] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[idx] -= eps;
            let fd = (SoftmaxCrossEntropy::loss(&lp, &labels)
                - SoftmaxCrossEntropy::loss(&lm, &labels))
                / (2.0 * eps);
            assert!(
                (fd - grad.as_slice()[idx]).abs() < 1e-3,
                "grad[{idx}]: fd={fd} vs {}",
                grad.as_slice()[idx]
            );
        }
    }

    #[test]
    fn grad_rows_sum_to_zero() {
        // Each row of the softmax-CE gradient sums to zero (prob simplex).
        let logits = Tensor::from_vec(Shape::d2(2, 4), vec![1., 2., 3., 4., -1., 0., 1., 2.]);
        let (_, grad) = SoftmaxCrossEntropy::loss_and_grad(&logits, &[0, 3]);
        for r in 0..2 {
            let s: f32 = grad.row(r).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_label_panics() {
        SoftmaxCrossEntropy::loss(&Tensor::zeros(Shape::d2(1, 3)), &[3]);
    }
}
