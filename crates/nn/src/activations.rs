//! Activation layers.

use crate::layer::Layer;
use seafl_tensor::Tensor;

/// Rectified linear unit, `y = max(0, x)`.
///
/// The backward pass uses the cached *output* mask (`y > 0` ⇔ `x > 0`), so
/// only a bitmask-equivalent tensor is retained.
#[derive(Clone)]
pub(crate) struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    pub(crate) fn new() -> Self {
        Relu { mask: None }
    }
}

impl Default for Relu {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Relu {
    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, mut x: Tensor, train: bool) -> Tensor {
        if train {
            let mask: Vec<bool> = x.as_slice().iter().map(|&v| v > 0.0).collect();
            self.mask = Some(mask);
        }
        for v in x.as_mut_slice() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        x
    }

    fn backward(&mut self, mut grad_out: Tensor) -> Tensor {
        let mask = self.mask.take().expect("Relu::backward called without forward(train=true)");
        assert_eq!(mask.len(), grad_out.len(), "Relu: gradient shape mismatch");
        for (g, &m) in grad_out.as_mut_slice().iter_mut().zip(mask.iter()) {
            if !m {
                *g = 0.0;
            }
        }
        grad_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seafl_tensor::Shape;

    #[test]
    fn relu_forward_clamps_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0, -0.5]);
        let y = r.forward(x, false);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let mut r = Relu::new();
        let x = Tensor::from_slice(&[-1.0, 3.0, 0.0, 2.0]);
        r.forward(x, true);
        let g = r.backward(Tensor::from_slice(&[1.0, 1.0, 1.0, 1.0]));
        // x == 0 contributes zero gradient (subgradient choice).
        assert_eq!(g.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "without forward")]
    fn relu_backward_without_forward_panics() {
        Relu::new().backward(Tensor::zeros(Shape::d1(1)));
    }
}
