//! Sequential layer container.

use crate::layer::Layer;
use seafl_tensor::Tensor;

/// A stack of layers applied in order. Itself a [`Layer`], so sequentials
/// nest (residual blocks hold one for their main path).
pub(crate) struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    pub(crate) fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Builder-style push.
    #[allow(clippy::should_implement_trait)] // builder `add`, not arithmetic
    pub(crate) fn add(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for Sequential {
    fn clone(&self) -> Self {
        Sequential { layers: self.layers.iter().map(|l| l.clone_layer()).collect() }
    }
}

impl Layer for Sequential {
    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, mut x: Tensor, train: bool) -> Tensor {
        for l in &mut self.layers {
            x = l.forward(x, train);
        }
        x
    }

    fn backward(&mut self, mut grad: Tensor) -> Tensor {
        for l in self.layers.iter_mut().rev() {
            grad = l.backward(grad);
        }
        grad
    }

    /// `backward` through layers `n..1`, then `backward_params` on layer 0:
    /// the gradient of the network's own input is never formed.
    fn backward_params(&mut self, mut grad: Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else { return };
        for l in rest.iter_mut().rev() {
            grad = l.backward(grad);
        }
        first.backward_params(grad);
    }

    fn params(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn params_grads_mut(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
        self.layers.iter_mut().flat_map(|l| l.params_grads_mut()).collect()
    }

    fn grads(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| l.grads()).collect()
    }

    fn zero_grads(&mut self) {
        for l in &mut self.layers {
            l.zero_grads();
        }
    }

    fn buffers(&self) -> Vec<&[f32]> {
        self.layers.iter().flat_map(|l| l.buffers()).collect()
    }

    fn buffers_mut(&mut self) -> Vec<&mut [f32]> {
        self.layers.iter_mut().flat_map(|l| l.buffers_mut()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activations::Relu;
    use crate::dense::Dense;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use seafl_tensor::Shape;

    fn two_layer() -> Sequential {
        let mut rng = StdRng::seed_from_u64(0);
        Sequential::new()
            .add(Dense::new(4, 8, &mut rng))
            .add(Relu::new())
            .add(Dense::new(8, 3, &mut rng))
    }

    #[test]
    fn forward_composes() {
        let mut net = two_layer();
        let y = net.forward(Tensor::zeros(Shape::d2(2, 4)), false);
        assert_eq!(y.shape(), Shape::d2(2, 3));
    }

    #[test]
    fn params_concatenated_in_order() {
        let net = two_layer();
        // dense(4->8): W + b; relu: none; dense(8->3): W + b
        assert_eq!(net.params().len(), 4);
        assert_eq!(net.num_params(), 4 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn backward_through_stack_finite_difference() {
        let mut net = two_layer();
        let x = Tensor::from_vec(Shape::d2(1, 4), vec![0.3, -0.5, 0.9, 0.1]);
        let y = net.forward(x.clone(), true);
        let gin = net.backward(Tensor::full(y.shape(), 1.0));

        let eps = 1e-3;
        for idx in 0..4 {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let lp = net.forward(xp, false).sum();
            let lm = net.forward(xm, false).sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - gin.as_slice()[idx]).abs() < 1e-2,
                "dx[{idx}]: fd={fd} vs {}",
                gin.as_slice()[idx]
            );
        }
    }
}
