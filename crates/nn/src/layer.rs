//! The [`Layer`] trait: explicit forward/backward with cached activations.

use seafl_tensor::Tensor;

/// A differentiable network component.
///
/// Contract:
/// * `forward(x, train)` consumes the input, caches whatever the backward
///   pass needs (only when `train` is true), and returns the output.
/// * `backward(grad_out)` consumes the output gradient, **accumulates**
///   parameter gradients internally, and returns the input gradient. It must
///   be called at most once per `forward(.., true)` call, after that call.
/// * `params` / `grads` expose parameters and their gradients in a stable
///   order, so optimizers and the flatten/unflatten machinery can zip them.
pub(crate) trait Layer: Send {
    /// Clone the layer behind the trait object (parameters, buffers and any
    /// internal RNG state included). This is what lets a whole [`Model`] be
    /// duplicated for the per-worker trainer pool without re-running weight
    /// initialization.
    ///
    /// [`Model`]: ../models/struct.Model.html
    fn clone_layer(&self) -> Box<dyn Layer>;

    /// Forward pass. `train` controls activation caching and
    /// train-vs-inference behaviour (batch-norm statistics, etc.).
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor;

    /// Backward pass: consume `grad_out`, accumulate parameter gradients,
    /// return the gradient with respect to the forward input.
    fn backward(&mut self, grad_out: Tensor) -> Tensor;

    /// [`Layer::backward`] for a layer whose input gradient nobody reads —
    /// the first layer of a network: accumulate parameter gradients exactly
    /// as `backward` would, and skip the input gradient where that saves
    /// work.
    fn backward_params(&mut self, grad_out: Tensor) {
        self.backward(grad_out);
    }

    /// Immutable views of all parameters, in a stable order.
    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    /// Mutable views of all parameters, each paired with its accumulated
    /// gradient, same order as [`Layer::params`]: what an optimizer step
    /// reads and writes in one borrow.
    fn params_grads_mut(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
        Vec::new()
    }

    /// Mutable views of all parameters, same order as [`Layer::params`].
    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.params_grads_mut().into_iter().map(|(p, _)| p).collect()
    }

    /// Immutable views of the accumulated gradients, aligned with `params`.
    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    /// Reset accumulated gradients to zero (keeps allocations).
    fn zero_grads(&mut self) {}

    /// Total number of scalar parameters.
    fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Non-trainable state that must travel with the model between server
    /// and clients (batch-norm running statistics). Not touched by
    /// optimizers; included in the flattened model state.
    fn buffers(&self) -> Vec<&[f32]> {
        Vec::new()
    }

    /// Mutable views of [`Layer::buffers`], same order.
    fn buffers_mut(&mut self) -> Vec<&mut [f32]> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seafl_tensor::Shape;

    /// Minimal layer to exercise the default methods.
    #[derive(Clone)]
    struct Identity;
    impl Layer for Identity {
        fn clone_layer(&self) -> Box<dyn Layer> {
            Box::new(self.clone())
        }
        fn forward(&mut self, x: Tensor, _train: bool) -> Tensor {
            x
        }
        fn backward(&mut self, grad_out: Tensor) -> Tensor {
            grad_out
        }
    }

    #[test]
    fn default_trait_methods() {
        let mut id = Identity;
        assert_eq!(id.num_params(), 0);
        assert!(id.params().is_empty());
        assert!(id.grads().is_empty());
        id.zero_grads();
        let x = Tensor::zeros(Shape::d1(3));
        let y = id.forward(x.clone(), true);
        assert_eq!(y, x);
        assert_eq!(id.backward(y.clone()), y);
    }
}
