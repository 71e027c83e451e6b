//! Flatten `[n, c, h, w] -> [n, c*h*w]` (and inverse for the backward pass).

use crate::layer::Layer;
use seafl_tensor::{Shape, Tensor};

/// Reshape a rank-4 batch to rank-2 rows, preserving the batch dimension.
#[derive(Clone)]
pub(crate) struct Flatten {
    cached_shape: Option<Shape>,
}

impl Flatten {
    pub(crate) fn new() -> Self {
        Flatten { cached_shape: None }
    }
}

impl Default for Flatten {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Flatten {
    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let s = x.shape();
        assert!(s.rank() >= 2, "Flatten: input must have a batch dimension");
        if train {
            self.cached_shape = Some(s);
        }
        let n = s.dim(0);
        let features = s.len() / n;
        x.reshape(Shape::d2(n, features))
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        let shape =
            self.cached_shape.take().expect("Flatten::backward called without forward(train=true)");
        grad_out.reshape(shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec(Shape::d4(2, 1, 2, 2), (0..8).map(|i| i as f32).collect());
        let y = f.forward(x.clone(), true);
        assert_eq!(y.shape(), Shape::d2(2, 4));
        assert_eq!(y.as_slice(), x.as_slice());
        let g = f.backward(y);
        assert_eq!(g.shape(), Shape::d4(2, 1, 2, 2));
    }
}
