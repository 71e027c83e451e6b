//! Pooling layers wrapping the kernels in `seafl_tensor::conv`.

use crate::layer::Layer;
use seafl_tensor::conv;
use seafl_tensor::{Shape, Tensor};

/// Max pooling over `k × k` windows.
#[derive(Clone)]
pub(crate) struct MaxPool2d {
    k: usize,
    stride: usize,
    cached: Option<(Vec<u32>, Shape)>,
}

impl MaxPool2d {
    pub(crate) fn new(k: usize, stride: usize) -> Self {
        assert!(k > 0 && stride > 0, "MaxPool2d: zero kernel or stride");
        MaxPool2d { k, stride, cached: None }
    }
}

impl Layer for MaxPool2d {
    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let in_shape = x.shape();
        let (y, arg) = conv::maxpool2d_forward(&x, self.k, self.stride);
        if train {
            self.cached = Some((arg, in_shape));
        }
        y
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        let (arg, in_shape) =
            self.cached.take().expect("MaxPool2d::backward called without forward(train=true)");
        conv::maxpool2d_backward(&grad_out, &arg, in_shape)
    }
}

/// Global average pooling `[n, c, h, w] -> [n, c]` (ResNet head).
#[derive(Clone)]
pub(crate) struct GlobalAvgPool {
    cached_shape: Option<Shape>,
}

impl GlobalAvgPool {
    pub(crate) fn new() -> Self {
        GlobalAvgPool { cached_shape: None }
    }
}

impl Default for GlobalAvgPool {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for GlobalAvgPool {
    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        if train {
            self.cached_shape = Some(x.shape());
        }
        conv::global_avgpool(&x)
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        let shape = self
            .cached_shape
            .take()
            .expect("GlobalAvgPool::backward called without forward(train=true)");
        conv::global_avgpool_backward(&grad_out, shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_layer_roundtrip() {
        let mut p = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(Shape::d4(1, 1, 2, 2), vec![1.0, 5.0, 3.0, 2.0]);
        let y = p.forward(x, true);
        assert_eq!(y.as_slice(), &[5.0]);
        let g = p.backward(Tensor::from_slice(&[7.0]).reshape(Shape::d4(1, 1, 1, 1)));
        assert_eq!(g.as_slice(), &[0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn global_avgpool_shapes() {
        let mut p = GlobalAvgPool::new();
        let x = Tensor::full(Shape::d4(2, 3, 4, 4), 2.0);
        let y = p.forward(x, true);
        assert_eq!(y.shape(), Shape::d2(2, 3));
        assert!(y.as_slice().iter().all(|&v| (v - 2.0).abs() < 1e-6));
        let g = p.backward(Tensor::full(Shape::d2(2, 3), 16.0));
        assert!(g.as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }
}
