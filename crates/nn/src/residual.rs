//! Residual block (ResNet BasicBlock).

use crate::activations::Relu;
use crate::conv::Conv2d;
use crate::layer::Layer;
use crate::norm::BatchNorm2d;
use crate::sequential::Sequential;
use rand::Rng;
use seafl_tensor::conv::Conv2dGeom;
use seafl_tensor::Tensor;

/// ResNet basic block: `y = relu(main(x) + shortcut(x))` where `main` is
/// conv-bn-relu-conv-bn and `shortcut` is identity or a strided 1×1
/// conv-bn projection when the shape changes.
#[derive(Clone)]
pub(crate) struct ResidualBlock {
    main: Sequential,
    shortcut: Option<Sequential>,
    final_relu: Relu,
    cached_input: Option<Tensor>,
}

impl ResidualBlock {
    /// Build a basic block on an `in_c × h × w` input.
    pub(crate) fn new(
        in_c: usize,
        out_c: usize,
        h: usize,
        w: usize,
        stride: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let g1 = Conv2dGeom { in_c, in_h: h, in_w: w, k_h: 3, k_w: 3, stride, pad: 1 };
        let (oh, ow) = (g1.out_h(), g1.out_w());
        let g2 = Conv2dGeom { in_c: out_c, in_h: oh, in_w: ow, k_h: 3, k_w: 3, stride: 1, pad: 1 };

        let main = Sequential::new()
            .add(Conv2d::new(g1, out_c, rng))
            .add(BatchNorm2d::new(out_c))
            .add(Relu::new())
            .add(Conv2d::new(g2, out_c, rng))
            .add(BatchNorm2d::new(out_c));

        let shortcut = if stride != 1 || in_c != out_c {
            let gs = Conv2dGeom { in_c, in_h: h, in_w: w, k_h: 1, k_w: 1, stride, pad: 0 };
            Some(Sequential::new().add(Conv2d::new(gs, out_c, rng)).add(BatchNorm2d::new(out_c)))
        } else {
            None
        };

        ResidualBlock { main, shortcut, final_relu: Relu::new(), cached_input: None }
    }
}

impl Layer for ResidualBlock {
    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let mut out = self.main.forward(x.clone(), train);
        let skip = match &mut self.shortcut {
            Some(sc) => sc.forward(x.clone(), train),
            None => x.clone(),
        };
        out.add_assign(&skip);
        if train {
            self.cached_input = Some(x);
        }
        self.final_relu.forward(out, train)
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        self.cached_input
            .take()
            .expect("ResidualBlock::backward called without forward(train=true)");
        let g = self.final_relu.backward(grad_out);
        // Sum node: gradient flows unchanged into both branches.
        let mut grad_in = self.main.backward(g.clone());
        let skip_grad = match &mut self.shortcut {
            Some(sc) => sc.backward(g),
            None => g,
        };
        grad_in.add_assign(&skip_grad);
        grad_in
    }

    fn params(&self) -> Vec<&Tensor> {
        let mut p = self.main.params();
        if let Some(sc) = &self.shortcut {
            p.extend(sc.params());
        }
        p
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        let mut p = self.main.params_mut();
        if let Some(sc) = &mut self.shortcut {
            p.extend(sc.params_mut());
        }
        p
    }

    fn grads(&self) -> Vec<&Tensor> {
        let mut g = self.main.grads();
        if let Some(sc) = &self.shortcut {
            g.extend(sc.grads());
        }
        g
    }

    fn zero_grads(&mut self) {
        self.main.zero_grads();
        if let Some(sc) = &mut self.shortcut {
            sc.zero_grads();
        }
    }

    fn buffers(&self) -> Vec<&[f32]> {
        let mut b = self.main.buffers();
        if let Some(sc) = &self.shortcut {
            b.extend(sc.buffers());
        }
        b
    }

    fn buffers_mut(&mut self) -> Vec<&mut [f32]> {
        let mut b = self.main.buffers_mut();
        if let Some(sc) = &mut self.shortcut {
            b.extend(sc.buffers_mut());
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use seafl_tensor::Shape;

    #[test]
    fn identity_block_shape_preserved() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut b = ResidualBlock::new(4, 4, 6, 6, 1, &mut rng);
        let x = Tensor::zeros(Shape::d4(2, 4, 6, 6));
        let y = b.forward(x, false);
        assert_eq!(y.shape(), Shape::d4(2, 4, 6, 6));
        // Identity shortcut: no projection parameters.
        assert!(b.shortcut.is_none());
    }

    #[test]
    fn strided_block_downsamples_with_projection() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut b = ResidualBlock::new(4, 8, 6, 6, 2, &mut rng);
        let x = Tensor::zeros(Shape::d4(1, 4, 6, 6));
        let y = b.forward(x, false);
        assert_eq!(y.shape(), Shape::d4(1, 8, 3, 3));
        assert!(b.shortcut.is_some());
    }

    #[test]
    fn backward_produces_input_shaped_gradient() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut b = ResidualBlock::new(3, 6, 4, 4, 2, &mut rng);
        let x = Tensor::full(Shape::d4(2, 3, 4, 4), 0.1);
        let y = b.forward(x.clone(), true);
        let g = b.backward(Tensor::full(y.shape(), 1.0));
        assert_eq!(g.shape(), x.shape());
        assert!(!g.has_non_finite());
    }

    #[test]
    fn gradient_flows_through_skip_connection() {
        // Zero out the main path's final BN gamma so the main branch
        // contributes nothing; the skip path must still carry gradient.
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = ResidualBlock::new(2, 2, 4, 4, 1, &mut rng);
        let x = Tensor::full(Shape::d4(1, 2, 4, 4), 0.5);
        let y = b.forward(x.clone(), true);
        let g = b.backward(Tensor::full(y.shape(), 1.0));
        // The input gradient must be non-zero thanks to the identity skip.
        assert!(g.norm() > 0.0);
    }
}
