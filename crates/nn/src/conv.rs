//! 2-D convolution layer backed by the im2col-free conv kernels in
//! `seafl-tensor`.

use crate::layer::Layer;
use rand::Rng;
use seafl_tensor::conv::{conv2d_backward, conv2d_backward_params, conv2d_forward, Conv2dGeom};
use seafl_tensor::{init, Shape, Tensor};

/// 2-D convolution over NCHW batches.
///
/// Weights are stored pre-flattened as `[out_channels, in_c*k*k]` so the
/// forward pass is a GEMM against a gathered im2col view of the input —
/// patches are packed straight into the kernel's panels, never materialized.
#[derive(Clone)]
pub(crate) struct Conv2d {
    geom: Conv2dGeom,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// He-normal initialized convolution; `geom` fixes the input spatial
    /// dimensions (models in this project are built for a fixed input size,
    /// like the paper's 28×28 / 32×32 datasets).
    pub(crate) fn new(geom: Conv2dGeom, out_channels: usize, rng: &mut impl Rng) -> Self {
        assert!(out_channels > 0, "Conv2d: zero output channels");
        let patch = geom.patch_len();
        Conv2d {
            geom,
            weight: init::he_normal(Shape::d2(out_channels, patch), patch, rng),
            bias: Tensor::zeros(Shape::d1(out_channels)),
            grad_weight: Tensor::zeros(Shape::d2(out_channels, patch)),
            grad_bias: Tensor::zeros(Shape::d1(out_channels)),
            cached_input: None,
        }
    }

    fn take_input(&mut self) -> Tensor {
        self.cached_input.take().expect("Conv2d::backward called without forward(train=true)")
    }

    fn accumulate(&mut self, gw: &Tensor, gb: &[f32]) {
        self.grad_weight.add_assign(gw);
        for (b, g) in self.grad_bias.as_mut_slice().iter_mut().zip(gb.iter()) {
            *b += g;
        }
    }
}

impl Layer for Conv2d {
    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let s = x.shape();
        assert_eq!(s.rank(), 4, "Conv2d: expected NCHW input");
        assert_eq!(
            (s.dim(1), s.dim(2), s.dim(3)),
            (self.geom.in_c, self.geom.in_h, self.geom.in_w),
            "Conv2d: input {} does not match geometry {:?}",
            s,
            self.geom
        );
        let out = conv2d_forward(&x, &self.weight, self.bias.as_slice(), &self.geom);
        // Backward re-reads patches through the gather views, so the
        // only state kept between passes is the input itself — no
        // `[n·oh·ow, patch]` column matrix is ever materialized.
        self.cached_input = train.then_some(x);
        out
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        let x = self.take_input();
        let (grad_in, gw, gb) = conv2d_backward(&grad_out, &x, &self.weight, &self.geom);
        self.accumulate(&gw, &gb);
        grad_in
    }

    fn backward_params(&mut self, grad_out: Tensor) {
        let x = self.take_input();
        let (gw, gb) = conv2d_backward_params(&grad_out, &x, &self.geom);
        self.accumulate(&gw, &gb);
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_grads_mut(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
        vec![(&mut self.weight, &self.grad_weight), (&mut self.bias, &self.grad_bias)]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.grad_weight, &self.grad_bias]
    }

    fn zero_grads(&mut self) {
        self.grad_weight.fill_zero();
        self.grad_bias.fill_zero();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng_tensor(shape: Shape, seed: u64) -> Tensor {
        let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
        Tensor::from_vec(
            shape,
            (0..shape.len())
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    (s as f64 / u64::MAX as f64) as f32 - 0.5
                })
                .collect(),
        )
    }

    #[test]
    fn output_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let g = Conv2dGeom { in_c: 1, in_h: 28, in_w: 28, k_h: 5, k_w: 5, stride: 1, pad: 0 };
        let mut c = Conv2d::new(g, 6, &mut rng);
        let x = Tensor::zeros(Shape::d4(2, 1, 28, 28));
        let y = c.forward(x, false);
        assert_eq!(y.shape(), Shape::d4(2, 6, 24, 24));
    }

    #[test]
    fn layer_grads_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = Conv2dGeom { in_c: 2, in_h: 5, in_w: 5, k_h: 3, k_w: 3, stride: 1, pad: 1 };
        let mut layer = Conv2d::new(g, 3, &mut rng);
        let x = rng_tensor(Shape::d4(1, 2, 5, 5), 9);

        let y = layer.forward(x.clone(), true);
        let gin = layer.backward(Tensor::full(y.shape(), 1.0));

        let eps = 1e-3;
        for idx in [0usize, 10, 25, 53] {
            let orig = layer.params()[0].as_slice()[idx];
            layer.params_mut()[0].as_mut_slice()[idx] = orig + eps;
            let lp = layer.forward(x.clone(), false).sum();
            layer.params_mut()[0].as_mut_slice()[idx] = orig - eps;
            let lm = layer.forward(x.clone(), false).sum();
            layer.params_mut()[0].as_mut_slice()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            let analytic = layer.grads()[0].as_slice()[idx];
            assert!((fd - analytic).abs() < 2e-2, "dW[{idx}]: fd={fd} vs {analytic}");
        }
        assert_eq!(gin.shape(), x.shape());
    }

    #[test]
    fn backward_params_leaves_grads_bit_equal_to_backward() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = Conv2dGeom { in_c: 2, in_h: 6, in_w: 5, k_h: 3, k_w: 3, stride: 2, pad: 1 };
        let mut full = Conv2d::new(g, 3, &mut rng);
        let mut params_only = full.clone();
        for step in 0..2 {
            let x = rng_tensor(Shape::d4(3, 2, 6, 5), 10 + step);
            let gout = rng_tensor(Shape::d4(3, 3, 3, 3), 20 + step);
            full.forward(x.clone(), true);
            full.backward(gout.clone());
            params_only.forward(x, true);
            params_only.backward_params(gout);
        }
        for (a, b) in full.grads().iter().zip(params_only.grads().iter()) {
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b));
        }
    }

    #[test]
    fn num_params_counts_weight_and_bias() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = Conv2dGeom { in_c: 3, in_h: 8, in_w: 8, k_h: 3, k_w: 3, stride: 1, pad: 1 };
        let c = Conv2d::new(g, 16, &mut rng);
        assert_eq!(c.num_params(), 16 * 27 + 16);
    }

    #[test]
    #[should_panic(expected = "does not match geometry")]
    fn wrong_input_size_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = Conv2dGeom { in_c: 1, in_h: 28, in_w: 28, k_h: 5, k_w: 5, stride: 1, pad: 0 };
        let mut c = Conv2d::new(g, 6, &mut rng);
        c.forward(Tensor::zeros(Shape::d4(1, 1, 27, 27)), false);
    }
}
