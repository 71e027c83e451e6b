//! Fully-connected layer `y = x W^T + b`.

use crate::layer::Layer;
use rand::Rng;
use seafl_tensor::{init, matmul, Shape, Tensor};

/// Dense (fully-connected) layer.
///
/// * input `[batch, in_features]`
/// * weight `[out_features, in_features]` (row-major, each row one neuron)
/// * bias `[out_features]`
/// * output `[batch, out_features]`
#[derive(Clone)]
pub(crate) struct Dense {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
    in_features: usize,
    out_features: usize,
}

impl Dense {
    /// Xavier-uniform initialized dense layer.
    pub(crate) fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        assert!(in_features > 0 && out_features > 0, "Dense: zero-sized layer");
        let weight = init::xavier_uniform(
            Shape::d2(out_features, in_features),
            in_features,
            out_features,
            rng,
        );
        Dense {
            weight,
            bias: Tensor::zeros(Shape::d1(out_features)),
            grad_weight: Tensor::zeros(Shape::d2(out_features, in_features)),
            grad_bias: Tensor::zeros(Shape::d1(out_features)),
            cached_input: None,
            in_features,
            out_features,
        }
    }

    /// He-normal initialized variant (hidden layers of ReLU MLPs).
    pub(crate) fn new_he(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        let mut d = Self::new(in_features, out_features, rng);
        d.weight = init::he_normal(Shape::d2(out_features, in_features), in_features, rng);
        d
    }
}

impl Layer for Dense {
    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        assert_eq!(x.shape().rank(), 2, "Dense: expected rank-2 input");
        assert_eq!(
            x.shape().dim(1),
            self.in_features,
            "Dense: input features {} != layer in_features {}",
            x.shape().dim(1),
            self.in_features
        );
        // y = x · Wᵀ + b, with the bias fused into the GEMM's C-init so the
        // output rows are written exactly once.
        let y = matmul::matmul_a_bt_bias(&x, &self.weight, self.bias.as_slice());
        self.cached_input = train.then_some(x);
        y
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        // dX = dY · W
        let grad_in = matmul::matmul(&grad_out, &self.weight);
        self.backward_params(grad_out);
        grad_in
    }

    fn backward_params(&mut self, grad_out: Tensor) {
        let x =
            self.cached_input.take().expect("Dense::backward called without forward(train=true)");
        // dW += dYᵀ · X ; db += column-sums(dY)
        let gw = matmul::matmul_at_b(&grad_out, &x);
        self.grad_weight.add_assign(&gw);
        let gb = self.grad_bias.as_mut_slice();
        for row in grad_out.as_slice().chunks_exact(self.out_features) {
            for (b, &g) in gb.iter_mut().zip(row.iter()) {
                *b += g;
            }
        }
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

    #[test]
    fn forward_known_values() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Dense::new(2, 2, &mut rng);
        // Overwrite with known weights: W = [[1,2],[3,4]], b = [10, 20]
        *d.params_mut()[0] = Tensor::from_vec(Shape::d2(2, 2), vec![1., 2., 3., 4.]);
        *d.params_mut()[1] = Tensor::from_slice(&[10., 20.]);
        let x = Tensor::from_vec(Shape::d2(1, 2), vec![1., 1.]);
        let y = d.forward(x, false);
        assert_eq!(y.as_slice(), &[13.0, 27.0]);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Tensor::from_vec(Shape::d2(2, 3), vec![0.5, -1.0, 2.0, 1.5, 0.3, -0.7]);

        // loss = sum(forward(x)); dL/dy = ones
        let y = d.forward(x.clone(), true);
        let gin = d.backward(Tensor::full(y.shape(), 1.0));

        let eps = 1e-3;
        // weight grads
        for idx in 0..6 {
            let orig = d.params()[0].as_slice()[idx];
            d.params_mut()[0].as_mut_slice()[idx] = orig + eps;
            let lp = d.forward(x.clone(), false).sum();
            d.params_mut()[0].as_mut_slice()[idx] = orig - eps;
            let lm = d.forward(x.clone(), false).sum();
            d.params_mut()[0].as_mut_slice()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            let analytic = d.grads()[0].as_slice()[idx];
            assert!((fd - analytic).abs() < 1e-2, "dW[{idx}]: fd={fd} vs {analytic}");
        }
        // bias grads: each output contributes once per batch row
        assert!((d.grads()[1].as_slice()[0] - 2.0).abs() < 1e-5);

        // input grads by finite difference
        let mut xm = x.clone();
        for idx in [0usize, 4] {
            let orig = xm.as_slice()[idx];
            xm.as_mut_slice()[idx] = orig + eps;
            let lp = d.forward(xm.clone(), false).sum();
            xm.as_mut_slice()[idx] = orig - eps;
            let lm = d.forward(xm.clone(), false).sum();
            xm.as_mut_slice()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - gin.as_slice()[idx]).abs() < 1e-2);
        }
    }

    #[test]
    fn grads_accumulate_until_zeroed() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut d = Dense::new(2, 2, &mut rng);
        let x = Tensor::from_vec(Shape::d2(1, 2), vec![1.0, 2.0]);
        for _ in 0..2 {
            let y = d.forward(x.clone(), true);
            d.backward(Tensor::full(y.shape(), 1.0));
        }
        let twice = d.grads()[0].as_slice().to_vec();
        d.zero_grads();
        let y = d.forward(x.clone(), true);
        d.backward(Tensor::full(y.shape(), 1.0));
        let once = d.grads()[0].as_slice().to_vec();
        for (t, o) in twice.iter().zip(once.iter()) {
            assert!((t - 2.0 * o).abs() < 1e-5);
        }
    }

    #[test]
    fn backward_params_leaves_grads_bit_equal_to_backward() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut full = Dense::new(5, 3, &mut rng);
        let mut params_only = full.clone();
        for step in 0..2 {
            let x = Tensor::from_vec(
                Shape::d2(2, 5),
                (0..10).map(|i| (i as f32 + step as f32) * 0.37 - 1.5).collect(),
            );
            let gout = Tensor::from_vec(Shape::d2(2, 3), vec![0.3, -1.1, 0.7, 2.0, -0.4, 0.05]);
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
    #[should_panic(expected = "without forward")]
    fn backward_without_forward_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Dense::new(2, 2, &mut rng);
        d.backward(Tensor::zeros(Shape::d2(1, 2)));
    }

    #[test]
    fn num_params() {
        let mut rng = StdRng::seed_from_u64(4);
        let d = Dense::new(10, 5, &mut rng);
        assert_eq!(d.num_params(), 55);
    }
}
