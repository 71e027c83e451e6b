//! Batch normalization over NCHW channels.

use crate::layer::Layer;
use seafl_tensor::{Shape, Tensor};

const EPS: f32 = 1e-5;

/// 2-D batch normalization: normalizes each channel over `(batch, h, w)`,
/// with learnable scale `γ` and shift `β` and running statistics for
/// inference.
///
/// In the federated setting the running statistics travel with the model
/// parameters (they are part of the flattened state vector in
/// [`crate::Model`]'s buffers), matching what PLATO/PyTorch ship between
/// server and clients.
#[derive(Clone)]
pub(crate) struct BatchNorm2d {
    channels: usize,
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    pub(crate) running_mean: Vec<f32>,
    pub(crate) running_var: Vec<f32>,
    momentum: f32,
    cache: Option<BnCache>,
}

#[derive(Clone)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    in_shape: Shape,
}

impl BatchNorm2d {
    pub(crate) fn new(channels: usize) -> Self {
        assert!(channels > 0, "BatchNorm2d: zero channels");
        BatchNorm2d {
            channels,
            gamma: Tensor::full(Shape::d1(channels), 1.0),
            beta: Tensor::zeros(Shape::d1(channels)),
            grad_gamma: Tensor::zeros(Shape::d1(channels)),
            grad_beta: Tensor::zeros(Shape::d1(channels)),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            cache: None,
        }
    }

    /// Per-channel iteration helper: calls `f(channel, slice)` for each
    /// channel plane of each batch item.
    fn for_each_plane(x: &Tensor, mut f: impl FnMut(usize, &[f32])) {
        let s = x.shape();
        let (n, c, hw) = (s.dim(0), s.dim(1), s.dim(2) * s.dim(3));
        let v = x.as_slice();
        for ni in 0..n {
            for ci in 0..c {
                let off = (ni * c + ci) * hw;
                f(ci, &v[off..off + hw]);
            }
        }
    }
}

impl Layer for BatchNorm2d {
    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let s = x.shape();
        assert_eq!(s.rank(), 4, "BatchNorm2d: expected NCHW input");
        assert_eq!(s.dim(1), self.channels, "BatchNorm2d: channel mismatch");
        let (n, c, hw) = (s.dim(0), s.dim(1), s.dim(2) * s.dim(3));
        let m = (n * hw) as f32;

        let (mean, var) = if train {
            let mut mean = vec![0.0f64; c];
            let mut sq = vec![0.0f64; c];
            Self::for_each_plane(&x, |ci, plane| {
                for &v in plane {
                    mean[ci] += v as f64;
                    sq[ci] += (v as f64) * (v as f64);
                }
            });
            let mean: Vec<f32> = mean.iter().map(|&s| (s / m as f64) as f32).collect();
            let var: Vec<f32> = sq
                .iter()
                .zip(mean.iter())
                .map(|(&s, &mu)| ((s / m as f64) - (mu as f64) * (mu as f64)).max(0.0) as f32)
                .collect();
            for ci in 0..c {
                self.running_mean[ci] =
                    (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * mean[ci];
                self.running_var[ci] =
                    (1.0 - self.momentum) * self.running_var[ci] + self.momentum * var[ci];
            }
            (mean, var)
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };

        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + EPS).sqrt()).collect();
        let g = self.gamma.as_slice();
        let b = self.beta.as_slice();

        let mut out = vec![0.0f32; x.len()];
        let mut x_hat = vec![0.0f32; x.len()];
        let xv = x.as_slice();
        for ni in 0..n {
            for ci in 0..c {
                let off = (ni * c + ci) * hw;
                let (mu, is, gc, bc) = (mean[ci], inv_std[ci], g[ci], b[ci]);
                for i in off..off + hw {
                    let xh = (xv[i] - mu) * is;
                    x_hat[i] = xh;
                    out[i] = gc * xh + bc;
                }
            }
        }

        if train {
            self.cache = Some(BnCache { x_hat: Tensor::from_vec(s, x_hat), inv_std, in_shape: s });
        }
        Tensor::from_vec(s, out)
    }

    fn backward(&mut self, grad_out: Tensor) -> Tensor {
        let cache =
            self.cache.take().expect("BatchNorm2d::backward called without forward(train=true)");
        let s = cache.in_shape;
        let (n, c, hw) = (s.dim(0), s.dim(1), s.dim(2) * s.dim(3));
        let m = (n * hw) as f32;

        let gv = grad_out.as_slice();
        let xh = cache.x_hat.as_slice();

        // Per-channel sums: Σdy and Σ(dy·x̂)
        let mut sum_dy = vec![0.0f64; c];
        let mut sum_dy_xhat = vec![0.0f64; c];
        for ni in 0..n {
            for ci in 0..c {
                let off = (ni * c + ci) * hw;
                for i in off..off + hw {
                    sum_dy[ci] += gv[i] as f64;
                    sum_dy_xhat[ci] += (gv[i] * xh[i]) as f64;
                }
            }
        }

        // Parameter gradients.
        for ci in 0..c {
            self.grad_gamma.as_mut_slice()[ci] += sum_dy_xhat[ci] as f32;
            self.grad_beta.as_mut_slice()[ci] += sum_dy[ci] as f32;
        }

        // Input gradient:
        // dx = γ·inv_std/m · (m·dy − Σdy − x̂·Σ(dy·x̂))
        let g = self.gamma.as_slice();
        let mut grad_in = vec![0.0f32; grad_out.len()];
        for ni in 0..n {
            for ci in 0..c {
                let off = (ni * c + ci) * hw;
                let k = g[ci] * cache.inv_std[ci] / m;
                let (sd, sdx) = (sum_dy[ci] as f32, sum_dy_xhat[ci] as f32);
                for i in off..off + hw {
                    grad_in[i] = k * (m * gv[i] - sd - xh[i] * sdx);
                }
            }
        }
        Tensor::from_vec(s, grad_in)
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.grad_gamma, &self.grad_beta]
    }

    fn zero_grads(&mut self) {
        self.grad_gamma.fill_zero();
        self.grad_beta.fill_zero();
    }

    fn buffers(&self) -> Vec<&[f32]> {
        vec![&self.running_mean, &self.running_var]
    }

    fn buffers_mut(&mut self) -> Vec<&mut [f32]> {
        vec![&mut self.running_mean, &mut self.running_var]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng_tensor(shape: Shape, seed: u64) -> Tensor {
        let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
        Tensor::from_vec(
            shape,
            (0..shape.len())
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    (s as f64 / u64::MAX as f64) as f32 * 4.0 - 2.0
                })
                .collect(),
        )
    }

    #[test]
    fn train_forward_normalizes_per_channel() {
        let mut bn = BatchNorm2d::new(2);
        let x = rng_tensor(Shape::d4(4, 2, 3, 3), 1);
        let y = bn.forward(x, true);
        // With γ=1, β=0 the output of each channel must be ~N(0,1).
        let s = y.shape();
        let (n, c, hw) = (s.dim(0), s.dim(1), 9);
        for ci in 0..c {
            let mut vals = Vec::new();
            for ni in 0..n {
                let off = (ni * c + ci) * hw;
                vals.extend_from_slice(&y.as_slice()[off..off + hw]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        // Train a few batches so running stats move off the defaults.
        for seed in 0..5 {
            bn.forward(rng_tensor(Shape::d4(8, 1, 2, 2), seed), true);
        }
        let x = Tensor::full(Shape::d4(1, 1, 2, 2), 0.5);
        let y1 = bn.forward(x.clone(), false);
        let y2 = bn.forward(x, false);
        // Inference is deterministic and does not touch running stats.
        assert_eq!(y1, y2);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut bn = BatchNorm2d::new(2);
        let x = rng_tensor(Shape::d4(2, 2, 2, 2), 3);

        let y = bn.forward(x.clone(), true);
        let gin = bn.backward(Tensor::full(y.shape(), 1.0));

        // For a sum loss through batch norm, the input gradient is ~0 because
        // shifting any single input moves the mean with it; check a directed
        // loss instead: L = Σ w·y with distinct weights.
        let w = rng_tensor(y.shape(), 99);
        let mut bn2 = BatchNorm2d::new(2);
        let y2 = bn2.forward(x.clone(), true);
        let _ = y2;
        let gin2 = bn2.backward(w.clone());

        let eps = 1e-2;
        for idx in [0usize, 5, 9, 15] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let mut bn_p = BatchNorm2d::new(2);
            let mut bn_m = BatchNorm2d::new(2);
            let lp = bn_p.forward(xp, true).dot(&w);
            let lm = bn_m.forward(xm, true).dot(&w);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - gin2.as_slice()[idx]).abs() < 5e-2,
                "dx[{idx}]: fd={fd} vs analytic={}",
                gin2.as_slice()[idx]
            );
        }
        // Sum-loss input gradient should be near zero (mean shift cancels).
        assert!(gin.as_slice().iter().all(|&v| v.abs() < 1e-3));
    }

    #[test]
    fn gamma_beta_grads() {
        let mut bn = BatchNorm2d::new(1);
        let x = rng_tensor(Shape::d4(2, 1, 2, 2), 5);
        let y = bn.forward(x, true);
        bn.backward(Tensor::full(y.shape(), 1.0));
        // dβ = Σ dy = number of elements; dγ = Σ x̂ ≈ 0 for normalized x̂.
        assert!((bn.grads()[1].as_slice()[0] - 8.0).abs() < 1e-4);
        assert!(bn.grads()[0].as_slice()[0].abs() < 1e-3);
    }
}
