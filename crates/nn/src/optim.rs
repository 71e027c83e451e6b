//! SGD optimizer with momentum.

use crate::layer::Layer;

/// Stochastic gradient descent with classical (heavyball) momentum — the
/// optimizer the paper's experiments use (`η` in Algorithm 1).
#[derive(Clone)]
pub struct Sgd {
    pub lr: f32,
    pub(crate) momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "Sgd: non-positive learning rate");
        Sgd { lr, momentum: 0.0, velocity: Vec::new() }
    }

    pub fn with_momentum(mut self, momentum: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum), "Sgd: momentum must be in [0,1)");
        self.momentum = momentum;
        self
    }

    /// Apply one update step to all parameters of `layer` using its
    /// accumulated gradients, then zero the gradients.
    ///
    /// `v ← m·v + g ; w ← w − lr·v`
    pub(crate) fn step(&mut self, layer: &mut (impl Layer + ?Sized)) {
        // Velocity buffers are lazily sized on first use and then reused.
        {
            let params = layer.params();
            if self.velocity.len() != params.len() {
                self.velocity = params.iter().map(|p| vec![0.0; p.len()]).collect();
            } else {
                for (v, p) in self.velocity.iter().zip(params.iter()) {
                    assert_eq!(v.len(), p.len(), "Sgd: parameter layout changed");
                }
            }
        }

        // Collect gradient snapshots first (grads() and params_mut() cannot
        // be borrowed simultaneously through the trait).
        let grads: Vec<Vec<f32>> = layer.grads().iter().map(|g| g.as_slice().to_vec()).collect();
        let (lr, mom) = (self.lr, self.momentum);
        for ((param, grad), vel) in
            layer.params_mut().into_iter().zip(grads.iter()).zip(self.velocity.iter_mut())
        {
            let pv = param.as_mut_slice();
            if mom == 0.0 {
                for i in 0..pv.len() {
                    pv[i] -= lr * grad[i];
                }
            } else {
                for i in 0..pv.len() {
                    vel[i] = mom * vel[i] + grad[i];
                    pv[i] -= lr * vel[i];
                }
            }
        }
        layer.zero_grads();
    }

    /// Drop momentum state (e.g. after the model weights are replaced by a
    /// freshly downloaded global model — stale velocity is misleading).
    pub fn reset_state(&mut self) {
        self.velocity.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use seafl_tensor::{Shape, Tensor};

    fn loss_of(d: &mut Dense, x: &Tensor) -> f32 {
        d.forward(x.clone(), false).map(|v| v * v).sum()
    }

    #[test]
    fn sgd_decreases_quadratic_loss() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Tensor::from_vec(Shape::d2(1, 3), vec![1.0, -0.5, 0.3]);
        let mut opt = Sgd::new(0.05);

        let before = loss_of(&mut d, &x);
        for _ in 0..50 {
            let y = d.forward(x.clone(), true);
            // dL/dy for L = Σ y² is 2y
            let g = y.map(|v| 2.0 * v);
            d.backward(g);
            opt.step(&mut d);
        }
        let after = loss_of(&mut d, &x);
        assert!(after < before * 0.1, "loss {before} -> {after}");
    }

    #[test]
    fn momentum_accelerates_on_smooth_loss() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::from_vec(Shape::d2(1, 3), vec![1.0, -0.5, 0.3]);

        let run = |momentum: f32| {
            let mut rng2 = StdRng::seed_from_u64(1);
            let mut d = Dense::new(3, 2, &mut rng2);
            let mut opt = Sgd::new(0.01).with_momentum(momentum);
            for _ in 0..30 {
                let y = d.forward(x.clone(), true);
                d.backward(y.map(|v| 2.0 * v));
                opt.step(&mut d);
            }
            loss_of(&mut d, &x)
        };
        let _ = &mut rng;
        assert!(run(0.9) < run(0.0));
    }

    #[test]
    fn step_zeroes_grads() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Dense::new(2, 2, &mut rng);
        let x = Tensor::from_vec(Shape::d2(1, 2), vec![1.0, 1.0]);
        let y = d.forward(x, true);
        d.backward(Tensor::full(y.shape(), 1.0));
        let mut opt = Sgd::new(0.1);
        opt.step(&mut d);
        assert!(d.grads().iter().all(|g| g.as_slice().iter().all(|&v| v == 0.0)));
    }

    #[test]
    #[should_panic(expected = "non-positive learning rate")]
    fn zero_lr_panics() {
        Sgd::new(0.0);
    }
}
