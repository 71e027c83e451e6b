//! Model zoo: the architectures the SEAFL paper evaluates, plus a small MLP
//! for tests, all wrapped in a [`Model`] that exposes the flat state vector
//! federated aggregation operates on.

mod lenet;
mod mlp;
mod resnet;
mod vgg;

use crate::layer::Layer;
use crate::loss::SoftmaxCrossEntropy;
use crate::optim::Sgd;
use crate::sequential::Sequential;
use rand::rngs::StdRng;
use rand::SeedableRng;
use seafl_tensor::{stats, Tensor};

/// Architecture selector. Width-scaled variants (`width_base`) keep the
/// topology (depth, stride schedule, skip connections) of the paper's models
/// while shrinking channel counts so CPU-only federated simulation is
/// tractable; `width_base = 64` recovers the standard architectures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// LeNet-5 on `[1, 28, 28]` inputs (EMNIST/MNIST-like). The paper's
    /// EMNIST model.
    LeNet5 { num_classes: usize },
    /// ResNet-18 topology on `[3, 32, 32]` inputs (CIFAR-10-like).
    /// `width_base` is the stem channel count (paper-standard: 64).
    ResNet18 { num_classes: usize, width_base: usize },
    /// ResNet-18 with group normalization instead of batch norm — the
    /// batch-independent variant commonly used in FL, where batch-norm
    /// running statistics mix poorly across non-IID clients.
    ResNet18Gn { num_classes: usize, width_base: usize },
    /// VGG-16 topology on `[3, 32, 32]` inputs (CINIC-10-like).
    /// `width_base` is the first block's channel count (paper-standard: 64).
    Vgg16 { num_classes: usize, width_base: usize },
    /// Two-hidden-layer ReLU MLP on flattened `[c, h, w]` inputs; fast
    /// substitute used by unit tests and quick experiments.
    Mlp { in_features: usize, hidden: usize, num_classes: usize },
}

impl ModelKind {
    /// Instantiate the architecture with weights drawn from `seed`.
    pub fn build(&self, seed: u64) -> Model {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = match *self {
            ModelKind::LeNet5 { num_classes } => lenet::lenet5(num_classes, &mut rng),
            ModelKind::ResNet18 { num_classes, width_base } => {
                resnet::resnet18(num_classes, width_base, &mut rng)
            }
            ModelKind::ResNet18Gn { num_classes, width_base } => {
                resnet::resnet18_gn(num_classes, width_base, &mut rng)
            }
            ModelKind::Vgg16 { num_classes, width_base } => {
                vgg::vgg16(num_classes, width_base, &mut rng)
            }
            ModelKind::Mlp { in_features, hidden, num_classes } => {
                mlp::mlp(in_features, hidden, num_classes, &mut rng)
            }
        };
        Model { net }
    }
}

/// A trainable classifier: a `Sequential` network plus the bookkeeping FL
/// needs — most importantly [`Model::params_flat`] / [`Model::set_params_flat`],
/// which expose the *entire* model state (trainable parameters followed by
/// batch-norm running statistics) as one `Vec<f32>`. All of SEAFL's
/// aggregation math (Eqs. 4–8) operates on these flat vectors.
#[derive(Clone)]
pub struct Model {
    net: Sequential,
}

impl Model {
    /// Number of trainable scalars.
    pub fn num_params(&self) -> usize {
        self.net.num_params()
    }

    /// Number of buffer scalars (batch-norm running stats).
    pub(crate) fn num_buffer_elems(&self) -> usize {
        self.net.buffers().iter().map(|b| b.len()).sum()
    }

    /// Length of the flat state vector (`num_params + num_buffer_elems`).
    pub(crate) fn flat_len(&self) -> usize {
        self.num_params() + self.num_buffer_elems()
    }

    /// One SGD step on a batch; returns the batch loss.
    pub fn train_batch(&mut self, x: Tensor, labels: &[usize], opt: &mut Sgd) -> f32 {
        let loss = self.accumulate_grads(x, labels);
        opt.step(&mut self.net);
        loss
    }

    /// Accumulate gradients on a batch without stepping (used for the
    /// convergence-rate experiments, which need ‖∇f(w)‖²). Returns the loss.
    /// The gradient of the input batch is never formed
    /// (`Layer::backward_params`).
    pub fn accumulate_grads(&mut self, x: Tensor, labels: &[usize]) -> f32 {
        let logits = self.net.forward(x, true);
        let (loss, grad) = SoftmaxCrossEntropy::loss_and_grad(&logits, labels);
        self.net.backward_params(grad);
        loss
    }

    /// Zero all accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.net.zero_grads();
    }

    /// Loss and accuracy on a batch without touching gradients or batch-norm
    /// statistics.
    pub fn evaluate(&mut self, x: Tensor, labels: &[usize]) -> (f32, f64) {
        let logits = self.net.forward(x, false);
        let loss = SoftmaxCrossEntropy::loss(&logits, labels);
        let acc = stats::accuracy(&logits, labels);
        (loss, acc)
    }

    /// Flatten the full model state: all parameters, then all buffers, in
    /// stable layer order.
    pub fn params_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.flat_len());
        for p in self.net.params() {
            out.extend_from_slice(p.as_slice());
        }
        for b in self.net.buffers() {
            out.extend_from_slice(b);
        }
        out
    }

    /// Restore the full model state from a flat vector produced by
    /// [`Model::params_flat`] on a model of the same architecture.
    pub fn set_params_flat(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.flat_len(),
            "set_params_flat: expected {} scalars, got {}",
            self.flat_len(),
            flat.len()
        );
        let mut off = 0;
        for p in self.net.params_mut() {
            let n = p.len();
            p.as_mut_slice().copy_from_slice(&flat[off..off + n]);
            off += n;
        }
        for b in self.net.buffers_mut() {
            let n = b.len();
            b.copy_from_slice(&flat[off..off + n]);
            off += n;
        }
    }

    /// Flatten the accumulated parameter gradients (buffers have none).
    pub fn grads_flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for g in self.net.grads() {
            out.extend_from_slice(g.as_slice());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seafl_tensor::Shape;

    #[test]
    fn lenet_output_shape_and_params() {
        let mut m = ModelKind::LeNet5 { num_classes: 10 }.build(0);
        let y = m.net.forward(Tensor::zeros(Shape::d4(2, 1, 28, 28)), false);
        assert_eq!(y.shape(), Shape::d2(2, 10));
        // Classic LeNet-5 parameter count (conv 5x5 variant, 10 classes):
        // c1: 6*25+6=156, c2: 16*150+16=2416, fc1: 400*120+120=48120,
        // fc2: 120*84+84=10164, fc3: 84*10+10=850  => 61706
        assert_eq!(m.num_params(), 61_706);
        assert_eq!(m.num_buffer_elems(), 0);
    }

    #[test]
    fn resnet18_shapes_and_depth() {
        let mut m = ModelKind::ResNet18 { num_classes: 10, width_base: 8 }.build(1);
        let y = m.net.forward(Tensor::zeros(Shape::d4(1, 3, 32, 32)), false);
        assert_eq!(y.shape(), Shape::d2(1, 10));
        // 8 residual blocks (2 per stage), stem conv+bn, fc: buffers exist.
        assert!(m.num_buffer_elems() > 0);
        // ResNet-18 at width 64 has ~11.2M params; width 8 ≈ 64x fewer.
        assert!(m.num_params() > 100_000 / 64 * 10, "params: {}", m.num_params());
    }

    #[test]
    fn resnet18_gn_has_no_buffers() {
        let mut m = ModelKind::ResNet18Gn { num_classes: 10, width_base: 2 }.build(8);
        assert_eq!(m.num_buffer_elems(), 0, "GroupNorm must not carry running stats");
        let y = m.net.forward(Tensor::zeros(Shape::d4(1, 3, 32, 32)), false);
        assert_eq!(y.shape(), Shape::d2(1, 10));
        // Same trainable-parameter count as the batch-norm variant.
        let bn = ModelKind::ResNet18 { num_classes: 10, width_base: 2 }.build(8);
        assert_eq!(m.num_params(), bn.num_params());
        assert!(bn.num_buffer_elems() > 0);
    }

    #[test]
    fn resnet18_gn_odd_width_builds() {
        // width 3 makes channel counts 3/6/12/24; group fitting must cope.
        let mut m = ModelKind::ResNet18Gn { num_classes: 4, width_base: 3 }.build(9);
        let y = m.net.forward(Tensor::zeros(Shape::d4(1, 3, 32, 32)), false);
        assert_eq!(y.shape(), Shape::d2(1, 4));
    }

    #[test]
    fn vgg16_shapes() {
        let mut m = ModelKind::Vgg16 { num_classes: 10, width_base: 8 }.build(2);
        let y = m.net.forward(Tensor::zeros(Shape::d4(1, 3, 32, 32)), false);
        assert_eq!(y.shape(), Shape::d2(1, 10));
    }

    #[test]
    fn flat_roundtrip_exact() {
        let m = ModelKind::ResNet18 { num_classes: 10, width_base: 4 }.build(3);
        let flat = m.params_flat();
        assert_eq!(flat.len(), m.flat_len());
        let mut m2 = ModelKind::ResNet18 { num_classes: 10, width_base: 4 }.build(4);
        assert_ne!(m2.params_flat(), flat, "different seeds must differ");
        m2.set_params_flat(&flat);
        assert_eq!(m2.params_flat(), flat);
    }

    #[test]
    fn same_seed_same_weights() {
        let kind = ModelKind::Mlp { in_features: 20, hidden: 16, num_classes: 4 };
        assert_eq!(kind.build(7).params_flat(), kind.build(7).params_flat());
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn set_flat_wrong_len_panics() {
        let mut m = ModelKind::Mlp { in_features: 4, hidden: 4, num_classes: 2 }.build(0);
        m.set_params_flat(&[0.0; 3]);
    }

    #[test]
    fn mlp_learns_xor_like_task() {
        let mut m = ModelKind::Mlp { in_features: 2, hidden: 16, num_classes: 2 }.build(5);
        let mut opt = Sgd::new(0.5).with_momentum(0.9);
        let x = Tensor::from_vec(Shape::d2(4, 2), vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let labels = vec![0usize, 1, 1, 0];
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            last = m.train_batch(x.clone(), &labels, &mut opt);
        }
        assert!(last < 0.1, "failed to fit XOR: loss {last}");
        let (_, acc) = m.evaluate(x, &labels);
        assert_eq!(acc, 1.0);
    }

    #[test]
    fn train_batch_matches_full_backward_reference_bitwise() {
        // The step skips the first layer's input gradient; parameters after
        // one step must equal a reference that runs the full backward.
        let cases = [
            (ModelKind::LeNet5 { num_classes: 10 }, Shape::d4(3, 1, 28, 28)),
            (ModelKind::Mlp { in_features: 12, hidden: 8, num_classes: 3 }, Shape::d2(3, 12)),
            (ModelKind::ResNet18 { num_classes: 4, width_base: 2 }, Shape::d4(2, 3, 32, 32)),
        ];
        for (kind, shape) in cases {
            let x = Tensor::from_vec(
                shape,
                (0..shape.len()).map(|i| ((i * 37 % 101) as f32) / 50.0 - 1.0).collect(),
            );
            let labels: Vec<usize> = (0..shape.dim(0)).collect();
            let mut fast = kind.build(11);
            let mut reference = fast.clone();
            let mut opt_fast = Sgd::new(0.05).with_momentum(0.9);
            let mut opt_ref = opt_fast.clone();

            let loss = fast.train_batch(x.clone(), &labels, &mut opt_fast);
            let logits = reference.net.forward(x, true);
            let (want_loss, grad) = SoftmaxCrossEntropy::loss_and_grad(&logits, &labels);
            reference.net.backward(grad);
            opt_ref.step(&mut reference.net);

            assert_eq!(loss.to_bits(), want_loss.to_bits(), "{kind:?} loss");
            let bits = |m: &Model| m.params_flat().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fast), bits(&reference), "{kind:?} parameters");
        }
    }

    #[test]
    fn grads_flat_len_matches_params() {
        let mut m = ModelKind::Mlp { in_features: 3, hidden: 4, num_classes: 2 }.build(6);
        m.accumulate_grads(Tensor::zeros(Shape::d2(2, 3)), &[0, 1]);
        assert_eq!(m.grads_flat().len(), m.num_params());
        m.zero_grads();
        assert!(m.grads_flat().iter().all(|&g| g == 0.0));
    }
}
