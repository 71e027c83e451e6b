//! Client-side local training (Algorithm 1's `ClientUpdate`, plus the
//! per-epoch snapshots SEAFL²'s partial uploads need).

use crate::checkpoint::{BinReader, BinWriter, CodecError};
use seafl_data::ImageDataset;
use seafl_nn::{Model, Sgd};
use seafl_sim::SimRng;

/// Result of one local training session.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainOutcome {
    /// Model state after each completed epoch; `snapshots[e]` is the state
    /// after epoch `e+1`. Populated only when `keep_snapshots` is requested
    /// (SEAFL² partial training); otherwise holds just the final state.
    pub snapshots: Vec<Vec<f32>>,
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
}

impl TrainOutcome {
    /// Model state after `epochs` completed epochs (1-based). With snapshots
    /// disabled only the final state is available.
    pub fn state_after(&self, epochs: usize) -> &[f32] {
        assert!(epochs >= 1, "state_after: need at least one epoch");
        if self.snapshots.len() == 1 {
            assert_eq!(
                epochs,
                self.epoch_losses.len(),
                "state_after: per-epoch snapshots were not kept"
            );
            &self.snapshots[0]
        } else {
            &self.snapshots[epochs - 1]
        }
    }

    /// Final model state.
    pub fn final_state(&self) -> &[f32] {
        self.snapshots.last().expect("non-empty outcome")
    }

    /// Mean loss over all completed epochs.
    pub fn mean_loss(&self) -> f32 {
        if self.epoch_losses.is_empty() {
            0.0
        } else {
            self.epoch_losses.iter().sum::<f32>() / self.epoch_losses.len() as f32
        }
    }

    /// Serialize bit-exactly (floats as IEEE-754 bit patterns): the snapshot
    /// count, each snapshot, then the losses. The one layout behind both
    /// in-flight sessions in a checkpoint and outcome uploads on the wire.
    pub fn encode(&self, w: &mut BinWriter) {
        w.usize(self.snapshots.len());
        for snap in &self.snapshots {
            w.vec_f32(snap);
        }
        w.vec_f32(&self.epoch_losses);
    }

    /// Inverse of [`TrainOutcome::encode`].
    pub fn decode(r: &mut BinReader<'_>) -> Result<Self, CodecError> {
        let n = r.count(8)?;
        let snapshots = (0..n).map(|_| r.vec_f32()).collect::<Result<_, _>>()?;
        Ok(TrainOutcome { snapshots, epoch_losses: r.vec_f32()? })
    }
}

/// Executes local SGD for any client against a shared scratch model.
///
/// The simulation is event-sequential, so a single scratch [`Model`] serves
/// every client: weights are loaded from the incoming global state before
/// each session and exported after, and the SGD state is reset per session
/// (local momentum never crosses clients).
///
/// `Clone` duplicates the full scratch state (model + optimizer), which is
/// how [`crate::pool::TrainerPool`] builds its per-worker instances. Because
/// every session starts by loading the global weights and resetting the
/// optimizer, any clone produces bit-identical sessions.
#[derive(Clone)]
pub struct LocalTrainer {
    model: Model,
    opt: Sgd,
    batch_size: usize,
    /// FedProx proximal coefficient μ_prox: after every SGD step the weights
    /// are pulled back toward the received global model by
    /// `w ← w − lr·μ_prox·(w − w_global)` (gradient splitting of the
    /// proximal term `μ/2·‖w − w_g‖²`). 0 disables it (plain local SGD —
    /// the paper's setting).
    prox_mu: f32,
}

impl LocalTrainer {
    /// Trainer around `model` with plain (or momentum) SGD and the given
    /// mini-batch size. FedProx regularization is off; see [`Self::with_prox`].
    pub fn new(model: Model, lr: f32, momentum: f32, batch_size: usize) -> Self {
        assert!(batch_size > 0, "LocalTrainer: zero batch size");
        let opt = if momentum > 0.0 { Sgd::new(lr).with_momentum(momentum) } else { Sgd::new(lr) };
        LocalTrainer { model, opt, batch_size, prox_mu: 0.0 }
    }

    /// Enable FedProx-style proximal regularization toward the received
    /// global model (Li et al., MLSys '20) — the standard statistical-
    /// heterogeneity mitigation §II-A cites, composable with any of the
    /// aggregation policies here.
    pub fn with_prox(mut self, prox_mu: f32) -> Self {
        assert!(prox_mu >= 0.0, "LocalTrainer: negative prox_mu");
        self.prox_mu = prox_mu;
        self
    }

    /// Flat length of the model state this trainer operates on.
    pub fn flat_len(&self) -> usize {
        self.model.flat_len()
    }

    /// Access the scratch model (for evaluation against the test set).
    pub fn model_mut(&mut self) -> &mut Model {
        &mut self.model
    }

    /// Batches per epoch for a dataset of `n` samples.
    pub fn batches_per_epoch(&self, n: usize) -> usize {
        n.div_ceil(self.batch_size)
    }

    /// The minibatch size local epochs are cut into.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Run `epochs` local epochs starting from `global` on `data`.
    ///
    /// `keep_snapshots` stores the model state after *every* epoch (needed
    /// for SEAFL² partial uploads); otherwise only the final state is kept.
    pub fn train(
        &mut self,
        global: &[f32],
        data: &ImageDataset,
        epochs: usize,
        rng: &mut SimRng,
        keep_snapshots: bool,
    ) -> TrainOutcome {
        assert!(epochs >= 1, "train: zero epochs");
        assert!(!data.is_empty(), "train: empty client dataset");
        self.model.set_params_flat(global);
        self.opt.reset_state();
        self.model.zero_grads();

        let mut snapshots = Vec::with_capacity(if keep_snapshots { epochs } else { 1 });
        let mut epoch_losses = Vec::with_capacity(epochs);

        let lr = self.opt.lr;
        for _ in 0..epochs {
            let mut loss_acc = 0.0f64;
            let batches = data.epoch_batches(self.batch_size, rng);
            let nb = batches.len();
            for idx in batches {
                let (x, y) = data.batch(&idx);
                loss_acc += self.model.train_batch(x, &y, &mut self.opt) as f64;
                if self.prox_mu > 0.0 {
                    // Proximal pull toward the session's anchor (the global
                    // model this client downloaded). Buffers are excluded:
                    // running statistics are not optimized variables.
                    let mut flat = self.model.params_flat();
                    let k = lr * self.prox_mu;
                    let np = self.model.num_params();
                    for (w, &g) in flat[..np].iter_mut().zip(global[..np].iter()) {
                        *w -= k * (*w - g);
                    }
                    self.model.set_params_flat(&flat);
                }
            }
            epoch_losses.push((loss_acc / nb as f64) as f32);
            if keep_snapshots {
                snapshots.push(self.model.params_flat());
            }
        }
        if !keep_snapshots {
            snapshots.push(self.model.params_flat());
        }

        TrainOutcome { snapshots, epoch_losses }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use seafl_data::SyntheticSpec;
    use seafl_nn::ModelKind;

    fn setup() -> (LocalTrainer, ImageDataset) {
        let task = SyntheticSpec::emnist_like().generate(8, 2, 0);
        let kind = ModelKind::Mlp { in_features: 28 * 28, hidden: 32, num_classes: 10 };
        let trainer = LocalTrainer::new(kind.build(0), 0.05, 0.0, 16);
        (trainer, task.train)
    }

    #[test]
    fn training_changes_weights_and_reduces_loss() {
        let (mut t, data) = setup();
        let global = t.model_mut().params_flat();
        let mut rng = SimRng::seed_from_u64(1);
        let out = t.train(&global, &data, 4, &mut rng, false);
        assert_eq!(out.snapshots.len(), 1);
        assert_eq!(out.epoch_losses.len(), 4);
        assert_ne!(out.final_state(), &global[..]);
        assert!(
            out.epoch_losses[3] < out.epoch_losses[0],
            "losses {:?} did not decrease",
            out.epoch_losses
        );
    }

    #[test]
    fn snapshots_kept_when_requested() {
        let (mut t, data) = setup();
        let global = t.model_mut().params_flat();
        let mut rng = SimRng::seed_from_u64(2);
        let out = t.train(&global, &data, 3, &mut rng, true);
        assert_eq!(out.snapshots.len(), 3);
        // Successive epochs move the weights.
        assert_ne!(out.state_after(1), out.state_after(3));
        assert_eq!(out.state_after(3), out.final_state());
    }

    #[test]
    fn deterministic_given_rng_state() {
        let (mut t, data) = setup();
        let global = t.model_mut().params_flat();
        let a = t.train(&global, &data, 2, &mut SimRng::seed_from_u64(5), false);
        let b = t.train(&global, &data, 2, &mut SimRng::seed_from_u64(5), false);
        assert_eq!(a.final_state(), b.final_state());
    }

    #[test]
    fn sessions_are_independent() {
        // Training client B after client A from the same global state gives
        // the same result as training B alone — the scratch model leaks no
        // state across sessions.
        let (mut t, data) = setup();
        let global = t.model_mut().params_flat();
        let b_alone =
            t.train(&global, &data, 2, &mut SimRng::seed_from_u64(9), false).final_state().to_vec();
        // Interleave an unrelated session.
        t.train(&global, &data, 3, &mut SimRng::seed_from_u64(77), false);
        let b_after =
            t.train(&global, &data, 2, &mut SimRng::seed_from_u64(9), false).final_state().to_vec();
        assert_eq!(b_alone, b_after);
    }

    #[test]
    fn prox_term_keeps_weights_closer_to_global() {
        let task = SyntheticSpec::emnist_like().generate(8, 2, 0);
        let kind = ModelKind::Mlp { in_features: 28 * 28, hidden: 32, num_classes: 10 };
        let mut plain = LocalTrainer::new(kind.build(0), 0.05, 0.0, 16);
        let mut prox = LocalTrainer::new(kind.build(0), 0.05, 0.0, 16).with_prox(1.0);
        let global = plain.model_mut().params_flat();

        let d_plain = {
            let out = plain.train(&global, &task.train, 4, &mut SimRng::seed_from_u64(3), false);
            seafl_tensor::l2_distance_sq(out.final_state(), &global)
        };
        let d_prox = {
            let out = prox.train(&global, &task.train, 4, &mut SimRng::seed_from_u64(3), false);
            seafl_tensor::l2_distance_sq(out.final_state(), &global)
        };
        assert!(d_prox < d_plain * 0.9, "prox did not constrain drift: {d_prox} vs {d_plain}");
    }

    #[test]
    fn prox_zero_is_identity() {
        let (mut t, data) = setup();
        let global = t.model_mut().params_flat();
        let a = t.train(&global, &data, 2, &mut SimRng::seed_from_u64(4), false);
        let mut t2 = LocalTrainer::new(
            ModelKind::Mlp { in_features: 28 * 28, hidden: 32, num_classes: 10 }.build(0),
            0.05,
            0.0,
            16,
        )
        .with_prox(0.0);
        let b = t2.train(&global, &data, 2, &mut SimRng::seed_from_u64(4), false);
        assert_eq!(a.final_state(), b.final_state());
    }

    #[test]
    #[should_panic(expected = "snapshots were not kept")]
    fn partial_state_requires_snapshots() {
        let (mut t, data) = setup();
        let global = t.model_mut().params_flat();
        let out = t.train(&global, &data, 3, &mut SimRng::seed_from_u64(0), false);
        out.state_after(2);
    }

    #[test]
    fn batches_per_epoch_rounds_up() {
        let (t, _) = setup();
        assert_eq!(t.batches_per_epoch(80), 5);
        assert_eq!(t.batches_per_epoch(81), 6);
        assert_eq!(t.batches_per_epoch(1), 1);
    }
}
