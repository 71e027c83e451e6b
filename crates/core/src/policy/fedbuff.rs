//! FedBuff as a [`ServerPolicy`].

use crate::policy::{mix, ServerPolicy};
use crate::update::ModelUpdate;

/// FedBuff-style aggregation: buffer `K` updates, uniform `1/K` weights, no
/// staleness limit, then the same ϑ-mixing as SEAFL. This is exactly the
/// degenerate SEAFL the paper describes in §V ("setting consistent weights
/// p = 1/K").
#[derive(Clone, Copy, Debug)]
pub struct FedBuffPolicy {
    /// Devices kept training concurrently (M).
    pub(crate) concurrency: usize,
    /// Buffered updates per aggregation (K).
    pub(crate) buffer_k: usize,
    /// Server mixing coefficient ϑ.
    pub(crate) theta: f32,
}

impl ServerPolicy for FedBuffPolicy {
    fn name(&self) -> &'static str {
        "fedbuff"
    }

    fn concurrency(&self) -> usize {
        self.concurrency
    }

    fn buffer_k(&self) -> usize {
        self.buffer_k
    }

    fn weights_for_buffer(
        &self,
        updates: &[ModelUpdate],
        _global: &[f32],
        _round: u64,
    ) -> Vec<f32> {
        vec![1.0 / updates.len() as f32; updates.len()]
    }

    fn mix_into_global(&self, global: &[f32], avg: &[f32]) -> Vec<f32> {
        mix(global, avg, self.theta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_weights_and_theta_mixing() {
        let mut p = FedBuffPolicy { concurrency: 10, buffer_k: 2, theta: 0.8 };
        let updates: Vec<ModelUpdate> = (0..2)
            .map(|c| ModelUpdate {
                client_id: c,
                params: vec![2.0, 4.0],
                num_samples: 10,
                born_round: 0,
                epochs_completed: 5,
                train_loss: 0.0,
            })
            .collect();
        let w = p.weights_for_buffer(&updates, &[0.0, 0.0], 1);
        assert_eq!(w, vec![0.5, 0.5]);
        let out = p.aggregate(&[1.0, 1.0], &updates, 1);
        // (1-ϑ)·1 + ϑ·2 and (1-ϑ)·1 + ϑ·4
        assert!((out[0] - 1.8).abs() < 1e-6);
        assert!((out[1] - 3.4).abs() < 1e-6);
    }
}
