//! FedAsync (Xie et al. 2019) as a [`ServerPolicy`].

use crate::policy::{ServerPolicy, ServerView};
use crate::update::ModelUpdate;

/// Fully asynchronous aggregation: every arriving update is folded into the
/// global model immediately with mixing weight `α_t = α · (S_k + 1)^{-a}`
/// (polynomial staleness function): `w ← (1 − α_t)·w + α_t·w_k`.
#[derive(Clone, Copy, Debug)]
pub struct FedAsyncPolicy {
    /// Devices kept training concurrently.
    pub(crate) concurrency: usize,
    /// Base mixing rate α.
    pub(crate) mixing_alpha: f32,
    /// Polynomial staleness exponent `a` (0 = constant mixing).
    pub(crate) poly_a: f32,
}

impl ServerPolicy for FedAsyncPolicy {
    fn name(&self) -> &'static str {
        "fedasync"
    }

    fn concurrency(&self) -> usize {
        self.concurrency
    }

    fn should_aggregate(&self, view: &ServerView) -> bool {
        // K = 1: aggregate on every arrival.
        view.buffer_len >= 1
    }

    fn weights_for_buffer(
        &self,
        updates: &[ModelUpdate],
        _global: &[f32],
        _round: u64,
    ) -> Vec<f32> {
        // Not used by `aggregate` below (the sequential fold is not a
        // weighted buffer average); uniform weights keep the normalization
        // contract every policy is property-tested against.
        vec![1.0 / updates.len() as f32; updates.len()]
    }

    fn mix_into_global(&self, _global: &[f32], avg: &[f32]) -> Vec<f32> {
        // Unused for the same reason as `weights_for_buffer`.
        avg.to_vec()
    }

    fn aggregates_by_weights(&self) -> bool {
        // The engine must call `aggregate` as one opaque step: the
        // sequential fold below is not a weighted average, and the weight
        // vector the decomposed path would observe is meaningless here.
        false
    }

    fn aggregate(&mut self, global: &[f32], updates: &[ModelUpdate], round: u64) -> Vec<f32> {
        assert!(!updates.is_empty(), "fedasync: empty buffer");
        // K = 1 in fully asynchronous operation, but fold sequentially if
        // more than one ever arrives together. The fold must stay exactly
        // this arithmetic: routing it through weighted_average + mix would
        // reassociate the f32 operations and drift the digests.
        let mut w = global.to_vec();
        for u in updates {
            let s = u.staleness(round) as f32;
            let a_t = self.mixing_alpha * (s + 1.0).powf(-self.poly_a);
            for (wi, &p) in w.iter_mut().zip(u.params.iter()) {
                *wi = (1.0 - a_t) * *wi + a_t * p;
            }
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(client: usize, born: u64, samples: usize, params: Vec<f32>) -> ModelUpdate {
        ModelUpdate {
            client_id: client,
            params,
            num_samples: samples,
            born_round: born,
            epochs_completed: 5,
            train_loss: 0.0,
        }
    }

    fn paper_default() -> FedAsyncPolicy {
        FedAsyncPolicy { concurrency: 10, mixing_alpha: 0.6, poly_a: 0.5 }
    }

    #[test]
    fn fedasync_mixing_decays_with_staleness() {
        let global = vec![0.0];
        let mut p = paper_default();
        let fresh = p.aggregate(&global, &[upd(0, 10, 10, vec![1.0])], 10);
        let stale = p.aggregate(&global, &[upd(0, 1, 10, vec![1.0])], 10);
        // fresh: α_t = 0.6; stale (S=9): 0.6·10^{-0.5} ≈ 0.19
        assert!((fresh[0] - 0.6).abs() < 1e-6);
        assert!(stale[0] < 0.25 && stale[0] > 0.1, "{}", stale[0]);
    }

    #[test]
    fn aggregates_on_every_arrival() {
        let p = paper_default();
        assert!(p.should_aggregate(&ServerView { round: 0, buffer_len: 1, in_flight: &[] }));
        assert!(!p.should_aggregate(&ServerView { round: 0, buffer_len: 0, in_flight: &[] }));
    }
}
