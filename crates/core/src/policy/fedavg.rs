//! Synchronous FedAvg as a [`ServerPolicy`] (Eq. 3).

use crate::policy::{DispatchCtx, ServerPolicy, ServerView};
use crate::update::ModelUpdate;
use crate::SelectionPolicy;
use rand::seq::SliceRandom;
use seafl_sim::{Fleet, SimRng};

/// FedAvg: dispatch a full cohort once the previous round has closed,
/// aggregate when every member's session has resolved, replace the global
/// model with the data-size weighted average. The round is a barrier on
/// the ordinary event-driven engine, so it lasts as long as its slowest
/// member — the straggler effect the paper's Fig. 1 illustrates — and a
/// member that crashes, loses its upload or times out holds the round up
/// exactly as long as it would hold up any other policy's session.
/// Stateless: the engine's in-flight sessions and buffer are the round.
#[derive(Clone, Copy, Debug)]
pub struct FedAvgPolicy {
    /// Cohort size C sampled at each synchronous barrier.
    pub(crate) clients_per_round: usize,
}

impl ServerPolicy for FedAvgPolicy {
    fn name(&self) -> &'static str {
        "fedavg"
    }

    fn concurrency(&self) -> usize {
        self.clients_per_round
    }

    fn select_cohort(
        &mut self,
        ctx: &DispatchCtx,
        idle: &[usize],
        fleet: &Fleet,
        rng: &mut SimRng,
    ) -> Vec<usize> {
        // The barrier: a new cohort only once the last one has fully
        // resolved and been aggregated — never overlap rounds.
        if ctx.active > 0 || ctx.buffered > 0 {
            return Vec::new();
        }
        // Uniform keeps the historical `choose_multiple` draw so recorded
        // FedAvg cohorts stay bit-reproducible across versions.
        match ctx.selection {
            SelectionPolicy::Uniform => {
                idle.choose_multiple(rng, self.clients_per_round).copied().collect()
            }
            policy => {
                crate::selection::select_clients(policy, idle, fleet, self.clients_per_round, rng)
            }
        }
    }

    fn should_aggregate(&self, view: &ServerView) -> bool {
        // Every session of the cohort has resolved: uploaded, dropped, timed
        // out, reclaimed or given up.
        view.in_flight.is_empty() && view.buffer_len > 0
    }

    fn weights_for_buffer(
        &self,
        updates: &[ModelUpdate],
        _global: &[f32],
        _round: u64,
    ) -> Vec<f32> {
        let total: usize = updates.iter().map(|u| u.num_samples).sum();
        if total == 0 {
            // Degenerate sample-free buffer (property tests); real clients
            // always hold data.
            return vec![1.0 / updates.len() as f32; updates.len()];
        }
        updates.iter().map(|u| u.num_samples as f32 / total as f32).collect()
    }

    fn mix_into_global(&self, _global: &[f32], avg: &[f32]) -> Vec<f32> {
        // Eq. 3 replaces the global model outright — no ϑ-mixing.
        avg.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::InFlight;

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

    #[test]
    fn fedavg_weighted_by_samples() {
        let mut p = FedAvgPolicy { clients_per_round: 2 };
        let updates = vec![upd(0, 0, 30, vec![1.0]), upd(1, 0, 10, vec![5.0])];
        let out = p.aggregate(&[0.0], &updates, 1);
        assert!((out[0] - (0.75 * 1.0 + 0.25 * 5.0)).abs() < 1e-6);
    }

    #[test]
    fn waits_for_the_whole_cohort() {
        let p = FedAvgPolicy { clients_per_round: 3 };
        let straggler = [InFlight { client: 2, born_round: 0, notified: false }];
        let view = |buffer_len, in_flight| ServerView { round: 0, buffer_len, in_flight };
        // Two members uploaded, the third is still training.
        assert!(!p.should_aggregate(&view(2, &straggler)));
        // Every session resolved — whatever reached the buffer aggregates,
        // even when a member's session was lost on the way.
        assert!(p.should_aggregate(&view(3, &[])));
        assert!(p.should_aggregate(&view(2, &[])));
        // Nothing in flight and nothing buffered ⇒ nothing to do.
        assert!(!p.should_aggregate(&view(0, &[])));
    }
}
