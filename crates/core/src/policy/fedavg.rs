//! Synchronous FedAvg as a [`ServerPolicy`] (Eq. 3).

use crate::policy::{DispatchCtx, ServerPolicy, ServerView};
use crate::update::ModelUpdate;
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
        _fleet: &Fleet,
        rng: &mut SimRng,
    ) -> Vec<usize> {
        // The barrier: a new cohort only once the last one has fully
        // resolved and been aggregated — never overlap rounds.
        if ctx.active > 0 || ctx.buffered > 0 {
            return Vec::new();
        }
        // The historical `choose_multiple` draw, so recorded FedAvg cohorts
        // stay bit-reproducible across versions.
        idle.choose_multiple(rng, self.clients_per_round).copied().collect()
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
    use seafl_sim::rng::{stream_rng, streams};

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

    /// FedAvg's cohort draw (`choose_multiple`, not the default
    /// shuffle-and-truncate), pinned like `tests/selection_policies.rs` pins
    /// the default: a digest of the picks and the selection stream's word
    /// position after the call.
    #[test]
    fn cohort_draws_are_pinned() {
        // (pool size, cohort size, picks, digest of the picks, word position after).
        let pins: [(usize, usize, usize, u64, u128); 6] = [
            (10, 64, 10, 0x65cc873d61b708c4, 17),
            (10, 11, 10, 0x65cc873d61b708c4, 17),
            (4_096, 64, 64, 0xbb95e9087db3de1d, 65),
            (4_096, 4_097, 4_096, 0xbd8a907502cf10b9, 5677),
            (400_000, 64, 64, 0xf719fd5c5aacb3ed, 89),
            (400_000, 400_001, 400_000, 0x409fd2954ded47cd, 586_026),
        ];
        let mut got = Vec::new();
        for &(pool, n, ..) in &pins {
            let idle: Vec<usize> = (0..pool).collect();
            let fleet = Fleet::lazy(seafl_sim::FleetConfig::pareto_fleet(pool), 1);
            let mut rng = stream_rng(1, streams::SELECTION);
            let mut p = FedAvgPolicy { clients_per_round: n };
            let ctx = DispatchCtx { active: 0, buffered: 0 };
            let picked = p.select_cohort(&ctx, &idle, &fleet, &mut rng);
            let bytes: Vec<u8> = picked.iter().flat_map(|&k| (k as u64).to_le_bytes()).collect();
            let digest = seafl_sim::digest::fnv1a64(&bytes);
            got.push((pool, n, picked.len(), digest, rng.get_word_pos()));
        }
        assert_eq!(got, pins, "FedAvg's cohort draw moved: got {got:?}");
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
