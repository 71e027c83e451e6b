//! SEAFL / SEAFL² as a [`ServerPolicy`] (the paper's Eqs. 4–8 plus the
//! β-enforcement variants of Algorithms 1 and 2).

use crate::policy::{mix, ServerPolicy, ServerView};
use crate::update::ModelUpdate;
use crate::weighting::{aggregation_weights, ImportanceMode};

/// How the server handles in-flight clients whose staleness reaches the
/// limit β.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StalenessPolicy {
    /// No limit enforcement (FedBuff; SEAFL with β = ∞).
    Ignore,
    /// SEAFL (Algorithm 1): defer aggregation until every over-limit client
    /// has reported, so no aggregated update ever exceeds β.
    WaitForStale,
    /// SEAFL² (Algorithm 2): notify over-limit clients; they upload a
    /// partial update at the end of their current epoch.
    NotifyPartial,
    /// SAFA-style lag tolerance (the alternative §II criticizes): updates
    /// whose staleness exceeds β are *discarded* at aggregation time,
    /// wasting the straggler's training effort. Provided for the ablation
    /// bench.
    DropStale,
}

/// SEAFL's adaptive aggregation: staleness- (Eq. 4) and importance- (Eq. 5)
/// weighted buffer average (Eqs. 6–7) followed by ϑ-mixing into the global
/// model (Eq. 8), with the staleness limit β enforced per
/// [`StalenessPolicy`]:
///
/// * [`StalenessPolicy::Ignore`] — β = ∞ (also the SEAFL-β=∞ ablation).
/// * [`StalenessPolicy::WaitForStale`] — SEAFL (Algorithm 1): defer
///   aggregation until every over-limit device has reported.
/// * [`StalenessPolicy::NotifyPartial`] — SEAFL² (Algorithm 2): notify
///   over-limit devices to upload at the end of their current epoch.
/// * [`StalenessPolicy::DropStale`] — SAFA-style discard (ablation).
#[derive(Clone, Copy, Debug)]
pub struct SeaflPolicy {
    /// Devices kept training concurrently (M).
    pub concurrency: usize,
    /// Buffered updates per aggregation (K).
    pub buffer_k: usize,
    /// Staleness-factor weight α.
    pub alpha: f32,
    /// Importance-factor weight μ.
    pub mu: f32,
    /// Staleness limit β; `None` = ∞. Every policy but `Ignore` needs one.
    pub beta: Option<u64>,
    /// Server mixing coefficient ϑ ∈ (0, 1].
    pub theta: f32,
    /// β enforcement: `WaitForStale` = SEAFL, `NotifyPartial` = SEAFL².
    pub policy: StalenessPolicy,
    /// Importance measurement variant.
    pub importance: ImportanceMode,
}

impl SeaflPolicy {
    /// The paper's tuned hyperparameters (α = 3, μ = 1, ϑ = 0.8,
    /// model-cosine importance) around the given M, K, β and β rule.
    pub fn paper(
        concurrency: usize,
        buffer_k: usize,
        beta: Option<u64>,
        policy: StalenessPolicy,
    ) -> Self {
        SeaflPolicy {
            concurrency,
            buffer_k,
            alpha: 3.0,
            mu: 1.0,
            beta,
            theta: 0.8,
            policy,
            importance: ImportanceMode::ModelCosine,
        }
    }
}

impl ServerPolicy for SeaflPolicy {
    fn name(&self) -> &'static str {
        match self.policy {
            StalenessPolicy::NotifyPartial => "seafl2",
            StalenessPolicy::DropStale => "seafl-drop",
            _ => "seafl",
        }
    }

    fn concurrency(&self) -> usize {
        self.concurrency
    }

    fn buffer_k(&self) -> usize {
        self.buffer_k
    }

    fn keep_epoch_snapshots(&self) -> bool {
        // Only partial training can consume a session mid-way.
        self.policy == StalenessPolicy::NotifyPartial
    }

    fn should_aggregate(&self, view: &ServerView) -> bool {
        if view.buffer_len < self.buffer_k {
            return false;
        }
        // SEAFL's wait rule: defer while any in-flight update would exceed β
        // after this aggregation (its staleness at the next round would be
        // round+1 − born > β ⟺ round − born ≥ β).
        if self.policy == StalenessPolicy::WaitForStale {
            let beta = self.beta.expect("WaitForStale requires beta");
            if view.in_flight.iter().any(|s| view.round.saturating_sub(s.born_round) >= beta) {
                return false;
            }
        }
        true
    }

    fn partition_stale(
        &self,
        updates: Vec<ModelUpdate>,
        round: u64,
    ) -> (Vec<ModelUpdate>, Vec<ModelUpdate>) {
        // SAFA-style discard: throw away over-limit updates (their training
        // effort is wasted — the failure mode SEAFL's wait/notify policies
        // are designed to avoid).
        if self.policy != StalenessPolicy::DropStale {
            return (updates, Vec::new());
        }
        let beta = self.beta.expect("DropStale requires beta");
        updates.into_iter().partition(|u| u.staleness(round) <= beta)
    }

    fn weights_for_buffer(&self, updates: &[ModelUpdate], global: &[f32], round: u64) -> Vec<f32> {
        aggregation_weights(updates, global, round, self.alpha, self.mu, self.beta, self.importance)
    }

    fn mix_into_global(&self, global: &[f32], avg: &[f32]) -> Vec<f32> {
        assert!((0.0..=1.0).contains(&self.theta), "seafl: theta out of (0,1]");
        mix(global, avg, self.theta)
    }

    fn clients_to_notify(&self, view: &ServerView) -> Vec<usize> {
        // SEAFL²: in-flight devices that just crossed the limit, in client
        // order.
        if self.policy != StalenessPolicy::NotifyPartial {
            return Vec::new();
        }
        let beta = self.beta.expect("NotifyPartial requires beta");
        view.in_flight
            .iter()
            .filter(|s| !s.notified && view.round.saturating_sub(s.born_round) >= beta)
            .map(|s| s.client)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FedBuffPolicy, InFlight};

    /// SEAFL (Algorithm 1) at the paper's settings.
    fn wait(concurrency: usize, buffer_k: usize, beta: Option<u64>) -> SeaflPolicy {
        SeaflPolicy::paper(concurrency, buffer_k, beta, StalenessPolicy::WaitForStale)
    }

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
    fn seafl_equals_fedbuff_for_uniform_buffer() {
        // Identical data sizes, staleness and parameters ⇒ SEAFL's weights
        // collapse to 1/K and the two policies agree (§V degeneration).
        let global = vec![0.0, 0.0, 0.0];
        let updates: Vec<ModelUpdate> =
            (0..4).map(|c| upd(c, 2, 10, vec![1.0, 2.0, 3.0])).collect();
        let mut seafl = wait(10, 4, Some(10));
        let mut fedbuff = FedBuffPolicy { concurrency: 10, buffer_k: 4, theta: 0.8 };
        let a = seafl.aggregate(&global, &updates, 3);
        let b = fedbuff.aggregate(&global, &updates, 3);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
    }

    #[test]
    fn seafl_theta_mixing() {
        // Single fresh update identical across clients: w_new = u, so
        // result = (1-ϑ)·g + ϑ·u.
        let global = vec![1.0];
        let updates = vec![upd(0, 5, 10, vec![2.0])];
        let mut agg = wait(10, 1, Some(10));
        let out = agg.aggregate(&global, &updates, 5);
        assert!((out[0] - (0.2 * 1.0 + 0.8 * 2.0)).abs() < 1e-6);
    }

    #[test]
    fn seafl_downweights_stale_updates() {
        let global = vec![1.0, 1.0];
        // Fresh update pulls toward +2, stale update pulls toward -2.
        let updates = vec![upd(0, 10, 10, vec![2.0, 2.0]), upd(1, 1, 10, vec![-2.0, -2.0])];
        let mut seafl = SeaflPolicy { mu: 0.0, ..wait(10, 2, Some(5)) };
        let out = seafl.aggregate(&global, &updates, 10);
        let mut fb = FedBuffPolicy { concurrency: 10, buffer_k: 2, theta: 0.8 };
        let out_fb = fb.aggregate(&global, &updates, 10);
        // SEAFL's result is closer to the fresh update than FedBuff's.
        assert!(out[0] > out_fb[0], "seafl {} vs fedbuff {}", out[0], out_fb[0]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_buffer_panics() {
        SeaflPolicy::paper(10, 1, None, StalenessPolicy::Ignore).aggregate(&[0.0], &[], 0);
    }

    #[test]
    fn wait_rule_defers_on_over_limit_in_flight() {
        let p = wait(10, 2, Some(3));
        let straggler = [InFlight { client: 7, born_round: 0, notified: false }];
        let fresh = [InFlight { client: 7, born_round: 4, notified: false }];
        // Buffer full, but an in-flight device would exceed β ⇒ wait.
        assert!(!p.should_aggregate(&ServerView {
            round: 5,
            buffer_len: 2,
            in_flight: &straggler
        }));
        assert!(p.should_aggregate(&ServerView { round: 5, buffer_len: 2, in_flight: &fresh }));
        // Below the buffer trigger nothing else matters.
        assert!(!p.should_aggregate(&ServerView { round: 5, buffer_len: 1, in_flight: &fresh }));
    }

    #[test]
    fn drop_policy_partitions_by_beta() {
        let p = SeaflPolicy::paper(10, 2, Some(1), StalenessPolicy::DropStale);
        let updates = vec![upd(0, 5, 10, vec![1.0]), upd(1, 2, 10, vec![1.0])];
        let (kept, dropped) = p.partition_stale(updates, 5);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].client_id, 0);
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].client_id, 1);
    }

    #[test]
    fn notify_targets_unnotified_over_limit_sessions() {
        let p = SeaflPolicy::paper(10, 2, Some(2), StalenessPolicy::NotifyPartial);
        let in_flight = [
            InFlight { client: 1, born_round: 0, notified: false }, // over, notify
            InFlight { client: 2, born_round: 0, notified: true },  // already notified
            InFlight { client: 3, born_round: 4, notified: false }, // fresh
        ];
        let view = ServerView { round: 5, buffer_len: 0, in_flight: &in_flight };
        assert_eq!(p.clients_to_notify(&view), vec![1]);
    }
}
