//! SEAFL's adaptive aggregation weights — Eqs. 4, 5 and 6 of the paper.

use crate::update::ModelUpdate;
use seafl_tensor::cosine_similarity;

/// How the importance factor measures an update against the global model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ImportanceMode {
    /// Cosine similarity between the client's uploaded parameter vector and
    /// the current global parameter vector — the paper's choice (Eq. 5).
    ModelCosine,
    /// Cosine similarity between the client's *delta* (uploaded − global)
    /// and the global parameter vector — the literal reading of the `Δ_t^k`
    /// notation in Eq. 5; provided for ablation.
    DeltaCosine,
    /// Normalized dot product (magnitude-sensitive) — the alternative the
    /// paper discusses and rejects in §IV-B; provided for ablation.
    DotProduct,
}

/// Eq. 4: `γ_t^k = α · β / (S_k + β)` with `S_k = t − t_k`.
///
/// `beta = None` encodes an infinite staleness limit, for which the factor
/// degenerates to the constant `α` (the limit of Eq. 4 as β → ∞), matching
/// the paper's "SEAFL with ∞ staleness limit" arm in Fig. 5.
pub(crate) fn staleness_factor(alpha: f32, beta: Option<u64>, staleness: u64) -> f32 {
    assert!(alpha >= 0.0, "staleness_factor: negative alpha");
    match beta {
        None => alpha,
        Some(b) => {
            assert!(b > 0, "staleness_factor: beta must be positive");
            alpha * b as f32 / (staleness as f32 + b as f32)
        }
    }
}

/// Eq. 5: `s_t^k = μ · (Θ + 1) / 2`, cosine normalized to [0, 1].
pub(crate) fn importance_factor(
    mu: f32,
    mode: ImportanceMode,
    update_params: &[f32],
    global_params: &[f32],
) -> f32 {
    assert!(mu >= 0.0, "importance_factor: negative mu");
    if mu == 0.0 {
        // Skip the O(d) similarity pass entirely when disabled (Fig. 2c's
        // "without importance" arm and FedBuff-equivalence).
        return 0.0;
    }
    let theta = match mode {
        ImportanceMode::ModelCosine => cosine_similarity(update_params, global_params),
        ImportanceMode::DeltaCosine => {
            let delta: Vec<f32> =
                update_params.iter().zip(global_params.iter()).map(|(&u, &g)| u - g).collect();
            cosine_similarity(&delta, global_params)
        }
        ImportanceMode::DotProduct => {
            // Normalize the raw dot product by the global norm² so the scale
            // is comparable to cosine; squash to [-1, 1] with tanh.
            let dot: f64 = update_params
                .iter()
                .zip(global_params.iter())
                .map(|(&u, &g)| u as f64 * g as f64)
                .sum();
            let gn: f64 = global_params.iter().map(|&g| g as f64 * g as f64).sum();
            if gn == 0.0 {
                0.0
            } else {
                (dot / gn).tanh() as f32
            }
        }
    };
    mu * (theta + 1.0) / 2.0
}

/// Eq. 6 plus normalization: `p_t^k ∝ (|D_k|/|D|) (γ_t^k + s_t^k)`, scaled so
/// Σ p = 1 over the buffer. `|D|` is the total sample count across the
/// buffered updates (the paper: "the collection of all data samples utilized
/// by the participating devices K in the current round").
pub fn aggregation_weights(
    updates: &[ModelUpdate],
    global_params: &[f32],
    current_round: u64,
    alpha: f32,
    mu: f32,
    beta: Option<u64>,
    mode: ImportanceMode,
) -> Vec<f32> {
    assert!(!updates.is_empty(), "aggregation_weights: empty buffer");
    let total_samples: usize = updates.iter().map(|u| u.num_samples).sum();
    assert!(total_samples > 0, "aggregation_weights: zero total samples");

    let mut w: Vec<f32> = updates
        .iter()
        .map(|u| {
            let d_k = u.num_samples as f32 / total_samples as f32;
            let gamma = staleness_factor(alpha, beta, u.staleness(current_round));
            let s = importance_factor(mu, mode, &u.params, global_params);
            d_k * (gamma + s)
        })
        .collect();

    let sum: f32 = w.iter().sum();
    if sum <= 0.0 {
        // Degenerate (α = μ = 0): fall back to data-size weighting so the
        // aggregation stays well-defined.
        let inv = 1.0 / total_samples as f32;
        for (wi, u) in w.iter_mut().zip(updates.iter()) {
            *wi = u.num_samples as f32 * inv;
        }
    } else {
        let inv = 1.0 / sum;
        w.iter_mut().for_each(|wi| *wi *= inv);
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn upd(born: u64, samples: usize, params: Vec<f32>) -> ModelUpdate {
        ModelUpdate {
            client_id: 0,
            params,
            num_samples: samples,
            born_round: born,
            epochs_completed: 5,
            train_loss: 0.0,
        }
    }

    #[test]
    fn staleness_factor_fresh_update_equals_alpha() {
        // S_k = 0 ⇒ γ = α·β/β = α.
        assert!((staleness_factor(3.0, Some(10), 0) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn staleness_factor_decreases_with_staleness() {
        let f0 = staleness_factor(3.0, Some(10), 0);
        let f5 = staleness_factor(3.0, Some(10), 5);
        let f10 = staleness_factor(3.0, Some(10), 10);
        assert!(f0 > f5 && f5 > f10);
        // At S = β the factor is exactly α/2 (Lemma 1's lower bound shape).
        assert!((f10 - 1.5).abs() < 1e-6);
    }

    #[test]
    fn infinite_beta_is_constant_alpha() {
        for s in [0u64, 5, 100, 10_000] {
            assert_eq!(staleness_factor(3.0, None, s), 3.0);
        }
    }

    #[test]
    fn importance_zero_mu_short_circuits() {
        assert_eq!(importance_factor(0.0, ImportanceMode::ModelCosine, &[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn importance_identical_model_maximal() {
        let g = vec![0.5, -1.0, 2.0];
        let s = importance_factor(1.0, ImportanceMode::ModelCosine, &g, &g);
        assert!((s - 1.0).abs() < 1e-6, "cos=1 ⇒ s = μ·(1+1)/2 = μ");
    }

    #[test]
    fn importance_opposite_model_zero() {
        let g = vec![0.5, -1.0, 2.0];
        let o: Vec<f32> = g.iter().map(|x| -x).collect();
        let s = importance_factor(1.0, ImportanceMode::ModelCosine, &o, &g);
        assert!(s.abs() < 1e-6, "cos=-1 ⇒ s = 0");
    }

    #[test]
    fn importance_bounded_by_mu_all_modes() {
        let g = vec![0.3, 0.8, -0.4, 1.2];
        let u = vec![0.1, 0.9, -0.2, 1.0];
        for mode in
            [ImportanceMode::ModelCosine, ImportanceMode::DeltaCosine, ImportanceMode::DotProduct]
        {
            let s = importance_factor(2.5, mode, &u, &g);
            assert!((0.0..=2.5).contains(&s), "{mode:?}: {s}");
        }
    }

    #[test]
    fn weights_sum_to_one() {
        let g = vec![1.0, 0.0, -1.0];
        let updates = vec![
            upd(9, 30, vec![1.1, 0.1, -0.9]),
            upd(5, 10, vec![0.9, -0.1, -1.1]),
            upd(0, 60, vec![-1.0, 0.0, 1.0]),
        ];
        let w =
            aggregation_weights(&updates, &g, 10, 3.0, 1.0, Some(10), ImportanceMode::ModelCosine);
        assert_eq!(w.len(), 3);
        assert!((w.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(w.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn fresher_update_outweighs_staler_same_data() {
        let g = vec![1.0, 1.0];
        let updates = vec![
            upd(10, 50, vec![1.0, 1.0]), // staleness 0
            upd(2, 50, vec![1.0, 1.0]),  // staleness 8
        ];
        let w =
            aggregation_weights(&updates, &g, 10, 3.0, 1.0, Some(10), ImportanceMode::ModelCosine);
        assert!(w[0] > w[1], "fresh {} vs stale {}", w[0], w[1]);
    }

    #[test]
    fn similar_update_outweighs_dissimilar_same_staleness() {
        let g = vec![1.0, 1.0, 0.0];
        let updates = vec![
            upd(10, 50, vec![1.0, 1.0, 0.1]),   // aligned with global
            upd(10, 50, vec![-1.0, -1.0, 0.1]), // opposed to global
        ];
        let w =
            aggregation_weights(&updates, &g, 10, 3.0, 1.0, Some(10), ImportanceMode::ModelCosine);
        assert!(w[0] > w[1]);
    }

    #[test]
    fn more_data_outweighs_less_data() {
        let g = vec![1.0, 1.0];
        let updates = vec![upd(10, 90, vec![1.0, 1.0]), upd(10, 10, vec![1.0, 1.0])];
        let w =
            aggregation_weights(&updates, &g, 10, 3.0, 1.0, Some(10), ImportanceMode::ModelCosine);
        assert!((w[0] / w[1] - 9.0).abs() < 0.1, "ratio {}", w[0] / w[1]);
    }

    #[test]
    fn alpha_mu_zero_falls_back_to_data_weights() {
        let g = vec![1.0];
        let updates = vec![upd(0, 75, vec![1.0]), upd(0, 25, vec![1.0])];
        let w =
            aggregation_weights(&updates, &g, 0, 0.0, 0.0, Some(10), ImportanceMode::ModelCosine);
        assert!((w[0] - 0.75).abs() < 1e-6);
        assert!((w[1] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn uniform_everything_gives_uniform_weights() {
        // Equal data, equal staleness, identical params: p = 1/K — the
        // FedBuff degeneration the paper's §V mentions.
        let g = vec![1.0, 2.0];
        let updates: Vec<ModelUpdate> = (0..4).map(|_| upd(3, 25, vec![1.0, 2.0])).collect();
        let w =
            aggregation_weights(&updates, &g, 5, 3.0, 1.0, Some(10), ImportanceMode::ModelCosine);
        for &x in &w {
            assert!((x - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn prop_weights_normalized_and_nonnegative() {
        for case in 0..32 {
            let mut rng = StdRng::seed_from_u64(case);
            let n = rng.gen_range(1usize..8);
            let (alpha, mu) = (rng.gen_range(0.0f32..5.0), rng.gen_range(0.0f32..5.0));
            let beta = rng.gen_range(1usize..50) as u64;
            let round = rng.gen_range(0usize..20) as u64;
            let mut s = rng.gen_range(0usize..500) as u64 + 1;
            let mut rnd = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 1000) as f32 / 500.0 - 1.0
            };
            let g: Vec<f32> = (0..6).map(|_| rnd()).collect();
            let updates: Vec<ModelUpdate> = (0..n)
                .map(|i| {
                    let born = round.saturating_sub((i as u64) % (beta + 1));
                    upd(born, 10 + i * 7, (0..6).map(|_| rnd()).collect())
                })
                .collect();
            let w = aggregation_weights(
                &updates,
                &g,
                round,
                alpha,
                mu,
                Some(beta),
                ImportanceMode::ModelCosine,
            );
            assert_eq!(w.len(), n, "case {case}");
            assert!((w.iter().sum::<f32>() - 1.0).abs() < 1e-4, "case {case}: {w:?}");
            assert!(w.iter().all(|&x| x >= 0.0), "case {case}: {w:?}");
        }
    }

    #[test]
    fn prop_every_policy_weights_normalized() {
        // The normalization contract holds for *every* ServerPolicy impl,
        // not just SEAFL's Eq. 6: weights finite, non-negative, Σ = 1 within
        // 1e-6 — including the stateful FedStaleWeight policy after it has
        // observed the buffer's arrivals.
        use crate::config::{Algorithm, ExperimentConfig};
        use crate::policy::build_policy;

        for case in 0..32 {
            let mut rng = StdRng::seed_from_u64(case);
            let n = rng.gen_range(1usize..8);
            let round = rng.gen_range(0usize..20) as u64;
            let mut s = rng.gen_range(0usize..500) as u64 + 1;
            let mut rnd = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 1000) as f32 / 500.0 - 1.0
            };
            let g: Vec<f32> = (0..6).map(|_| rnd()).collect();
            let updates: Vec<ModelUpdate> = (0..n)
                .map(|i| ModelUpdate {
                    client_id: i,
                    params: (0..6).map(|_| rnd()).collect(),
                    num_samples: 10 + i * 7,
                    born_round: round.saturating_sub(i as u64 % 5),
                    epochs_completed: 5,
                    train_loss: 0.0,
                })
                .collect();

            for algorithm in [
                Algorithm::seafl(6, 3, Some(10)),
                Algorithm::seafl2(8, 3, 2),
                Algorithm::seafl_drop(8, 3, 1),
                Algorithm::fedbuff(6, 3),
                Algorithm::fedasync(6),
                Algorithm::fedavg(6),
                Algorithm::fedstale(6, 3),
            ] {
                let mut cfg = ExperimentConfig::quick(0, algorithm);
                cfg.num_clients = 12;
                let mut policy = build_policy(&cfg);
                // Stateful policies observe arrivals before weighting.
                for u in &updates {
                    policy.on_update_received(u, round);
                }
                let w = policy.weights_for_buffer(&updates, &g, round);
                let name = policy.name();
                assert_eq!(w.len(), n, "case {case}: {name}");
                assert!(w.iter().all(|&x| x.is_finite() && x >= 0.0), "case {case}: {name}: {w:?}");
                let sum: f64 = w.iter().map(|&x| x as f64).sum();
                assert!((sum - 1.0).abs() < 1e-6, "case {case}: {name}: sum {sum}");
            }
        }
    }

    #[test]
    fn prop_staleness_factor_monotonic() {
        for case in 0..32 {
            let mut rng = StdRng::seed_from_u64(case);
            // Case 0 replays the one failure ever recorded: α = 0.1, β = 99.
            let (alpha, beta) = match case {
                0 => (0.1, 99),
                _ => (rng.gen_range(0.1f32..5.0), rng.gen_range(1usize..100) as u64),
            };
            let mut prev = f32::INFINITY;
            for s in 0..2 * beta {
                let f = staleness_factor(alpha, Some(beta), s);
                assert!(f <= prev + 1e-7, "case {case}: α {alpha} β {beta} S {s}");
                // One ulp of slack: α·β/(s+β) can round just above α.
                assert!(f > 0.0 && f <= alpha * (1.0 + 1e-6), "case {case}: α {alpha} β {beta}");
                prev = f;
            }
        }
    }

    #[test]
    fn prop_lemma1_bounds_hold_within_staleness_limit() {
        // Lemma 1: p ∈ [α/2·d, (α+μ)·d] before normalization, for S_k ≤ β.
        // Check the unnormalized staleness factor: γ alone ∈ [α/2, α], and
        // s ∈ [0, μ] ⇒ γ + s ∈ [α/2, α + μ].
        for case in 0..32 {
            let mut rng = StdRng::seed_from_u64(case);
            let alpha = rng.gen_range(0.1f32..5.0);
            let beta = rng.gen_range(1usize..30) as u64;
            let stale = (rng.gen_range(0usize..30) as u64).min(beta);
            let gamma = staleness_factor(alpha, Some(beta), stale);
            assert!(gamma >= alpha / 2.0 - 1e-6, "case {case}: α {alpha} β {beta} S {stale}");
            assert!(gamma <= alpha + 1e-6, "case {case}: α {alpha} β {beta} S {stale}");
        }
    }
}
