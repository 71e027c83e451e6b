//! Server-side update sanitization.
//!
//! Sits in front of [`crate::ServerPolicy::aggregate`]: updates that are
//! numerically broken — NaN/∞ parameters, or a parameter vector absurdly
//! far from the current global model — are rejected before they can poison
//! the global model. Rejection is all-or-nothing per update; the surviving
//! updates simply form a smaller buffer, and every aggregation rule here
//! computes its weights over the updates it is given, so the remaining
//! weights renormalize automatically.
//!
//! This is deliberately a *sanity* filter, not a Byzantine-robust
//! aggregation rule: it is the cheap server hygiene any production FL
//! deployment needs even when all clients are honest, because a single
//! diverged client would otherwise NaN the global model for everyone. The
//! thresholds live in [`crate::config::ResilienceConfig`]. Defenses against
//! *deliberately adversarial* (well-formed but malicious) updates — medians,
//! trimmed means, Krum — live one stage downstream in [`crate::robust`],
//! which screens and combines the sanitized buffer.

use crate::config::ResilienceConfig;
use crate::update::ModelUpdate;
use seafl_sim::RejectCause;

/// Check one update against the sanitizer rules. `Ok(())` means the update
/// may be aggregated.
pub(crate) fn check_update(
    update: &ModelUpdate,
    global: &[f32],
    cfg: &ResilienceConfig,
) -> Result<(), RejectCause> {
    if update.params.iter().any(|p| !p.is_finite()) {
        return Err(RejectCause::NonFinite);
    }
    if let Some(ratio) = cfg.max_update_norm_ratio {
        // Distance from the global model, against a floor of 1.0 so a
        // near-zero global (fresh initialization) still admits updates.
        let dist = seafl_tensor::l2_distance_sq(&update.params, global).sqrt() as f64;
        let limit = ratio * (seafl_tensor::l2_norm(global) as f64).max(1.0);
        if dist > limit {
            return Err(RejectCause::NormExploded);
        }
    }
    Ok(())
}

/// Split a drained buffer into aggregatable updates and rejections.
pub(crate) fn sanitize_updates(
    updates: Vec<ModelUpdate>,
    global: &[f32],
    cfg: &ResilienceConfig,
) -> (Vec<ModelUpdate>, Vec<(usize, RejectCause)>) {
    let mut accepted = Vec::with_capacity(updates.len());
    let mut rejected = Vec::new();
    for u in updates {
        match check_update(&u, global, cfg) {
            Ok(()) => accepted.push(u),
            Err(cause) => rejected.push((u.client_id, cause)),
        }
    }
    (accepted, rejected)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(client: usize, params: Vec<f32>) -> ModelUpdate {
        ModelUpdate {
            client_id: client,
            params,
            num_samples: 10,
            born_round: 0,
            epochs_completed: 5,
            train_loss: 0.5,
        }
    }

    fn cfg() -> ResilienceConfig {
        ResilienceConfig::default()
    }

    #[test]
    fn finite_updates_pass() {
        let global = vec![1.0, -1.0, 0.5];
        assert!(check_update(&upd(0, vec![1.1, -0.9, 0.4]), &global, &cfg()).is_ok());
    }

    #[test]
    fn nan_and_inf_rejected() {
        let global = vec![0.0; 3];
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let r = check_update(&upd(0, vec![0.0, bad, 0.0]), &global, &cfg());
            assert_eq!(r, Err(RejectCause::NonFinite));
        }
    }

    #[test]
    fn norm_bound_rejects_exploded_update() {
        let mut c = cfg();
        c.max_update_norm_ratio = Some(10.0);
        let global = vec![1.0, 0.0, 0.0];
        // ‖g‖ = 1, limit = 10; distance 1000 ≫ 10.
        let r = check_update(&upd(0, vec![1000.0, 0.0, 0.0]), &global, &c);
        assert_eq!(r, Err(RejectCause::NormExploded));
        // A nearby update passes.
        assert!(check_update(&upd(0, vec![2.0, 1.0, 0.0]), &global, &c).is_ok());
    }

    #[test]
    fn norm_bound_floors_tiny_global() {
        let mut c = cfg();
        c.max_update_norm_ratio = Some(5.0);
        // ‖g‖ ≈ 0 → floor kicks in: limit = 5·1 = 5.
        let global = vec![0.0; 4];
        assert!(check_update(&upd(0, vec![1.0; 4]), &global, &c).is_ok());
        assert!(check_update(&upd(0, vec![10.0; 4]), &global, &c).is_err());
    }

    #[test]
    fn subnormal_params_are_finite_and_pass() {
        // Subnormals are finite: the hygiene filter must not confuse "tiny"
        // with "broken". (Gradient underflow routinely produces these.)
        let mut c = cfg();
        c.max_update_norm_ratio = Some(5.0);
        let sub = f32::MIN_POSITIVE / 2.0;
        assert!(sub.is_subnormal());
        let global = vec![0.0; 3];
        assert!(check_update(&upd(0, vec![sub, -sub, sub]), &global, &c).is_ok());
    }

    #[test]
    fn exact_zero_update_against_zero_global_passes() {
        // ‖u − g‖ = 0 and ‖g‖ = 0: the distance check must neither divide by
        // zero nor reject — limit floors at ratio · 1.0.
        let mut c = cfg();
        c.max_update_norm_ratio = Some(0.5);
        let global = vec![0.0; 4];
        assert!(check_update(&upd(0, vec![0.0; 4]), &global, &c).is_ok());
    }

    #[test]
    fn negative_zero_treated_as_zero() {
        let mut c = cfg();
        c.max_update_norm_ratio = Some(1.0);
        let global = vec![0.0; 2];
        assert!(check_update(&upd(0, vec![-0.0, -0.0]), &global, &c).is_ok());
    }

    #[test]
    fn fully_rejected_batch_yields_empty_accepted_set() {
        // The engines handle an all-rejected round by simply retrying; the
        // sanitizer's contract is an empty-but-well-formed accepted set, not
        // a panic or a zero-weight aggregation.
        let mut c = cfg();
        c.max_update_norm_ratio = Some(1.0);
        let global = vec![0.0; 2];
        let batch = vec![
            upd(0, vec![f32::INFINITY, 0.0]),
            upd(1, vec![f32::NEG_INFINITY, 0.0]),
            upd(2, vec![1e9, 1e9]),
        ];
        let (ok, bad) = sanitize_updates(batch, &global, &c);
        assert!(ok.is_empty());
        assert_eq!(
            bad,
            vec![
                (0, RejectCause::NonFinite),
                (1, RejectCause::NonFinite),
                (2, RejectCause::NormExploded),
            ]
        );
    }

    #[test]
    fn sanitize_splits_and_preserves_order() {
        let mut c = cfg();
        c.max_update_norm_ratio = Some(10.0);
        let global = vec![0.0; 2];
        let batch = vec![
            upd(0, vec![0.1, 0.1]),
            upd(1, vec![f32::NAN, 0.0]),
            upd(2, vec![0.2, 0.2]),
            upd(3, vec![1e6, 1e6]),
        ];
        let (ok, bad) = sanitize_updates(batch, &global, &c);
        assert_eq!(ok.iter().map(|u| u.client_id).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(bad, vec![(1, RejectCause::NonFinite), (3, RejectCause::NormExploded)]);
    }
}
