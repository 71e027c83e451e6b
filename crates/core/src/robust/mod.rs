//! Byzantine-robust aggregation: a pluggable screening/combination layer
//! between the hygiene sanitizer (`crate::sanitize`) and the policy's
//! weighting/mix step.
//!
//! The sanitizer rejects *malformed* updates (NaN, exploded norms); this
//! layer defends against *well-formed but adversarial* ones — sign-flipped
//! gradients, scaled boosts, colluding clients pushing a shared target,
//! stale replays (see `seafl_sim::AttackKind` for the paired attack model).
//! It composes with every [`crate::policy::ServerPolicy`] without engine
//! forks because it acts on the sanitized buffer *before* the policy
//! computes weights:
//!
//! ```text
//! sanitize ──▶ robust screen/clip ──▶ policy weights ──▶ robust combine ──▶ mix
//! ```
//!
//! The default rule, [`RobustAggregator::Mean`], is a literal pass-through
//! to `crate::policy::weighted_average` — runs with robustness disabled
//! are bit-identical to builds that predate this module, which the
//! refactor-guard fixtures pin.
//!
//! What each rule tolerates (n buffered updates, f Byzantine):
//!
//! | rule | defends against | breaks down when |
//! |---|---|---|
//! | `Mean` | nothing (baseline) | any single attacker |
//! | `CoordMedian` | < n/2 attackers per coordinate | attacker majority |
//! | `TrimmedMean{β}` | ≤ ⌊βn⌋ extreme values per side | > ⌊βn⌋ colluders |
//! | `NormClip{τ}` | magnitude attacks (boosts) | direction attacks |
//! | `Krum{f,m}` | f colluding attackers, n ≥ f+3 | f underestimated |

mod distance;

pub use distance::DistanceMetric;

use crate::policy::weighted_average;
use crate::update::ModelUpdate;
use seafl_sim::ConfigError;

/// The robust aggregation rule applied to every sanitized buffer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum RobustAggregator {
    /// Plain weighted averaging — bit-identical to the pre-robust engine.
    #[default]
    Mean,
    /// Coordinate-wise median (unweighted): each global coordinate is the
    /// median of the buffered values, so up to half the buffer can lie
    /// about any coordinate without moving it past an honest value.
    CoordMedian,
    /// Coordinate-wise trimmed mean: drop the `⌊beta·n⌋` largest and
    /// smallest values per coordinate, weighted-average the rest.
    /// `beta = 0` trims nothing and is bitwise-identical to `Mean`.
    TrimmedMean {
        /// Fraction trimmed from *each* tail, in `[0, 0.5)`.
        beta: f32,
    },
    /// Clip each update's drift from the global model to
    /// `tau · max(‖global‖, 1)` before averaging (same norm convention as
    /// the sanitizer's `max_update_norm_ratio`, so the two compose
    /// predictably).
    NormClip {
        /// Drift-norm cap as a multiple of the global norm.
        tau: f32,
    },
    /// (Multi-)Krum: score every update by the summed distances to its
    /// `n − f − 2` nearest peers and keep the `multi` lowest-scoring ones.
    /// Needs `n ≥ f + 3` to score at all; smaller buffers pass through
    /// unscreened (semi-async buffers are often tiny, and stalling the
    /// round would change liveness).
    Krum {
        /// Assumed upper bound on Byzantine clients per buffer.
        f: usize,
        /// Survivors kept (classic Krum is `multi = 1`).
        multi: usize,
    },
}

impl RobustAggregator {
    /// Reject out-of-range parameters with a readable message.
    pub(crate) fn validate(self) -> Result<(), ConfigError> {
        match self {
            RobustAggregator::Mean | RobustAggregator::CoordMedian => Ok(()),
            RobustAggregator::TrimmedMean { beta } => {
                if !(0.0..0.5).contains(&beta) {
                    return Err(ConfigError::new(format!(
                        "robust: trimmed_mean beta {beta} outside [0, 0.5)"
                    )));
                }
                Ok(())
            }
            RobustAggregator::NormClip { tau } => {
                if !(tau.is_finite() && tau > 0.0) {
                    return Err(ConfigError::new(
                        "robust: norm_clip tau must be positive and finite",
                    ));
                }
                Ok(())
            }
            RobustAggregator::Krum { multi, .. } => {
                if multi == 0 {
                    return Err(ConfigError::new("robust: krum multi must be >= 1"));
                }
                Ok(())
            }
        }
    }
}

/// Robust-aggregation knobs carried by
/// [`crate::config::ExperimentConfig::robust`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RobustConfig {
    /// The screening/combination rule.
    pub rule: RobustAggregator,
    /// Pairwise metric used by distance-based rules (Krum).
    pub metric: DistanceMetric,
}

impl RobustConfig {
    /// Validate the rule's parameters.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        self.rule.validate()
    }
}

/// What [`RobustLayer::screen`] did to one sanitized buffer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScreenOutcome {
    /// Client ids whose updates were screened out, in buffer order.
    pub(crate) screened: Vec<usize>,
    /// Updates norm-clipped in place this call.
    pub(crate) clipped: usize,
}

/// The engine-resident robust layer: the configured rule and nothing
/// more. It keeps no state, so checkpoints carry none for it; what it did
/// lands in the run's trace (`Rejected { cause: RobustScreened }`) and in
/// the engine's clipped-update count.
#[derive(Clone, Debug)]
pub struct RobustLayer {
    cfg: RobustConfig,
}

impl RobustLayer {
    /// Layer for `cfg`.
    pub fn new(cfg: RobustConfig) -> Self {
        RobustLayer { cfg }
    }

    /// True for the pass-through default. The engine skips the `Robust`
    /// phase span (and this layer entirely) when this holds, which is what
    /// keeps disabled-robustness runs bit-identical to the seed.
    pub(crate) fn is_mean(&self) -> bool {
        matches!(self.cfg.rule, RobustAggregator::Mean)
    }

    /// True when [`screen`](RobustLayer::screen) can drop or mutate
    /// updates (Krum screens, NormClip clips).
    pub(crate) fn screens(&self) -> bool {
        matches!(self.cfg.rule, RobustAggregator::NormClip { .. } | RobustAggregator::Krum { .. })
    }

    /// Screen/clip the sanitized buffer in place, before the policy sees
    /// it. Krum removes suspected outliers from `updates`; NormClip caps
    /// each update's drift from `global`; every other rule leaves the
    /// buffer untouched.
    pub fn screen(&self, updates: &mut Vec<ModelUpdate>, global: &[f32]) -> ScreenOutcome {
        match self.cfg.rule {
            RobustAggregator::NormClip { tau } => {
                let limit = tau as f64 * (seafl_tensor::l2_norm(global) as f64).max(1.0);
                let mut out = ScreenOutcome::default();
                for u in updates.iter_mut() {
                    let d = seafl_tensor::l2_distance_sq(&u.params, global).sqrt() as f64;
                    if d > limit {
                        let scale = (limit / d) as f32;
                        for (p, &g) in u.params.iter_mut().zip(global.iter()) {
                            *p = g + (*p - g) * scale;
                        }
                        out.clipped += 1;
                    }
                }
                out
            }
            RobustAggregator::Krum { f, multi } => {
                let n = updates.len();
                if n < f + 3 {
                    // Can't score: n − f − 2 < 1 nearest peers. Pass the
                    // buffer through rather than stall the round.
                    return ScreenOutcome::default();
                }
                let metric = self.cfg.metric;
                let mut dist = vec![0.0f64; n * n];
                for i in 0..n {
                    for j in (i + 1)..n {
                        let d = metric.distance(&updates[i].params, &updates[j].params, global);
                        dist[i * n + j] = d;
                        dist[j * n + i] = d;
                    }
                }
                let closest = n - f - 2;
                let mut scored: Vec<(f64, usize)> = (0..n)
                    .map(|i| {
                        let mut row: Vec<f64> =
                            (0..n).filter(|&j| j != i).map(|j| dist[i * n + j]).collect();
                        row.sort_unstable_by(f64::total_cmp);
                        (row[..closest].iter().sum::<f64>(), i)
                    })
                    .collect();
                scored.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let keep_n = multi.min(n);
                let mut keep = vec![false; n];
                for &(_, i) in &scored[..keep_n] {
                    keep[i] = true;
                }
                let mut out = ScreenOutcome::default();
                let mut idx = 0;
                updates.retain(|u| {
                    let kept = keep[idx];
                    idx += 1;
                    if !kept {
                        out.screened.push(u.client_id);
                    }
                    kept
                });
                out
            }
            _ => ScreenOutcome::default(),
        }
    }

    /// Combine the (screened) buffer under the policy's `weights`. `Mean`
    /// calls [`weighted_average`] verbatim; rank-based rules replace the
    /// average with their robust statistic and ignore or renormalize the
    /// weights as the rule demands.
    pub(crate) fn combine(&self, updates: &[ModelUpdate], weights: &[f32]) -> Vec<f32> {
        match self.cfg.rule {
            RobustAggregator::Mean
            | RobustAggregator::NormClip { .. }
            | RobustAggregator::Krum { .. } => weighted_average(updates, weights),
            RobustAggregator::CoordMedian => coord_median(updates),
            RobustAggregator::TrimmedMean { beta } => {
                let k = (beta as f64 * updates.len() as f64).floor() as usize;
                if k == 0 {
                    // Nothing to trim: defer to the exact same f32 loop as
                    // Mean so `beta = 0` is bitwise-identical to it.
                    return weighted_average(updates, weights);
                }
                trimmed_mean(updates, weights, k)
            }
        }
    }
}

/// Unweighted coordinate-wise median (ties averaged for even n).
fn coord_median(updates: &[ModelUpdate]) -> Vec<f32> {
    let n = updates.len();
    let dim = updates[0].params.len();
    let mut out = vec![0.0f32; dim];
    let mut col = vec![0.0f32; n];
    for (c, o) in out.iter_mut().enumerate() {
        for (k, u) in updates.iter().enumerate() {
            assert_eq!(u.params.len(), dim, "coord_median: mixed model sizes");
            col[k] = u.params[c];
        }
        col.sort_unstable_by(f32::total_cmp);
        *o = if n % 2 == 1 {
            col[n / 2]
        } else {
            ((col[n / 2 - 1] as f64 + col[n / 2] as f64) / 2.0) as f32
        };
    }
    out
}

/// Coordinate-wise trimmed weighted mean: per coordinate, drop the `k`
/// largest and `k` smallest values, weighted-average the rest (f64
/// accumulation, weights renormalized over the survivors).
fn trimmed_mean(updates: &[ModelUpdate], weights: &[f32], k: usize) -> Vec<f32> {
    let n = updates.len();
    let dim = updates[0].params.len();
    assert!(2 * k < n, "trimmed_mean: k={k} trims the whole buffer of {n}");
    let mut out = vec![0.0f32; dim];
    let mut col: Vec<(f32, f32)> = vec![(0.0, 0.0); n];
    for (c, o) in out.iter_mut().enumerate() {
        for (slot, (u, &w)) in col.iter_mut().zip(updates.iter().zip(weights.iter())) {
            assert_eq!(u.params.len(), dim, "trimmed_mean: mixed model sizes");
            *slot = (u.params[c], w);
        }
        col.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let kept = &col[k..n - k];
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for &(v, w) in kept {
            num += v as f64 * w as f64;
            den += w as f64;
        }
        *o = if den > 0.0 {
            (num / den) as f32
        } else {
            (kept.iter().map(|&(v, _)| v as f64).sum::<f64>() / kept.len() as f64) as f32
        };
    }
    out
}

/// Precision/recall of a detection set against the ground-truth attacker
/// set (both sorted, deduplicated client-id slices — the shapes
/// `seafl_sim::AttackPlan::attackers` and
/// `seafl_sim::TraceLog::rejected_clients` produce).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DetectionStats {
    /// Detected clients that really were attackers.
    pub true_positives: usize,
    /// Detected clients that were honest.
    pub false_positives: usize,
    /// Attackers never detected.
    pub false_negatives: usize,
    /// `tp / (tp + fp)`; 1.0 when nothing was detected (no false alarms).
    pub precision: f64,
    /// `tp / (tp + fn)`; 1.0 when there were no attackers to find.
    pub recall: f64,
}

/// Score `detected` against `attackers` (both sorted ascending).
pub(crate) fn detection_stats(attackers: &[usize], detected: &[usize]) -> DetectionStats {
    let tp = detected.iter().filter(|d| attackers.binary_search(d).is_ok()).count();
    let fp = detected.len() - tp;
    let fnn =
        attackers.len() - attackers.iter().filter(|a| detected.binary_search(a).is_ok()).count();
    DetectionStats {
        true_positives: tp,
        false_positives: fp,
        false_negatives: fnn,
        precision: if detected.is_empty() { 1.0 } else { tp as f64 / detected.len() as f64 },
        recall: if attackers.is_empty() { 1.0 } else { tp as f64 / attackers.len() as f64 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(client_id: usize, params: Vec<f32>) -> ModelUpdate {
        ModelUpdate {
            client_id,
            params,
            num_samples: 100,
            born_round: 0,
            epochs_completed: 1,
            train_loss: 0.5,
        }
    }

    fn uniform(n: usize) -> Vec<f32> {
        vec![1.0 / n as f32; n]
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        let e = RobustAggregator::TrimmedMean { beta: 0.5 }.validate().unwrap_err();
        assert!(e.to_string().contains("beta"), "{e}");
        assert!(RobustAggregator::TrimmedMean { beta: -0.1 }.validate().is_err());
        assert!(RobustAggregator::NormClip { tau: 0.0 }.validate().is_err());
        assert!(RobustAggregator::NormClip { tau: f32::NAN }.validate().is_err());
        let e = RobustAggregator::Krum { f: 1, multi: 0 }.validate().unwrap_err();
        assert!(e.to_string().contains("multi"), "{e}");
        RobustConfig::default().validate().unwrap();
        for rule in [
            RobustAggregator::CoordMedian,
            RobustAggregator::TrimmedMean { beta: 0.2 },
            RobustAggregator::NormClip { tau: 1.0 },
            RobustAggregator::Krum { f: 1, multi: 1 },
        ] {
            rule.validate().unwrap();
        }
    }

    #[test]
    fn mean_combine_is_exactly_weighted_average() {
        let updates = vec![upd(0, vec![1.0, -2.0, 0.5]), upd(1, vec![3.0, 0.25, -1.0])];
        let weights = vec![0.3f32, 0.7];
        let layer = RobustLayer::new(RobustConfig::default());
        let ours = layer.combine(&updates, &weights);
        let reference = weighted_average(&updates, &weights);
        assert_eq!(
            ours.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn coord_median_ignores_a_minority_outlier() {
        let updates = vec![
            upd(0, vec![1.0, 10.0]),
            upd(1, vec![2.0, 20.0]),
            upd(2, vec![1_000.0, -900.0]), // attacker
        ];
        let layer = RobustLayer::new(RobustConfig {
            rule: RobustAggregator::CoordMedian,
            ..Default::default()
        });
        assert_eq!(layer.combine(&updates, &uniform(3)), vec![2.0, 10.0]);
        // Even n averages the two middle values.
        let four =
            vec![upd(0, vec![1.0]), upd(1, vec![2.0]), upd(2, vec![3.0]), upd(3, vec![100.0])];
        assert_eq!(layer.combine(&four, &uniform(4)), vec![2.5]);
    }

    #[test]
    fn trimmed_mean_beta_zero_is_bitwise_mean() {
        let updates = vec![
            upd(0, vec![0.1, -7.3, 2.25]),
            upd(1, vec![1.7, 0.0, -0.5]),
            upd(2, vec![-2.2, 3.125, 9.0]),
        ];
        let weights = vec![0.5f32, 0.25, 0.25];
        let trimmed = RobustLayer::new(RobustConfig {
            rule: RobustAggregator::TrimmedMean { beta: 0.0 },
            ..Default::default()
        });
        let a = trimmed.combine(&updates, &weights);
        let b = weighted_average(&updates, &weights);
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        // beta=0.25 over n=4 trims k=1 from each end of every coordinate.
        let updates = vec![
            upd(0, vec![-1_000.0]),
            upd(1, vec![4.0]),
            upd(2, vec![6.0]),
            upd(3, vec![1_000.0]),
        ];
        let layer = RobustLayer::new(RobustConfig {
            rule: RobustAggregator::TrimmedMean { beta: 0.25 },
            ..Default::default()
        });
        let out = layer.combine(&updates, &uniform(4));
        assert!((out[0] - 5.0).abs() < 1e-6, "{out:?}");
    }

    #[test]
    fn norm_clip_caps_drift_and_counts() {
        let global = vec![0.0f32, 0.0];
        let mut updates = vec![
            upd(0, vec![0.5, 0.0]),  // inside the cap
            upd(1, vec![0.0, 10.0]), // 10× over a tau=1 cap (‖g‖<1 ⇒ limit=1)
        ];
        let layer = RobustLayer::new(RobustConfig {
            rule: RobustAggregator::NormClip { tau: 1.0 },
            ..Default::default()
        });
        assert!(layer.screens() && !layer.is_mean());
        let out = layer.screen(&mut updates, &global);
        assert_eq!(out.clipped, 1);
        assert!(out.screened.is_empty());
        assert_eq!(updates[0].params, vec![0.5, 0.0]);
        let clipped_norm = seafl_tensor::l2_norm(&updates[1].params);
        assert!((clipped_norm - 1.0).abs() < 1e-5, "clipped to the boundary, got {clipped_norm}");
    }

    #[test]
    fn krum_screens_the_planted_outlier_at_the_boundary() {
        // n = 4, f = 1: exactly the n = f + 3 boundary where scoring first
        // becomes possible (each update has n − f − 2 = 1 nearest peer).
        let global = vec![0.0f32; 2];
        let mut updates = vec![
            upd(0, vec![1.0, 1.0]),
            upd(1, vec![1.1, 0.9]),
            upd(2, vec![-50.0, 40.0]), // attacker
            upd(3, vec![0.9, 1.1]),
        ];
        let layer = RobustLayer::new(RobustConfig {
            rule: RobustAggregator::Krum { f: 1, multi: 3 },
            ..Default::default()
        });
        let out = layer.screen(&mut updates, &global);
        assert_eq!(out.screened, vec![2]);
        let kept: Vec<usize> = updates.iter().map(|u| u.client_id).collect();
        assert_eq!(kept, vec![0, 1, 3], "survivors keep buffer order");
    }

    #[test]
    fn krum_passes_small_buffers_through() {
        let global = vec![0.0f32; 2];
        let mut updates =
            vec![upd(0, vec![1.0, 0.0]), upd(1, vec![0.0, 1.0]), upd(2, vec![-9.0, 9.0])];
        let layer = RobustLayer::new(RobustConfig {
            rule: RobustAggregator::Krum { f: 1, multi: 1 },
            ..Default::default()
        });
        // n = 3 < f + 3 = 4: nothing screened, nothing counted.
        let out = layer.screen(&mut updates, &global);
        assert_eq!(out, ScreenOutcome::default());
        assert_eq!(updates.len(), 3);
    }

    #[test]
    fn krum_multi_keeps_the_closest_cluster() {
        let global = vec![0.0f32; 1];
        let mut updates: Vec<ModelUpdate> = (0..6)
            .map(|i| upd(i, vec![if i < 2 { 100.0 + i as f32 } else { i as f32 * 0.01 }]))
            .collect();
        let layer = RobustLayer::new(RobustConfig {
            rule: RobustAggregator::Krum { f: 2, multi: 4 },
            ..Default::default()
        });
        let out = layer.screen(&mut updates, &global);
        assert_eq!(out.screened, vec![0, 1]);
        assert_eq!(updates.len(), 4);
    }

    #[test]
    fn detection_stats_cover_the_edge_cases() {
        let s = detection_stats(&[2, 5, 9], &[2, 7, 9]);
        assert_eq!((s.true_positives, s.false_positives, s.false_negatives), (2, 1, 1));
        assert!((s.precision - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.recall - 2.0 / 3.0).abs() < 1e-12);
        // No detections: perfect precision, zero recall.
        let s = detection_stats(&[1], &[]);
        assert_eq!((s.precision, s.recall), (1.0, 0.0));
        // No attackers: any detection is a false alarm, recall is vacuous.
        let s = detection_stats(&[], &[4]);
        assert_eq!((s.precision, s.recall), (0.0, 1.0));
        let s = detection_stats(&[], &[]);
        assert_eq!((s.precision, s.recall), (1.0, 1.0));
    }
}
