//! Distance metrics between client updates, shared by the robust
//! aggregation rules (and reusable by distance-aware weighting policies).
//!
//! All accumulation is `f64` regardless of metric, so pairwise distances are
//! deterministic and insensitive to the summation quirks of `f32`.

/// How "far apart" two updates are, for pairwise screening rules like Krum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DistanceMetric {
    /// Euclidean distance between the raw parameter vectors — the metric
    /// the original Krum paper uses.
    #[default]
    L2,
    /// Cosine *distance* (`1 − cos`) between the raw parameter vectors:
    /// direction-only, blind to magnitude attacks but robust to scaling.
    Cosine,
    /// Cosine distance between the *drifts from the global model*
    /// (`a − g` vs `b − g`): compares what each client actually changed,
    /// which separates a sign-flipped update (drift reversed, distance ≈ 2)
    /// from an honest one far better than raw cosine when updates sit close
    /// to a large shared global.
    ParameterDrift,
}

impl DistanceMetric {
    /// Distance between updates `a` and `b`, relative to the current
    /// `global` model where the metric calls for it. Always finite and
    /// non-negative for finite inputs.
    pub(crate) fn distance(self, a: &[f32], b: &[f32], global: &[f32]) -> f64 {
        assert_eq!(a.len(), b.len(), "distance: mixed model sizes");
        match self {
            DistanceMetric::L2 => {
                let mut s = 0.0f64;
                for (&x, &y) in a.iter().zip(b.iter()) {
                    let d = x as f64 - y as f64;
                    s += d * d;
                }
                s.sqrt()
            }
            DistanceMetric::Cosine => cosine_distance(a.iter().map(|&x| x as f64), b.len(), b),
            DistanceMetric::ParameterDrift => {
                assert_eq!(a.len(), global.len(), "distance: mixed model sizes");
                let mut dot = 0.0f64;
                let mut na = 0.0f64;
                let mut nb = 0.0f64;
                for ((&x, &y), &g) in a.iter().zip(b.iter()).zip(global.iter()) {
                    let da = x as f64 - g as f64;
                    let db = y as f64 - g as f64;
                    dot += da * db;
                    na += da * da;
                    nb += db * db;
                }
                one_minus_cos(dot, na, nb)
            }
        }
    }
}

/// `1 − cos(a, b)` over raw vectors, f64 accumulation.
fn cosine_distance(a: impl Iterator<Item = f64>, _len: usize, b: &[f32]) -> f64 {
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (x, &y) in a.zip(b.iter()) {
        let y = y as f64;
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    one_minus_cos(dot, na, nb)
}

/// `1 − dot/√(na·nb)`, clamped into the valid cosine-distance range; a
/// zero-norm operand yields distance 0 (no directional information).
fn one_minus_cos(dot: f64, na: f64, nb: f64) -> f64 {
    let denom = (na * nb).sqrt();
    if denom == 0.0 {
        return 0.0;
    }
    (1.0 - dot / denom).clamp(0.0, 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_matches_hand_computation() {
        let d = DistanceMetric::L2.distance(&[0.0, 3.0], &[4.0, 0.0], &[0.0, 0.0]);
        assert!((d - 5.0).abs() < 1e-12);
        assert_eq!(DistanceMetric::L2.distance(&[1.0, 2.0], &[1.0, 2.0], &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn cosine_separates_direction_not_magnitude() {
        let g = vec![0.0f32; 2];
        let same = DistanceMetric::Cosine.distance(&[1.0, 0.0], &[5.0, 0.0], &g);
        assert!(same.abs() < 1e-12, "parallel vectors must be at distance 0");
        let opposite = DistanceMetric::Cosine.distance(&[1.0, 0.0], &[-1.0, 0.0], &g);
        assert!((opposite - 2.0).abs() < 1e-12);
        let orthogonal = DistanceMetric::Cosine.distance(&[1.0, 0.0], &[0.0, 1.0], &g);
        assert!((orthogonal - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parameter_drift_sees_through_a_large_shared_global() {
        // Both updates sit next to a big global; raw cosine calls them
        // near-identical, drift cosine sees the reversed direction.
        let g = vec![100.0f32, 100.0];
        let honest = vec![101.0f32, 100.0];
        let flipped = vec![99.0f32, 100.0]; // 2g − honest
        let raw = DistanceMetric::Cosine.distance(&honest, &flipped, &g);
        let drift = DistanceMetric::ParameterDrift.distance(&honest, &flipped, &g);
        assert!(raw < 0.01, "raw cosine should barely notice ({raw})");
        assert!((drift - 2.0).abs() < 1e-9, "drift cosine must max out ({drift})");
    }

    #[test]
    fn zero_norm_operands_are_distance_zero() {
        let g = vec![0.0f32; 3];
        assert_eq!(DistanceMetric::Cosine.distance(&[0.0; 3], &[1.0, 0.0, 0.0], &g), 0.0);
        assert_eq!(DistanceMetric::ParameterDrift.distance(&[0.0; 3], &[0.0; 3], &g), 0.0);
    }
}
