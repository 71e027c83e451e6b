//! Heavy-tailed samplers for device heterogeneity.
//!
//! §III of the paper: per-epoch idle durations from a Zipf distribution with
//! s = 1.7 capped at 60 s. §VI: client speeds from a Pareto distribution.

use rand::Rng;
use rand_distr::{Distribution, Pareto, Zipf};

/// Zipf-distributed idle durations (seconds), as used in the preliminary
/// insights testbed: `Zipf(n = max_seconds, s)`, so most devices idle for a
/// second or two while a heavy tail idles for up to `max_seconds`.
#[derive(Clone, Copy, Debug)]
pub struct ZipfIdle {
    pub(crate) s: f64,
    pub(crate) max_seconds: u64,
}

impl ZipfIdle {
    /// The paper's parameters: s = 1.7, max 60 s.
    pub fn paper_default() -> Self {
        ZipfIdle { s: 1.7, max_seconds: 60 }
    }

    /// Sample one idle duration in seconds, in `[1, max_seconds]`.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        let z = Zipf::new(self.max_seconds, self.s).expect("valid zipf");
        z.sample(rng)
    }
}

/// Pareto-distributed per-device speed factors (≥ 1; multiplies the base
/// per-batch compute time), as used in the main evaluation: a heavy tail of
/// stragglers whose factor can be an order of magnitude above the median.
#[derive(Clone, Copy, Debug)]
pub struct ParetoSpeed {
    /// Tail index; smaller = heavier tail (more extreme stragglers).
    pub shape: f64,
    /// Scale (minimum value).
    pub scale: f64,
    /// Hard cap to keep simulations finite.
    pub cap: f64,
}

impl ParetoSpeed {
    /// Defaults producing a fleet where the slowest ~5 % of devices are
    /// 5–20× slower than the fastest — the regime the paper motivates.
    pub fn paper_default() -> Self {
        ParetoSpeed { shape: 1.5, scale: 1.0, cap: 20.0 }
    }

    /// Sample one speed factor in `[scale, cap]`.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        let p = Pareto::new(self.scale, self.shape).expect("valid pareto");
        p.sample(rng).min(self.cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipf_within_bounds() {
        let z = ZipfIdle::paper_default();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..2000 {
            let v = z.sample(&mut rng);
            assert!((1.0..=60.0).contains(&v), "zipf sample {v} out of range");
        }
    }

    #[test]
    fn zipf_is_heavy_tailed_but_mostly_small() {
        let z = ZipfIdle::paper_default();
        let mut rng = StdRng::seed_from_u64(1);
        let samples: Vec<f64> = (0..5000).map(|_| z.sample(&mut rng)).collect();
        let small = samples.iter().filter(|&&v| v <= 2.0).count() as f64 / samples.len() as f64;
        let large = samples.iter().filter(|&&v| v >= 30.0).count() as f64 / samples.len() as f64;
        assert!(small > 0.6, "only {small} of samples are <= 2s");
        assert!(large > 0.001, "tail missing: {large}");
        assert!(large < 0.2, "tail too fat: {large}");
    }

    #[test]
    fn pareto_bounds_and_tail() {
        let p = ParetoSpeed::paper_default();
        let mut rng = StdRng::seed_from_u64(2);
        let fleet: Vec<f64> = (0..5000).map(|_| p.sample(&mut rng)).collect();
        assert!(fleet.iter().all(|&v| (1.0..=20.0).contains(&v)));
        let median = {
            let mut f = fleet.clone();
            f.sort_by(|a, b| a.partial_cmp(b).unwrap());
            f[f.len() / 2]
        };
        let p95 = {
            let mut f = fleet.clone();
            f.sort_by(|a, b| a.partial_cmp(b).unwrap());
            f[(f.len() as f64 * 0.95) as usize]
        };
        assert!(median < 2.5, "median {median}");
        assert!(p95 > 4.0, "p95 {p95} — tail not heavy enough");
    }

    #[test]
    fn samplers_deterministic_per_seed() {
        let p = ParetoSpeed::paper_default();
        let fleet = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..10).map(|_| p.sample(&mut rng)).collect::<Vec<f64>>()
        };
        let (a, b) = (fleet(3), fleet(3));
        assert_eq!(a, b);
    }
}
