//! Deterministic metric primitives: counters, gauges and fixed-bucket
//! histograms.
//!
//! Everything here is plain engine-thread state — no wall clock, no
//! randomness, no atomics — so two runs that execute the same event
//! sequence produce bit-identical registries regardless of executor thread
//! count ([`MetricsRegistry::digest`] is pinned across widths in
//! `tests/obs.rs`). Metric names are `&'static str` and bucket bounds are
//! `&'static [f64]`, so recording into an existing metric never allocates.

use std::collections::BTreeMap;

/// A fixed-bucket histogram over `f64` observations.
///
/// Bucket `i` counts observations `v` with `v <= bounds[i]` (and above
/// `bounds[i - 1]`); one extra overflow bucket counts `v > bounds.last()`.
/// The exact count/sum/min/max ride along, so summaries never lose the
/// tails to bucketing.
#[derive(Clone, Debug)]
pub(crate) struct Histogram {
    bounds: &'static [f64],
    /// `bounds.len() + 1` entries; the last is the overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Empty histogram over `bounds` (must be non-empty, finite, strictly
    /// ascending — the fixed catalogs in [`crate::obs::bounds`] all are).
    pub(crate) fn new(bounds: &'static [f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram: empty bucket bounds");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
            "histogram: bounds must be finite and strictly ascending"
        );
        Histogram {
            bounds,
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub(crate) fn observe(&mut self, v: f64) {
        let idx = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// The bucket upper bounds this histogram was built over.
    pub(crate) fn bounds(&self) -> &'static [f64] {
        self.bounds
    }

    /// Per-bucket counts (`bounds.len() + 1` entries; last = overflow).
    pub(crate) fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Smallest observation (0.0 when empty).
    pub(crate) fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0.0 when empty).
    pub(crate) fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Estimate the `q`-quantile (`q ∈ [0, 1]`) by linear interpolation
    /// inside the bucket holding the target rank, clamped to the observed
    /// `[min, max]`. Returns 0.0 for an empty histogram. Exact for the
    /// extremes (`q = 0` → min, `q = 1` → max); within a bucket the error
    /// is bounded by the bucket width.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut cum = 0.0f64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c as f64;
            if next >= target {
                // Bucket range clamped to observed extremes so sparse
                // histograms don't report values never seen.
                let lo = if i == 0 { self.min } else { self.bounds[i - 1].max(self.min) };
                let hi =
                    if i < self.bounds.len() { self.bounds[i].min(self.max) } else { self.max };
                let (lo, hi) = (lo.min(hi), lo.max(hi));
                let frac = ((target - cum) / c as f64).clamp(0.0, 1.0);
                return lo + frac * (hi - lo);
            }
            cum = next;
        }
        self.max
    }

    /// Compact serializable snapshot (count, sum, extremes, p50/p95).
    pub(crate) fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.5),
            p95: self.quantile(0.95),
        }
    }
}

/// Serializable snapshot of one `Histogram` (what `*_runs.json` and the
/// JSONL summary record carry).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSummary {
    /// Total observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation (0.0 when empty).
    pub min: f64,
    /// Largest observation (0.0 when empty).
    pub max: f64,
    /// Interpolated median.
    pub p50: f64,
    /// Interpolated 95th percentile.
    pub p95: f64,
}

/// A named collection of counters, gauges and `Histogram`s.
///
/// Backed by `BTreeMap`s so iteration order — and therefore
/// [`digest`](MetricsRegistry::digest) — is deterministic.
///
/// # Examples
///
/// ```
/// use seafl_core::obs::{bounds, MetricsRegistry};
///
/// let mut reg = MetricsRegistry::new();
/// reg.inc("updates_received");
/// reg.inc("updates_received");
/// reg.observe("staleness_rounds", bounds::STALENESS_ROUNDS, 3.0);
///
/// assert_eq!(reg.counter("updates_received"), 2);
/// // Same recording sequence ⇒ same digest, bit for bit.
/// assert_eq!(reg.digest(), reg.clone().digest());
/// ```
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increment counter `name` by one (created at zero on first use).
    pub fn inc(&mut self, name: &'static str) {
        *self.counters.entry(name).or_insert(0) += 1;
    }

    /// Add `delta` to counter `name`.
    pub(crate) fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set gauge `name` to `v` (last write wins).
    pub(crate) fn set_gauge(&mut self, name: &'static str, v: f64) {
        self.gauges.insert(name, v);
    }

    /// Record `v` into histogram `name`, creating it over `bounds` on first
    /// use. The bounds of an existing histogram must match — one metric
    /// name, one bucket layout.
    pub fn observe(&mut self, name: &'static str, bounds: &'static [f64], v: f64) {
        let h = self.histograms.entry(name).or_insert_with(|| Histogram::new(bounds));
        // Pointer check first (the common case: one shared catalog const);
        // value equality as the fallback, since the compiler may duplicate
        // a promoted const slice across use sites.
        assert!(
            std::ptr::eq(h.bounds(), bounds) || h.bounds() == bounds,
            "metrics: histogram {name:?} observed with two different bucket layouts"
        );
        h.observe(v);
    }

    /// All counters in name order.
    pub(crate) fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&n, &v)| (n, v))
    }

    /// All gauges in name order.
    pub(crate) fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(&n, &v)| (n, v))
    }

    /// All histograms in name order.
    pub(crate) fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&n, h)| (n, h))
    }

    /// Order-sensitive FNV-1a 64 fingerprint over every metric's name and
    /// exact value bits, except the
    /// `RESIDENT_SHARDS` gauge.
    /// Contains no wall-clock-derived state, so equal digests mean the two
    /// runs observed the bit-identical metric stream — the obs counterpart
    /// of the model/trace digests.
    pub fn digest(&self) -> u64 {
        use super::names;
        use seafl_sim::digest::{fnv1a64_extend, FNV_OFFSET};
        let mut h = FNV_OFFSET;
        for (name, v) in &self.counters {
            h = fnv1a64_extend(h, name.as_bytes());
            h = fnv1a64_extend(h, &v.to_le_bytes());
        }
        for (name, v) in self.gauges.iter().filter(|(name, _)| **name != names::RESIDENT_SHARDS) {
            h = fnv1a64_extend(h, name.as_bytes());
            h = fnv1a64_extend(h, &v.to_bits().to_le_bytes());
        }
        for (name, hist) in &self.histograms {
            h = fnv1a64_extend(h, name.as_bytes());
            for &c in &hist.counts {
                h = fnv1a64_extend(h, &c.to_le_bytes());
            }
            h = fnv1a64_extend(h, &hist.sum.to_bits().to_le_bytes());
            h = fnv1a64_extend(h, &hist.min().to_bits().to_le_bytes());
            h = fnv1a64_extend(h, &hist.max().to_bits().to_le_bytes());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUNDS: &[f64] = &[1.0, 2.0, 5.0];

    #[test]
    fn bucket_boundaries_are_inclusive_upper() {
        let mut h = Histogram::new(BOUNDS);
        // Exactly on a bound lands in that bound's bucket (v <= bound).
        h.observe(1.0);
        h.observe(2.0);
        h.observe(5.0);
        assert_eq!(h.counts(), &[1, 1, 1, 0]);
        // Just above a bound spills into the next bucket.
        h.observe(1.0000001);
        assert_eq!(h.counts(), &[1, 2, 1, 0]);
        // Above the last bound lands in the overflow bucket.
        h.observe(100.0);
        assert_eq!(h.counts(), &[1, 2, 1, 1]);
        // Below the first bound lands in the first bucket.
        h.observe(-3.0);
        assert_eq!(h.counts(), &[2, 2, 1, 1]);
        assert_eq!(h.count, 6);
        assert_eq!(h.min(), -3.0);
        assert_eq!(h.max(), 100.0);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new(BOUNDS);
        assert_eq!(h.count, 0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        let s = h.summary();
        assert_eq!(s, HistogramSummary::default());
    }

    #[test]
    fn quantiles_interpolate_and_hit_extremes() {
        let mut h = Histogram::new(BOUNDS);
        for v in [0.5, 0.5, 1.5, 1.5, 3.0, 3.0, 4.0, 10.0] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.0), 0.5);
        assert_eq!(h.quantile(1.0), 10.0);
        let p50 = h.quantile(0.5);
        assert!((1.0..=2.0).contains(&p50), "p50 = {p50}");
        let p95 = h.quantile(0.95);
        assert!((5.0..=10.0).contains(&p95), "p95 = {p95}");
        // Quantiles are monotone in q.
        let qs: Vec<f64> =
            [0.0, 0.25, 0.5, 0.75, 0.95, 1.0].iter().map(|&q| h.quantile(q)).collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
    }

    #[test]
    fn single_observation_quantile_is_that_value() {
        let mut h = Histogram::new(BOUNDS);
        h.observe(3.25);
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(h.quantile(q), 3.25);
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_bounds_rejected() {
        Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn registry_counters_and_digest() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        assert_eq!(a.digest(), b.digest());
        a.inc("x");
        a.add("y", 3);
        a.set_gauge("g", 1.5);
        a.observe("h", BOUNDS, 2.0);
        assert_ne!(a.digest(), b.digest());
        b.inc("x");
        b.add("y", 3);
        b.set_gauge("g", 1.5);
        b.observe("h", BOUNDS, 2.0);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.counter("x"), 1);
        assert_eq!(a.counter("never"), 0);
        assert_eq!(a.gauges.get("g"), Some(&1.5));
    }

    #[test]
    fn digest_distinguishes_metric_names() {
        let mut a = MetricsRegistry::new();
        a.inc("x");
        let mut b = MetricsRegistry::new();
        b.inc("y");
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn resident_shards_stay_out_of_the_digest() {
        let mut a = MetricsRegistry::new();
        a.set_gauge("g", 1.0);
        let plain = a.digest();
        a.set_gauge(crate::obs::names::RESIDENT_SHARDS, 7.0);
        assert_eq!(a.digest(), plain);
        assert_eq!(a.gauges.get(crate::obs::names::RESIDENT_SHARDS), Some(&7.0));
    }

    #[test]
    #[should_panic(expected = "two different bucket layouts")]
    fn conflicting_bounds_rejected() {
        const OTHER: &[f64] = &[1.0, 2.0];
        let mut r = MetricsRegistry::new();
        r.observe("h", BOUNDS, 1.0);
        r.observe("h", OTHER, 1.0);
    }
}
