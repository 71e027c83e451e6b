//! Engine phase accounting: where a run's *real* (host) time goes.
//!
//! Real-time spans are measurement-only — they are recorded next to, never
//! inside, the deterministic simulation state, and they are excluded from
//! every digest ([`crate::obs::MetricsRegistry::digest`] covers counters
//! and histograms only). Simulated-time durations live in the registry's
//! histograms instead (`session_sim_secs`, `round_interval_sim_secs`).

use std::time::Duration;

/// The engine lifecycle phases timed by [`crate::obs::Obs`].
///
/// One variant per hook of the unified event loop: cohort selection
/// ([`Dispatch`](Phase::Dispatch)), trainer-pool execution
/// ([`Train`](Phase::Train)), the admission verdict
/// ([`Admission`](Phase::Admission)), the update sanitizer
/// ([`Sanitize`](Phase::Sanitize)), Byzantine-robust screening and
/// combination ([`Robust`](Phase::Robust)), aggregation-weight computation
/// ([`Weighting`](Phase::Weighting)), the whole aggregation
/// ([`Aggregate`](Phase::Aggregate), which contains Weighting and
/// [`Mix`](Phase::Mix)), model evaluation ([`Eval`](Phase::Eval)),
/// checkpoint writes ([`Checkpoint`](Phase::Checkpoint)) and update
/// compression at the codec seam ([`Codec`](Phase::Codec)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Cohort selection and dispatch bookkeeping (`refill`).
    Dispatch,
    /// Local training through the trainer pool (`train_cohort`).
    Train,
    /// The policy's admission verdict (`on_update_received`).
    Admission,
    /// Update sanitization in front of the aggregation.
    Sanitize,
    /// Byzantine-robust screening/clipping and (for rank-based rules) the
    /// robust combine step, between sanitization and weighting. Never
    /// entered under `RobustAggregator::Mean` — the pass-through default
    /// adds no work to measure.
    Robust,
    /// Aggregation-weight computation (`weights_for_buffer`).
    Weighting,
    /// The full aggregation (weights + average + mix, or the policy's own
    /// `aggregate` override).
    Aggregate,
    /// Folding the weighted average into the global model
    /// (`mix_into_global`).
    Mix,
    /// Server-side model evaluation.
    Eval,
    /// Durable checkpoint writes.
    Checkpoint,
    /// Update compression at the codec seam (encode + projection decode).
    /// Never entered under the default identity codec — the fast path adds
    /// no work to measure. Appended last so existing phase indices stay
    /// stable.
    Codec,
}

impl Phase {
    /// Every phase, in reporting order.
    pub(crate) const ALL: [Phase; 11] = [
        Phase::Dispatch,
        Phase::Train,
        Phase::Admission,
        Phase::Sanitize,
        Phase::Robust,
        Phase::Weighting,
        Phase::Aggregate,
        Phase::Mix,
        Phase::Eval,
        Phase::Checkpoint,
        Phase::Codec,
    ];

    /// Stable snake_case label used in `ObsSummary`, `*_runs.json` and the
    /// report tables.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Phase::Dispatch => "dispatch",
            Phase::Train => "train",
            Phase::Admission => "admission",
            Phase::Sanitize => "sanitize",
            Phase::Robust => "robust",
            Phase::Weighting => "weighting",
            Phase::Aggregate => "aggregate",
            Phase::Mix => "mix",
            Phase::Eval => "eval",
            Phase::Checkpoint => "checkpoint",
            Phase::Codec => "codec",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// Accumulated real-time spans per [`Phase`].
#[derive(Clone, Debug, Default)]
pub(crate) struct PhaseTable {
    nanos: [u64; Phase::ALL.len()],
    calls: [u64; Phase::ALL.len()],
}

impl PhaseTable {
    /// Fold one measured span into `phase`'s totals.
    pub(crate) fn record(&mut self, phase: Phase, elapsed: Duration) {
        self.nanos[phase.idx()] += u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.calls[phase.idx()] += 1;
    }

    /// Accumulated seconds spent in `phase`.
    pub(crate) fn secs(&self, phase: Phase) -> f64 {
        self.nanos[phase.idx()] as f64 / 1e9
    }

    /// Spans recorded for `phase`.
    pub(crate) fn calls(&self, phase: Phase) -> u64 {
        self.calls[phase.idx()]
    }

    /// Every phase's totals in reporting order (phases never entered
    /// included, with zero calls — the schema is fixed per run).
    pub(crate) fn summaries(&self) -> Vec<PhaseSummary> {
        Phase::ALL
            .iter()
            .map(|&p| PhaseSummary {
                name: p.name().to_string(),
                calls: self.calls(p),
                secs: self.secs(p),
            })
            .collect()
    }
}

/// One phase's accumulated real time, as exported in
/// [`crate::obs::ObsSummary`] (and from there into `*_runs.json`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseSummary {
    /// `Phase::name` label.
    pub name: String,
    /// Spans recorded.
    pub calls: u64,
    /// Accumulated seconds.
    pub secs: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_snake_case() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert!(names.iter().all(|n| n.chars().all(|c| c.is_ascii_lowercase())));
    }

    #[test]
    fn record_accumulates() {
        let mut t = PhaseTable::default();
        t.record(Phase::Train, Duration::from_millis(250));
        t.record(Phase::Train, Duration::from_millis(750));
        t.record(Phase::Eval, Duration::from_nanos(1));
        assert_eq!(t.calls(Phase::Train), 2);
        assert!((t.secs(Phase::Train) - 1.0).abs() < 1e-9);
        assert_eq!(t.calls(Phase::Dispatch), 0);
        assert_eq!(t.secs(Phase::Dispatch), 0.0);
        let s = t.summaries();
        assert_eq!(s.len(), Phase::ALL.len());
        assert_eq!(s[1].name, "train");
        assert_eq!(s[1].calls, 2);
    }
}
