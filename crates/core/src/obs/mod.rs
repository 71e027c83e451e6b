//! Deterministic observability: metrics registry, phase profiling and
//! streaming JSONL export.
//!
//! The subsystem answers the questions the accuracy curves can't — *where
//! does time go, how stale are the updates a policy aggregates, how do the
//! buffer and the aggregation weights behave* — without perturbing the
//! simulation. Three rules make that safe:
//!
//! 1. **Nothing observable feeds back.** The engine reads no state from
//!    `Obs`; with `obs` on or off, every model/trace digest is
//!    bit-identical (pinned in `tests/obs.rs`).
//! 2. **Digests cover only deterministic state.** The registry
//!    ([`MetricsRegistry::digest`]) holds counters, gauges and fixed-bucket
//!    histograms of *simulated* quantities. Real-time phase spans
//!    (`PhaseTable`) are kept beside it and never hashed or exported to
//!    JSONL — they appear only in [`ObsSummary`] / `*_runs.json`.
//! 3. **Off means free.** With [`ObsMode::Off`] every hook is a branch on
//!    a two-variant enum; no allocation, no clock reads, no I/O. The JSONL
//!    emit hooks take closures that are never evaluated unless a stream is
//!    attached.
//!
//! The JSONL schema (one record per line, `"v": 1`) is rendered by
//! [`export`] and documented field-by-field in `OBSERVABILITY.md`.
//!
//! # Examples
//!
//! ```
//! use seafl_core::obs::{bounds, names, MetricsRegistry};
//!
//! let mut reg = MetricsRegistry::new();
//! reg.inc(names::UPDATES_RECEIVED);
//! reg.observe(names::STALENESS_ROUNDS, bounds::STALENESS_ROUNDS, 2.0);
//! assert_eq!(reg.counter(names::UPDATES_RECEIVED), 1);
//! ```

pub mod export;
mod phase;
mod registry;

pub use phase::PhaseSummary;
pub(crate) use phase::{Phase, PhaseTable};
pub use registry::{HistogramSummary, MetricsRegistry};

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::time::Instant;

/// How much the engine records (see [`ObsConfig`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ObsMode {
    /// Record nothing. Hooks are branch-only; `RunResult::obs` is empty.
    Off,
    /// Maintain the in-memory registry and phase table and return them in
    /// `RunResult::obs`; no per-event I/O. The default.
    #[default]
    Summary,
    /// Everything `Summary` does, plus stream one JSONL record per
    /// event/span to [`ObsConfig::jsonl_path`].
    Full,
}

/// Observability knobs on `ExperimentConfig`.
///
/// Excluded from `ExperimentConfig::state_hash` and from checkpoints:
/// changing how a run is observed never changes what it computes, and a
/// resumed run re-opens its own stream (`"resumed": true` in the meta
/// record).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsConfig {
    /// Recording level; [`ObsMode::Summary`] by default.
    pub mode: ObsMode,
    /// JSONL output path, required by — and only meaningful with —
    /// [`ObsMode::Full`]. Parent directories are created on demand.
    pub jsonl_path: Option<PathBuf>,
}

impl ObsConfig {
    /// Convenience: [`ObsMode::Full`] streaming to `path`.
    pub fn full(path: impl Into<PathBuf>) -> Self {
        ObsConfig { mode: ObsMode::Full, jsonl_path: Some(path.into()) }
    }

    /// Convenience: [`ObsMode::Off`].
    pub fn off() -> Self {
        ObsConfig { mode: ObsMode::Off, jsonl_path: None }
    }

    /// Panic on inconsistent knobs (called from `ExperimentConfig::validate`).
    pub(crate) fn validate(&self) {
        if self.mode == ObsMode::Full {
            assert!(self.jsonl_path.is_some(), "config: ObsMode::Full requires obs.jsonl_path");
        }
        if self.jsonl_path.is_some() {
            assert!(self.mode == ObsMode::Full, "config: obs.jsonl_path requires ObsMode::Full");
        }
    }
}

/// Canonical metric names. One name, one meaning, one bucket layout —
/// catalogued with units and emission points in `OBSERVABILITY.md`.
pub mod names {
    /// Uploads that survived transit and reached the server.
    pub const UPDATES_RECEIVED: &str = "updates_received";
    /// Received updates the policy admitted into the buffer.
    pub const UPDATES_ADMITTED: &str = "updates_admitted";
    /// Received updates the policy dropped at arrival.
    pub const UPDATES_DROPPED_ARRIVAL: &str = "updates_dropped_arrival";
    /// Buffered updates discarded by the staleness cutoff at drain time.
    pub const UPDATES_DROPPED_STALE: &str = "updates_dropped_stale";
    /// Admitted updates trained for fewer than the configured epochs
    /// (SEAFL² partial / NotifyPartial uploads).
    pub(crate) const UPDATES_PARTIAL: &str = "updates_partial";
    /// Uploads discarded because a newer upload from the same client was
    /// already processed (post-timeout stragglers).
    pub(crate) const UPDATES_SUPERSEDED: &str = "updates_superseded";
    /// Updates rejected by the sanitizer for non-finite parameters.
    pub(crate) const UPDATES_REJECTED_NONFINITE: &str = "updates_rejected_nonfinite";
    /// Updates rejected by the sanitizer for excessive parameter norm.
    pub(crate) const UPDATES_REJECTED_NORM: &str = "updates_rejected_norm";
    /// Updates screened out by the Byzantine-robust aggregation layer
    /// (e.g. Krum's pairwise-distance selection).
    pub(crate) const UPDATES_SCREENED_ROBUST: &str = "updates_screened_robust";
    /// Updates whose distance-to-global the robust layer clipped
    /// (`NormClip`); the update still aggregates, shortened.
    pub(crate) const UPDATES_CLIPPED_ROBUST: &str = "updates_clipped_robust";
    /// Uploads tampered with by adversarial devices (attack injection).
    pub(crate) const UPDATES_ATTACKED: &str = "updates_attacked";
    /// Uploads lost in transit (fault injection).
    pub(crate) const UPLOAD_FAILURES: &str = "upload_failures";
    /// Retries scheduled after transit losses.
    pub(crate) const UPLOAD_RETRIES: &str = "upload_retries";
    /// Training sessions dispatched to clients.
    pub(crate) const SESSIONS_DISPATCHED: &str = "sessions_dispatched";
    /// Sessions abandoned by the server-side timeout.
    pub(crate) const SESSION_TIMEOUTS: &str = "session_timeouts";
    /// Clients quarantined after repeated timeouts.
    pub(crate) const CLIENTS_QUARANTINED: &str = "clients_quarantined";
    /// Simulated device crashes.
    pub(crate) const DEVICE_CRASHES: &str = "device_crashes";
    /// Aggregations applied to the global model (= rounds completed).
    pub const AGGREGATIONS: &str = "aggregations";
    /// Server-side evaluations of the global model.
    pub(crate) const EVALS: &str = "evals";
    /// Checkpoints written to durable storage.
    pub const CHECKPOINTS_SAVED: &str = "checkpoints_saved";
    /// Version notifications sent to in-flight clients (SEAFL²).
    pub(crate) const NOTIFICATIONS_SENT: &str = "notifications_sent";
    /// Bytes sent server→client, modeled as dispatches × model size. The
    /// measured wire bytes, retransmits included, are in `seafl-server`'s
    /// report file.
    pub(crate) const NET_BYTES_SENT: &str = "net_bytes_sent";
    /// Bytes received client→server, modeled as updates × model size (the
    /// measured value is in `seafl-server`'s report file).
    pub(crate) const NET_BYTES_RECEIVED: &str = "net_bytes_received";
    /// Worker links resumed via the replay history (always 0 in simulation).
    pub(crate) const NET_RECONNECTS: &str = "net_reconnects";
    /// Workers quarantined by the transport idle timeout (always 0 in
    /// simulation; distinct from `clients_quarantined`, which counts
    /// simulated devices).
    pub(crate) const NET_WORKERS_QUARANTINED: &str = "net_workers_quarantined";
    /// Raw f32 bytes of every update snapshot passing the codec seam
    /// (4 bytes per coordinate; counted whether or not a codec is armed).
    pub(crate) const CODEC_BYTES_RAW: &str = "codec_bytes_raw";
    /// Bytes those snapshots occupy after codec encoding. Equal to
    /// `codec_bytes_raw` under the default identity codec; the run's
    /// compression ratio is `codec_bytes_encoded / codec_bytes_raw`.
    pub(crate) const CODEC_BYTES_ENCODED: &str = "codec_bytes_encoded";

    /// Gauge: sessions in flight, sampled at each aggregation.
    pub(crate) const IN_FLIGHT: &str = "in_flight";

    /// Gauge: pending events on the virtual clock, sampled at each
    /// aggregation.
    pub(crate) const QUEUE_DEPTH: &str = "queue_depth";

    /// Gauge: fleet-table rows that ever left their default state (the
    /// sparse working set a checkpoint serializes), sampled at each
    /// aggregation.
    pub(crate) const RESIDENT_RECORDS: &str = "resident_records";

    /// Gauge: client shards made so far in this process, sampled at each
    /// aggregation. It counts where the images live, not what the run
    /// simulated: a wire server's remote jobs and a resumed run's earlier
    /// rounds made theirs elsewhere. So it stays out of the registry
    /// digest.
    pub(crate) const RESIDENT_SHARDS: &str = "resident_shards";

    /// Histogram: staleness (rounds) of each *aggregated* update, measured
    /// at aggregation time.
    pub const STALENESS_ROUNDS: &str = "staleness_rounds";
    /// Histogram: simulated seconds from dispatch to scheduled upload, per
    /// session.
    pub(crate) const SESSION_SIM_SECS: &str = "session_sim_secs";
    /// Histogram: simulated seconds between consecutive aggregations.
    pub(crate) const ROUND_INTERVAL_SIM_SECS: &str = "round_interval_sim_secs";
    /// Histogram: clients selected per dispatch.
    pub(crate) const COHORT_SIZE: &str = "cohort_size";
    /// Histogram: buffered updates at each aggregation trigger.
    pub(crate) const BUFFER_OCCUPANCY: &str = "buffer_occupancy";
    /// Histogram: Shannon entropy (nats) of each round's aggregation
    /// weights (`super::weight_entropy`).
    pub const WEIGHT_ENTROPY_NATS: &str = "weight_entropy_nats";
}

/// Fixed bucket layouts for the histogram catalog. Fixed — not adaptive —
/// so bucket counts compare across runs, policies and schema versions.
pub mod bounds {
    /// Staleness in rounds; dense near zero where admission cutoffs bite.
    pub const STALENESS_ROUNDS: &[f64] =
        &[0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0];
    /// Simulated seconds, log-ish spacing (session lengths and round
    /// intervals share it so the two distributions compare directly).
    pub(crate) const SIM_SECS: &[f64] =
        &[1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0];
    /// Cohort / buffer sizes, powers of two.
    pub(crate) const COHORT: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
    /// Weight entropy in nats; ln(64) ≈ 4.16 caps realistic buffer sizes.
    pub(crate) const ENTROPY_NATS: &[f64] =
        &[0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5];
}

/// Shannon entropy (nats) of a weight vector, computed in `f64` over the
/// normalized weights; zero-or-negative entries are skipped. Uniform
/// weights over `n` updates give `ln(n)`; a single dominant weight gives
/// ~0. Returns 0.0 when the weights don't sum to a positive value.
pub(crate) fn weight_entropy(weights: &[f32]) -> f64 {
    let total: f64 = weights.iter().filter(|&&w| w > 0.0).map(|&w| w as f64).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let mut h = 0.0f64;
    for &w in weights {
        if w > 0.0 {
            let p = w as f64 / total;
            h -= p * p.ln();
        }
    }
    h
}

/// The engine-side observability front: owns the registry, the phase table
/// and (in [`ObsMode::Full`]) the JSONL stream.
///
/// Lives in the event loop's `State` but is **not** part of the simulation:
/// it is never checkpointed, and a resumed run starts a fresh `Obs` (its
/// meta record carries `"resumed": true`). Every recording method is a
/// no-op when the mode is [`ObsMode::Off`].
#[derive(Debug)]
pub(crate) struct Obs {
    mode: ObsMode,
    registry: MetricsRegistry,
    phases: PhaseTable,
    writer: Option<BufWriter<File>>,
    last_aggregate_secs: Option<f64>,
    started: Option<Instant>,
}

impl Obs {
    /// A disabled instance (placeholder before `drive` installs the real
    /// one).
    pub(crate) fn off() -> Self {
        Obs {
            mode: ObsMode::Off,
            registry: MetricsRegistry::new(),
            phases: PhaseTable::default(),
            writer: None,
            last_aggregate_secs: None,
            started: None,
        }
    }

    /// Build from config. Opens (and truncates) the JSONL stream for
    /// [`ObsMode::Full`], creating parent directories; panics with the
    /// offending path on I/O failure — an unwritable stream the run was
    /// explicitly asked for is not a condition to silently drop.
    pub(crate) fn new(cfg: &ObsConfig) -> Self {
        cfg.validate();
        if cfg.mode == ObsMode::Off {
            return Obs::off();
        }
        let writer = cfg.jsonl_path.as_ref().map(|path| {
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)
                        .unwrap_or_else(|e| panic!("obs: cannot create {}: {e}", parent.display()));
                }
            }
            BufWriter::new(
                File::create(path)
                    .unwrap_or_else(|e| panic!("obs: cannot create {}: {e}", path.display())),
            )
        });
        Obs {
            mode: cfg.mode,
            registry: MetricsRegistry::new(),
            phases: PhaseTable::default(),
            writer,
            last_aggregate_secs: None,
            started: Some(Instant::now()),
        }
    }

    /// True unless the mode is [`ObsMode::Off`].
    pub(crate) fn enabled(&self) -> bool {
        self.mode != ObsMode::Off
    }

    /// Increment counter `name` (no-op when disabled).
    pub(crate) fn count(&mut self, name: &'static str) {
        if self.enabled() {
            self.registry.inc(name);
        }
    }

    /// Observe `v` into histogram `name` (no-op when disabled).
    pub(crate) fn observe(&mut self, name: &'static str, bounds: &'static [f64], v: f64) {
        if self.enabled() {
            self.registry.observe(name, bounds, v);
        }
    }

    /// Set gauge `name` (no-op when disabled).
    pub(crate) fn gauge(&mut self, name: &'static str, v: f64) {
        if self.enabled() {
            self.registry.set_gauge(name, v);
        }
    }

    /// Start a real-time span: `Some(now)` when enabled, `None` when off
    /// (so disabled runs never read the clock). Close with
    /// [`span_end`](Obs::span_end).
    pub(crate) fn span_start(&self) -> Option<Instant> {
        if self.enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Close a span opened by [`span_start`](Obs::span_start), folding the
    /// elapsed real time into `phase`'s totals.
    pub(crate) fn span_end(&mut self, phase: Phase, start: Option<Instant>) {
        if let Some(start) = start {
            self.phases.record(phase, start.elapsed());
        }
    }

    /// Write one JSONL record. The closure is evaluated only when a stream
    /// is attached, so record rendering costs nothing in `Off`/`Summary`.
    pub(crate) fn emit(&mut self, record: impl FnOnce() -> String) {
        if let Some(w) = self.writer.as_mut() {
            let line = record();
            writeln!(w, "{line}").expect("obs: JSONL write failed");
        }
    }

    /// Note an aggregation at simulated time `now_secs`: observes the gap
    /// since the previous aggregation into
    /// [`names::ROUND_INTERVAL_SIM_SECS`] (first aggregation sets the
    /// baseline only).
    pub(crate) fn round_interval(&mut self, now_secs: f64) {
        if !self.enabled() {
            return;
        }
        if let Some(last) = self.last_aggregate_secs {
            self.registry.observe(
                names::ROUND_INTERVAL_SIM_SECS,
                bounds::SIM_SECS,
                now_secs - last,
            );
        }
        self.last_aggregate_secs = Some(now_secs);
    }

    /// Finish the run: add the `ledger` counters, emit the JSONL summary
    /// record, flush the stream and snapshot everything into an
    /// [`ObsSummary`]. `trace_counts` is the per-kind tally from
    /// `TraceLog::kind_counts`; `ledger` holds the counters the run's
    /// result already records. Like a live counter, which exists only once
    /// it fires, a ledger counter is added only when nonzero.
    pub(crate) fn finish(
        &mut self,
        t_end: f64,
        rounds: u64,
        trace_counts: &BTreeMap<&'static str, u64>,
        ledger: &[(&'static str, u64)],
    ) -> ObsSummary {
        if !self.enabled() {
            return ObsSummary::default();
        }
        for &(name, v) in ledger.iter().filter(|&&(_, v)| v != 0) {
            self.registry.add(name, v);
        }
        let record = export::summary_record(t_end, rounds, trace_counts, &self.registry);
        self.emit(move || record);
        if let Some(w) = self.writer.as_mut() {
            w.flush().expect("obs: JSONL flush failed");
        }
        ObsSummary {
            enabled: true,
            registry_digest: format!("{:016x}", self.registry.digest()),
            wall_secs: self.started.map(|s| s.elapsed().as_secs_f64()).unwrap_or(0.0),
            phases: self.phases.summaries(),
            counters: self.registry.counters().map(|(n, v)| (n.to_string(), v)).collect(),
            gauges: self.registry.gauges().map(|(n, v)| (n.to_string(), v)).collect(),
            histograms: self
                .registry
                .histograms()
                .map(|(n, h)| (n.to_string(), h.summary()))
                .collect(),
            trace_events: trace_counts.iter().map(|(&k, &v)| (k.to_string(), v)).collect(),
        }
    }
}

/// Terminal observability snapshot, returned in `RunResult::obs` and
/// serialized into `*_runs.json` by the bench harness.
///
/// Everything here except `wall_secs` and `phases[].secs` is derived from
/// deterministic simulation state; `registry_digest` equal across two runs
/// means they observed the bit-identical metric stream.
#[derive(Clone, Debug, Default)]
pub struct ObsSummary {
    /// False when the run executed with [`ObsMode::Off`] (all other fields
    /// empty).
    pub enabled: bool,
    /// [`MetricsRegistry::digest`] as 16 hex digits.
    pub registry_digest: String,
    /// Real seconds from engine start to termination.
    pub wall_secs: f64,
    /// Per-phase real-time totals, in `Phase::ALL` order.
    pub phases: Vec<PhaseSummary>,
    /// Final counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Final gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Final histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// `TraceLog` event tallies by kind (the sim → obs bridge).
    pub trace_events: BTreeMap<String, u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_uniform_is_ln_n() {
        assert_eq!(weight_entropy(&[]), 0.0);
        assert_eq!(weight_entropy(&[1.0]), 0.0);
        assert_eq!(weight_entropy(&[0.0, 0.0]), 0.0);
        let h = weight_entropy(&[0.25; 4]);
        assert!((h - (4.0f64).ln()).abs() < 1e-12, "{h}");
        // Un-normalized weights: entropy is scale-invariant.
        let h2 = weight_entropy(&[2.0; 4]);
        assert!((h - h2).abs() < 1e-12);
        // Skewed weights have lower entropy than uniform.
        assert!(weight_entropy(&[0.97, 0.01, 0.01, 0.01]) < h);
    }

    #[test]
    fn config_default_is_summary_only() {
        let cfg = ObsConfig::default();
        assert_eq!(cfg.mode, ObsMode::Summary);
        assert!(cfg.jsonl_path.is_none());
        cfg.validate();
        ObsConfig::off().validate();
        ObsConfig::full("/tmp/x.jsonl").validate();
    }

    #[test]
    #[should_panic(expected = "Full requires obs.jsonl_path")]
    fn full_without_path_rejected() {
        ObsConfig { mode: ObsMode::Full, jsonl_path: None }.validate();
    }

    #[test]
    #[should_panic(expected = "jsonl_path requires ObsMode::Full")]
    fn path_without_full_rejected() {
        ObsConfig { mode: ObsMode::Summary, jsonl_path: Some("x.jsonl".into()) }.validate();
    }

    #[test]
    fn off_records_nothing_and_reads_no_clock() {
        let mut obs = Obs::new(&ObsConfig::off());
        assert!(!obs.enabled());
        assert!(obs.writer.is_none());
        obs.count(names::EVALS);
        obs.observe(names::COHORT_SIZE, bounds::COHORT, 5.0);
        obs.gauge(names::IN_FLIGHT, 3.0);
        obs.round_interval(10.0);
        let span = obs.span_start();
        assert!(span.is_none());
        obs.span_end(Phase::Train, span);
        let summary = obs.finish(100.0, 3, &BTreeMap::new(), &[(names::AGGREGATIONS, 3)]);
        assert!(!summary.enabled);
        assert!(summary.counters.is_empty());
    }

    #[test]
    fn summary_mode_collects_without_streaming() {
        let mut obs = Obs::new(&ObsConfig::default());
        assert!(obs.enabled());
        assert!(obs.writer.is_none());
        obs.count(names::CHECKPOINTS_SAVED);
        obs.round_interval(10.0);
        obs.round_interval(25.0);
        obs.round_interval(100.0);
        let span = obs.span_start();
        obs.span_end(Phase::Eval, span);
        // Emit closures must never run without a stream.
        obs.emit(|| unreachable!("no stream attached"));
        let mut traces = BTreeMap::new();
        traces.insert("aggregate", 3u64);
        let s = obs.finish(100.0, 3, &traces, &[(names::AGGREGATIONS, 3), (names::EVALS, 0)]);
        assert!(s.enabled);
        assert_eq!(s.counters[names::CHECKPOINTS_SAVED], 1);
        assert_eq!(s.counters[names::AGGREGATIONS], 3);
        assert!(!s.counters.contains_key(names::EVALS), "zero ledger counters stay absent");
        let intervals = &s.histograms[names::ROUND_INTERVAL_SIM_SECS];
        assert_eq!(intervals.count, 2); // first call only sets the baseline
        assert_eq!(intervals.sum, 90.0);
        assert_eq!(s.trace_events["aggregate"], 3);
        assert_eq!(s.registry_digest.len(), 16);
        assert_eq!(s.phases.len(), Phase::ALL.len());
    }
}
