//! Spans recorded from outside the program, around the calls into a layer.
//!
//! A [`Recorder`] keeps spans (name, start, end, parent, run id) in memory;
//! the harness writes them to `benchmark/out/<workload>.trace.json` when the
//! traced run ends. [`TracedPolicy`] wraps the policy `build_policy` returns
//! and forwards **every** `ServerPolicy` method, so a traced run computes
//! exactly what a bare run computes (`--check` pins that for all seven
//! algorithms); [`TracedTrainer`] does the same for the remote
//! `CohortTrainer` on `wire_tcp`.

use crate::json::{obj, Json};
use seafl_core::checkpoint::{BinReader, BinWriter, CodecError};
use seafl_core::{
    Admission, CodecTransferStats, CohortTrainer, DispatchCtx, DrainCtx, ModelUpdate, NetIncident,
    RemoteJob, ServerPolicy, ServerView, TrainOutcome,
};
use seafl_sim::{Fleet, SimRng, SimRngState, TerminationReason};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which traced repetition of the process this span belongs to.
    pub run: u32,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

/// Shared, append-only span store. All hooks run on the engine thread; the
/// mutex is there because `ServerPolicy` is `Send` and its weighting hook
/// takes `&self`.
#[derive(Clone)]
pub struct Recorder {
    t0: Instant,
    inner: Arc<Mutex<Inner>>,
}

/// Closes its span on drop, so an early return or a panic in the wrapped
/// call still leaves a well-formed tree.
pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    id: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.rec.now_us();
        let mut inner = self.rec.lock();
        inner.spans[self.id].end_us = end;
        if let Some(pos) = inner.open.iter().rposition(|&i| i == self.id) {
            inner.open.truncate(pos);
        }
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { t0: Instant::now(), inner: Arc::new(Mutex::new(Inner::default())) }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // Spans are plain data, valid at every step: a panic elsewhere while
        // the lock was held must not hide the trace.
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Start the next traced repetition; returns its run id.
    pub fn next_run(&self) -> u32 {
        let mut inner = self.lock();
        inner.run += 1;
        inner.run
    }

    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        let start = self.now_us();
        let mut inner = self.lock();
        let id = inner.spans.len();
        let (parent, run) = (inner.open.last().copied(), inner.run);
        inner.spans.push(Span { name, start_us: start, end_us: start, parent, run });
        inner.open.push(id);
        SpanGuard { rec: self, id }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Durations (µs) of every closed span called `name` in run `run`.
    pub fn durations_us(&self, name: &str, run: u32) -> Vec<f64> {
        self.lock()
            .spans
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .map(Span::dur_us)
            .collect()
    }

    /// Per-name totals for one run: `(name, calls, total µs, self µs)`, where
    /// self time is a span's duration minus its children's.
    pub fn totals(&self, run: u32) -> Vec<(&'static str, u64, f64, f64)> {
        let inner = self.lock();
        let mut child_us = vec![0.0f64; inner.spans.len()];
        for s in &inner.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us();
            }
        }
        let mut rows: Vec<(&'static str, u64, f64, f64)> = Vec::new();
        for (i, s) in inner.spans.iter().enumerate().filter(|(_, s)| s.run == run) {
            let self_us = s.dur_us() - child_us[i];
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.dur_us();
                    r.3 += self_us;
                }
                None => rows.push((s.name, 1, s.dur_us(), self_us)),
            }
        }
        rows
    }

    /// The spans of one run as JSON (`parent` is an index into this array).
    pub fn to_json(&self, run: u32) -> Json {
        let inner = self.lock();
        let ids: Vec<usize> =
            inner.spans.iter().enumerate().filter(|(_, s)| s.run == run).map(|(i, _)| i).collect();
        let local = |global: usize| ids.binary_search(&global).ok();
        Json::Arr(
            ids.iter()
                .map(|&i| {
                    let s = &inner.spans[i];
                    obj([
                        ("name", Json::from(s.name)),
                        ("start_us", Json::Num(s.start_us)),
                        ("end_us", Json::Num(s.end_us)),
                        ("parent", s.parent.and_then(local).map_or(Json::Null, Json::from)),
                        ("run", Json::from(s.run as u64)),
                    ])
                })
                .collect(),
        )
    }
}

/// A `ServerPolicy` that times every hook of the policy it wraps.
pub struct TracedPolicy {
    inner: Box<dyn ServerPolicy>,
    rec: Recorder,
}

impl TracedPolicy {
    pub fn new(inner: Box<dyn ServerPolicy>, rec: Recorder) -> Self {
        TracedPolicy { inner, rec }
    }
}

impl ServerPolicy for TracedPolicy {
    // The five configuration getters are forwarded untimed: they return a
    // constant, and the engine calls some of them once per event.
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn concurrency(&self) -> usize {
        self.inner.concurrency()
    }
    fn buffer_k(&self) -> usize {
        self.inner.buffer_k()
    }
    fn lockstep(&self) -> bool {
        self.inner.lockstep()
    }
    fn keep_epoch_snapshots(&self) -> bool {
        self.inner.keep_epoch_snapshots()
    }
    fn aggregates_by_weights(&self) -> bool {
        self.inner.aggregates_by_weights()
    }

    fn select_cohort(
        &mut self,
        ctx: &DispatchCtx,
        idle: &[usize],
        fleet: &Fleet,
        rng: &mut SimRng,
    ) -> Vec<usize> {
        let _span = self.rec.enter("policy.select_cohort");
        self.inner.select_cohort(ctx, idle, fleet, rng)
    }

    fn on_update_received(&mut self, update: &ModelUpdate, round: u64) -> Admission {
        let _span = self.rec.enter("policy.on_update_received");
        self.inner.on_update_received(update, round)
    }

    fn should_aggregate(&self, view: &ServerView) -> bool {
        let _span = self.rec.enter("policy.should_aggregate");
        self.inner.should_aggregate(view)
    }

    fn partition_stale(
        &self,
        updates: Vec<ModelUpdate>,
        round: u64,
    ) -> (Vec<ModelUpdate>, Vec<ModelUpdate>) {
        let _span = self.rec.enter("policy.partition_stale");
        self.inner.partition_stale(updates, round)
    }

    fn weights_for_buffer(&self, updates: &[ModelUpdate], global: &[f32], round: u64) -> Vec<f32> {
        let _span = self.rec.enter("policy.weights_for_buffer");
        self.inner.weights_for_buffer(updates, global, round)
    }

    fn mix_into_global(&self, global: &[f32], avg: &[f32]) -> Vec<f32> {
        let _span = self.rec.enter("policy.mix_into_global");
        self.inner.mix_into_global(global, avg)
    }

    fn aggregate(&mut self, global: &[f32], updates: &[ModelUpdate], round: u64) -> Vec<f32> {
        let _span = self.rec.enter("policy.aggregate");
        self.inner.aggregate(global, updates, round)
    }

    fn clients_to_notify(&self, view: &ServerView) -> Vec<usize> {
        let _span = self.rec.enter("policy.clients_to_notify");
        self.inner.clients_to_notify(view)
    }

    fn drained_termination(&self, ctx: &DrainCtx) -> Option<TerminationReason> {
        self.inner.drained_termination(ctx)
    }

    fn encode_state(&self, w: &mut BinWriter) {
        let _span = self.rec.enter("policy.encode_state");
        self.inner.encode_state(w)
    }

    fn decode_state(&mut self, r: &mut BinReader) -> Result<(), CodecError> {
        self.inner.decode_state(r)
    }
}

/// A `CohortTrainer` that times every cohort of the trainer it wraps: one
/// `net.train_cohort` span is one assign→outcome round trip of a whole
/// cohort over the wire.
pub struct TracedTrainer {
    inner: Box<dyn CohortTrainer>,
    rec: Recorder,
}

impl TracedTrainer {
    pub fn new(inner: Box<dyn CohortTrainer>, rec: Recorder) -> Self {
        TracedTrainer { inner, rec }
    }
}

impl CohortTrainer for TracedTrainer {
    fn train_cohort(
        &mut self,
        global: &[f32],
        jobs: &[RemoteJob],
    ) -> Vec<Option<(TrainOutcome, SimRngState)>> {
        let _span = self.rec.enter("net.train_cohort");
        self.inner.train_cohort(global, jobs)
    }

    fn drain_incidents(&mut self) -> Vec<NetIncident> {
        self.inner.drain_incidents()
    }

    fn drain_codec_stats(&mut self) -> CodecTransferStats {
        self.inner.drain_codec_stats()
    }

    fn shutdown(&mut self) {
        let _span = self.rec.enter("net.shutdown");
        self.inner.shutdown()
    }
}
