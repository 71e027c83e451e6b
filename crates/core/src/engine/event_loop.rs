//! The unified event-driven engine behind every algorithm.
//!
//! One loop owns the virtual clock, event queue, client sessions,
//! trainer-pool dispatch, fault handling, update sanitization, the
//! gradient-norm probe and checkpointing; everything algorithm-specific is
//! delegated to a [`ServerPolicy`] (see `crate::policy` and DESIGN.md §8).
//!
//! ## Protocol
//!
//! The engine keeps the policy's cohort training at all times. A device
//! that finishes its local epochs uploads its update; the server buffers
//! admitted updates ([`ServerPolicy::on_update_received`]) and aggregates
//! when the policy's trigger fires ([`ServerPolicy::should_aggregate`]):
//!
//! * FedBuff / FedAsync / SEAFL-β=∞ — aggregate as soon as K updates are in.
//! * SEAFL ([`StalenessPolicy::WaitForStale`]) — defer while any in-flight
//!   device's update would exceed β after this aggregation, so no
//!   aggregated update ever has staleness > β.
//! * SEAFL² ([`StalenessPolicy::NotifyPartial`]) — after aggregating,
//!   notify over-limit devices ([`ServerPolicy::clients_to_notify`]); a
//!   notified device uploads at the end of its *current* epoch (a partial
//!   update) instead of finishing all E epochs.
//! * SAFA-style drop — discard over-limit updates at aggregation time
//!   ([`ServerPolicy::partition_stale`]).
//! * FedAvg — dispatch a full cohort only when nothing is in flight or
//!   buffered, and aggregate once every session of it has resolved: the
//!   round lasts as long as its slowest member.
//!
//! After aggregating, the server evaluates (every `eval_every` rounds),
//! hands the consumed devices back to the idle pool and refills the training
//! set under the policy's [`ServerPolicy::select_cohort`] — the
//! device-turnover behaviour the paper leans on in its CINIC-10 discussion.
//!
//! ## Faults and resilience
//!
//! The engine consults the experiment's [`seafl_sim::FaultPlan`] (off by
//! default) and the server/client knobs in
//! [`crate::config::ResilienceConfig`]:
//!
//! * **Crashes** — a device whose upload would complete after its sampled
//!   crash instant never uploads; the crash is materialized on the clock as
//!   a trace event. Without a session timeout, a crashed in-flight device
//!   stalls `WaitForStale` forever (the run then ends
//!   [`TerminationReason::Starved`]); with `session_timeout` set, the
//!   server reclaims the session, restoring liveness.
//! * **Transient upload loss** — each arrival may be dropped with the
//!   plan's per-attempt probability; the client retries with capped
//!   exponential backoff up to three times, then abandons the session.
//! * **Straggler spikes** — temporary per-device compute slowdowns stretch
//!   the session's epoch schedule.
//! * **Corrupted updates** — Byzantine/buggy devices corrupt their upload;
//!   the sanitizer (`crate::sanitize`) rejects non-finite or
//!   norm-exploded updates in front of the aggregation.
//! * **Timeout quarantine** — a client whose sessions time out
//!   `quarantine_after` times in a row is excluded from selection for the
//!   rest of the run.
//!
//! With faults disabled and default resilience settings none of these code
//! paths draw randomness or alter arithmetic, so runs are bit-identical to
//! the fault-free engine.
//!
//! ## Simplification vs. Algorithm 2
//!
//! Algorithm 2 lets a notified device "continue training remaining epochs"
//! after its partial upload. In the protocol here a device whose update was
//! consumed immediately receives the fresh global model and restarts, which
//! in practice supersedes the continuation on the very next aggregation;
//! we therefore stop the device at its partial upload and return it to the
//! idle pool (documented in DESIGN.md §2).

use crate::buffer::UpdateBuffer;
use crate::checkpoint::{
    BinReader, BinWriter, CheckpointError, CheckpointStore, CodecError, ENGINE_UNIFIED,
};
use crate::client::TrainOutcome;
use crate::codec::{build_codec, FeedbackStore, UpdateCodec};
use crate::config::ExperimentConfig;
use crate::engine::setup::Environment;
use crate::engine::RunResult;
use crate::fleet::{ClientPhase, FleetTable, Session};
use crate::obs::{bounds, export, names, Obs, ObsSummary, Phase};
#[allow(unused_imports)] // doc links
use crate::policy::StalenessPolicy;
use crate::policy::{weighted_average, Admission, DispatchCtx, InFlight, ServerPolicy, ServerView};
use crate::robust::RobustLayer;
use crate::sanitize;
use crate::trainer::{CodecTransferStats, NetIncident};
use crate::update::ModelUpdate;
use seafl_sim::rng::{stream_rng, streams};
use seafl_sim::{
    AttackPlan, ClientId, EventQueue, FaultPlan, LazyStreams, RejectCause, SimRng, SimTime,
    TerminationReason, TraceEvent, TraceLog,
};
use std::collections::BTreeMap;

/// Upload retries a client attempts after a transient transit loss before
/// giving the session up.
const MAX_UPLOAD_RETRIES: u32 = 3;
/// Upper bound on a single upload-retry backoff delay, seconds.
pub(crate) const RETRY_BACKOFF_CAP: f64 = 60.0;

/// Events on the virtual clock.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Upload arrival attempt. `generation` invalidates superseded uploads
    /// (a notification reschedules the upload; the original event is
    /// ignored when popped); `attempt` counts transit retries.
    Upload { client: ClientId, generation: u64, attempt: u32 },
    /// Server-side session timeout: if the session dispatched under
    /// `generation` is still in flight when this pops, it is reclaimed.
    Timeout { client: ClientId, generation: u64 },
    /// A device's permanent crash instant (fault injection), materialized
    /// on the clock so the trace records it.
    Crash { client: ClientId },
}

impl Ev {
    fn encode(&self, w: &mut BinWriter) {
        match *self {
            Ev::Upload { client, generation, attempt } => {
                w.u8(0);
                w.client_id(client);
                w.u64(generation);
                w.u32(attempt);
            }
            Ev::Timeout { client, generation } => {
                w.u8(1);
                w.client_id(client);
                w.u64(generation);
            }
            Ev::Crash { client } => {
                w.u8(2);
                w.client_id(client);
            }
        }
    }

    /// Read one event of an `n`-client experiment.
    fn decode(r: &mut BinReader<'_>, n: usize) -> Result<Self, CodecError> {
        let tag = r.u8()?;
        let client = r.client_id()?;
        if client.index() >= n {
            return Err(CodecError(format!(
                "clock event for client {client}, this experiment has {n}"
            )));
        }
        Ok(match tag {
            0 => Ev::Upload { client, generation: r.u64()?, attempt: r.u32()? },
            1 => Ev::Timeout { client, generation: r.u64()? },
            2 => Ev::Crash { client },
            b => return Err(CodecError(format!("invalid clock event tag {b}"))),
        })
    }
}

/// Run the engine to termination under the given policy.
pub fn run_loop(
    cfg: &ExperimentConfig,
    env: &mut Environment,
    policy: Box<dyn ServerPolicy>,
) -> RunResult {
    drive(cfg, env, policy, None).unwrap_or_else(|e| panic!("engine: {e}"))
}

/// Run the protocol, optionally resuming from a decoded checkpoint payload,
/// writing periodic snapshots when the config enables them.
///
/// Snapshots are taken at round boundaries, immediately after an
/// aggregation: the buffer was just drained or left in a well-defined state,
/// every in-flight session's training outcome is precomputed, and the only
/// live state is the enumerable set captured by [`State::encode`] (plus the
/// policy's own opaque section). A run resumed from such a snapshot replays
/// the exact remaining event sequence of an uninterrupted run
/// (`tests/checkpoint_resume.rs` pins this bit-identically for every
/// algorithm).
pub(crate) fn drive(
    cfg: &ExperimentConfig,
    env: &mut Environment,
    policy: Box<dyn ServerPolicy>,
    resume: Option<&[u8]>,
) -> Result<RunResult, CheckpointError> {
    let store = CheckpointStore::from_cfg(cfg)?;
    let resuming = resume.is_some();
    let mut st = match resume {
        Some(payload) => State::decode(cfg, env, policy, payload)?,
        None => State::fresh(cfg, env, policy),
    };
    // The server-crash fault models the original process dying; a resumed
    // run is a restarted server, so `decode` cleared its crash round.
    st.crash_round = st.plan.server_crash_round();
    let config_hash = cfg.state_hash();

    // Observability is installed here, not in `fresh`/`decode`: it is pure
    // measurement, never part of the simulation state, and a resumed run
    // starts a fresh stream.
    st.obs = Obs::new(&cfg.obs);
    let algorithm = st.policy.name();
    st.obs.emit(move || {
        export::meta_record(algorithm, cfg.seed, config_hash, cfg.num_clients, resuming)
    });

    if !resuming {
        // Baseline evaluation at t = 0.
        let span = st.obs.span_start();
        let acc0 = env.evaluate(&st.global);
        st.obs.span_end(Phase::Eval, span);
        st.obs.emit(move || export::eval_record(0.0, 0, acc0));
        st.bytes_curve.push((st.codec_bytes_raw, st.codec_bytes_encoded));
        st.trace.push(SimTime::ZERO, TraceEvent::Eval { round: 0, accuracy: acc0 });

        // Kick off the initial cohort.
        st.refill(cfg, env, SimTime::ZERO);
    }

    let every = cfg.checkpoint_every.unwrap_or(1);
    let mut last_saved = st.round;
    // One payload buffer for every save of the run: steady-state snapshots
    // neither regrow nor page-fault it.
    let mut snapshot = Vec::new();

    let mut termination = None;
    while let Some((now, ev)) = st.queue.pop() {
        if st.crash_round.is_some_and(|cr| st.round >= cr) {
            termination = Some(TerminationReason::ServerCrash);
            break;
        }
        if now.as_secs() > cfg.max_sim_time {
            termination = Some(TerminationReason::MaxSimTime);
            break;
        }
        if st.round >= cfg.max_rounds {
            termination = Some(TerminationReason::MaxRounds);
            break;
        }
        if st.reached_target {
            termination = Some(TerminationReason::TargetAccuracy);
            break;
        }
        match ev {
            Ev::Upload { client, generation, attempt } => {
                st.on_upload(cfg, env, now, client, generation, attempt);
            }
            Ev::Timeout { client, generation } => {
                st.on_timeout(cfg, env, now, client, generation);
            }
            Ev::Crash { client } => st.trace.push(now, TraceEvent::Crash { id: client }),
        }
        st.try_aggregate(cfg, env, now);
        // Round-boundary snapshot. Never taken in the reached-target state:
        // that flag is not part of the snapshot (the next pop terminates the
        // run), so persisting such a round would let a resume run past the
        // point where the original stopped.
        if let Some(store) = &store {
            if !st.reached_target && st.round > last_saved && st.round.is_multiple_of(every) {
                let span = st.obs.span_start();
                snapshot = st.encode(env, snapshot);
                store.save(ENGINE_UNIFIED, config_hash, st.round, &snapshot)?;
                st.obs.span_end(Phase::Checkpoint, span);
                st.obs.count(names::CHECKPOINTS_SAVED);
                last_saved = st.round;
            }
        }
    }
    // The clock ran dry before any stop check fired.
    let termination = termination.unwrap_or(if st.reached_target {
        TerminationReason::TargetAccuracy
    } else if st.buffer.is_empty() {
        TerminationReason::QueueDrained
    } else {
        // The clock ran out of events while updates sat below the trigger:
        // the engine starved (e.g. remaining in-flight devices all crashed,
        // or a staleness wait could never be satisfied).
        TerminationReason::Starved
    });

    let end = st.queue.now();
    st.trace.push(end, TraceEvent::Terminated { reason: termination, buffered: st.buffer.len() });
    // The trace is the run's only event ledger: every counter an event
    // records is read off it here, when the run ends, instead of being
    // tallied (and checkpointed) a second time beside it.
    let rejected = |cause| {
        st.trace.count(|e| matches!(e, TraceEvent::Rejected { cause: c, .. } if *c == cause))
    };
    let (rejected_nonfinite, rejected_norm) =
        (rejected(RejectCause::NonFinite), rejected(RejectCause::NormExploded));
    let mut result = RunResult {
        algorithm: st.policy.name(),
        accuracy: st.trace.accuracy_series(),
        grad_norms: st.grad_norms,
        rounds: st.round,
        total_updates: st.trace.count(|e| matches!(e, TraceEvent::Upload { .. })),
        partial_updates: st.trace.count(
            |e| matches!(e, TraceEvent::Upload { epochs, .. } if *epochs < cfg.local_epochs),
        ),
        dropped_updates: st.trace.count(|e| matches!(e, TraceEvent::Drop { .. })),
        notifications: st.trace.count(|e| matches!(e, TraceEvent::Notify { .. })),
        termination,
        crashes: st.trace.count(|e| matches!(e, TraceEvent::Crash { .. })),
        upload_failures: st.trace.count(|e| matches!(e, TraceEvent::UploadFailed { .. })),
        retries: st.trace.count(|e| matches!(e, TraceEvent::Retry { .. })),
        timeouts: st.trace.count(|e| matches!(e, TraceEvent::Timeout { .. })),
        quarantined: st.trace.count(|e| matches!(e, TraceEvent::Quarantine { .. })),
        rejected_updates: rejected_nonfinite + rejected_norm,
        rejected_nonfinite,
        rejected_norm,
        screened_updates: rejected(RejectCause::RobustScreened),
        clipped_updates: st.clipped_updates,
        attacked_updates: st.trace.count(|e| matches!(e, TraceEvent::Attacked { .. })),
        attackers: st.attack.attackers(),
        screened_clients: st.trace.rejected_clients(RejectCause::RobustScreened),
        superseded_uploads: st.superseded_uploads,
        codec_bytes_raw: st.codec_bytes_raw,
        codec_bytes_encoded: st.codec_bytes_encoded,
        bytes_curve: st.bytes_curve,
        model_digest: seafl_sim::digest::digest_f32(&st.global),
        sim_time_end: end.as_secs(),
        obs: ObsSummary::default(),
        trace: st.trace,
    };
    let kinds = result.trace.kind_counts();
    let ledger = ledger_counters(&result, &kinds, env.model_bytes as u64);
    result.obs = st.obs.finish(end.as_secs(), result.rounds, &kinds, &ledger);
    Ok(result)
}

/// The obs counters that restate the run's ledger, read off the finished
/// result: they cover the whole run, the part before a resume included.
/// The byte counters are the modeled protocol traffic, one model download
/// per dispatched session and one upload per received update, on the wire
/// too: `seafl-server`'s report file has the measured bytes.
fn ledger_counters(
    r: &RunResult,
    kinds: &BTreeMap<&'static str, u64>,
    model_bytes: u64,
) -> [(&'static str, u64); 23] {
    let kind = |k| kinds.get(k).copied().unwrap_or(0);
    let n = |v: usize| v as u64;
    [
        (names::UPDATES_RECEIVED, n(r.total_updates)),
        (names::UPDATES_PARTIAL, n(r.partial_updates)),
        (names::UPDATES_SUPERSEDED, n(r.superseded_uploads)),
        (names::UPDATES_REJECTED_NONFINITE, n(r.rejected_nonfinite)),
        (names::UPDATES_REJECTED_NORM, n(r.rejected_norm)),
        (names::UPDATES_SCREENED_ROBUST, n(r.screened_updates)),
        (names::UPDATES_CLIPPED_ROBUST, n(r.clipped_updates)),
        (names::UPDATES_ATTACKED, n(r.attacked_updates)),
        (names::UPLOAD_FAILURES, n(r.upload_failures)),
        (names::UPLOAD_RETRIES, n(r.retries)),
        (names::SESSIONS_DISPATCHED, kind("client_start")),
        (names::SESSION_TIMEOUTS, n(r.timeouts)),
        (names::CLIENTS_QUARANTINED, n(r.quarantined)),
        (names::DEVICE_CRASHES, n(r.crashes)),
        (names::AGGREGATIONS, r.rounds),
        (names::EVALS, n(r.accuracy.len())),
        (names::NOTIFICATIONS_SENT, n(r.notifications)),
        (names::NET_BYTES_SENT, kind("client_start") * model_bytes),
        (names::NET_BYTES_RECEIVED, n(r.total_updates) * model_bytes),
        (names::NET_RECONNECTS, kind("net_reconnect")),
        (names::NET_WORKERS_QUARANTINED, kind("net_quarantine")),
        (names::CODEC_BYTES_RAW, r.codec_bytes_raw),
        (names::CODEC_BYTES_ENCODED, r.codec_bytes_encoded),
    ]
}

struct State {
    global: Vec<f32>,
    round: u64,
    queue: EventQueue<Ev>,
    buffer: UpdateBuffer,
    /// All per-client protocol state — phases, monotonic counters,
    /// in-flight sessions — in one struct-of-arrays table (see
    /// [`crate::fleet`]).
    table: FleetTable,
    plan: FaultPlan,
    /// Adversarial device assignment + stale-replay memory. A noop plan
    /// (the default) never touches an upload.
    attack: AttackPlan,
    /// Byzantine-robust screening/combination between sanitizer and
    /// weighting. `Mean` (the default) is a bit-identical pass-through.
    /// Stateless, so not checkpointed.
    robust: RobustLayer,
    sel_rng: SimRng,
    /// The run's event ledger. Every `RunResult` counter an event records
    /// (uploads, drops, crashes, rejections, …) and the accuracy curve are
    /// read off it at the end of [`drive`], never tallied beside it.
    trace: TraceLog,
    grad_norms: Vec<(f64, f64)>,
    /// The two counters with no trace event of their own (adding one would
    /// move `trace.digest()`).
    clipped_updates: usize,
    superseded_uploads: usize,
    /// Round the injected server crash fires (`None` after a resume — a
    /// restarted server never re-crashes). Not checkpointed: re-derived
    /// from the fault plan at drive start.
    crash_round: Option<u64>,
    /// Latched when `stop_at_accuracy` was reached. Not checkpointed:
    /// snapshots are never taken in this state.
    reached_target: bool,
    /// The configured update codec, rebuilt from the config on fresh and
    /// resume alike (codecs are stateless pure functions; only the
    /// error-feedback residuals below are state).
    codec: Box<dyn UpdateCodec>,
    /// Fast-path flag: an empty stage list means the seam does no work
    /// beyond byte accounting, keeping the default bit-identical (and
    /// allocation-identical) to a build without the codec layer.
    codec_identity: bool,
    /// Error-feedback residual store (`None` unless enabled *and* the
    /// pipeline is lossy — a lossless codec's residual is identically
    /// zero, and even adding `0.0` can flip `-0.0` bits). Checkpointed in
    /// the codec section.
    feedback: Option<FeedbackStore>,
    /// Cumulative raw f32 bytes of every update snapshot that passed the
    /// codec seam (local or wire). Checkpointed.
    codec_bytes_raw: u64,
    /// Cumulative bytes after encoding. Equal to `codec_bytes_raw` under
    /// the identity codec. Checkpointed.
    codec_bytes_encoded: u64,
    /// `(codec_bytes_raw, codec_bytes_encoded)` sampled at every
    /// evaluation, index-aligned with `accuracy` — the bytes-to-accuracy
    /// curve. Checkpointed.
    bytes_curve: Vec<(u64, u64)>,
    /// Observability front. Never checkpointed — pure measurement; a
    /// resumed run installs a fresh one in `drive` (constructors leave a
    /// disabled placeholder).
    obs: Obs,
    policy: Box<dyn ServerPolicy>,
}

impl State {
    /// Engine state at the start of a fresh run.
    fn fresh(cfg: &ExperimentConfig, env: &Environment, policy: Box<dyn ServerPolicy>) -> Self {
        State {
            global: env.initial_global.clone(),
            round: 0,
            queue: EventQueue::new(),
            buffer: UpdateBuffer::new(),
            table: FleetTable::new(cfg.num_clients),
            plan: FaultPlan::build(&cfg.faults, cfg.num_clients, cfg.seed),
            attack: AttackPlan::build(&cfg.attack, cfg.num_clients, cfg.seed),
            robust: RobustLayer::new(cfg.robust),
            sel_rng: stream_rng(cfg.seed, streams::SELECTION),
            trace: TraceLog::new(),
            grad_norms: Vec::new(),
            clipped_updates: 0,
            superseded_uploads: 0,
            crash_round: None,
            reached_target: false,
            codec: build_codec(&cfg.codec),
            codec_identity: cfg.codec.is_identity(),
            feedback: (cfg.codec.error_feedback && !cfg.codec.is_lossless())
                .then(FeedbackStore::new),
            codec_bytes_raw: 0,
            codec_bytes_encoded: 0,
            bytes_curve: Vec::new(),
            obs: Obs::off(),
            policy,
        }
    }

    /// Encode the complete engine state (plus the environment's per-client
    /// RNG streams, which advance during refills) into a checkpoint payload:
    /// an ordered list of parts, each written by the type that owns it
    /// (DESIGN.md §7c lists them). The policy and the codec state ride in
    /// length-prefixed sections, so a policy or a codec stage can grow
    /// state without touching this list. Written over `buf`'s allocation
    /// (the previous snapshot's).
    fn encode(&self, env: &Environment, buf: Vec<u8>) -> Vec<u8> {
        let mut w = BinWriter::reusing(buf);
        w.vec_f32(&self.global);
        w.u64(self.round);
        self.queue.encode(&mut w, |w, ev| ev.encode(w));
        self.buffer.encode(&mut w);
        self.table.encode(&mut w);
        w.rng(&self.sel_rng);
        self.trace.encode(&mut w);
        w.f64_pairs(&self.grad_norms);
        w.usize(self.clipped_updates);
        w.usize(self.superseded_uploads);
        self.attack.encode_state(&mut w);
        env.client_rngs.encode(&mut w);
        env.idle_rngs.encode(&mut w);
        w.section_with(|w| self.policy.encode_state(w));
        w.section_with(|w| {
            w.u64(self.codec_bytes_raw);
            w.u64(self.codec_bytes_encoded);
            w.usize(self.bytes_curve.len());
            for &(raw, encoded) in &self.bytes_curve {
                w.u64(raw);
                w.u64(encoded);
            }
            w.bool(self.feedback.is_some());
            if let Some(fb) = &self.feedback {
                fb.encode(w);
            }
        });
        w.into_bytes()
    }

    /// Rebuild engine state from a checkpoint payload — the mirror of
    /// [`State::encode`], part for part — restoring the environment's
    /// per-client RNG streams and handing the policy its own section. Any
    /// structural mismatch against the running config is a
    /// [`CheckpointError`] — never a panic, never a partial restore. The
    /// fault and attack plans are rebuilt from the config (pure functions of
    /// it and the seed); the restarted server never re-crashes, and the
    /// per-device upload-loss attempt counters live in the fleet table.
    fn decode(
        cfg: &ExperimentConfig,
        env: &mut Environment,
        policy: Box<dyn ServerPolicy>,
        payload: &[u8],
    ) -> Result<Self, CheckpointError> {
        let n = cfg.num_clients;
        let mut st = State::fresh(cfg, env, policy);
        st.plan.clear_server_crash();
        let mut r = BinReader::new(payload);

        st.global = r.vec_f32()?;
        if st.global.len() != env.initial_global.len() {
            return Err(CheckpointError::Malformed(format!(
                "global model has {} parameters, this experiment has {}",
                st.global.len(),
                env.initial_global.len()
            )));
        }
        st.round = r.u64()?;
        st.queue = EventQueue::decode(&mut r, |r| Ev::decode(r, n))?;
        st.buffer = UpdateBuffer::decode(&mut r)?;
        st.table = FleetTable::decode(&mut r, n)?;
        st.sel_rng = r.rng()?;
        st.trace = TraceLog::decode(&mut r)?;
        st.grad_norms = r.f64_pairs()?;
        st.clipped_updates = r.usize()?;
        st.superseded_uploads = r.usize()?;
        st.attack.decode_state(&mut r)?;
        let client_rngs = LazyStreams::decode(&mut r, cfg.seed, streams::CLIENT_BASE, n)?;
        let idle_rngs = LazyStreams::decode(&mut r, cfg.seed, streams::IDLE_BASE, n)?;
        let policy_section = format!("{} policy section", st.policy.name());
        r.section_with(&policy_section, |r| st.policy.decode_state(r))?;
        r.section_with("codec section", |r| {
            st.codec_bytes_raw = r.u64()?;
            st.codec_bytes_encoded = r.u64()?;
            let n_curve = r.count(16)?;
            st.bytes_curve = (0..n_curve)
                .map(|_| Ok((r.u64()?, r.u64()?)))
                .collect::<Result<_, CodecError>>()?;
            // `fresh` decided from the config whether this run keeps an
            // error-feedback store; the checkpoint must agree.
            let has_feedback = r.bool()?;
            if has_feedback != st.feedback.is_some() {
                return Err(CodecError(format!(
                    "checkpoint {} an error-feedback store but the config {} one",
                    if has_feedback { "carries" } else { "lacks" },
                    if has_feedback { "forbids" } else { "expects" },
                )));
            }
            if has_feedback {
                st.feedback = Some(FeedbackStore::decode(r, n)?);
            }
            Ok(())
        })?;
        r.finish()?;

        env.client_rngs = client_rngs;
        env.idle_rngs = idle_rngs;
        Ok(st)
    }

    /// Number of clients currently training.
    fn active(&self) -> usize {
        self.table.active()
    }

    /// In-flight sessions in client order, as the policy hooks see them.
    fn in_flight(&self) -> Vec<InFlight> {
        self.table
            .sessions()
            .map(|(id, s)| InFlight {
                client: id.index(),
                born_round: s.born_round,
                notified: s.notified,
            })
            .collect()
    }

    /// Transit-loss verdict for one upload arrival. Mirrors the old
    /// stateful per-device counter exactly: no attempt index is consumed
    /// while the client's drop channel is disarmed, so fault-free runs
    /// never touch a fleet-table row here.
    fn upload_attempt_fails(&mut self, client: ClientId) -> bool {
        if self.plan.device(client.index()).drop_prob <= 0.0 {
            return false;
        }
        let attempt = self.table.take_fault_attempt(client);
        self.plan.upload_attempt_fails(client.index(), attempt)
    }

    /// Put an upload arrival on the clock — unless the device crashes
    /// before `arrival`, in which case the upload is lost and the crash
    /// instant itself is scheduled (once) so the trace records it.
    fn schedule_upload(
        &mut self,
        now: SimTime,
        client: ClientId,
        arrival: SimTime,
        generation: u64,
        attempt: u32,
    ) {
        if let Some(crash_at) = self.plan.crash_time(client.index()) {
            if crash_at <= arrival.as_secs() {
                if !self.table.crash_scheduled(client) {
                    self.table.mark_crash_scheduled(client);
                    let at = SimTime::from_secs(crash_at.max(0.0)).max(now);
                    self.queue.schedule(at, Ev::Crash { client });
                }
                return;
            }
        }
        self.queue.schedule(arrival, Ev::Upload { client, generation, attempt });
    }

    /// Put a freshly trained session for client `k` on the virtual clock at
    /// time `now`: timing draws, upload/timeout scheduling, session record.
    /// The training itself happens up front in [`State::refill`] (model math
    /// is time-independent); every RNG draw here (idle periods) stays on the
    /// engine thread in call order, so the schedule is independent of how
    /// the cohort was trained.
    fn begin_session(
        &mut self,
        cfg: &ExperimentConfig,
        env: &mut Environment,
        k: usize,
        now: SimTime,
        outcome: TrainOutcome,
    ) {
        let cid = ClientId::new(k);
        debug_assert_eq!(self.table.phase(cid), ClientPhase::Idle);
        let device = env.fleet.profile(cid);
        let batches = env.pool.batches_per_epoch(env.shards.shard_len(k));
        let mut t = now.after(device.download_time(env.model_bytes));
        let mut epoch_ends = Vec::with_capacity(cfg.local_epochs);
        for _ in 0..cfg.local_epochs {
            // Straggler spikes stretch compute while active (×1 otherwise).
            let spike = self.plan.speed_multiplier(k, t.as_secs());
            t = t.after(device.epoch_compute_time(batches, cfg.fleet.base_batch_time) * spike);
            if device.idle.is_some() {
                // Gated on the idle model so fleets without one never
                // materialize idle RNG streams (a draw-free call would).
                t = t.after(device.idle_time(env.idle_rngs.get_mut(k)));
            }
            epoch_ends.push(t);
        }

        let generation = self.table.bump_generation(cid);

        let upload_at = epoch_ends[cfg.local_epochs - 1].after(device.upload_time(env.model_bytes));
        self.obs.observe(
            names::SESSION_SIM_SECS,
            bounds::SIM_SECS,
            upload_at.as_secs() - now.as_secs(),
        );
        self.schedule_upload(now, cid, upload_at, generation, 0);
        if let Some(timeout) = cfg.resilience.session_timeout {
            self.queue.schedule(now.after(timeout), Ev::Timeout { client: cid, generation });
        }

        self.table.insert_session(
            cid,
            Session {
                born_round: self.round,
                seq: generation,
                generation,
                epoch_ends,
                outcome,
                scheduled_epochs: cfg.local_epochs,
                notified: false,
            },
        );
        self.table.set_phase(cid, ClientPhase::Training);
        self.trace.push(now, TraceEvent::ClientStart { id: cid, round: self.round });
    }

    /// Handle an upload arrival (ignoring superseded generations, injecting
    /// transit loss and retries, applying Byzantine corruption, consulting
    /// the policy's admission verdict).
    fn on_upload(
        &mut self,
        cfg: &ExperimentConfig,
        env: &mut Environment,
        now: SimTime,
        client: ClientId,
        generation: u64,
        attempt: u32,
    ) {
        let k = client.index();
        if self.table.session(client).is_none_or(|s| s.generation != generation) {
            // Session already consumed or reclaimed, or superseded by a
            // notification reschedule.
            self.superseded_uploads += 1;
            return;
        }

        // Transient transit loss: the client notices the failed upload and
        // retries with capped exponential backoff, then gives up.
        if self.upload_attempt_fails(client) {
            self.trace.push(now, TraceEvent::UploadFailed { id: client, attempt });
            if attempt < MAX_UPLOAD_RETRIES {
                let backoff = (cfg.resilience.retry_backoff_base * 2f64.powi(attempt as i32))
                    .min(RETRY_BACKOFF_CAP);
                let arrival =
                    now.after(backoff + env.fleet.profile(client).upload_time(env.model_bytes));
                self.trace.push(now, TraceEvent::Retry { id: client, attempt: attempt + 1 });
                self.schedule_upload(now, client, arrival, generation, attempt + 1);
            } else {
                // Retries exhausted: the session's training effort is lost
                // and the client returns to the idle pool.
                self.table.remove_session(client);
                self.table.set_phase(client, ClientPhase::Idle);
                self.refill(cfg, env, now);
            }
            return;
        }

        let session = self.table.session(client).expect("session checked above");
        let epochs = session.scheduled_epochs;
        let mut params = session.outcome.state_after(epochs).to_vec();
        // Byzantine/buggy devices corrupt what they send.
        self.plan.corrupt(k, &mut params);
        // Adversarial devices tamper deliberately (after accidental
        // corruption, mirroring a malicious client that controls its final
        // payload).
        let mut attacked = false;
        if let Some(kind) = self.attack.apply(k, &mut params, &self.global) {
            attacked = true;
            self.trace.push(now, TraceEvent::Attacked { id: client, kind });
        }
        let session = self.table.session(client).expect("session checked above");
        let update = ModelUpdate {
            client_id: k,
            params,
            num_samples: env.shards.shard_len(k),
            born_round: session.born_round,
            epochs_completed: epochs,
            train_loss: session.outcome.epoch_losses[..epochs].iter().sum::<f32>() / epochs as f32,
        };
        let born = session.born_round;
        self.table.remove_session(client);
        self.table.reset_timeouts(client);
        self.trace.push(now, TraceEvent::Upload { id: client, born_round: born, epochs });
        let span = self.obs.span_start();
        let verdict = self.policy.on_update_received(&update, self.round);
        self.obs.span_end(Phase::Admission, span);
        {
            let admitted = verdict == Admission::Admit;
            let (t, round, staleness) = (now.as_secs(), self.round, update.staleness(self.round));
            self.obs.emit(move || {
                export::update_record(t, k, round, born, staleness, epochs, admitted, attacked)
            });
            self.obs.count(if admitted {
                names::UPDATES_ADMITTED
            } else {
                names::UPDATES_DROPPED_ARRIVAL
            });
        }
        match verdict {
            Admission::Admit => {
                self.table.set_phase(client, ClientPhase::Buffered);
                self.buffer.push(update);
            }
            Admission::Drop => {
                // Discarded on arrival: counted and traced like an
                // aggregation-time drop, and the client goes straight back
                // to the idle pool.
                self.trace.push(
                    now,
                    TraceEvent::Drop { id: client, staleness: update.staleness(self.round) },
                );
                self.table.set_phase(client, ClientPhase::Idle);
                self.refill(cfg, env, now);
            }
        }
    }

    /// Server session timeout: reclaim a session that has not reported,
    /// quarantining the client after repeated offences.
    fn on_timeout(
        &mut self,
        cfg: &ExperimentConfig,
        env: &mut Environment,
        now: SimTime,
        client: ClientId,
        generation: u64,
    ) {
        let Some(session) = self.table.session(client) else {
            return; // session reported (or was reclaimed) in time
        };
        if session.seq != generation {
            return; // timer from an older session
        }
        // Reclaim: the client stops blocking staleness scans and its slot
        // is refilled. A late upload from this session is ignored (its
        // generation can never match a later session).
        self.table.remove_session(client);
        self.trace.push(now, TraceEvent::Timeout { id: client });
        if self.table.record_timeout(client) >= cfg.resilience.quarantine_after {
            self.table.set_phase(client, ClientPhase::Quarantined);
            self.trace.push(now, TraceEvent::Quarantine { id: client });
        } else {
            self.table.set_phase(client, ClientPhase::Idle);
        }
        self.refill(cfg, env, now);
    }

    /// Aggregate if the policy's trigger holds.
    fn try_aggregate(&mut self, cfg: &ExperimentConfig, env: &mut Environment, now: SimTime) {
        let in_flight = self.in_flight();
        let view =
            ServerView { round: self.round, buffer_len: self.buffer.len(), in_flight: &in_flight };
        if !self.policy.should_aggregate(&view) {
            return;
        }

        let occupancy = view.buffer_len;
        let in_flight_n = in_flight.len();
        let updates = self.buffer.drain();
        for u in &updates {
            let cid = ClientId::new(u.client_id);
            debug_assert_eq!(self.table.phase(cid), ClientPhase::Buffered);
            self.table.set_phase(cid, ClientPhase::Idle);
        }

        // Sanitize in front of the aggregation: non-finite or norm-exploded
        // updates are rejected; the survivors' weights renormalize since
        // every policy weights over exactly the updates it is handed.
        let span = self.obs.span_start();
        let (clean, rejected) = sanitize::sanitize_updates(updates, &self.global, &cfg.resilience);
        self.obs.span_end(Phase::Sanitize, span);
        for (id, cause) in rejected {
            self.trace.push(now, TraceEvent::Rejected { id: ClientId::new(id), cause });
        }
        if clean.is_empty() {
            // Everything in the buffer was garbage; the rejected clients
            // are idle again, so refilling makes progress.
            self.refill(cfg, env, now);
            return;
        }

        // Byzantine-robust screening (Krum) / clipping (NormClip) between
        // the hygiene sanitizer and the policy's weighting. Skipped entirely
        // under the pass-through rules so defaults stay bit-identical.
        let mut clean = clean;
        if self.robust.screens() {
            let span = self.obs.span_start();
            let outcome = self.robust.screen(&mut clean, &self.global);
            self.obs.span_end(Phase::Robust, span);
            for &id in &outcome.screened {
                self.trace.push(
                    now,
                    TraceEvent::Rejected {
                        id: ClientId::new(id),
                        cause: RejectCause::RobustScreened,
                    },
                );
            }
            self.clipped_updates += outcome.clipped;
            if clean.is_empty() {
                // The whole buffer was screened as suspect; like an
                // all-garbage buffer, the clients are idle again and
                // refilling keeps the engine live.
                self.refill(cfg, env, now);
                return;
            }
        }
        let clean = clean;

        // The policy's staleness partition (SAFA-style discard): dropped
        // updates waste their training effort — the failure mode SEAFL's
        // wait/notify policies are designed to avoid.
        let (updates, stale) = self.policy.partition_stale(clean, self.round);
        for u in &stale {
            self.obs.count(names::UPDATES_DROPPED_STALE);
            self.trace.push(
                now,
                TraceEvent::Drop {
                    id: ClientId::new(u.client_id),
                    staleness: u.staleness(self.round),
                },
            );
        }
        if updates.is_empty() {
            // Everything in the buffer was stale; the dropped clients
            // are idle again, so refilling makes progress.
            self.refill(cfg, env, now);
            return;
        }

        // Staleness is measured at aggregation time against the pre-increment
        // round — the same quantity `partition_stale` and Drop traces use.
        let stalenesses: Vec<u64> = if self.obs.enabled() {
            updates.iter().map(|u| u.staleness(self.round)).collect()
        } else {
            Vec::new()
        };

        let agg_span = self.obs.span_start();
        let mut entropy = None;
        if self.policy.aggregates_by_weights() {
            // Decomposed weights → average → mix path: identical arithmetic
            // to the trait's default `aggregate` composition, run this way
            // unconditionally (not just under obs) so digests never depend
            // on the observability mode.
            let w_span = self.obs.span_start();
            let weights = self.policy.weights_for_buffer(&updates, &self.global, self.round);
            self.obs.span_end(Phase::Weighting, w_span);
            if self.obs.enabled() {
                let h = crate::obs::weight_entropy(&weights);
                self.obs.observe(names::WEIGHT_ENTROPY_NATS, bounds::ENTROPY_NATS, h);
                entropy = Some(h);
            }
            let avg = if self.robust.is_mean() {
                // The literal pre-robust arithmetic: digests with robustness
                // disabled are pinned against this exact call.
                weighted_average(&updates, &weights)
            } else {
                let r_span = self.obs.span_start();
                let avg = self.robust.combine(&updates, &weights);
                self.obs.span_end(Phase::Robust, r_span);
                avg
            };
            let mix_span = self.obs.span_start();
            self.global = self.policy.mix_into_global(&self.global, &avg);
            self.obs.span_end(Phase::Mix, mix_span);
        } else {
            // FedAsync's sequential fold is not a weighted average; it keeps
            // the policy's own `aggregate` verbatim. Robust screening and
            // clipping above still apply — only the rank-based *combine*
            // step has no average to replace here.
            self.global = self.policy.aggregate(&self.global, &updates, self.round);
        }
        self.obs.span_end(Phase::Aggregate, agg_span);
        self.round += 1;
        self.trace
            .push(now, TraceEvent::Aggregate { round: self.round, num_updates: updates.len() });
        for &s in &stalenesses {
            self.obs.observe(names::STALENESS_ROUNDS, bounds::STALENESS_ROUNDS, s as f64);
        }
        self.obs.observe(names::BUFFER_OCCUPANCY, bounds::COHORT, occupancy as f64);
        self.obs.gauge(names::IN_FLIGHT, in_flight_n as f64);
        self.obs.gauge(names::QUEUE_DEPTH, self.queue.len() as f64);
        self.obs.gauge(names::RESIDENT_RECORDS, self.table.resident_records() as f64);
        self.obs.gauge(names::RESIDENT_SHARDS, env.shards.resident() as f64);
        self.obs.round_interval(now.as_secs());
        {
            let (t, round, num_updates) = (now.as_secs(), self.round, updates.len());
            let (codec_raw, codec_encoded) = (self.codec_bytes_raw, self.codec_bytes_encoded);
            self.obs.emit(move || {
                export::round_record(
                    t,
                    round,
                    num_updates,
                    occupancy,
                    in_flight_n,
                    &stalenesses,
                    entropy,
                    codec_raw,
                    codec_encoded,
                )
            });
        }

        if self.round.is_multiple_of(cfg.eval_every) {
            let span = self.obs.span_start();
            let acc = env.evaluate(&self.global);
            self.obs.span_end(Phase::Eval, span);
            {
                let (t, round) = (now.as_secs(), self.round);
                self.obs.emit(move || export::eval_record(t, round, acc));
            }
            self.bytes_curve.push((self.codec_bytes_raw, self.codec_bytes_encoded));
            self.trace.push(now, TraceEvent::Eval { round: self.round, accuracy: acc });
            if cfg.grad_norm_probe {
                // The single gradient-probe path every algorithm shares.
                self.grad_norms.push((now.as_secs(), env.grad_norm_sq(&self.global)));
            }
            if let Some(target) = cfg.stop_at_accuracy {
                if acc >= target {
                    self.reached_target = true;
                }
            }
        }

        // Notification pass (SEAFL²): the policy picks the clients, the
        // engine reschedules their uploads to the end of the current epoch.
        let in_flight = self.in_flight();
        let view =
            ServerView { round: self.round, buffer_len: self.buffer.len(), in_flight: &in_flight };
        let to_notify = self.policy.clients_to_notify(&view);
        self.send_notifications(env, now, to_notify);

        self.refill(cfg, env, now);
    }

    /// Partial-upload notification mechanics: each notified device uploads
    /// at the end of its current epoch under a fresh generation (the
    /// original full upload is superseded).
    fn send_notifications(&mut self, env: &Environment, now: SimTime, to_notify: Vec<usize>) {
        for k in to_notify {
            let cid = ClientId::new(k);
            let device = env.fleet.profile(cid);
            let arrival = now.after(device.latency);
            let session = self.table.session(cid).expect("notified client has a session");
            // First epoch boundary after the notification arrives.
            let Some(epoch_idx) = session.epoch_ends.iter().position(|&e| e > arrival) else {
                // All epochs already finished; the full upload is in flight.
                continue;
            };
            let upload_at =
                session.epoch_ends[epoch_idx].after(device.upload_time(env.model_bytes));
            let generation = self.table.bump_generation(cid);
            let session = self.table.session_mut(cid).expect("notified client has a session");
            session.notified = true;
            session.generation = generation;
            session.scheduled_epochs = epoch_idx + 1;
            self.schedule_upload(now, cid, upload_at, generation, 0);
            self.trace.push(now, TraceEvent::Notify { id: cid });
        }
    }

    /// Keep the policy's cohort training: offer it the idle pool and start
    /// sessions for whatever it picks.
    fn refill(&mut self, cfg: &ExperimentConfig, env: &mut Environment, now: SimTime) {
        let dispatch_span = self.obs.span_start();
        // The idle scan walks the table's bitset; large fleets shard it in
        // deterministic block order over the experiment's dedicated pool, or
        // the global rayon pool when it has none (see `TrainerPool::run`).
        let idle: Vec<usize> = env.pool.run(|| self.table.idle_clients());
        let ctx = DispatchCtx {
            active: self.active(),
            buffered: self.buffer.len(),
            selection: cfg.selection,
        };
        let picked = self.policy.select_cohort(&ctx, &idle, &env.fleet, &mut self.sel_rng);
        self.obs.span_end(Phase::Dispatch, dispatch_span);
        if picked.is_empty() {
            return;
        }
        self.obs.observe(names::COHORT_SIZE, bounds::COHORT, picked.len() as f64);
        // Train the whole picked cohort before anything is put on the
        // clock — through the transport seam when a remote trainer is
        // installed, the local pool otherwise. Jobs carry the per-client
        // RNG streams (written back below in selection order), and the
        // timing/idle draws all happen afterwards in `begin_session`, so
        // the virtual-clock schedule is exactly the one the sequential
        // engine produced.
        let keep_snapshots = self.policy.keep_epoch_snapshots();
        let span = self.obs.span_start();
        let (mut outcomes, incidents, codec_stats) =
            env.train_cohort(&self.global, &picked, cfg.local_epochs, keep_snapshots);
        self.obs.span_end(Phase::Train, span);
        self.record_incidents(now, incidents);
        self.apply_codec(&picked, &mut outcomes, &codec_stats);
        for (&k, (outcome, rng)) in picked.iter().zip(outcomes) {
            env.client_rngs.set(k, rng);
            self.begin_session(cfg, env, k, now, outcome);
        }
    }

    /// The compression seam: project every freshly trained outcome through
    /// the configured codec — training → **codec** → (later, at upload)
    /// sanitize → robust → admission — so weighting and screening always
    /// see exactly the update the bytes on the wire describe.
    ///
    /// The reference for every snapshot is `self.global` as dispatched to
    /// this cohort. Each outcome is projected **exactly once**: slots whose
    /// `wire.coded` flag is set arrived already projected (the wire decode
    /// *was* the projection, against the bit-identical reference on the
    /// worker) and are only counted, never re-projected — lossy projection
    /// is not idempotent in f32. Error feedback compensates the final
    /// snapshot only (the full-epoch update); SEAFL² partial snapshots ride
    /// projection-only (DESIGN.md §14).
    fn apply_codec(
        &mut self,
        picked: &[usize],
        outcomes: &mut [(TrainOutcome, SimRng)],
        wire: &CodecTransferStats,
    ) {
        self.codec_bytes_raw += wire.bytes_raw;
        self.codec_bytes_encoded += wire.bytes_encoded;
        if self.codec_identity {
            // Identity fast path: no transform, no allocation — raw and
            // encoded coincide for the slots that stayed local.
            let mut local = 0u64;
            for (i, (outcome, _)) in outcomes.iter().enumerate() {
                if wire.coded.get(i).copied().unwrap_or(false) {
                    continue;
                }
                local += outcome.snapshots.iter().map(|s| 4 * s.len() as u64).sum::<u64>();
            }
            self.codec_bytes_raw += local;
            self.codec_bytes_encoded += local;
        } else {
            let span = self.obs.span_start();
            for (i, (&k, (outcome, _rng))) in picked.iter().zip(outcomes.iter_mut()).enumerate() {
                if wire.coded.get(i).copied().unwrap_or(false) {
                    continue;
                }
                let last = outcome.snapshots.len().saturating_sub(1);
                for (si, snap) in outcome.snapshots.iter_mut().enumerate() {
                    let is_final = si == last;
                    if is_final {
                        if let Some(fb) = self.feedback.as_mut() {
                            fb.compensate(k, snap);
                        }
                    }
                    self.codec_bytes_raw += 4 * snap.len() as u64;
                    let blob = self.codec.encode(&self.global, snap);
                    self.codec_bytes_encoded += blob.len() as u64;
                    let decoded = self.codec.decode(&self.global, &blob).unwrap_or_else(|e| {
                        panic!("codec {}: own encoding failed to decode: {e}", self.codec.name())
                    });
                    if is_final {
                        if let Some(fb) = self.feedback.as_mut() {
                            fb.record(k, snap, &decoded);
                        }
                    }
                    *snap = decoded;
                }
            }
            self.obs.span_end(Phase::Codec, span);
        }
    }

    /// Record transport-layer incidents (never present in pure simulation)
    /// in the trace at the current virtual time.
    fn record_incidents(&mut self, now: SimTime, incidents: Vec<NetIncident>) {
        for incident in incidents {
            let event = match incident {
                NetIncident::Reconnect { worker } => TraceEvent::NetReconnect { worker },
                NetIncident::Quarantine { worker } => TraceEvent::NetQuarantine { worker },
            };
            self.trace.push(now, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::build_policy;
    use crate::test_support::{apply_attack_overlay, fixture_cases};

    /// For every fixture case under the attack overlay, the newest snapshot
    /// of a three-round run re-encodes to the bytes it was decoded from, and
    /// no truncation of it decodes. Trying every length is quadratic in the
    /// payload, so the cuts are about 128 lengths on an odd stride (every
    /// residue of the 4- and 8-byte field widths) plus the whole 64-byte
    /// tail, and the model is thin: small vectors, unchanged structure.
    #[test]
    fn snapshots_reencode_identically_and_no_truncation_decodes() {
        for case in fixture_cases() {
            let dir = std::env::temp_dir().join(format!(
                "seafl-state-codec-{}-{}-{}",
                std::process::id(),
                case.label,
                case.variant
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut cfg = case.cfg.clone();
            apply_attack_overlay(&mut cfg);
            cfg.model =
                seafl_nn::ModelKind::Mlp { in_features: 28 * 28, hidden: 2, num_classes: 10 };
            cfg.max_rounds = 3;
            cfg.checkpoint_every = Some(1);
            cfg.keep_last = 1;
            cfg.checkpoint_dir = Some(dir.clone());
            run_loop(&cfg, &mut Environment::build(&cfg), build_policy(&cfg));
            let payload = CheckpointStore::new(&dir, 1)
                .and_then(|s| s.load_latest(ENGINE_UNIFIED, cfg.state_hash()))
                .unwrap_or_else(|e| panic!("{}: {e}", case.key()))
                .payload;
            std::fs::remove_dir_all(&dir).ok();

            let mut env = Environment::build(&cfg);
            let mut decode =
                |bytes: &[u8]| State::decode(&cfg, &mut env, build_policy(&cfg), bytes);
            let restored = decode(&payload).unwrap_or_else(|e| panic!("{}: {e}", case.key()));
            assert!(restored.trace.len() > 3, "{}: snapshot of an idle run", case.key());
            let tail = payload.len() - 64;
            for cut in (0..tail).step_by((tail / 128) | 1).chain(tail..payload.len()) {
                match decode(&payload[..cut]) {
                    Err(CheckpointError::Malformed(_)) => {}
                    Err(e) => panic!("{}: cut at {cut}: {e}", case.key()),
                    Ok(_) => panic!("{}: a {cut}-byte prefix decoded", case.key()),
                }
            }
            // Over a dirty buffer, as every save after the first encodes.
            let reencoded = restored.encode(&env, vec![0xAB; 7]);
            assert_eq!(reencoded, payload, "{}: re-encoding moved bytes", case.key());
        }
    }
}
