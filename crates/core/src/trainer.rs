//! The transport seam: pluggable remote cohort training.
//!
//! The event loop is a *server*: it owns the virtual clock, admission,
//! staleness accounting and aggregation, and treats local training as a
//! black box that maps `(global model, job)` → `(outcome, advanced RNG)`.
//! That box is exactly what can move across a wire. A [`CohortTrainer`]
//! installed on the [`Environment`](crate::engine::setup::Environment) receives
//! each cohort's jobs — client id, epoch budget and the client's *exact*
//! RNG position — and returns outcomes computed anywhere (remote worker
//! processes in `seafl-net`'s case). Because workers rebuild the identical
//! environment from the same config (enforced by the config-hash handshake)
//! and batch shuffling is a pure function of the shipped RNG state, a
//! remote outcome is bit-for-bit the outcome the local pool would have
//! produced — the engine cannot tell the difference, and digests stay
//! pinned.
//!
//! Per-job failover is built into the contract: a `None` slot in the
//! returned vector means no worker could serve that job (all quarantined,
//! mid-round disconnects exhausted the retry budget, …) and the engine
//! computes it on the local [`TrainerPool`](crate::pool::TrainerPool)
//! instead — a run survives every worker dying and still produces the
//! reference digest.

use crate::client::TrainOutcome;
use seafl_sim::SimRngState;

/// One training assignment shipped to a remote worker. Mirrors
/// [`crate::pool::TrainJob`] minus the borrowed dataset (workers hold their
/// own replica) and with the RNG captured as portable state.
#[derive(Clone, Debug, PartialEq)]
pub struct RemoteJob {
    /// Which client's shard and RNG stream to train with.
    pub client_id: usize,
    /// Local epochs to run.
    pub epochs: usize,
    /// Keep per-epoch snapshots (SEAFL² partial training).
    pub keep_snapshots: bool,
    /// The client's batch-shuffle RNG position at dispatch; the worker
    /// advances it and ships it back so the server's stream stays exact.
    pub rng: SimRngState,
}

/// A link-layer incident surfaced from a [`CohortTrainer`] into the
/// engine's trace and counters. These never occur in pure simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetIncident {
    /// Worker `worker`'s connection dropped and was resumed via the replay
    /// history.
    Reconnect {
        /// Server-assigned worker id.
        worker: usize,
    },
    /// Worker `worker` went idle past the transport timeout and was
    /// quarantined; its outstanding jobs failed over.
    Quarantine {
        /// Server-assigned worker id.
        worker: usize,
    },
}

/// Per-cohort accounting of compressed update transfer, surfaced from a
/// [`CohortTrainer`] whose wire carries codec-encoded outcome blobs.
///
/// `coded` tells the engine's codec seam which slots it must *not*
/// project again: when an outcome crossed the wire compressed, the
/// server-side decode *was* the projection (applying a lossy codec twice
/// is not idempotent in f32, so exactly-once application is what keeps
/// digests transport-invariant — DESIGN.md §14).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CodecTransferStats {
    /// Index-aligned with the cohort's jobs: `true` when that slot's
    /// outcome arrived codec-compressed (already projected). Empty when no
    /// wire codec is active.
    pub coded: Vec<bool>,
    /// Raw f32 payload bytes of the compressed outcomes (4 bytes per
    /// coordinate per snapshot).
    pub bytes_raw: u64,
    /// Bytes those outcomes actually occupied on the wire.
    pub bytes_encoded: u64,
}

/// Executes a cohort of training jobs somewhere other than the local pool.
///
/// Implementations must be deterministic in the *value* sense: for a given
/// `(global, job)` the returned outcome must equal what
/// [`TrainerPool::train_cohort`](crate::pool::TrainerPool::train_cohort)
/// would produce (transport-level chaos — loss, retries, reconnects — may
/// change *timing* and *which worker* computed it, never the bits).
pub trait CohortTrainer: Send {
    /// Train every job against `global`. The returned vector is
    /// index-aligned with `jobs`; `None` marks a job no worker could serve
    /// (the engine recomputes it locally).
    fn train_cohort(
        &mut self,
        global: &[f32],
        jobs: &[RemoteJob],
    ) -> Vec<Option<(TrainOutcome, SimRngState)>>;

    /// Drain link incidents (reconnects, worker quarantines) recorded since
    /// the last call, for the engine's trace and counters.
    fn drain_incidents(&mut self) -> Vec<NetIncident> {
        Vec::new()
    }

    /// Drain codec transfer accounting for the cohort just trained. The
    /// default (no wire codec) reports nothing; the engine then applies
    /// the configured codec itself.
    fn drain_codec_stats(&mut self) -> CodecTransferStats {
        CodecTransferStats::default()
    }

    /// Tear down gracefully (e.g. broadcast a `Done` message). Called once
    /// after the run completes; the default does nothing.
    fn shutdown(&mut self) {}
}
