//! Pluggable server policies: everything algorithm-specific that the
//! unified event loop ([`crate::engine::event_loop`]) delegates.
//!
//! The engine owns the virtual clock, event queue, client sessions,
//! trainer-pool dispatch, fault handling, sanitization and checkpointing;
//! a [`ServerPolicy`] decides *which* clients to dispatch, *whether* an
//! arriving update enters the buffer, *when* the buffer is aggregated,
//! *how* the buffered updates are weighted and mixed into the global
//! model, and *what* of its own state a checkpoint must carry.
//!
//! A new algorithm is one policy struct plus one [`crate::Algorithm`]
//! variant that wraps it: the struct's fields are the algorithm's
//! parameters, [`build_policy`] boxes it, and its
//! [`name`](ServerPolicy::name) is the algorithm's label. No engine or
//! checkpoint-framing edits (see [`fedstale::FedStaleWeightPolicy`] for the
//! worked example, and DESIGN.md §8 for the lifecycle).

mod fedasync;
mod fedavg;
mod fedbuff;
mod fedstale;
mod seafl;

pub(crate) use fedasync::FedAsyncPolicy;
pub(crate) use fedavg::FedAvgPolicy;
pub(crate) use fedbuff::FedBuffPolicy;
pub(crate) use fedstale::FedStaleWeightPolicy;
pub use seafl::{SeaflPolicy, StalenessPolicy};

use crate::checkpoint::{BinReader, BinWriter, CodecError};
use crate::config::{Algorithm, ExperimentConfig, SelectionPolicy};
use crate::update::ModelUpdate;
use rayon::prelude::*;
use seafl_sim::{Fleet, SimRng, TerminationReason};

/// What the engine is about to do when it asks a policy for a cohort.
pub struct DispatchCtx {
    /// Clients currently training.
    pub(crate) active: usize,
    /// Updates waiting in the buffer for the next aggregation.
    pub(crate) buffered: usize,
    /// The experiment's client-selection policy.
    pub(crate) selection: SelectionPolicy,
}

/// One in-flight training session, as visible to policy hooks.
pub struct InFlight {
    /// The training client's id.
    pub(crate) client: usize,
    /// Server round when the session was dispatched.
    pub born_round: u64,
    /// Whether a partial-upload notification was already sent (SEAFL²).
    pub(crate) notified: bool,
}

/// Read-only server state handed to the aggregation-trigger and
/// notification hooks.
pub struct ServerView<'a> {
    /// Server round counter (completed aggregations).
    pub round: u64,
    /// Updates currently buffered.
    pub buffer_len: usize,
    /// In-flight sessions in client order.
    pub in_flight: &'a [InFlight],
}

/// Verdict on an arriving update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Buffer the update.
    Admit,
    /// Discard it on arrival (counted and traced as a drop). Note SEAFL's
    /// SAFA-style ablation does *not* use this: it drops at aggregation
    /// time, via [`ServerPolicy::partition_stale`], when staleness is
    /// finally known.
    Drop,
}

/// The argument of the deprecated [`ServerPolicy::drained_termination`]; the
/// engine never builds one.
pub struct DrainCtx;

/// Algorithm-specific server behaviour plugged into the unified engine.
///
/// Hooks are called on the engine thread only, in a fixed order per event
/// (admission → trigger → stale partition → aggregation → notification →
/// dispatch), so implementations can keep plain mutable state; anything
/// that must survive a checkpoint goes through
/// [`encode_state`](ServerPolicy::encode_state) /
/// [`decode_state`](ServerPolicy::decode_state).
pub trait ServerPolicy: Send {
    /// Algorithm label reported in [`crate::RunResult::algorithm`].
    fn name(&self) -> &'static str;

    /// Devices the engine keeps training concurrently (the dispatch
    /// target for the default [`select_cohort`](ServerPolicy::select_cohort)).
    fn concurrency(&self) -> usize;

    /// Buffer size that triggers aggregation under the default
    /// [`should_aggregate`](ServerPolicy::should_aggregate).
    fn buffer_k(&self) -> usize {
        1
    }

    /// Ignored by the engine: every policy runs on the event-driven path.
    #[deprecated(
        note = "ignored by the engine; removed with the harness's forwards, ROADMAP item 1"
    )]
    fn lockstep(&self) -> bool {
        false
    }

    /// Whether training must retain per-epoch snapshots (only policies
    /// that can interrupt a session mid-way — SEAFL² — need them).
    fn keep_epoch_snapshots(&self) -> bool {
        false
    }

    /// Pick the clients to dispatch now from `idle` (ascending client
    /// order). The default keeps `concurrency()` devices training.
    /// Returning an empty cohort declines the dispatch.
    fn select_cohort(
        &mut self,
        ctx: &DispatchCtx,
        idle: &[usize],
        fleet: &Fleet,
        rng: &mut SimRng,
    ) -> Vec<usize> {
        crate::selection::select_clients(
            ctx.selection,
            idle,
            fleet,
            self.concurrency().saturating_sub(ctx.active),
            rng,
        )
    }

    /// Admission verdict for an update that survived transit. Also the
    /// point where a policy observes per-client staleness statistics.
    fn on_update_received(&mut self, _update: &ModelUpdate, _round: u64) -> Admission {
        Admission::Admit
    }

    /// Whether the server should aggregate now. Called after every event.
    fn should_aggregate(&self, view: &ServerView) -> bool {
        view.buffer_len >= self.buffer_k()
    }

    /// Split the sanitized buffer into `(aggregate, discard)` — the hook
    /// behind SEAFL's SAFA-style drop ablation. Order must be preserved.
    fn partition_stale(
        &self,
        updates: Vec<ModelUpdate>,
        _round: u64,
    ) -> (Vec<ModelUpdate>, Vec<ModelUpdate>) {
        (updates, Vec::new())
    }

    /// Aggregation weights over `updates` (Σ = 1, every weight finite and
    /// ≥ 0 — property-tested for every impl in `weighting.rs`). Read-only:
    /// per-client statistics a weighting scheme needs (e.g. FedStaleWeight's
    /// running staleness means) are accumulated in
    /// [`on_update_received`](ServerPolicy::on_update_received), so the
    /// engine can time and inspect weight computation without handing out
    /// mutable policy access.
    fn weights_for_buffer(&self, updates: &[ModelUpdate], global: &[f32], round: u64) -> Vec<f32>;

    /// Fold the weighted buffer average into the global model (Eq. 8's
    /// ϑ-mixing for the buffered algorithms, outright replacement for
    /// FedAvg).
    fn mix_into_global(&self, global: &[f32], avg: &[f32]) -> Vec<f32>;

    /// Whether this policy's [`aggregate`](ServerPolicy::aggregate) is the
    /// default weights → average → mix composition. When true (every
    /// policy but FedAsync), the engine runs the three steps itself so it
    /// can time them as separate phases and observe the weight vector
    /// (entropy histogram, round records) — numerically identical to
    /// calling `aggregate`, with or without observability. FedAsync
    /// returns false: its sequential per-update fold is not expressible as
    /// one weighted average, and re-associating it would drift the f32
    /// results.
    fn aggregates_by_weights(&self) -> bool {
        true
    }

    /// Produce the next global model. The default composes
    /// [`weights_for_buffer`](ServerPolicy::weights_for_buffer) →
    /// `weighted_average` → [`mix_into_global`](ServerPolicy::mix_into_global);
    /// FedAsync overrides it with its sequential per-update fold.
    fn aggregate(&mut self, global: &[f32], updates: &[ModelUpdate], round: u64) -> Vec<f32> {
        assert!(!updates.is_empty(), "{}: empty buffer", self.name());
        let w = self.weights_for_buffer(updates, global, round);
        let avg = weighted_average(updates, &w);
        self.mix_into_global(global, &avg)
    }

    /// Clients to send a partial-upload notification to, in client order
    /// (SEAFL²; everyone else notifies nobody).
    fn clients_to_notify(&self, _view: &ServerView) -> Vec<usize> {
        Vec::new()
    }

    /// Ignored by the engine, which classifies a drained queue itself.
    #[deprecated(
        note = "ignored by the engine; removed with the harness's forwards, ROADMAP item 1"
    )]
    fn drained_termination(&self, _ctx: &DrainCtx) -> Option<TerminationReason> {
        None
    }

    /// Write this policy's checkpoint state. The engine frames it as an
    /// opaque length-prefixed section, so the layout inside is entirely
    /// the policy's own; stateless policies write nothing.
    fn encode_state(&self, _w: &mut BinWriter) {}

    /// Restore state written by [`encode_state`](ServerPolicy::encode_state).
    /// The engine verifies the section is consumed exactly.
    fn decode_state(&mut self, _r: &mut BinReader) -> Result<(), CodecError> {
        Ok(())
    }
}

/// Model size (elements) above which [`weighted_average`] shards over the
/// ambient rayon pool. Each output element is the same j-ordered sum of
/// `w[j] * params[j][i]` regardless of which worker computes it, so the
/// sharded path is bit-identical to the sequential one at any thread count.
const PAR_AVG_CHUNK: usize = 16_384;

/// Weighted average of `updates` with weights `w` (Σw = 1) — Eq. 7's
/// buffer combination, shared by every weight-based policy.
pub(crate) fn weighted_average(updates: &[ModelUpdate], weights: &[f32]) -> Vec<f32> {
    let dim = updates[0].params.len();
    for u in updates {
        assert_eq!(u.params.len(), dim, "weighted_average: mixed model sizes");
    }
    let mut out = vec![0.0f32; dim];
    if dim >= 2 * PAR_AVG_CHUNK {
        out.par_chunks_mut(PAR_AVG_CHUNK).enumerate().for_each(|(b, chunk)| {
            let base = b * PAR_AVG_CHUNK;
            for (u, &w) in updates.iter().zip(weights.iter()) {
                let src = &u.params[base..base + chunk.len()];
                for (o, &p) in chunk.iter_mut().zip(src.iter()) {
                    *o += w * p;
                }
            }
        });
    } else {
        for (u, &w) in updates.iter().zip(weights.iter()) {
            for (o, &p) in out.iter_mut().zip(u.params.iter()) {
                *o += w * p;
            }
        }
    }
    out
}

/// `w ← (1−ϑ)·w + ϑ·w_new` (Eq. 8).
pub fn mix(global: &[f32], new: &[f32], theta: f32) -> Vec<f32> {
    global.iter().zip(new.iter()).map(|(&g, &n)| (1.0 - theta) * g + theta * n).collect()
}

/// Build the [`ServerPolicy`] for a config's algorithm: the policy struct
/// its variant holds, or FedStale's, sized by the fleet.
pub fn build_policy(cfg: &ExperimentConfig) -> Box<dyn ServerPolicy> {
    match cfg.algorithm {
        Algorithm::FedAvg(p) => Box::new(p),
        Algorithm::FedAsync(p) => Box::new(p),
        Algorithm::FedBuff(p) => Box::new(p),
        Algorithm::Seafl(p) => Box::new(p),
        Algorithm::FedStale { concurrency, buffer_k, theta } => {
            Box::new(FedStaleWeightPolicy::new(concurrency, buffer_k, theta, cfg.num_clients))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Eq. 8 oracle: with ϑ = 1 and a single buffered update,
    /// aggregation returns that update, coordinate for coordinate — ϑ = 1
    /// drops the old global exactly, and FedAvg replaces it outright
    /// (Eq. 3). FedBuff, FedStale and FedAvg divide by the weight sum, so
    /// the one weight is exactly 1; SEAFL's Eq. 6 multiplies by the sum's
    /// reciprocal, so its weight is 1 within an ulp and the result is the
    /// update scaled by exactly that weight. Holds at any staleness.
    #[test]
    fn one_update_at_full_mixing_becomes_the_global_model() {
        let algorithms = [
            Algorithm::Seafl(SeaflPolicy {
                theta: 1.0,
                ..SeaflPolicy::paper(4, 1, Some(10), StalenessPolicy::WaitForStale)
            }),
            Algorithm::FedBuff(FedBuffPolicy { concurrency: 4, buffer_k: 1, theta: 1.0 }),
            Algorithm::FedStale { concurrency: 4, buffer_k: 1, theta: 1.0 },
            Algorithm::fedavg(1),
        ];
        let global: Vec<f32> = (0..257).map(|i| (i as f32 * 0.37).sin()).collect();
        let params: Vec<f32> = (0..257).map(|i| (i as f32 * 0.11).cos() * 2.5 - 0.3).collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for algorithm in algorithms {
            for staleness in [0u64, 5] {
                let cfg = ExperimentConfig::quick(0, algorithm);
                cfg.validate();
                let mut policy = build_policy(&cfg);
                let round = 7;
                let update = ModelUpdate {
                    client_id: 2,
                    params: params.clone(),
                    num_samples: 37,
                    born_round: round - staleness,
                    epochs_completed: 5,
                    train_loss: 0.5,
                };
                let updates = std::slice::from_ref(&update);
                let what = format!("{} at staleness {staleness}", policy.name());
                let w = policy.weights_for_buffer(updates, &global, round);
                assert_eq!(w.len(), 1, "{what}");
                if policy.name() == "seafl" {
                    assert!((w[0] - 1.0).abs() <= f32::EPSILON, "{what}: weight {}", w[0]);
                } else {
                    assert_eq!(w[0], 1.0, "{what}");
                }
                let scaled: Vec<f32> = params.iter().map(|&p| w[0] * p).collect();
                let next = policy.aggregate(&global, updates, round);
                assert_eq!(bits(&next), bits(&scaled), "{what}: the old global leaked in");
            }
        }
    }
}
