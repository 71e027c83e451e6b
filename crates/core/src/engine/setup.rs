//! Shared experiment environment: data, partition, fleet, model, evaluation.

use crate::client::{LocalTrainer, TrainOutcome};
use crate::config::{ExperimentConfig, PartitionStrategy};
use crate::pool::{TrainJob, TrainerPool};
use crate::trainer::{CodecTransferStats, CohortTrainer, NetIncident, RemoteJob};
use rayon::prelude::*;
use seafl_data::{dirichlet_partition, iid_partition, ImageDataset, TaskPlan, TrainPlan};
use seafl_sim::rng::{rng_from_state, rng_state, stream_rng, streams};
use seafl_sim::{Fleet, LazyStreams, SimRng};
use std::collections::BTreeMap;

/// Largest evaluation minibatch (bounds peak activation memory).
const EVAL_CHUNK: usize = 256;

/// Materialized experiment state shared by both engines.
pub struct Environment {
    /// Parallel training executor holding the per-worker scratch trainers
    /// (sized by `cfg.threads`; see [`TrainerPool`]).
    pub pool: TrainerPool,
    /// Per-client training shards, made on first dispatch.
    pub shards: ClientShards,
    /// Server-side test set.
    pub test: ImageDataset,
    /// Lazily materialized device timing profiles, index-aligned with
    /// `shards` (profiles derive on demand from the master seed; see
    /// [`Fleet`]).
    pub fleet: Fleet,
    /// Initial global model state.
    pub initial_global: Vec<f32>,
    /// Encoded model size in bytes (network transfer model).
    pub model_bytes: usize,
    /// Per-client batch-shuffle RNG streams, materialized on first use
    /// (an untouched client's stream is a pure function of the master
    /// seed). Checkpointed sparsely: the engines snapshot and restore only
    /// the touched streams so resumed runs replay bit-identically.
    pub client_rngs: LazyStreams,
    /// Per-client idle-period RNG streams. Checkpointed alongside
    /// `client_rngs`.
    pub idle_rngs: LazyStreams,
    /// Probe size for gradient-norm measurements: the first `probe_len`
    /// test samples, materialized on demand via `batch_range` instead of
    /// keeping (and cloning) a resident tensor.
    probe_len: Option<usize>,
    /// Optional remote cohort executor (the transport seam; see
    /// `crate::trainer`). `None` — always, in pure simulation — trains on
    /// the local `pool`; the `seafl-net` server installs its fleet here.
    pub trainer: Option<Box<dyn CohortTrainer>>,
}

impl Environment {
    /// Build the full environment from a validated config.
    pub fn build(cfg: &ExperimentConfig) -> Self {
        // Dataset synthesis and partitioning use dedicated streams so the
        // data is identical across algorithms under the same seed — the
        // comparisons in Figs. 5/6 hinge on this.
        let data_seed = stream_rng(cfg.seed, streams::DATA).next_u64();
        let TaskPlan { train, test } =
            cfg.spec.plan(cfg.train_per_class, cfg.test_per_class, data_seed);

        let mut part_rng = stream_rng(cfg.seed, streams::PARTITION);
        let parts = match cfg.partition {
            PartitionStrategy::Dirichlet { alpha } => {
                dirichlet_partition(train.labels(), cfg.num_clients, alpha, &mut part_rng)
            }
            PartitionStrategy::Iid => iid_partition(train.len(), cfg.num_clients, &mut part_rng),
        };
        let shards = ClientShards { plan: train, parts, made: BTreeMap::new() };

        let fleet = Fleet::lazy(cfg.fleet.clone(), cfg.seed);

        let init_seed = stream_rng(cfg.seed, streams::INIT).next_u64();
        let model = cfg.model.build(init_seed);
        let initial_global = model.params_flat();
        let model_bytes = initial_global.len() * std::mem::size_of::<f32>();
        let trainer =
            LocalTrainer::new(model, cfg.lr, cfg.momentum, cfg.batch_size).with_prox(cfg.prox_mu);
        let pool = TrainerPool::new(trainer, cfg.threads);

        let client_rngs = LazyStreams::new(cfg.seed, streams::CLIENT_BASE, cfg.num_clients);
        let idle_rngs = LazyStreams::new(cfg.seed, streams::IDLE_BASE, cfg.num_clients);

        let probe_len = cfg.grad_norm_probe.then(|| test.len().min(EVAL_CHUNK));

        Environment {
            pool,
            shards,
            test,
            fleet,
            initial_global,
            model_bytes,
            client_rngs,
            idle_rngs,
            probe_len,
            trainer: None,
        }
    }

    /// Train a cohort of clients against `global`, in `picked` order.
    ///
    /// Routes through the installed remote [`CohortTrainer`] when present,
    /// recomputing any job it could not serve (a `None` slot) on the local
    /// pool — so a run always completes with the exact outcomes the pool
    /// alone would have produced. Returns the `(outcome, advanced RNG)`
    /// pairs index-aligned with `picked` (the caller writes the RNGs back),
    /// plus any link incidents the remote path recorded and the wire-codec
    /// transfer accounting (which slots arrived already projected, and how
    /// many raw vs encoded bytes they moved).
    pub(crate) fn train_cohort(
        &mut self,
        global: &[f32],
        picked: &[usize],
        epochs: usize,
        keep_snapshots: bool,
    ) -> (Vec<(TrainOutcome, SimRng)>, Vec<NetIncident>, CodecTransferStats) {
        let mut slots: Vec<Option<(TrainOutcome, SimRng)>> =
            (0..picked.len()).map(|_| None).collect();
        let mut incidents = Vec::new();
        let mut codec_stats = CodecTransferStats::default();
        if let Some(tr) = self.trainer.as_mut() {
            let jobs: Vec<RemoteJob> = picked
                .iter()
                .map(|&k| RemoteJob {
                    client_id: k,
                    epochs,
                    keep_snapshots,
                    rng: rng_state(&self.client_rngs.peek(k)),
                })
                .collect();
            let remote = tr.train_cohort(global, &jobs);
            incidents = tr.drain_incidents();
            codec_stats = tr.drain_codec_stats();
            debug_assert_eq!(remote.len(), jobs.len(), "trainer must answer every job");
            for (slot, served) in slots.iter_mut().zip(remote) {
                if let Some((outcome, rng)) = served {
                    *slot = Some((outcome, rng_from_state(rng)));
                }
            }
        }
        let local: Vec<usize> =
            picked.iter().zip(&slots).filter(|(_, slot)| slot.is_none()).map(|(&k, _)| k).collect();
        self.shards.make_missing(&local, &self.pool);
        let local_jobs: Vec<TrainJob<'_>> = local
            .iter()
            .map(|&k| TrainJob {
                client_id: k,
                data: self.shards.get(k),
                epochs,
                rng: self.client_rngs.peek(k),
                keep_snapshots,
            })
            .collect();
        if !local_jobs.is_empty() {
            let mut local = self.pool.train_cohort(global, local_jobs).into_iter();
            for slot in slots.iter_mut().filter(|slot| slot.is_none()) {
                *slot = local.next();
            }
        }
        let outcomes = slots.into_iter().map(|slot| slot.expect("cohort slot unserved")).collect();
        (outcomes, incidents, codec_stats)
    }

    /// Test-set accuracy of the given global state (chunked evaluation).
    ///
    /// Chunks evaluate independently (possibly across pool workers) and the
    /// per-chunk weighted accuracies are folded in chunk order, so the f64
    /// accumulation sequence — and hence the result — is bit-identical to
    /// the old sequential sweep no matter how many threads run.
    pub(crate) fn evaluate(&self, global: &[f32]) -> f64 {
        let n = self.test.len();
        let ranges: Vec<(usize, usize)> =
            (0..n).step_by(EVAL_CHUNK).map(|s| (s, (s + EVAL_CHUNK).min(n))).collect();
        // Borrow the two `Sync` fields, not `self`: `self.trainer` is a
        // `Box<dyn CohortTrainer>`, which is `Send` only, so `&self` cannot
        // cross into the pool's workers.
        let (pool, test) = (&self.pool, &self.test);
        let chunk = |&(s, e): &(usize, usize)| Self::eval_chunk(pool, test, global, s, e);
        let partials: Vec<f64> = if pool.is_sequential() || ranges.len() <= 1 {
            ranges.iter().map(chunk).collect()
        } else {
            pool.run(|| ranges.par_iter().map(chunk).collect())
        };
        partials.into_iter().sum::<f64>() / n as f64
    }

    /// Weighted accuracy (`accuracy × chunk size`) of one contiguous test
    /// chunk on a scratch model loaded with `global`.
    fn eval_chunk(
        pool: &TrainerPool,
        test: &ImageDataset,
        global: &[f32],
        start: usize,
        end: usize,
    ) -> f64 {
        let (x, y) = test.batch_range(start..end);
        pool.with_trainer(|t| {
            let model = t.model_mut();
            model.set_params_flat(global);
            let (_, acc) = model.evaluate(x, &y);
            acc * (end - start) as f64
        })
    }

    /// ‖∇f(w)‖² on the fixed probe batch (requires `grad_norm_probe`).
    pub(crate) fn grad_norm_sq(&self, global: &[f32]) -> f64 {
        let n = self.probe_len.expect("grad_norm_probe disabled");
        let (x, y) = self.test.batch_range(0..n);
        self.pool.with_trainer(|t| {
            let model = t.model_mut();
            model.set_params_flat(global);
            model.zero_grads();
            model.accumulate_grads(x, &y);
            let g = model.grads_flat();
            model.zero_grads();
            g.iter().map(|&v| v as f64 * v as f64).sum()
        })
    }
}

/// Per-client training shards, made the first time each client trains.
///
/// Holds the training-set plan and the partition. A shard is its part of
/// the plan: a pure function of the seed, so which shards are made, where
/// and in what order cannot show in any result. Like a device profile
/// ([`Fleet::lazy`]) or an RNG stream ([`LazyStreams`]), a client's data
/// costs nothing until it is dispatched.
pub struct ClientShards {
    plan: TrainPlan,
    /// Training-sample indices per client.
    parts: Vec<Vec<usize>>,
    made: BTreeMap<usize, ImageDataset>,
}

impl ClientShards {
    /// Number of clients.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True when there are no clients.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Samples in client `k`'s shard, made or not.
    pub fn shard_len(&self, k: usize) -> usize {
        self.parts[k].len()
    }

    /// Shards made so far (the `resident_shards` gauge).
    pub fn resident(&self) -> usize {
        self.made.len()
    }

    /// Make client `k`'s shard, without keeping it.
    fn make(&self, k: usize) -> ImageDataset {
        self.plan.subset(&self.parts[k])
    }

    /// Make and keep every shard of `clients` not made yet, in parallel on
    /// `pool` when more than one is missing.
    pub fn make_missing(&mut self, clients: &[usize], pool: &TrainerPool) {
        let missing: Vec<usize> =
            clients.iter().copied().filter(|k| !self.made.contains_key(k)).collect();
        let shards: Vec<ImageDataset> = if pool.is_sequential() || missing.len() <= 1 {
            missing.iter().map(|&k| self.make(k)).collect()
        } else {
            pool.run(|| missing.par_iter().map(|&k| self.make(k)).collect())
        };
        self.made.extend(missing.into_iter().zip(shards));
    }

    /// Client `k`'s shard; panics unless [`make_missing`](Self::make_missing)
    /// made it.
    pub fn get(&self, k: usize) -> &ImageDataset {
        self.made.get(&k).unwrap_or_else(|| panic!("client {k}'s shard was never made"))
    }
}

// Small extension trait to pull a u64 out of a SimRng without importing
// rand::Rng at every call site.
trait NextU64 {
    fn next_u64(&mut self) -> u64;
}
impl NextU64 for SimRng {
    fn next_u64(&mut self) -> u64 {
        rand::RngCore::next_u64(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;

    fn tiny_cfg(seed: u64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::quick(seed, Algorithm::fedbuff(5, 3));
        cfg.num_clients = 8;
        cfg.fleet = seafl_sim::FleetConfig::pareto_fleet(8);
        cfg.train_per_class = 20;
        cfg.test_per_class = 5;
        cfg.model = seafl_nn::ModelKind::Mlp { in_features: 28 * 28, hidden: 16, num_classes: 10 };
        cfg
    }

    #[test]
    fn build_produces_consistent_environment() {
        let cfg = tiny_cfg(0);
        let env = Environment::build(&cfg);
        assert_eq!(env.shards.len(), 8);
        assert_eq!(env.fleet.len(), 8);
        let lens: Vec<usize> = (0..8).map(|k| env.shards.shard_len(k)).collect();
        assert_eq!(lens.iter().sum::<usize>(), 200);
        assert!(lens.iter().all(|&n| n > 0));
        assert_eq!(env.model_bytes, env.initial_global.len() * 4);
    }

    #[test]
    fn same_seed_same_environment() {
        let cfg = tiny_cfg(3);
        let a = Environment::build(&cfg);
        let b = Environment::build(&cfg);
        assert_eq!(a.initial_global, b.initial_global);
        let (xa, ya) = a.shards.make(0).full_batch();
        let (xb, yb) = b.shards.make(0).full_batch();
        assert_eq!(xa, xb);
        assert_eq!(ya, yb);
    }

    fn bits(ds: &ImageDataset) -> Vec<u32> {
        ds.full_batch().0.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The shards as `build` made them before they were lazy: generate the
    /// whole training set, partition it and copy each part out.
    fn eager_shards(cfg: &ExperimentConfig) -> Vec<ImageDataset> {
        let data_seed = stream_rng(cfg.seed, streams::DATA).next_u64();
        let task = cfg.spec.generate(cfg.train_per_class, cfg.test_per_class, data_seed);
        let mut rng = stream_rng(cfg.seed, streams::PARTITION);
        let (labels, n) = (task.train.labels(), cfg.num_clients);
        let parts = match cfg.partition {
            PartitionStrategy::Dirichlet { alpha } => {
                dirichlet_partition(labels, n, alpha, &mut rng)
            }
            PartitionStrategy::Iid => iid_partition(labels.len(), n, &mut rng),
        };
        parts.iter().map(|idx| task.train.subset(idx)).collect()
    }

    #[test]
    fn lazy_shards_equal_the_eager_path() {
        let partitions = [PartitionStrategy::Dirichlet { alpha: 0.5 }, PartitionStrategy::Iid];
        for partition in partitions {
            for confusion in [0.0, 0.25] {
                let mut cfg = tiny_cfg(11);
                cfg.spec.confusion = confusion;
                cfg.partition = partition;
                let env = Environment::build(&cfg);
                let eager = eager_shards(&cfg);
                let case = format!("{partition:?}, confusion {confusion}");
                assert_eq!(env.shards.len(), eager.len(), "{case}");
                for (k, want) in eager.iter().enumerate() {
                    let got = env.shards.make(k);
                    assert_eq!(env.shards.shard_len(k), want.len(), "{case}, client {k}");
                    assert_eq!(got.labels(), want.labels(), "{case}, client {k}");
                    assert_eq!(bits(&got), bits(want), "{case}, client {k}");
                }
            }
        }
    }

    #[test]
    fn shards_are_made_when_a_cohort_first_trains() {
        for threads in [1, 2] {
            let mut cfg = tiny_cfg(5);
            cfg.threads = threads;
            let mut env = Environment::build(&cfg);
            assert_eq!(env.shards.resident(), 0);
            let global = env.initial_global.clone();
            let picked = [6, 1, 3];
            env.train_cohort(&global, &picked, 1, false);
            assert_eq!(env.shards.resident(), picked.len());
            for k in 0..cfg.num_clients {
                assert_eq!(env.shards.made.contains_key(&k), picked.contains(&k), "client {k}");
            }
            assert_eq!(bits(env.shards.get(6)), bits(&env.shards.make(6)));
            // Training again makes nothing new.
            env.train_cohort(&global, &[1, 6], 1, false);
            assert_eq!(env.shards.resident(), picked.len());
        }
    }

    #[test]
    fn untrained_model_accuracy_near_chance() {
        let cfg = tiny_cfg(1);
        let env = Environment::build(&cfg);
        let g = env.initial_global.clone();
        let acc = env.evaluate(&g);
        assert!(acc < 0.35, "untrained accuracy {acc} suspiciously high");
    }

    #[test]
    fn grad_norm_positive_for_untrained_model() {
        let mut cfg = tiny_cfg(2);
        cfg.grad_norm_probe = true;
        let env = Environment::build(&cfg);
        let g = env.initial_global.clone();
        assert!(env.grad_norm_sq(&g) > 0.0);
    }

    #[test]
    fn parallel_evaluate_bitwise_matches_sequential() {
        // Enough test samples for several EVAL_CHUNK-sized chunks.
        let mut cfg = tiny_cfg(4);
        cfg.test_per_class = 60;
        cfg.threads = 1;
        let seq_env = Environment::build(&cfg);
        cfg.threads = 4;
        let par_env = Environment::build(&cfg);
        let g = seq_env.initial_global.clone();
        assert_eq!(seq_env.evaluate(&g).to_bits(), par_env.evaluate(&g).to_bits());
    }

    #[test]
    #[should_panic(expected = "grad_norm_probe disabled")]
    fn grad_norm_requires_flag() {
        let cfg = tiny_cfg(2);
        let env = Environment::build(&cfg);
        let g = env.initial_global.clone();
        env.grad_norm_sq(&g);
    }
}
