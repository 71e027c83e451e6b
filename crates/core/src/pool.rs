//! Parallel client-training executor.
//!
//! Both engines simulate fleets of clients whose local training sessions are
//! *mutually independent*: a session's result is a pure function of the
//! global snapshot it starts from, the client's own RNG stream, and the
//! client's read-only data shard. [`TrainerPool`] exploits that to train a
//! whole cohort in parallel across rayon workers while staying **bitwise
//! identical** to sequential execution:
//!
//! * Each job owns its RNG (the per-client stream advances exactly as it
//!   would sequentially, regardless of which worker runs the job or when).
//! * Each worker trains on its own scratch [`LocalTrainer`]; a trainer fully
//!   resets per session (`set_params_flat` + optimizer reset), so *which*
//!   scratch instance a job lands on cannot influence the result.
//! * Results are collected positionally (`collect` on an indexed parallel
//!   iterator), so output order equals job order, not completion order.
//! * All floating-point work stays within one job; nothing is reduced across
//!   jobs, so there is no reduction-order sensitivity to begin with.
//!
//! `threads = 1` short-circuits rayon entirely and replays the exact
//! pre-pool sequential code path; `threads = 0` uses the global rayon pool;
//! `threads >= 2` runs on a dedicated pool of that size. The
//! `tests/parallel_determinism.rs` suite pins the bitwise guarantee across
//! all algorithms.
//!
//! A dedicated pool also keeps its worker threads — and therefore the
//! per-thread GEMM scratch arenas in `seafl_tensor::pack` — alive across
//! cohorts: after the first session on each worker, panel packing in the
//! training hot path reuses pooled buffers instead of allocating.

use crate::client::{LocalTrainer, TrainOutcome};
use rayon::prelude::*;
use seafl_data::ImageDataset;
use seafl_sim::SimRng;
use std::sync::{Mutex, MutexGuard};

/// One client-training work item: everything a session's result depends on.
pub struct TrainJob<'a> {
    /// Client identity (carried through for the caller's bookkeeping).
    pub client_id: usize,
    /// The client's read-only training shard.
    pub data: &'a ImageDataset,
    /// Local epochs to run.
    pub epochs: usize,
    /// The client's batch-shuffle RNG, owned by the job so the stream
    /// advances identically regardless of execution order. Returned
    /// alongside the outcome so the caller can store it back.
    pub rng: SimRng,
    /// Keep per-epoch snapshots (SEAFL² partial uploads).
    pub keep_snapshots: bool,
}

/// A pool of per-worker scratch [`LocalTrainer`]s plus the rayon runtime the
/// cohort fan-out runs on.
pub struct TrainerPool {
    /// The configured `threads` knob (0 = rayon default, 1 = sequential).
    threads: usize,
    /// Effective worker count.
    workers: usize,
    /// Dedicated rayon pool when `threads >= 2`; `None` means the global
    /// pool (threads = 0) or pure sequential execution (threads = 1).
    rt: Option<rayon::ThreadPool>,
    inner: Mutex<Inner>,
    batch_size: usize,
}

struct Inner {
    /// Prototype trainer the scratch instances are cloned from (also serves
    /// lazy growth if a checkout ever races past the eager set).
    proto: LocalTrainer,
    /// Idle scratch trainers, checked out for the duration of one job.
    idle: Vec<LocalTrainer>,
}

impl TrainerPool {
    /// Build a pool around a prototype trainer. `threads` semantics:
    /// `0` = size to the global rayon pool, `1` = exact sequential code
    /// path, `n >= 2` = dedicated rayon pool of `n` threads.
    pub fn new(proto: LocalTrainer, threads: usize) -> Self {
        let rt = threads.ge(&2).then(|| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("TrainerPool: failed to build rayon pool")
        });
        let workers = match threads {
            0 => rayon::current_num_threads().max(1),
            n => n,
        };
        let batch_size = proto.batch_size();
        // One scratch trainer per worker, cloned once up front so the hot
        // path never constructs models.
        let idle = (0..workers).map(|_| proto.clone()).collect();
        TrainerPool { threads, workers, rt, inner: Mutex::new(Inner { proto, idle }), batch_size }
    }

    /// The configured `threads` knob (0 = rayon default).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Effective number of workers jobs can run on concurrently.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// True when the pool replays the exact sequential code path.
    pub fn is_sequential(&self) -> bool {
        self.workers == 1
    }

    /// Batches per local epoch for a shard of `n` samples.
    pub fn batches_per_epoch(&self, n: usize) -> usize {
        n.div_ceil(self.batch_size)
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("TrainerPool: nothing panics while the trainer list is locked")
    }

    fn checkout(&self) -> LocalTrainer {
        let mut inner = self.lock();
        inner.idle.pop().unwrap_or_else(|| inner.proto.clone())
    }

    fn checkin(&self, trainer: LocalTrainer) {
        self.lock().idle.push(trainer);
    }

    /// Run `f` with exclusive access to one scratch trainer (evaluation,
    /// gradient probes). The trainer's state is unspecified on entry — load
    /// it before use.
    pub fn with_trainer<R>(&self, f: impl FnOnce(&mut LocalTrainer) -> R) -> R {
        let mut trainer = self.checkout();
        let r = f(&mut trainer);
        self.checkin(trainer);
        r
    }

    /// Execute `f` inside this pool's rayon runtime (the global pool when no
    /// dedicated one exists), so `par_iter` calls inside `f` are bounded by
    /// the configured thread count.
    pub fn run<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        match &self.rt {
            Some(p) => p.install(f),
            None => f(),
        }
    }

    /// Train a whole cohort against the same global snapshot. The result at
    /// index `i` belongs to `jobs[i]` and is bitwise identical whether the
    /// cohort ran sequentially or across workers (see module docs). Each
    /// job's advanced RNG is handed back with its outcome.
    pub fn train_cohort(
        &self,
        global: &[f32],
        jobs: Vec<TrainJob<'_>>,
    ) -> Vec<(TrainOutcome, SimRng)> {
        let one = |mut job: TrainJob<'_>, trainer: &mut LocalTrainer| {
            let outcome =
                trainer.train(global, job.data, job.epochs, &mut job.rng, job.keep_snapshots);
            (outcome, job.rng)
        };
        if self.workers == 1 || jobs.len() <= 1 {
            // Sequential: one scratch trainer, jobs in order — the exact
            // pre-pool code path.
            self.with_trainer(|trainer| jobs.into_iter().map(|job| one(job, trainer)).collect())
        } else {
            self.run(|| {
                jobs.into_par_iter()
                    .map(|job| self.with_trainer(|trainer| one(job, trainer)))
                    .collect()
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use seafl_data::SyntheticSpec;
    use seafl_nn::ModelKind;

    fn shards_and_global() -> (Vec<ImageDataset>, Vec<f32>, LocalTrainer) {
        let task = SyntheticSpec::emnist_like().generate(12, 2, 0);
        let kind = ModelKind::Mlp { in_features: 28 * 28, hidden: 16, num_classes: 10 };
        let model = kind.build(3);
        let global = model.params_flat();
        let proto = LocalTrainer::new(model, 0.05, 0.0, 16);
        let n = task.train.len();
        let shards = (0..4)
            .map(|s| {
                let idx: Vec<usize> = (s * n / 4..(s + 1) * n / 4).collect();
                task.train.subset(&idx)
            })
            .collect();
        (shards, global, proto)
    }

    fn jobs<'a>(shards: &'a [ImageDataset], order: &[usize]) -> Vec<TrainJob<'a>> {
        order
            .iter()
            .map(|&k| TrainJob {
                client_id: k,
                data: &shards[k],
                epochs: 2,
                rng: SimRng::seed_from_u64(100 + k as u64),
                keep_snapshots: k % 2 == 0,
            })
            .collect()
    }

    #[test]
    fn parallel_bitwise_matches_sequential() {
        let (shards, global, proto) = shards_and_global();
        let seq = TrainerPool::new(proto.clone(), 1);
        let par = TrainerPool::new(proto, 4);
        let a = seq.train_cohort(&global, jobs(&shards, &[0, 1, 2, 3]));
        let b = par.train_cohort(&global, jobs(&shards, &[0, 1, 2, 3]));
        assert_eq!(a.len(), b.len());
        for ((oa, ra), (ob, rb)) in a.iter().zip(b.iter()) {
            assert_eq!(oa.snapshots, ob.snapshots);
            assert_eq!(oa.epoch_losses, ob.epoch_losses);
            // The RNG streams advanced identically.
            assert_eq!(ra.clone().next_u64(), rb.clone().next_u64());
        }
    }

    #[test]
    fn cohort_order_never_affects_outcomes() {
        let (shards, global, proto) = shards_and_global();
        let pool = TrainerPool::new(proto, 4);
        let fwd = pool.train_cohort(&global, jobs(&shards, &[0, 1, 2, 3]));
        let rev = pool.train_cohort(&global, jobs(&shards, &[3, 2, 1, 0]));
        for (i, &k) in [3usize, 2, 1, 0].iter().enumerate() {
            assert_eq!(fwd[k].0.snapshots, rev[i].0.snapshots, "client {k} order-sensitive");
            assert_eq!(fwd[k].0.epoch_losses, rev[i].0.epoch_losses);
        }
    }

    #[test]
    fn pool_reuse_leaks_no_state_across_cohorts() {
        let (shards, global, proto) = shards_and_global();
        let pool = TrainerPool::new(proto, 2);
        let a = pool.train_cohort(&global, jobs(&shards, &[0, 1, 2, 3]));
        let b = pool.train_cohort(&global, jobs(&shards, &[0, 1, 2, 3]));
        for ((oa, _), (ob, _)) in a.iter().zip(b.iter()) {
            assert_eq!(oa.snapshots, ob.snapshots);
        }
    }

    #[test]
    fn knob_semantics() {
        let (_, _, proto) = shards_and_global();
        let seq = TrainerPool::new(proto.clone(), 1);
        assert!(seq.is_sequential());
        assert_eq!(seq.workers(), 1);
        assert_eq!(seq.threads(), 1);
        let three = TrainerPool::new(proto.clone(), 3);
        assert_eq!(three.workers(), 3);
        assert!(!three.is_sequential());
        let auto = TrainerPool::new(proto, 0);
        assert_eq!(auto.threads(), 0);
        assert!(auto.workers() >= 1);
    }

    #[test]
    fn batches_per_epoch_matches_trainer() {
        let (_, _, proto) = shards_and_global();
        let pool = TrainerPool::new(proto.clone(), 1);
        for n in [1usize, 15, 16, 17, 80] {
            assert_eq!(pool.batches_per_epoch(n), proto.batches_per_epoch(n));
        }
    }

    #[test]
    fn empty_cohort_is_fine() {
        let (_, _, proto) = shards_and_global();
        let pool = TrainerPool::new(proto, 4);
        let global = vec![0.0f32];
        assert!(pool.train_cohort(&global, Vec::new()).is_empty());
    }
}
