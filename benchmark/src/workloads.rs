//! The four workloads: what each one is, and one timed repetition of it.
//!
//! Every workload is a closed loop: the engine dispatches a cohort, waits for
//! it, aggregates, and dispatches again, for a fixed number of rounds. A
//! repetition builds its own `Environment`, runs `run_loop`, and tears
//! everything down; the harness repeats it until the measuring time is used
//! up. README.md says why each workload exists and which layer it loads.

use crate::trace::{Recorder, TracedPolicy, TracedTrainer};
use seafl_core::engine::event_loop::run_loop;
use seafl_core::engine::setup::Environment;
use seafl_core::robust::RobustAggregator;
use seafl_core::{
    build_policy, resume_experiment, Algorithm, CheckpointStore, CodecStage, ExperimentConfig,
    ObsConfig, ObsMode, ObsSummary, PartitionStrategy, RunResult, ServerPolicy,
};
use seafl_data::sampling::ZipfIdle;
use seafl_data::SyntheticSpec;
use seafl_net::{Endpoint, NetClient, NetServer, NetStats};
use seafl_nn::ModelKind;
use seafl_sim::{CorruptionKind, FleetConfig};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TrainLenet,
    Fleet400k,
    WireTcp,
    ServerHardening,
}

/// Full size for measuring, or a seconds-long miniature for `--check`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Check,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::TrainLenet, Workload::Fleet400k, Workload::WireTcp, Workload::ServerHardening];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainLenet => "train_lenet",
            Workload::Fleet400k => "fleet_400k",
            Workload::WireTcp => "wire_tcp",
            Workload::ServerHardening => "server_hardening",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Test accuracy whose first crossing `paper.sim_time_to_target_s` and
    /// `paper.upload_mb_to_target` report (0 when a seed never gets there).
    /// `train_lenet`'s is the paper profile's; the others sit on the steep
    /// part of their own curves.
    pub fn target_accuracy(self) -> f64 {
        match self {
            Workload::TrainLenet => 0.70,
            Workload::Fleet400k => 0.50,
            Workload::WireTcp => 0.50,
            Workload::ServerHardening => 0.30,
        }
    }

    /// Final test accuracy below which a full-size run counts as broken.
    /// Far under what any seed reaches (chance is 0.10): a correctness
    /// check must not fail on an unlucky seed.
    pub fn accuracy_floor(self) -> f64 {
        match self {
            Workload::TrainLenet => 0.50,
            Workload::Fleet400k => 0.40,
            Workload::WireTcp => 0.50,
            Workload::ServerHardening => 0.25,
        }
    }
}

/// Threads every workload uses: all the machine has.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The experiment a workload runs, as a function of the seed alone.
pub fn config(workload: Workload, seed: u64, scale: Scale) -> ExperimentConfig {
    let full = scale == Scale::Full;
    // `quick` only supplies defaults for the knobs no workload touches;
    // everything that shapes the work is set explicitly below.
    let mut cfg = match workload {
        Workload::TrainLenet => {
            // seafl-bench's std evaluation profile for Fig. 5's EMNIST
            // scenario, under SEAFL² with the paper's M, K, β.
            let mut cfg = ExperimentConfig::quick(seed, Algorithm::seafl2(20, 10, 10));
            let mut spec = SyntheticSpec::emnist_like();
            spec.noise_std = 1.5;
            spec.confusion = 0.5;
            spec.amp_jitter = 0.6;
            cfg.spec = spec;
            cfg.model = ModelKind::LeNet5 { num_classes: 10 };
            cfg.num_clients = 40;
            cfg.train_per_class = if full { 80 } else { 24 };
            cfg.test_per_class = 50;
            cfg.partition = PartitionStrategy::Iid;
            cfg.fleet = FleetConfig::pareto_fleet(40);
            cfg.fleet.zipf_idle = Some(ZipfIdle::paper_default());
            cfg.local_epochs = 5;
            cfg.batch_size = 20;
            cfg.max_rounds = if full { 16 } else { 3 };
            cfg.eval_every = 2;
            cfg
        }
        Workload::Fleet400k => {
            let clients = if full { 400_000 } else { 20_000 };
            let (m, k) = if full { (512, 64) } else { (64, 16) };
            let mut cfg = ExperimentConfig::quick(seed, Algorithm::seafl2(m, k, 10));
            cfg.spec = SyntheticSpec {
                name: "fleet-8x8",
                channels: 1,
                height: 8,
                width: 8,
                num_classes: 10,
                proto_grid: 8,
                noise_std: 0.8,
                amp_jitter: 0.3,
                confusion: 0.0,
            };
            cfg.model = ModelKind::Mlp { in_features: 64, hidden: 16, num_classes: 10 };
            cfg.num_clients = clients;
            // IID, one sample per client.
            cfg.train_per_class = clients / 10;
            cfg.test_per_class = 200;
            cfg.partition = PartitionStrategy::Iid;
            cfg.fleet = FleetConfig::pareto_fleet(clients);
            cfg.local_epochs = 1;
            cfg.batch_size = 8;
            cfg.lr = 0.1;
            cfg.max_rounds = if full { 400 } else { 40 };
            cfg.eval_every = 10;
            cfg
        }
        Workload::WireTcp => {
            let mut cfg = ExperimentConfig::quick(seed, Algorithm::seafl2(20, 10, 10));
            cfg.model = ModelKind::Mlp { in_features: 28 * 28, hidden: 128, num_classes: 10 };
            cfg.num_clients = 40;
            // 40 clients × 10 samples.
            cfg.train_per_class = 40;
            cfg.test_per_class = 50;
            cfg.partition = PartitionStrategy::Iid;
            cfg.fleet = FleetConfig::pareto_fleet(40);
            cfg.local_epochs = 2;
            cfg.batch_size = 32;
            cfg.max_rounds = if full { 50 } else { 4 };
            cfg
        }
        Workload::ServerHardening => {
            let mut cfg = ExperimentConfig::quick(seed, Algorithm::seafl(48, 24, Some(10)));
            cfg.spec.noise_std = 0.5;
            cfg.spec.confusion = 0.0;
            cfg.model = ModelKind::Mlp { in_features: 28 * 28, hidden: 64, num_classes: 10 };
            cfg.num_clients = 80;
            cfg.train_per_class = 80;
            cfg.test_per_class = 100;
            cfg.partition = PartitionStrategy::Dirichlet { alpha: 0.5 };
            cfg.fleet = FleetConfig::pareto_fleet(80);
            cfg.local_epochs = 2;
            cfg.batch_size = 32;
            cfg.lr = 0.1;
            seafl_core::test_support::apply_attack_overlay(&mut cfg);
            cfg.robust.rule = RobustAggregator::Krum { f: 6, multi: 12 };
            cfg.faults.upload_drop_prob = 0.10;
            cfg.faults.corrupt_prob = 0.10;
            cfg.faults.corruption = CorruptionKind::NanBurst { count: 4 };
            cfg.resilience.max_update_norm_ratio = Some(50.0);
            cfg.codec.stages = vec![CodecStage::TopK { k: 2048 }];
            cfg.codec.error_feedback = true;
            cfg.checkpoint_every = Some(1);
            cfg.max_rounds = if full { 12 } else { 4 };
            cfg
        }
    };
    cfg.max_sim_time = 1.0e9;
    cfg.stop_at_accuracy = None;
    cfg.threads = nproc();
    cfg.obs = ObsConfig::off();
    cfg.validate();
    cfg
}

/// What one repetition measured and produced.
pub struct Rep {
    pub traced: bool,
    /// `Environment::build`, plus bind and worker handshake on `wire_tcp`.
    pub setup_s: f64,
    /// Seconds inside `run_loop` (plus `resume_experiment` on
    /// `server_hardening`) for the fixed work.
    pub wall_s: f64,
    pub updates: usize,
    pub rounds: u64,
    pub final_accuracy: f64,
    pub upload_bytes: u64,
    pub sim_time_to_target_s: Option<f64>,
    pub upload_bytes_to_target: Option<u64>,
    pub model_digest: u64,
    pub trace_digest: u64,
    pub trace_events: usize,
    /// Engine phase totals (traced repetitions only).
    pub obs: Option<ObsSummary>,
    /// Run id of this repetition's spans in the recorder.
    pub span_run: Option<u32>,
    /// Wire counters (`wire_tcp` only).
    pub net: Option<NetStats>,
    /// Seconds `resume_experiment` took (`server_hardening` only).
    pub resume_s: Option<f64>,
    /// Size of the newest snapshot on disk (`server_hardening` only).
    pub snapshot_bytes: Option<u64>,
}

/// `build_policy(cfg)`, wrapped in a [`TracedPolicy`] when tracing.
fn policy_for(cfg: &ExperimentConfig, recorder: Option<&Recorder>) -> Box<dyn ServerPolicy> {
    match recorder {
        Some(rec) => Box::new(TracedPolicy::new(build_policy(cfg), rec.clone())),
        None => build_policy(cfg),
    }
}

/// `run_loop` under an `engine.run_loop` root span; returns the result and
/// the seconds it took.
fn timed_run_loop(
    cfg: &ExperimentConfig,
    env: &mut Environment,
    recorder: Option<&Recorder>,
) -> (RunResult, f64) {
    let policy = policy_for(cfg, recorder);
    let t = Instant::now();
    let _root = recorder.map(|r| r.enter("engine.run_loop"));
    let result = run_loop(cfg, env, policy);
    (result, t.elapsed().as_secs_f64())
}

fn rep_from(
    workload: Workload,
    recorder: Option<&Recorder>,
    span_run: Option<u32>,
    setup_s: f64,
    (result, wall_s): (RunResult, f64),
) -> Rep {
    let target = workload.target_accuracy();
    Rep {
        traced: recorder.is_some(),
        setup_s,
        wall_s,
        updates: result.total_updates,
        rounds: result.rounds,
        final_accuracy: result.final_accuracy(),
        upload_bytes: result.codec_bytes_encoded,
        sim_time_to_target_s: result.time_to_accuracy(target),
        upload_bytes_to_target: result.bytes_to_accuracy(target),
        model_digest: result.model_digest,
        trace_digest: result.trace.digest(),
        trace_events: result.trace.len(),
        obs: recorder.is_some().then_some(result.obs),
        span_run,
        net: None,
        resume_s: None,
        snapshot_bytes: None,
    }
}

/// One repetition of `workload` under `cfg` (from [`config`]). With a
/// recorder the repetition is traced: `ObsMode::Summary`, a
/// [`TracedPolicy`], and on `wire_tcp` a [`TracedTrainer`].
pub fn run_rep(
    workload: Workload,
    cfg: &ExperimentConfig,
    out_dir: &Path,
    recorder: Option<&Recorder>,
) -> Result<Rep, String> {
    let mut cfg = cfg.clone();
    if recorder.is_some() {
        cfg.obs = ObsConfig { mode: ObsMode::Summary, jsonl_path: None };
    }
    let span_run = recorder.map(Recorder::next_run);
    if workload == Workload::WireTcp {
        return run_wire_rep(&cfg, recorder, span_run);
    }
    let ckpt_dir = out_dir.join("server_hardening.ckpt");
    if workload == Workload::ServerHardening {
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        cfg.checkpoint_dir = Some(ckpt_dir.clone());
    }
    let t = Instant::now();
    let mut env = Environment::build(&cfg);
    let setup_s = t.elapsed().as_secs_f64();
    let timed = timed_run_loop(&cfg, &mut env, recorder);
    drop(env);
    let mut rep = rep_from(workload, recorder, span_run, setup_s, timed);
    if workload != Workload::ServerHardening {
        return Ok(rep);
    }

    // Drop the newest snapshot so the resume replays one real round from
    // the one before it, then finish and compare.
    let store = CheckpointStore::new(&ckpt_dir, cfg.keep_last).map_err(|e| e.to_string())?;
    let mut snapshots = store.list().map_err(|e| e.to_string())?;
    let newest = snapshots.pop().ok_or("server_hardening wrote no checkpoint")?;
    rep.snapshot_bytes =
        Some(std::fs::metadata(&newest).map_err(|e| format!("{}: {e}", newest.display()))?.len());
    if !snapshots.is_empty() {
        std::fs::remove_file(&newest).map_err(|e| format!("{}: {e}", newest.display()))?;
    }
    let t = Instant::now();
    let resumed = {
        let _root = recorder.map(|r| r.enter("engine.resume_experiment"));
        resume_experiment(&cfg, &ckpt_dir).map_err(|e| format!("resume failed: {e}"))?
    };
    let resume_s = t.elapsed().as_secs_f64();
    rep.resume_s = Some(resume_s);
    rep.wall_s += resume_s;
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    if (resumed.model_digest, resumed.trace.digest()) != (rep.model_digest, rep.trace_digest) {
        return Err(format!(
            "resumed run ended on model {:016x} / trace {:016x}, uninterrupted run on {:016x} / \
             {:016x}",
            resumed.model_digest,
            resumed.trace.digest(),
            rep.model_digest,
            rep.trace_digest
        ));
    }
    Ok(rep)
}

/// `wire_tcp`: the engine on this thread with a `NetServer` as its trainer,
/// and `nproc` `NetClient` workers on threads of this process, one TCP
/// connection each.
fn run_wire_rep(
    cfg: &ExperimentConfig,
    recorder: Option<&Recorder>,
    span_run: Option<u32>,
) -> Result<Rep, String> {
    let workers = nproc();
    let t = Instant::now();
    let mut server_cfg = cfg.clone();
    server_cfg.transport.listen = Some("tcp://127.0.0.1:0".into());
    let stats = Arc::new(Mutex::new(NetStats::default()));
    let ep = Endpoint::parse("tcp://127.0.0.1:0").map_err(|e| e.to_string())?;
    let mut server = NetServer::bind(&ep, &server_cfg, stats.clone()).map_err(|e| e.to_string())?;
    let bound = server.local_endpoint().to_string();

    // Workers train one job at a time; their own pools stay sequential so
    // the process never runs more compute threads than `nproc`.
    let mut worker_cfg = cfg.clone();
    worker_cfg.transport.connect = Some(bound);
    worker_cfg.threads = 1;
    let handles: Vec<_> = (0..workers)
        .map(|link| {
            let wcfg = worker_cfg.clone();
            std::thread::Builder::new()
                .name(format!("net-client-{link}"))
                .spawn(move || -> Result<(), String> {
                    let mut client =
                        NetClient::new(wcfg, link as u64, None).map_err(|e| e.to_string())?;
                    client.run().map_err(|e| e.to_string())
                })
                .map_err(|e| format!("spawn worker {link}: {e}"))
        })
        .collect::<Result<_, _>>()?;

    let mut env = Environment::build(&server_cfg);
    server.wait_for_workers(workers, Duration::from_secs(60)).map_err(|e| e.to_string())?;
    env.trainer = Some(match recorder {
        Some(rec) => Box::new(TracedTrainer::new(Box::new(server), rec.clone())),
        None => Box::new(server),
    });
    let setup_s = t.elapsed().as_secs_f64();

    let timed = timed_run_loop(&server_cfg, &mut env, recorder);

    if let Some(trainer) = env.trainer.as_mut() {
        trainer.shutdown();
    }
    drop(env);
    for (link, handle) in handles.into_iter().enumerate() {
        match handle.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return Err(format!("worker {link} failed: {e}")),
            Err(_) => return Err(format!("worker {link} panicked")),
        }
    }
    let net = *stats.lock().map_err(|_| "net stats mutex poisoned")?;
    let mut rep = rep_from(Workload::WireTcp, recorder, span_run, setup_s, timed);
    rep.net = Some(net);
    Ok(rep)
}

/// The same experiment as `wire_tcp`, trained on the local pool: the digest
/// reference for the wire run and the base of its wire-overhead metric.
/// Returns `(wall_s, model_digest, trace_digest)`.
pub fn run_wire_reference(cfg: &ExperimentConfig) -> (f64, u64, u64) {
    let mut env = Environment::build(cfg);
    let (result, wall_s) = timed_run_loop(cfg, &mut env, None);
    (wall_s, result.model_digest, result.trace.digest())
}
