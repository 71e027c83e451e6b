//! Probes: direct, timed calls to a layer's public functions at the sizes
//! the workloads issue. Each probe warms up, then reports the median of
//! [`SAMPLES`] timed samples ([`SAMPLES_SLOW`] when one call takes longer
//! than [`SLOW_CALL`]); a sample repeats the call until it lasts about
//! [`SAMPLE_TARGET`], so short calls are not timer noise.
//!
//! To add a probe: write a function that builds its inputs from `seed`,
//! times the call with [`time_call`], and pushes one `Metric` per number;
//! call it from [`run_all`]; add the metric name to `per_layer` in
//! `BENCHMARK.json` and to the table in README.md.

use crate::stats::median;
use crate::workloads::nproc;
use crate::Metric;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use seafl_core::checkpoint::{CheckpointStore, ENGINE_UNIFIED};
use seafl_core::robust::{RobustAggregator, RobustConfig, RobustLayer};
use seafl_core::selection::select_clients;
use seafl_core::{
    FleetTable, GenDelta, LocalTrainer, ModelRing, ModelUpdate, SelectionPolicy, TopK, TrainJob,
    TrainOutcome, TrainerPool, UpdateCodec,
};
use seafl_data::ImageDataset;
use seafl_net::{msg, Frame, FrameDecoder, FrameKind};
use seafl_nn::{ModelKind, Sgd};
use seafl_sim::rng::{rng_state, stream_rng};
use seafl_sim::{ClientId, EventQueue, Fleet, FleetConfig, SimTime};
use seafl_tensor::conv::{conv2d_backward, conv2d_forward, Conv2dGeom};
use seafl_tensor::matmul::{dot_blocked, matmul, matmul_a_bt_bias, matmul_at_b};
use seafl_tensor::{Shape, Tensor};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

const SAMPLES: usize = 11;
const SAMPLES_SLOW: usize = 5;
const SLOW_CALL: Duration = Duration::from_millis(50);
const SAMPLE_TARGET: Duration = Duration::from_millis(2);

/// Median seconds per call of `f`.
pub fn time_call<R>(mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let t = Instant::now();
    black_box(f());
    let once = t.elapsed();
    let iters = (SAMPLE_TARGET.as_secs_f64() / once.as_secs_f64().max(1e-9)).ceil().max(1.0);
    let samples = if once > SLOW_CALL { SAMPLES_SLOW } else { SAMPLES };
    let per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters as u64 {
                black_box(f());
            }
            t.elapsed().as_secs_f64() / iters
        })
        .collect();
    median(&per_call)
}

fn random_vec(n: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..n).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect()
}

fn random_tensor(shape: Shape, rng: &mut StdRng) -> Tensor {
    Tensor::from_vec(shape, random_vec(shape.len(), rng))
}

/// A model `drift` away from `reference` in every coordinate, like a
/// locally trained update.
fn drifted(reference: &[f32], drift: f32, rng: &mut StdRng) -> Vec<f32> {
    reference.iter().map(|&r| r + drift * (rng.gen::<f32>() * 2.0 - 1.0)).collect()
}

/// `n` random images of the EMNIST shape with labels 0..10 in turn.
fn random_images(n: usize, rng: &mut StdRng) -> ImageDataset {
    ImageDataset::new(random_vec(n * 28 * 28, rng), (0..n).map(|i| i % 10).collect(), 1, 28, 28, 10)
}

const BATCH: usize = 20;
/// LeNet-5's three dense layers as `(in, out)`.
const LENET_DENSE: [(usize, usize); 3] = [(400, 120), (120, 84), (84, 10)];
/// LeNet-5's parameter count, the `d` of every per-update vector op on
/// `train_lenet`.
const LENET_PARAMS: usize = 61_706;
/// Parameter counts of the MLPs of `server_hardening` and `wire_tcp`.
const MLP64_PARAMS: usize = 50_890;
const MLP128_PARAMS: usize = 101_770;

fn lenet_convs() -> [(Conv2dGeom, usize); 2] {
    [
        (Conv2dGeom { in_c: 1, in_h: 28, in_w: 28, k_h: 5, k_w: 5, stride: 1, pad: 2 }, 6),
        (Conv2dGeom { in_c: 6, in_h: 14, in_w: 14, k_h: 5, k_w: 5, stride: 1, pad: 0 }, 16),
    ]
}

fn tensor_probes(out: &mut Vec<Metric>, rng: &mut StdRng) {
    // Forward, weight-gradient and input-gradient GEMMs of the three dense
    // layers at batch 20, as `seafl_nn::Dense` issues them.
    let layers: Vec<(Tensor, Tensor, Vec<f32>, Tensor)> = LENET_DENSE
        .iter()
        .map(|&(i, o)| {
            (
                random_tensor(Shape::d2(BATCH, i), rng),
                random_tensor(Shape::d2(o, i), rng),
                random_vec(o, rng),
                random_tensor(Shape::d2(BATCH, o), rng),
            )
        })
        .collect();
    let flops: f64 = LENET_DENSE.iter().map(|&(i, o)| 3.0 * 2.0 * (BATCH * i * o) as f64).sum();
    let secs = time_call(|| {
        for (x, w, bias, grad_out) in &layers {
            black_box(matmul_a_bt_bias(x, w, bias));
            black_box(matmul_at_b(grad_out, x));
            black_box(matmul(grad_out, w));
        }
    });
    out.push(Metric::new("tensor.gemm_dense_gflops", flops / secs / 1e9, "GFLOP/s"));

    let convs: Vec<(Conv2dGeom, Tensor, Tensor, Vec<f32>, Tensor)> = lenet_convs()
        .iter()
        .map(|&(g, oc)| {
            (
                g,
                random_tensor(Shape::d4(BATCH, g.in_c, g.in_h, g.in_w), rng),
                random_tensor(Shape::d2(oc, g.patch_len()), rng),
                random_vec(oc, rng),
                random_tensor(Shape::d4(BATCH, oc, g.out_h(), g.out_w()), rng),
            )
        })
        .collect();
    let conv_flops: f64 = lenet_convs()
        .iter()
        .map(|&(g, oc)| 2.0 * (BATCH * oc * g.out_h() * g.out_w() * g.patch_len()) as f64)
        .sum();
    let secs = time_call(|| {
        for (g, x, w, bias, _) in &convs {
            black_box(conv2d_forward(x, w, bias, g));
        }
    });
    out.push(Metric::new("tensor.conv_fwd_gflops", conv_flops / secs / 1e9, "GFLOP/s"));
    // Backward is a weight-gradient and an input-gradient GEMM of the
    // forward's size each.
    let secs = time_call(|| {
        for (g, x, w, _, grad_out) in &convs {
            black_box(conv2d_backward(grad_out, x, w, g));
        }
    });
    out.push(Metric::new("tensor.conv_bwd_gflops", 2.0 * conv_flops / secs / 1e9, "GFLOP/s"));

    let a = random_tensor(Shape::d2(256, 256), rng);
    let b = random_tensor(Shape::d2(256, 256), rng);
    let secs = time_call(|| matmul(&a, &b));
    out.push(Metric::new("tensor.gemm_sq256_gflops", 2.0 * 256f64.powi(3) / secs / 1e9, "GFLOP/s"));

    let (x, y) = (random_vec(LENET_PARAMS, rng), random_vec(LENET_PARAMS, rng));
    let secs = time_call(|| dot_blocked(&x, &y));
    out.push(Metric::new("tensor.dot_gb_s", (2 * 4 * LENET_PARAMS) as f64 / secs / 1e9, "GB/s"));
}

fn nn_probes(out: &mut Vec<Metric>, seed: u64, rng: &mut StdRng) {
    let mut lenet = ModelKind::LeNet5 { num_classes: 10 }.build(seed);
    // A small step keeps hundreds of repeats on one batch from blowing the
    // weights up into non-finite (and differently timed) arithmetic.
    let mut opt = Sgd::new(0.001);
    let (x, y) = random_images(BATCH, rng).full_batch();
    let secs = time_call(|| lenet.train_batch(x.clone(), &y, &mut opt));
    out.push(Metric::new("nn.lenet_step_ms", secs * 1e3, "ms"));

    let (ex, ey) = random_images(200, rng).full_batch();
    let secs = time_call(|| lenet.evaluate(ex.clone(), &ey));
    out.push(Metric::new("nn.lenet_eval_us_per_sample", secs * 1e6 / 200.0, "us"));

    let mut mlp = ModelKind::Mlp { in_features: 784, hidden: 128, num_classes: 10 }.build(seed);
    let (mx, my) = random_images(32, rng).full_batch();
    let mut mlp_opt = Sgd::new(0.001);
    let secs = time_call(|| mlp.train_batch(mx.clone(), &my, &mut mlp_opt));
    out.push(Metric::new("nn.mlp_step_ms", secs * 1e3, "ms"));
}

fn sim_probes(out: &mut Vec<Metric>, seed: u64, rng: &mut StdRng) {
    // Steady state of the engine's clock: 512 resident events, each pop
    // followed by one schedule a little later.
    const RESIDENT: usize = 512;
    const BURST: usize = 4096;
    let mut queue: EventQueue<u32> = EventQueue::new();
    for i in 0..RESIDENT {
        queue.schedule(SimTime::from_secs(rng.gen::<f64>() * 30.0), i as u32);
    }
    let delays: Vec<f64> = (0..BURST).map(|_| 0.5 + rng.gen::<f64>() * 30.0).collect();
    let secs = time_call(|| {
        for &d in &delays {
            let (now, ev) = queue.pop().expect("the queue never drains: every pop reschedules");
            queue.schedule(now.after(d), ev);
        }
    });
    out.push(Metric::new("sim.queue_mevents_per_s", BURST as f64 / secs / 1e6, "Mev/s"));

    let fleet = Fleet::lazy(FleetConfig::pareto_fleet(400_000), seed);
    let ids: Vec<ClientId> =
        (0..1024).map(|_| ClientId::new(rng.gen_range(0..400_000usize))).collect();
    let secs = time_call(|| {
        for &id in &ids {
            black_box(fleet.profile(id));
        }
    });
    out.push(Metric::new("sim.fleet_profile_ns", secs * 1e9 / ids.len() as f64, "ns"));
}

fn pool_probes(out: &mut Vec<Metric>, seed: u64, rng: &mut StdRng) {
    // One cohort of 20 LeNet jobs (10 samples, one epoch each) on one
    // thread and on all of them.
    let model = ModelKind::LeNet5 { num_classes: 10 }.build(seed);
    let global = model.params_flat();
    let proto = LocalTrainer::new(model, 0.03, 0.0, BATCH);
    let shards: Vec<ImageDataset> = (0..20).map(|_| random_images(10, rng)).collect();
    let cohort_secs = |threads: usize| {
        let pool = TrainerPool::new(proto.clone(), threads);
        time_call(|| {
            let jobs = shards
                .iter()
                .enumerate()
                .map(|(k, data)| TrainJob {
                    client_id: k,
                    data,
                    epochs: 1,
                    rng: stream_rng(seed, k as u64),
                    keep_snapshots: false,
                })
                .collect();
            pool.train_cohort(&global, jobs)
        })
    };
    let width = nproc();
    let wide = cohort_secs(width);
    let eff = if width == 1 { 1.0 } else { cohort_secs(1) / (width as f64 * wide) };
    out.push(Metric::new("core.pool.cohort_ms", wide * 1e3, "ms"));
    out.push(Metric::new("core.pool.parallel_eff", eff, "ratio"));
}

fn fleet_probes(out: &mut Vec<Metric>, seed: u64) {
    const N: usize = 400_000;
    // As the engine calls them: inside the experiment's pool.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(nproc())
        .build()
        .expect("probe pool: cannot spawn worker threads");
    let table = FleetTable::new(N);
    let secs = pool.install(|| time_call(|| table.idle_clients()));
    out.push(Metric::new("core.fleet.idle_scan_ms", secs * 1e3, "ms"));

    let idle = table.idle_clients();
    let fleet = Fleet::lazy(FleetConfig::pareto_fleet(N), seed);
    let mut rng = stream_rng(seed, 5);
    let secs = pool.install(|| {
        time_call(|| select_clients(SelectionPolicy::Uniform, &idle, &fleet, 512, &mut rng))
    });
    out.push(Metric::new("core.selection.select_ms", secs * 1e3, "ms"));
}

fn codec_probes(out: &mut Vec<Metric>, rng: &mut StdRng) {
    let mut encode_s = [0.0f64; 2];
    let mut decode_s = [0.0f64; 2];
    let mut raw_bytes = 0.0;
    let mut ratio = 0.0;
    let topk = TopK::new(2048);
    let codecs: [&dyn UpdateCodec; 2] = [&GenDelta, &topk];
    for d in [MLP64_PARAMS, MLP128_PARAMS] {
        let reference = random_vec(d, rng);
        let params = drifted(&reference, 0.01, rng);
        raw_bytes += (4 * d) as f64;
        for (i, codec) in codecs.iter().enumerate() {
            let blob = codec.encode(&reference, &params);
            if i == 1 && d == MLP64_PARAMS {
                ratio = blob.len() as f64 / (4 * d) as f64;
            }
            encode_s[i] += time_call(|| codec.encode(&reference, &params));
            decode_s[i] += time_call(|| codec.decode(&reference, &blob));
        }
    }
    for (i, name) in ["gendelta", "topk"].iter().enumerate() {
        out.push(Metric::new(
            format!("core.codec.{name}_encode_mb_s"),
            raw_bytes / encode_s[i] / 1e6,
            "MB/s",
        ));
        out.push(Metric::new(
            format!("core.codec.{name}_decode_mb_s"),
            raw_bytes / decode_s[i] / 1e6,
            "MB/s",
        ));
    }
    out.push(Metric::new("core.codec.ratio", ratio, "ratio"));
}

fn robust_probes(out: &mut Vec<Metric>, rng: &mut StdRng) {
    let global = random_vec(MLP64_PARAMS, rng);
    let updates: Vec<ModelUpdate> = (0..24)
        .map(|k| ModelUpdate {
            client_id: k,
            params: drifted(&global, 0.05, rng),
            num_samples: 10,
            born_round: 0,
            epochs_completed: 2,
            train_loss: 1.0,
        })
        .collect();
    let cfg = RobustConfig {
        rule: RobustAggregator::Krum { f: 6, multi: 12 },
        ..RobustConfig::default()
    };
    let secs = time_call(|| {
        let mut buffer = updates.clone();
        RobustLayer::new(cfg).screen(&mut buffer, &global)
    });
    // The clone is part of the sample; it is a memcpy of 24 × 200 KB.
    out.push(Metric::new("core.robust.krum_ms", secs * 1e3, "ms"));
}

fn checkpoint_probes(
    out: &mut Vec<Metric>,
    out_dir: &Path,
    rng: &mut StdRng,
) -> Result<(), String> {
    const PAYLOAD: usize = 8 << 20;
    let dir = out_dir.join("probe.ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir, 2).map_err(|e| e.to_string())?;
    let mut payload = vec![0u8; PAYLOAD];
    rng.fill_bytes(&mut payload);
    let mut round = 0u64;
    let mut failure = None;
    let secs = time_call(|| {
        round += 1;
        if let Err(e) = store.save(ENGINE_UNIFIED, 7, round, &payload) {
            failure = Some(e.to_string());
        }
    });
    out.push(Metric::new("core.checkpoint.store_mb_s", PAYLOAD as f64 / secs / 1e6, "MB/s"));
    let secs = time_call(|| {
        if let Err(e) = store.load_latest(ENGINE_UNIFIED, 7) {
            failure = Some(e.to_string());
        }
    });
    out.push(Metric::new("core.checkpoint.load_ms", secs * 1e3, "ms"));
    let _ = std::fs::remove_dir_all(&dir);
    failure.map_or(Ok(()), Err)
}

fn net_probes(out: &mut Vec<Metric>, seed: u64, rng: &mut StdRng) -> Result<(), String> {
    // One Data frame of the default chunk size.
    const CHUNK: usize = 64 * 1024;
    let mut payload = vec![0u8; CHUNK];
    rng.fill_bytes(&mut payload);
    let frame = Frame::new(FrameKind::Data, 42, payload);
    let wire = frame.encode();
    let secs = time_call(|| frame.encode());
    out.push(Metric::new("net.frame.encode_mb_s", wire.len() as f64 / secs / 1e6, "MB/s"));
    let mut failure = None;
    let secs = time_call(|| {
        let mut decoder = FrameDecoder::new();
        decoder.feed(&wire);
        if !matches!(decoder.next_frame(), Ok(Some(_))) {
            failure = Some("frame probe: own encoding did not decode".to_string());
        }
    });
    out.push(Metric::new("net.frame.decode_mb_s", wire.len() as f64 / secs / 1e6, "MB/s"));

    // A SEAFL² outcome of wire_tcp: E = 2 snapshots of the 784→128→10 MLP.
    let reference = random_vec(MLP128_PARAMS, rng);
    let outcome = TrainOutcome {
        snapshots: vec![drifted(&reference, 0.01, rng), drifted(&reference, 0.02, rng)],
        epoch_losses: vec![1.5, 1.2],
    };
    let rng_after = rng_state(&stream_rng(seed, 1000));
    let raw = (2 * 4 * MLP128_PARAMS) as f64;
    let blob = msg::encode_outcome(&outcome, rng_after);
    let secs = time_call(|| msg::encode_outcome(&outcome, rng_after));
    out.push(Metric::new("net.msg.outcome_encode_mb_s", raw / secs / 1e6, "MB/s"));
    let secs = time_call(|| {
        if msg::decode_outcome(&blob).is_err() {
            failure = Some("outcome probe: own encoding did not decode".to_string());
        }
    });
    out.push(Metric::new("net.msg.outcome_decode_mb_s", raw / secs / 1e6, "MB/s"));

    // The same outcome through gendelta, decoded against the server's ring.
    let mut ring = ModelRing::new(4);
    ring.push(1, reference.clone());
    let coded = msg::encode_outcome_coded(&outcome, rng_after, &GenDelta, &reference);
    let secs = time_call(|| msg::encode_outcome_coded(&outcome, rng_after, &GenDelta, &reference));
    out.push(Metric::new("net.msg.coded_outcome_encode_mb_s", raw / secs / 1e6, "MB/s"));
    let secs = time_call(|| {
        let model = ring.get(1).expect("generation 1 was just pushed");
        if msg::decode_outcome_coded(&coded, &GenDelta, model).is_err() {
            failure = Some("coded outcome probe: own encoding did not decode".to_string());
        }
    });
    out.push(Metric::new("net.msg.coded_outcome_decode_mb_s", raw / secs / 1e6, "MB/s"));
    failure.map_or(Ok(()), Err)
}

/// Every probe, in layer order.
pub fn run_all(seed: u64, out_dir: &Path) -> Result<Vec<Metric>, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    tensor_probes(&mut out, &mut rng);
    nn_probes(&mut out, seed, &mut rng);
    sim_probes(&mut out, seed, &mut rng);
    pool_probes(&mut out, seed, &mut rng);
    fleet_probes(&mut out, seed);
    codec_probes(&mut out, &mut rng);
    robust_probes(&mut out, &mut rng);
    checkpoint_probes(&mut out, out_dir, &mut rng)?;
    net_probes(&mut out, seed, &mut rng)?;
    Ok(out)
}
