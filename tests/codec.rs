//! The update-codec contract, end to end: the default identity pipeline
//! (and anything lossless) is bit-neutral — same model digest, same event
//! trace as a codec-free run — while lossy pipelines move bytes and
//! digests *deterministically*, identical across thread counts and across
//! kill-and-resume. Plus the trait-level round-trip properties each codec
//! documents: top-k keeps exactly the k largest movers verbatim, int8
//! reconstruction error is bounded by half the quantization step, and the
//! generation delta is bit-exact including NaN payloads and signed zeros.

use seafl::core::{
    resume_experiment, run_experiment, Algorithm, CheckpointError, CodecConfig, CodecStage,
    ExperimentConfig, GenDelta, QuantInt8, RunResult, TopK, UpdateCodec,
};
use seafl::nn::ModelKind;
use seafl::sim::{FleetConfig, TerminationReason, TraceEvent};
use std::fs;
use std::path::PathBuf;

/// The small deterministic testbed shared by the digest tests (same shape
/// as tests/obs.rs).
fn cfg(seed: u64, algorithm: Algorithm, threads: usize) -> ExperimentConfig {
    let mut c = ExperimentConfig::quick(seed, algorithm);
    c.num_clients = 10;
    c.fleet = FleetConfig::pareto_fleet(10);
    c.train_per_class = 24;
    c.test_per_class = 8;
    c.model = ModelKind::Mlp { in_features: 28 * 28, hidden: 16, num_classes: 10 };
    c.max_rounds = 8;
    c.stop_at_accuracy = None;
    c.threads = threads;
    c
}

fn topk_cfg(k: usize, error_feedback: bool) -> CodecConfig {
    CodecConfig { stages: vec![CodecStage::TopK { k }], error_feedback }
}

/// Digest-level equality: the bits an observer of the run can see.
fn assert_same_run(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.model_digest, b.model_digest, "{what}: final model diverged");
    assert_eq!(a.trace.digest(), b.trace.digest(), "{what}: event trace diverged");
    assert_eq!(a.accuracy, b.accuracy, "{what}: accuracy curve diverged");
    assert_eq!(a.rounds, b.rounds, "{what}: round count diverged");
}

fn all_algorithms() -> [Algorithm; 6] {
    [
        Algorithm::seafl(5, 3, Some(5)),
        Algorithm::seafl2(5, 3, 2),
        Algorithm::fedbuff(5, 3),
        Algorithm::fedasync(5),
        Algorithm::fedavg(4),
        Algorithm::fedstale(5, 3),
    ]
}

/// The headline neutrality guarantee: for every policy and both executors,
/// a run under the default (identity) codec is bit-identical to the same
/// run with error feedback armed on a lossless pipeline (the residual is
/// identically zero, so the store must stay untouched) and to a run whose
/// armed codec is lossless (`gendelta` — its projection is exact). Only
/// the byte accounting may differ between those arms.
#[test]
fn lossless_pipelines_are_bit_neutral_for_every_algorithm() {
    for alg in all_algorithms() {
        for threads in [1usize, 4] {
            let baseline = run_experiment(&cfg(31, alg, threads));
            let what = format!("{} threads={threads}", baseline.algorithm);
            assert_eq!(
                baseline.codec_bytes_raw, baseline.codec_bytes_encoded,
                "{what}: identity must be byte-neutral"
            );
            assert!(baseline.codec_bytes_raw > 0, "{what}: identity counted no update bytes");

            // EF on a lossless pipeline is a documented no-op.
            let mut ef = cfg(31, alg, threads);
            ef.codec.error_feedback = true;
            assert_same_run(&run_experiment(&ef), &baseline, &format!("{what} ef-on-identity"));

            // A lossless armed codec reshapes bytes, never the model.
            let mut lossless = cfg(31, alg, threads);
            lossless.codec =
                CodecConfig { stages: vec![CodecStage::GenDelta], error_feedback: false };
            let gd = run_experiment(&lossless);
            assert_same_run(&gd, &baseline, &format!("{what} gendelta"));
            assert_eq!(
                gd.codec_bytes_raw, baseline.codec_bytes_raw,
                "{what}: same run, same raw bytes"
            );
            assert!(gd.codec_bytes_encoded > 0, "{what}: gendelta encoded nothing");
        }
    }
}

/// Identity neutrality holds with the fault machinery fully armed: device
/// crashes, upload drops, and session timeouts exercise the retry/timeout
/// paths the codec seam must never disturb.
#[test]
fn identity_is_bit_neutral_under_faults() {
    for threads in [1usize, 4] {
        let mut base = cfg(47, Algorithm::seafl(5, 3, Some(5)), threads);
        base.faults.crash_prob = 0.15;
        base.faults.crash_window = (0.0, base.max_sim_time * 0.5);
        base.faults.upload_drop_prob = 0.1;
        base.resilience.session_timeout = Some(base.max_sim_time * 0.1);
        let baseline = run_experiment(&base);
        assert!(baseline.crashes + baseline.upload_failures > 0, "faults never fired");

        let mut ef = base.clone();
        ef.codec.error_feedback = true;
        assert_same_run(&run_experiment(&ef), &baseline, &format!("faults threads={threads}"));
    }
}

/// Lossy codecs change the model (that is their job), but deterministically:
/// the digests and byte counters of a top-k or int8 run are identical across
/// thread counts, the compression ratio is strictly below 1, and the
/// bytes-to-accuracy curve is consistent with the totals.
#[test]
fn lossy_codecs_are_deterministic_and_compress() {
    for codec in [
        topk_cfg(256, false),
        CodecConfig { stages: vec![CodecStage::QuantInt8], error_feedback: false },
    ] {
        let label = codec.label();
        let runs: Vec<RunResult> = [1usize, 4]
            .into_iter()
            .map(|threads| {
                let mut c = cfg(59, Algorithm::seafl(5, 3, Some(5)), threads);
                c.codec = codec.clone();
                run_experiment(&c)
            })
            .collect();
        assert_same_run(&runs[0], &runs[1], &format!("{label} threads 1 vs 4"));
        assert_eq!(
            (runs[0].codec_bytes_raw, runs[0].codec_bytes_encoded),
            (runs[1].codec_bytes_raw, runs[1].codec_bytes_encoded),
            "{label}: byte counters leaked the thread count"
        );
        assert!(
            runs[0].codec_bytes_encoded < runs[0].codec_bytes_raw,
            "{label}: compression ratio must be < 1 ({} vs {})",
            runs[0].codec_bytes_encoded,
            runs[0].codec_bytes_raw
        );

        // The per-evaluation curve is cumulative and ends at the totals as
        // of the last `Eval`. The run totals may be larger: sessions are
        // trained, and their bytes counted, when dispatched, and the engine
        // refills after the last evaluation too. Every session of these
        // configs moves the same bytes (one snapshot, fixed-size codecs),
        // so the late sessions' share is exact.
        let curve = &runs[0].bytes_curve;
        assert!(!curve.is_empty(), "{label}: empty bytes curve");
        assert!(
            curve.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1),
            "{label}: bytes curve is not monotone"
        );
        let entries = runs[0].trace.entries();
        let is_start = |e: &(_, TraceEvent)| matches!(e.1, TraceEvent::ClientStart { .. });
        let last_eval = entries
            .iter()
            .rposition(|(_, e)| matches!(e, TraceEvent::Eval { .. }))
            .expect("every run evaluates");
        let sessions = entries.iter().filter(|e| is_start(e)).count() as u64;
        let by_last_eval = entries[..last_eval].iter().filter(|e| is_start(e)).count() as u64;
        let (raw, encoded) = (runs[0].codec_bytes_raw, runs[0].codec_bytes_encoded);
        assert_eq!((raw % sessions, encoded % sessions), (0, 0), "{label}: uneven sessions");
        let &(last_raw, last_encoded) = curve.last().unwrap();
        assert!(last_raw <= raw && last_encoded <= encoded, "{label}: curve overshoots totals");
        assert_eq!(
            (last_raw, last_encoded),
            (raw / sessions * by_last_eval, encoded / sessions * by_last_eval),
            "{label}: curve does not end at the totals as of the last evaluation"
        );
        if let Some(first_acc) = runs[0].accuracy.first().map(|&(_, a)| a) {
            let b = runs[0].bytes_to_accuracy(first_acc);
            assert!(
                b.is_some_and(|b| b <= runs[0].codec_bytes_encoded),
                "{label}: bytes_to_accuracy inconsistent with totals"
            );
        }

        // And it really is lossy: the model differs from the identity run.
        let identity = run_experiment(&cfg(59, Algorithm::seafl(5, 3, Some(5)), 1));
        assert_ne!(
            runs[0].model_digest, identity.model_digest,
            "{label}: a lossy codec left the model untouched — seam not applied?"
        );
    }
}

/// Trait-level round-trip properties the codecs document.
#[test]
fn codec_round_trip_properties() {
    let n = 512;
    let reference: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
    let params: Vec<f32> =
        reference.iter().enumerate().map(|(i, &r)| r + (i as f32 * 0.11).cos() * 0.1).collect();

    // Top-k: exactly k coordinates move, each kept bit-verbatim, and the
    // blob beats raw f32 for k << n.
    let topk = TopK::new(32);
    let blob = topk.encode(&reference, &params);
    assert!(blob.len() < 4 * n, "top-k blob not smaller than raw");
    let out = topk.decode(&reference, &blob).unwrap();
    let moved = (0..n).filter(|&i| out[i].to_bits() != reference[i].to_bits()).count();
    assert_eq!(moved, 32, "top-k must move exactly k coordinates");
    for i in 0..n {
        assert!(
            out[i].to_bits() == reference[i].to_bits() || out[i].to_bits() == params[i].to_bits(),
            "top-k coordinate {i} is neither reference nor verbatim client value"
        );
    }

    // Int8: reconstruction error bounded by half the quantization step.
    let int8 = QuantInt8;
    let max_delta =
        params.iter().zip(&reference).map(|(p, r)| (p - r).abs()).fold(0.0f32, f32::max);
    let scale = max_delta / 127.0;
    let out = int8.project(&reference, &params);
    for i in 0..n {
        let err = (out[i] - params[i]).abs();
        // scale/2 plus one f32 rounding of the final `reference + code*scale`
        // add (the codec's documented bound).
        assert!(
            err <= scale * 0.5 + 1e-6,
            "int8 error {err} at {i} exceeds scale/2 = {}",
            scale * 0.5
        );
    }

    // GenDelta: bit-exact, including the awkward values, and small when
    // the update stayed close to the reference.
    let gd = GenDelta;
    let mut odd = reference.clone();
    odd[0] = -0.0;
    odd[1] = f32::from_bits(0x7fc0_1234); // NaN with a payload
    let blob = gd.encode(&reference, &odd);
    let back = gd.decode(&reference, &blob).unwrap();
    for i in 0..n {
        assert_eq!(back[i].to_bits(), odd[i].to_bits(), "gendelta not bit-exact at {i}");
    }
    let near: Vec<f32> = reference.clone();
    assert!(
        gd.encode(&reference, &near).len() < 4 * n / 2,
        "gendelta of an unmoved model should be far below raw size"
    );
}

/// The crashing config from tests/checkpoint_resume.rs with a lossy
/// error-feedback codec armed: residuals are live state and must ride the
/// snapshot.
fn crash_cfg(seed: u64, threads: usize) -> ExperimentConfig {
    let mut c = cfg(seed, Algorithm::seafl(5, 3, Some(5)), threads);
    c.max_rounds = 10;
    c.codec = topk_cfg(64, true);
    c.faults.server_crash_prob = 1.0;
    c.faults.server_crash_window = (3, 4);
    c.checkpoint_every = Some(1);
    c.keep_last = 2;
    c
}

fn tmp_dir(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seafl-codec-test-{}-{case}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Kill-and-resume under error feedback is bit-identical to the
/// uninterrupted run — the residual store round-trips through the
/// checkpoint's codec section, as do the byte counters and curve.
#[test]
fn error_feedback_survives_crash_and_resume() {
    for threads in [1usize, 4] {
        let dir = tmp_dir(&format!("ef-t{threads}"));
        let mut crash = crash_cfg(77, threads);
        crash.checkpoint_dir = Some(dir.clone());

        let crashed = run_experiment(&crash);
        assert_eq!(crashed.termination, TerminationReason::ServerCrash, "seeded crash missed");

        let mut uninterrupted = crash_cfg(77, threads);
        uninterrupted.faults.server_crash_prob = 0.0;
        uninterrupted.faults.server_crash_window = (0, 0);
        uninterrupted.checkpoint_every = None;
        let reference = run_experiment(&uninterrupted);

        let resumed = resume_experiment(&crash, &dir)
            .unwrap_or_else(|e| panic!("threads={threads}: resume failed: {e}"));
        let what = format!("ef resume threads={threads}");
        assert_same_run(&resumed, &reference, &what);
        assert_eq!(resumed.codec_bytes_raw, reference.codec_bytes_raw, "{what}: raw bytes");
        assert_eq!(
            resumed.codec_bytes_encoded, reference.codec_bytes_encoded,
            "{what}: encoded bytes"
        );
        assert_eq!(resumed.bytes_curve, reference.bytes_curve, "{what}: bytes curve");
        let _ = fs::remove_dir_all(&dir);
    }
}

/// The codec is part of the experiment's identity: a snapshot taken under
/// one codec refuses to restore into a run configured with another.
#[test]
fn codec_change_invalidates_checkpoints() {
    let dir = tmp_dir("cfgdrift");
    let mut crash = crash_cfg(55, 1);
    crash.checkpoint_dir = Some(dir.clone());
    let crashed = run_experiment(&crash);
    assert_eq!(crashed.termination, TerminationReason::ServerCrash);

    let mut drifted = crash_cfg(55, 1);
    drifted.codec = CodecConfig::default();
    drifted.checkpoint_dir = Some(dir.clone());
    let err = resume_experiment(&drifted, &dir).expect_err("codec drift must not restore");
    assert!(
        matches!(err, CheckpointError::NoValidCheckpoint { .. }),
        "expected NoValidCheckpoint, got: {err}"
    );
    let _ = fs::remove_dir_all(&dir);
}
