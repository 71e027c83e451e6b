//! Experiment profiles and the arm table: one [`Row`] per figure part.
//!
//! Paper → profile scaling (single-CPU budget; see lib-level docs):
//!
//! | Paper | Here (std scale) |
//! |---|---|
//! | 100 devices, 600 samples each | 40–50 devices, 40–60 samples each |
//! | LeNet-5 on MNIST/EMNIST | LeNet-5 (Fig. 5) / MLP (Fig. 2 & 4 sweeps) |
//! | ResNet-18 on CIFAR-10 | ResNet-18 topology, width 2 |
//! | VGG-16 on CINIC-10 | VGG-16 topology, width 2 |
//! | 96 % target (MNIST) | 85 % target (synthetic EMNIST-like) |
//! | 50 % / 70 % targets (CIFAR-10) | same targets |

use crate::report::{self, Hook};
use crate::{Arm, Scale};
use seafl_core::{
    build_policy, Algorithm, CodecConfig, CodecStage, ExperimentConfig, ImportanceMode,
    PartitionStrategy, ResilienceConfig, SeaflPolicy, StalenessPolicy,
};
use seafl_data::SyntheticSpec;
use seafl_nn::ModelKind;
use seafl_sim::{AttackConfig, AttackKind, CorruptionKind, FaultConfig, FleetConfig};

/// Concurrency M: the paper samples up to 20 % of 100 devices.
pub(crate) const CONCURRENCY: usize = 20;
/// Default buffer size K (the paper's best from Fig. 2a).
pub(crate) const BUFFER_K: usize = 10;
/// Default staleness limit β (the paper's best from Fig. 2b).
pub(crate) const BETA: u64 = 10;
/// The seed every figure runs on.
pub(crate) const SEED: u64 = 42;
/// Accuracy target for the insights task (the paper's 96 % on MNIST maps to
/// 85 % on the synthetic EMNIST-like task).
pub(crate) const INSIGHTS_TARGET: f64 = 0.85;
/// The targets every insights-testbed table reports.
const INSIGHTS_TARGETS: [f64; 2] = [0.7, INSIGHTS_TARGET];

/// Concurrency M and buffer size K: the paper's (20, 10), or (6, 3) for a
/// smoke run.
pub(crate) fn m_k(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Smoke => (6, 3),
        Scale::Std => (CONCURRENCY, BUFFER_K),
    }
}

/// §III insights testbed: Zipf(1.7, 60 s) idle periods and Dirichlet 0.1
/// over [`ExperimentConfig::quick`]'s MLP and hardened EMNIST-like task
/// (plateau near 0.9, reached over tens of rounds: the regime Fig. 2
/// studies). An MLP, not LeNet-5: the sweeps measure *scheduler*
/// behaviour, and the MLP keeps the 11-arm sweep tractable on one core.
pub(crate) fn insights_config(seed: u64, algorithm: Algorithm, scale: Scale) -> ExperimentConfig {
    let (clients, per_class, rounds, time) = match scale {
        Scale::Smoke => (12, 36, 15, 2_000.0),
        Scale::Std => (50, 300, 200, 20_000.0),
    };
    let mut cfg = ExperimentConfig::quick(seed, algorithm);
    cfg.train_per_class = per_class;
    cfg.test_per_class = 30;
    cfg.num_clients = clients;
    cfg.partition = PartitionStrategy::Dirichlet { alpha: 0.1 };
    cfg.fleet = FleetConfig::zipf_idle_fleet(clients);
    cfg.batch_size = 20;
    cfg.max_sim_time = time;
    cfg.max_rounds = rounds;
    cfg.stop_at_accuracy = Some(INSIGHTS_TARGET + 0.02);
    cfg
}

/// Which dataset/model pairing a Fig. 5/6 arm runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Workload {
    /// EMNIST-like + LeNet-5.
    Emnist,
    /// CIFAR-10-like + ResNet-18 (width 2).
    Cifar,
    /// CINIC-10-like + VGG-16 (width 2).
    Cinic,
}

impl Workload {
    /// Parse a `--workload` value: `emnist`, `cifar` or `cinic`.
    pub(crate) fn parse(name: &str) -> Workload {
        match name {
            "emnist" => Workload::Emnist,
            "cifar" => Workload::Cifar,
            "cinic" => Workload::Cinic,
            other => panic!("unknown --workload {other}"),
        }
    }

    pub(crate) fn name(&self) -> &'static str {
        match self {
            Workload::Emnist => "emnist-like",
            Workload::Cifar => "cifar10-like",
            Workload::Cinic => "cinic10-like",
        }
    }

    /// Accuracy targets reported for this dataset (the paper's 50 %/70 %
    /// CIFAR-10 targets; EMNIST/CINIC targets mapped to the synthetic
    /// tasks' plateaus).
    pub(crate) fn targets(&self) -> &'static [f64] {
        match self {
            Workload::Emnist => &[0.70, 0.82],
            Workload::Cifar => &[0.50, 0.70],
            Workload::Cinic => &[0.45, 0.60],
        }
    }

    /// The output stem `<prefix>_<name>`, dashes as underscores.
    fn stem(&self, prefix: &str) -> String {
        format!("{prefix}_{}", self.name().replace('-', "_"))
    }
}

/// §VI main-evaluation testbed: Pareto client speeds plus Zipf idle
/// periods, 40-device fleet with M = 20 concurrent trainers.
pub(crate) fn evaluation_config(
    seed: u64,
    workload: Workload,
    algorithm: Algorithm,
    scale: Scale,
) -> ExperimentConfig {
    // Hardened specs, as in the insights profile: the stock presets
    // saturate in a handful of rounds, leaving the targets undiscriminating;
    // the overrides put each plateau a little above its top target.
    let (model, spec) = match workload {
        Workload::Emnist => {
            // LeNet-5 far outsizes the task: the plateau sits near 0.86.
            let mut s = SyntheticSpec::emnist_like();
            s.noise_std = 1.5;
            s.confusion = 0.5;
            s.amp_jitter = 0.6;
            (ModelKind::LeNet5 { num_classes: 10 }, s)
        }
        Workload::Cifar => {
            (ModelKind::ResNet18 { num_classes: 10, width_base: 2 }, SyntheticSpec::cifar10_like())
        }
        Workload::Cinic => {
            let mut s = SyntheticSpec::cinic10_like();
            s.noise_std = 1.1;
            s.confusion = 0.45;
            (ModelKind::Vgg16 { num_classes: 10, width_base: 2 }, s)
        }
    };
    let (clients, per_class, rounds, time) = match scale {
        Scale::Smoke => (12, 36, 8, 2_000.0),
        // CINIC: each device holds ~3 % of what a CIFAR device holds in the
        // paper; mirror that with fewer samples per device.
        Scale::Std => match workload {
            Workload::Emnist => (40, 160, 80, 20_000.0),
            Workload::Cifar => (40, 160, 60, 20_000.0),
            Workload::Cinic => (40, 120, 60, 20_000.0),
        },
    };
    let top_target = workload.targets().last().copied().unwrap_or(0.9);
    let mut cfg = ExperimentConfig::quick(seed, algorithm);
    cfg.model = model;
    cfg.spec = spec;
    cfg.train_per_class = per_class;
    cfg.test_per_class = 20;
    cfg.num_clients = clients;
    // Straggler-dominated fleet: Pareto speeds (§VI) plus Zipf idle periods.
    // Dirichlet 0.15, not the paper's 5: synthetic prototypes at α = 5 are
    // interchangeable, which removes the staleness phenomenon under study
    // (DESIGN.md §2).
    cfg.partition = PartitionStrategy::Dirichlet { alpha: 0.15 };
    cfg.fleet = FleetConfig::pareto_fleet(clients);
    cfg.fleet.zipf_idle = FleetConfig::zipf_idle_fleet(clients).zipf_idle;
    cfg.batch_size = 20;
    cfg.max_sim_time = time;
    cfg.max_rounds = rounds;
    cfg.stop_at_accuracy = Some(top_target + 0.04);
    cfg
}

/// Faulty-fleet overlay for the chaos bench: ~15 % of devices crash
/// mid-run, 10 % of uploads are lost, a quarter of devices suffer a 3×
/// compute spike and ~10 % corrupt their updates — against a server with a
/// session timeout and the sanitizer's norm bound armed.
pub(crate) fn chaos_overlay(cfg: &mut ExperimentConfig) {
    cfg.faults = FaultConfig {
        crash_prob: 0.15,
        crash_window: (0.0, cfg.max_sim_time * 0.6),
        upload_drop_prob: 0.10,
        straggler_prob: 0.25,
        straggler_window: (0.0, cfg.max_sim_time * 0.5),
        straggler_duration: cfg.max_sim_time * 0.2,
        straggler_factor: 3.0,
        corrupt_prob: 0.10,
        corruption: CorruptionKind::NanBurst { count: 8 },
        server_crash_prob: 0.0,
        server_crash_window: (0, 0),
    };
    cfg.resilience = ResilienceConfig {
        // Generous relative to a healthy session so only dead devices trip.
        session_timeout: Some(cfg.max_sim_time * 0.15),
        max_update_norm_ratio: Some(50.0),
        ..ResilienceConfig::default()
    };
}

/// Adversarial-fleet overlay for the chaos bench's `--attack` matrix: ~30 %
/// of devices attack through `kinds` (collusion shares radius-2 junk). The
/// matrix sweeps the robust rule.
pub(crate) fn attack_overlay(cfg: &mut ExperimentConfig, kinds: Vec<AttackKind>) {
    cfg.attack = AttackConfig { attacker_prob: 0.3, kinds, collude_radius: 2.0 };
}

/// Bound a run by rounds alone (12 at smoke scale, 30 at std; accuracy and
/// time stops off), so every arm of a chaos mode runs the same schedule.
pub(crate) fn round_bound(cfg: &mut ExperimentConfig, scale: Scale) {
    cfg.stop_at_accuracy = None;
    cfg.max_sim_time = 1e9;
    cfg.max_rounds = if scale == Scale::Smoke { 12 } else { 30 };
}

/// One figure part: its arms, and how [`report::run_row`] presents them.
pub struct Row {
    /// Output stem: `target/experiments/<stem>.csv` and `<stem>_runs.json`.
    pub(crate) stem: String,
    /// Headline printed above the row's tables.
    pub(crate) title: String,
    /// Accuracy targets the time-to-target table reports.
    pub(crate) targets: Vec<f64>,
    pub(crate) arms: Vec<Arm>,
    /// Print downsampled accuracy curves under the table.
    pub(crate) curves: bool,
    /// Write `<stem>_grad_norms.csv` instead of the accuracy CSV.
    pub(crate) grad_norms: bool,
    /// The row's own output, printed after the shared tables.
    pub(crate) hook: Option<Hook>,
}

impl Row {
    /// A row with no curves, an accuracy CSV and no hook.
    fn new(stem: String, title: String, targets: &[f64], arms: Vec<Arm>) -> Row {
        let targets = targets.to_vec();
        Row { stem, title, targets, arms, curves: false, grad_norms: false, hook: None }
    }

    fn curves(self) -> Row {
        Row { curves: true, ..self }
    }

    fn hook(self, hook: Hook) -> Row {
        Row { hook: Some(hook), ..self }
    }
}

fn arm(label: impl Into<String>, config: ExperimentConfig) -> Arm {
    Arm { label: label.into(), config }
}

/// SEAFL at β = 10 with its weighting knobs set: Eq. 4's α, Eq. 5's μ and
/// importance measure, Eq. 8's ϑ.
fn seafl_weighting(s: Scale, alpha: f32, mu: f32, imp: ImportanceMode, theta: f32) -> Algorithm {
    let (m, k) = m_k(s);
    let paper = SeaflPolicy::paper(m, k, Some(BETA), StalenessPolicy::WaitForStale);
    Algorithm::Seafl(SeaflPolicy { alpha, mu, theta, importance: imp, ..paper })
}

/// The rows `figure` runs at `scale`: every part, or only the one `part`
/// names (the `--part` of `fig2_insights`, `fig6_partial` and `ablation`).
/// `workload` is the `--workload` of `fig5_baselines` (default: all three)
/// and `codec_sweep` (default: `emnist`); other figures ignore both.
pub fn rows(figure: &str, scale: Scale, part: Option<&str>, workload: Option<&str>) -> Vec<Row> {
    let parts: Vec<(&str, Row)> = match figure {
        "fig2_insights" => fig2(scale),
        "fig4_hyperparams" => vec![("", fig4(scale))],
        "fig5_baselines" => {
            let all = [Workload::Emnist, Workload::Cifar, Workload::Cinic];
            let chosen = workload.map_or(all.to_vec(), |w| vec![Workload::parse(w)]);
            return chosen.into_iter().map(|w| fig5(w, scale)).collect();
        }
        "fig6_partial" => {
            vec![("a", fig6(Workload::Cifar, 3, scale)), ("b", fig6(Workload::Cinic, 12, scale))]
        }
        "ablation" => ablation(scale),
        "convergence" => vec![("", convergence(scale))],
        "codec_sweep" => {
            vec![("", codec_sweep(workload.map_or(Workload::Emnist, Workload::parse), scale))]
        }
        "chaos" => vec![("", chaos(scale))],
        other => panic!("no arm table for {other}"),
    };
    let wanted = |p: &str| p.is_empty() || part.is_none_or(|want| p == want);
    parts.into_iter().filter(|(p, _)| wanted(p)).map(|(_, row)| row).collect()
}

/// Fig. 2 (§III insights). a: buffer size, K = 1 fully async … K = M
/// synchronous (paper: K = 1 fails to converge, K = 10 fastest, sync
/// slowest). b: staleness limit at K = 10 (paper: β = 1 takes 778 s, β = 10
/// is best at 357 s). c: importance weighting on/off (210 s vs 278 s).
fn fig2(scale: Scale) -> Vec<(&'static str, Row)> {
    let (m, k) = m_k(scale);
    let insights = |alg| insights_config(SEED, alg, scale);
    // K = 1 aggregates per update, so it gets ten rounds per buffered round.
    let mut fedasync = insights(Algorithm::fedasync_constant(m));
    fedasync.max_rounds *= 10;
    fedasync.eval_every = 10;
    let seafl = |k, beta| insights(Algorithm::seafl(m, k, beta));
    let mut buffer = vec![arm("K=1 (async)", fedasync)];
    let ks: &[usize] = if scale == Scale::Smoke { &[3, 6] } else { &[5, 10, 15, 20] };
    buffer.extend(ks.iter().map(|&k| arm(format!("K={k}"), seafl(k, None))));
    buffer.push(arm(format!("K={m} (sync)"), insights(Algorithm::fedavg(m))));
    let betas: &[u64] = if scale == Scale::Smoke { &[1, 10] } else { &[1, 2, 5, 10, 20] };
    let mut limit: Vec<Arm> =
        betas.iter().map(|&b| arm(format!("beta={b}"), seafl(k, Some(b)))).collect();
    limit.push(arm("beta=inf", seafl(k, None)));
    let importance =
        |mu| insights(seafl_weighting(scale, 3.0, mu, ImportanceMode::ModelCosine, 0.8));
    let importance =
        vec![arm("gamma+importance", importance(1.0)), arm("gamma only", importance(0.0))];
    [
        ("a", "fig2a_buffer_size", "buffer size K (staleness handling off, beta=inf)", buffer),
        ("b", "fig2b_staleness_limit", "staleness limit beta (K=10)", limit),
        ("c", "fig2c_importance", "importance weighting on/off (K=10, beta=10)", importance),
    ]
    .into_iter()
    .map(|(part, stem, title, arms)| {
        let title = format!("Fig. 2{part}: {title}");
        (part, Row::new(stem.into(), title, &INSIGHTS_TARGETS, arms).curves())
    })
    .collect()
}

/// Fig. 4: the (α, μ) grid of the adaptive weighting. Paper: (α = 3,
/// μ = 1) gives a modest edge over the other representative pairs.
fn fig4(scale: Scale) -> Row {
    let (_, k) = m_k(scale);
    let pairs: &[(f32, f32)] = if scale == Scale::Smoke {
        &[(3.0, 1.0), (1.0, 1.0)]
    } else {
        &[(0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (3.0, 1.0), (5.0, 1.0), (3.0, 3.0), (10.0, 1.0)]
    };
    let arms = pairs
        .iter()
        .map(|&(alpha, mu)| {
            let alg = seafl_weighting(scale, alpha, mu, ImportanceMode::ModelCosine, 0.8);
            arm(format!("a={alpha},mu={mu}"), insights_config(SEED, alg, scale))
        })
        .collect();
    let title = format!("Fig. 4: (alpha, mu) grid, K={k}, beta={BETA}");
    Row::new("fig4_hyperparams".into(), title, &INSIGHTS_TARGETS, arms).curves()
}

/// FedBuff, FedAsync and FedAvg, the last two given the buffered arms'
/// *session* budget (rounds × K); FedAsync is evaluated every K updates.
/// Constant-α FedAsync is the aggressive configuration whose divergence
/// Fig. 5 reports.
fn baselines(workload: Workload, scale: Scale) -> Vec<Arm> {
    let (m, k) = m_k(scale);
    let eval = |alg| evaluation_config(SEED, workload, alg, scale);
    let mut fedasync = eval(Algorithm::fedasync_constant(m));
    fedasync.max_rounds *= k as u64;
    fedasync.eval_every = k as u64;
    let mut fedavg = eval(Algorithm::fedavg(m));
    fedavg.max_rounds = fedavg.max_rounds * k as u64 / m as u64 + 1;
    vec![
        arm("fedbuff", eval(Algorithm::fedbuff(m, k))),
        arm("fedasync", fedasync),
        arm("fedavg", fedavg),
    ]
}

/// The Fig. 5 arms: SEAFL(β=10), SEAFL(β=∞), the baselines and the
/// FedStaleWeight-style fairness policy (same M/K as FedBuff).
pub(crate) fn fig5_arms(workload: Workload, scale: Scale) -> Vec<Arm> {
    let (m, k) = m_k(scale);
    let eval = |alg| evaluation_config(SEED, workload, alg, scale);
    let mut arms = vec![
        arm(format!("seafl(beta={BETA})"), eval(Algorithm::seafl(m, k, Some(BETA)))),
        arm("seafl(beta=inf)", eval(Algorithm::seafl(m, k, None))),
    ];
    arms.extend(baselines(workload, scale));
    arms.push(arm("fedstale", eval(Algorithm::fedstale(m, k))));
    arms
}

/// Fig. 5: SEAFL vs. the baselines on one dataset. Paper: FedAsync fails
/// to converge, FedAvg needs far more wall-clock, SEAFL is fastest.
fn fig5(workload: Workload, scale: Scale) -> Row {
    let title = format!("Fig. 5 ({}): SEAFL vs baselines", workload.name());
    let arms = fig5_arms(workload, scale);
    Row::new(workload.stem("fig5"), title, workload.targets(), arms)
        .curves()
        .hook(report::seafl_vs_fedbuff)
}

/// Fig. 6: SEAFL² (partial training) vs. the baselines. a: CIFAR-10, β = 3
/// (paper: 745 s / 1105 s to 50 % / 70 % vs FedBuff's 905 s / 1341 s).
/// b: CINIC-10, β = 12 (paper: SEAFL² edges FedBuff only near the end).
fn fig6(workload: Workload, beta: u64, scale: Scale) -> Row {
    let (m, k) = m_k(scale);
    let eval = |alg| evaluation_config(SEED, workload, alg, scale);
    let mut arms = vec![
        arm(format!("seafl2(beta={beta})"), eval(Algorithm::seafl2(m, k, beta))),
        arm(format!("seafl(beta={beta})"), eval(Algorithm::seafl(m, k, Some(beta)))),
    ];
    arms.extend(baselines(workload, scale));
    let title = format!("Fig. 6 ({}): SEAFL^2 with beta={beta} vs baselines", workload.name());
    let stem = format!("{}_beta{beta}", workload.stem("fig6"));
    Row::new(stem, title, workload.targets(), arms).curves().hook(report::seafl2_vs_fedbuff)
}

/// Ablations (DESIGN.md §4 extras): the staleness policy at β = 3 (does
/// discarding waste training?), the importance measure (Eq. 5's cosine,
/// the literal Δ reading, §IV-B's dot product, none), a FedProx term
/// (beyond the paper) and Eq. 8's server mixing ϑ.
fn ablation(scale: Scale) -> Vec<(&'static str, Row)> {
    let (m, k) = m_k(scale);
    let insights = |alg| insights_config(SEED, alg, scale);
    let policy = vec![
        arm("wait (SEAFL)", insights(Algorithm::seafl(m, k, Some(3)))),
        arm("notify (SEAFL2)", insights(Algorithm::seafl2(m, k, 3))),
        arm("drop (SAFA-like)", insights(Algorithm::seafl_drop(m, k, 3))),
        arm("ignore (beta=inf)", insights(Algorithm::seafl(m, k, None))),
    ];
    let weighted = |imp, mu, theta| insights(seafl_weighting(scale, 3.0, mu, imp, theta));
    let importance = vec![
        arm("model-cosine", weighted(ImportanceMode::ModelCosine, 1.0, 0.8)),
        arm("delta-cosine", weighted(ImportanceMode::DeltaCosine, 1.0, 0.8)),
        arm("dot-product", weighted(ImportanceMode::DotProduct, 1.0, 0.8)),
        arm("none (mu=0)", weighted(ImportanceMode::ModelCosine, 0.0, 0.8)),
    ];
    let prox = [0.0f32, 0.1, 1.0]
        .iter()
        .map(|&mu| {
            let mut cfg = insights(Algorithm::seafl(m, k, Some(BETA)));
            cfg.prox_mu = mu;
            arm(format!("prox_mu={mu}"), cfg)
        })
        .collect();
    let thetas: &[f32] = if scale == Scale::Smoke { &[0.8] } else { &[0.2, 0.5, 0.8, 1.0] };
    let theta = thetas
        .iter()
        .map(|&t| arm(format!("theta={t}"), weighted(ImportanceMode::ModelCosine, 1.0, t)))
        .collect();
    [
        ("policy", "staleness policy at beta=3 (same adaptive weights)".into(), policy),
        ("importance", format!("importance measurement (K={k}, beta=10)"), importance),
        ("prox", "FedProx proximal term on local training (beyond paper)".into(), prox),
        ("theta", "server mixing theta (Eq. 8; paper uses 0.8)".into(), theta),
    ]
    .into_iter()
    .map(|(part, title, arms): (_, String, _)| {
        let (stem, title) = (format!("ablation_{part}"), format!("Ablation: {title}"));
        (part, Row::new(stem, title, &INSIGHTS_TARGETS, arms).hook(report::drops))
    })
    .collect()
}

/// Corollary 1's check: ‖∇f(w_t)‖² over K and β. Eq. 12 predicts the
/// fastest descent for a moderate K with a finite β.
fn convergence(scale: Scale) -> Row {
    let (m, _) = m_k(scale);
    let combos: &[(usize, Option<u64>)] = if scale == Scale::Smoke {
        &[(3, Some(10))]
    } else {
        &[(2, Some(10)), (5, Some(10)), (10, Some(10)), (10, Some(1)), (10, None)]
    };
    let arms = combos
        .iter()
        .map(|&(k, beta)| {
            let mut cfg = insights_config(SEED, Algorithm::seafl(m, k, beta), scale);
            cfg.grad_norm_probe = true;
            let beta = beta.map_or("inf".to_string(), |b| b.to_string());
            arm(format!("K={k},beta={beta}"), cfg)
        })
        .collect();
    let title = "Corollary 1: gradient-norm trajectories vs (K, beta)".into();
    let row = Row::new("convergence".into(), title, &INSIGHTS_TARGETS, arms);
    Row { grad_norms: true, ..row.hook(report::grad_norm_decay) }
}

/// The codec sweep: the Fig. 5 SEAFL arm under each update codec, so
/// bytes-to-accuracy (an axis the paper never measured) is isolated
/// against accuracy cost.
pub(crate) fn codec_arms(workload: Workload, scale: Scale) -> Vec<Arm> {
    let (m, k) = m_k(scale);
    let topk = vec![CodecStage::TopK { k: 2048 }];
    let codecs = [
        ("identity", CodecConfig::default()),
        ("topk", CodecConfig { stages: topk.clone(), error_feedback: false }),
        ("int8", CodecConfig { stages: vec![CodecStage::QuantInt8], error_feedback: false }),
        ("gendelta", CodecConfig { stages: vec![CodecStage::GenDelta], error_feedback: false }),
        ("topk+ef", CodecConfig { stages: topk, error_feedback: true }),
    ];
    let seafl = evaluation_config(SEED, workload, Algorithm::seafl(m, k, Some(BETA)), scale);
    codecs
        .into_iter()
        .map(|(label, codec)| arm(label, ExperimentConfig { codec, ..seafl.clone() }))
        .collect()
}

fn codec_sweep(workload: Workload, scale: Scale) -> Row {
    let title = format!("Codec sweep ({}): bytes-to-accuracy per update codec", workload.name());
    let arms = codec_arms(workload, scale);
    Row::new(workload.stem("codec_sweep"), title, workload.targets(), arms)
        .hook(report::bytes_to_target)
}

/// The chaos bench: the four asynchronous algorithms and synchronous
/// FedAvg on a healthy and a faulty fleet ([`chaos_overlay`]).
fn chaos(scale: Scale) -> Row {
    let (m, k) = m_k(scale);
    let mut arms = Vec::new();
    for alg in [
        Algorithm::seafl(m, k, Some(BETA)),
        Algorithm::seafl2(m, k, BETA),
        Algorithm::fedbuff(m, k),
        Algorithm::fedasync(m),
        Algorithm::fedavg(m),
    ] {
        let healthy = insights_config(SEED, alg, scale);
        let name = build_policy(&healthy).name();
        let mut faulty = healthy.clone();
        chaos_overlay(&mut faulty);
        arms.push(arm(format!("{name} (healthy)"), healthy));
        arms.push(arm(format!("{name} (faulty)"), faulty));
    }
    let title = "Chaos: healthy vs faulty fleet".into();
    Row::new("chaos".into(), title, &[INSIGHTS_TARGET], arms).curves().hook(report::fault_tax)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row figure at both scales, one row per part.
    fn all_rows(scale: Scale) -> Vec<Row> {
        [
            "fig2_insights",
            "fig4_hyperparams",
            "fig5_baselines",
            "fig6_partial",
            "ablation",
            "convergence",
            "codec_sweep",
            "chaos",
        ]
        .iter()
        .flat_map(|f| rows(f, scale, None, None))
        .collect()
    }

    #[test]
    fn all_profiles_validate() {
        for scale in [Scale::Smoke, Scale::Std] {
            for row in all_rows(scale) {
                assert!(!row.arms.is_empty(), "{}: no arms", row.stem);
                for a in &row.arms {
                    a.config.validate();
                }
            }
        }
    }

    #[test]
    fn every_row_writes_its_own_files() {
        let mut stems: Vec<String> = all_rows(Scale::Smoke).into_iter().map(|r| r.stem).collect();
        assert_eq!(stems.len(), 16);
        stems.sort();
        stems.dedup();
        assert_eq!(stems.len(), 16, "two rows share an output stem");
    }

    #[test]
    fn parts_and_workloads_select_rows() {
        let stems = |f, part, w| -> Vec<String> {
            rows(f, Scale::Smoke, part, w).into_iter().map(|r| r.stem).collect()
        };
        assert_eq!(stems("fig2_insights", Some("b"), None), ["fig2b_staleness_limit"]);
        assert_eq!(stems("ablation", Some("prox"), None), ["ablation_prox"]);
        assert!(stems("fig6_partial", Some("z"), None).is_empty());
        // A figure without parts ignores --part.
        assert_eq!(stems("fig4_hyperparams", Some("a"), None), ["fig4_hyperparams"]);
        assert_eq!(stems("fig5_baselines", None, Some("cinic")), ["fig5_cinic10_like"]);
        assert_eq!(stems("fig5_baselines", None, None).len(), 3);
        assert_eq!(stems("codec_sweep", None, None), ["codec_sweep_emnist_like"]);
    }

    #[test]
    #[should_panic(expected = "unknown --workload mnist")]
    fn unknown_workload_panics() {
        rows("fig5_baselines", Scale::Smoke, None, Some("mnist"));
    }

    #[test]
    fn fig5_arms_cover_all_algorithms() {
        let arms = fig5_arms(Workload::Emnist, Scale::Smoke);
        let names: Vec<&str> = arms.iter().map(|a| build_policy(&a.config).name()).collect();
        assert_eq!(names, vec!["seafl", "seafl", "fedbuff", "fedasync", "fedavg", "fedstale"]);
    }

    #[test]
    fn chaos_arms_pair_every_algorithm() {
        let row = chaos(Scale::Smoke);
        let labels: Vec<&str> = row.arms.iter().map(|a| a.label.as_str()).collect();
        let mut want = Vec::new();
        for name in ["seafl", "seafl2", "fedbuff", "fedasync", "fedavg"] {
            want.push(format!("{name} (healthy)"));
            want.push(format!("{name} (faulty)"));
        }
        assert_eq!(labels, want);
        for pair in row.arms.chunks(2) {
            assert!(pair[0].config.faults.is_noop(), "{}", pair[0].label);
            assert!(!pair[1].config.faults.is_noop(), "{}", pair[1].label);
        }
    }

    #[test]
    fn codec_arms_sweep_distinct_codecs() {
        let arms = codec_arms(Workload::Emnist, Scale::Smoke);
        assert_eq!(arms.len(), 5);
        assert_eq!(arms[0].label, "identity");
        assert!(arms[0].config.codec.is_identity());
        for a in &arms {
            a.config.validate();
            assert_eq!(a.config.codec.label(), a.label, "arm label must be the codec's own label");
        }
        // Same science, different codec: every non-identity arm moves the
        // state hash away from the identity arm's.
        let base = arms[0].config.state_hash();
        for a in &arms[1..] {
            assert_ne!(a.config.state_hash(), base);
        }
    }

    #[test]
    fn chaos_overlay_validates() {
        let mut cfg = insights_config(0, Algorithm::seafl(6, 3, Some(10)), Scale::Smoke);
        chaos_overlay(&mut cfg);
        cfg.validate();
        assert!(!cfg.faults.is_noop());
        assert!(cfg.resilience.session_timeout.is_some());
    }

    #[test]
    fn workload_targets_nonempty() {
        for w in [Workload::Emnist, Workload::Cifar, Workload::Cinic] {
            assert!(!w.targets().is_empty());
            assert!(!w.name().is_empty());
        }
    }
}
