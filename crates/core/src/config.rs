//! Experiment configuration.

use crate::codec::CodecConfig;
use crate::engine::event_loop::RETRY_BACKOFF_CAP;
use crate::obs::ObsConfig;
use crate::policy::{FedAsyncPolicy, FedAvgPolicy, FedBuffPolicy, SeaflPolicy, StalenessPolicy};
use crate::robust::RobustConfig;
use seafl_data::SyntheticSpec;
use seafl_nn::ModelKind;
use seafl_sim::faults::{ensure, ConfigError};
use seafl_sim::{AttackConfig, FaultConfig, FleetConfig, LossConfig};

/// How training samples are split across clients.
#[derive(Clone, Copy, Debug)]
pub enum PartitionStrategy {
    /// Label-skew non-IID via a symmetric Dirichlet(α) over clients per
    /// class (the paper's scheme; smaller α ⇒ more skew).
    Dirichlet {
        /// Concentration α.
        alpha: f64,
    },
    /// Uniform random split.
    Iid,
    /// Pathological label shards (each client sees ≤ ~2·per_client labels).
    Shards {
        /// Shards dealt to each client.
        per_client: usize,
    },
    /// IID labels but heavy-tailed sample counts per client.
    QuantitySkew {
        /// Power-law tail exponent; smaller is heavier.
        tail: f64,
    },
}

/// How the server picks which idle devices start training.
#[derive(Clone, Copy, Debug)]
pub enum SelectionPolicy {
    /// Uniform random from the idle pool (the paper's setting).
    Uniform,
    /// Speed-biased sampling: device `k` is drawn with weight
    /// `speed_factor_k^{-exponent}` — positive exponents favour fast
    /// devices (Oort/PyramidFL-style system-aware selection, §II-A),
    /// negative ones boost stragglers' participation frequency.
    SpeedBiased {
        /// Positive favours fast devices, negative boosts stragglers.
        exponent: f64,
    },
}

/// Which FL algorithm drives the run. Each variant holds the
/// [`ServerPolicy`](crate::ServerPolicy) struct that
/// [`build_policy`](crate::build_policy) boxes, so an algorithm's
/// parameters, defaults and label live with its policy.
#[derive(Clone, Copy, Debug)]
pub enum Algorithm {
    /// Synchronous FedAvg: sample a cohort, wait for all of it.
    FedAvg(FedAvgPolicy),
    /// Fully asynchronous FedAsync: aggregate every single arrival with
    /// polynomial staleness mixing.
    FedAsync(FedAsyncPolicy),
    /// Semi-asynchronous FedBuff: uniform 1/K weights, ϑ-mixing, no
    /// staleness limit.
    FedBuff(FedBuffPolicy),
    /// SEAFL / SEAFL²: adaptive staleness+importance weighting (Eqs. 4–8).
    Seafl(SeaflPolicy),
    /// Staleness-fair buffered aggregation (`FedStaleWeightPolicy`). It
    /// keeps its parameters as fields because its policy also holds
    /// per-client running means, sized by `num_clients`.
    FedStale {
        /// Devices kept training concurrently.
        concurrency: usize,
        /// Updates buffered per aggregation, K.
        buffer_k: usize,
        /// Server mixing ϑ.
        theta: f32,
    },
}

impl Algorithm {
    /// SEAFL with the paper's tuned hyperparameters; Algorithm 1's wait
    /// rule when β is finite.
    pub fn seafl(concurrency: usize, buffer_k: usize, beta: Option<u64>) -> Self {
        let rule =
            if beta.is_some() { StalenessPolicy::WaitForStale } else { StalenessPolicy::Ignore };
        Algorithm::Seafl(SeaflPolicy::paper(concurrency, buffer_k, beta, rule))
    }

    /// SEAFL² (partial training) with the paper's tuned hyperparameters.
    pub fn seafl2(concurrency: usize, buffer_k: usize, beta: u64) -> Self {
        let rule = StalenessPolicy::NotifyPartial;
        Algorithm::Seafl(SeaflPolicy::paper(concurrency, buffer_k, Some(beta), rule))
    }

    /// SEAFL weighting with the SAFA-style discard policy: over-limit
    /// updates are dropped instead of waited for (ablation arm).
    pub fn seafl_drop(concurrency: usize, buffer_k: usize, beta: u64) -> Self {
        let rule = StalenessPolicy::DropStale;
        Algorithm::Seafl(SeaflPolicy::paper(concurrency, buffer_k, Some(beta), rule))
    }

    /// Synchronous FedAvg over cohorts of `clients_per_round` devices.
    pub fn fedavg(clients_per_round: usize) -> Self {
        Algorithm::FedAvg(FedAvgPolicy { clients_per_round })
    }

    /// FedBuff with the paper's ϑ.
    pub fn fedbuff(concurrency: usize, buffer_k: usize) -> Self {
        Algorithm::FedBuff(FedBuffPolicy { concurrency, buffer_k, theta: 0.8 })
    }

    /// FedAsync with polynomial staleness damping (α = 0.6, a = 0.5).
    pub fn fedasync(concurrency: usize) -> Self {
        Algorithm::FedAsync(FedAsyncPolicy { concurrency, mixing_alpha: 0.6, poly_a: 0.5 })
    }

    /// FedAsync with its *constant* mixing strategy (`s(τ) = 1`, the
    /// FedAsync paper's baseline strategy): every arriving update is mixed
    /// in with weight α regardless of staleness. This is the aggressive
    /// configuration whose instability the SEAFL paper reports in Fig. 5.
    pub fn fedasync_constant(concurrency: usize) -> Self {
        Algorithm::FedAsync(FedAsyncPolicy { concurrency, mixing_alpha: 0.6, poly_a: 0.0 })
    }

    /// FedStaleWeight-style staleness-fair reweighting with the paper's ϑ.
    pub fn fedstale(concurrency: usize, buffer_k: usize) -> Self {
        Algorithm::FedStale { concurrency, buffer_k, theta: 0.8 }
    }
}

/// Server- and client-side fault tolerance knobs. Everything here is
/// inert unless it fires: with the default settings and a healthy fleet,
/// runs are bit-identical to a build without resilience support.
#[derive(Clone, Copy, Debug)]
pub struct ResilienceConfig {
    /// Reclaim an in-flight training session that has not reported after
    /// this many simulated seconds: the client returns to the idle pool and
    /// stops blocking the `WaitForStale`/`NotifyPartial` staleness scans.
    /// `None` disables timeouts (a single crashed client then stalls SEAFL's
    /// wait rule forever — the liveness failure the timeout exists to fix).
    pub session_timeout: Option<f64>,
    /// Base backoff delay before upload retry attempt `i`: `base · 2^(i−1)`
    /// seconds, capped at 60 s. A client retries a lost upload three times
    /// before giving the session up.
    pub retry_backoff_base: f64,
    /// Quarantine a client (exclude it from selection for the rest of the
    /// run) after this many *consecutive* session timeouts. Crashed devices
    /// stop wasting server concurrency after a couple of timeouts instead
    /// of being re-selected forever.
    pub quarantine_after: u32,
    /// Sanitizer: reject updates containing NaN/±∞ before aggregation.
    pub reject_non_finite: bool,
    /// Sanitizer: reject updates whose L2 distance from the current global
    /// model exceeds `ratio · max(‖w_global‖, 1)`. `None` disables the norm
    /// check (non-finite rejection alone never fires on healthy runs).
    pub max_update_norm_ratio: Option<f64>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            session_timeout: None,
            retry_backoff_base: 2.0,
            quarantine_after: 2,
            reject_non_finite: true,
            max_update_norm_ratio: None,
        }
    }
}

impl ResilienceConfig {
    /// Sanity-check invariants (called from [`ExperimentConfig::validate`]).
    pub(crate) fn validate(&self) {
        if let Some(t) = self.session_timeout {
            assert!(t > 0.0, "config: non-positive session_timeout");
        }
        assert!(self.retry_backoff_base > 0.0, "config: non-positive retry_backoff_base");
        let base = self.retry_backoff_base;
        assert!(
            base <= RETRY_BACKOFF_CAP,
            "config: retry_backoff_base {base} above the {RETRY_BACKOFF_CAP} s backoff cap"
        );
        assert!(self.quarantine_after >= 1, "config: quarantine_after must be >= 1");
        if let Some(r) = self.max_update_norm_ratio {
            assert!(r > 0.0, "config: non-positive max_update_norm_ratio");
        }
    }
}

/// Wire-transport knobs for running the fleet over real sockets
/// (`seafl-net`'s server/client binaries). Execution-only, like `threads`
/// and the checkpoint knobs: the protocol recovers every frame, so none of
/// these change what a run computes, and they are normalized out of
/// [`ExperimentConfig::state_hash`] — a TCP run with packet loss handshakes
/// cleanly against a simulator config that never mentions the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct TransportConfig {
    /// Model download / update upload chunk size, bytes per `Data` frame.
    pub chunk_bytes: usize,
    /// How many sent frames each side retains for replay after a reconnect.
    /// A peer whose last acked offset has fallen out of this window cannot
    /// resume and is rejected (`ResumeGap`).
    pub replay_history: usize,
    /// Base retransmit timeout, seconds; doubles per retry up to
    /// [`RTO_CAP`](Self::RTO_CAP) (capped exponential backoff, mirroring
    /// [`ResilienceConfig::retry_backoff_base`]).
    pub rto_base: f64,
    /// Quarantine a connected worker after this many seconds of wire
    /// silence while it holds outstanding assignments; its jobs fail over
    /// (the existing quarantine path, now at the transport layer).
    pub idle_timeout: f64,
    /// Server listen endpoint (`"tcp://host:port"` or `"uds:///path"`);
    /// `None` means this config never binds a socket (pure simulation).
    pub listen: Option<String>,
    /// Client connect endpoint, same syntax as [`listen`](Self::listen).
    pub connect: Option<String>,
    /// Seeded frame-loss injection on this process's links (tests and
    /// resilience drills; [`LossConfig::none`] in production).
    pub loss: LossConfig,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            chunk_bytes: 64 * 1024,
            replay_history: 1024,
            rto_base: 0.05,
            idle_timeout: 30.0,
            listen: None,
            connect: None,
            loss: LossConfig::none(),
        }
    }
}

impl TransportConfig {
    /// Upper bound on a single retransmit timeout, seconds.
    pub const RTO_CAP: f64 = 2.0;

    /// Check invariants (called from [`ExperimentConfig::validate`]).
    pub fn validate(&self) -> Result<(), ConfigError> {
        ensure(self.chunk_bytes >= 1, || "config: transport.chunk_bytes must be >= 1".into())?;
        ensure(self.replay_history >= 1, || {
            "config: transport.replay_history must be >= 1".into()
        })?;
        ensure(self.rto_base > 0.0, || "config: non-positive transport.rto_base".into())?;
        ensure(self.rto_base <= Self::RTO_CAP, || {
            let (base, cap) = (self.rto_base, Self::RTO_CAP);
            format!("config: transport.rto_base {base} above the {cap} s retransmit cap")
        })?;
        ensure(self.idle_timeout > 0.0, || "config: non-positive transport.idle_timeout".into())?;
        for (name, ep) in [("listen", &self.listen), ("connect", &self.connect)] {
            if let Some(ep) = ep {
                ensure(ep.starts_with("tcp://") || ep.starts_with("uds://"), || {
                    format!("config: transport.{name} {ep:?} must start with tcp:// or uds://")
                })?;
            }
        }
        self.loss.validate()
    }
}

/// Full description of one simulated FL run.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Master seed; every stochastic component derives its own stream.
    pub seed: u64,
    /// Model architecture.
    pub model: ModelKind,
    /// Synthetic dataset family.
    pub spec: SyntheticSpec,
    /// Training samples generated per class (split across clients).
    pub train_per_class: usize,
    /// Test samples per class (server-side evaluation set).
    pub test_per_class: usize,
    /// Total devices N.
    pub num_clients: usize,
    /// Partitioning scheme (the paper uses `Dirichlet`).
    pub partition: PartitionStrategy,
    /// Client-selection policy (the paper uses `Uniform`).
    pub selection: SelectionPolicy,
    /// Per-client feature shift σ: each client's images get an affine
    /// `scale·x + bias` with `scale ~ N(1, σ)`, `bias ~ N(0, σ)` — feature
    /// (as opposed to label) heterogeneity. 0 disables (the paper's
    /// setting).
    pub feature_shift_sigma: f32,
    /// Device fleet timing model.
    pub fleet: FleetConfig,
    /// Local epochs E.
    pub local_epochs: usize,
    /// Local minibatch size B.
    pub batch_size: usize,
    /// Local learning rate η.
    pub lr: f32,
    /// Local SGD momentum (0 = paper's plain SGD).
    pub momentum: f32,
    /// FedProx proximal coefficient toward the downloaded global model
    /// (0 = paper's plain local SGD).
    pub prox_mu: f32,
    /// The algorithm under test.
    pub algorithm: Algorithm,
    /// Hard stop: simulated seconds.
    pub max_sim_time: f64,
    /// Hard stop: server rounds (aggregations).
    pub max_rounds: u64,
    /// Evaluate the global model every this many aggregations.
    pub eval_every: u64,
    /// Stop as soon as test accuracy reaches this value (None = run to the
    /// time/round limit).
    pub stop_at_accuracy: Option<f64>,
    /// Also record ‖∇f(w_t)‖² on a fixed probe batch at every evaluation
    /// (used by the convergence-rate experiment).
    pub grad_norm_probe: bool,
    /// Worker threads for the parallel training executor: `0` sizes to the
    /// rayon default (all cores, or `RAYON_NUM_THREADS`), `1` trains each
    /// cohort sequentially on the engine thread, `n ≥ 2` uses a dedicated
    /// pool. Results are bitwise identical for every setting. `1` is not
    /// single-threaded everywhere: the idle scan of a fleet above 4 096
    /// bitset words (262 144 clients) still fans out on the global rayon
    /// pool, since there is no dedicated pool to confine it to.
    pub threads: usize,
    /// Fleet fault model (crashes, upload loss, straggler spikes,
    /// corrupted updates). Off by default: [`FaultConfig::none`] keeps
    /// every run bit-identical to the fault-free simulator.
    pub faults: FaultConfig,
    /// Adversarial (Byzantine) client model: seeded attacker assignment
    /// and per-upload tampering. Off by default: [`AttackConfig::none`]
    /// draws nothing from any RNG stream and keeps runs bit-identical to
    /// the attack-free simulator.
    pub attack: AttackConfig,
    /// Server/client fault tolerance (session timeouts, upload retry with
    /// backoff, update sanitization).
    pub resilience: ResilienceConfig,
    /// Byzantine-robust aggregation rule applied between the sanitizer and
    /// the policy's weighting step. The default
    /// ([`crate::robust::RobustAggregator::Mean`]) is a bit-identical
    /// pass-through.
    pub robust: RobustConfig,
    /// Write a durable checkpoint every this many aggregation rounds
    /// (requires `checkpoint_dir`). `None` with a directory set means every
    /// round. Checkpoint writes are pure I/O — they never touch simulation
    /// state, so a checkpointed run is bit-identical to an unchecked one.
    pub checkpoint_every: Option<u64>,
    /// Directory for durable server snapshots; `None` (the default)
    /// disables checkpointing entirely.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// How many most-recent checkpoints to retain (older ones are pruned
    /// after each successful write). Keeping ≥ 2 lets resume fall back to
    /// the previous snapshot if the newest one is torn or corrupted.
    pub keep_last: usize,
    /// Observability: what the run records and whether it streams JSONL.
    /// Pure measurement — never feeds back into the simulation, excluded
    /// from [`state_hash`](ExperimentConfig::state_hash) and from
    /// checkpoints.
    pub obs: ObsConfig,
    /// Wire-transport knobs for the real server/client fleet. Inert in
    /// simulation; excluded from [`state_hash`](ExperimentConfig::state_hash)
    /// (the loss-tolerant protocol makes results transport-independent).
    pub transport: TransportConfig,
    /// Update-compression pipeline (empty = identity passthrough). Unlike
    /// `transport`, a lossy codec *changes what the run computes*, so
    /// every codec knob stays inside
    /// [`state_hash`](ExperimentConfig::state_hash) — which also makes the
    /// wire handshake's config-hash check prove codec agreement.
    pub codec: CodecConfig,
}

impl ExperimentConfig {
    /// A compact default: EMNIST-like data on a small MLP over a Pareto
    /// fleet — useful as a starting point; experiments override fields.
    pub fn quick(seed: u64, algorithm: Algorithm) -> Self {
        // Harden the stock task (heavier noise + class confusion) so the
        // run spends tens of rounds below the plateau — otherwise every
        // algorithm saturates in one round and there is nothing to compare.
        let mut spec = SyntheticSpec::emnist_like();
        spec.noise_std = 1.3;
        spec.confusion = 0.45;
        spec.amp_jitter = 0.6;
        ExperimentConfig {
            seed,
            model: ModelKind::Mlp { in_features: 28 * 28, hidden: 64, num_classes: 10 },
            spec,
            train_per_class: 400,
            test_per_class: 40,
            num_clients: 40,
            partition: PartitionStrategy::Dirichlet { alpha: 0.5 },
            selection: SelectionPolicy::Uniform,
            feature_shift_sigma: 0.0,
            fleet: FleetConfig::pareto_fleet(40),
            local_epochs: 5,
            batch_size: 32,
            lr: 0.03,
            momentum: 0.0,
            prox_mu: 0.0,
            algorithm,
            max_sim_time: 3_000.0,
            max_rounds: 150,
            eval_every: 1,
            stop_at_accuracy: Some(0.88),
            grad_norm_probe: false,
            threads: 0,
            faults: FaultConfig::none(),
            attack: AttackConfig::none(),
            resilience: ResilienceConfig::default(),
            robust: RobustConfig::default(),
            checkpoint_every: None,
            checkpoint_dir: None,
            keep_last: 2,
            obs: ObsConfig::default(),
            transport: TransportConfig::default(),
            codec: CodecConfig::default(),
        }
    }

    /// Stable fingerprint of everything that determines the *simulation
    /// state trajectory* of a run. Execution-only knobs — `threads` (the
    /// executor is bitwise thread-count-independent) and the checkpoint
    /// knobs themselves — are normalized out, so a checkpoint written by a
    /// `threads = 1` run resumes cleanly under `threads = 4`, while any
    /// drift in seed, data, fleet, algorithm or fault model is rejected at
    /// load time.
    pub fn state_hash(&self) -> u64 {
        let mut c = self.clone();
        c.threads = 0;
        c.checkpoint_every = None;
        c.checkpoint_dir = None;
        c.keep_last = 0;
        c.obs = ObsConfig::default();
        c.transport = TransportConfig::default();
        seafl_sim::digest::fnv1a64(format!("{c:?}").as_bytes())
    }

    /// Sanity-check invariants before running.
    pub fn validate(&self) {
        assert!(self.num_clients > 0, "config: zero clients");
        assert_eq!(
            self.fleet.num_devices, self.num_clients,
            "config: fleet size must match num_clients"
        );
        assert!(self.local_epochs >= 1, "config: zero local epochs");
        assert!(self.batch_size >= 1, "config: zero batch size");
        assert!(self.lr > 0.0, "config: non-positive lr");
        assert!(self.prox_mu >= 0.0, "config: negative prox_mu");
        assert!(self.feature_shift_sigma >= 0.0, "config: negative feature shift");
        if let SelectionPolicy::SpeedBiased { exponent } = self.selection {
            assert!(exponent.is_finite(), "config: non-finite selection exponent");
        }
        match self.partition {
            PartitionStrategy::Dirichlet { alpha } => {
                assert!(alpha > 0.0, "config: non-positive Dirichlet alpha")
            }
            PartitionStrategy::Shards { per_client } => {
                assert!(per_client >= 1, "config: zero shards per client")
            }
            PartitionStrategy::QuantitySkew { tail } => {
                assert!(tail > 0.0, "config: non-positive quantity-skew tail")
            }
            PartitionStrategy::Iid => {}
        }
        assert!(self.max_sim_time > 0.0, "config: non-positive time limit");
        assert!(self.eval_every >= 1, "config: eval_every must be >= 1");
        if let Some(every) = self.checkpoint_every {
            assert!(every >= 1, "config: checkpoint_every must be >= 1");
        }
        assert!(self.keep_last >= 1, "config: keep_last must be >= 1");
        self.faults.validate().unwrap_or_else(|e| panic!("{e}"));
        self.attack.validate().unwrap_or_else(|e| panic!("{e}"));
        self.robust.validate().unwrap_or_else(|e| panic!("{e}"));
        self.resilience.validate();
        self.obs.validate();
        self.transport.validate().unwrap_or_else(|e| panic!("{e}"));
        self.codec.validate().unwrap_or_else(|e| panic!("{e}"));
        assert!(
            self.train_per_class * self.spec.num_classes >= self.num_clients,
            "config: not enough training samples for the client count"
        );
        match self.algorithm {
            Algorithm::FedAvg(FedAvgPolicy { clients_per_round }) => {
                assert!(
                    (1..=self.num_clients).contains(&clients_per_round),
                    "config: clients_per_round out of range"
                );
            }
            Algorithm::FedAsync(FedAsyncPolicy { concurrency, mixing_alpha, poly_a }) => {
                assert!((1..=self.num_clients).contains(&concurrency));
                assert!(
                    mixing_alpha > 0.0 && mixing_alpha <= 1.0,
                    "config: mixing_alpha out of (0,1]"
                );
                assert!(poly_a.is_finite() && poly_a >= 0.0, "config: poly_a must be finite, >= 0");
            }
            Algorithm::FedBuff(FedBuffPolicy { concurrency, buffer_k, theta })
            | Algorithm::FedStale { concurrency, buffer_k, theta } => {
                assert!((1..=self.num_clients).contains(&concurrency));
                assert!((1..=concurrency).contains(&buffer_k), "config: K must be in [1, M]");
                assert!(theta > 0.0 && theta <= 1.0, "config: theta out of (0,1]");
            }
            Algorithm::Seafl(p) => {
                assert!((1..=self.num_clients).contains(&p.concurrency));
                assert!((1..=p.concurrency).contains(&p.buffer_k), "config: K must be in [1, M]");
                assert!(p.theta > 0.0 && p.theta <= 1.0, "config: theta out of (0,1]");
                assert!(
                    p.alpha.is_finite() && p.alpha >= 0.0,
                    "config: alpha must be finite, >= 0"
                );
                assert!(p.mu.is_finite() && p.mu >= 0.0, "config: mu must be finite, >= 0");
                let policy = p.policy;
                if policy != StalenessPolicy::Ignore {
                    assert!(
                        p.beta.is_some(),
                        "config: staleness policy {policy:?} requires a finite beta"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SEAFL (Algorithm 1) at the paper's settings.
    fn wait(concurrency: usize, buffer_k: usize, beta: Option<u64>) -> SeaflPolicy {
        SeaflPolicy::paper(concurrency, buffer_k, beta, StalenessPolicy::WaitForStale)
    }

    #[test]
    fn quick_config_validates() {
        ExperimentConfig::quick(0, Algorithm::seafl(10, 5, Some(10))).validate();
        ExperimentConfig::quick(0, Algorithm::fedbuff(10, 5)).validate();
        ExperimentConfig::quick(0, Algorithm::fedasync(10)).validate();
        ExperimentConfig::quick(0, Algorithm::fedavg(8)).validate();
        ExperimentConfig::quick(0, Algorithm::fedstale(10, 5)).validate();
    }

    /// Every constructor, through the policy it builds: label, M, K and
    /// whether training keeps per-epoch snapshots.
    #[test]
    fn algorithm_names() {
        let cases = [
            (Algorithm::seafl(10, 5, Some(10)), ("seafl", 10, 5, false)),
            (Algorithm::seafl(10, 5, None), ("seafl", 10, 5, false)),
            (Algorithm::seafl2(10, 5, 3), ("seafl2", 10, 5, true)),
            (Algorithm::seafl_drop(10, 5, 3), ("seafl-drop", 10, 5, false)),
            (Algorithm::fedavg(8), ("fedavg", 8, 1, false)),
            (Algorithm::fedbuff(10, 5), ("fedbuff", 10, 5, false)),
            (Algorithm::fedasync(10), ("fedasync", 10, 1, false)),
            (Algorithm::fedasync_constant(10), ("fedasync", 10, 1, false)),
            (Algorithm::fedstale(10, 5), ("fedstale", 10, 5, false)),
        ];
        for (algorithm, want) in cases {
            let cfg = ExperimentConfig::quick(0, algorithm);
            cfg.validate();
            let p = crate::policy::build_policy(&cfg);
            let got = (p.name(), p.concurrency(), p.buffer_k(), p.keep_epoch_snapshots());
            assert_eq!(got, want, "{algorithm:?}");
        }
    }

    #[test]
    fn seafl_infinite_beta_ignores_staleness_policy() {
        let Algorithm::Seafl(p) = Algorithm::seafl(10, 5, None) else { unreachable!() };
        assert_eq!(p.policy, StalenessPolicy::Ignore);
        assert!(p.beta.is_none());
    }

    #[test]
    #[should_panic(expected = "K must be in [1, M]")]
    fn buffer_larger_than_concurrency_panics() {
        ExperimentConfig::quick(0, Algorithm::fedbuff(5, 10)).validate();
    }

    #[test]
    #[should_panic(expected = "theta out of (0,1]")]
    fn fedbuff_theta_out_of_range_panics() {
        let alg = Algorithm::FedBuff(FedBuffPolicy { concurrency: 10, buffer_k: 5, theta: 1.5 });
        ExperimentConfig::quick(0, alg).validate();
    }

    #[test]
    #[should_panic(expected = "theta out of (0,1]")]
    fn seafl_zero_theta_panics() {
        let alg = Algorithm::Seafl(SeaflPolicy { theta: 0.0, ..wait(10, 5, Some(10)) });
        ExperimentConfig::quick(0, alg).validate();
    }

    #[test]
    #[should_panic(expected = "theta out of (0,1]")]
    fn fedstale_zero_theta_panics() {
        ExperimentConfig::quick(
            0,
            Algorithm::FedStale { concurrency: 10, buffer_k: 5, theta: 0.0 },
        )
        .validate();
    }

    #[test]
    #[should_panic(expected = "mixing_alpha out of (0,1]")]
    fn fedasync_mixing_alpha_out_of_range_panics() {
        let alg =
            Algorithm::FedAsync(FedAsyncPolicy { concurrency: 10, mixing_alpha: 0.0, poly_a: 0.5 });
        ExperimentConfig::quick(0, alg).validate();
    }

    #[test]
    #[should_panic(expected = "poly_a must be finite, >= 0")]
    fn fedasync_negative_poly_a_panics() {
        let alg = Algorithm::FedAsync(FedAsyncPolicy {
            concurrency: 10,
            mixing_alpha: 0.6,
            poly_a: -1.0,
        });
        ExperimentConfig::quick(0, alg).validate();
    }

    #[test]
    #[should_panic(expected = "alpha must be finite, >= 0")]
    fn seafl_nan_alpha_panics() {
        let alg = Algorithm::Seafl(SeaflPolicy { alpha: f32::NAN, ..wait(10, 5, Some(10)) });
        ExperimentConfig::quick(0, alg).validate();
    }

    #[test]
    #[should_panic(expected = "mu must be finite, >= 0")]
    fn seafl_negative_mu_panics() {
        let alg = Algorithm::Seafl(SeaflPolicy { mu: -1.0, ..wait(10, 5, Some(10)) });
        ExperimentConfig::quick(0, alg).validate();
    }

    #[test]
    #[should_panic(expected = "requires a finite beta")]
    fn notify_without_beta_panics() {
        let p = SeaflPolicy::paper(10, 5, None, StalenessPolicy::NotifyPartial);
        ExperimentConfig::quick(0, Algorithm::Seafl(p)).validate();
    }

    #[test]
    #[should_panic(expected = "zero local epochs")]
    fn zero_local_epochs_rejected() {
        // Regression guard: `begin_session` indexes
        // `epoch_ends[local_epochs - 1]`, so E = 0 must be caught here with
        // a clear error, not surface as an engine panic.
        let mut cfg = ExperimentConfig::quick(0, Algorithm::fedbuff(10, 5));
        cfg.local_epochs = 0;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "non-positive session_timeout")]
    fn zero_session_timeout_rejected() {
        let mut cfg = ExperimentConfig::quick(0, Algorithm::fedbuff(10, 5));
        cfg.resilience.session_timeout = Some(0.0);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn out_of_range_fault_probability_rejected() {
        let mut cfg = ExperimentConfig::quick(0, Algorithm::fedbuff(10, 5));
        cfg.faults.crash_prob = 2.0;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "attacker_prob")]
    fn out_of_range_attack_probability_rejected() {
        let mut cfg = ExperimentConfig::quick(0, Algorithm::fedbuff(10, 5));
        cfg.attack.attacker_prob = 1.5;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "trimmed_mean beta")]
    fn out_of_range_robust_beta_rejected() {
        let mut cfg = ExperimentConfig::quick(0, Algorithm::fedbuff(10, 5));
        cfg.robust.rule = crate::robust::RobustAggregator::TrimmedMean { beta: 0.6 };
        cfg.validate();
    }

    #[test]
    fn default_config_has_no_faults() {
        let cfg = ExperimentConfig::quick(0, Algorithm::fedbuff(10, 5));
        assert!(cfg.faults.is_noop());
        assert!(cfg.attack.is_noop());
        assert!(cfg.robust.rule == crate::robust::RobustAggregator::Mean);
        assert!(cfg.resilience.session_timeout.is_none());
        assert!(cfg.resilience.reject_non_finite);
        assert!(cfg.resilience.max_update_norm_ratio.is_none());
        cfg.validate();
    }

    #[test]
    fn state_hash_ignores_execution_knobs_only() {
        let base = ExperimentConfig::quick(1, Algorithm::seafl(10, 5, Some(10)));
        let h = base.state_hash();

        // Execution details: hash must NOT move.
        let mut c = base.clone();
        c.threads = 8;
        assert_eq!(c.state_hash(), h, "threads changed the state hash");
        c.checkpoint_every = Some(3);
        c.checkpoint_dir = Some(std::path::PathBuf::from("/tmp/x"));
        c.keep_last = 7;
        assert_eq!(c.state_hash(), h, "checkpoint knobs changed the state hash");
        c.obs = crate::obs::ObsConfig::full("/tmp/x.jsonl");
        assert_eq!(c.state_hash(), h, "obs knobs changed the state hash");
        c.obs = crate::obs::ObsConfig::off();
        assert_eq!(c.state_hash(), h, "obs knobs changed the state hash");
        c.transport.listen = Some("tcp://127.0.0.1:7000".into());
        c.transport.connect = Some("tcp://127.0.0.1:7000".into());
        c.transport.chunk_bytes = 4096;
        c.transport.loss.drop_prob = 0.2;
        assert_eq!(c.state_hash(), h, "transport knobs changed the state hash");

        // State-relevant drift: hash MUST move.
        let mut c = base.clone();
        c.seed = 2;
        assert_ne!(c.state_hash(), h, "seed drift not detected");
        let mut c = base.clone();
        c.lr = 0.05;
        assert_ne!(c.state_hash(), h, "lr drift not detected");
        let mut c = base.clone();
        c.faults.crash_prob = 0.1;
        assert_ne!(c.state_hash(), h, "fault-model drift not detected");
        let mut c = base.clone();
        c.attack.attacker_prob = 0.3;
        c.attack.kinds = vec![seafl_sim::AttackKind::SignFlip];
        assert_ne!(c.state_hash(), h, "attack-model drift not detected");
        let mut c = base.clone();
        c.robust.rule = crate::robust::RobustAggregator::CoordMedian;
        assert_ne!(c.state_hash(), h, "robust-rule drift not detected");
        // The codec changes what the run computes, so it must move the hash.
        let mut c = base.clone();
        c.codec.stages = vec![crate::codec::CodecStage::TopK { k: 64 }];
        assert_ne!(c.state_hash(), h, "codec stage drift not detected");
        let with_stage = c.state_hash();
        c.codec.error_feedback = true;
        assert_ne!(c.state_hash(), with_stage, "error-feedback drift not detected");
    }

    #[test]
    #[should_panic(expected = "ObsMode::Full requires obs.jsonl_path")]
    fn obs_full_without_path_rejected() {
        let mut cfg = ExperimentConfig::quick(0, Algorithm::fedbuff(10, 5));
        cfg.obs.mode = crate::obs::ObsMode::Full;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "checkpoint_every must be >= 1")]
    fn zero_checkpoint_interval_rejected() {
        let mut cfg = ExperimentConfig::quick(0, Algorithm::fedbuff(10, 5));
        cfg.checkpoint_every = Some(0);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "keep_last must be >= 1")]
    fn zero_keep_last_rejected() {
        let mut cfg = ExperimentConfig::quick(0, Algorithm::fedbuff(10, 5));
        cfg.keep_last = 0;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "transport.chunk_bytes must be >= 1")]
    fn zero_chunk_bytes_rejected() {
        let mut cfg = ExperimentConfig::quick(0, Algorithm::fedbuff(10, 5));
        cfg.transport.chunk_bytes = 0;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "transport.replay_history must be >= 1")]
    fn zero_replay_history_rejected() {
        let mut cfg = ExperimentConfig::quick(0, Algorithm::fedbuff(10, 5));
        cfg.transport.replay_history = 0;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn out_of_range_loss_probability_rejected() {
        let mut cfg = ExperimentConfig::quick(0, Algorithm::fedbuff(10, 5));
        cfg.transport.loss.dup_prob = 1.2;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "must start with tcp:// or uds://")]
    fn malformed_endpoint_rejected() {
        let mut cfg = ExperimentConfig::quick(0, Algorithm::fedbuff(10, 5));
        cfg.transport.listen = Some("http://127.0.0.1:80".into());
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "codec TopK k must be >= 1")]
    fn zero_topk_rejected() {
        let mut cfg = ExperimentConfig::quick(0, Algorithm::fedbuff(10, 5));
        cfg.codec.stages = vec![crate::codec::CodecStage::TopK { k: 0 }];
        cfg.validate();
    }

    #[test]
    fn codec_pipeline_accepted() {
        let mut cfg = ExperimentConfig::quick(0, Algorithm::fedbuff(10, 5));
        cfg.codec.stages =
            vec![crate::codec::CodecStage::TopK { k: 64 }, crate::codec::CodecStage::QuantInt8];
        cfg.codec.error_feedback = true;
        cfg.validate();
    }

    #[test]
    fn transport_endpoints_accepted() {
        let mut cfg = ExperimentConfig::quick(0, Algorithm::fedbuff(10, 5));
        cfg.transport.listen = Some("tcp://127.0.0.1:0".into());
        cfg.transport.connect = Some("uds:///tmp/seafl.sock".into());
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "fleet size")]
    fn fleet_mismatch_panics() {
        let mut cfg = ExperimentConfig::quick(0, Algorithm::fedbuff(10, 5));
        cfg.num_clients = 30;
        cfg.validate();
    }
}
