//! Deterministic fault injection for simulated fleets.
//!
//! Real device fleets misbehave: devices crash and never report back,
//! uploads are lost on flaky links, background load makes a device
//! temporarily slow, and buggy or adversarial clients ship numerically
//! broken updates. A [`FaultPlan`] pre-samples all of those behaviours per
//! device from its own RNG stream ([`crate::rng::streams::FAULTS`]), so
//!
//! * a plan is a pure function of `(FaultConfig, num_devices, master_seed)`
//!   — two runs with the same inputs replay the same faults event for
//!   event;
//! * the fault stream is independent of every other stream (fleet build,
//!   selection, training), so enabling faults never perturbs the healthy
//!   part of the simulation, and [`FaultConfig::none`] is bit-identical to
//!   a build without this module;
//! * the plan is serializable, so a faulty run can be archived and
//!   replayed.
//!
//! Per-attempt decisions (transient upload loss) cannot be pre-sampled —
//! the number of attempts depends on server behaviour — so they use a
//! counter-based construction: attempt `i` of device `k` hashes
//! `(master_seed, FAULT_ATTEMPT_BASE + k, i)` into a uniform draw. The
//! decision sequence of one device is therefore independent of every other
//! device's schedule.

use crate::bin::{BinReader, BinWriter, CodecError};
use crate::rng::{stream_rng, streams, unit_from_counter};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A human-readable configuration error.
///
/// Validation used to panic straight from `assert!`; CLI front-ends (chaos,
/// the bench binaries) want to print the message and exit nonzero instead of
/// dumping a backtrace, so validators return this and the engine-side entry
/// points (`FaultPlan::build`, `ExperimentConfig::validate`) convert it back
/// into a panic with the identical message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError(String);

impl ConfigError {
    /// Wrap a message.
    pub fn new(msg: impl Into<String>) -> Self {
        ConfigError(msg.into())
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ConfigError {}

/// `Ok(())` when `cond` holds, else a [`ConfigError`] with `msg`'s output.
pub(crate) fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Result<(), ConfigError> {
    if cond {
        Ok(())
    } else {
        Err(ConfigError::new(msg()))
    }
}

/// What a Byzantine/buggy device does to its update before uploading.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum CorruptionKind {
    /// Overwrite `count` evenly spaced parameters with NaN (a poisoned or
    /// numerically diverged update).
    NanBurst { count: usize },
    /// Scale every parameter by `factor` (a norm-exploded update; factors
    /// around 10–100 model diverged local training, larger ones model
    /// deliberate model-boosting attacks).
    GradientScale { factor: f32 },
}

/// A temporary per-device slowdown: between `start` and `end` (sim
/// seconds), local compute runs `factor`× slower.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpeedSpike {
    pub start: f64,
    pub end: f64,
    /// Multiplier on epoch compute time while the spike is active (≥ 1).
    pub factor: f64,
}

/// Fleet-level fault model: which faults exist and how often. All
/// probabilities are per *device* except `upload_drop_prob`, which is per
/// upload *attempt*. [`FaultConfig::none`] (the default) disables
/// everything.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability a device permanently crashes during the run.
    pub crash_prob: f64,
    /// Sim-time window `(lo, hi)` the crash instant is sampled from.
    pub crash_window: (f64, f64),
    /// Per-attempt probability that an upload is lost in transit.
    pub upload_drop_prob: f64,
    /// Probability a device suffers one straggler spike.
    pub straggler_prob: f64,
    /// Sim-time window the spike start is sampled from.
    pub straggler_window: (f64, f64),
    /// Spike duration, seconds.
    pub straggler_duration: f64,
    /// Compute slowdown factor while the spike is active (≥ 1).
    pub straggler_factor: f64,
    /// Probability a device corrupts every update it uploads.
    pub corrupt_prob: f64,
    /// What corruption looks like for corrupt devices.
    pub corruption: CorruptionKind,
    /// Probability the *server itself* dies mid-run (a host preemption).
    /// Unlike the device channels this kills the whole experiment at a
    /// drawn round — it exists to exercise checkpoint/resume.
    pub server_crash_prob: f64,
    /// Inclusive round window `(lo, hi)` the server-crash round is sampled
    /// from.
    pub server_crash_window: (u64, u64),
}

impl FaultConfig {
    /// No faults: the plan built from this config injects nothing.
    pub fn none() -> Self {
        FaultConfig {
            crash_prob: 0.0,
            crash_window: (0.0, 0.0),
            upload_drop_prob: 0.0,
            straggler_prob: 0.0,
            straggler_window: (0.0, 0.0),
            straggler_duration: 0.0,
            straggler_factor: 1.0,
            corrupt_prob: 0.0,
            corruption: CorruptionKind::NanBurst { count: 1 },
            server_crash_prob: 0.0,
            server_crash_window: (0, 0),
        }
    }

    /// True when every fault channel is disabled.
    pub fn is_noop(&self) -> bool {
        self.crash_prob == 0.0
            && self.upload_drop_prob == 0.0
            && self.straggler_prob == 0.0
            && self.corrupt_prob == 0.0
            && self.server_crash_prob == 0.0
    }

    /// Check parameters, returning a readable [`ConfigError`] on the first
    /// violation. `FaultPlan::build` and `ExperimentConfig::validate`
    /// escalate the error into a panic with the same message; CLI callers
    /// print it and exit instead.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (name, p) in [
            ("crash_prob", self.crash_prob),
            ("upload_drop_prob", self.upload_drop_prob),
            ("straggler_prob", self.straggler_prob),
            ("corrupt_prob", self.corrupt_prob),
            ("server_crash_prob", self.server_crash_prob),
        ] {
            ensure((0.0..=1.0).contains(&p), || format!("faults: {name} {p} outside [0,1]"))?;
        }
        ensure(self.upload_drop_prob < 1.0, || {
            "faults: upload_drop_prob must be < 1 (every attempt would fail)".into()
        })?;
        ensure(self.crash_window.0 <= self.crash_window.1, || {
            "faults: inverted crash_window".into()
        })?;
        ensure(self.straggler_window.0 <= self.straggler_window.1, || {
            "faults: inverted straggler_window".into()
        })?;
        ensure(self.server_crash_window.0 <= self.server_crash_window.1, || {
            "faults: inverted server_crash_window".into()
        })?;
        ensure(self.straggler_duration >= 0.0, || "faults: negative straggler_duration".into())?;
        ensure(self.straggler_factor >= 1.0, || "faults: straggler_factor must be >= 1".into())?;
        if let CorruptionKind::NanBurst { count } = self.corruption {
            ensure(count >= 1, || "faults: NanBurst count must be >= 1".into())?;
        }
        Ok(())
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// The sampled fault schedule of one device.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeviceFaults {
    /// Sim time at which the device dies for good (never uploads after).
    pub crash_at: Option<f64>,
    /// Per-attempt upload loss probability.
    pub drop_prob: f64,
    /// Temporary slowdown window.
    pub spike: Option<SpeedSpike>,
    /// Corruption applied to every update this device uploads.
    pub corruption: Option<CorruptionKind>,
}

impl DeviceFaults {
    const fn healthy() -> Self {
        DeviceFaults { crash_at: None, drop_prob: 0.0, spike: None, corruption: None }
    }
}

/// The shared healthy schedule every device of a fault-free plan reads.
static HEALTHY: DeviceFaults = DeviceFaults::healthy();

/// The materialized, deterministic fault schedule of a whole fleet.
///
/// Storage is sparse in the common case: a plan built from a no-op config
/// keeps `devices` empty and answers every query with the shared healthy
/// schedule, so a million-client fleet with faults disabled costs nothing.
/// Upload-attempt decisions are counter-based *pure functions* — the caller
/// (the engine's `FleetTable`) owns the per-device attempt counters, so the
/// plan itself carries no mutable per-device state.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    master_seed: u64,
    num_devices: usize,
    /// Per-device schedules; empty when no fault channel is armed,
    /// regardless of fleet size.
    devices: Vec<DeviceFaults>,
    /// Round at which the *server* dies, if ever. Drawn after all device
    /// schedules, so enabling it never moves a device fault.
    server_crash_round: Option<u64>,
}

impl FaultPlan {
    /// Sample the plan for `num_devices` devices. Each device consumes a
    /// fixed number of draws from the `FAULTS` stream, so device `k`'s
    /// faults depend only on `(cfg, master_seed, k)`.
    pub fn build(cfg: &FaultConfig, num_devices: usize, master_seed: u64) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        if cfg.is_noop() {
            // Nothing to sample — stay sparse. The FAULTS stream is consumed
            // by nothing else, so skipping the draws perturbs no other state.
            return Self::none(num_devices);
        }
        let mut rng = stream_rng(master_seed, streams::FAULTS);
        let devices = (0..num_devices)
            .map(|_| {
                // Fixed draw sequence per device: decision + instant for
                // each channel, drawn unconditionally.
                let (u_crash, t_crash): (f64, f64) = (rng.gen(), rng.gen());
                let (u_strag, t_strag): (f64, f64) = (rng.gen(), rng.gen());
                let u_corrupt: f64 = rng.gen();
                let crash_at = (u_crash < cfg.crash_prob).then(|| {
                    cfg.crash_window.0 + t_crash * (cfg.crash_window.1 - cfg.crash_window.0)
                });
                let spike = (u_strag < cfg.straggler_prob).then(|| {
                    let start = cfg.straggler_window.0
                        + t_strag * (cfg.straggler_window.1 - cfg.straggler_window.0);
                    SpeedSpike {
                        start,
                        end: start + cfg.straggler_duration,
                        factor: cfg.straggler_factor,
                    }
                });
                let corruption = (u_corrupt < cfg.corrupt_prob).then_some(cfg.corruption);
                DeviceFaults { crash_at, drop_prob: cfg.upload_drop_prob, spike, corruption }
            })
            .collect();
        // Server-crash draws come *after* the per-device loop: a config that
        // only differs in server_crash_* replays identical device faults.
        let (u_server, t_server): (f64, f64) = (rng.gen(), rng.gen());
        let server_crash_round = (u_server < cfg.server_crash_prob).then(|| {
            let (lo, hi) = cfg.server_crash_window;
            let span = hi - lo + 1; // inclusive window
            lo + ((t_server * span as f64) as u64).min(span - 1)
        });
        FaultPlan { master_seed, num_devices, devices, server_crash_round }
    }

    /// A plan that injects nothing (what every experiment gets by default).
    /// O(1) storage — no per-device allocation.
    pub fn none(num_devices: usize) -> Self {
        FaultPlan { master_seed: 0, num_devices, devices: Vec::new(), server_crash_round: None }
    }

    pub fn num_devices(&self) -> usize {
        self.num_devices
    }

    pub fn device(&self, k: usize) -> &DeviceFaults {
        assert!(k < self.num_devices, "device {k} outside fleet of {}", self.num_devices);
        if self.devices.is_empty() {
            &HEALTHY
        } else {
            &self.devices[k]
        }
    }

    /// True when no device (and not the server) has any fault scheduled.
    pub fn is_noop(&self) -> bool {
        self.server_crash_round.is_none()
            && self.devices.iter().all(|d| {
                d.crash_at.is_none()
                    && d.drop_prob == 0.0
                    && d.spike.is_none()
                    && d.corruption.is_none()
            })
    }

    /// Round at which the server dies, if the plan drew one.
    pub fn server_crash_round(&self) -> Option<u64> {
        self.server_crash_round
    }

    /// Disarm the server crash. A *resumed* run rebuilds its plan from the
    /// same config (so device faults replay exactly) and then calls this —
    /// the process already died once; resuming must run to completion.
    pub fn clear_server_crash(&mut self) {
        self.server_crash_round = None;
    }

    /// Sim time at which device `k` permanently crashes, if ever.
    pub fn crash_time(&self, k: usize) -> Option<f64> {
        self.device(k).crash_at
    }

    /// True iff device `k` is dead at sim time `t`.
    pub fn crashed_by(&self, k: usize, t: f64) -> bool {
        self.device(k).crash_at.is_some_and(|c| c <= t)
    }

    /// Compute-time multiplier for device `k` at sim time `t` (1.0 =
    /// nominal speed).
    pub fn speed_multiplier(&self, k: usize, t: f64) -> f64 {
        match self.device(k).spike {
            Some(s) if t >= s.start && t < s.end => s.factor,
            _ => 1.0,
        }
    }

    /// Decide whether upload attempt `attempt` of device `k` is lost in
    /// transit. Counter-based pure function of `(master_seed, k, attempt)`:
    /// one device's decisions never depend on another device's attempt
    /// count, and the caller owns the attempt counter (the engine keeps it
    /// in the fleet table and checkpoints it there).
    pub fn upload_attempt_fails(&self, k: usize, attempt: u64) -> bool {
        let p = self.device(k).drop_prob;
        if p <= 0.0 {
            return false;
        }
        unit_from_counter(self.master_seed, streams::FAULT_ATTEMPT_BASE + k as u64, attempt) < p
    }

    /// Corruption model of device `k` (None = honest device).
    pub fn corruption(&self, k: usize) -> Option<CorruptionKind> {
        self.device(k).corruption
    }

    /// Apply device `k`'s corruption to an outgoing update in place.
    /// Returns true when the update was modified.
    pub fn corrupt(&self, k: usize, params: &mut [f32]) -> bool {
        match self.device(k).corruption {
            None => false,
            Some(CorruptionKind::NanBurst { count }) => {
                if params.is_empty() {
                    return false;
                }
                let n = count.min(params.len());
                let stride = (params.len() / n).max(1);
                for i in 0..n {
                    params[i * stride] = f32::NAN;
                }
                true
            }
            Some(CorruptionKind::GradientScale { factor }) => {
                for p in params.iter_mut() {
                    *p *= factor;
                }
                true
            }
        }
    }
}

/// What an *adversarial* (as opposed to merely broken) device does to the
/// update it uploads. Unlike [`CorruptionKind`], these attacks are crafted to
/// survive the hygiene sanitizer — finite values, often norm-plausible — and
/// must be caught (if at all) by a Byzantine-robust aggregation rule.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum AttackKind {
    /// Reflect the update about the current global model (`p ← 2g − p`):
    /// the classic sign-flip, pointing local progress exactly backwards
    /// while keeping the distance-to-global unchanged.
    SignFlip,
    /// Amplify the update's drift from the global by `lambda`
    /// (`p ← g + λ(p − g)`): a model-boosting attack that drags the average
    /// without tripping non-finite checks.
    ScaledBoost {
        /// Drift amplification factor (> 0, finite).
        lambda: f32,
    },
    /// Same-value collusion: every colluding device uploads the *identical*
    /// shared target vector, drawn once per run from the attack RNG stream.
    /// Rank-based rules see a coordinated cluster, not independent noise.
    Collude,
    /// Replay the attacker's own previous upload verbatim (the first upload
    /// is honest and recorded). Exploits staleness handling: the update is
    /// well-formed but perpetually one session out of date.
    StaleReplay,
}

impl AttackKind {
    /// Stable snake_case label (trace/report bridging, CLI parsing).
    pub fn label(&self) -> &'static str {
        match self {
            AttackKind::SignFlip => "sign_flip",
            AttackKind::ScaledBoost { .. } => "scaled_boost",
            AttackKind::Collude => "collude",
            AttackKind::StaleReplay => "stale_replay",
        }
    }

    /// Parse a CLI label into a kind with default parameters
    /// (`scaled_boost` gets λ = 10).
    pub fn from_label(s: &str) -> Option<AttackKind> {
        match s {
            "sign_flip" => Some(AttackKind::SignFlip),
            "scaled_boost" => Some(AttackKind::ScaledBoost { lambda: 10.0 }),
            "collude" => Some(AttackKind::Collude),
            "stale_replay" => Some(AttackKind::StaleReplay),
            _ => None,
        }
    }
}

/// Fleet-level adversarial model: how many devices are attackers and what
/// they do. Off by default ([`AttackConfig::none`]); the attacker draw uses
/// its own RNG stream ([`crate::rng::streams::ATTACKS`]), so arming the
/// channel never perturbs fault plans, selection, or training.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AttackConfig {
    /// Probability a device is adversarial (one draw per device).
    pub attacker_prob: f64,
    /// Attack kinds assigned to attacker devices (each attacker draws one,
    /// uniformly). Empty list disables the channel.
    pub kinds: Vec<AttackKind>,
    /// Per-coordinate amplitude of the shared [`AttackKind::Collude`]
    /// target (uniform in `[-radius, radius]`).
    pub collude_radius: f32,
}

impl AttackConfig {
    /// No attacks (the default): bit-identical to a build without the
    /// adversarial model.
    pub fn none() -> Self {
        AttackConfig { attacker_prob: 0.0, kinds: Vec::new(), collude_radius: 1.0 }
    }

    /// True when the channel is disabled.
    pub fn is_noop(&self) -> bool {
        self.attacker_prob == 0.0 || self.kinds.is_empty()
    }

    /// Check parameters (same contract as [`FaultConfig::validate`]).
    pub fn validate(&self) -> Result<(), ConfigError> {
        ensure((0.0..=1.0).contains(&self.attacker_prob), || {
            format!("attack: attacker_prob {} outside [0,1]", self.attacker_prob)
        })?;
        ensure(self.collude_radius.is_finite() && self.collude_radius > 0.0, || {
            "attack: collude_radius must be positive and finite".into()
        })?;
        for k in &self.kinds {
            if let AttackKind::ScaledBoost { lambda } = k {
                ensure(lambda.is_finite() && *lambda > 0.0, || {
                    "attack: ScaledBoost lambda must be positive and finite".into()
                })?;
            }
        }
        Ok(())
    }
}

impl Default for AttackConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// The materialized, deterministic attacker assignment of a fleet, plus the
/// per-attacker mutable state the attacks need (stale-replay memory and the
/// lazily generated collusion target).
///
/// Like [`FaultPlan`], the assignment is a pure function of
/// `(AttackConfig, num_devices, master_seed)` — each device consumes a fixed
/// two draws from the `ATTACKS` stream — so it is rebuilt from config on
/// resume. The replay memory is the only state a checkpoint must carry
/// ([`encode_state`](AttackPlan::encode_state) /
/// [`decode_state`](AttackPlan::decode_state)); the
/// collusion target is a pure function of `(master_seed, dimension)` and
/// regenerates on first use.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AttackPlan {
    master_seed: u64,
    collude_radius: f32,
    num_devices: usize,
    /// Per-device assignment; empty when the channel is disarmed (the
    /// common case), so an attack-free plan is O(1) regardless of fleet
    /// size.
    assignments: Vec<Option<AttackKind>>,
    /// Attacker's previous upload (StaleReplay memory), keyed by device id.
    /// Sparse — only attackers that have uploaded occupy an entry. Mutable
    /// state — checkpointed.
    replay: std::collections::BTreeMap<u32, Vec<f32>>,
    /// Shared collusion target, generated deterministically on first use
    /// once the model dimension is known. Never serialized: a rebuilt plan
    /// regenerates the identical vector.
    #[serde(skip)]
    collusion_target: Option<Vec<f32>>,
}

impl AttackPlan {
    /// Sample attacker assignments for `num_devices` devices. Each device
    /// consumes exactly two draws (attacker decision + kind pick), so device
    /// `k`'s assignment depends only on `(cfg, master_seed, k)`.
    pub fn build(cfg: &AttackConfig, num_devices: usize, master_seed: u64) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        if cfg.is_noop() {
            return Self::none(num_devices);
        }
        let mut rng = stream_rng(master_seed, streams::ATTACKS);
        let assignments = (0..num_devices)
            .map(|_| {
                let (u_attacker, u_kind): (f64, f64) = (rng.gen(), rng.gen());
                (u_attacker < cfg.attacker_prob).then(|| {
                    let i = ((u_kind * cfg.kinds.len() as f64) as usize).min(cfg.kinds.len() - 1);
                    cfg.kinds[i]
                })
            })
            .collect();
        AttackPlan {
            master_seed,
            collude_radius: cfg.collude_radius,
            num_devices,
            assignments,
            replay: std::collections::BTreeMap::new(),
            collusion_target: None,
        }
    }

    /// A plan with no attackers (what every experiment gets by default).
    /// O(1) storage — no per-device allocation.
    pub fn none(num_devices: usize) -> Self {
        AttackPlan {
            master_seed: 0,
            collude_radius: 0.0,
            num_devices,
            assignments: Vec::new(),
            replay: std::collections::BTreeMap::new(),
            collusion_target: None,
        }
    }

    /// True when no device attacks.
    pub fn is_noop(&self) -> bool {
        self.assignments.iter().all(Option::is_none)
    }

    /// Attack assigned to device `k` (`None` = honest device).
    pub fn kind(&self, k: usize) -> Option<AttackKind> {
        assert!(k < self.num_devices, "device {k} outside fleet of {}", self.num_devices);
        if self.assignments.is_empty() {
            None
        } else {
            self.assignments[k]
        }
    }

    /// The ground-truth attacker set, sorted — what detection
    /// precision/recall is measured against.
    pub fn attackers(&self) -> Vec<usize> {
        (0..self.assignments.len()).filter(|&k| self.assignments[k].is_some()).collect()
    }

    /// Apply device `k`'s attack to an outgoing update in place. `global`
    /// is the server model the reflection/boost attacks aim against.
    /// Returns the kind applied when the update was modified.
    pub fn apply(&mut self, k: usize, params: &mut [f32], global: &[f32]) -> Option<AttackKind> {
        let kind = self.kind(k)?;
        match kind {
            AttackKind::SignFlip => {
                assert_eq!(params.len(), global.len(), "attack: model size mismatch");
                for (p, &g) in params.iter_mut().zip(global.iter()) {
                    *p = 2.0 * g - *p;
                }
            }
            AttackKind::ScaledBoost { lambda } => {
                assert_eq!(params.len(), global.len(), "attack: model size mismatch");
                for (p, &g) in params.iter_mut().zip(global.iter()) {
                    *p = g + lambda * (*p - g);
                }
            }
            AttackKind::Collude => {
                let target = self.collusion_target(params.len());
                params.copy_from_slice(target);
            }
            AttackKind::StaleReplay => {
                // Record this (honest) upload, send the previous one. The
                // first upload has nothing to replay and goes out unchanged.
                let prev = self.replay.insert(k as u32, params.to_vec());
                match prev {
                    Some(p) => {
                        assert_eq!(params.len(), p.len(), "attack: model size changed");
                        params.copy_from_slice(&p);
                    }
                    None => return None,
                }
            }
        }
        Some(kind)
    }

    /// The shared collusion target for models of `dim` parameters,
    /// generated on first use from the `ATTACK_TARGET` stream.
    fn collusion_target(&mut self, dim: usize) -> &[f32] {
        let target = self.collusion_target.get_or_insert_with(|| {
            let mut rng = stream_rng(self.master_seed, streams::ATTACK_TARGET);
            let r = self.collude_radius;
            (0..dim).map(|_| rng.gen::<f32>() * 2.0 * r - r).collect()
        });
        assert_eq!(target.len(), dim, "attack: model size changed");
        target
    }

    /// Serialize the per-attacker replay memory — the plan's only
    /// checkpointed state. Sparse: only attackers that have uploaded
    /// appear, in id order.
    pub fn encode_state(&self, w: &mut BinWriter) {
        w.usize(self.replay.len());
        for (&k, prev) in &self.replay {
            w.u32(k);
            w.vec_f32(prev);
        }
    }

    /// Restore replay memory written by
    /// [`encode_state`](AttackPlan::encode_state) into a freshly rebuilt
    /// plan; a device outside the fleet is an error.
    pub fn decode_state(&mut self, r: &mut BinReader<'_>) -> Result<(), CodecError> {
        let mut replay = std::collections::BTreeMap::new();
        r.ascending_ids("replay memory", self.num_devices, |r, k| {
            replay.insert(k, r.vec_f32()?);
            Ok(())
        })?;
        self.replay = replay;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaotic() -> FaultConfig {
        FaultConfig {
            crash_prob: 0.3,
            crash_window: (10.0, 500.0),
            upload_drop_prob: 0.2,
            straggler_prob: 0.4,
            straggler_window: (0.0, 300.0),
            straggler_duration: 100.0,
            straggler_factor: 5.0,
            corrupt_prob: 0.25,
            corruption: CorruptionKind::NanBurst { count: 8 },
            server_crash_prob: 0.0,
            server_crash_window: (0, 0),
        }
    }

    #[test]
    fn none_plan_is_noop() {
        let plan = FaultPlan::none(10);
        assert!(plan.is_noop());
        assert!(FaultConfig::none().is_noop());
        assert_eq!(plan.num_devices(), 10);
        for k in 0..10 {
            assert!(!plan.upload_attempt_fails(k, 0));
            assert_eq!(plan.crash_time(k), None);
            assert_eq!(plan.speed_multiplier(k, 123.0), 1.0);
            assert!(!plan.corrupt(k, &mut [1.0, 2.0]));
        }
        // A no-op *config* builds the same sparse plan without touching RNG.
        let built = FaultPlan::build(&FaultConfig::none(), 10, 42);
        assert!(built.is_noop());
        assert_eq!(built.num_devices(), 10);
    }

    #[test]
    #[should_panic(expected = "outside fleet")]
    fn out_of_range_device_panics_even_when_sparse() {
        let plan = FaultPlan::none(3);
        plan.crash_time(3);
    }

    #[test]
    fn build_is_deterministic() {
        let cfg = chaotic();
        let a = FaultPlan::build(&cfg, 50, 42);
        let b = FaultPlan::build(&cfg, 50, 42);
        assert_eq!(a, b);
        let c = FaultPlan::build(&cfg, 50, 43);
        assert_ne!(a, c, "different seeds produced identical plans");
    }

    #[test]
    fn attempt_decisions_deterministic_and_per_device() {
        let cfg = chaotic();
        let a = FaultPlan::build(&cfg, 4, 7);
        let b = FaultPlan::build(&cfg, 4, 7);
        // Pure function of (seed, device, attempt): querying other devices
        // in between cannot perturb device 1's sequence.
        let seq_a: Vec<bool> = (0..20).map(|i| a.upload_attempt_fails(1, i)).collect();
        for i in 0..5 {
            b.upload_attempt_fails(0, i);
            b.upload_attempt_fails(3, i);
        }
        let seq_b: Vec<bool> = (0..20).map(|i| b.upload_attempt_fails(1, i)).collect();
        assert_eq!(seq_a, seq_b, "device 1's decisions depend on other devices");
        // And re-querying the same attempt index replays the same decision.
        assert_eq!(a.upload_attempt_fails(2, 9), a.upload_attempt_fails(2, 9));
    }

    #[test]
    fn drop_rate_roughly_matches_probability() {
        let mut cfg = FaultConfig::none();
        cfg.upload_drop_prob = 0.3;
        let plan = FaultPlan::build(&cfg, 1, 0);
        let fails = (0..2000).filter(|&i| plan.upload_attempt_fails(0, i)).count();
        let rate = fails as f64 / 2000.0;
        assert!((0.25..0.35).contains(&rate), "drop rate {rate} far from 0.3");
    }

    #[test]
    fn crash_times_inside_window() {
        let cfg = chaotic();
        let plan = FaultPlan::build(&cfg, 200, 1);
        let crashes: Vec<f64> = (0..200).filter_map(|k| plan.crash_time(k)).collect();
        assert!(!crashes.is_empty(), "crash_prob=0.3 over 200 devices produced none");
        assert!(crashes.iter().all(|&t| (10.0..=500.0).contains(&t)));
        assert!(crashes.len() < 200);
    }

    #[test]
    fn crashed_by_is_a_step_function() {
        let mut plan = FaultPlan::none(2);
        plan.devices = vec![DeviceFaults::healthy(); 2];
        plan.devices[0].crash_at = Some(100.0);
        assert!(!plan.crashed_by(0, 99.9));
        assert!(plan.crashed_by(0, 100.0));
        assert!(plan.crashed_by(0, 1e9));
        assert!(!plan.crashed_by(1, 1e9));
    }

    #[test]
    fn spike_multiplier_applies_only_inside_window() {
        let mut plan = FaultPlan::none(1);
        plan.devices = vec![DeviceFaults::healthy()];
        plan.devices[0].spike = Some(SpeedSpike { start: 50.0, end: 150.0, factor: 4.0 });
        assert_eq!(plan.speed_multiplier(0, 49.0), 1.0);
        assert_eq!(plan.speed_multiplier(0, 50.0), 4.0);
        assert_eq!(plan.speed_multiplier(0, 149.9), 4.0);
        assert_eq!(plan.speed_multiplier(0, 150.0), 1.0);
    }

    #[test]
    fn nan_burst_injects_nans() {
        let mut plan = FaultPlan::none(1);
        plan.devices = vec![DeviceFaults::healthy()];
        plan.devices[0].corruption = Some(CorruptionKind::NanBurst { count: 4 });
        let mut params = vec![1.0f32; 100];
        assert!(plan.corrupt(0, &mut params));
        assert_eq!(params.iter().filter(|p| p.is_nan()).count(), 4);
    }

    #[test]
    fn gradient_scale_scales() {
        let mut plan = FaultPlan::none(1);
        plan.devices = vec![DeviceFaults::healthy()];
        plan.devices[0].corruption = Some(CorruptionKind::GradientScale { factor: 100.0 });
        let mut params = vec![0.5f32; 10];
        assert!(plan.corrupt(0, &mut params));
        assert!(params.iter().all(|&p| p == 50.0));
    }

    #[test]
    fn server_crash_round_drawn_inside_window() {
        let mut cfg = chaotic();
        cfg.server_crash_prob = 1.0;
        cfg.server_crash_window = (5, 9);
        for seed in 0..50 {
            let plan = FaultPlan::build(&cfg, 3, seed);
            let r = plan.server_crash_round().expect("prob=1 drew no crash round");
            assert!((5..=9).contains(&r), "crash round {r} outside window");
        }
        // Determinism.
        assert_eq!(
            FaultPlan::build(&cfg, 3, 7).server_crash_round(),
            FaultPlan::build(&cfg, 3, 7).server_crash_round()
        );
        cfg.server_crash_prob = 0.0;
        assert_eq!(FaultPlan::build(&cfg, 3, 7).server_crash_round(), None);
    }

    #[test]
    fn server_crash_never_perturbs_device_schedules() {
        // The whole resume story rests on this: a run with the server-crash
        // channel armed sees the exact same device faults as one without.
        let healthy = chaotic();
        let mut crashing = chaotic();
        crashing.server_crash_prob = 1.0;
        crashing.server_crash_window = (3, 6);
        let a = FaultPlan::build(&healthy, 40, 42);
        let b = FaultPlan::build(&crashing, 40, 42);
        assert_eq!(a.devices, b.devices, "server-crash draw moved a device fault");
        assert!(a.server_crash_round().is_none());
        assert!(b.server_crash_round().is_some());
    }

    #[test]
    fn clear_and_rebuild_support_resume() {
        let mut cfg = chaotic();
        cfg.server_crash_prob = 1.0;
        cfg.server_crash_window = (2, 4);
        let plan = FaultPlan::build(&cfg, 4, 11);
        // The crashed run made 7 attempt draws for device 2; the engine
        // checkpoints that counter. A resumed run rebuilds the plan, disarms
        // the crash — and because attempt decisions are pure functions of
        // (seed, device, attempt index), continuing from the restored
        // counter replays the exact sequence the crashed run would have.
        let mut rebuilt = FaultPlan::build(&cfg, 4, 11);
        rebuilt.clear_server_crash();
        assert_eq!(rebuilt.server_crash_round(), None);
        assert!(!rebuilt.is_noop(), "device faults must survive the disarm");
        let cont_a: Vec<bool> = (7..17).map(|i| plan.upload_attempt_fails(2, i)).collect();
        let cont_b: Vec<bool> = (7..17).map(|i| rebuilt.upload_attempt_fails(2, i)).collect();
        assert_eq!(cont_a, cont_b);
    }

    #[test]
    #[should_panic(expected = "inverted server_crash_window")]
    fn inverted_server_window_panics() {
        let mut cfg = FaultConfig::none();
        cfg.server_crash_prob = 0.5;
        cfg.server_crash_window = (9, 3);
        FaultPlan::build(&cfg, 1, 0);
    }

    #[test]
    fn plan_round_trips_through_serde() {
        let plan = FaultPlan::build(&chaotic(), 20, 9);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn invalid_probability_panics() {
        let mut cfg = FaultConfig::none();
        cfg.crash_prob = 1.5;
        FaultPlan::build(&cfg, 1, 0);
    }

    #[test]
    fn validate_returns_readable_errors() {
        let mut cfg = FaultConfig::none();
        cfg.straggler_factor = 0.5;
        let err = cfg.validate().unwrap_err();
        assert_eq!(err.to_string(), "faults: straggler_factor must be >= 1");
        assert!(FaultConfig::none().validate().is_ok());

        let mut atk = AttackConfig::none();
        atk.attacker_prob = -0.1;
        assert!(atk.validate().unwrap_err().to_string().contains("outside [0,1]"));
        atk.attacker_prob = 0.5;
        atk.kinds = vec![AttackKind::ScaledBoost { lambda: f32::INFINITY }];
        assert!(atk.validate().unwrap_err().to_string().contains("lambda"));
    }

    fn hostile() -> AttackConfig {
        AttackConfig {
            attacker_prob: 0.4,
            kinds: vec![
                AttackKind::SignFlip,
                AttackKind::ScaledBoost { lambda: 8.0 },
                AttackKind::Collude,
                AttackKind::StaleReplay,
            ],
            collude_radius: 2.0,
        }
    }

    #[test]
    fn attack_plan_is_deterministic_and_off_is_noop() {
        let a = AttackPlan::build(&hostile(), 50, 42);
        let b = AttackPlan::build(&hostile(), 50, 42);
        assert_eq!(a, b);
        assert!(!a.is_noop(), "prob=0.4 over 50 devices drew no attacker");
        assert_ne!(a, AttackPlan::build(&hostile(), 50, 43));
        assert!(AttackPlan::build(&AttackConfig::none(), 50, 42).is_noop());
        assert!(AttackPlan::none(50).is_noop());
        let mut none = AttackPlan::none(3);
        let mut params = vec![1.0f32, 2.0];
        assert_eq!(none.apply(1, &mut params, &[0.0, 0.0]), None);
        assert_eq!(params, vec![1.0, 2.0]);
    }

    #[test]
    fn attackers_match_assignments() {
        let plan = AttackPlan::build(&hostile(), 80, 7);
        let attackers = plan.attackers();
        assert!(attackers.windows(2).all(|w| w[0] < w[1]), "attacker set must be sorted");
        for k in 0..80 {
            assert_eq!(attackers.contains(&k), plan.kind(k).is_some());
        }
    }

    #[test]
    fn sign_flip_reflects_about_global() {
        let mut plan = AttackPlan::none(1);
        plan.assignments = vec![Some(AttackKind::SignFlip)];
        let mut p = vec![3.0f32, -1.0];
        assert_eq!(plan.apply(0, &mut p, &[1.0, 1.0]), Some(AttackKind::SignFlip));
        assert_eq!(p, vec![-1.0, 3.0]);
    }

    #[test]
    fn scaled_boost_amplifies_drift() {
        let mut plan = AttackPlan::none(1);
        plan.assignments = vec![Some(AttackKind::ScaledBoost { lambda: 10.0 })];
        let mut p = vec![1.5f32];
        plan.apply(0, &mut p, &[1.0]);
        assert_eq!(p, vec![6.0]);
    }

    #[test]
    fn colluders_share_one_deterministic_target() {
        let mut cfg = hostile();
        cfg.kinds = vec![AttackKind::Collude];
        cfg.attacker_prob = 1.0;
        let mut a = AttackPlan::build(&cfg, 2, 9);
        let mut b = AttackPlan::build(&cfg, 2, 9);
        let g = vec![0.0f32; 16];
        let mut u0 = vec![1.0f32; 16];
        let mut u1 = vec![-1.0f32; 16];
        a.apply(0, &mut u0, &g);
        a.apply(1, &mut u1, &g);
        assert_eq!(u0, u1, "colluders must upload the identical target");
        assert!(u0.iter().all(|v| v.abs() <= cfg.collude_radius));
        let mut u2 = vec![5.0f32; 16];
        b.apply(0, &mut u2, &g);
        assert_eq!(u0, u2, "target must be a pure function of seed + dim");
    }

    #[test]
    fn stale_replay_lags_one_upload_and_restores() {
        let mut plan = AttackPlan::none(2);
        plan.assignments = vec![None, Some(AttackKind::StaleReplay)];
        let g = vec![0.0f32; 2];
        let mut first = vec![1.0f32, 2.0];
        assert_eq!(plan.apply(1, &mut first, &g), None, "first upload goes out honest");
        assert_eq!(first, vec![1.0, 2.0]);
        let mut second = vec![3.0f32, 4.0];
        assert_eq!(plan.apply(1, &mut second, &g), Some(AttackKind::StaleReplay));
        assert_eq!(second, vec![1.0, 2.0], "second upload replays the first");

        // Resume: rebuild + restore replay memory continues the sequence.
        let mut w = BinWriter::new();
        plan.encode_state(&mut w);
        let saved = w.into_bytes();
        assert_eq!(plan.replay.len(), 1, "only the attacker that uploaded holds replay memory");
        let mut rebuilt = AttackPlan::none(2);
        rebuilt.assignments = vec![None, Some(AttackKind::StaleReplay)];
        let mut r = BinReader::new(&saved);
        rebuilt.decode_state(&mut r).unwrap();
        r.finish().unwrap();
        let mut third_a = vec![5.0f32, 6.0];
        let mut third_b = third_a.clone();
        plan.apply(1, &mut third_a, &g);
        rebuilt.apply(1, &mut third_b, &g);
        assert_eq!(third_a, third_b);
        assert_eq!(third_a, vec![3.0, 4.0]);
    }

    #[test]
    fn replay_restore_rejects_out_of_range_device() {
        let mut w = BinWriter::new();
        w.usize(1);
        w.u32(5);
        w.vec_f32(&[1.0]);
        let bytes = w.into_bytes();
        let e = AttackPlan::none(3).decode_state(&mut BinReader::new(&bytes)).unwrap_err();
        assert!(e.0.contains("replay memory id 5 outside 0..3"), "{}", e.0);
    }

    #[test]
    fn attack_plan_round_trips_through_serde() {
        let plan = AttackPlan::build(&hostile(), 20, 9);
        let json = serde_json::to_string(&plan).unwrap();
        let back: AttackPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn attack_labels_round_trip() {
        for k in [
            AttackKind::SignFlip,
            AttackKind::ScaledBoost { lambda: 10.0 },
            AttackKind::Collude,
            AttackKind::StaleReplay,
        ] {
            assert_eq!(AttackKind::from_label(k.label()), Some(k));
        }
        assert_eq!(AttackKind::from_label("nope"), None);
    }
}
