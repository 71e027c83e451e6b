//! Per-device compute, idle, and network models, and fleet construction.

use crate::id::ClientId;
use crate::rng::{stream_rng, streams};
use rand::Rng;
use seafl_data::sampling::{ParetoSpeed, ZipfIdle};

/// Timing model for one simulated device.
///
/// Training time for one epoch of `b` batches is
/// `b · base_batch_time · speed_factor + idle`, where `idle` is drawn per
/// epoch from the optional Zipf idle model (the paper's §III setup) and
/// `speed_factor` is a fixed per-device multiplier (the paper's §VI Pareto
/// setup). Upload/download of a model of `bytes` costs
/// `latency + bytes / bandwidth`.
#[derive(Clone, Debug)]
pub struct DeviceProfile {
    /// Fixed compute-speed multiplier (≥ 1; 1 = fastest tier).
    pub speed_factor: f64,
    /// Optional per-epoch idle-period generator.
    pub idle: Option<ZipfIdle>,
    /// Uplink bandwidth, bytes/second.
    pub(crate) up_bandwidth: f64,
    /// Downlink bandwidth, bytes/second.
    pub(crate) down_bandwidth: f64,
    /// One-way network latency, seconds.
    pub latency: f64,
}

impl DeviceProfile {
    /// Compute time for one local epoch of `batches` minibatches, excluding
    /// idle periods.
    pub fn epoch_compute_time(&self, batches: usize, base_batch_time: f64) -> f64 {
        assert!(base_batch_time > 0.0, "base_batch_time must be positive");
        batches as f64 * base_batch_time * self.speed_factor
    }

    /// Draw this epoch's idle period (0 if the device has no idle model).
    pub fn idle_time(&self, rng: &mut impl Rng) -> f64 {
        self.idle.map_or(0.0, |z| z.sample(rng))
    }

    /// Time to upload `bytes` to the server.
    pub fn upload_time(&self, bytes: usize) -> f64 {
        self.latency + bytes as f64 / self.up_bandwidth
    }

    /// Time for the server to push `bytes` down to this device.
    pub fn download_time(&self, bytes: usize) -> f64 {
        self.latency + bytes as f64 / self.down_bandwidth
    }
}

/// Fleet-level configuration: how to build `n` heterogeneous devices.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    pub num_devices: usize,
    /// Seconds of compute per minibatch on the fastest tier.
    pub base_batch_time: f64,
    /// Heavy-tailed fixed speed factors (None ⇒ all devices speed 1).
    pub pareto_speed: Option<ParetoSpeed>,
    /// Per-epoch Zipf idle periods (None ⇒ no idling).
    pub zipf_idle: Option<ZipfIdle>,
    /// Uplink bandwidth, bytes/second (same for all devices here; per-device
    /// heterogeneity comes from the speed factor, matching the paper).
    pub up_bandwidth: f64,
    pub down_bandwidth: f64,
    pub latency: f64,
}

impl FleetConfig {
    /// The paper's main-evaluation fleet: Pareto speed factors, no idle.
    pub fn pareto_fleet(num_devices: usize) -> Self {
        FleetConfig {
            num_devices,
            base_batch_time: 0.05,
            pareto_speed: Some(ParetoSpeed::paper_default()),
            zipf_idle: None,
            up_bandwidth: 1e6,
            down_bandwidth: 4e6,
            latency: 0.05,
        }
    }

    /// The §III insights fleet: uniform compute, Zipf(1.7, 60 s) idle after
    /// every epoch.
    pub fn zipf_idle_fleet(num_devices: usize) -> Self {
        FleetConfig {
            num_devices,
            base_batch_time: 0.05,
            pareto_speed: None,
            zipf_idle: Some(ZipfIdle::paper_default()),
            up_bandwidth: 1e6,
            down_bandwidth: 4e6,
            latency: 0.05,
        }
    }

    /// Materialize the fleet deterministically from `master_seed`.
    ///
    /// Eager reference construction: allocates all `num_devices` profiles up
    /// front. Million-client fleets should use [`Fleet::lazy`], which derives
    /// the identical profiles on demand — the equivalence is pinned by
    /// `lazy_profiles_match_eager_build`.
    pub fn build(&self, master_seed: u64) -> Vec<DeviceProfile> {
        assert!(self.num_devices > 0, "FleetConfig: zero devices");
        let mut rng = stream_rng(master_seed, streams::FLEET);
        (0..self.num_devices)
            .map(|_| DeviceProfile {
                speed_factor: self.pareto_speed.map_or(1.0, |p| p.sample(&mut rng)),
                idle: self.zipf_idle,
                up_bandwidth: self.up_bandwidth,
                down_bandwidth: self.down_bandwidth,
                latency: self.latency,
            })
            .collect()
    }
}

/// A fleet of devices materialized lazily from the master seed.
///
/// [`FleetConfig::build`] draws each device's speed factor sequentially from
/// the `FLEET` RNG stream, so an eager fleet costs O(N) memory even though a
/// semi-async server only ever touches the cohort-sized subset that actually
/// trains. `Fleet` stores just the config plus the measured RNG stride of
/// one speed draw: device `k`'s draw starts at word position `k · stride`,
/// so [`profile`](Fleet::profile) can seek the counter-based ChaCha stream
/// straight to it and reproduce the eager profile bit for bit — never-touched
/// clients cost zero bytes.
#[derive(Clone, Debug)]
pub struct Fleet {
    cfg: FleetConfig,
    master_seed: u64,
    /// ChaCha word-position stride of one speed draw (0 when the config has
    /// no speed distribution). Measured once at construction: a Pareto
    /// sample consumes a fixed number of words, and
    /// [`profile`](Fleet::profile) debug-asserts the stride on every draw.
    words_per_draw: u128,
}

impl Fleet {
    /// Wrap `cfg` for on-demand derivation; cost is one probe draw,
    /// regardless of `num_devices`.
    pub fn lazy(cfg: FleetConfig, master_seed: u64) -> Self {
        assert!(cfg.num_devices > 0, "FleetConfig: zero devices");
        let words_per_draw = cfg.pareto_speed.map_or(0, |p| {
            let mut rng = stream_rng(master_seed, streams::FLEET);
            let before = rng.get_word_pos();
            let _ = p.sample(&mut rng);
            rng.get_word_pos() - before
        });
        Fleet { cfg, master_seed, words_per_draw }
    }

    /// Registered devices N.
    pub fn len(&self) -> usize {
        self.cfg.num_devices
    }

    /// Never true: construction rejects empty fleets.
    pub fn is_empty(&self) -> bool {
        self.cfg.num_devices == 0
    }

    /// Derive device `id`'s profile, bit-identical to the eager
    /// [`FleetConfig::build`] entry at the same index.
    pub fn profile(&self, id: ClientId) -> DeviceProfile {
        let k = id.index();
        assert!(k < self.cfg.num_devices, "client {k} outside fleet of {}", self.cfg.num_devices);
        let speed_factor = match self.cfg.pareto_speed {
            None => 1.0,
            Some(p) => {
                let start = self.words_per_draw * k as u128;
                let mut rng = stream_rng(self.master_seed, streams::FLEET);
                rng.set_word_pos(start);
                let v = p.sample(&mut rng);
                debug_assert_eq!(
                    rng.get_word_pos() - start,
                    self.words_per_draw,
                    "speed draw consumed a variable number of RNG words"
                );
                v
            }
        };
        DeviceProfile {
            speed_factor,
            idle: self.cfg.zipf_idle,
            up_bandwidth: self.cfg.up_bandwidth,
            down_bandwidth: self.cfg.down_bandwidth,
            latency: self.cfg.latency,
        }
    }

    /// Device `id`'s speed factor (what selection weighting reads).
    pub fn speed_factor(&self, id: ClientId) -> f64 {
        match self.cfg.pareto_speed {
            None => 1.0,
            Some(_) => self.profile(id).speed_factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn epoch_compute_scales_with_speed_factor() {
        let slow = DeviceProfile {
            speed_factor: 4.0,
            idle: None,
            up_bandwidth: 1e6,
            down_bandwidth: 1e6,
            latency: 0.0,
        };
        assert!((slow.epoch_compute_time(10, 0.1) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn network_times() {
        let d = DeviceProfile {
            speed_factor: 1.0,
            idle: None,
            up_bandwidth: 1e6,
            down_bandwidth: 2e6,
            latency: 0.05,
        };
        assert!((d.upload_time(1_000_000) - 1.05).abs() < 1e-9);
        assert!((d.download_time(1_000_000) - 0.55).abs() < 1e-9);
    }

    #[test]
    fn idle_time_zero_without_model() {
        let d = DeviceProfile {
            speed_factor: 1.0,
            idle: None,
            up_bandwidth: 1.0,
            down_bandwidth: 1.0,
            latency: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(d.idle_time(&mut rng), 0.0);
    }

    #[test]
    fn pareto_fleet_is_heterogeneous_and_deterministic() {
        let cfg = FleetConfig::pareto_fleet(100);
        let f1 = cfg.build(7);
        let f2 = cfg.build(7);
        assert_eq!(f1.len(), 100);
        for (a, b) in f1.iter().zip(f2.iter()) {
            assert_eq!(a.speed_factor, b.speed_factor);
        }
        let min = f1.iter().map(|d| d.speed_factor).fold(f64::INFINITY, f64::min);
        let max = f1.iter().map(|d| d.speed_factor).fold(0.0, f64::max);
        assert!(max / min > 3.0, "fleet not heterogeneous: {min}..{max}");
    }

    #[test]
    fn zipf_fleet_has_idle_models() {
        let fleet = FleetConfig::zipf_idle_fleet(5).build(0);
        assert!(fleet.iter().all(|d| d.idle.is_some()));
        assert!(fleet.iter().all(|d| d.speed_factor == 1.0));
    }

    #[test]
    fn different_seed_different_fleet() {
        let cfg = FleetConfig::pareto_fleet(50);
        let a = cfg.build(1);
        let b = cfg.build(2);
        assert!(a.iter().zip(b.iter()).any(|(x, y)| x.speed_factor != y.speed_factor));
    }

    #[test]
    fn lazy_profiles_match_eager_build() {
        for cfg in [FleetConfig::pareto_fleet(64), FleetConfig::zipf_idle_fleet(64)] {
            for seed in [0u64, 7, 42] {
                let eager = cfg.build(seed);
                let lazy = Fleet::lazy(cfg.clone(), seed);
                assert_eq!(lazy.len(), eager.len());
                // Out-of-order access must still be bit-identical: laziness
                // may never depend on visit order.
                for k in [63usize, 0, 17, 5, 63, 31] {
                    let p = lazy.profile(ClientId::new(k));
                    assert_eq!(
                        p.speed_factor.to_bits(),
                        eager[k].speed_factor.to_bits(),
                        "speed factor diverged at device {k} seed {seed}"
                    );
                    assert_eq!(p.idle.is_some(), eager[k].idle.is_some());
                    assert_eq!(p.up_bandwidth, eager[k].up_bandwidth);
                    assert_eq!(lazy.speed_factor(ClientId::new(k)), eager[k].speed_factor);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside fleet")]
    fn lazy_profile_out_of_range_panics() {
        let fleet = Fleet::lazy(FleetConfig::pareto_fleet(4), 0);
        fleet.profile(ClientId::new(4));
    }
}
