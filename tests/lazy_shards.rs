//! Client shards are made on first dispatch from a keystream plan. The
//! generator's output is pinned to the data the eager path made, and a
//! fleet-sized environment holds no images until it trains. (That every
//! shard equals generate → partition → subset → shift is checked beside
//! `Environment::build`.)

use seafl::core::engine::setup::Environment;
use seafl::core::{Algorithm, ExperimentConfig, PartitionStrategy};
use seafl::data::{ImageDataset, SyntheticSpec};
use seafl::nn::ModelKind;
use seafl::sim::digest::digest_f32;
use seafl::sim::FleetConfig;

fn data_digest(ds: &ImageDataset) -> u64 {
    digest_f32(ds.full_batch().0.as_slice())
}

/// `generate`'s images, pinned where every shard was made eagerly.
#[test]
fn generate_reproduces_pinned_data() {
    for (spec, train_per_class, test_per_class, seed, train, test) in [
        (SyntheticSpec::emnist_like(), 5, 3, 42, 0x938eb86e2f654c2d, 0x03d92abad5b23297),
        (SyntheticSpec::cifar10_like(), 4, 2, 7, 0xfb1ab7ba61a8da63, 0x0b0f798e9b7a2bb8),
        (SyntheticSpec::cinic10_like(), 4, 2, 9, 0x6e7e256006a35f3c, 0xcf4efd5e117fc181),
    ] {
        let task = spec.generate(train_per_class, test_per_class, seed);
        assert_eq!(data_digest(&task.train), train, "{} train", spec.name);
        assert_eq!(data_digest(&task.test), test, "{} test", spec.name);
    }
}

/// Peak resident set of this process, MB; `None` where `/proc` is absent.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    Some(kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok()? / 1024.0)
}

/// The `fleet_400k` benchmark's shape: 400 000 clients, one 8×8 image each.
/// Built eagerly, its training images alone took 100 MB and their shard
/// copies as much again; built lazily, the whole process peaks at about
/// 35 MB (release or debug, x86-64 Linux). Run it on its own for a clean
/// peak: `cargo test --release --test lazy_shards -- fleet_sized`.
#[test]
fn fleet_sized_environment_holds_no_shards() {
    const CEILING_MB: f64 = 64.0;
    let clients = 400_000;
    let mut cfg = ExperimentConfig::quick(1, Algorithm::seafl2(512, 64, 10));
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
    cfg.train_per_class = clients / 10;
    cfg.test_per_class = 200;
    cfg.partition = PartitionStrategy::Iid;
    cfg.fleet = FleetConfig::pareto_fleet(clients);
    cfg.validate();
    let env = Environment::build(&cfg);
    assert_eq!(env.shards.len(), clients);
    assert_eq!(env.shards.resident(), 0);
    assert_eq!(env.shards.shard_len(clients - 1), 1);
    assert_eq!(env.test.len(), 2000);
    if let Some(peak) = peak_rss_mb() {
        assert!(peak < CEILING_MB, "peak RSS {peak:.1} MB over the {CEILING_MB} MB ceiling");
    }
}
