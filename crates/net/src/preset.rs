//! The shared loopback experiment preset.
//!
//! Server, clients and the in-process simulator reference must all build
//! **the same** [`ExperimentConfig`] from `(seed, algorithm)` — the
//! handshake's config-hash check only proves the peers agree with each
//! other, while digest comparison against a simulated run additionally
//! needs the test harness to construct the identical experiment. Keeping
//! the preset in one place makes that a function call instead of a
//! convention.

use seafl_core::{Algorithm, CodecConfig, CodecStage, ExperimentConfig};
use seafl_nn::ModelKind;
use seafl_sim::FleetConfig;

/// Algorithm from its stable label (the `--algorithm` flag).
pub(crate) fn algorithm_by_name(name: &str) -> Result<Algorithm, String> {
    Ok(match name {
        "seafl" => Algorithm::seafl(5, 3, Some(4)),
        "seafl2" => Algorithm::seafl2(5, 3, 4),
        "fedbuff" => Algorithm::fedbuff(5, 3),
        "fedasync" => Algorithm::fedasync(5),
        "fedavg" => Algorithm::fedavg(6),
        "fedstale" => Algorithm::fedstale(5, 3),
        other => {
            return Err(format!(
                "unknown algorithm {other:?} \
                 (try seafl, seafl2, fedbuff, fedasync, fedavg, fedstale)"
            ))
        }
    })
}

/// Codec preset from its stable label (the `--codec` flag). Labels are
/// `+`-separated stages with an optional trailing `ef` for error
/// feedback: `identity`, `topk`, `int8`, `gendelta`, `topk+int8`,
/// `topk+ef`, … Every loopback process must pass the same label — the
/// codec config is part of the state hash, so a mismatch is caught at
/// the handshake.
pub fn codec_by_name(name: &str) -> Result<CodecConfig, String> {
    let mut cfg = CodecConfig::default();
    let parts: Vec<&str> = name.split('+').collect();
    for (i, part) in parts.iter().enumerate() {
        match *part {
            "identity" => {}
            "topk" => cfg.stages.push(CodecStage::TopK { k: 2048 }),
            "int8" => cfg.stages.push(CodecStage::QuantInt8),
            "gendelta" => cfg.stages.push(CodecStage::GenDelta),
            "ef" if i == parts.len() - 1 && i > 0 => cfg.error_feedback = true,
            other => {
                return Err(format!(
                    "unknown codec part {other:?} in {name:?} \
                     (try identity, topk, int8, gendelta, topk+int8, topk+ef)"
                ))
            }
        }
    }
    Ok(cfg)
}

/// Small fixed-length experiment every loopback process agrees on:
/// 8 clients on a Pareto fleet, a tiny MLP (≈12.7k parameters, so a model
/// transfer spans several chunks at the test chunk size), 6 rounds, no
/// accuracy early-stop (fixed round count keeps wall-clock bounded and
/// digests comparable). Fails on an unknown algorithm label.
pub fn loopback_config(seed: u64, algorithm_name: &str) -> Result<ExperimentConfig, String> {
    let mut cfg = ExperimentConfig::quick(seed, algorithm_by_name(algorithm_name)?);
    cfg.num_clients = 8;
    cfg.fleet = FleetConfig::pareto_fleet(8);
    cfg.train_per_class = 20;
    cfg.test_per_class = 5;
    cfg.model = ModelKind::Mlp { in_features: 28 * 28, hidden: 16, num_classes: 10 };
    cfg.local_epochs = 2;
    cfg.max_rounds = 6;
    cfg.max_sim_time = 100_000.0;
    cfg.stop_at_accuracy = None;
    cfg.threads = 1;
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_is_deterministic_and_hash_stable() {
        let a = loopback_config(11, "seafl").unwrap();
        let b = loopback_config(11, "seafl").unwrap();
        assert_eq!(a.state_hash(), b.state_hash());
        let c = loopback_config(12, "seafl").unwrap();
        assert_ne!(a.state_hash(), c.state_hash());
        let d = loopback_config(11, "fedbuff").unwrap();
        assert_ne!(a.state_hash(), d.state_hash());
    }

    #[test]
    fn transport_knobs_do_not_move_the_preset_hash() {
        let a = loopback_config(5, "seafl2").unwrap();
        let mut b = loopback_config(5, "seafl2").unwrap();
        b.transport.listen = Some("tcp://127.0.0.1:0".into());
        b.transport.chunk_bytes = 1024;
        b.transport.loss.drop_prob = 0.3;
        assert_eq!(a.state_hash(), b.state_hash());
    }

    #[test]
    fn codec_labels_parse_and_roundtrip() {
        assert!(codec_by_name("identity").unwrap().is_identity());
        let topk = codec_by_name("topk").unwrap();
        assert_eq!(topk.stages, vec![CodecStage::TopK { k: 2048 }]);
        assert!(!topk.error_feedback);
        let ef = codec_by_name("topk+ef").unwrap();
        assert!(ef.error_feedback);
        assert_eq!(ef.label(), "topk+ef");
        let pipe = codec_by_name("topk+int8").unwrap();
        assert_eq!(pipe.stages, vec![CodecStage::TopK { k: 2048 }, CodecStage::QuantInt8]);
        assert!(codec_by_name("gendelta").unwrap().is_lossless());
        assert!(codec_by_name("zstd").is_err());
        assert!(codec_by_name("ef").is_err(), "bare ef has no stage to feed back for");
    }

    #[test]
    fn codec_moves_the_preset_hash() {
        let a = loopback_config(5, "seafl").unwrap();
        let mut b = loopback_config(5, "seafl").unwrap();
        b.codec = codec_by_name("topk").unwrap();
        assert_ne!(a.state_hash(), b.state_hash());
    }

    #[test]
    fn preset_validates() {
        loopback_config(1, "seafl").unwrap().validate();
        loopback_config(1, "fedavg").unwrap().validate();
    }

    #[test]
    fn unknown_algorithm_is_an_error() {
        let e = loopback_config(1, "sgd").unwrap_err();
        assert!(e.contains("unknown algorithm \"sgd\""), "{e}");
    }
}
