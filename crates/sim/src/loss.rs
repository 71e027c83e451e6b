//! Deterministic wire-loss model for real transports.
//!
//! The `seafl-net` crate wraps its sockets in a `LossyTransport` that drops,
//! duplicates or reorders frames. Like every other stochastic
//! channel in the simulator, the decisions are *seeded and addressable*: the
//! fate of the `n`-th frame sent on link `l` is a pure function of
//! `(master_seed, NET_LOSS_BASE + l, n)` via
//! [`crate::rng::unit_from_counter`], so a lossy integration run replays the
//! exact same loss pattern every time, independent of wall-clock timing and
//! of every simulation stream (the model composes with an active
//! [`crate::faults::FaultPlan`] without moving any of its draws).

use crate::faults::{ensure, ConfigError};
use crate::rng::{streams, unit_from_counter};

/// What the loss model decided to do with one outgoing frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameFate {
    /// Forward the frame unmolested.
    Deliver,
    /// Silently discard the frame (the retransmit path must recover it).
    Drop,
    /// Deliver the frame twice back to back (receiver must deduplicate).
    Duplicate,
    /// Hold the frame back and deliver it *after* the next frame sent on
    /// the link (adjacent-pair reordering).
    Reorder,
}

/// Seeded frame-level loss model for one transport link.
///
/// The three probabilities partition a single uniform draw per frame
/// (`drop`, then `duplicate`, then `reorder`, remainder delivers clean), so they must sum to at most 1. [`LossConfig::none`]
/// (the default) draws nothing and forwards everything.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LossConfig {
    /// Per-frame probability the frame is silently dropped.
    pub drop_prob: f64,
    /// Per-frame probability the frame is delivered twice.
    pub dup_prob: f64,
    /// Per-frame probability the frame swaps places with its successor.
    pub reorder_prob: f64,
    /// Hard-kill the link once this many frames have been sent on it
    /// (a forced mid-transfer disconnect; the reconnect/replay handshake
    /// must resume the session). Fires at most once per process.
    pub disconnect_after: Option<u64>,
}

impl LossConfig {
    /// A perfectly reliable link: nothing is drawn, everything delivers.
    pub fn none() -> Self {
        LossConfig { drop_prob: 0.0, dup_prob: 0.0, reorder_prob: 0.0, disconnect_after: None }
    }

    /// True when this config can never alter a frame or kill a link.
    pub fn is_noop(&self) -> bool {
        self.drop_prob == 0.0
            && self.dup_prob == 0.0
            && self.reorder_prob == 0.0
            && self.disconnect_after.is_none()
    }

    /// Check invariants; every probability must lie in `[0, 1]` and the
    /// three together must not exceed 1 (they partition one draw).
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (name, p) in [
            ("loss.drop_prob", self.drop_prob),
            ("loss.dup_prob", self.dup_prob),
            ("loss.reorder_prob", self.reorder_prob),
        ] {
            ensure((0.0..=1.0).contains(&p), || format!("config: {name} {p} outside [0,1]"))?;
        }
        let sum = self.drop_prob + self.dup_prob + self.reorder_prob;
        ensure(sum <= 1.0, || format!("config: loss probabilities sum to {sum}, must be <= 1"))?;
        Ok(())
    }

    /// Decide the fate of frame number `frame` (0-based send counter) on
    /// link `link`. Pure: same inputs, same fate, forever.
    pub fn fate(&self, master_seed: u64, link: u64, frame: u64) -> FrameFate {
        if self.drop_prob == 0.0 && self.dup_prob == 0.0 && self.reorder_prob == 0.0 {
            return FrameFate::Deliver;
        }
        let u = unit_from_counter(master_seed, streams::NET_LOSS_BASE + link, frame);
        let mut edge = self.drop_prob;
        if u < edge {
            return FrameFate::Drop;
        }
        edge += self.dup_prob;
        if u < edge {
            return FrameFate::Duplicate;
        }
        edge += self.reorder_prob;
        if u < edge {
            return FrameFate::Reorder;
        }
        FrameFate::Deliver
    }
}

impl Default for LossConfig {
    fn default() -> Self {
        LossConfig::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy() -> LossConfig {
        LossConfig { drop_prob: 0.1, dup_prob: 0.1, reorder_prob: 0.1, disconnect_after: None }
    }

    #[test]
    fn noop_by_default_and_never_draws() {
        let c = LossConfig::default();
        assert!(c.is_noop());
        c.validate().unwrap();
        for frame in 0..64 {
            assert_eq!(c.fate(42, 0, frame), FrameFate::Deliver);
        }
    }

    #[test]
    fn fate_is_deterministic_and_link_independent() {
        let c = lossy();
        c.validate().unwrap();
        let a: Vec<FrameFate> = (0..256).map(|n| c.fate(7, 3, n)).collect();
        let b: Vec<FrameFate> = (0..256).map(|n| c.fate(7, 3, n)).collect();
        assert_eq!(a, b, "same (seed, link, frame) must replay the same fates");
        let other: Vec<FrameFate> = (0..256).map(|n| c.fate(7, 4, n)).collect();
        assert_ne!(a, other, "distinct links should see distinct loss patterns");
    }

    #[test]
    fn fate_frequencies_track_probabilities() {
        let c = lossy();
        let n = 20_000u64;
        let drops = (0..n).filter(|&i| c.fate(1, 0, i) == FrameFate::Drop).count() as f64;
        let frac = drops / n as f64;
        assert!((0.08..0.12).contains(&frac), "drop fraction {frac} far from 0.1");
    }

    #[test]
    fn out_of_range_probability_rejected() {
        let mut c = LossConfig::none();
        c.drop_prob = 1.5;
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("outside [0,1]"), "got: {err}");
        let mut c = LossConfig::none();
        c.reorder_prob = -0.1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn probability_sum_above_one_rejected() {
        let mut c = lossy();
        c.drop_prob = 0.9;
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("sum"), "got: {err}");
    }

    #[test]
    fn disconnect_alone_is_not_noop() {
        let mut c = LossConfig::none();
        c.disconnect_after = Some(10);
        assert!(!c.is_noop());
        c.validate().unwrap();
        // The probability channels are all zero, so fates still deliver.
        assert_eq!(c.fate(1, 0, 0), FrameFate::Deliver);
    }
}
