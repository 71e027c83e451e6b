//! Pluggable update-compression codecs (ROADMAP item 4).
//!
//! At fleet scale the binding constraint of semi-asynchronous FL shifts
//! from computation to *communication*: every session moves a full model
//! down and a full update (or several epoch snapshots) back up. This
//! module supplies the compression seam — an [`UpdateCodec`] maps an
//! update vector to a byte blob **relative to a reference model** (the
//! global model the client pulled) and back:
//!
//! * [`Identity`] — bit-identical passthrough, the default. A run with an
//!   empty codec pipeline is bitwise indistinguishable from a build
//!   without this module.
//! * [`TopK`] — magnitude sparsification: keep the `k` coordinates whose
//!   change versus the reference is largest, deterministic tie-breaking
//!   by index.
//! * [`QuantInt8`] — 8-bit symmetric quantization of the delta with one
//!   per-tensor scale and deterministic round-half-away-from-zero.
//! * [`GenDelta`] — *lossless* delta coding against the pulled
//!   generation: XOR of IEEE-754 bit patterns with nonzero-byte packing,
//!   small exactly when the update stayed close to the reference.
//!
//! Codecs compose as a [`Pipeline`] (value-space projection through every
//! stage, the last stage serializes), and an opt-in error-feedback store
//! ([`FeedbackStore`]) accumulates the residual each lossy projection
//! discards and re-injects it into the client's next full update.
//!
//! ## Determinism
//!
//! Every codec here is a pure function of `(reference, params)` with
//! fixed rounding and tie-break rules — no RNG, no data-dependent
//! iteration order — so the projected update is bit-identical no matter
//! where it is computed: the engine's seam, a worker process across the
//! wire, one thread or eight. The engine applies each codec **exactly
//! once per outcome** (client-side when the wire carries compressed
//! blobs, server-side otherwise); re-projection is *not* idempotent in
//! f32 arithmetic, so the single-application rule — not algebra — is what
//! keeps digests pinned (DESIGN.md §14).

mod feedback;
mod gendelta;
mod identity;
mod quant;
mod topk;

pub(crate) use feedback::FeedbackStore;
pub use gendelta::GenDelta;
pub(crate) use identity::Identity;
pub use quant::QuantInt8;
pub use topk::TopK;

use crate::checkpoint::CodecError;
use seafl_sim::faults::{ensure, ConfigError};
use std::collections::VecDeque;

/// One update-compression codec: encodes an update vector against a
/// reference model (the global model the client trained from) and decodes
/// the blob back to a full-length vector.
///
/// Implementations must be deterministic pure functions — same
/// `(reference, params)` in, bit-identical blob and decode out — and must
/// accept their own encodings (`decode(reference, encode(reference, p))`
/// never errors).
///
/// # Examples
///
/// ```
/// use seafl_core::{GenDelta, UpdateCodec};
///
/// let reference = vec![0.0_f32; 4];
/// let params = vec![1.0, -2.0, 0.5, -0.0];
/// let codec = GenDelta;
/// let blob = codec.encode(&reference, &params);
/// let back = codec.decode(&reference, &blob).unwrap();
/// assert_eq!(back, params);
/// // Bitwise, not just numeric: -0.0 survives as -0.0.
/// assert_eq!(back[3].to_bits(), (-0.0_f32).to_bits());
/// assert!(codec.is_lossless());
/// ```
pub trait UpdateCodec: Send {
    /// Stable label used in reports and error messages.
    fn name(&self) -> &'static str;

    /// True when `decode(encode(x)) == x` bit for bit, for every `x`.
    /// Lossless codecs shrink bytes without moving the model, so the
    /// error-feedback store is a no-op for them (its residual is
    /// identically zero) and the engine skips it.
    fn is_lossless(&self) -> bool;

    /// Encode `params` against `reference` into a self-describing
    /// blob. A reference of mismatched length must still encode (each
    /// codec documents its fallback), so a blob never depends on state
    /// the decoder might lack.
    fn encode(&self, reference: &[f32], params: &[f32]) -> Vec<u8>;

    /// Reconstruct the (possibly lossy) update from `bytes`. Errors on
    /// malformed blobs, never panics.
    fn decode(&self, reference: &[f32], bytes: &[u8]) -> Result<Vec<f32>, CodecError>;

    /// What the decoder will see: the value-space projection
    /// `decode(encode(params))`. The default literally round-trips the
    /// bytes; codecs may override with an equivalent shortcut, but the
    /// result must stay bit-identical to the round trip.
    fn project(&self, reference: &[f32], params: &[f32]) -> Vec<f32> {
        self.decode(reference, &self.encode(reference, params))
            .unwrap_or_else(|e| panic!("codec {}: own encoding failed to decode: {e}", self.name()))
    }
}

/// One stage of the codec pipeline, as configured on
/// [`CodecConfig::stages`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecStage {
    /// [`TopK`] sparsification keeping `k` coordinates.
    TopK {
        /// Coordinates kept per update (clamped to the model size).
        k: usize,
    },
    /// [`QuantInt8`] delta quantization.
    QuantInt8,
    /// [`GenDelta`] lossless bit-delta coding.
    GenDelta,
}

impl CodecStage {
    /// Build the codec this stage describes.
    fn build(&self) -> Box<dyn UpdateCodec> {
        match *self {
            CodecStage::TopK { k } => Box::new(TopK::new(k)),
            CodecStage::QuantInt8 => Box::new(QuantInt8),
            CodecStage::GenDelta => Box::new(GenDelta),
        }
    }

    /// Stable label used in [`CodecConfig::label`].
    fn name(&self) -> &'static str {
        match self {
            CodecStage::TopK { .. } => "topk",
            CodecStage::QuantInt8 => "int8",
            CodecStage::GenDelta => "gendelta",
        }
    }
}

/// Update-compression knobs on `ExperimentConfig`.
///
/// Unlike the transport knobs, the codec **changes what a run computes**
/// (a lossy projection moves the admitted update), so it stays inside
/// `ExperimentConfig::state_hash` — the wire handshake's config-hash
/// check therefore also proves both peers agreed on the codec, with no
/// extra protocol field.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CodecConfig {
    /// The compression pipeline, applied in order; empty (the default)
    /// means `Identity` — bit-identical to a codec-free build.
    pub stages: Vec<CodecStage>,
    /// Error feedback: keep the residual each lossy projection discards
    /// and add it to the client's next full update before encoding. The
    /// residual store rides the checkpoint, so resumed runs replay it
    /// bit-identically. Ignored when every stage is lossless (the
    /// residual is identically zero).
    pub error_feedback: bool,
}

impl CodecConfig {
    /// True for the default passthrough configuration (no stages).
    pub fn is_identity(&self) -> bool {
        self.stages.is_empty()
    }

    /// True when every configured stage is lossless (vacuously true for
    /// the identity configuration).
    pub fn is_lossless(&self) -> bool {
        self.stages.iter().all(|s| matches!(s, CodecStage::GenDelta))
    }

    /// Whether compressed blobs should actually cross the wire.
    ///
    /// Error feedback is *server-side* state; with a lossy pipeline the
    /// compensation must happen where the residuals live, so the wire
    /// carries raw outcomes and the engine seam projects them uniformly.
    /// Lossless pipelines (and EF-off lossy ones) encode client-side.
    pub fn wire_active(&self) -> bool {
        !self.stages.is_empty() && (!self.error_feedback || self.is_lossless())
    }

    /// Short stable label for run files and report tables
    /// (`"identity"`, `"topk"`, `"topk+int8+ef"`, …).
    pub fn label(&self) -> String {
        if self.stages.is_empty() {
            return "identity".to_string();
        }
        let mut out = self.stages.iter().map(|s| s.name()).collect::<Vec<_>>().join("+");
        if self.error_feedback && !self.is_lossless() {
            out.push_str("+ef");
        }
        out
    }

    /// Check invariants (called from `ExperimentConfig::validate`).
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        for stage in &self.stages {
            if let CodecStage::TopK { k } = stage {
                ensure(*k >= 1, || "config: codec TopK k must be >= 1".into())?;
            }
        }
        Ok(())
    }
}

/// Build the configured codec: `Identity` for an empty stage list, the
/// single stage directly, or a `Pipeline` over several.
pub fn build_codec(cfg: &CodecConfig) -> Box<dyn UpdateCodec> {
    match cfg.stages.len() {
        0 => Box::new(Identity),
        1 => cfg.stages[0].build(),
        _ => Box::new(Pipeline::new(cfg.stages.iter().map(|s| s.build()).collect())),
    }
}

/// Several codecs composed in order: every stage but the last projects in
/// value space (so each stage sees exactly what its decoder would), and
/// the last stage serializes. Decoding is therefore the last stage's
/// decode alone, and the pipeline's projection equals the fold of its
/// stages' projections.
pub(crate) struct Pipeline {
    stages: Vec<Box<dyn UpdateCodec>>,
}

impl Pipeline {
    /// Compose `stages` in application order. Panics on an empty list
    /// (config validation rules it out; use [`Identity`] instead).
    pub(crate) fn new(stages: Vec<Box<dyn UpdateCodec>>) -> Self {
        assert!(!stages.is_empty(), "codec pipeline needs at least one stage");
        Pipeline { stages }
    }
}

impl UpdateCodec for Pipeline {
    fn name(&self) -> &'static str {
        "pipeline"
    }

    fn is_lossless(&self) -> bool {
        self.stages.iter().all(|s| s.is_lossless())
    }

    fn encode(&self, reference: &[f32], params: &[f32]) -> Vec<u8> {
        let last = self.stages.len() - 1;
        let mut cur: Option<Vec<f32>> = None;
        for stage in &self.stages[..last] {
            let input = cur.as_deref().unwrap_or(params);
            cur = Some(stage.project(reference, input));
        }
        self.stages[last].encode(reference, cur.as_deref().unwrap_or(params))
    }

    fn decode(&self, reference: &[f32], bytes: &[u8]) -> Result<Vec<f32>, CodecError> {
        self.stages[self.stages.len() - 1].decode(reference, bytes)
    }
}

/// A bounded ring of recent global models keyed by aggregation
/// generation — the server-side reference store for [`GenDelta`] (and any
/// reference-relative codec) on the wire path.
///
/// The current `seafl-net` server trains one cohort at a time and drops
/// outcomes of superseded generations, so in practice only the
/// newest entry is ever looked up; the ring's capacity (and the explicit
/// generation key) is what bounds memory if the protocol ever overlaps
/// cohorts (DESIGN.md §14).
pub struct ModelRing {
    cap: usize,
    entries: VecDeque<(u64, Vec<f32>)>,
}

impl ModelRing {
    /// An empty ring retaining at most `cap` models (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        ModelRing { cap: cap.max(1), entries: VecDeque::new() }
    }

    /// Record `model` as generation `gen`'s reference, evicting the
    /// oldest entry beyond capacity. Re-pushing a resident generation
    /// replaces its model.
    pub fn push(&mut self, gen: u64, model: Vec<f32>) {
        if let Some(slot) = self.entries.iter_mut().find(|(g, _)| *g == gen) {
            slot.1 = model;
            return;
        }
        self.entries.push_back((gen, model));
        while self.entries.len() > self.cap {
            self.entries.pop_front();
        }
    }

    /// The reference model for generation `gen`, if still resident.
    pub fn get(&self, gen: u64) -> Option<&[f32]> {
        self.entries.iter().find(|(g, _)| *g == gen).map(|(_, m)| m.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Vec<f32>, Vec<f32>) {
        let reference: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin()).collect();
        let params: Vec<f32> =
            reference.iter().enumerate().map(|(i, &r)| r + (i as f32 * 0.11).cos() * 0.1).collect();
        (reference, params)
    }

    #[test]
    fn build_codec_matches_config() {
        assert_eq!(build_codec(&CodecConfig::default()).name(), "identity");
        let one = CodecConfig { stages: vec![CodecStage::QuantInt8], error_feedback: false };
        assert_eq!(build_codec(&one).name(), "int8");
        let two = CodecConfig {
            stages: vec![CodecStage::TopK { k: 4 }, CodecStage::QuantInt8],
            error_feedback: false,
        };
        assert_eq!(build_codec(&two).name(), "pipeline");
        assert!(!build_codec(&two).is_lossless());
    }

    #[test]
    fn labels_and_wire_rules() {
        let mut cfg = CodecConfig::default();
        assert_eq!(cfg.label(), "identity");
        assert!(cfg.is_identity());
        assert!(!cfg.wire_active(), "identity never arms the wire codec");

        cfg.stages = vec![CodecStage::TopK { k: 8 }];
        assert_eq!(cfg.label(), "topk");
        assert!(cfg.wire_active());

        cfg.error_feedback = true;
        assert_eq!(cfg.label(), "topk+ef");
        assert!(!cfg.wire_active(), "EF + lossy must project server-side");

        cfg.stages = vec![CodecStage::GenDelta];
        assert!(cfg.is_lossless());
        assert_eq!(cfg.label(), "gendelta", "EF is a no-op for lossless stages");
        assert!(cfg.wire_active(), "lossless stages encode client-side even with EF");

        cfg.stages = vec![CodecStage::TopK { k: 8 }, CodecStage::QuantInt8];
        cfg.error_feedback = false;
        assert_eq!(cfg.label(), "topk+int8");
    }

    #[test]
    fn zero_k_rejected() {
        let cfg = CodecConfig { stages: vec![CodecStage::TopK { k: 0 }], error_feedback: false };
        assert!(cfg.validate().is_err());
        let ok = CodecConfig { stages: vec![CodecStage::TopK { k: 1 }], error_feedback: false };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn pipeline_projection_composes() {
        let (reference, params) = sample();
        let topk = TopK::new(16);
        let int8 = QuantInt8;
        let pipe = Pipeline::new(vec![Box::new(TopK::new(16)), Box::new(QuantInt8)]);
        let expect = int8.project(&reference, &topk.project(&reference, &params));
        let blob = pipe.encode(&reference, &params);
        assert_eq!(pipe.decode(&reference, &blob).unwrap(), expect);
        assert_eq!(pipe.project(&reference, &params), expect);
    }

    #[test]
    fn model_ring_bounds_and_lookup() {
        let mut ring = ModelRing::new(2);
        assert!(ring.entries.is_empty());
        ring.push(1, vec![1.0]);
        ring.push(2, vec![2.0]);
        ring.push(3, vec![3.0]);
        assert_eq!(ring.entries.len(), 2);
        assert!(ring.get(1).is_none(), "oldest generation evicted");
        assert_eq!(ring.get(3).unwrap(), &[3.0]);
        ring.push(3, vec![3.5]);
        assert_eq!(ring.entries.len(), 2, "re-push replaces, never duplicates");
        assert_eq!(ring.get(3).unwrap(), &[3.5]);
    }
}
