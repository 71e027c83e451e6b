//! Error-feedback residual store for lossy codecs.

use crate::checkpoint::{BinReader, BinWriter, CodecError};
use std::collections::BTreeMap;

/// Per-client residuals of what lossy compression discarded.
///
/// Classic error feedback: before encoding client `k`'s full update `x`,
/// add the stored residual (`x' = x + r`); after projecting, store the
/// new residual (`r' = x' - decoded`). Over time every coordinate's
/// accumulated error is eventually transmitted, which is what keeps
/// top-k/quantized SGD converging.
///
/// The store lives server-side in the engine's `State` (residuals must
/// sit where the admitted updates are decided) and rides the checkpoint
/// as part of the codec section, so a killed-and-resumed run replays
/// compensation bit-identically. A `BTreeMap` keyed by client id gives
/// the checkpoint a deterministic iteration order.
#[derive(Default)]
pub(crate) struct FeedbackStore {
    residuals: BTreeMap<usize, Vec<f32>>,
}

impl FeedbackStore {
    /// An empty store.
    pub(crate) fn new() -> Self {
        FeedbackStore::default()
    }

    /// Add client `k`'s stored residual into `params` (`x' = x + r`).
    /// A residual of mismatched length (model shape changed) is dropped
    /// rather than misapplied.
    pub(crate) fn compensate(&mut self, k: usize, params: &mut [f32]) {
        match self.residuals.get(&k) {
            Some(r) if r.len() == params.len() => {
                for (p, ri) in params.iter_mut().zip(r) {
                    *p += ri;
                }
            }
            Some(_) => {
                self.residuals.remove(&k);
            }
            None => {}
        }
    }

    /// Record what compression discarded for client `k`:
    /// `r' = ideal - decoded`, where `ideal` is the compensated update
    /// and `decoded` is what the server will actually admit.
    pub(crate) fn record(&mut self, k: usize, ideal: &[f32], decoded: &[f32]) {
        debug_assert_eq!(ideal.len(), decoded.len());
        let r: Vec<f32> = ideal.iter().zip(decoded).map(|(i, d)| i - d).collect();
        self.residuals.insert(k, r);
    }

    /// Encode for the checkpoint codec section (ascending client id).
    pub(crate) fn encode(&self, w: &mut BinWriter) {
        w.usize(self.residuals.len());
        for (&k, r) in &self.residuals {
            w.u32(k as u32);
            w.vec_f32(r);
        }
    }

    /// Inverse of [`FeedbackStore::encode`]. `num_clients` bounds the
    /// client ids a corrupt payload may claim.
    pub(crate) fn decode(r: &mut BinReader, num_clients: usize) -> Result<Self, CodecError> {
        let mut residuals = BTreeMap::new();
        r.ascending_ids("feedback residual", num_clients, |r, k| {
            residuals.insert(k as usize, r.vec_f32()?);
            Ok(())
        })?;
        Ok(FeedbackStore { residuals })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compensate_then_record_accumulates_discarded_error() {
        let mut fb = FeedbackStore::new();
        let mut x = vec![1.0f32, 2.0, 3.0];
        fb.compensate(5, &mut x);
        assert_eq!(x, vec![1.0, 2.0, 3.0], "no residual yet");
        let decoded = vec![1.0f32, 0.0, 3.0];
        fb.record(5, &x, &decoded);
        let mut y = vec![0.5f32, 0.5, 0.5];
        fb.compensate(5, &mut y);
        assert_eq!(y, vec![0.5, 2.5, 0.5], "dropped coordinate re-injected");
    }

    #[test]
    fn mismatched_residual_dropped() {
        let mut fb = FeedbackStore::new();
        fb.record(1, &[1.0, 1.0], &[0.0, 0.0]);
        let mut short = vec![0.0f32; 3];
        fb.compensate(1, &mut short);
        assert_eq!(short, vec![0.0; 3]);
        assert!(fb.residuals.is_empty(), "shape-mismatched residual is discarded");
    }

    #[test]
    fn checkpoint_round_trip_is_exact() {
        let mut fb = FeedbackStore::new();
        fb.record(3, &[1.5, -0.25], &[1.0, 0.0]);
        fb.record(0, &[0.125], &[0.0]);
        let mut w = BinWriter::new();
        fb.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = BinReader::new(&bytes);
        let back = FeedbackStore::decode(&mut r, 8).unwrap();
        r.finish().unwrap();
        assert_eq!(back.residuals.len(), 2);
        let mut probe = vec![0.0f32, 0.0];
        let mut back = back;
        back.compensate(3, &mut probe);
        assert_eq!(probe, vec![0.5, -0.25]);
    }

    #[test]
    fn corrupt_store_rejected() {
        let mut w = BinWriter::new();
        w.usize(2);
        w.u32(4); // client id out of range for num_clients=3
        w.vec_f32(&[1.0]);
        let bytes = w.into_bytes();
        let mut r = BinReader::new(&bytes);
        assert!(FeedbackStore::decode(&mut r, 3).is_err());
    }
}
