//! Top-k magnitude sparsification.

use super::UpdateCodec;
use crate::checkpoint::{BinReader, BinWriter, CodecError};

/// Keep only the `k` coordinates whose change versus the reference model
/// is largest in magnitude; every other coordinate decodes back to the
/// reference value (i.e. "that weight did not move").
///
/// Determinism: coordinates are ranked by `|params[i] - reference[i]|`
/// under IEEE-754 total order (`f32::total_cmp`, so NaN deltas rank
/// above infinity and are always kept) with ties broken toward the lower
/// index, and kept values are the client's `params[i]` bits verbatim —
/// no arithmetic touches a surviving coordinate, so the projection is
/// exact at kept indices and bit-identical wherever it is computed.
///
/// # Examples
///
/// ```
/// use seafl_core::codec::{TopK, UpdateCodec};
///
/// let reference = vec![0.0_f32; 4];
/// let params = vec![0.1, -5.0, 3.0, 0.2];
/// let codec = TopK::new(2);
/// let out = codec.project(&reference, &params);
/// // The two largest movers survive verbatim, the rest snap back.
/// assert_eq!(out, vec![0.0, -5.0, 3.0, 0.0]);
/// assert!(!codec.is_lossless());
/// ```
pub struct TopK {
    k: usize,
}

impl TopK {
    /// Sparsifier keeping `k` coordinates per update (`k >= 1`; clamped
    /// to the model size at encode time).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "TopK k must be >= 1");
        TopK { k }
    }

    /// Coordinates kept per update.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl UpdateCodec for TopK {
    fn name(&self) -> &'static str {
        "topk"
    }

    fn is_lossless(&self) -> bool {
        false
    }

    /// Blob layout: `u64 n`, `u64 k_actual`, then `k_actual` pairs of
    /// `(u32 index, f32 value)` in ascending index order. A reference of
    /// mismatched length is treated as all-zero (both here and in
    /// [`TopK::decode`]), so encode and decode always agree.
    fn encode(&self, reference: &[f32], params: &[f32]) -> Vec<u8> {
        let n = params.len();
        let k = self.k.min(n);
        let rf = |i: usize| if reference.len() == n { reference[i] } else { 0.0 };
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mag = |i: u32| (params[i as usize] - rf(i as usize)).abs();
        order.sort_unstable_by(|&a, &b| mag(b).total_cmp(&mag(a)).then(a.cmp(&b)));
        let mut kept = order[..k].to_vec();
        kept.sort_unstable();
        let mut w = BinWriter::new();
        w.u64(n as u64);
        w.u64(k as u64);
        for &i in &kept {
            w.u32(i);
            w.f32(params[i as usize]);
        }
        w.into_bytes()
    }

    fn decode(&self, reference: &[f32], bytes: &[u8]) -> Result<Vec<f32>, CodecError> {
        let mut r = BinReader::new(bytes);
        let n = r.usize()?;
        let mut out = if reference.len() == n { reference.to_vec() } else { vec![0.0; n] };
        r.ascending_ids("topk index", n, |r, i| {
            out[i as usize] = r.f32()?;
            Ok(())
        })?;
        r.finish()?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_exactly_k_largest_movers() {
        let n = 32;
        let reference: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
        // Deltas grow with the index, so the top 5 movers are indices 27..32.
        let params: Vec<f32> =
            reference.iter().enumerate().map(|(i, &r)| r + (i as f32) * 0.01).collect();
        let codec = TopK::new(5);
        let out = codec.project(&reference, &params);
        let mut moved = 0;
        for i in 0..n {
            if out[i].to_bits() != reference[i].to_bits() {
                moved += 1;
                assert!(i >= n - 5, "coordinate {i} is not among the 5 largest movers");
                assert_eq!(out[i].to_bits(), params[i].to_bits(), "kept value must be verbatim");
            }
        }
        assert_eq!(moved, 5);
    }

    #[test]
    fn ties_break_toward_lower_index() {
        let reference = vec![0.0_f32; 4];
        let params = vec![1.0, -1.0, 1.0, 1.0];
        let out = TopK::new(2).project(&reference, &params);
        assert_eq!(out, vec![1.0, -1.0, 0.0, 0.0]);
    }

    #[test]
    fn k_clamped_to_model_size_is_exact() {
        let reference = vec![0.0_f32; 3];
        let params = vec![1.0, 2.0, 3.0];
        let out = TopK::new(10).project(&reference, &params);
        assert_eq!(out, params);
    }

    #[test]
    fn corrupt_blobs_rejected() {
        let reference = vec![0.0_f32; 4];
        let codec = TopK::new(2);
        let blob = codec.encode(&reference, &[1.0, 2.0, 3.0, 4.0]);
        let mut truncated = blob.clone();
        truncated.pop();
        assert!(codec.decode(&reference, &truncated).is_err());
        let mut trailing = blob;
        trailing.push(9);
        assert!(codec.decode(&reference, &trailing).is_err());
    }
}
