//! 8-bit symmetric delta quantization.

use super::UpdateCodec;
use crate::checkpoint::{BinReader, BinWriter, CodecError};

/// Quantize the delta `params - reference` to signed 8-bit codes with a
/// single per-tensor symmetric scale `max|delta| / 127`, 4.0× smaller
/// than raw f32 (minus a constant header).
///
/// Determinism: the scale is a left-to-right fold of `acc.max(|d|)`
/// (`f32::max` ignores a NaN operand, so NaN deltas cannot poison the
/// scale), codes use `f32::round` — round-half-away-from-zero, the IEEE
/// `roundTiesToAway` rule — and the `as i8` cast saturates with NaN → 0.
/// Every step is a pure f32 computation with no data-dependent order, so
/// encode and decode are bit-stable across threads and hosts.
///
/// Reconstruction error per coordinate is at most `scale / 2` (plus one
/// f32 rounding of the final add), which the codec test suite pins.
pub struct QuantInt8;

impl UpdateCodec for QuantInt8 {
    fn name(&self) -> &'static str {
        "int8"
    }

    fn is_lossless(&self) -> bool {
        false
    }

    /// Blob layout: `u64 n`, `f32 scale`, then `n` signed byte codes. A
    /// reference of mismatched length is treated as all-zero (the delta
    /// is the value itself), mirrored in [`QuantInt8::decode`].
    fn encode(&self, reference: &[f32], params: &[f32]) -> Vec<u8> {
        let n = params.len();
        let rf = |i: usize| if reference.len() == n { reference[i] } else { 0.0 };
        let mut max_abs = 0.0f32;
        for i in 0..n {
            max_abs = max_abs.max((params[i] - rf(i)).abs());
        }
        let scale = if max_abs.is_finite() { max_abs / 127.0 } else { 0.0 };
        let mut w = BinWriter::new();
        w.u64(n as u64);
        w.f32(scale);
        for i in 0..n {
            let code = if scale > 0.0 {
                // `as i8` saturates out-of-range values and maps NaN to 0.
                ((params[i] - rf(i)) / scale).round() as i8
            } else {
                0
            };
            w.u8(code as u8);
        }
        w.into_bytes()
    }

    fn decode(&self, reference: &[f32], bytes: &[u8]) -> Result<Vec<f32>, CodecError> {
        let mut r = BinReader::new(bytes);
        let n = r.u64()? as usize;
        let scale = r.f32()?;
        if !scale.is_finite() || scale < 0.0 {
            return Err(CodecError(format!("int8: invalid scale {scale}")));
        }
        let rf = |i: usize| if reference.len() == n { reference[i] } else { 0.0 };
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let code = r.u8()? as i8;
            out.push(rf(i) + code as f32 * scale);
        }
        r.finish()?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_bounded_by_half_scale() {
        let n = 257;
        let reference: Vec<f32> = (0..n).map(|i| (i as f32 * 0.13).sin()).collect();
        let params: Vec<f32> =
            reference.iter().enumerate().map(|(i, &r)| r + (i as f32 * 0.7).cos() * 0.05).collect();
        let codec = QuantInt8;
        let blob = codec.encode(&reference, &params);
        assert_eq!(blob.len(), 8 + 4 + n, "1 byte per coordinate plus header");
        let out = codec.decode(&reference, &blob).unwrap();
        let max_delta =
            params.iter().zip(&reference).map(|(p, r)| (p - r).abs()).fold(0.0f32, f32::max);
        let scale = max_delta / 127.0;
        let bound = scale * 0.5 * (1.0 + 1e-4) + 1e-12;
        for i in 0..n {
            assert!(
                (out[i] - params[i]).abs() <= bound,
                "coordinate {i}: |{} - {}| exceeds {bound}",
                out[i],
                params[i]
            );
        }
    }

    #[test]
    fn zero_delta_is_exact_and_nan_maps_to_reference() {
        let reference = vec![1.0f32, -2.0, 3.0];
        let codec = QuantInt8;
        // No movement at all: scale is 0, everything decodes to the reference.
        let out = codec.project(&reference, &reference.clone());
        assert_eq!(out, reference);
        // A NaN delta saturates nothing and codes to 0 at its own slot.
        let params = vec![f32::NAN, -2.0, 4.0];
        let out = codec.project(&reference, &params);
        assert_eq!(out[0], reference[0], "NaN delta decodes to the reference value");
        assert!((out[2] - 4.0).abs() <= (1.0 / 127.0) * 0.51);
    }

    #[test]
    fn corrupt_blobs_rejected() {
        let reference = vec![0.0f32; 4];
        let codec = QuantInt8;
        let blob = codec.encode(&reference, &[1.0, 2.0, -1.0, 0.5]);
        let mut truncated = blob.clone();
        truncated.pop();
        assert!(codec.decode(&reference, &truncated).is_err());
        let mut trailing = blob;
        trailing.push(0);
        assert!(codec.decode(&reference, &trailing).is_err());
    }
}
