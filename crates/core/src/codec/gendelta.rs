//! Lossless generation-delta coding.

use super::UpdateCodec;
use crate::checkpoint::{BinReader, BinWriter, CodecError};

/// Lossless delta against the pulled generation: XOR each coordinate's
/// IEEE-754 bit pattern with the reference model's and pack only the
/// nonzero bytes (a 4-bit mask per 32-bit word, two masks per mask
/// byte). Coordinates that barely moved share exponent and high mantissa
/// bits with the reference, so their XOR words are mostly zero bytes and
/// the blob shrinks — while reconstruction stays bit-exact, including
/// NaN payloads and signed zeros.
///
/// The decoder needs the *same* reference generation; on the wire path
/// the server keeps a bounded [`super::ModelRing`] of recent globals
/// keyed by generation for exactly this purpose. When the encoder's
/// reference has the wrong length it falls back to storing raw bit
/// patterns (mode byte 1), still lossless, never wrong.
pub struct GenDelta;

/// XOR words packed against the reference (requires the same reference
/// at decode).
const MODE_PACKED: u8 = 0;
/// Raw bit patterns (self-contained fallback).
const MODE_RAW: u8 = 1;

impl UpdateCodec for GenDelta {
    fn name(&self) -> &'static str {
        "gendelta"
    }

    fn is_lossless(&self) -> bool {
        true
    }

    /// Blob layout: `u8 mode`, `u64 n`, then either raw `u32` bit
    /// patterns (mode 1) or two length-prefixed sections — nibble masks
    /// (one per word, packed two per byte) and the surviving XOR bytes
    /// in word order (mode 0).
    fn encode(&self, reference: &[f32], params: &[f32]) -> Vec<u8> {
        let n = params.len();
        let mut w = BinWriter::new();
        if reference.len() != n {
            w.u8(MODE_RAW);
            w.u64(n as u64);
            for &p in params {
                w.u32(p.to_bits());
            }
            return w.into_bytes();
        }
        w.u8(MODE_PACKED);
        w.u64(n as u64);
        let mut masks = vec![0u8; n.div_ceil(2)];
        let mut data = Vec::new();
        for i in 0..n {
            let xor = (params[i].to_bits() ^ reference[i].to_bits()).to_le_bytes();
            let mut m = 0u8;
            for (b, &byte) in xor.iter().enumerate() {
                if byte != 0 {
                    m |= 1 << b;
                    data.push(byte);
                }
            }
            masks[i / 2] |= if i % 2 == 0 { m } else { m << 4 };
        }
        w.section(&masks);
        w.section(&data);
        w.into_bytes()
    }

    fn decode(&self, reference: &[f32], bytes: &[u8]) -> Result<Vec<f32>, CodecError> {
        let mut r = BinReader::new(bytes);
        let mode = r.u8()?;
        let n = r.u64()? as usize;
        match mode {
            MODE_RAW => {
                let mut out = Vec::with_capacity(n);
                for _ in 0..n {
                    out.push(f32::from_bits(r.u32()?));
                }
                r.finish()?;
                Ok(out)
            }
            MODE_PACKED => {
                if reference.len() != n {
                    return Err(CodecError(format!(
                        "gendelta: reference length {} does not match encoded size {n}",
                        reference.len()
                    )));
                }
                let masks = r.section()?;
                let data = r.section()?;
                if masks.len() != n.div_ceil(2) {
                    return Err(CodecError(format!(
                        "gendelta: {} mask bytes for {n} words",
                        masks.len()
                    )));
                }
                let mut out = Vec::with_capacity(n);
                let mut cursor = 0usize;
                for i in 0..n {
                    let m = if i % 2 == 0 { masks[i / 2] & 0x0f } else { masks[i / 2] >> 4 };
                    let mut xor = [0u8; 4];
                    for (b, slot) in xor.iter_mut().enumerate() {
                        if m & (1 << b) != 0 {
                            *slot = *data.get(cursor).ok_or_else(|| {
                                CodecError("gendelta: packed data truncated".to_string())
                            })?;
                            cursor += 1;
                        }
                    }
                    let bits = reference[i].to_bits() ^ u32::from_le_bytes(xor);
                    out.push(f32::from_bits(bits));
                }
                if cursor != data.len() {
                    return Err(CodecError(format!(
                        "gendelta: {} unread packed bytes",
                        data.len() - cursor
                    )));
                }
                r.finish()?;
                Ok(out)
            }
            m => Err(CodecError(format!("gendelta: unknown mode byte {m}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_bits_eq(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "coordinate {i}");
        }
    }

    #[test]
    fn exact_round_trip_with_matching_reference() {
        let reference: Vec<f32> = (0..100).map(|i| (i as f32 * 0.31).sin()).collect();
        let mut params: Vec<f32> = reference.iter().map(|&r| r + r.abs() * 1e-3 + 1e-9).collect();
        params[7] = f32::NAN;
        params[8] = -0.0;
        params[9] = f32::NEG_INFINITY;
        let codec = GenDelta;
        let blob = codec.encode(&reference, &params);
        assert_bits_eq(&codec.decode(&reference, &blob).unwrap(), &params);
    }

    #[test]
    fn near_reference_updates_compress() {
        let reference: Vec<f32> = (0..512).map(|i| (i as f32 * 0.17).cos()).collect();
        // Identical model: every XOR word is zero — blob is header + masks only.
        let codec = GenDelta;
        let blob = codec.encode(&reference, &reference.clone());
        assert!(
            blob.len() < reference.len() * 4,
            "{} bytes for {} raw",
            blob.len(),
            reference.len() * 4
        );
    }

    #[test]
    fn mismatched_reference_falls_back_to_raw_and_stays_lossless() {
        let params = vec![1.0f32, f32::NAN, -0.0, 2.5e-41];
        let codec = GenDelta;
        let blob = codec.encode(&[], &params);
        assert_eq!(blob[0], MODE_RAW);
        assert_bits_eq(&codec.decode(&[], &blob).unwrap(), &params);
        // Decoding a packed blob against the wrong reference length errors.
        let reference = vec![0.5f32; 4];
        let packed = codec.encode(&reference, &params);
        assert!(codec.decode(&[], &packed).is_err());
    }

    #[test]
    fn corrupt_blobs_rejected() {
        let reference = vec![0.25f32; 8];
        let params = vec![0.26f32; 8];
        let codec = GenDelta;
        let blob = codec.encode(&reference, &params);
        let mut truncated = blob.clone();
        truncated.pop();
        assert!(codec.decode(&reference, &truncated).is_err());
        let mut trailing = blob.clone();
        trailing.push(1);
        assert!(codec.decode(&reference, &trailing).is_err());
        let mut bad_mode = blob;
        bad_mode[0] = 7;
        assert!(codec.decode(&reference, &bad_mode).is_err());
    }
}
