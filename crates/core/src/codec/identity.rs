//! Bit-identical passthrough codec — the default.

use super::UpdateCodec;
use crate::checkpoint::{BinReader, BinWriter, CodecError};

/// The do-nothing codec: the blob is the raw little-endian f32 payload
/// and decoding returns it bit for bit. A run configured with `Identity`
/// (an empty [`super::CodecConfig::stages`] list) is digest-identical to
/// a build without the codec layer; the engine additionally fast-paths it
/// so no bytes are even copied.
pub struct Identity;

impl UpdateCodec for Identity {
    fn name(&self) -> &'static str {
        "identity"
    }

    fn is_lossless(&self) -> bool {
        true
    }

    fn encode(&self, _reference: &[f32], params: &[f32]) -> Vec<u8> {
        let mut w = BinWriter::new();
        w.vec_f32(params);
        w.into_bytes()
    }

    fn decode(&self, _reference: &[f32], bytes: &[u8]) -> Result<Vec<f32>, CodecError> {
        let mut r = BinReader::new(bytes);
        let out = r.vec_f32()?;
        r.finish()?;
        Ok(out)
    }

    fn project(&self, _reference: &[f32], params: &[f32]) -> Vec<f32> {
        params.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_bit_exact() {
        let params = vec![1.5, -0.0, f32::NAN, f32::INFINITY, 3.25e-40];
        let codec = Identity;
        let back = codec.decode(&[], &codec.encode(&[], &params)).unwrap();
        assert_eq!(back.len(), params.len());
        for (a, b) in back.iter().zip(&params) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let codec = Identity;
        let mut blob = codec.encode(&[], &[1.0, 2.0]);
        blob.push(0);
        assert!(codec.decode(&[], &blob).is_err());
    }
}
