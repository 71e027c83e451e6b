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
/// The ranking is a selection, not a sort: each coordinate becomes one
/// `u64` key `(bits(|Δ|) << 32) | !i`. `abs` clears the sign bit, and
/// non-negative f32 bit patterns order as unsigned integers exactly as
/// `total_cmp` orders the values (NaN included); `!i` makes the lower
/// index the larger key on a tie. The keys are distinct, so the `k`
/// largest are one well-defined set, found in linear time.
///
/// # Examples
///
/// ```
/// use seafl_core::{TopK, UpdateCodec};
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
}

impl UpdateCodec for TopK {
    fn name(&self) -> &'static str {
        "topk"
    }

    fn is_lossless(&self) -> bool {
        false
    }

    /// Blob layout: `u64 n`, `u64 k_actual`, then `k_actual` pairs of
    /// `(u32 index, f32 value)` in ascending index order. Against a
    /// reference of mismatched length there is nothing to be sparse
    /// against, so the blob is self-contained: all `n` coordinates
    /// verbatim (`k_actual = n`), which [`TopK::decode`] requires there.
    fn encode(&self, reference: &[f32], params: &[f32]) -> Vec<u8> {
        let n = params.len();
        let kept: Vec<u32> = if reference.len() == n {
            let k = self.k.min(n);
            let mut keys: Vec<u64> = params
                .iter()
                .zip(reference)
                .enumerate()
                .map(|(i, (p, r))| ((p - r).abs().to_bits() as u64) << 32 | !(i as u32) as u64)
                .collect();
            if k < n {
                keys.select_nth_unstable(n - k);
            }
            let mut kept: Vec<u32> = keys[n - k..].iter().map(|&key| !(key as u32)).collect();
            kept.sort_unstable();
            kept
        } else {
            (0..n as u32).collect()
        };
        let mut w = BinWriter::new();
        w.u64(n as u64);
        w.u64(kept.len() as u64);
        for &i in &kept {
            w.u32(i);
            w.f32(params[i as usize]);
        }
        w.into_bytes()
    }

    fn decode(&self, reference: &[f32], bytes: &[u8]) -> Result<Vec<f32>, CodecError> {
        let mut r = BinReader::new(bytes);
        let n = r.usize()?;
        let mut out = if reference.len() == n {
            reference.to_vec()
        } else {
            // The self-contained fallback carries all `n` coordinates, so
            // its record count — bounded by the blob's bytes — must be `n`
            // before anything is allocated; `ascending_ids` then writes
            // every slot.
            let k = BinReader::new(&bytes[8..]).count(8)?;
            if k != n {
                return Err(CodecError(format!(
                    "topk: {k} of {n} coordinates without a reference of that length"
                )));
            }
            vec![0.0; n]
        };
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

    /// The encoder before selection: a full comparator sort that recomputes
    /// the magnitude on every comparison. The oracle for the selection.
    fn encode_by_sort(k: usize, reference: &[f32], params: &[f32]) -> Vec<u8> {
        let n = params.len();
        let k = k.min(n);
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mag = |i: u32| (params[i as usize] - reference[i as usize]).abs();
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

    #[test]
    fn selection_matches_the_sort_oracle_byte_for_byte() {
        // Values built to collide: NaNs of both signs with payloads, signed
        // zeros and infinities, subnormals, and magnitudes tied across signs.
        let pool = [
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0xffc0_0002),
            f32::from_bits(0x7f80_0003),
            f32::from_bits(0xff80_0004),
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE / 2.0,
            -f32::MIN_POSITIVE / 2.0,
            1.0,
            -1.0,
            0.5,
            -0.5,
            f32::MAX,
            -f32::MAX,
        ];
        let mut state = 0x5eaf_1234_u64;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for n in [0usize, 1, 2, 7, 64, 4099] {
            for k in [1, n.saturating_sub(1), n, n + 3] {
                if k == 0 {
                    continue;
                }
                for trial in 0..4 {
                    let mut value = |zero_bias: bool| match next() % 4 {
                        _ if zero_bias => 0.0,
                        0 => f32::from_bits(next() as u32),
                        _ => pool[(next() % pool.len() as u64) as usize],
                    };
                    // Trials 0 and 1 keep a zero reference, so deltas are the
                    // pool's own ties; the others draw both sides.
                    let reference: Vec<f32> = (0..n).map(|_| value(trial < 2)).collect();
                    let params: Vec<f32> = (0..n).map(|_| value(false)).collect();
                    assert_eq!(
                        TopK::new(k).encode(&reference, &params),
                        encode_by_sort(k, &reference, &params),
                        "n {n}, k {k}, trial {trial}"
                    );
                }
            }
        }
    }

    #[test]
    fn mismatched_reference_is_self_contained() {
        let params = vec![1.0f32, f32::NAN, -0.0, 2.5e-41];
        let codec = TopK::new(1);
        let blob = codec.encode(&[], &params);
        let back = codec.decode(&[], &blob).unwrap();
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&params), "every coordinate verbatim");
        // A sparse blob needs its reference: without it, it is an error.
        let sparse = codec.encode(&[0.0; 4], &params);
        assert!(codec.decode(&[], &sparse).is_err());
    }

    #[test]
    fn hostile_lengths_error_without_allocating() {
        for n in [1u64 << 40, u64::MAX] {
            for k in [0, n] {
                let mut w = BinWriter::new();
                w.u64(n);
                w.u64(k);
                w.u32(0);
                w.f32(1.0);
                let blob = w.into_bytes();
                assert!(TopK::new(1).decode(&[0.0; 4], &blob).is_err(), "n {n}, k {k}");
            }
        }
    }
}
