//! Tiny stable hashes: FNV-1a for identities, XXH64 for integrity.
//!
//! Two jobs, two functions, chosen by what the hash is *for*:
//!
//! * **Identities** — final model weights ([`digest_f32`]), the event
//!   trace, the metrics registry, `ExperimentConfig::state_hash` — are
//!   values something compares: a pinned fixture, a resumed run against an
//!   uninterrupted one, two peers in a handshake. They must never change,
//!   and FNV-1a's one-liner definition lets anyone recompute them from any
//!   language when comparing `*_runs.json` reports offline. They are
//!   hashed once per run, so FNV's one multiply per byte costs nothing.
//! * **Integrity** — checkpoint payloads and wire frames — is a checksum
//!   recomputed on every save, load, send and receive, over megabytes per
//!   round. Nothing stores its value beyond the file or frame it guards, so
//!   it is free to be fast: [`xxh64`] consumes 32-byte stripes in four
//!   independent 8-byte lanes, an order of magnitude above FNV-1a's
//!   byte-serial chain.
//!
//! Neither is cryptographic: both only have to catch torn writes, bit
//! flips and genuine divergence.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into an in-progress FNV-1a state `h`.
pub fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a 64-bit hash of a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

/// Digest of an `f32` slice over the exact bit patterns (little-endian
/// `to_bits` bytes), so `-0.0` vs `0.0` and NaN payloads all distinguish —
/// this is a *bitwise* identity check, not a numeric one.
pub fn digest_f32(xs: &[f32]) -> u64 {
    let mut h = FNV_OFFSET;
    for &x in xs {
        h = fnv1a64_extend(h, &x.to_bits().to_le_bytes());
    }
    h
}

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

fn xxh_merge(acc: u64, lane: u64) -> u64 {
    (acc ^ xxh_round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8 bytes"))
}

/// XXH64 of `bytes` under `seed` (the reference algorithm, little-endian
/// lanes): the integrity checksum of checkpoint payloads and wire frames.
/// Chaining — `xxh64(rest, xxh64(head, 0))` — covers a message stored in
/// two pieces without concatenating them.
pub fn xxh64(bytes: &[u8], seed: u64) -> u64 {
    let stripes = bytes.chunks_exact(32);
    let mut tail = stripes.remainder();
    let mut h = if bytes.len() >= 32 {
        let mut v = [
            seed.wrapping_add(P1).wrapping_add(P2),
            seed.wrapping_add(P2),
            seed,
            seed.wrapping_sub(P1),
        ];
        for stripe in stripes {
            for (lane, word) in v.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = xxh_round(*lane, le_u64(word));
            }
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.iter().fold(h, |h, &lane| xxh_merge(h, lane))
    } else {
        seed.wrapping_add(P5)
    };
    h = h.wrapping_add(bytes.len() as u64);
    while tail.len() >= 8 {
        h = (h ^ xxh_round(0, le_u64(&tail[..8])))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
        tail = &tail[8..];
    }
    if tail.len() >= 4 {
        let word = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes")) as u64;
        h = (h ^ word.wrapping_mul(P1)).rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
        tail = &tail[4..];
    }
    for &b in tail {
        h = (h ^ (b as u64).wrapping_mul(P5)).rotate_left(11).wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn xxh64_known_vectors() {
        // Reference XXH64 with seed 0. The 39-byte input runs one 32-byte
        // stripe, then the 4-byte and single-byte tails.
        assert_eq!(xxh64(b"", 0), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a", 0), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc", 0), 0x44bc_2cf5_ad77_0999);
        assert_eq!(xxh64(b"Nobody inspects the spammish repetition", 0), 0xfbce_a83c_8a37_8bf1);
    }

    #[test]
    fn xxh64_seed_and_every_bit_matter() {
        let base: Vec<u8> = (0..100u8).collect();
        let h = xxh64(&base, 0);
        assert_ne!(h, xxh64(&base, 1));
        for at in [0, 31, 32, 63, 95, 99] {
            let mut flipped = base.clone();
            flipped[at] ^= 0x01;
            assert_ne!(h, xxh64(&flipped, 0), "bit flip at byte {at} went unseen");
        }
    }

    #[test]
    fn extend_matches_one_shot() {
        let whole = fnv1a64(b"hello world");
        let split = fnv1a64_extend(fnv1a64(b"hello "), b"world");
        assert_eq!(whole, split);
    }

    #[test]
    fn f32_digest_is_bitwise() {
        assert_eq!(digest_f32(&[1.0, 2.0]), digest_f32(&[1.0, 2.0]));
        assert_ne!(digest_f32(&[1.0, 2.0]), digest_f32(&[2.0, 1.0]));
        // Numerically equal but bitwise different.
        assert_ne!(digest_f32(&[0.0]), digest_f32(&[-0.0]));
        // NaNs digest stably (same payload, same hash).
        assert_eq!(digest_f32(&[f32::NAN]), digest_f32(&[f32::NAN]));
        assert_ne!(digest_f32(&[]), 0);
    }

    #[test]
    fn single_bit_flip_changes_digest() {
        let base = vec![0.5f32; 257];
        let mut flipped = base.clone();
        flipped[200] = f32::from_bits(flipped[200].to_bits() ^ 1);
        assert_ne!(digest_f32(&base), digest_f32(&flipped));
    }
}
