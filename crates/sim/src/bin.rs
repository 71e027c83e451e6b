//! Minimal binary codec for checkpoint payloads and wire messages.
//!
//! The byte reader/writer lives in this leaf crate so that every persisted
//! type — here, in `seafl-core` and in `seafl-net` — can own its one
//! `encode`/`decode` pair next to its definition.
//!
//! Checkpoints must round-trip *bit-exactly* — including NaN payloads a
//! corrupt client may have planted in a buffered update — and must fail
//! loudly on truncation. A textual format (serde_json) can do neither for
//! `f32` (non-finite values are unrepresentable), so payloads use an
//! explicit little-endian byte codec: fixed-width integers, floats as their
//! IEEE-754 bit patterns, `usize` widened to `u64`, enums as one-byte tags.
//! Every read is bounds-checked and returns a [`CodecError`] instead of
//! panicking; the checkpoint file's checksum makes a decode error after a
//! clean checksum a format bug, not a corruption symptom.

use crate::id::ClientId;
use crate::rng::{rng_from_state, rng_state, SimRng, SimRngState};
use crate::time::SimTime;

/// A malformed or truncated checkpoint payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checkpoint payload: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(msg.into()))
}

/// Append-only little-endian byte writer.
#[derive(Default)]
pub struct BinWriter {
    buf: Vec<u8>,
}

impl BinWriter {
    /// Fresh empty writer.
    pub fn new() -> Self {
        BinWriter { buf: Vec::new() }
    }

    /// Consume the writer, yielding the encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Write a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u128`, little-endian.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` widened to `u64` (platform-independent).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write an `f32` as its IEEE-754 bit pattern (NaN-exact).
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Write an `f64` as its IEEE-754 bit pattern (NaN-exact).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append raw bytes with no framing.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Write already-serialized bytes as a length-prefixed section.
    pub fn section(&mut self, body: &[u8]) {
        self.usize(body.len());
        self.bytes(body);
    }

    /// Write whatever `body` writes as a length-prefixed section (the
    /// per-policy checkpoint state, for one). The framing lives here once;
    /// what an owner writes inside its section is its own business. The
    /// length is back-patched in place, so the body is never staged in a
    /// side buffer.
    pub fn section_with(&mut self, body: impl FnOnce(&mut BinWriter)) {
        let at = self.buf.len();
        self.u64(0);
        body(self);
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// Write a length-prefixed `f32` slice.
    pub fn vec_f32(&mut self, v: &[f32]) {
        self.usize(v.len());
        for &x in v {
            self.f32(x);
        }
    }

    /// Write a length-prefixed `u64` slice.
    pub fn vec_u64(&mut self, v: &[u64]) {
        self.usize(v.len());
        for &x in v {
            self.u64(x);
        }
    }

    /// Write a [`SimTime`] as its `f64` seconds.
    pub fn sim_time(&mut self, t: SimTime) {
        self.f64(t.as_secs());
    }

    /// Write a client id in its raw 32-bit form.
    pub fn client_id(&mut self, id: ClientId) {
        self.u32(id.raw());
    }

    /// Write a captured RNG state (seed, stream, word position).
    pub fn rng_state(&mut self, (seed, stream, word_pos): SimRngState) {
        self.bytes(&seed);
        self.u64(stream);
        self.u128(word_pos);
    }

    /// Write an RNG's full resumable state.
    pub fn rng(&mut self, rng: &SimRng) {
        self.rng_state(rng_state(rng));
    }

    /// Write a length-prefixed slice of `(f64, f64)` pairs.
    pub fn f64_pairs(&mut self, v: &[(f64, f64)]) {
        self.usize(v.len());
        for &(a, b) in v {
            self.f64(a);
            self.f64(b);
        }
    }
}

/// Bounds-checked little-endian byte reader over a decoded payload.
pub struct BinReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BinReader<'a> {
    /// Reader over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        BinReader { buf, pos: 0 }
    }

    /// Error unless every byte was consumed — trailing garbage means the
    /// writer and reader disagree about the format.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            err(format!("{} unread trailing bytes", self.buf.len() - self.pos))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        match self.buf.get(self.pos..self.pos + n) {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => err(format!(
                "truncated: wanted {n} bytes at offset {}, payload is {} bytes",
                self.pos,
                self.buf.len()
            )),
        }
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a length-prefixed section, returning its raw bytes.
    pub fn section(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.count(1)?;
        self.take(n)
    }

    /// Hand a length-prefixed section to `body` as a sub-reader. The body
    /// must consume the section exactly; its errors come back prefixed with
    /// `name`.
    pub fn section_with<T>(
        &mut self,
        name: &str,
        body: impl FnOnce(&mut BinReader<'a>) -> Result<T, CodecError>,
    ) -> Result<T, CodecError> {
        let mut sub = BinReader::new(self.section()?);
        body(&mut sub)
            .and_then(|v| sub.finish().map(|()| v))
            .map_err(|e| CodecError(format!("{name}: {}", e.0)))
    }

    /// Read a bool; any byte other than 0/1 is a [`CodecError`].
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => err(format!("invalid bool byte {b}")),
        }
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, CodecError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Read a `u64` and narrow it to `usize`, erroring on overflow.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        let v = self.u64()?;
        usize::try_from(v).or_else(|_| err(format!("usize value {v} overflows this platform")))
    }

    /// Read a client id from its raw 32-bit form.
    pub fn client_id(&mut self) -> Result<ClientId, CodecError> {
        Ok(ClientId::from_raw(self.u32()?))
    }

    /// A `usize` used as an upcoming element count: additionally bounded by
    /// the bytes actually remaining (each element takes at least
    /// `min_elem_bytes`), so a corrupt length can never trigger a huge
    /// allocation.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.usize()?;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem_bytes) > remaining {
            return err(format!("implausible element count {n} for {remaining} remaining bytes"));
        }
        Ok(n)
    }

    /// Read a sparse id-keyed table: a count, then that many records, each
    /// led by a `u32` id and continued by whatever `record` reads. The one
    /// validator for every such table: the count is bounded by `n` and by
    /// the bytes remaining before anything is read, and each id must be
    /// `< n` and greater than the one before it. Returns the record count.
    pub fn ascending_ids(
        &mut self,
        what: &str,
        n: usize,
        mut record: impl FnMut(&mut Self, u32) -> Result<(), CodecError>,
    ) -> Result<usize, CodecError> {
        let count = self.count(4)?;
        if count > n {
            return err(format!("{count} {what} records for {n} ids"));
        }
        let mut prev = None;
        for _ in 0..count {
            let id = self.u32()?;
            if id as usize >= n {
                return err(format!("{what} id {id} outside 0..{n}"));
            }
            if prev.is_some_and(|p| p >= id) {
                return err(format!("{what} ids not strictly ascending at {id}"));
            }
            prev = Some(id);
            record(self, id)?;
        }
        Ok(count)
    }

    /// Read an `f32` from its bit pattern (NaN-exact).
    pub fn f32(&mut self) -> Result<f32, CodecError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Read an `f64` from its bit pattern (NaN-exact).
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed `f32` vector.
    pub fn vec_f32(&mut self) -> Result<Vec<f32>, CodecError> {
        let n = self.count(4)?;
        (0..n).map(|_| self.f32()).collect()
    }

    /// Read a length-prefixed `u64` vector.
    pub fn vec_u64(&mut self) -> Result<Vec<u64>, CodecError> {
        let n = self.count(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    /// Read a [`SimTime`]; non-finite or negative seconds are errors.
    pub fn sim_time(&mut self) -> Result<SimTime, CodecError> {
        let secs = self.f64()?;
        if !secs.is_finite() || secs < 0.0 {
            return err(format!("invalid sim time {secs}"));
        }
        Ok(SimTime::from_secs(secs))
    }

    /// Read a captured RNG state.
    pub fn rng_state(&mut self) -> Result<SimRngState, CodecError> {
        let seed: [u8; 32] = self.take(32)?.try_into().unwrap();
        Ok((seed, self.u64()?, self.u128()?))
    }

    /// Read one RNG state back into a resumable [`SimRng`].
    pub fn rng(&mut self) -> Result<SimRng, CodecError> {
        Ok(rng_from_state(self.rng_state()?))
    }

    /// Read a length-prefixed vector of `(f64, f64)` pairs.
    pub fn f64_pairs(&mut self) -> Result<Vec<(f64, f64)>, CodecError> {
        let n = self.count(16)?;
        (0..n).map(|_| Ok((self.f64()?, self.f64()?))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::stream_rng;
    use rand::Rng;

    #[test]
    fn scalar_roundtrip() {
        let mut w = BinWriter::new();
        w.u8(7);
        w.bool(true);
        w.bool(false);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.u128(u128::MAX - 1);
        w.usize(12345);
        w.f32(f32::NAN);
        w.f32(-0.0);
        w.f64(f64::NEG_INFINITY);
        w.sim_time(SimTime::from_secs(1.25));
        let bytes = w.into_bytes();
        let mut r = BinReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.u128().unwrap(), u128::MAX - 1);
        assert_eq!(r.usize().unwrap(), 12345);
        // NaN round-trips bit-exactly — the reason this codec exists.
        assert_eq!(r.f32().unwrap().to_bits(), f32::NAN.to_bits());
        assert_eq!(r.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.f64().unwrap(), f64::NEG_INFINITY);
        assert_eq!(r.sim_time().unwrap(), SimTime::from_secs(1.25));
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = BinWriter::new();
        w.u64(42);
        let bytes = w.into_bytes();
        let mut r = BinReader::new(&bytes[..5]);
        assert!(r.u64().unwrap_err().0.contains("truncated"));
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut w = BinWriter::new();
        w.u32(1);
        w.u8(9);
        let bytes = w.into_bytes();
        let mut r = BinReader::new(&bytes);
        r.u32().unwrap();
        assert!(r.finish().unwrap_err().0.contains("trailing"));
    }

    #[test]
    fn corrupt_length_prefix_rejected_without_allocating() {
        let mut w = BinWriter::new();
        w.vec_f32(&[1.0, 2.0]);
        let mut bytes = w.into_bytes();
        bytes[0] = 0xFF; // explode the element count
        let mut r = BinReader::new(&bytes);
        assert!(r.vec_f32().unwrap_err().0.contains("implausible"));
    }

    #[test]
    fn rng_roundtrip_continues_stream() {
        let mut rng = stream_rng(3, 14);
        for _ in 0..9 {
            let _ = rng.gen::<u64>();
        }
        let mut w = BinWriter::new();
        w.rng(&rng);
        let bytes = w.into_bytes();
        let mut restored = BinReader::new(&bytes).rng().unwrap();
        let a: Vec<u64> = (0..8).map(|_| rng.gen()).collect();
        let b: Vec<u64> = (0..8).map(|_| restored.gen()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn vecs_roundtrip() {
        let mut w = BinWriter::new();
        w.vec_f32(&[1.5, f32::INFINITY, -7.25]);
        w.vec_u64(&[3, 1, 4, 1, 5]);
        w.f64_pairs(&[(0.0, 0.5), (10.0, 0.75)]);
        let bytes = w.into_bytes();
        let mut r = BinReader::new(&bytes);
        let v = r.vec_f32().unwrap();
        assert_eq!(v.len(), 3);
        assert_eq!(v[0], 1.5);
        assert_eq!(v[1], f32::INFINITY);
        assert_eq!(r.vec_u64().unwrap(), vec![3, 1, 4, 1, 5]);
        assert_eq!(r.f64_pairs().unwrap(), vec![(0.0, 0.5), (10.0, 0.75)]);
        r.finish().unwrap();
    }

    #[test]
    fn section_with_frames_in_place_and_demands_exact_consumption() {
        let mut w = BinWriter::new();
        w.u8(1);
        w.section_with(|w| w.u32(7));
        w.section_with(|_| {});
        let bytes = w.into_bytes();
        // Same bytes as staging the body and copying it.
        let mut staged = BinWriter::new();
        staged.u8(1);
        staged.section(&7u32.to_le_bytes());
        staged.section(&[]);
        assert_eq!(bytes, staged.into_bytes());

        let mut r = BinReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.section_with("body", |r| r.u32()).unwrap(), 7);
        r.section_with("empty", |_| Ok(())).unwrap();
        r.finish().unwrap();

        // Under- and over-reading the section are both errors, named.
        let mut r = BinReader::new(&bytes[1..]);
        let e = r.section_with("body", |r| r.u8()).unwrap_err();
        assert!(e.0.starts_with("body: ") && e.0.contains("trailing"), "{}", e.0);
        let mut r = BinReader::new(&bytes[1..]);
        let e = r.section_with("body", |r| r.u64()).unwrap_err();
        assert!(e.0.starts_with("body: ") && e.0.contains("truncated"), "{}", e.0);
    }

    fn id_table(count: u64, ids: &[u32]) -> Vec<u8> {
        let mut w = BinWriter::new();
        w.u64(count);
        for &id in ids {
            w.u32(id);
            w.u8(id as u8);
        }
        w.into_bytes()
    }

    fn read_ids(bytes: &[u8], n: usize) -> Result<Vec<u32>, CodecError> {
        let mut seen = Vec::new();
        let mut r = BinReader::new(bytes);
        r.ascending_ids("row", n, |r, id| {
            assert_eq!(r.u8()?, id as u8);
            seen.push(id);
            Ok(())
        })?;
        r.finish()?;
        Ok(seen)
    }

    #[test]
    fn ascending_ids_validates_count_range_and_order() {
        assert_eq!(read_ids(&id_table(3, &[0, 4, 9]), 10).unwrap(), vec![0, 4, 9]);
        assert_eq!(read_ids(&id_table(0, &[]), 10).unwrap(), Vec::<u32>::new());
        let e = read_ids(&id_table(1, &[10]), 10).unwrap_err();
        assert!(e.0.contains("outside 0..10"), "{}", e.0);
        for unsorted in [[4, 4], [5, 4]] {
            let e = read_ids(&id_table(2, &unsorted), 10).unwrap_err();
            assert!(e.0.contains("row ids not"), "{}", e.0);
        }
        // More records than ids, and a count no payload could hold: both
        // rejected before a single record is read (or allocated for).
        let e = read_ids(&id_table(3, &[0, 1, 2]), 2).unwrap_err();
        assert!(e.0.contains("3 row records for 2 ids"), "{}", e.0);
        let e = read_ids(&id_table(u64::MAX, &[0]), 10).unwrap_err();
        assert!(e.0.contains("implausible"), "{}", e.0);
    }
}
