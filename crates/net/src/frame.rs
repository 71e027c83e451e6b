//! Length-prefixed, checksummed wire frames.
//!
//! Every byte on a SEAFL link is part of a frame:
//!
//! ```text
//! offset  size  field
//!      0     4  magic     b"SFW2" (protocol + wire-format version)
//!      4     1  kind      frame kind discriminant
//!      5     8  offset    u64 LE — sequence number (Data, Part),
//!                         cumulative ack (Ack), 0 otherwise
//!     13     4  len       u32 LE — payload length in bytes
//!     17     8  checksum  u64 LE — xxh64(payload, xxh64(kind ‖ offset
//!                         ‖ len, 0)): XXH64 over the covered header
//!                         fields, chained into XXH64 over the payload
//!     25   len  payload
//! ```
//!
//! The checksum is an integrity check recomputed on every frame each way,
//! so it is the fast one ([`seafl_sim::digest`] explains the split).
//!
//! The decoder is incremental: feed it whatever the socket produced and it
//! yields zero or more complete frames, holding torn tails until the rest
//! arrives. Corruption (bad magic, unknown kind, oversized length, checksum
//! mismatch) is a hard error — stream framing cannot be trusted past a bad
//! header, so the connection is torn down and the sequenced-link layer
//! recovers by replay on reconnect.

use seafl_sim::digest::xxh64;

/// Frame magic: "SEAFL wire, format 2". Format 1 differed only in its
/// checksum; the new magic makes an old peer fail as `BadMagic`, not as a
/// checksum mismatch.
pub(crate) const MAGIC: [u8; 4] = *b"SFW2";

/// Fixed header size in bytes (everything before the payload).
pub(crate) const HEADER_LEN: usize = 25;

/// Wire-protocol version carried in the `Hello` handshake. Bump on any
/// incompatible change to frames or messages.
pub(crate) const PROTOCOL_VERSION: u32 = 3;

/// Largest payload a decoder accepts by default (8 MiB). A length prefix
/// beyond the limit is treated as corruption, not as an allocation request.
pub(crate) const DEFAULT_MAX_PAYLOAD: usize = 8 << 20;

/// What a frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server handshake (fresh connect or resume).
    Hello,
    /// Server → client handshake accept.
    Welcome,
    /// Sequenced message bytes (`offset` is the sequence number): the
    /// final — or only — fragment of a message.
    Data,
    /// Cumulative acknowledgement (`offset` is the receiver's next
    /// expected sequence number; everything below it is delivered).
    Ack,
    /// Handshake rejection; payload is a UTF-8 reason.
    Reject,
    /// Sequenced like `Data`, but a non-final fragment: the message
    /// continues in the next offset (`crate::link::Link` splits and
    /// reassembles).
    Part,
}

impl FrameKind {
    fn as_u8(self) -> u8 {
        match self {
            FrameKind::Hello => 0,
            FrameKind::Welcome => 1,
            FrameKind::Data => 2,
            FrameKind::Ack => 3,
            FrameKind::Reject => 4,
            FrameKind::Part => 5,
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(FrameKind::Hello),
            1 => Some(FrameKind::Welcome),
            2 => Some(FrameKind::Data),
            3 => Some(FrameKind::Ack),
            4 => Some(FrameKind::Reject),
            5 => Some(FrameKind::Part),
            _ => None,
        }
    }
}

/// One wire frame (header semantics plus payload).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Frame kind.
    pub(crate) kind: FrameKind,
    /// Sequence number (Data, Part), cumulative ack (Ack), or 0.
    pub(crate) offset: u64,
    /// Message bytes.
    pub(crate) payload: Vec<u8>,
}

impl Frame {
    /// Build a frame.
    pub fn new(kind: FrameKind, offset: u64, payload: Vec<u8>) -> Self {
        Frame { kind, offset, payload }
    }

    /// Bytes this frame occupies on the wire.
    pub(crate) fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// Encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&MAGIC);
        out.push(self.kind.as_u8());
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        let sum = checksum(&out[COVERED], &self.payload);
        out.extend_from_slice(&sum.to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }
}

/// The header bytes the checksum covers: `kind ‖ offset ‖ len`.
const COVERED: std::ops::Range<usize> = 4..17;

/// XXH64 over the covered header bytes, used as the seed of XXH64 over
/// the payload.
fn checksum(covered: &[u8], payload: &[u8]) -> u64 {
    xxh64(payload, xxh64(covered, 0))
}

/// Why a byte stream stopped decoding. All variants are fatal for the
/// connection that produced them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The four magic bytes were wrong — the stream is not (or no longer)
    /// frame-aligned.
    BadMagic([u8; 4]),
    /// Unknown frame-kind discriminant.
    BadKind(u8),
    /// A frame's length prefix exceeds the decoder's payload cap, or the
    /// fragments of one message add up past [`crate::link::MAX_MESSAGE`].
    Oversized {
        /// Length the header claimed (the fragments would have reached).
        len: u32,
        /// The cap it broke.
        max: usize,
    },
    /// The stored checksum does not match the recomputed one.
    Checksum {
        /// Checksum carried in the header.
        stored: u64,
        /// Checksum recomputed over the received bytes.
        computed: u64,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::Oversized { len, max } => {
                write!(f, "payload length {len} exceeds cap {max}")
            }
            FrameError::Checksum { stored, computed } => {
                write!(
                    f,
                    "frame checksum mismatch (stored {stored:016x}, computed {computed:016x})"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Incremental frame decoder over an untrusted byte stream.
pub struct FrameDecoder {
    buf: Vec<u8>,
    max_payload: usize,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        FrameDecoder::new()
    }
}

impl FrameDecoder {
    /// Decoder with the `DEFAULT_MAX_PAYLOAD` cap.
    pub fn new() -> Self {
        FrameDecoder::with_max_payload(DEFAULT_MAX_PAYLOAD)
    }

    /// Decoder with an explicit payload cap.
    pub(crate) fn with_max_payload(max_payload: usize) -> Self {
        FrameDecoder { buf: Vec::new(), max_payload }
    }

    /// Append raw bytes from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame. `Ok(None)` means "need more bytes" —
    /// a torn frame is not an error until the connection closes under it.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        if self.buf[0..4] != MAGIC {
            let mut m = [0u8; 4];
            m.copy_from_slice(&self.buf[0..4]);
            return Err(FrameError::BadMagic(m));
        }
        let kind_byte = self.buf[4];
        let kind = FrameKind::from_u8(kind_byte).ok_or(FrameError::BadKind(kind_byte))?;
        let offset = u64::from_le_bytes(self.buf[5..13].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(self.buf[13..17].try_into().expect("4 bytes"));
        if len as usize > self.max_payload {
            return Err(FrameError::Oversized { len, max: self.max_payload });
        }
        let stored = u64::from_le_bytes(self.buf[17..25].try_into().expect("8 bytes"));
        let total = HEADER_LEN + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let payload = &self.buf[HEADER_LEN..total];
        let computed = checksum(&self.buf[COVERED], payload);
        if computed != stored {
            return Err(FrameError::Checksum { stored, computed });
        }
        let frame = Frame { kind, offset, payload: payload.to_vec() };
        self.buf.drain(..total);
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame::new(FrameKind::Data, 42, vec![1, 2, 3, 4, 5])
    }

    #[test]
    fn encode_decode_roundtrip() {
        let frames = vec![
            Frame::new(FrameKind::Hello, 0, vec![9; 17]),
            Frame::new(FrameKind::Welcome, 0, Vec::new()),
            Frame::new(FrameKind::Data, u64::MAX, vec![0; 1000]),
            Frame::new(FrameKind::Ack, 7, Vec::new()),
            Frame::new(FrameKind::Reject, 0, b"nope".to_vec()),
            Frame::new(FrameKind::Part, 8, vec![3; 64]),
        ];
        let mut dec = FrameDecoder::new();
        for f in &frames {
            dec.feed(&f.encode());
        }
        for f in &frames {
            assert_eq!(dec.next_frame().unwrap().as_ref(), Some(f));
        }
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.buf.len(), 0);
    }

    #[test]
    fn torn_frames_reassemble_byte_by_byte() {
        let bytes = sample().encode();
        let mut dec = FrameDecoder::new();
        for (i, b) in bytes.iter().enumerate() {
            dec.feed(std::slice::from_ref(b));
            let got = dec.next_frame().unwrap();
            if i + 1 < bytes.len() {
                assert_eq!(got, None, "frame completed early at byte {i}");
            } else {
                assert_eq!(got, Some(sample()));
            }
        }
    }

    #[test]
    fn truncated_frame_reports_leftover_bytes() {
        let bytes = sample().encode();
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes[..bytes.len() - 2]);
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.buf.len(), bytes.len() - 2);
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let mut bytes = sample().encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        match dec.next_frame() {
            Err(FrameError::Checksum { .. }) => {}
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_header_offset_fails_checksum() {
        let mut bytes = sample().encode();
        bytes[6] ^= 0x80; // inside the offset field
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert!(matches!(dec.next_frame(), Err(FrameError::Checksum { .. })));
    }

    #[test]
    fn every_covered_header_field_is_checksummed() {
        // kind (Data → Ack: still a valid kind), each offset byte, and the
        // low length byte (5 → 4: still a complete frame).
        for (at, bit) in [(4, 0x01), (5, 0x01), (8, 0x10), (12, 0x80), (13, 0x01)] {
            let mut bytes = sample().encode();
            bytes[at] ^= bit;
            let mut dec = FrameDecoder::new();
            dec.feed(&bytes);
            assert!(
                matches!(dec.next_frame(), Err(FrameError::Checksum { .. })),
                "flip at byte {at} went unseen"
            );
        }
    }

    #[test]
    fn checksum_is_chained_xxh64_over_header_then_payload() {
        let bytes = sample().encode();
        let stored = u64::from_le_bytes(bytes[17..25].try_into().unwrap());
        assert_eq!(stored, xxh64(&bytes[HEADER_LEN..], xxh64(&bytes[4..17], 0)));
    }

    #[test]
    fn format_1_frame_is_bad_magic() {
        let mut bytes = sample().encode();
        bytes[..4].copy_from_slice(b"SFW1");
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert_eq!(dec.next_frame(), Err(FrameError::BadMagic(*b"SFW1")));
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocating() {
        let mut bytes = sample().encode();
        bytes[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        match dec.next_frame() {
            Err(FrameError::Oversized { len, max }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, DEFAULT_MAX_PAYLOAD);
            }
            other => panic!("expected oversized error, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert!(matches!(dec.next_frame(), Err(FrameError::BadMagic(_))));
    }

    #[test]
    fn bad_kind_rejected() {
        let mut bytes = sample().encode();
        bytes[4] = 200;
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert_eq!(dec.next_frame(), Err(FrameError::BadKind(200)));
    }

    #[test]
    fn custom_payload_cap_enforced() {
        let frame = Frame::new(FrameKind::Data, 0, vec![0; 100]);
        let mut dec = FrameDecoder::with_max_payload(64);
        dec.feed(&frame.encode());
        assert!(matches!(dec.next_frame(), Err(FrameError::Oversized { len: 100, max: 64 })));
    }
}
