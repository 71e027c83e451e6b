//! Application messages carried in frame payloads.
//!
//! Handshake messages (`Hello`/`Welcome`/`Reject`) ride unsequenced
//! frames of the matching [`crate::frame::FrameKind`]; everything else is
//! pushed whole through a `crate::link::Link`, so model downloads,
//! assignments and outcome uploads all inherit the link layer's
//! exactly-once in-order delivery, its resume-after-reconnect replay and
//! its fragmentation — a message here is never split, indexed or
//! reassembled, however large, and there is no per-message-type recovery
//! logic.
//!
//! Encoding reuses the checkpoint codec ([`BinWriter`]/[`BinReader`]):
//! little-endian, length-prefixed, NaN-exact floats, so a training outcome
//! crosses the wire with the identical bit patterns the local pool would
//! have produced — through the very [`TrainOutcome::encode`] that writes
//! in-flight sessions into a checkpoint.

use seafl_core::checkpoint::{BinReader, BinWriter, CodecError};
use seafl_core::{TrainOutcome, UpdateCodec};
use seafl_sim::rng::SimRngState;

/// One application message.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Msg {
    /// Client → server: identify and (for `worker > 0`) resume.
    Hello {
        /// Wire-protocol version ([`crate::frame::PROTOCOL_VERSION`]).
        protocol: u32,
        /// The client's config state-hash; must match the server's.
        config_hash: u64,
        /// 0 for a fresh worker, else the token from a prior `Welcome`.
        worker: u64,
        /// Next sequence offset the client expects (server replays from
        /// here on resume).
        recv_next: u64,
    },
    /// Server → client: handshake accepted.
    Welcome {
        /// Worker token to present on reconnect.
        worker: u64,
        /// Next sequence offset the server expects (the client replays
        /// its unacked frames from here).
        resume_from: u64,
    },
    /// Server → client: handshake refused (version/config mismatch,
    /// unknown worker, or resume gap).
    Reject {
        /// Human-readable cause.
        reason: String,
    },
    /// Server → client: the round's global model.
    Model {
        /// Aggregation generation this model belongs to.
        generation: u64,
        /// The flat parameter vector, bit-exact.
        params: Vec<f32>,
    },
    /// Server → client: train one client shard.
    Assign {
        /// Aggregation generation of the model to train against.
        generation: u64,
        /// Simulated client whose shard and RNG stream to use.
        client_id: u64,
        /// Local epochs to run.
        epochs: u32,
        /// Keep per-epoch snapshots (SEAFL² partial training).
        keep_snapshots: bool,
        /// The client's batch-shuffle RNG state at dispatch.
        rng: SimRngState,
    },
    /// Client → server: a serialized training outcome.
    Outcome {
        /// Generation echoed from the `Assign`.
        generation: u64,
        /// Client echoed from the `Assign`.
        client_id: u64,
        /// The outcome blob ([`encode_outcome`] or, with a wire codec
        /// armed, [`encode_outcome_coded`]).
        blob: Vec<u8>,
    },
    /// Server → client: the run is over; exit cleanly.
    Done,
}

impl Msg {
    /// Encode into a frame payload.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = BinWriter::new();
        match self {
            Msg::Hello { protocol, config_hash, worker, recv_next } => {
                w.u8(0);
                w.u32(*protocol);
                w.u64(*config_hash);
                w.u64(*worker);
                w.u64(*recv_next);
            }
            Msg::Welcome { worker, resume_from } => {
                w.u8(1);
                w.u64(*worker);
                w.u64(*resume_from);
            }
            Msg::Reject { reason } => {
                w.u8(2);
                w.section(reason.as_bytes());
            }
            Msg::Model { generation, params } => write_model(&mut w, *generation, params),
            Msg::Assign { generation, client_id, epochs, keep_snapshots, rng } => {
                w.u8(4);
                w.u64(*generation);
                w.u64(*client_id);
                w.u32(*epochs);
                w.bool(*keep_snapshots);
                w.rng_state(*rng);
            }
            Msg::Outcome { generation, client_id, blob } => {
                write_outcome_header(&mut w, *generation, *client_id);
                w.section(blob);
            }
            Msg::Done => w.u8(6),
        }
        w.into_bytes()
    }

    /// Decode a frame payload; trailing bytes are an error.
    pub(crate) fn decode(payload: &[u8]) -> Result<Msg, CodecError> {
        let mut r = BinReader::new(payload);
        let msg = match r.u8()? {
            0 => Msg::Hello {
                protocol: r.u32()?,
                config_hash: r.u64()?,
                worker: r.u64()?,
                recv_next: r.u64()?,
            },
            1 => Msg::Welcome { worker: r.u64()?, resume_from: r.u64()? },
            2 => Msg::Reject { reason: String::from_utf8_lossy(r.section()?).into_owned() },
            3 => Msg::Model { generation: r.u64()?, params: r.vec_f32()? },
            4 => Msg::Assign {
                generation: r.u64()?,
                client_id: r.u64()?,
                epochs: r.u32()?,
                keep_snapshots: r.bool()?,
                rng: r.rng_state()?,
            },
            5 => Msg::Outcome {
                generation: r.u64()?,
                client_id: r.u64()?,
                blob: r.section()?.to_vec(),
            },
            6 => Msg::Done,
            t => return Err(CodecError(format!("unknown message tag {t}"))),
        };
        r.finish()?;
        Ok(msg)
    }
}

fn write_model(w: &mut BinWriter, generation: u64, params: &[f32]) {
    w.u8(3);
    w.u64(generation);
    w.vec_f32(params);
}

fn write_outcome_header(w: &mut BinWriter, generation: u64, client_id: u64) {
    w.u8(5);
    w.u64(generation);
    w.u64(client_id);
}

/// The bytes of `Msg::Model { generation, params }.encode()`, written
/// straight from the borrowed parameters (no owned copy of the model).
pub(crate) fn encode_model(generation: u64, params: &[f32]) -> Vec<u8> {
    let mut w = BinWriter::new();
    write_model(&mut w, generation, params);
    w.into_bytes()
}

/// The bytes of `Msg::Outcome { generation, client_id, blob }.encode()`,
/// where `blob` is [`encode_outcome`] or — with `codec` armed as
/// `(codec, reference)` — [`encode_outcome_coded`], written into one
/// buffer: the blob is never staged on its own.
pub(crate) fn encode_outcome_msg(
    generation: u64,
    client_id: u64,
    outcome: &TrainOutcome,
    rng: SimRngState,
    codec: Option<(&dyn UpdateCodec, &[f32])>,
) -> Vec<u8> {
    let mut w = BinWriter::new();
    write_outcome_header(&mut w, generation, client_id);
    w.section_with(|w| match codec {
        Some((codec, reference)) => write_outcome_coded(w, outcome, rng, codec, reference),
        None => write_outcome(w, outcome, rng),
    });
    w.into_bytes()
}

fn write_outcome(w: &mut BinWriter, outcome: &TrainOutcome, rng: SimRngState) {
    outcome.encode(w);
    w.rng_state(rng);
}

/// Encode a training outcome plus the advanced RNG state for the
/// upload path. Bit-exact: floats travel as IEEE-754 bit patterns.
pub fn encode_outcome(outcome: &TrainOutcome, rng: SimRngState) -> Vec<u8> {
    let mut w = BinWriter::new();
    write_outcome(&mut w, outcome, rng);
    w.into_bytes()
}

/// Inverse of [`encode_outcome`].
pub fn decode_outcome(bytes: &[u8]) -> Result<(TrainOutcome, SimRngState), CodecError> {
    let mut r = BinReader::new(bytes);
    let outcome = TrainOutcome::decode(&mut r)?;
    let rng = r.rng_state()?;
    r.finish()?;
    Ok((outcome, rng))
}

/// Encode a training outcome through an active update codec: each
/// snapshot travels as the codec's encoded blob against `reference` (the
/// generation-`g` global model both sides hold bit-identically), so the
/// compressed representation is what actually crosses the socket.
///
/// The decoder must use the same codec and the same reference
/// ([`decode_outcome_coded`]); the config-hash handshake guarantees codec
/// agreement, and the server's model ring supplies the reference for the
/// echoed generation. Because the server's decode *is* the lossy
/// projection, outcomes that cross the wire coded are never re-projected
/// at the engine seam (`CodecTransferStats::coded`).
pub fn encode_outcome_coded(
    outcome: &TrainOutcome,
    rng: SimRngState,
    codec: &dyn UpdateCodec,
    reference: &[f32],
) -> Vec<u8> {
    let mut w = BinWriter::new();
    write_outcome_coded(&mut w, outcome, rng, codec, reference);
    w.into_bytes()
}

fn write_outcome_coded(
    w: &mut BinWriter,
    outcome: &TrainOutcome,
    rng: SimRngState,
    codec: &dyn UpdateCodec,
    reference: &[f32],
) {
    w.usize(outcome.snapshots.len());
    for snap in &outcome.snapshots {
        w.section(&codec.encode(reference, snap));
    }
    w.vec_f32(&outcome.epoch_losses);
    w.rng_state(rng);
}

/// Inverse of [`encode_outcome_coded`]. Returns the decoded (projected)
/// outcome plus the raw/encoded byte tallies for this upload (raw = 4
/// bytes per decoded coordinate, encoded = blob bytes on the wire — the
/// same accounting rule the engine's codec seam uses for local slots).
pub fn decode_outcome_coded(
    bytes: &[u8],
    codec: &dyn UpdateCodec,
    reference: &[f32],
) -> Result<(TrainOutcome, SimRngState, u64, u64), CodecError> {
    let mut r = BinReader::new(bytes);
    let n = r.usize()?;
    let (mut raw, mut encoded) = (0u64, 0u64);
    let mut snapshots = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let blob = r.section()?;
        encoded += blob.len() as u64;
        let snap = codec.decode(reference, blob)?;
        raw += 4 * snap.len() as u64;
        snapshots.push(snap);
    }
    let epoch_losses = r.vec_f32()?;
    let rng = r.rng_state()?;
    r.finish()?;
    Ok((TrainOutcome { snapshots, epoch_losses }, rng, raw, encoded))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng_sample() -> SimRngState {
        ([7u8; 32], 1234, 567_890)
    }

    #[test]
    fn every_message_roundtrips() {
        let msgs = vec![
            Msg::Hello { protocol: 1, config_hash: 0xdead_beef, worker: 0, recv_next: 0 },
            Msg::Welcome { worker: 3, resume_from: 17 },
            Msg::Reject { reason: "config hash mismatch".into() },
            Msg::Model { generation: 2, params: vec![1.5, -0.0, f32::MIN_POSITIVE] },
            Msg::Assign {
                generation: 2,
                client_id: 5,
                epochs: 3,
                keep_snapshots: true,
                rng: rng_sample(),
            },
            Msg::Outcome { generation: 2, client_id: 5, blob: vec![9; 40] },
            Msg::Done,
        ];
        for m in msgs {
            assert_eq!(Msg::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = Msg::Done.encode();
        bytes.push(0);
        assert!(Msg::decode(&bytes).is_err());
    }

    #[test]
    fn truncated_message_rejected() {
        let bytes = Msg::Welcome { worker: 1, resume_from: 2 }.encode();
        assert!(Msg::decode(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn outcome_blob_roundtrips_bit_exact() {
        let outcome = TrainOutcome {
            snapshots: vec![vec![1.5, -0.0, f32::MIN_POSITIVE], vec![2.5; 4]],
            epoch_losses: vec![0.9, 0.7],
        };
        let blob = encode_outcome(&outcome, rng_sample());
        let (back, rng) = decode_outcome(&blob).unwrap();
        assert_eq!(back, outcome);
        assert_eq!(rng, rng_sample());
        // -0.0 must survive as -0.0 (bitwise, not numeric, identity).
        assert_eq!(back.snapshots[0][1].to_bits(), (-0.0f32).to_bits());
        // The wire blob is the checkpoint's session layout followed by the
        // RNG state, byte for byte.
        let mut w = BinWriter::new();
        outcome.encode(&mut w);
        w.rng_state(rng_sample());
        assert_eq!(blob, w.into_bytes());
    }

    #[test]
    fn borrowing_encoders_match_the_owned_messages() {
        let params = vec![1.5, -0.0, f32::NAN, f32::MIN_POSITIVE];
        assert_eq!(
            encode_model(9, &params),
            Msg::Model { generation: 9, params: params.clone() }.encode()
        );
        let outcome = TrainOutcome {
            snapshots: vec![vec![0.25, 9.0, -0.0, 3.0], vec![2.5; 4]],
            epoch_losses: vec![0.9, 0.7],
        };
        let owned = |blob| Msg::Outcome { generation: 9, client_id: 4, blob }.encode();
        assert_eq!(
            encode_outcome_msg(9, 4, &outcome, rng_sample(), None),
            owned(encode_outcome(&outcome, rng_sample()))
        );
        let (topk, reference) = (seafl_core::TopK::new(2), [0.25f32; 4]);
        assert_eq!(
            encode_outcome_msg(9, 4, &outcome, rng_sample(), Some((&topk, &reference))),
            owned(encode_outcome_coded(&outcome, rng_sample(), &topk, &reference))
        );
    }

    #[test]
    fn coded_outcome_roundtrips_and_counts_bytes() {
        use seafl_core::{GenDelta, TopK};
        let reference = vec![0.25f32; 6];
        let outcome = TrainOutcome {
            snapshots: vec![vec![0.25, 9.0, 0.25, -0.0, 0.25, 0.25]],
            epoch_losses: vec![0.4],
        };
        // Lossless codec: decode reproduces the outcome bit-exactly.
        let blob = encode_outcome_coded(&outcome, rng_sample(), &GenDelta, &reference);
        let (back, rng, raw, encoded) = decode_outcome_coded(&blob, &GenDelta, &reference).unwrap();
        assert_eq!(back, outcome);
        assert_eq!(rng, rng_sample());
        assert_eq!(raw, 4 * 6);
        assert!(encoded > 0 && (encoded as usize) < blob.len());
        // Lossy codec: decode equals the codec's own projection.
        let topk = TopK::new(1);
        let blob = encode_outcome_coded(&outcome, rng_sample(), &topk, &reference);
        let (back, _, _, _) = decode_outcome_coded(&blob, &topk, &reference).unwrap();
        assert_eq!(back.snapshots[0], topk.project(&reference, &outcome.snapshots[0]));
        // Wrong-length reference on decode is an error for GenDelta's
        // packed mode, not a silent wrong answer.
        let blob = encode_outcome_coded(&outcome, rng_sample(), &GenDelta, &reference);
        assert!(decode_outcome_coded(&blob, &GenDelta, &reference[..3]).is_err());
    }

    /// SplitMix64: a dependency-free seeded stream for the mutation test.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    #[test]
    fn mutated_bytes_never_panic_a_decoder() {
        use seafl_core::{build_codec, CodecConfig, GenDelta, QuantInt8, TopK};
        let reference = vec![0.25f32, -1.0, 3.5, 0.0, 7.25, -0.5];
        let outcome = TrainOutcome {
            snapshots: vec![vec![0.5, -1.0, 9.0, -0.0, 7.25, f32::NAN], reference.clone()],
            epoch_losses: vec![0.9, 0.4],
        };
        let identity = build_codec(&CodecConfig::default());
        let codecs: [&dyn UpdateCodec; 4] = [&*identity, &GenDelta, &TopK::new(2), &QuantInt8];

        // Valid encodings: every message, the plain and coded outcome blobs,
        // and both borrowing encoders.
        let mut seeds: Vec<Vec<u8>> = [
            Msg::Hello { protocol: 1, config_hash: 0xdead_beef, worker: 2, recv_next: 9 },
            Msg::Welcome { worker: 3, resume_from: 17 },
            Msg::Reject { reason: "config hash mismatch".into() },
            Msg::Model { generation: 2, params: reference.clone() },
            Msg::Assign {
                generation: 2,
                client_id: 5,
                epochs: 3,
                keep_snapshots: true,
                rng: rng_sample(),
            },
            Msg::Outcome { generation: 2, client_id: 5, blob: vec![9; 40] },
            Msg::Done,
        ]
        .iter()
        .map(Msg::encode)
        .collect();
        seeds.push(encode_outcome(&outcome, rng_sample()));
        seeds.push(encode_model(4, &reference));
        seeds.push(encode_outcome_msg(4, 1, &outcome, rng_sample(), None));
        for &codec in &codecs[1..] {
            seeds.push(encode_outcome_coded(&outcome, rng_sample(), codec, &reference));
            seeds.push(encode_outcome_msg(4, 1, &outcome, rng_sample(), Some((codec, &reference))));
        }

        let mut rng = Mix(0x5eaf1);
        for case in 0..20_000 {
            let mut bytes = seeds[rng.below(seeds.len())].clone();
            match rng.below(4) {
                0 if !bytes.is_empty() => {
                    let i = rng.below(bytes.len());
                    bytes[i] ^= 1 << rng.below(8);
                }
                1 => bytes.truncate(rng.below(bytes.len() + 1)),
                2 if bytes.len() >= 8 => {
                    let len = match rng.below(5) {
                        0 => u64::MAX,
                        1 => u64::from(u32::MAX),
                        2 => 1 << 40,
                        3 => 0,
                        _ => rng.next(),
                    };
                    let at = rng.below(bytes.len() - 7);
                    bytes[at..at + 8].copy_from_slice(&len.to_le_bytes());
                }
                _ => {
                    let other = &seeds[rng.below(seeds.len())];
                    bytes.truncate(rng.below(bytes.len() + 1));
                    bytes.extend_from_slice(&other[rng.below(other.len() + 1)..]);
                }
            }
            let decoded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = Msg::decode(&bytes);
                let _ = decode_outcome(&bytes);
                for &codec in &codecs {
                    let _ = decode_outcome_coded(&bytes, codec, &reference);
                }
            }));
            assert!(decoded.is_ok(), "case {case}: a decoder panicked on {bytes:02x?}");
        }
    }
}
