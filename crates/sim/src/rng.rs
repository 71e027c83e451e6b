//! Deterministic RNG stream derivation.
//!
//! Every stochastic component of an experiment gets its own [`SimRng`]
//! derived from `(master_seed, stream_id)`, so changing how often one
//! component draws (e.g. adding an extra evaluation) never perturbs any
//! other component — the classic counter-based reproducibility discipline.

use crate::bin::{BinReader, BinWriter, CodecError};
use rand::SeedableRng;

/// The simulator's concrete RNG.
///
/// This is the exact generator inside `rand::rngs::StdRng` (rand 0.8 wraps
/// `ChaCha12Rng`), named explicitly so its internal position is *inspectable*:
/// checkpointing needs `get_seed`/`get_stream`/`get_word_pos` to persist a
/// stream mid-flight and resume it bit-exactly, which the opaque `StdRng`
/// wrapper does not expose. Both types share `SeedableRng::seed_from_u64`'s
/// default seed expansion, so every historical stream is unchanged — pinned
/// by the unit test `simrng_is_bit_identical_to_stdrng`.
pub type SimRng = rand_chacha::ChaCha12Rng;

/// Fully describes a [`SimRng`]'s position: `(seed, stream, word_pos)`.
///
/// `SimRng::from_seed(seed)` + `set_stream` + `set_word_pos` reconstructs the
/// generator exactly (ChaCha's state is a pure function of these three).
pub type SimRngState = ([u8; 32], u64, u128);

/// Capture an RNG's full state for checkpointing.
pub fn rng_state(rng: &SimRng) -> SimRngState {
    (rng.get_seed(), rng.get_stream(), rng.get_word_pos())
}

/// Rebuild an RNG from a captured state; the restored generator continues
/// the stream bit-for-bit from where [`rng_state`] observed it.
pub fn rng_from_state(state: SimRngState) -> SimRng {
    let (seed, stream, word_pos) = state;
    let mut rng = SimRng::from_seed(seed);
    rng.set_stream(stream);
    rng.set_word_pos(word_pos);
    rng
}

/// Words in one ChaCha block.
const BLOCK_WORDS: usize = 16;
/// Blocks one batch computes side by side: one 256-bit AVX2 register holds
/// the same state word of all of them.
const LANES: usize = 8;
/// Words one batch yields.
const BATCH_WORDS: usize = BLOCK_WORDS * LANES;

/// Feed `rng`'s keystream to `take`, eight ChaCha12 blocks at a time,
/// starting at the generator's next unread word.
///
/// `take` returns how many words of the slice it used; reading stops at the
/// first slice it does not use up, and `rng` is left just past the last used
/// word. So the words `take` sees and the generator's position afterwards are
/// exactly those of the same number of `next_u32` calls. The blocks are
/// computed here from `(get_seed, get_stream, get_word_pos)` — the layout
/// `rand_chacha` documents: a 256-bit key, a 64-bit block counter in state
/// words 12–13, the stream id in words 14–15 — with AVX2 when the CPU has
/// it (chosen at run time) and a portable copy of the same code otherwise.
/// A `take` that finished on a slice's last word is offered one more slice,
/// which it leaves unused: eight blocks computed for nothing, about 0.3 µs
/// with AVX2.
pub fn read_keystream(rng: &mut SimRng, take: impl FnMut(&[u32]) -> usize) {
    read_keystream_with(Kernel::detect(), rng, take);
}

fn read_keystream_with(kernel: Kernel, rng: &mut SimRng, mut take: impl FnMut(&[u32]) -> usize) {
    let mut key = [0u32; 8];
    for (k, bytes) in key.iter_mut().zip(rng.get_seed().chunks_exact(4)) {
        *k = u32::from_le_bytes(bytes.try_into().expect("chunks_exact(4) yields 4 bytes"));
    }
    let stream = rng.get_stream();
    let start = rng.get_word_pos();
    let mut block = (start / BLOCK_WORDS as u128) as u64;
    let mut skip = (start % BLOCK_WORDS as u128) as usize;
    let mut used_total = 0u128;
    let mut buf = [0u32; BATCH_WORDS];
    loop {
        kernel.blocks(&key, block, stream, &mut buf);
        let words = &buf[skip..];
        let used = take(words);
        assert!(used <= words.len(), "read_keystream: used {used} of {} words", words.len());
        used_total += used as u128;
        if used < words.len() {
            break;
        }
        block = block.wrapping_add(LANES as u64);
        skip = 0;
    }
    rng.set_word_pos(start + used_total);
}

/// Which compiled copy of [`chacha12_x8`] runs.
#[derive(Clone, Copy, Debug)]
enum Kernel {
    Portable,
    /// Made only where `is_x86_feature_detected!("avx2")` holds.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Kernel {
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Kernel::Avx2;
        }
        Kernel::Portable
    }

    fn blocks(self, key: &[u32; 8], counter: u64, stream: u64, out: &mut [u32; BATCH_WORDS]) {
        match self {
            Kernel::Portable => chacha12_x8(key, counter, stream, out),
            // SAFETY: `Kernel::Avx2` exists only where the CPU was detected
            // to have AVX2 (see the variant's doc).
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => unsafe { chacha12_x8_avx2(key, counter, stream, out) },
        }
    }
}

/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn chacha12_x8_avx2(
    key: &[u32; 8],
    counter: u64,
    stream: u64,
    out: &mut [u32; BATCH_WORDS],
) {
    chacha12_x8(key, counter, stream, out);
}

/// ChaCha12 blocks `counter .. counter + 8` (the counter wraps at 2^64, its
/// high half carried into state word 13), written to `out` in stream order.
///
/// The lane layout keeps state word `w` of all eight blocks in one
/// `[u32; 8]`, so every operation is one 8-wide vector operation once
/// compiled for AVX2; the portable copy gets SSE2's two 4-wide halves.
#[inline(always)]
fn chacha12_x8(key: &[u32; 8], counter: u64, stream: u64, out: &mut [u32; BATCH_WORDS]) {
    type Lanes = [u32; LANES];
    #[inline(always)]
    fn add(a: Lanes, b: Lanes) -> Lanes {
        std::array::from_fn(|l| a[l].wrapping_add(b[l]))
    }
    #[inline(always)]
    fn xor_rotl(a: Lanes, b: Lanes, r: u32) -> Lanes {
        std::array::from_fn(|l| (a[l] ^ b[l]).rotate_left(r))
    }
    #[inline(always)]
    fn quarter(x: &mut [Lanes; 16], a: usize, b: usize, c: usize, d: usize) {
        x[a] = add(x[a], x[b]);
        x[d] = xor_rotl(x[d], x[a], 16);
        x[c] = add(x[c], x[d]);
        x[b] = xor_rotl(x[b], x[c], 12);
        x[a] = add(x[a], x[b]);
        x[d] = xor_rotl(x[d], x[a], 8);
        x[c] = add(x[c], x[d]);
        x[b] = xor_rotl(x[b], x[c], 7);
    }
    let counters: [u64; LANES] = std::array::from_fn(|l| counter.wrapping_add(l as u64));
    let constants = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];
    let input: [Lanes; 16] = std::array::from_fn(|w| match w {
        0..=3 => [constants[w]; LANES],
        4..=11 => [key[w - 4]; LANES],
        12 => counters.map(|c| c as u32),
        13 => counters.map(|c| (c >> 32) as u32),
        14 => [stream as u32; LANES],
        _ => [(stream >> 32) as u32; LANES],
    });
    let mut x = input;
    for _ in 0..6 {
        quarter(&mut x, 0, 4, 8, 12);
        quarter(&mut x, 1, 5, 9, 13);
        quarter(&mut x, 2, 6, 10, 14);
        quarter(&mut x, 3, 7, 11, 15);
        quarter(&mut x, 0, 5, 10, 15);
        quarter(&mut x, 1, 6, 11, 12);
        quarter(&mut x, 2, 7, 8, 13);
        quarter(&mut x, 3, 4, 9, 14);
    }
    for (w, (xw, iw)) in x.iter().zip(input.iter()).enumerate() {
        let sum = add(*xw, *iw);
        for (l, &v) in sum.iter().enumerate() {
            out[l * BLOCK_WORDS + w] = v;
        }
    }
}

/// SplitMix64 finalizer — a high-quality 64-bit mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Derive an independent RNG for `(master_seed, stream_id)`.
pub fn stream_rng(master_seed: u64, stream_id: u64) -> SimRng {
    let mixed = splitmix64(master_seed ^ splitmix64(stream_id));
    SimRng::seed_from_u64(mixed)
}

/// Counter-based uniform draw in `[0, 1)`: a pure function of
/// `(master_seed, stream_id, counter)`. Used where the *number* of draws a
/// component makes depends on runtime behaviour (e.g. per-attempt fault
/// decisions) — a stateful RNG there would entangle otherwise independent
/// components, while a counter keeps every draw addressable and
/// replay-stable.
pub(crate) fn unit_from_counter(master_seed: u64, stream_id: u64, counter: u64) -> f64 {
    let mixed = splitmix64(master_seed ^ splitmix64(stream_id) ^ splitmix64(!counter));
    // 53 high bits → uniform double in [0, 1).
    (mixed >> 11) as f64 / (1u64 << 53) as f64
}

/// A dense family of per-client RNG streams (`base + k` for `k < len`),
/// materialized on first touch.
///
/// [`stream_rng`] is a pure function of `(master_seed, stream_id)`, so a
/// client's stream needs no storage until someone draws from it (or writes a
/// trained-ahead state back). The table keeps only the touched streams in a
/// sorted map — at million-client scale that is the active cohort, not the
/// fleet — and [`encode`](LazyStreams::encode) writes only those instead
/// of serializing N states. An untouched client's stream is always
/// exactly `stream_rng(master_seed, base + k)`, bit-identical to the eager
/// `Vec<SimRng>` table this replaces.
#[derive(Clone, Debug)]
pub struct LazyStreams {
    master_seed: u64,
    base: u64,
    len: usize,
    touched: std::collections::BTreeMap<u32, SimRng>,
}

impl LazyStreams {
    /// A table of `len` streams `base + 0 .. base + len`, all untouched.
    pub fn new(master_seed: u64, base: u64, len: usize) -> Self {
        assert!(len <= u32::MAX as usize, "stream table of {len} exceeds the u32 id space");
        LazyStreams { master_seed, base, len, touched: std::collections::BTreeMap::new() }
    }

    /// Mutable access to client `k`'s stream, materializing it on first
    /// touch.
    pub fn get_mut(&mut self, k: usize) -> &mut SimRng {
        assert!(k < self.len, "stream index {k} out of {}", self.len);
        let (seed, base) = (self.master_seed, self.base);
        self.touched.entry(k as u32).or_insert_with(|| stream_rng(seed, base + k as u64))
    }

    /// A clone of client `k`'s current stream state *without* materializing
    /// it (what the trainer hands to a cloned/remote job).
    pub fn peek(&self, k: usize) -> SimRng {
        assert!(k < self.len, "stream index {k} out of {}", self.len);
        match self.touched.get(&(k as u32)) {
            Some(rng) => rng.clone(),
            None => stream_rng(self.master_seed, self.base + k as u64),
        }
    }

    /// Store an advanced stream state back for client `k` (after a cloned
    /// job consumed draws).
    pub fn set(&mut self, k: usize, rng: SimRng) {
        assert!(k < self.len, "stream index {k} out of {}", self.len);
        self.touched.insert(k as u32, rng);
    }

    /// Encode only the touched streams, ascending by client — an
    /// untouched stream is a pure function of the master seed and costs
    /// nothing on disk.
    pub fn encode(&self, w: &mut BinWriter) {
        w.usize(self.touched.len());
        for (&k, rng) in &self.touched {
            w.u32(k);
            w.rng(rng);
        }
    }

    /// Rebuild a family of `len` streams from [`LazyStreams::encode`]
    /// output; every recorded id must be in range.
    pub fn decode(
        r: &mut BinReader<'_>,
        master_seed: u64,
        base: u64,
        len: usize,
    ) -> Result<Self, CodecError> {
        let mut t = LazyStreams::new(master_seed, base, len);
        r.ascending_ids("RNG stream", len, |r, k| {
            t.touched.insert(k, r.rng()?);
            Ok(())
        })?;
        Ok(t)
    }
}

/// Well-known stream ids, so call sites stay readable and collision-free.
pub mod streams {
    /// Dataset synthesis.
    pub const DATA: u64 = 1;
    /// Dirichlet (or other) partitioning.
    pub const PARTITION: u64 = 2;
    /// Fleet speed/idle assignment.
    pub(crate) const FLEET: u64 = 3;
    /// Model weight initialization.
    pub const INIT: u64 = 4;
    /// Server-side client selection.
    pub const SELECTION: u64 = 5;
    /// Fault-plan sampling (crash times, straggler spikes, corruption).
    pub(crate) const FAULTS: u64 = 6;
    /// Adversarial attack-plan sampling (attacker set + kind assignment).
    /// Its own stream, so arming attacks never moves a fault draw.
    pub(crate) const ATTACKS: u64 = 7;
    /// Shared collusion-target generation (drawn lazily once the model
    /// dimension is known; see `AttackPlan::collusion_target`).
    pub(crate) const ATTACK_TARGET: u64 = 8;
    /// Base id for per-client local-training streams; client `k` uses
    /// `CLIENT_BASE + k`.
    pub const CLIENT_BASE: u64 = 1000;
    /// Base id for per-device idle-period draws.
    pub const IDLE_BASE: u64 = 1_000_000;
    /// Base id for per-device counter-based upload-attempt fault draws.
    pub(crate) const FAULT_ATTEMPT_BASE: u64 = 2_000_000;
    /// Base id for per-link counter-based wire-loss draws (the
    /// `LossyTransport` in `seafl-net`); link `l` decides the fate of its
    /// `n`-th sent frame from `(master_seed, NET_LOSS_BASE + l, n)`.
    pub(crate) const NET_LOSS_BASE: u64 = 3_000_000;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, RngCore};

    /// Every compiled copy of the batch keystream this CPU can run.
    fn kernels() -> Vec<Kernel> {
        let mut k = vec![Kernel::Portable];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            k.push(Kernel::Avx2);
        }
        k
    }

    #[test]
    fn batch_keystream_matches_next_u32() {
        // (stream id, start word): word 0, mid-block offsets, a non-zero
        // stream, and a batch that crosses the 2^32 block-counter carry.
        let starts: [(u64, u128); 6] = [
            (0, 0),
            (0, 5),
            (0, 15),
            (0, 17),
            (0xDEAD_BEEF_0000_0001, 5),
            (0, 16 * ((1u128 << 32) - 2) + 3),
        ];
        for kernel in kernels() {
            for &(stream, start) in &starts {
                for n in [0usize, 1, 113, 128, 1000] {
                    let mut base = stream_rng(42, 9);
                    base.set_stream(stream);
                    base.set_word_pos(start);
                    let mut oracle = base.clone();
                    let want: Vec<u32> = (0..n).map(|_| oracle.next_u32()).collect();
                    let mut batched = base;
                    let mut got = Vec::new();
                    read_keystream_with(kernel, &mut batched, |words| {
                        let k = words.len().min(n - got.len());
                        got.extend_from_slice(&words[..k]);
                        k
                    });
                    let at = format!("{kernel:?}, stream {stream:#x}, start {start}, {n} words");
                    assert_eq!(got, want, "{at}");
                    assert_eq!(batched.get_word_pos(), oracle.get_word_pos(), "{at}");
                    assert_eq!(batched.next_u32(), oracle.next_u32(), "{at}: next word");
                }
            }
        }
    }

    #[test]
    fn same_inputs_same_stream() {
        let mut a = stream_rng(42, 7);
        let mut b = stream_rng(42, 7);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn different_streams_differ() {
        let mut a = stream_rng(42, 1);
        let mut b = stream_rng(42, 2);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = stream_rng(1, 7);
        let mut b = stream_rng(2, 7);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn unit_from_counter_is_uniform_and_stable() {
        let a = unit_from_counter(42, 7, 0);
        let b = unit_from_counter(42, 7, 0);
        assert_eq!(a, b);
        assert_ne!(a, unit_from_counter(42, 7, 1));
        assert_ne!(a, unit_from_counter(42, 8, 0));
        assert_ne!(a, unit_from_counter(43, 7, 0));
        // Mean of many consecutive draws is near 1/2.
        let mean: f64 = (0..4000).map(|i| unit_from_counter(1, 2, i)).sum::<f64>() / 4000.0;
        assert!((0.47..0.53).contains(&mean), "mean {mean} far from 0.5");
        assert!((0..4000).all(|i| (0.0..1.0).contains(&unit_from_counter(1, 2, i))));
    }

    #[test]
    fn simrng_is_bit_identical_to_stdrng() {
        // The alias swap must not move a single historical stream: StdRng in
        // rand 0.8 is ChaCha12Rng under the hood and neither type overrides
        // the default seed_from_u64 expansion.
        for seed in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF] {
            let mut a = rand::rngs::StdRng::seed_from_u64(seed);
            let mut b = SimRng::seed_from_u64(seed);
            for _ in 0..16 {
                assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "u64 stream diverged at seed {seed}");
            }
            assert_eq!(a.gen::<f64>(), b.gen::<f64>());
            assert_eq!(a.gen::<f32>(), b.gen::<f32>());
        }
    }

    #[test]
    fn rng_state_roundtrip_continues_stream() {
        let mut r = stream_rng(7, 9);
        for _ in 0..5 {
            let _ = r.gen::<u64>();
        }
        // Capture mid-stream (including a partially consumed word position).
        let _ = r.gen::<u32>();
        let state = rng_state(&r);
        let tail: Vec<u64> = (0..16).map(|_| r.gen()).collect();
        let mut restored = rng_from_state(state);
        let tail2: Vec<u64> = (0..16).map(|_| restored.gen()).collect();
        assert_eq!(tail, tail2, "restored RNG diverged from original");
    }

    #[test]
    fn lazy_streams_match_eager_derivation() {
        let mut lazy = LazyStreams::new(42, streams::CLIENT_BASE, 16);
        assert_eq!(lazy.touched.len(), 0);
        // First touch must be bit-identical to the eager table entry.
        let mut eager = stream_rng(42, streams::CLIENT_BASE + 7);
        assert_eq!(lazy.get_mut(7).gen::<u64>(), eager.gen::<u64>());
        assert_eq!(lazy.touched.len(), 1);
        // Subsequent touches continue the same stream.
        assert_eq!(lazy.get_mut(7).gen::<u64>(), eager.gen::<u64>());
        assert_eq!(lazy.touched.len(), 1);
        // Peek of an untouched stream is fresh and does not materialize.
        let mut peeked = lazy.peek(3);
        assert_eq!(peeked.gen::<u64>(), stream_rng(42, streams::CLIENT_BASE + 3).gen::<u64>());
        assert_eq!(lazy.touched.len(), 1);
        // Set stores an advanced state back.
        lazy.set(3, peeked);
        assert_eq!(lazy.touched.len(), 2);
        let mut expect = stream_rng(42, streams::CLIENT_BASE + 3);
        let _ = expect.gen::<u64>();
        assert_eq!(lazy.get_mut(3).gen::<u64>(), expect.gen::<u64>());
        // The sparse record round-trips: two streams (3 and 7), not 16.
        let mut w = BinWriter::new();
        lazy.encode(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 8 + 2 * (4 + 32 + 8 + 16));
        let mut r = BinReader::new(&bytes);
        let mut restored = LazyStreams::decode(&mut r, 42, streams::CLIENT_BASE, 16).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.touched.len(), 2);
        assert_eq!(restored.get_mut(7).gen::<u64>(), lazy.get_mut(7).gen::<u64>());
        // Untouched entries in the restored table are fresh streams.
        assert_eq!(
            restored.peek(0).gen::<u64>(),
            stream_rng(42, streams::CLIENT_BASE).gen::<u64>()
        );
    }

    #[test]
    fn corrupt_stream_count_is_an_error_not_an_allocation() {
        // A valid one-stream record whose count is blown up to u64::MAX:
        // the decoder must refuse before reserving room for the entries.
        let mut lazy = LazyStreams::new(7, streams::IDLE_BASE, 8);
        lazy.get_mut(2);
        let mut w = BinWriter::new();
        lazy.encode(&mut w);
        let mut bytes = w.into_bytes();
        bytes[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        let e = LazyStreams::decode(&mut BinReader::new(&bytes), 7, streams::IDLE_BASE, 8);
        assert!(e.unwrap_err().0.contains("implausible"));
        // In range for the bytes but not for the fleet.
        bytes[..8].copy_from_slice(&9u64.to_le_bytes());
        let e = LazyStreams::decode(&mut BinReader::new(&bytes), 7, streams::IDLE_BASE, 8);
        assert!(e.is_err());
    }

    #[test]
    #[should_panic(expected = "out of 4")]
    fn lazy_streams_reject_out_of_range() {
        LazyStreams::new(0, 0, 4).get_mut(4);
    }

    #[test]
    fn splitmix_avalanche() {
        // Flipping one input bit flips roughly half the output bits.
        let a = splitmix64(0x1234_5678);
        let b = splitmix64(0x1234_5679);
        let flipped = (a ^ b).count_ones();
        assert!((16..=48).contains(&flipped), "only {flipped} bits flipped");
    }
}
