//! ChaCha with 12 rounds, laid out as `rand_chacha` 0.3 lays it out: a
//! 256-bit key, a 64-bit block counter in state words 12–13, a 64-bit
//! stream id in words 14–15, output consumed as little-endian 32-bit
//! words. The position of the generator is `(seed, stream, word_pos)` and
//! nothing else, which is what checkpoints and the lazy fleet rely on.

use crate::{RngCore, SeedableRng};

const BLOCK_WORDS: usize = 16;
const ROUNDS: usize = 12;

/// One ChaCha block: `rounds / 2` double rounds over the input state, then
/// the feed-forward addition.
pub(crate) fn chacha_block(
    key: &[u32; 8],
    counter: u64,
    stream: u64,
    rounds: usize,
) -> [u32; BLOCK_WORDS] {
    let input: [u32; 16] = [
        0x6170_7865,
        0x3320_646e,
        0x7962_2d32,
        0x6b20_6574,
        key[0],
        key[1],
        key[2],
        key[3],
        key[4],
        key[5],
        key[6],
        key[7],
        counter as u32,
        (counter >> 32) as u32,
        stream as u32,
        (stream >> 32) as u32,
    ];
    #[inline(always)]
    fn quarter(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        x[a] = x[a].wrapping_add(x[b]);
        x[d] = (x[d] ^ x[a]).rotate_left(16);
        x[c] = x[c].wrapping_add(x[d]);
        x[b] = (x[b] ^ x[c]).rotate_left(12);
        x[a] = x[a].wrapping_add(x[b]);
        x[d] = (x[d] ^ x[a]).rotate_left(8);
        x[c] = x[c].wrapping_add(x[d]);
        x[b] = (x[b] ^ x[c]).rotate_left(7);
    }
    let mut x = input;
    for _ in 0..rounds / 2 {
        quarter(&mut x, 0, 4, 8, 12);
        quarter(&mut x, 1, 5, 9, 13);
        quarter(&mut x, 2, 6, 10, 14);
        quarter(&mut x, 3, 7, 11, 15);
        quarter(&mut x, 0, 5, 10, 15);
        quarter(&mut x, 1, 6, 11, 12);
        quarter(&mut x, 2, 7, 8, 13);
        quarter(&mut x, 3, 4, 9, 14);
    }
    for (o, i) in x.iter_mut().zip(input.iter()) {
        *o = o.wrapping_add(*i);
    }
    x
}

/// The generator behind `StdRng` and `rand_chacha::ChaCha12Rng`.
#[derive(Clone, Debug)]
pub struct ChaCha12Rng {
    seed: [u8; 32],
    key: [u32; 8],
    stream: u64,
    /// Counter of the block held in `buf`.
    block: u64,
    /// Next unread word of `buf`; `BLOCK_WORDS` means the block is spent
    /// (or, before the first draw, not generated yet).
    index: usize,
    buf: [u32; BLOCK_WORDS],
}

impl ChaCha12Rng {
    fn refill(&mut self) {
        self.buf = chacha_block(&self.key, self.block, self.stream, ROUNDS);
        self.index = 0;
    }

    /// Make `buf[index]` the next word of the stream.
    #[inline]
    fn ensure_word(&mut self) {
        if self.index >= BLOCK_WORDS {
            self.block = self.block.wrapping_add(1);
            self.refill();
        }
    }

    pub fn get_seed(&self) -> [u8; 32] {
        self.seed
    }

    pub fn get_stream(&self) -> u64 {
        self.stream
    }

    /// Words consumed so far, modulo 2^68 like `rand_chacha`.
    pub fn get_word_pos(&self) -> u128 {
        let (block, word) = if self.index >= BLOCK_WORDS {
            (self.block.wrapping_add(1), 0)
        } else {
            (self.block, self.index)
        };
        u128::from(block) * BLOCK_WORDS as u128 + word as u128
    }

    pub fn set_word_pos(&mut self, word_offset: u128) {
        self.block = (word_offset / BLOCK_WORDS as u128) as u64;
        self.refill();
        self.index = (word_offset % BLOCK_WORDS as u128) as usize;
    }

    /// Switch streams, keeping the word position.
    pub fn set_stream(&mut self, stream: u64) {
        let pos = self.get_word_pos();
        self.stream = stream;
        self.set_word_pos(pos);
    }
}

impl PartialEq for ChaCha12Rng {
    fn eq(&self, other: &Self) -> bool {
        self.seed == other.seed
            && self.stream == other.stream
            && self.get_word_pos() == other.get_word_pos()
    }
}
impl Eq for ChaCha12Rng {}

impl SeedableRng for ChaCha12Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (k, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        // `block` is one before the first block so the first draw's
        // increment lands on counter 0 and `get_word_pos` reads 0.
        ChaCha12Rng {
            seed,
            key,
            stream: 0,
            block: u64::MAX,
            index: BLOCK_WORDS,
            buf: [0; BLOCK_WORDS],
        }
    }
}

impl RngCore for ChaCha12Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.ensure_word();
        let v = self.buf[self.index];
        self.index += 1;
        v
    }

    /// Two consecutive words, low word first (what `BlockRng::next_u64`
    /// yields at every buffer position).
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        (hi << 32) | lo
    }

    /// Whole words per call, little-endian; a trailing partial word is
    /// consumed entirely, as `BlockRng::fill_bytes` does.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(4) {
            let w = self.next_u32().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
    }
}

/// Known-answer self-check used by the benchmark's `--check`: the 20-round
/// block function against the ChaCha20 zero-key keystream, and the position
/// arithmetic of the 12-round generator. Returns a description of the first
/// failure.
pub fn self_check() -> Result<(), String> {
    let zero = [0u32; 8];
    let block20 = chacha_block(&zero, 0, 0, 20);
    let want20 = [0xade0_b876u32, 0x903d_f1a0, 0xe56a_5d40, 0x28bd_8653];
    if block20[..4] != want20 {
        return Err(format!("ChaCha20 zero-key block starts {:08x?}", &block20[..4]));
    }
    // Second block of the same keystream (counter = 1).
    let block20b = chacha_block(&zero, 1, 0, 20);
    if block20b[0] != 0xbee7_079f {
        return Err(format!("ChaCha20 zero-key block 1 starts {:08x}", block20b[0]));
    }
    let mut rng = ChaCha12Rng::from_seed([0; 32]);
    if rng.get_word_pos() != 0 {
        return Err("fresh generator is not at word 0".into());
    }
    let first = rng.next_u32();
    if first != chacha_block(&zero, 0, 0, ROUNDS)[0] {
        return Err("first word is not word 0 of block 0".into());
    }
    if rng.get_word_pos() != 1 {
        return Err("one draw did not advance the position by one word".into());
    }
    Ok(())
}
