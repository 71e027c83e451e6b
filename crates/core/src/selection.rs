//! Client selection.

use crate::config::SelectionPolicy;
use seafl_sim::rng::read_keystream;
use seafl_sim::{Fleet, SimRng};

/// Pick up to `n` distinct clients from `candidates`, uniformly: the first
/// `n` slots of a Fisher–Yates shuffle of `candidates` (rand 0.8's
/// `shuffle`: from the back, slot `i` swapped with `gen_range(0..i + 1)`).
/// The picks, their order and the words `rng` consumes are exactly those of
/// the engine's historical shuffle-and-truncate, so runs are
/// bit-reproducible across versions; the tests keep that shuffle as the
/// oracle. No slot is swapped: the words come from [`read_keystream`], and
/// the recorded swaps are traced back for the kept slots only (DESIGN §13,
/// "Uniform selection"). The work is linear in the pool for every `n`.
///
/// `policy` and `fleet` are unused; the benchmark harness passes both until
/// it joins the workspace (ROADMAP item 12).
pub fn select_clients(
    _policy: SelectionPolicy,
    candidates: &[usize],
    _fleet: &Fleet,
    n: usize,
    rng: &mut SimRng,
) -> Vec<usize> {
    let len = candidates.len();
    let kept = n.min(len);
    // js[i] is the slot step i swapped with slot i; from step `kept` on, an
    // entry also holds the kept slot traced into slot i (below).
    let mut js = draw_swaps(len, rng);
    // Undo the steps inside the kept prefix: the traced slots are all of
    // `0..kept`, so a dense table of which kept slot sits where.
    let mut head: Vec<u32> = (0..kept as u32).collect();
    for (i, &j) in js.iter().enumerate().take(kept).skip(1) {
        head.swap(i, j as usize);
    }
    // Undo the rest. Before step i every traced slot sits below i, so step
    // i can only move the one at js[i] up to i.
    let mut traced = vec![0u64; len.div_ceil(64)];
    for q in 0..kept {
        traced[q / 64] |= 1 << (q % 64);
    }
    let label = |js: &[u32], head: &[u32], q: usize| if q < kept { head[q] } else { js[q] };
    for i in kept.max(1)..len {
        let j = js[i] as usize;
        if traced[j / 64] & (1 << (j % 64)) != 0 {
            js[i] = label(&js, &head, j);
            traced[j / 64] &= !(1 << (j % 64));
            traced[i / 64] |= 1 << (i % 64);
        }
    }
    let mut picked = vec![0; kept];
    for (w, &bits) in traced.iter().enumerate() {
        let mut bits = bits;
        while bits != 0 {
            let q = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            picked[label(&js, &head, q) as usize] = candidates[q];
        }
    }
    picked
}

/// The `j` of every step of a Fisher–Yates shuffle over `len` slots: entry
/// `i` (for `i` from `len - 1` down to 1) is `gen_range(0..i + 1)` drawn
/// from one `u32` word with rand 0.8's rejection rule; entry 0 is unused.
/// `rng` ends just past the word the last step accepted.
fn draw_swaps(len: usize, rng: &mut SimRng) -> Vec<u32> {
    assert!(len <= u32::MAX as usize, "select_clients: {len} candidates exceed a u32 draw");
    let mut js = vec![0u32; len];
    // The next step's range `i + 1`; 1 once step 1 has its `j`.
    let mut range = len as u32;
    read_keystream(rng, |words| {
        let js = &mut js[..];
        let mut r = range;
        let mut used = 0;
        while used < words.len() && r > 1 {
            // Ranges down to `low` share `r.leading_zeros()`, so the shift
            // of the rejection zone stays off the per-word chain.
            let shift = r.leading_zeros();
            let low = ((1u32 << 31) >> shift).max(2);
            while used < words.len() && r >= low {
                let wide = u64::from(words[used]) * u64::from(r);
                js[r as usize - 1] = (wide >> 32) as u32;
                // Accept when the low half is <= zone = (r << shift) - 1. A
                // rejected word leaves `r` as it is, and the next word
                // overwrites its `j`.
                r -= u32::from((wide as u32) < r << shift);
                used += 1;
            }
        }
        range = r;
        used
    });
    js
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, RngCore};
    use seafl_sim::rng::{stream_rng, streams};
    use seafl_sim::FleetConfig;

    fn pareto(n: usize) -> Fleet {
        Fleet::lazy(FleetConfig::pareto_fleet(n), 7)
    }

    /// The historical selection: shuffle the whole pool, keep a prefix.
    fn shuffle_and_truncate(candidates: &[usize], n: usize, rng: &mut SimRng) -> Vec<usize> {
        let mut pool = candidates.to_vec();
        pool.shuffle(rng);
        pool.truncate(n);
        pool
    }

    /// Random pools (ids with gaps, not sorted) at random stream positions;
    /// every pick, its order and the word position after must match.
    fn prop_matches_oracle(
        fast: impl Fn(&[usize], usize, &mut SimRng) -> Vec<usize>,
        oracle: impl Fn(&[usize], usize, &mut SimRng) -> Vec<usize>,
    ) {
        let mut meta = stream_rng(2024, 77);
        let mut pools = vec![0usize, 1, 2, 5_000];
        pools.extend((0..12).map(|_| meta.gen_range(3..3_000usize)));
        for (case, &pool) in pools.iter().enumerate() {
            let candidates: Vec<usize> =
                (0..pool).map(|_| meta.gen_range(0..1_000_000usize)).collect();
            let random_n = meta.gen_range(0..pool + 2);
            let ns = [0, 1, pool.saturating_sub(1), pool, pool + 1, random_n];
            for n in ns {
                let mut rng = stream_rng(case as u64, streams::SELECTION);
                for _ in 0..meta.gen_range(0..40usize) {
                    rng.next_u32();
                }
                let mut want_rng = rng.clone();
                let want = oracle(&candidates, n, &mut want_rng);
                let got = fast(&candidates, n, &mut rng);
                assert_eq!(got, want, "pool {pool}, n {n}");
                assert_eq!(rng.get_word_pos(), want_rng.get_word_pos(), "pool {pool}, n {n}");
            }
        }
    }

    #[test]
    fn prop_selection_matches_shuffle_and_truncate() {
        let fleet = pareto(1);
        prop_matches_oracle(
            |c, n, rng| select_clients(SelectionPolicy::Uniform, c, &fleet, n, rng),
            shuffle_and_truncate,
        );
    }

    #[test]
    fn uniform_returns_distinct_prefix() {
        let f = pareto(10);
        let cands: Vec<usize> = (0..10).collect();
        let mut rng = stream_rng(0, streams::SELECTION);
        let picked = select_clients(SelectionPolicy::Uniform, &cands, &f, 4, &mut rng);
        assert_eq!(picked.len(), 4);
        let mut p = picked.clone();
        p.sort_unstable();
        p.dedup();
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn requesting_more_than_available_returns_all() {
        let f = pareto(3);
        let cands = vec![0, 1, 2];
        let mut rng = stream_rng(3, streams::SELECTION);
        let mut picked = select_clients(SelectionPolicy::Uniform, &cands, &f, 99, &mut rng);
        picked.sort_unstable();
        assert_eq!(picked, vec![0, 1, 2]);
    }

    #[test]
    fn empty_candidates_empty_result() {
        let f = pareto(3);
        let mut rng = stream_rng(4, streams::SELECTION);
        assert!(select_clients(SelectionPolicy::Uniform, &[], &f, 3, &mut rng).is_empty());
        assert_eq!(rng.get_word_pos(), 0);
    }
}
