//! Self-tests of the harness, run by `benchmark/run --check`: the stand-ins
//! the benchmark build swaps in for `rand_chacha` and `rayon`, and the
//! promise that a traced run computes what a bare run computes.

use crate::trace::{Recorder, TracedPolicy};
use rand::chacha::ChaCha12Rng;
use rand::{RngCore, SeedableRng};
use rayon::prelude::*;
use seafl_core::{build_policy, run_with_policy};

fn ensure(cond: bool, what: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

fn draw(rng: &mut ChaCha12Rng, n: usize) -> Vec<u64> {
    (0..n).map(|_| rng.next_u64()).collect()
}

/// `set_word_pos` / `set_stream` seeks equal drawing and discarding, and a
/// generator survives clone and `(seed, stream, word_pos)` restore.
fn chacha() -> Result<(), String> {
    rand::chacha::self_check()?;
    for skip in [0usize, 1, 15, 16, 17, 63, 64, 65, 1000] {
        let mut walked = ChaCha12Rng::seed_from_u64(99);
        for _ in 0..skip {
            walked.next_u32();
        }
        let mut sought = ChaCha12Rng::seed_from_u64(99);
        sought.set_word_pos(skip as u128);
        ensure(
            walked.get_word_pos() == skip as u128,
            "ChaCha12: word position is not the number of words drawn",
        )?;
        ensure(
            draw(&mut walked, 40) == draw(&mut sought, 40),
            "ChaCha12: set_word_pos differs from draw-and-discard",
        )?;

        // Switching streams keeps the position, whichever comes first.
        let mut stream_then_walk = ChaCha12Rng::seed_from_u64(99);
        stream_then_walk.set_stream(5);
        for _ in 0..skip {
            stream_then_walk.next_u32();
        }
        let mut walk_then_stream = ChaCha12Rng::seed_from_u64(99);
        for _ in 0..skip {
            walk_then_stream.next_u32();
        }
        walk_then_stream.set_stream(5);
        ensure(
            draw(&mut stream_then_walk, 40) == draw(&mut walk_then_stream, 40),
            "ChaCha12: set_stream does not commute with drawing",
        )?;
    }
    let mut other_stream = ChaCha12Rng::seed_from_u64(99);
    other_stream.set_stream(5);
    ensure(
        draw(&mut other_stream, 8) != draw(&mut ChaCha12Rng::seed_from_u64(99), 8),
        "ChaCha12: stream id does not change the output",
    )?;

    let mut rng = ChaCha12Rng::seed_from_u64(2026);
    ensure(
        draw(&mut rng.clone(), 8) == draw(&mut ChaCha12Rng::seed_from_u64(2026), 8),
        "ChaCha12: seed_from_u64 is not a function of the seed",
    )?;
    draw(&mut rng, 37);
    rng.next_u32();
    let mut cloned = rng.clone();
    let mut restored = ChaCha12Rng::from_seed(rng.get_seed());
    restored.set_stream(rng.get_stream());
    restored.set_word_pos(rng.get_word_pos());
    let want = draw(&mut rng, 40);
    ensure(draw(&mut cloned, 40) == want, "ChaCha12: a clone diverges")?;
    ensure(draw(&mut restored, 40) == want, "ChaCha12: a restored generator diverges")
}

/// Parallel results come back in input order at widths 1, 2 and 7.
fn rayon_order() -> Result<(), String> {
    let input: Vec<u64> = (0..10_007).collect();
    let want: Vec<u64> = input.iter().map(|x| x * 3 + 1).collect();
    for width in [1usize, 2, 7] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .map_err(|e| format!("rayon stand-in: {e}"))?;
        let fail = |what: &str| format!("rayon stand-in at width {width}: {what}");
        pool.install(|| {
            ensure(rayon::current_num_threads() == width, &fail("wrong current_num_threads"))?;
            let by_ref: Vec<u64> = input.par_iter().map(|x| x * 3 + 1).collect();
            ensure(by_ref == want, &fail("par_iter().map().collect() out of order"))?;
            let by_value: Vec<u64> = input.clone().into_par_iter().map(|x| x * 3 + 1).collect();
            ensure(by_value == want, &fail("into_par_iter().map().collect() out of order"))?;
            let sums: Vec<(usize, u64)> = input
                .par_chunks(100)
                .enumerate()
                .map(|(i, chunk)| (i, chunk.iter().sum::<u64>()))
                .collect();
            let want_sums: Vec<(usize, u64)> =
                input.chunks(100).enumerate().map(|(i, c)| (i, c.iter().sum::<u64>())).collect();
            ensure(sums == want_sums, &fail("par_chunks().enumerate() out of order"))?;
            let mut written = vec![0u64; input.len()];
            written.par_chunks_mut(64).enumerate().for_each(|(i, chunk)| {
                for (j, slot) in chunk.iter_mut().enumerate() {
                    *slot = (i * 64 + j) as u64 * 3 + 1;
                }
            });
            ensure(written == want, &fail("par_chunks_mut().enumerate() wrote the wrong cells"))?;
            // A nested call runs, serially, and still in order.
            let nested: Vec<Vec<u64>> = input[..64]
                .par_chunks(8)
                .map(|chunk| chunk.par_iter().map(|x| x + 1).collect())
                .collect();
            let want_nested: Vec<Vec<u64>> =
                input[..64].chunks(8).map(|c| c.iter().map(|x| x + 1).collect()).collect();
            ensure(nested == want_nested, &fail("nested parallel call out of order"))
        })?;
    }
    Ok(())
}

/// A `TracedPolicy` run and a bare run of `test_support::tiny_cfg` end on
/// the same digests, for all seven algorithms.
fn traced_policy_parity() -> Result<(), String> {
    let cases: Vec<_> = seafl_core::test_support::fixture_cases()
        .into_iter()
        .filter(|c| c.variant == "clean")
        .collect();
    ensure(cases.len() == 7, "expected seven algorithms in the fixture set")?;
    for case in cases {
        let bare = run_with_policy(&case.cfg, build_policy(&case.cfg));
        let recorder = Recorder::new();
        let traced = run_with_policy(
            &case.cfg,
            Box::new(TracedPolicy::new(build_policy(&case.cfg), recorder.clone())),
        );
        ensure(
            (bare.model_digest, bare.trace.digest())
                == (traced.model_digest, traced.trace.digest()),
            &format!("{}: a TracedPolicy run and a bare run end on different digests", case.label),
        )?;
        ensure(
            !recorder.spans().is_empty(),
            &format!("{}: the traced run recorded no span", case.label),
        )?;
    }
    Ok(())
}

/// `(name, result)` of every self-test.
pub fn run_all() -> Vec<(&'static str, Result<(), String>)> {
    vec![
        ("chacha12 stand-in: seek, stream, clone, restore", chacha()),
        ("rayon stand-in: input order at widths 1, 2, 7", rayon_order()),
        ("TracedPolicy parity over the seven algorithms", traced_policy_parity()),
    ]
}
