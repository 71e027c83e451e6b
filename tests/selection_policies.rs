//! Uniform client selection, pinned draw for draw.
//!
//! `select_clients(Uniform, ..)` reproduces the historical shuffle of the
//! whole idle pool, truncated to a prefix, draw for draw. Every trace
//! digest depends on which clients it picks and on how many
//! selection-stream words it consumes, so a change to it must reproduce
//! both. This pins a digest of the picks and the RNG's word position after
//! the call, over pool sizes from a toy fleet to the 400 000 clients of the
//! fleet-scale benchmark.

use seafl::core::selection::select_clients;
use seafl::core::SelectionPolicy;
use seafl::sim::digest::fnv1a64;
use seafl::sim::rng::{stream_rng, streams};
use seafl::sim::{Fleet, FleetConfig};

/// FNV-1a64 over the picked ids as little-endian `u64`s.
fn picks_digest(picked: &[usize]) -> u64 {
    let bytes: Vec<u8> = picked.iter().flat_map(|&k| (k as u64).to_le_bytes()).collect();
    fnv1a64(&bytes)
}

#[test]
fn uniform_selection_draws_are_pinned() {
    // (pool size, n, picks, digest of the picks, word position after).
    let pins: [(usize, usize, usize, u64, u128); 6] = [
        (10, 64, 10, 0x2258fc616c934384, 16),
        (10, 11, 10, 0x2258fc616c934384, 16),
        (4_096, 64, 64, 0xf0a7069662cdf91a, 5676),
        (4_096, 4_097, 4_096, 0x2e87024f54375445, 5676),
        (400_000, 64, 64, 0xe2642736ac5d9e9e, 586_024),
        (400_000, 400_001, 400_000, 0x4b450feee91ed6ed, 586_024),
    ];
    let mut got = Vec::new();
    for &(pool, n, ..) in &pins {
        let idle: Vec<usize> = (0..pool).collect();
        let fleet = Fleet::lazy(FleetConfig::pareto_fleet(pool), 1);
        let mut rng = stream_rng(1, streams::SELECTION);
        let picked = select_clients(SelectionPolicy::Uniform, &idle, &fleet, n, &mut rng);
        got.push((pool, n, picked.len(), picks_digest(&picked), rng.get_word_pos()));
    }
    assert_eq!(got, pins, "uniform selection moved: got {got:?}");
}
