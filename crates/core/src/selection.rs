//! Client selection.

use crate::config::SelectionPolicy;
use rand::seq::SliceRandom;
use rand::Rng;
use seafl_sim::Fleet;

/// Pick up to `n` distinct clients from `candidates`, uniformly: shuffle
/// and take a prefix (exactly the engine's historical behaviour, so runs
/// are bit-reproducible across versions).
///
/// `policy` and `fleet` are unused; the benchmark harness passes both until
/// it joins the workspace (ROADMAP item 12).
pub fn select_clients(
    _policy: SelectionPolicy,
    candidates: &[usize],
    _fleet: &Fleet,
    n: usize,
    rng: &mut impl Rng,
) -> Vec<usize> {
    let mut pool = candidates.to_vec();
    pool.shuffle(rng);
    pool.truncate(n);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use seafl_sim::FleetConfig;

    fn pareto(n: usize) -> Fleet {
        Fleet::lazy(FleetConfig::pareto_fleet(n), 7)
    }

    #[test]
    fn uniform_returns_distinct_prefix() {
        let f = pareto(10);
        let cands: Vec<usize> = (0..10).collect();
        let mut rng = StdRng::seed_from_u64(0);
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
        let mut rng = StdRng::seed_from_u64(3);
        let mut picked = select_clients(SelectionPolicy::Uniform, &cands, &f, 99, &mut rng);
        picked.sort_unstable();
        assert_eq!(picked, vec![0, 1, 2]);
    }

    #[test]
    fn empty_candidates_empty_result() {
        let f = pareto(3);
        let mut rng = StdRng::seed_from_u64(4);
        assert!(select_clients(SelectionPolicy::Uniform, &[], &f, 3, &mut rng).is_empty());
    }
}
