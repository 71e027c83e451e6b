//! Client data partitioners: Dirichlet non-IID (the paper's scheme) and
//! IID.

use rand::seq::SliceRandom;
use rand::Rng;
use rand_distr::{Dirichlet, Distribution};

/// Partition sample indices across `num_clients` using a symmetric
/// Dirichlet(α) over clients *per class* — the standard non-IID federated
/// split (Li et al., ICDE '22) the paper uses with α = 0.3 (insights study)
/// and α = 5 (main evaluation). Smaller α ⇒ more skew.
///
/// Guarantees every client ends up with at least one sample (leftover
/// redistribution from the largest shards), so no client is degenerate.
pub fn dirichlet_partition(
    labels: &[usize],
    num_clients: usize,
    alpha: f64,
    rng: &mut impl Rng,
) -> Vec<Vec<usize>> {
    assert!(num_clients > 0, "dirichlet_partition: zero clients");
    assert!(alpha > 0.0, "dirichlet_partition: alpha must be positive");
    assert!(
        labels.len() >= num_clients,
        "dirichlet_partition: fewer samples ({}) than clients ({})",
        labels.len(),
        num_clients
    );

    let num_classes = labels.iter().copied().max().map_or(0, |m| m + 1);
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); num_classes];
    for (i, &y) in labels.iter().enumerate() {
        by_class[y].push(i);
    }

    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); num_clients];
    for class_indices in by_class.iter_mut() {
        if class_indices.is_empty() {
            continue;
        }
        class_indices.shuffle(rng);
        let props: Vec<f64> = if num_clients == 1 {
            vec![1.0]
        } else {
            Dirichlet::new_with_size(alpha, num_clients).expect("valid dirichlet").sample(rng)
        };
        // Convert proportions to cumulative split points over this class.
        let n = class_indices.len();
        let mut start = 0usize;
        let mut acc = 0.0f64;
        for (c, &p) in props.iter().enumerate() {
            acc += p;
            let end = if c + 1 == num_clients { n } else { (acc * n as f64).round() as usize };
            let end = end.clamp(start, n);
            shards[c].extend_from_slice(&class_indices[start..end]);
            start = end;
        }
    }

    // Ensure no client is empty: steal one sample from the largest shard.
    for c in 0..num_clients {
        if shards[c].is_empty() {
            let donor =
                (0..num_clients).max_by_key(|&i| shards[i].len()).expect("at least one client");
            assert!(shards[donor].len() > 1, "not enough samples to cover all clients");
            let moved = shards[donor].pop().expect("donor non-empty");
            shards[c].push(moved);
        }
    }

    for s in shards.iter_mut() {
        s.shuffle(rng);
    }
    shards
}

/// IID partition: global shuffle, then near-equal contiguous chunks.
pub fn iid_partition(
    num_samples: usize,
    num_clients: usize,
    rng: &mut impl Rng,
) -> Vec<Vec<usize>> {
    assert!(num_clients > 0, "iid_partition: zero clients");
    assert!(num_samples >= num_clients, "iid_partition: fewer samples than clients");
    let mut idx: Vec<usize> = (0..num_samples).collect();
    idx.shuffle(rng);
    let base = num_samples / num_clients;
    let extra = num_samples % num_clients;
    let mut out = Vec::with_capacity(num_clients);
    let mut start = 0;
    for c in 0..num_clients {
        let len = base + usize::from(c < extra);
        out.push(idx[start..start + len].to_vec());
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Measure partition skew: the mean across clients of the total-variation
    /// distance between the client's label distribution and the global one.
    /// 0 = perfectly IID, →1 = each client owns disjoint labels.
    pub(crate) fn label_skew(labels: &[usize], partition: &[Vec<usize>]) -> f64 {
        let num_classes = labels.iter().copied().max().map_or(0, |m| m + 1);
        if num_classes == 0 || partition.is_empty() {
            return 0.0;
        }
        let mut global = vec![0.0f64; num_classes];
        for &y in labels {
            global[y] += 1.0;
        }
        let total = labels.len() as f64;
        global.iter_mut().for_each(|g| *g /= total);

        let mut acc = 0.0;
        let mut counted = 0usize;
        for part in partition {
            if part.is_empty() {
                continue;
            }
            let mut local = vec![0.0f64; num_classes];
            for &i in part {
                local[labels[i]] += 1.0;
            }
            let n = part.len() as f64;
            let tv: f64 =
                local.iter().zip(global.iter()).map(|(&l, &g)| (l / n - g).abs()).sum::<f64>()
                    / 2.0;
            acc += tv;
            counted += 1;
        }
        acc / counted as f64
    }

    fn labels_balanced(classes: usize, per_class: usize) -> Vec<usize> {
        (0..classes * per_class).map(|i| i % classes).collect()
    }

    fn assert_is_partition(n: usize, parts: &[Vec<usize>]) {
        let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        let expected: Vec<usize> = (0..n).collect();
        assert_eq!(all, expected, "not a partition of 0..{n}");
    }

    #[test]
    fn dirichlet_is_a_partition_no_client_empty() {
        let labels = labels_balanced(10, 60);
        let mut rng = StdRng::seed_from_u64(0);
        let parts = dirichlet_partition(&labels, 20, 0.3, &mut rng);
        assert_is_partition(labels.len(), &parts);
        assert!(parts.iter().all(|p| !p.is_empty()));
    }

    #[test]
    fn small_alpha_skews_more_than_large_alpha() {
        let labels = labels_balanced(10, 100);
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(1);
        let skew_low = label_skew(&labels, &dirichlet_partition(&labels, 10, 0.1, &mut r1));
        let skew_high = label_skew(&labels, &dirichlet_partition(&labels, 10, 100.0, &mut r2));
        assert!(
            skew_low > skew_high + 0.1,
            "α=0.1 skew {skew_low} should exceed α=100 skew {skew_high}"
        );
    }

    #[test]
    fn iid_partition_balanced_sizes() {
        let mut rng = StdRng::seed_from_u64(2);
        let parts = iid_partition(103, 10, &mut rng);
        assert_is_partition(103, &parts);
        for p in &parts {
            assert!(p.len() == 10 || p.len() == 11);
        }
    }

    #[test]
    fn iid_skew_near_zero() {
        let labels = labels_balanced(10, 500);
        let mut rng = StdRng::seed_from_u64(4);
        let parts = iid_partition(labels.len(), 10, &mut rng);
        // Finite-sample multinomial noise keeps this above 0, but a random
        // split of 500/class over 10 clients stays well under 0.1 TV.
        assert!(label_skew(&labels, &parts) < 0.1);
    }

    #[test]
    fn deterministic_per_seed() {
        let labels = labels_balanced(5, 40);
        let a = dirichlet_partition(&labels, 8, 0.5, &mut StdRng::seed_from_u64(9));
        let b = dirichlet_partition(&labels, 8, 0.5, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "fewer samples")]
    fn too_few_samples_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        dirichlet_partition(&[0, 1], 5, 1.0, &mut rng);
    }

    #[test]
    fn prop_dirichlet_partition_conserves_samples() {
        for case in 0..16 {
            let mut rng = StdRng::seed_from_u64(case);
            let (classes, per_class) = (rng.gen_range(2usize..6), rng.gen_range(10usize..30));
            let clients = rng.gen_range(1usize..12);
            let alpha = rng.gen_range(0.1f64..10.0);
            let seed = rng.gen_range(0usize..1000) as u64;
            let labels = labels_balanced(classes, per_class);
            let parts =
                dirichlet_partition(&labels, clients, alpha, &mut StdRng::seed_from_u64(seed));
            let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..labels.len()).collect::<Vec<_>>(), "case {case}");
            assert!(parts.iter().all(|p| !p.is_empty()), "case {case}");
        }
    }
}
