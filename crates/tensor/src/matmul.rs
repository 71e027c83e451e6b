//! Blocked, packed, rayon-parallel matrix multiplication.
//!
//! The hot path of every dense and convolutional layer. All entry points —
//! [`matmul`], [`matmul_at_b`], [`matmul_a_bt_bias`] and the convolution
//! GEMMs in [`crate::conv`] — route through one routine
//! (`gemm`) that packs cache-sized panels of its operands into per-thread
//! scratch (`crate::pack`) and runs the register-blocked micro-kernel in
//! `crate::microkernel` over them.
//!
//! # Blocking scheme
//!
//! Classic three-level (BLIS-style) blocking: the k dimension is split into
//! `KC` slabs, the n dimension into `NC` slabs whose packed B panel
//! (`KC × NC` floats) stays cache-resident, and the m dimension into `MC`
//! row blocks that parallelize across rayon workers. Inside a block the
//! micro-kernel produces `MR × NR` output tiles from panels laid out in
//! exactly its read order.
//!
//! # Determinism
//!
//! Results are bitwise identical for any thread count: C is written only by
//! the worker that owns its `MC` row block, and within a block the `KC`
//! slabs accumulate in fixed increasing-`p` order, so every output element
//! sees the same sequence of rounding steps no matter how blocks are
//! scheduled. See DESIGN.md §11 for the full argument.

use crate::microkernel::{kernel, MR, NR};
use crate::pack::{pack_a, pack_b, scratch_buf, Operand, RowMajor, Transposed};
use crate::shape::Shape;
use crate::tensor::Tensor;
use rayon::prelude::*;

/// Rows of C per parallel work unit (the m-dimension block).
pub(crate) const MC: usize = 64;

/// k-dimension slab length; one packed A tile row (`KC × MR` floats) fits
/// in L1 with room for the B stream.
pub(crate) const KC: usize = 256;

/// n-dimension slab length; the packed B panel (`KC × NC` floats, 512 KiB)
/// targets L2.
pub(crate) const NC: usize = 512;

/// Below this many total multiply-adds the rayon dispatch overhead
/// dominates; run single-threaded.
pub(crate) const PAR_THRESHOLD: usize = 64 * 64 * 64;

/// How the GEMM driver initializes C before accumulating.
pub(crate) enum CInit<'a> {
    /// `C = 0` — plain product.
    Zero,
    /// Every row of C starts as this length-`n` vector (dense-layer bias).
    ColBias(&'a [f32]),
    /// Row `r` of C starts filled with `bias[r]` (conv bias, one value per
    /// output channel).
    RowBias(&'a [f32]),
}

/// `C[m,n] = init ⊕ A[m,k] × B[k,n]` over [`Operand`] views.
///
/// The packed-GEMM driver behind every matmul entry point and the conv
/// GEMMs. Parallelism is over disjoint `MC` row blocks of C; each block
/// accumulates its `KC` slabs serially in increasing-`p` order, which makes
/// the result independent of thread count, bit for bit.
pub(crate) fn gemm<A: Operand, B: Operand>(
    va: &A,
    vb: &B,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    init: CInit<'_>,
) {
    debug_assert_eq!(c.len(), m * n, "gemm: C buffer size");
    match init {
        CInit::Zero => c.fill(0.0),
        CInit::ColBias(bias) => {
            debug_assert_eq!(bias.len(), n, "gemm: column bias length");
            for row in c.chunks_exact_mut(n.max(1)) {
                row.copy_from_slice(bias);
            }
        }
        CInit::RowBias(bias) => {
            debug_assert_eq!(bias.len(), m, "gemm: row bias length");
            for (r, row) in c.chunks_exact_mut(n.max(1)).enumerate() {
                row.fill(bias[r]);
            }
        }
    }
    if m == 0 || n == 0 || k == 0 {
        return;
    }

    let body = |(blk, crows): (usize, &mut [f32])| {
        let i0 = blk * MC;
        let mc = crows.len() / n;
        let a_tiles = mc.div_ceil(MR);
        let mut apanel = scratch_buf(a_tiles * KC.min(k) * MR);
        let mut bpanel = scratch_buf(NC.min(n).div_ceil(NR) * KC.min(k) * NR);
        // Fixed increasing-p slab order: the one accumulation order every
        // element of this row block sees, regardless of scheduling.
        let mut p0 = 0;
        while p0 < k {
            let kc = KC.min(k - p0);
            pack_a(va, i0, mc, p0, kc, &mut apanel[..a_tiles * kc * MR]);
            let mut j0 = 0;
            while j0 < n {
                let nc = NC.min(n - j0);
                let b_tiles = nc.div_ceil(NR);
                pack_b(vb, p0, kc, j0, nc, &mut bpanel[..b_tiles * kc * NR]);
                for ti in 0..a_tiles {
                    let i = ti * MR;
                    let rows = MR.min(mc - i);
                    let atile = &apanel[ti * kc * MR..(ti + 1) * kc * MR];
                    for tj in 0..b_tiles {
                        let j = j0 + tj * NR;
                        let cols = NR.min(j0 + nc - j);
                        let btile = &bpanel[tj * kc * NR..(tj + 1) * kc * NR];
                        let mut acc = [0.0f32; MR * NR];
                        kernel(kc, atile, btile, &mut acc);
                        for r in 0..rows {
                            let crow = &mut crows[(i + r) * n + j..(i + r) * n + j + cols];
                            for (cv, &av) in crow.iter_mut().zip(acc[r * NR..].iter()) {
                                *cv += av;
                            }
                        }
                    }
                }
                j0 += nc;
            }
            p0 += kc;
        }
    };

    if m * n * k >= PAR_THRESHOLD {
        c.par_chunks_mut(MC * n).enumerate().for_each(body);
    } else {
        c.chunks_mut(MC * n).enumerate().for_each(body);
    }
}

/// `C = A × B` for row-major rank-2 tensors: `[m,k] × [k,n] -> [m,n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matmul: A must be rank-2");
    assert_eq!(b.shape().rank(), 2, "matmul: B must be rank-2");
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (k2, n) = (b.shape().dim(0), b.shape().dim(1));
    assert_eq!(k, k2, "matmul: inner dims differ: A is [{m},{k}], B is [{k2},{n}]");

    let mut out = vec![0.0f32; m * n];
    gemm(
        &RowMajor::new(a.as_slice(), k),
        &RowMajor::new(b.as_slice(), n),
        &mut out,
        m,
        k,
        n,
        CInit::Zero,
    );
    Tensor::from_vec(Shape::d2(m, n), out)
}

/// `C = Aᵀ × B` where A is `[k,m]` row-major: result `[m,n]`.
///
/// Used for weight gradients (`dW = Xᵀ dY`). The transpose is a pack-time
/// view — logical columns of Aᵀ are contiguous in A's storage, so packing
/// costs the same as the un-transposed case and nothing is materialized.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2);
    assert_eq!(b.shape().rank(), 2);
    let (k, m) = (a.shape().dim(0), a.shape().dim(1));
    let (k2, n) = (b.shape().dim(0), b.shape().dim(1));
    assert_eq!(k, k2, "matmul_at_b: inner dims differ");

    let mut out = vec![0.0f32; m * n];
    gemm(
        &Transposed::new(a.as_slice(), m),
        &RowMajor::new(b.as_slice(), n),
        &mut out,
        m,
        k,
        n,
        CInit::Zero,
    );
    Tensor::from_vec(Shape::d2(m, n), out)
}

/// `C = A × Bᵀ + bias` (bias broadcast across rows): the fused dense-layer
/// forward. C rows are initialized from `bias` before accumulation, saving
/// the separate bias pass over the output.
pub fn matmul_a_bt_bias(a: &Tensor, b: &Tensor, bias: &[f32]) -> Tensor {
    assert_eq!(a.shape().rank(), 2);
    assert_eq!(b.shape().rank(), 2);
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (n, k2) = (b.shape().dim(0), b.shape().dim(1));
    assert_eq!(k, k2, "matmul_a_bt_bias: inner dims differ");
    assert_eq!(bias.len(), n, "matmul_a_bt_bias: bias length");

    let mut out = vec![0.0f32; m * n];
    gemm(
        &RowMajor::new(a.as_slice(), k),
        &Transposed::new(b.as_slice(), k),
        &mut out,
        m,
        k,
        n,
        CInit::ColBias(bias),
    );
    Tensor::from_vec(Shape::d2(m, n), out)
}

/// Dot product with a fixed 4-lane accumulator split: lane `l` sums
/// elements `l, l+4, l+8, …`, the lanes combine as `(l₀+l₁) + (l₂+l₃)`, and
/// the length-mod-4 tail adds sequentially. The association depends only on
/// the input length — never on thread count or call site — so parallel
/// callers stay deterministic while the four independent chains vectorize.
pub fn dot_blocked(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot_blocked: length mismatch");
    let split = a.len() - a.len() % 4;
    let mut lanes = [0.0f32; 4];
    for (ca, cb) in a[..split].chunks_exact(4).zip(b[..split].chunks_exact(4)) {
        for l in 0..4 {
            lanes[l] += ca[l] * cb[l];
        }
    }
    let mut acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for (&x, &y) in a[split..].iter().zip(b[split..].iter()) {
        acc += x * y;
    }
    acc
}

/// Sum with the same fixed 4-lane association as [`dot_blocked`]; the
/// deterministic per-slice reduction under conv's parallel `grad_bias`.
pub(crate) fn sum_blocked(a: &[f32]) -> f32 {
    let split = a.len() - a.len() % 4;
    let mut lanes = [0.0f32; 4];
    for ca in a[..split].chunks_exact(4) {
        for l in 0..4 {
            lanes[l] += ca[l];
        }
    }
    let mut acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    for &x in a[split..].iter() {
        acc += x;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Naive triple-loop reference that validates the blocked kernel.
    fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape().dim(0), a.shape().dim(1));
        let (_, n) = (b.shape().dim(0), b.shape().dim(1));
        let mut out = Tensor::zeros(Shape::d2(m, n));
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.get2(i, p) * b.get2(p, j);
                }
                out.set2(i, j, acc);
            }
        }
        out
    }

    fn rng_tensor(shape: Shape, seed: u64) -> Tensor {
        let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
        let data: Vec<f32> = (0..shape.len())
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s as f64 / u64::MAX as f64) as f32 * 2.0 - 1.0
            })
            .collect();
        Tensor::from_vec(shape, data)
    }

    #[test]
    fn matmul_2x2_known() {
        let a = Tensor::from_vec(Shape::d2(2, 2), vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec(Shape::d2(2, 2), vec![5., 6., 7., 8.]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn matmul_identity() {
        let a = rng_tensor(Shape::d2(5, 5), 1);
        let mut eye = Tensor::zeros(Shape::d2(5, 5));
        for i in 0..5 {
            eye.set2(i, i, 1.0);
        }
        assert!(matmul(&a, &eye).max_abs_diff(&a) < 1e-6);
        assert!(matmul(&eye, &a).max_abs_diff(&a) < 1e-6);
    }

    // For k ≤ KC every output element is one un-reassociated p-ordered sum —
    // exactly the naive reference's association — so the packed kernels must
    // match it bit for bit across every tile-remainder case: m < MR, n < NR,
    // 1×1×1, primes straddling MR/NR/MC/NC boundaries, and empty dims.
    const SWEEP: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 1, 9),
        (3, 1, 1),
        (1, 5, 1),
        (2, 3, 5),
        (4, 4, 8),
        (5, 7, 9),
        (3, 2, 17),
        (4, 256, 8),
        (13, 11, 7),
        (64, 16, 8),
        (65, 16, 9),
        (67, 19, 513),
        (129, 31, 65),
        (0, 4, 5),
        (4, 0, 5),
        (4, 5, 0),
        (0, 0, 0),
    ];

    #[test]
    fn sweep_matmul_bitwise_matches_naive() {
        for &(m, k, n) in SWEEP {
            let a = rng_tensor(Shape::d2(m, k), (m * 31 + k) as u64);
            let b = rng_tensor(Shape::d2(k, n), (k * 31 + n) as u64);
            let fast = matmul(&a, &b);
            let slow = matmul_naive(&a, &b);
            for (i, (x, y)) in fast.as_slice().iter().zip(slow.as_slice().iter()).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "({m},{k},{n}) elem {i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn sweep_transposed_kernels_bitwise_match_naive() {
        for &(m, k, n) in SWEEP {
            let at = rng_tensor(Shape::d2(k, m), (m + k) as u64);
            let b = rng_tensor(Shape::d2(k, n), (k + n + 1) as u64);
            let fast = matmul_at_b(&at, &b);
            let slow = matmul_naive(&at.transpose2(), &b);
            assert_eq!(fast.as_slice().len(), slow.as_slice().len());
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice().iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "at_b ({m},{k},{n})");
            }

            let a = rng_tensor(Shape::d2(m, k), (m + k + 2) as u64);
            let bt = rng_tensor(Shape::d2(n, k), (k + n + 3) as u64);
            let fast = matmul_a_bt_bias(&a, &bt, &vec![0.0; n]);
            let slow = matmul_naive(&a, &bt.transpose2());
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice().iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "a_bt ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn deep_k_crosses_slab_boundary() {
        // k > KC splits into slabs; only the association changes, so the
        // result agrees with naive to rounding.
        let (m, k, n) = (5, 2 * KC + 37, 9);
        let a = rng_tensor(Shape::d2(m, k), 5);
        let b = rng_tensor(Shape::d2(k, n), 6);
        let fast = matmul(&a, &b);
        let slow = matmul_naive(&a, &b);
        assert!(fast.max_abs_diff(&slow) < 1e-3, "diff {}", fast.max_abs_diff(&slow));
    }

    #[test]
    fn matmul_large_crosses_parallel_threshold() {
        let (m, k, n) = (130, 80, 90); // > PAR_THRESHOLD work
        let a = rng_tensor(Shape::d2(m, k), 42);
        let b = rng_tensor(Shape::d2(k, n), 43);
        let fast = matmul(&a, &b);
        let slow = matmul_naive(&a, &b);
        assert!(fast.max_abs_diff(&slow) < 1e-3);
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let a = rng_tensor(Shape::d2(6, 4), 7);
        let b = rng_tensor(Shape::d2(6, 5), 8);
        let fast = matmul_at_b(&a, &b);
        let slow = matmul_naive(&a.transpose2(), &b);
        assert!(fast.max_abs_diff(&slow) < 1e-4);
    }

    #[test]
    fn a_bt_bias_fuses_bias_row() {
        let a = rng_tensor(Shape::d2(6, 4), 20);
        let b = rng_tensor(Shape::d2(5, 4), 21);
        let bias = [0.5f32, -1.0, 0.0, 2.0, -0.25];
        let fused = matmul_a_bt_bias(&a, &b, &bias);
        for i in 0..6 {
            for (j, &bj) in bias.iter().enumerate() {
                // Bias initializes C, and the micro-tile's p-ordered sum is
                // added to it in one step: bitwise (bias[j] + Σ…).
                let want = {
                    let mut acc = 0.0f32;
                    for p in 0..4 {
                        acc += a.get2(i, p) * b.get2(j, p);
                    }
                    bj + acc
                };
                assert_eq!(fused.get2(i, j).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn dot_and_sum_blocked_association_is_length_only() {
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65] {
            let v: Vec<f32> = (0..len).map(|i| (i as f32) * 0.731 - 2.0).collect();
            // Reference: replay the documented association by hand.
            let split = len - len % 4;
            let mut lanes = [0.0f32; 4];
            for c in v[..split].chunks_exact(4) {
                for l in 0..4 {
                    lanes[l] += c[l] * c[l];
                }
            }
            let mut want = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
            for &x in &v[split..] {
                want += x * x;
            }
            assert_eq!(dot_blocked(&v, &v).to_bits(), want.to_bits(), "len {len}");

            let mut sl = [0.0f32; 4];
            for c in v[..split].chunks_exact(4) {
                for l in 0..4 {
                    sl[l] += c[l];
                }
            }
            let mut wsum = (sl[0] + sl[1]) + (sl[2] + sl[3]);
            for &x in &v[split..] {
                wsum += x;
            }
            assert_eq!(sum_blocked(&v).to_bits(), wsum.to_bits(), "len {len}");
        }
    }

    /// FNV-1a64 over the raw bits of a result set: the digest the
    /// cross-thread identity test pins.
    fn digest(parts: &[&[f32]]) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for part in parts {
            for v in part.iter() {
                for byte in v.to_bits().to_le_bytes() {
                    h ^= byte as u64;
                    h = h.wrapping_mul(0x100000001b3);
                }
            }
        }
        h
    }

    #[test]
    fn cross_thread_digest_identity() {
        // The three entry points, at sizes that cross PAR_THRESHOLD so the
        // 4-thread pool genuinely splits the work: the digest over every
        // output bit must be identical for 1 and 4 workers.
        let run = |threads: usize| -> u64 {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("build test pool");
            pool.install(|| {
                let a = rng_tensor(Shape::d2(130, 300), 1);
                let b = rng_tensor(Shape::d2(300, 90), 2);
                let c1 = matmul(&a, &b);
                let at = rng_tensor(Shape::d2(300, 130), 3);
                let c2 = matmul_at_b(&at, &b);
                let bt = rng_tensor(Shape::d2(90, 300), 4);
                let c3 = matmul_a_bt_bias(&a, &bt, &[0.0; 90]);
                digest(&[c1.as_slice(), c2.as_slice(), c3.as_slice()])
            })
        };
        let d1 = run(1);
        let d4 = run(4);
        assert_eq!(d1, d4, "kernel results depend on thread count");
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn mismatched_inner_dims_panic() {
        let a = Tensor::zeros(Shape::d2(2, 3));
        let b = Tensor::zeros(Shape::d2(4, 2));
        matmul(&a, &b);
    }

    #[test]
    fn prop_matmul_matches_naive() {
        for case in 0..24 {
            let mut rng = StdRng::seed_from_u64(case);
            let (m, k, n) =
                (rng.gen_range(1usize..12), rng.gen_range(1usize..12), rng.gen_range(1usize..12));
            let seed = rng.gen_range(0usize..100) as u64;
            let a = rng_tensor(Shape::d2(m, k), seed);
            let b = rng_tensor(Shape::d2(k, n), seed + 1);
            let diff = matmul(&a, &b).max_abs_diff(&matmul_naive(&a, &b));
            assert!(diff < 1e-4, "case {case}: ({m},{k},{n}) seed {seed} diff {diff}");
        }
    }

    #[test]
    fn prop_matmul_distributes_over_add() {
        for case in 0..24 {
            let mut rng = StdRng::seed_from_u64(case);
            let (m, k, n) =
                (rng.gen_range(1usize..6), rng.gen_range(1usize..6), rng.gen_range(1usize..6));
            let seed = rng.gen_range(0usize..100) as u64;
            let a = rng_tensor(Shape::d2(m, k), seed);
            let b1 = rng_tensor(Shape::d2(k, n), seed + 1);
            let b2 = rng_tensor(Shape::d2(k, n), seed + 2);
            let mut bsum = b1.clone();
            bsum.add_assign(&b2);
            let lhs = matmul(&a, &bsum);
            let mut rhs = matmul(&a, &b1);
            rhs.add_assign(&matmul(&a, &b2));
            let diff = lhs.max_abs_diff(&rhs);
            assert!(diff < 1e-3, "case {case}: ({m},{k},{n}) seed {seed} diff {diff}");
        }
    }
}
