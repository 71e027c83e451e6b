//! Register-blocked `MR × NR` GEMM micro-kernel.
//!
//! The micro-kernel computes one dense `MR × NR` block of `C += A × B` from
//! panels packed by [`crate::pack`]: the A panel holds `kc` steps of `MR`
//! values (one per output row), the B panel `kc` steps of `NR` values (one
//! per output column). Accumulation runs over `p = 0..kc` in order, and
//! every output element sees exactly the sequence `acc += a[p]·b[p]` — one
//! multiplication and one addition per step, never fused — so the result is
//! bitwise identical across the scalar and AVX variants and across any
//! tiling that preserves `p`-order (which the [`crate::matmul`] driver
//! guarantees).
//!
//! Every x86_64 build compiles an explicitly vectorized kernel on the
//! stable `std::arch::x86_64` AVX intrinsics and chooses it at run time
//! when the CPU has AVX; [`kernel_scalar`] is the path everywhere else and
//! the tests' reference. `std::simd` is still nightly-only; the AVX kernel
//! mirrors the shape a `f32x8`-based portable kernel would take so it can
//! be swapped once `portable_simd` stabilizes. It deliberately uses
//! separate multiply and add — no FMA — so it stays bitwise identical to
//! the scalar kernel (see DESIGN.md §11).

/// Rows of C one micro-kernel invocation produces.
pub(crate) const MR: usize = 4;

/// Columns of C one micro-kernel invocation produces.
pub(crate) const NR: usize = 8;

/// `acc[i·NR + j] += Σ_{p<kc} a[p·MR + i] · b[p·NR + j]`.
///
/// Dispatches to the AVX kernel when the CPU supports it (x86_64 builds,
/// detected at run time); both paths produce bitwise-identical results.
#[inline]
pub(crate) fn kernel(kc: usize, a: &[f32], b: &[f32], acc: &mut [f32; MR * NR]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: dispatch is gated on runtime AVX detection.
        return unsafe { kernel_avx(kc, a, b, acc) };
    }
    kernel_scalar(kc, a, b, acc);
}

/// Portable scalar micro-kernel. The `j` loop has no loop-carried
/// dependency (each lane is a distinct output element), so LLVM vectorizes
/// it across the `NR` columns without reassociating any per-element sum.
#[inline]
pub(crate) fn kernel_scalar(kc: usize, a: &[f32], b: &[f32], acc: &mut [f32; MR * NR]) {
    debug_assert!(a.len() >= kc * MR, "micro-kernel: A panel too short");
    debug_assert!(b.len() >= kc * NR, "micro-kernel: B panel too short");
    for p in 0..kc {
        let ap = &a[p * MR..(p + 1) * MR];
        let bp = &b[p * NR..(p + 1) * NR];
        for i in 0..MR {
            let ai = ap[i];
            let row = &mut acc[i * NR..(i + 1) * NR];
            for (c, &bj) in row.iter_mut().zip(bp.iter()) {
                *c += ai * bj;
            }
        }
    }
}

/// AVX micro-kernel: one 8-lane vector per output row, broadcast-multiply-
/// add over the packed panels. Separate `mul` + `add` (one rounding each,
/// like the scalar kernel) keep it bitwise identical to `kernel_scalar`.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX (see [`kernel`]'s runtime
/// dispatch). Panel length requirements are the same as `kernel_scalar`'s
/// and are checked via `debug_assert!`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn kernel_avx(kc: usize, a: &[f32], b: &[f32], acc: &mut [f32; MR * NR]) {
    use std::arch::x86_64::*;
    debug_assert!(a.len() >= kc * MR, "micro-kernel: A panel too short");
    debug_assert!(b.len() >= kc * NR, "micro-kernel: B panel too short");
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let pc = acc.as_mut_ptr();
    let mut c0 = _mm256_loadu_ps(pc);
    let mut c1 = _mm256_loadu_ps(pc.add(NR));
    let mut c2 = _mm256_loadu_ps(pc.add(2 * NR));
    let mut c3 = _mm256_loadu_ps(pc.add(3 * NR));
    for p in 0..kc {
        let bv = _mm256_loadu_ps(pb.add(p * NR));
        let ap = pa.add(p * MR);
        c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_broadcast_ss(&*ap), bv));
        c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_broadcast_ss(&*ap.add(1)), bv));
        c2 = _mm256_add_ps(c2, _mm256_mul_ps(_mm256_broadcast_ss(&*ap.add(2)), bv));
        c3 = _mm256_add_ps(c3, _mm256_mul_ps(_mm256_broadcast_ss(&*ap.add(3)), bv));
    }
    _mm256_storeu_ps(pc, c0);
    _mm256_storeu_ps(pc.add(NR), c1);
    _mm256_storeu_ps(pc.add(2 * NR), c2);
    _mm256_storeu_ps(pc.add(3 * NR), c3);
}

/// Name of the micro-kernel variant `kernel` dispatches to on this CPU,
/// recorded in bench results so speedup trajectories attribute to the
/// kernel.
pub fn variant() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        return "packed-simd-avx";
    }
    "packed-scalar"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panels(kc: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) as f32 * 2.0 - 1.0
        };
        let a: Vec<f32> = (0..kc * MR).map(|_| next()).collect();
        let b: Vec<f32> = (0..kc * NR).map(|_| next()).collect();
        (a, b)
    }

    #[test]
    fn kernel_matches_reference_loop() {
        for kc in [0usize, 1, 2, 7, 64, 300] {
            let (a, b) = panels(kc, kc as u64);
            let mut acc = [0.0f32; MR * NR];
            kernel(kc, &a, &b, &mut acc);
            for i in 0..MR {
                for j in 0..NR {
                    let mut want = 0.0f32;
                    for p in 0..kc {
                        want += a[p * MR + i] * b[p * NR + j];
                    }
                    assert_eq!(acc[i * NR + j].to_bits(), want.to_bits(), "kc={kc} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn kernel_accumulates_on_top_of_existing_acc() {
        // The kernel folds each `a·b` product into the live accumulator, so
        // the reference replay must also start from the pre-existing value —
        // `prior + (fresh sum)` as one final add would be a different
        // association.
        let (a, b) = panels(5, 9);
        let mut acc = [1.0f32; MR * NR];
        kernel(5, &a, &b, &mut acc);
        for i in 0..MR {
            for j in 0..NR {
                let mut want = 1.0f32;
                for p in 0..5 {
                    want += a[p * MR + i] * b[p * NR + j];
                }
                assert_eq!(acc[i * NR + j].to_bits(), want.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn dispatch_and_scalar_agree_bitwise() {
        // On an AVX CPU this pins the no-FMA guarantee that keeps digests
        // kernel-independent; elsewhere it is trivially true.
        for kc in [1usize, 13, 250] {
            let (a, b) = panels(kc, 77 + kc as u64);
            let mut via_dispatch = [0.5f32; MR * NR];
            let mut via_scalar = [0.5f32; MR * NR];
            kernel(kc, &a, &b, &mut via_dispatch);
            kernel_scalar(kc, &a, &b, &mut via_scalar);
            for (x, y) in via_dispatch.iter().zip(via_scalar.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn variant_is_packed() {
        assert!(variant().starts_with("packed-"));
    }
}
