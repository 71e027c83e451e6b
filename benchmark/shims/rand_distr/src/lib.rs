//! std-only stand-in for the `rand_distr` 0.4 distributions the seafl
//! crates use: `Normal`, `Pareto`, `Zipf`, `Dirichlet` (all over `f64`),
//! plus the re-exports of `Distribution` and `Uniform`.
//!
//! Statistically faithful, not bit-identical to rand_distr: `Normal` is
//! Box–Muller rather than the ziggurat. `Pareto` consumes exactly one
//! `u64` per sample, which `seafl_sim::Fleet::lazy` relies on to seek to a
//! device's draw.

pub use rand::distributions::{Distribution, Uniform};
use rand::Rng;
use std::marker::PhantomData;

/// Parameter error of any distribution here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Error(&'static str);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}
impl std::error::Error for Error {}

/// Uniform on `(0, 1]`: never zero, so logarithms and negative powers of
/// it are finite.
fn open_closed01<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    ((rng.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1 = open_closed01(rng);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// `N(mean, std_dev²)`.
#[derive(Clone, Copy, Debug)]
pub struct Normal<F = f64> {
    mean: f64,
    std_dev: f64,
    _f: PhantomData<F>,
}

impl Normal<f64> {
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, Error> {
        if !std_dev.is_finite() {
            return Err(Error("Normal: non-finite standard deviation"));
        }
        Ok(Normal { mean, std_dev, _f: PhantomData })
    }
}

impl Distribution<f64> for Normal<f64> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * standard_normal(rng)
    }
}

/// Pareto with minimum `scale` and tail index `shape`.
#[derive(Clone, Copy, Debug)]
pub struct Pareto<F = f64> {
    scale: f64,
    inv_neg_shape: f64,
    _f: PhantomData<F>,
}

impl Pareto<f64> {
    pub fn new(scale: f64, shape: f64) -> Result<Self, Error> {
        if !(scale > 0.0) {
            return Err(Error("Pareto: scale must be positive"));
        }
        if !(shape > 0.0) {
            return Err(Error("Pareto: shape must be positive"));
        }
        Ok(Pareto { scale, inv_neg_shape: -1.0 / shape, _f: PhantomData })
    }
}

impl Distribution<f64> for Pareto<f64> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.scale * open_closed01(rng).powf(self.inv_neg_shape)
    }
}

/// Zipf on `{1, …, n}` with exponent `s`, by rejection-inversion
/// (Hörmann & Derflinger), as rand_distr samples it.
#[derive(Clone, Copy, Debug)]
pub struct Zipf<F = f64> {
    s: f64,
    t: f64,
    q: f64,
    _f: PhantomData<F>,
}

impl Zipf<f64> {
    pub fn new(n: u64, s: f64) -> Result<Self, Error> {
        if !(s >= 0.0) {
            return Err(Error("Zipf: s must be non-negative"));
        }
        if n < 1 {
            return Err(Error("Zipf: n must be at least 1"));
        }
        let n = n as f64;
        let q = if s != 1.0 { 1.0 - s } else { 0.0 };
        let t = if s != 1.0 { (n.powf(q) - s) / q } else { 1.0 + n.ln() };
        Ok(Zipf { s, t, q, _f: PhantomData })
    }

    /// Inverse of the integral of the hat function.
    fn inv_cdf(&self, p: f64) -> f64 {
        let pt = p * self.t;
        if pt <= 1.0 {
            pt
        } else if self.s != 1.0 {
            (pt * self.q + self.s).powf(1.0 / self.q)
        } else {
            (pt - 1.0).exp()
        }
    }
}

impl Distribution<f64> for Zipf<f64> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            let inv_b = self.inv_cdf(rng.gen::<f64>());
            let x = (inv_b + 1.0).floor();
            let mut ratio = x.powf(-self.s);
            if x > 1.0 {
                ratio *= inv_b.powf(self.s);
            }
            if rng.gen::<f64>() < ratio {
                return x;
            }
        }
    }
}

/// `Gamma(shape, 1)` by Marsaglia–Tsang, boosted for `shape < 1`.
fn gamma<R: Rng + ?Sized>(shape: f64, rng: &mut R) -> f64 {
    if shape < 1.0 {
        return gamma(shape + 1.0, rng) * open_closed01(rng).powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v = v * v * v;
        let u = open_closed01(rng);
        if u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

/// Symmetric Dirichlet: normalised independent gammas.
#[derive(Clone, Debug)]
pub struct Dirichlet<F = f64> {
    alpha: f64,
    size: usize,
    _f: PhantomData<F>,
}

impl Dirichlet<f64> {
    pub fn new_with_size(alpha: f64, size: usize) -> Result<Self, Error> {
        if !(alpha > 0.0) {
            return Err(Error("Dirichlet: alpha must be positive"));
        }
        if size < 2 {
            return Err(Error("Dirichlet: size must be at least 2"));
        }
        Ok(Dirichlet { alpha, size, _f: PhantomData })
    }
}

impl Distribution<Vec<f64>> for Dirichlet<f64> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let mut out: Vec<f64> = (0..self.size).map(|_| gamma(self.alpha, rng)).collect();
        let sum: f64 = out.iter().sum();
        if sum > 0.0 {
            for v in &mut out {
                *v /= sum;
            }
        } else {
            // Every gamma underflowed (tiny alpha): fall back to a point
            // mass so the proportions still sum to one.
            out[0] = 1.0;
        }
        out
    }
}
