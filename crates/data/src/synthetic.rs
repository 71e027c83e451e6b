//! Procedural class-prototype image datasets.
//!
//! Each class is a smooth random field (a coarse Gaussian grid bilinearly
//! upsampled to the target resolution). A sample is its class prototype,
//! scaled by a per-sample amplitude jitter, optionally contaminated by a
//! second class's prototype (`confusion`), plus white pixel noise. The
//! result is a classification task that (a) is genuinely learnable by the
//! paper's convolutional models, (b) has tunable difficulty, and (c) needs
//! no external data — see DESIGN.md §2 for the substitution argument.

use crate::dataset::ImageDataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};

/// Generation parameters for one synthetic classification task.
#[derive(Clone, Copy, Debug)]
pub struct SyntheticSpec {
    /// Human-readable name used in experiment logs.
    pub name: &'static str,
    pub channels: usize,
    pub height: usize,
    pub width: usize,
    pub num_classes: usize,
    /// Coarse grid resolution the prototypes are sampled at (smaller =
    /// smoother, easier).
    pub proto_grid: usize,
    /// Std-dev of white pixel noise added to every sample.
    pub noise_std: f32,
    /// Per-sample amplitude jitter: amplitude ~ U(1-j, 1+j).
    pub amp_jitter: f32,
    /// Weight of a randomly chosen *other* class prototype mixed into each
    /// sample — raises Bayes error, making the task harder (CINIC-like).
    pub confusion: f32,
}

impl SyntheticSpec {
    /// EMNIST-digits-like: 28×28 grayscale, 10 classes, mild noise. Stands
    /// in for the paper's EMNIST/LeNet-5 workload.
    pub fn emnist_like() -> Self {
        SyntheticSpec {
            name: "emnist-like",
            channels: 1,
            height: 28,
            width: 28,
            num_classes: 10,
            proto_grid: 7,
            noise_std: 0.35,
            amp_jitter: 0.3,
            confusion: 0.0,
        }
    }

    /// CIFAR-10-like: 32×32 RGB, 10 classes, heavier noise and mild class
    /// confusion. Stands in for the CIFAR-10/ResNet-18 workload.
    pub fn cifar10_like() -> Self {
        SyntheticSpec {
            name: "cifar10-like",
            channels: 3,
            height: 32,
            width: 32,
            num_classes: 10,
            proto_grid: 8,
            noise_std: 0.55,
            amp_jitter: 0.4,
            confusion: 0.15,
        }
    }

    /// CINIC-10-like: CIFAR shape but noisier and more confusable — CINIC-10
    /// mixes CIFAR and downsampled ImageNet and is empirically harder.
    /// Stands in for the CINIC-10/VGG-16 workload.
    pub fn cinic10_like() -> Self {
        SyntheticSpec {
            name: "cinic10-like",
            channels: 3,
            height: 32,
            width: 32,
            num_classes: 10,
            proto_grid: 8,
            noise_std: 0.7,
            amp_jitter: 0.5,
            confusion: 0.25,
        }
    }

    /// Generate a full task: per-class prototypes plus train/test sets.
    pub fn generate(
        &self,
        train_per_class: usize,
        test_per_class: usize,
        seed: u64,
    ) -> SyntheticTask {
        let TaskPlan { train, test } = self.plan(train_per_class, test_per_class, seed);
        let all: Vec<usize> = (0..train.len()).collect();
        SyntheticTask { train: train.subset(&all), test }
    }

    /// Plan a task without making its training set: the prototypes, where
    /// each training sample starts in the keystream, and the test set, made
    /// now. [`TrainPlan::subset`] then makes any training samples, equal
    /// bit for bit to the same samples of [`generate`](Self::generate).
    ///
    /// Sample `s + 1` starts where `s` ends: one word for the amplitude, the
    /// words of the confusion draw, and four words of noise per pixel. The
    /// confusion draw rejects a variable number of words, so with
    /// `confusion > 0` the plan seeks to each sample's draw and counts them.
    pub fn plan(&self, train_per_class: usize, test_per_class: usize, seed: u64) -> TaskPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let protos: Vec<Vec<f32>> =
            (0..self.num_classes).map(|_| self.sample_prototype(&mut rng)).collect();

        let labels = self.class_major_labels(train_per_class);
        let fixed = 1 + WORDS_PER_NORMAL * self.image_len() as u64;
        let mut probe = rng.clone();
        let mut at = rng.get_word_pos() as u64;
        let mut starts = Vec::with_capacity(labels.len() + 1);
        for &class in &labels {
            starts.push(at);
            let mut words = fixed;
            if self.confuses() {
                probe.set_word_pos(u128::from(at + 1));
                self.confusion_class(class, &mut probe);
                words += probe.get_word_pos() as u64 - (at + 1);
            }
            at += words;
        }
        starts.push(at);
        let train = TrainPlan { spec: *self, protos, rng, starts, labels };

        // The test set starts where the training set ends. Making the last
        // training sample checks that end before the test set relies on it.
        if let Some(last) = train.len().checked_sub(1) {
            train.subset(&[last]);
        }
        let mut rng = train.rng.clone();
        rng.set_word_pos(u128::from(at));
        let test_labels = self.class_major_labels(test_per_class);
        let mut data = Vec::with_capacity(test_labels.len() * self.image_len());
        for &class in &test_labels {
            self.sample_into(&train.protos, class, &mut rng, &mut data);
        }
        TaskPlan { test: self.dataset(data, test_labels), train }
    }

    fn image_len(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// `per_class` samples of class 0, then of class 1, and so on.
    fn class_major_labels(&self, per_class: usize) -> Vec<usize> {
        (0..self.num_classes).flat_map(|c| std::iter::repeat_n(c, per_class)).collect()
    }

    fn dataset(&self, data: Vec<f32>, labels: Vec<usize>) -> ImageDataset {
        ImageDataset::new(data, labels, self.channels, self.height, self.width, self.num_classes)
    }

    /// Smooth random field: N(0,1) on a `proto_grid²` lattice per channel,
    /// bilinearly upsampled.
    fn sample_prototype(&self, rng: &mut StdRng) -> Vec<f32> {
        let g = self.proto_grid;
        let normal = Normal::new(0.0f64, 1.0).unwrap();
        let mut out = vec![0.0f32; self.image_len()];
        for c in 0..self.channels {
            let grid: Vec<f32> = (0..g * g).map(|_| normal.sample(rng) as f32).collect();
            for y in 0..self.height {
                for x in 0..self.width {
                    // Map pixel to grid coordinates in [0, g-1].
                    let gy = y as f32 / (self.height - 1).max(1) as f32 * (g - 1) as f32;
                    let gx = x as f32 / (self.width - 1).max(1) as f32 * (g - 1) as f32;
                    let (y0, x0) = (gy.floor() as usize, gx.floor() as usize);
                    let (y1, x1) = ((y0 + 1).min(g - 1), (x0 + 1).min(g - 1));
                    let (fy, fx) = (gy - y0 as f32, gx - x0 as f32);
                    let v00 = grid[y0 * g + x0];
                    let v01 = grid[y0 * g + x1];
                    let v10 = grid[y1 * g + x0];
                    let v11 = grid[y1 * g + x1];
                    let v = v00 * (1.0 - fy) * (1.0 - fx)
                        + v01 * (1.0 - fy) * fx
                        + v10 * fy * (1.0 - fx)
                        + v11 * fy * fx;
                    out[(c * self.height + y) * self.width + x] = v;
                }
            }
        }
        out
    }

    /// True when every sample mixes in a second class's prototype.
    fn confuses(&self) -> bool {
        self.confusion > 0.0 && self.num_classes > 1
    }

    /// The other class mixed into a sample of `class`, drawn uniformly
    /// (`None`, with no draw, when the spec has no confusion).
    fn confusion_class(&self, class: usize, rng: &mut StdRng) -> Option<usize> {
        if !self.confuses() {
            return None;
        }
        let o = rng.gen_range(0..self.num_classes - 1);
        Some(if o >= class { o + 1 } else { o })
    }

    /// Append one sample of `class` to `out`: amplitude, confusion draw,
    /// then one noise draw per pixel.
    fn sample_into(&self, protos: &[Vec<f32>], class: usize, rng: &mut StdRng, out: &mut Vec<f32>) {
        let noise = Normal::new(0.0f64, self.noise_std as f64).unwrap();
        let amp = 1.0 + self.amp_jitter * (rng.gen::<f32>() * 2.0 - 1.0);
        let other = self.confusion_class(class, rng).map(|o| &protos[o]);
        let proto = &protos[class];
        for i in 0..self.image_len() {
            let mut v = amp * proto[i];
            if let Some(op) = other {
                v += self.confusion * op[i];
            }
            v += noise.sample(rng) as f32;
            out.push(v);
        }
    }
}

/// Keystream words one pixel's noise takes: `rand_distr`'s Box–Muller
/// `Normal` (the stand-in the workspace builds against) reads two `u64`s
/// per draw. [`TrainPlan::subset`] asserts every sample ends where the plan
/// says, so a sampler with another word count panics instead of shifting
/// the data.
const WORDS_PER_NORMAL: u64 = 4;

/// A task planned by [`SyntheticSpec::plan`]: the training set as a
/// keystream plan, the test set made.
pub struct TaskPlan {
    pub train: TrainPlan,
    pub test: ImageDataset,
}

/// Where each training sample of a planned task starts in the keystream,
/// and its label. Any subset of samples can be made in any order, on any
/// thread.
pub struct TrainPlan {
    spec: SyntheticSpec,
    protos: Vec<Vec<f32>>,
    /// The generator just after the prototypes, where sample 0 starts.
    rng: StdRng,
    /// `starts[s]` is the word sample `s` starts at; the last entry is
    /// where the training set ends.
    starts: Vec<u64>,
    labels: Vec<usize>,
}

impl TrainPlan {
    /// Number of training samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Every training sample's label, as [`ImageDataset::labels`] of the
    /// generated training set.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Make the given samples, equal bit for bit to
    /// `generate(..).train.subset(indices)`. Consecutive samples read on
    /// without a seek.
    pub fn subset(&self, indices: &[usize]) -> ImageDataset {
        let mut data = Vec::with_capacity(indices.len() * self.spec.image_len());
        let mut labels = Vec::with_capacity(indices.len());
        let mut rng = self.rng.clone();
        for &i in indices {
            assert!(i < self.len(), "subset: index {i} out of range");
            let start = u128::from(self.starts[i]);
            if rng.get_word_pos() != start {
                rng.set_word_pos(start);
            }
            self.spec.sample_into(&self.protos, self.labels[i], &mut rng, &mut data);
            assert_eq!(
                rng.get_word_pos(),
                u128::from(self.starts[i + 1]),
                "sample {i} did not end where the plan says: the sampler's keystream use changed"
            );
            labels.push(self.labels[i]);
        }
        self.spec.dataset(data, labels)
    }
}

/// A generated task: spec + train + test sets.
#[derive(Clone)]
pub struct SyntheticTask {
    pub train: ImageDataset,
    pub test: ImageDataset,
}

/// Apply a client-specific affine feature shift `x ← scale·x + bias` to a
/// dataset copy.
///
/// Label-skew (Dirichlet) is one axis of statistical heterogeneity; the
/// other is *feature* skew — each device's sensor/camera sees the world
/// differently (FEMNIST writers, camera white balance). Composing this with
/// any partitioner yields feature-shifted federations.
pub fn apply_feature_shift(ds: &ImageDataset, scale: f32, bias: f32) -> ImageDataset {
    assert!(scale.is_finite() && bias.is_finite(), "non-finite feature shift");
    let (x, y) = ds.full_batch();
    let shifted = x.map(|v| scale * v + bias);
    ImageDataset::new(
        shifted.into_vec(),
        y,
        ds.channels(),
        ds.height(),
        ds.width(),
        ds.num_classes(),
    )
}

/// Sample a per-client `(scale, bias)` feature shift: `scale ~ N(1, σ)`
/// (clamped positive), `bias ~ N(0, σ)`.
pub fn sample_feature_shift(sigma: f32, rng: &mut impl Rng) -> (f32, f32) {
    assert!(sigma >= 0.0, "negative feature-shift sigma");
    let n = Normal::new(0.0f64, sigma as f64).expect("valid normal");
    let scale = (1.0 + n.sample(rng) as f32).max(0.1);
    let bias = n.sample(rng) as f32;
    (scale, bias)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_counts_and_shapes() {
        let task = SyntheticSpec::emnist_like().generate(5, 3, 0);
        assert_eq!(task.train.len(), 50);
        assert_eq!(task.test.len(), 30);
        assert_eq!(task.train.channels(), 1);
        assert_eq!(task.train.height(), 28);
        assert_eq!(task.train.class_histogram(), vec![5; 10]);
    }

    #[test]
    fn plan_subsets_equal_generated_subsets() {
        for spec in [SyntheticSpec::emnist_like(), SyntheticSpec::cinic10_like()] {
            let task = spec.generate(4, 2, 5);
            let plan = spec.plan(4, 2, 5);
            assert_eq!(plan.train.labels(), task.train.labels());
            assert_eq!(plan.test.full_batch(), task.test.full_batch());
            for idx in [vec![], vec![39], vec![7, 3, 3, 38, 0, 1, 2]] {
                let (want, _) = task.train.subset(&idx).full_batch();
                let (got, labels) = plan.train.subset(&idx).full_batch();
                let bits = |t: &seafl_tensor::Tensor| -> Vec<u32> {
                    t.as_slice().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(&got), bits(&want), "{} {idx:?}", spec.name);
                assert_eq!(labels, task.train.subset(&idx).labels());
            }
        }
    }

    #[test]
    #[should_panic(expected = "did not end where the plan says")]
    fn a_sample_off_its_plan_panics() {
        let mut plan = SyntheticSpec::emnist_like().plan(2, 1, 0);
        plan.train.starts[1] += 1;
        plan.train.subset(&[0]);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = SyntheticSpec::cifar10_like().generate(2, 1, 42);
        let b = SyntheticSpec::cifar10_like().generate(2, 1, 42);
        let (xa, _) = a.train.full_batch();
        let (xb, _) = b.train.full_batch();
        assert_eq!(xa, xb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticSpec::emnist_like().generate(2, 1, 1);
        let b = SyntheticSpec::emnist_like().generate(2, 1, 2);
        let (xa, _) = a.train.full_batch();
        let (xb, _) = b.train.full_batch();
        assert!(xa.max_abs_diff(&xb) > 0.01);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn classes_are_separable_by_nearest_prototype() {
        // Sanity: with mild noise, a nearest-class-mean classifier built on
        // train must beat chance on test by a wide margin.
        let task = SyntheticSpec::emnist_like().generate(20, 10, 7);
        let img = task.train.image_len();
        let (xtr, ytr) = task.train.full_batch();
        let mut means = vec![vec![0.0f32; img]; 10];
        let mut counts = [0usize; 10];
        for (i, &y) in ytr.iter().enumerate() {
            counts[y] += 1;
            for j in 0..img {
                means[y][j] += xtr.as_slice()[i * img + j];
            }
        }
        for (m, &c) in means.iter_mut().zip(counts.iter()) {
            m.iter_mut().for_each(|v| *v /= c as f32);
        }
        let (xte, yte) = task.test.full_batch();
        let mut correct = 0;
        for (i, &y) in yte.iter().enumerate() {
            let sample = &xte.as_slice()[i * img..(i + 1) * img];
            let best = (0..10)
                .min_by(|&a, &b| {
                    let da: f32 =
                        sample.iter().zip(&means[a]).map(|(s, m)| (s - m) * (s - m)).sum();
                    let db: f32 =
                        sample.iter().zip(&means[b]).map(|(s, m)| (s - m) * (s - m)).sum();
                    da.partial_cmp(&db).unwrap()
                })
                .unwrap();
            if best == y {
                correct += 1;
            }
        }
        let acc = correct as f64 / yte.len() as f64;
        assert!(acc > 0.6, "nearest-mean accuracy only {acc}");
    }

    #[test]
    fn cinic_like_is_harder_than_emnist_like() {
        // Harder spec => lower nearest-prototype accuracy on average. We
        // verify the noise/confusion knobs are actually larger.
        let e = SyntheticSpec::emnist_like();
        let c = SyntheticSpec::cinic10_like();
        assert!(c.noise_std > e.noise_std);
        assert!(c.confusion > e.confusion);
    }

    #[test]
    fn feature_shift_is_affine_and_preserves_labels() {
        let task = SyntheticSpec::emnist_like().generate(2, 1, 3);
        let shifted = apply_feature_shift(&task.train, 2.0, -0.5);
        assert_eq!(shifted.labels(), task.train.labels());
        let (x0, _) = task.train.full_batch();
        let (x1, _) = shifted.full_batch();
        for (a, b) in x0.as_slice().iter().zip(x1.as_slice().iter()) {
            assert!((b - (2.0 * a - 0.5)).abs() < 1e-6);
        }
    }

    #[test]
    fn sampled_shifts_vary_and_scale_stays_positive() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let shifts: Vec<(f32, f32)> =
            (0..100).map(|_| sample_feature_shift(0.5, &mut rng)).collect();
        assert!(shifts.iter().all(|&(s, _)| s >= 0.1));
        let (s0, b0) = shifts[0];
        assert!(shifts.iter().any(|&(s, b)| s != s0 || b != b0));
        // sigma = 0 is the identity shift.
        assert_eq!(sample_feature_shift(0.0, &mut rng), (1.0, 0.0));
    }
}
