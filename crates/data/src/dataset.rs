//! In-memory labelled image dataset with batch extraction.

use rand::seq::SliceRandom;
use rand::Rng;
use seafl_tensor::{Shape, Tensor};

/// A labelled image dataset stored as one contiguous `f32` buffer
/// (`[n, c, h, w]` row-major), so batch extraction is a gather of
/// contiguous image blocks.
#[derive(Clone)]
pub struct ImageDataset {
    data: Vec<f32>,
    labels: Vec<usize>,
    channels: usize,
    height: usize,
    width: usize,
    num_classes: usize,
}

impl ImageDataset {
    /// Build from a raw buffer. `data.len()` must equal
    /// `labels.len() * c * h * w`, and every label must be `< num_classes`.
    pub fn new(
        data: Vec<f32>,
        labels: Vec<usize>,
        channels: usize,
        height: usize,
        width: usize,
        num_classes: usize,
    ) -> Self {
        let img = channels * height * width;
        assert!(img > 0, "ImageDataset: zero-sized images");
        assert_eq!(
            data.len(),
            labels.len() * img,
            "ImageDataset: buffer length {} != {} images × {} pixels",
            data.len(),
            labels.len(),
            img
        );
        assert!(labels.iter().all(|&y| y < num_classes), "ImageDataset: label out of range");
        ImageDataset { data, labels, channels, height, width, num_classes }
    }

    pub fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Size of one image in scalars.
    pub(crate) fn image_len(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Gather the given sample indices into an NCHW batch tensor plus labels.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let img = self.image_len();
        let mut buf = Vec::with_capacity(indices.len() * img);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            assert!(i < self.len(), "batch: index {i} out of range ({})", self.len());
            buf.extend_from_slice(&self.data[i * img..(i + 1) * img]);
            labels.push(self.labels[i]);
        }
        (
            Tensor::from_vec(Shape::d4(indices.len(), self.channels, self.height, self.width), buf),
            labels,
        )
    }

    /// Gather the contiguous sample range `start..end` into an NCHW batch
    /// tensor plus labels. Samples are stored contiguously, so unlike
    /// [`ImageDataset::batch`] this needs no index buffer and copies the
    /// image block with a single `memcpy`-style extend — the fast path for
    /// chunked evaluation sweeps.
    pub fn batch_range(&self, range: std::ops::Range<usize>) -> (Tensor, Vec<usize>) {
        assert!(range.start <= range.end, "batch_range: start {} > end {}", range.start, range.end);
        assert!(
            range.end <= self.len(),
            "batch_range: end {} out of range ({})",
            range.end,
            self.len()
        );
        let img = self.image_len();
        let n = range.end - range.start;
        let buf = self.data[range.start * img..range.end * img].to_vec();
        let labels = self.labels[range.clone()].to_vec();
        (Tensor::from_vec(Shape::d4(n, self.channels, self.height, self.width), buf), labels)
    }

    /// The whole dataset as one batch (evaluation sets are small here).
    pub fn full_batch(&self) -> (Tensor, Vec<usize>) {
        self.batch_range(0..self.len())
    }

    /// Subset view (copies the selected images).
    pub fn subset(&self, indices: &[usize]) -> ImageDataset {
        let img = self.image_len();
        let mut data = Vec::with_capacity(indices.len() * img);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            assert!(i < self.len(), "subset: index {i} out of range");
            data.extend_from_slice(&self.data[i * img..(i + 1) * img]);
            labels.push(self.labels[i]);
        }
        ImageDataset {
            data,
            labels,
            channels: self.channels,
            height: self.height,
            width: self.width,
            num_classes: self.num_classes,
        }
    }

    /// Shuffled minibatch index plan covering the dataset once.
    pub fn epoch_batches(&self, batch_size: usize, rng: &mut impl Rng) -> Vec<Vec<usize>> {
        assert!(batch_size > 0, "epoch_batches: zero batch size");
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.shuffle(rng);
        idx.chunks(batch_size).map(|c| c.to_vec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl ImageDataset {
        /// Per-class sample counts (length `num_classes`).
        pub(crate) fn class_histogram(&self) -> Vec<usize> {
            let mut h = vec![0usize; self.num_classes];
            for &y in &self.labels {
                h[y] += 1;
            }
            h
        }
    }

    fn tiny() -> ImageDataset {
        // 4 images of 1x2x2, labels 0..=3 mod 2
        let data: Vec<f32> = (0..16).map(|i| i as f32).collect();
        ImageDataset::new(data, vec![0, 1, 0, 1], 1, 2, 2, 2)
    }

    #[test]
    fn batch_gathers_images() {
        let d = tiny();
        let (x, y) = d.batch(&[2, 0]);
        assert_eq!(x.shape(), Shape::d4(2, 1, 2, 2));
        assert_eq!(x.as_slice(), &[8., 9., 10., 11., 0., 1., 2., 3.]);
        assert_eq!(y, vec![0, 0]);
    }

    #[test]
    fn subset_and_histogram() {
        let d = tiny();
        let s = d.subset(&[1, 3]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.class_histogram(), vec![0, 2]);
        assert_eq!(d.class_histogram(), vec![2, 2]);
    }

    #[test]
    fn epoch_batches_cover_everything_once() {
        let d = tiny();
        let mut rng = StdRng::seed_from_u64(0);
        let batches = d.epoch_batches(3, &mut rng);
        let mut all: Vec<usize> = batches.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn epoch_batches_deterministic_per_seed() {
        let d = tiny();
        let b1 = d.epoch_batches(2, &mut StdRng::seed_from_u64(5));
        let b2 = d.epoch_batches(2, &mut StdRng::seed_from_u64(5));
        assert_eq!(b1, b2);
    }

    #[test]
    fn batch_range_matches_indexed_batch() {
        let d = tiny();
        let (xr, yr) = d.batch_range(1..3);
        let (xi, yi) = d.batch(&[1, 2]);
        assert_eq!(xr, xi);
        assert_eq!(yr, yi);
        let (full, _) = d.batch_range(0..d.len());
        assert_eq!(full.shape(), Shape::d4(4, 1, 2, 2));
        let (empty, labels) = d.batch_range(2..2);
        assert_eq!(empty.len(), 0);
        assert!(labels.is_empty());
    }

    #[test]
    #[should_panic(expected = "batch_range: end")]
    fn batch_range_out_of_bounds_panics() {
        tiny().batch_range(2..9);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn bad_label_panics() {
        ImageDataset::new(vec![0.0; 4], vec![2], 1, 2, 2, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn batch_index_out_of_range_panics() {
        tiny().batch(&[9]);
    }
}
