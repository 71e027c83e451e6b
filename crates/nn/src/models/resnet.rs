//! ResNet-18 topology for 32×32 RGB inputs (the paper's CIFAR-10 model),
//! width-scalable.

use crate::activations::Relu;
use crate::conv::Conv2d;
use crate::dense::Dense;
use crate::norm::BatchNorm2d;
use crate::pool::GlobalAvgPool;
use crate::residual::ResidualBlock;
use crate::sequential::Sequential;
use rand::Rng;
use seafl_tensor::conv::Conv2dGeom;

/// CIFAR-style ResNet-18: 3×3 stem (no max-pool), four stages of two basic
/// blocks with channel widths `w, 2w, 4w, 8w` and strides `1, 2, 2, 2`,
/// global average pooling, and a linear classifier.
///
/// `width_base = 64` gives the standard 11.2 M-parameter network; the SEAFL
/// experiments use smaller widths so hundreds of simulated clients can train
/// on one CPU while preserving the architecture's depth and skip structure.
pub(crate) fn resnet18(num_classes: usize, width_base: usize, rng: &mut impl Rng) -> Sequential {
    assert!(width_base >= 1, "resnet18: width_base must be >= 1");
    let w = width_base;
    let stem_geom = Conv2dGeom { in_c: 3, in_h: 32, in_w: 32, k_h: 3, k_w: 3, stride: 1, pad: 1 };

    let mut net = Sequential::new()
        .add(Conv2d::new(stem_geom, w, rng))
        .add(BatchNorm2d::new(w))
        .add(Relu::new());

    // (in_c, out_c, input h/w, stride) for the 8 basic blocks.
    let specs = [
        (w, w, 32usize, 1usize),
        (w, w, 32, 1),
        (w, 2 * w, 32, 2),
        (2 * w, 2 * w, 16, 1),
        (2 * w, 4 * w, 16, 2),
        (4 * w, 4 * w, 8, 1),
        (4 * w, 8 * w, 8, 2),
        (8 * w, 8 * w, 4, 1),
    ];
    for (ic, oc, hw, stride) in specs {
        net = net.add(ResidualBlock::new(ic, oc, hw, hw, stride, rng));
    }

    net.add(GlobalAvgPool::new()).add(Dense::new(8 * w, num_classes, rng))
}
