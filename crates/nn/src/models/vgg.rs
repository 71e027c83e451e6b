//! VGG-16 topology for 32×32 RGB inputs (the paper's CINIC-10 model),
//! width-scalable, with batch normalization.

use crate::activations::Relu;
use crate::conv::Conv2d;
use crate::dense::Dense;
use crate::flatten::Flatten;
use crate::norm::BatchNorm2d;
use crate::pool::MaxPool2d;
use crate::sequential::Sequential;
use rand::Rng;
use seafl_tensor::conv::Conv2dGeom;

/// Marker for a max-pool position in the VGG configuration string.
const M: usize = 0;

/// VGG-16 ("configuration D") with batch norm: thirteen 3×3 convolutions in
/// five blocks separated by 2×2 max-pools, then a single linear classifier
/// (the CIFAR-style variant — the original 4096-wide FC head is an
/// ImageNet-ism that would dwarf the conv trunk at 32×32).
///
/// `width_base = 64` recovers the standard channel plan
/// `[64,64, M, 128,128, M, 256,256,256, M, 512,512,512, M, 512,512,512, M]`.
pub(crate) fn vgg16(num_classes: usize, width_base: usize, rng: &mut impl Rng) -> Sequential {
    assert!(width_base >= 1, "vgg16: width_base must be >= 1");
    let w = width_base;
    let cfg = [
        w,
        w,
        M,
        2 * w,
        2 * w,
        M,
        4 * w,
        4 * w,
        4 * w,
        M,
        8 * w,
        8 * w,
        8 * w,
        M,
        8 * w,
        8 * w,
        8 * w,
        M,
    ];

    let mut net = Sequential::new();
    let mut in_c = 3usize;
    let mut hw = 32usize;
    for &c in &cfg {
        if c == M {
            net = net.add(MaxPool2d::new(2, 2));
            hw /= 2;
        } else {
            let g = Conv2dGeom { in_c, in_h: hw, in_w: hw, k_h: 3, k_w: 3, stride: 1, pad: 1 };
            net = net.add(Conv2d::new(g, c, rng)).add(BatchNorm2d::new(c)).add(Relu::new());
            in_c = c;
        }
    }
    debug_assert_eq!(hw, 1, "five pools on 32x32 leave a 1x1 map");

    net.add(Flatten::new()).add(Dense::new(8 * w, num_classes, rng))
}
