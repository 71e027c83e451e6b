//! LeNet-5 for 28×28 single-channel inputs (the paper's EMNIST model).

use crate::activations::Relu;
use crate::conv::Conv2d;
use crate::dense::Dense;
use crate::flatten::Flatten;
use crate::pool::MaxPool2d;
use crate::sequential::Sequential;
use rand::Rng;
use seafl_tensor::conv::Conv2dGeom;

/// Classic LeNet-5 adapted to 28×28 inputs: pad the first 5×5 convolution by
/// 2 so the feature map stays 28×28, exactly the common MNIST/EMNIST setup.
///
/// conv(1→6, 5×5, pad 2) → pool 2 → conv(6→16, 5×5) → pool 2 →
/// fc 400→120 → fc 120→84 → fc 84→classes, ReLU throughout.
pub(crate) fn lenet5(num_classes: usize, rng: &mut impl Rng) -> Sequential {
    let g1 = Conv2dGeom { in_c: 1, in_h: 28, in_w: 28, k_h: 5, k_w: 5, stride: 1, pad: 2 };
    let g2 = Conv2dGeom { in_c: 6, in_h: 14, in_w: 14, k_h: 5, k_w: 5, stride: 1, pad: 0 };
    Sequential::new()
        .add(Conv2d::new(g1, 6, rng))
        .add(Relu::new())
        .add(MaxPool2d::new(2, 2))
        .add(Conv2d::new(g2, 16, rng))
        .add(Relu::new())
        .add(MaxPool2d::new(2, 2))
        .add(Flatten::new())
        .add(Dense::new(16 * 5 * 5, 120, rng))
        .add(Relu::new())
        .add(Dense::new(120, 84, rng))
        .add(Relu::new())
        .add(Dense::new(84, num_classes, rng))
}
