//! Small ReLU MLP used by tests and quick experiments.

use crate::activations::Relu;
use crate::dense::Dense;
use crate::flatten::Flatten;
use crate::sequential::Sequential;
use rand::Rng;

/// `in_features → hidden → hidden → classes` ReLU MLP. Accepts either
/// rank-2 `[batch, features]` or rank-4 image input (flattened internally).
pub(crate) fn mlp(
    in_features: usize,
    hidden: usize,
    num_classes: usize,
    rng: &mut impl Rng,
) -> Sequential {
    Sequential::new()
        .add(Flatten::new())
        .add(Dense::new_he(in_features, hidden, rng))
        .add(Relu::new())
        .add(Dense::new_he(hidden, hidden, rng))
        .add(Relu::new())
        .add(Dense::new(hidden, num_classes, rng))
}
