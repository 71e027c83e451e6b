//! # seafl-nn
//!
//! Neural-network substrate for the SEAFL reproduction: layers with explicit
//! forward/backward passes, the three model families the paper evaluates
//! (LeNet-5, ResNet-18, VGG-16 — the latter two width-scalable so CPU-only
//! federated simulation stays tractable), a softmax–cross-entropy loss, and
//! an SGD optimizer with momentum.
//!
//! ## Design
//!
//! There is no autograd tape. Every `Layer` caches what its backward pass
//! needs during `forward` and implements `backward` explicitly. This keeps
//! the hot path allocation-light and the whole stack compact — federated
//! aggregation only ever sees models as flat parameter vectors (see
//! [`Model::params_flat`]), which is exactly the representation SEAFL's
//! staleness/importance weighting (Eqs. 4–6 of the paper) operates on.

pub(crate) mod activations;
pub(crate) mod conv;
pub(crate) mod dense;
pub(crate) mod flatten;
pub(crate) mod layer;
pub(crate) mod loss;
pub(crate) mod models;
pub(crate) mod norm;
pub(crate) mod optim;
pub(crate) mod pool;
pub(crate) mod residual;
pub(crate) mod sequential;

pub use models::{Model, ModelKind};
pub use optim::Sgd;
