//! # seafl
//!
//! Facade crate for the SEAFL workspace — a from-scratch Rust reproduction
//! of *"SEAFL: Enhancing Efficiency in Semi-Asynchronous Federated Learning
//! through Adaptive Aggregation and Selective Training"* (IPDPS 2025).
//!
//! The workspace layers, re-exported here:
//!
//! * [`tensor`] — dense `f32` tensors, rayon-parallel GEMM, im2col-free
//!   convolution, pooling.
//! * [`nn`] — layers with explicit backward passes, the paper's model zoo
//!   (LeNet-5, ResNet-18, VGG-16, width-scalable), SGD.
//! * [`data`] — synthetic federated datasets, Dirichlet and IID
//!   partitioners, Zipf/Pareto workload samplers.
//! * [`sim`] — deterministic discrete-event simulation of heterogeneous
//!   device fleets (virtual clock, event queue, device/network models).
//! * [`core`] — the SEAFL framework itself: adaptive staleness- and
//!   importance-weighted aggregation (paper Eqs. 4–8), the SEAFL² partial
//!   training extension, and the FedAvg/FedAsync/FedBuff baselines.
//!
//! ## Quickstart
//!
//! ```no_run
//! use seafl::core::{run_experiment, Algorithm, ExperimentConfig};
//!
//! // 40 heterogeneous devices, SEAFL server: buffer K = 5, staleness limit 10.
//! let config = ExperimentConfig::quick(1, Algorithm::seafl(10, 5, Some(10)));
//! let result = run_experiment(&config);
//! println!("time to 80%: {:?}", result.time_to_accuracy(0.80));
//! ```

pub use seafl_core as core;
pub use seafl_data as data;
pub use seafl_nn as nn;
pub use seafl_sim as sim;
pub use seafl_tensor as tensor;
