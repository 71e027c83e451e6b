//! # seafl-data
//!
//! Synthetic federated datasets and workload samplers for the SEAFL
//! reproduction.
//!
//! The paper evaluates on EMNIST, CIFAR-10 and CINIC-10 with non-IID client
//! splits from a Dirichlet distribution. Those corpora are not available
//! offline, so this crate provides procedurally generated class-prototype
//! image datasets with matched shapes and tunable difficulty
//! ([`synthetic`]), the same Dirichlet and IID partitioners
//! (`partition`), and the Zipf/Pareto device-speed samplers the paper's
//! testbed uses ([`sampling`]). See DESIGN.md §2 for why this substitution
//! preserves the experimental signal.

pub(crate) mod dataset;
pub(crate) mod partition;
pub mod sampling;
pub mod synthetic;

pub use dataset::ImageDataset;
pub use partition::{dirichlet_partition, iid_partition};
pub use synthetic::{SyntheticSpec, TaskPlan, TrainPlan};
