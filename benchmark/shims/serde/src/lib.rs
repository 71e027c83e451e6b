//! Stand-in for `serde` 1. The seafl library crates derive `Serialize` and
//! `Deserialize` but never serialize through them (only `seafl-bench` and
//! test code do, and the benchmark builds neither), so the derives expand
//! to nothing and no traits exist.

pub use serde_derive::{Deserialize, Serialize};
