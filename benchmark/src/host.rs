//! Host fingerprint recorded with every result: numbers from two machines,
//! or two builds, must not be compared as if they were one.

use crate::json::{obj, Json};

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `benchmark/run` exports what only the build step knows (`rustc`, the
/// compat patches it had to apply, the commit); they read `unknown` when the
/// executable is started by hand.
fn from_env(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| "unknown".into())
}

pub fn fingerprint() -> Json {
    let compat = from_env("SEAFL_BENCH_COMPAT");
    obj([
        ("nproc", Json::from(crate::workloads::nproc())),
        ("cpu", Json::from(cpu_model())),
        ("kernel", Json::from(seafl_tensor::kernel_variant())),
        ("rustc", Json::from(from_env("SEAFL_BENCH_RUSTC"))),
        (
            "compat_applied",
            Json::Arr(
                compat.split_whitespace().filter(|p| *p != "unknown").map(Json::from).collect(),
            ),
        ),
        ("commit", Json::from(from_env("SEAFL_BENCH_COMMIT"))),
    ])
}
