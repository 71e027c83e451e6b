//! Regenerate the refactor-guard digest fixtures.
//!
//! Runs every case in `seafl_core::test_support::fixture_cases` and prints
//! the file header, the numeric-epoch line and one
//! `key model_digest trace_digest` line per case — redirect into
//! `tests/fixtures/digests.txt` to re-pin:
//!
//! ```text
//! cargo run --release --example digest_fixtures > tests/fixtures/digests.txt
//! ```
//!
//! Only re-pin when a numeric change is *intended*; the point of
//! `tests/refactor_guard.rs` is that refactors reproduce these digests
//! bit for bit.

use seafl::core::run_experiment;
use seafl::core::test_support::{fixture_cases, FIXTURE_HEADER, NUMERIC_EPOCH};

fn main() {
    print!("{FIXTURE_HEADER}");
    println!("# numeric-epoch: {NUMERIC_EPOCH}");
    for case in fixture_cases() {
        let r = run_experiment(&case.cfg);
        eprintln!("{}: rounds={} termination={:?}", case.key(), r.rounds, r.termination);
        println!("{} {:016x} {:016x}", case.key(), r.model_digest, r.trace.digest());
    }
}
