//! Stand-in for `rand_chacha` 0.3. The cipher lives in the `rand` stand-in
//! (where `StdRng` needs it); this crate only gives it its usual name.

pub use rand::chacha::ChaCha12Rng;
