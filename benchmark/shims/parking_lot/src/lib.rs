//! Stand-in for `parking_lot` 0.12: `std::sync::Mutex` with parking_lot's
//! poison-free `lock()` signature. `seafl-core::pool` uses nothing else.

use std::sync::MutexGuard;

#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// parking_lot has no poisoning: a panic while holding the guard leaves
    /// the data as it was, and later lockers proceed.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}
