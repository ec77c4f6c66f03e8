//! Poison-recovering lock helpers.
//!
//! `std` mutexes poison when a holder panics, and every subsequent
//! `lock().unwrap()` then panics too — in a long-lived daemon one
//! panicking request would wedge every lock it ever touched (the answer
//! cache, the catalog map, the catalog's writer locks) for the rest of the
//! process. All the workspace's guarded state is either a plain value map
//! (caches, counters) or guards nothing itself (a catalog write swaps its
//! new snapshot in last, so one that panics leaves the old one standing;
//! on a durable server a write that panics after its log append also
//! fails the log, so later writes are refused until a restart), so the
//! right recovery is always the same: take the guard anyway and keep
//! serving. These helpers centralise that policy; service-layer code
//! calls them instead of `lock().unwrap()`.
//!
//! A recovery is no longer silent: each one bumps the registry's
//! `sirup_lock_poison_recovered_total` counter and leaves a warn-level
//! trace span behind, so a panicking lock holder is visible post-hoc in
//! `metrics` / `trace` output even though service kept going.

use crate::telemetry;
use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Lock a mutex, recovering the guard if a previous holder panicked.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| {
        telemetry::poison_recovered("mutex_lock");
        e.into_inner()
    })
}

/// Read-lock an `RwLock`, recovering from poison.
pub fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| {
        telemetry::poison_recovered("rwlock_read");
        e.into_inner()
    })
}

/// Write-lock an `RwLock`, recovering from poison.
pub fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| {
        telemetry::poison_recovered("rwlock_write");
        e.into_inner()
    })
}

/// Wait on a condvar, recovering the guard if the mutex was poisoned while
/// parked.
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(|e| {
        telemetry::poison_recovered("condvar_wait");
        e.into_inner()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_recovers_from_poison() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        // Poison the mutex: panic while holding it.
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison injection");
        })
        .join();
        assert!(m.lock().is_err(), "mutex must actually be poisoned");
        assert_eq!(*lock(&m), 7);
        *lock(&m) = 8;
        assert_eq!(*lock(&m), 8);
    }

    #[test]
    fn rwlock_recovers_from_poison() {
        let l = Arc::new(RwLock::new(1u32));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write().unwrap();
            panic!("poison injection");
        })
        .join();
        assert_eq!(*read(&l), 1);
        *write(&l) = 2;
        assert_eq!(*read(&l), 2);
    }

    #[test]
    fn poison_recovery_is_counted_and_leaves_a_warn_span() {
        telemetry::set_enabled(true);
        let before = telemetry::snapshot().counter("sirup_lock_poison_recovered_total");
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison injection");
        })
        .join();
        assert!(m.lock().is_err(), "mutex must actually be poisoned");
        // Two recoveries through the helper: each must be counted.
        assert_eq!(*lock(&m), 0);
        *lock(&m) = 3;
        let after = telemetry::snapshot().counter("sirup_lock_poison_recovered_total");
        assert!(after >= before + 2, "{before} -> {after}");
        // And the event is visible post-hoc as a warn-level span, even with
        // tracing off.
        let spans = telemetry::recent_spans();
        assert!(spans.iter().any(|s| {
            s.level == telemetry::Level::Warn
                && s.name == "lock_poison_recovered"
                && s.detail.as_deref() == Some("mutex_lock")
        }));
    }
}
