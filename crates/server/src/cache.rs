//! A small stamp-based LRU shared by the plan cache, the answer cache and
//! each catalog snapshot's set of live materialisations.
//!
//! Entries carry the tick of their last touch; eviction removes the entry
//! with the oldest stamp (an O(n) scan — fine at the cache sizes the
//! service runs with), and is the only way an entry leaves. Hit/miss counters live inside the same lock so
//! reports are consistent. A capacity of 0 disables the cache entirely:
//! probes return `None` without counting and inserts are dropped.
//!
//! The lock is taken through the poison-recovering helpers in
//! `sirup_core::sync`: a request that panics while probing (e.g. inside a
//! value's `Clone`) must not wedge every later cache access in a long-lived
//! daemon — the cached maps and counters stay structurally valid whatever
//! the panic interrupted.

use sirup_core::fx::FxHashMap;
use sirup_core::sync;
use std::sync::Mutex;

/// An LRU of `String`-keyed values with per-entry recency stamps.
#[derive(Debug)]
pub(crate) struct StampedLru<V> {
    capacity: usize,
    inner: Mutex<Inner<V>>,
}

#[derive(Debug)]
struct Inner<V> {
    map: FxHashMap<String, (V, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl<V: Clone> StampedLru<V> {
    /// A cache holding at most `capacity` values (0 disables it).
    pub fn new(capacity: usize) -> StampedLru<V> {
        StampedLru {
            capacity,
            inner: Mutex::new(Inner {
                map: FxHashMap::default(),
                tick: 0,
                hits: 0,
                misses: 0,
            }),
        }
    }

    /// Is the cache active (capacity > 0)?
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Probe for `key`, refreshing its stamp and counting a hit or miss.
    /// A disabled cache returns `None` without counting.
    pub fn get(&self, key: &str) -> Option<V> {
        if !self.enabled() {
            return None;
        }
        let mut inner = sync::lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some((value, stamp)) => {
                *stamp = tick;
                let value = value.clone();
                inner.hits += 1;
                Some(value)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) `key`, evicting the least-recently-touched
    /// entry if over capacity. A disabled cache drops the value.
    pub fn insert(&self, key: String, value: V) {
        if !self.enabled() {
            return;
        }
        let mut inner = sync::lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(key, (value, tick));
        if inner.map.len() > self.capacity {
            if let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&oldest);
            }
        }
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        let inner = sync::lock(&self.inner);
        (inner.hits, inner.misses)
    }

    /// Number of cached values.
    pub fn len(&self) -> usize {
        sync::lock(&self.inner).map.len()
    }

    /// Snapshot of all entries (unordered). Stamps are not refreshed.
    pub fn entries(&self) -> Vec<(String, V)> {
        sync::lock(&self.inner)
            .map
            .iter()
            .map(|(k, (v, _))| (k.clone(), v.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_oldest_and_counts() {
        let c: StampedLru<u32> = StampedLru::new(2);
        assert!(c.enabled());
        assert_eq!(c.get("a"), None); // miss
        c.insert("a".into(), 1);
        c.insert("b".into(), 2);
        assert_eq!(c.get("a"), Some(1)); // hit, refreshes a
        c.insert("c".into(), 3); // evicts b (oldest stamp)
        assert_eq!(c.len(), 2);
        assert_eq!(c.get("b"), None);
        assert_eq!(c.get("c"), Some(3));
        assert_eq!(c.stats(), (2, 2));
    }

    #[test]
    fn cache_survives_a_panic_under_its_lock() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        // A value whose Clone panics while armed — the panic fires inside
        // `get`, with the cache's mutex held.
        #[derive(Debug)]
        struct Grenade(Arc<AtomicBool>);
        impl Clone for Grenade {
            fn clone(&self) -> Grenade {
                if self.0.load(Ordering::SeqCst) {
                    panic!("panic under the cache lock");
                }
                Grenade(Arc::clone(&self.0))
            }
        }

        let armed = Arc::new(AtomicBool::new(false));
        let c: Arc<StampedLru<Grenade>> = Arc::new(StampedLru::new(4));
        c.insert("k".into(), Grenade(Arc::clone(&armed)));
        armed.store(true, Ordering::SeqCst);
        let c2 = Arc::clone(&c);
        let result = std::thread::spawn(move || c2.get("k")).join();
        assert!(result.is_err(), "the armed clone must panic");
        armed.store(false, Ordering::SeqCst);
        // The poisoned lock is recovered: probes, inserts, and stats all
        // keep working (the interrupted probe never reached its counter).
        assert!(c.get("k").is_some());
        c.insert("other".into(), Grenade(Arc::new(AtomicBool::new(false))));
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats(), (1, 0));
    }

    #[test]
    fn zero_capacity_disables() {
        let c: StampedLru<u32> = StampedLru::new(0);
        assert!(!c.enabled());
        c.insert("a".into(), 1);
        assert_eq!(c.get("a"), None);
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats(), (0, 0), "disabled cache must not count");
    }
}
