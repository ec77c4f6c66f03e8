//! Feedback-driven routing: the telemetry loop closed back into execution.
//!
//! The controller watches each (program, instance) pair's run of reads
//! and writes and decides one thing: whether an unbounded program keeps a
//! maintained materialisation. Such a program starts on semi-naive *from
//! scratch* (no maintained state, so mutations pay no carry-forward for
//! it) and is **promoted** to an attached
//! [`MaterializedFixpoint`](sirup_engine::MaterializedFixpoint) only once
//! a run of [`AdaptiveConfig::promote_after_reads`] reads arrives with no
//! intervening write. When [`AdaptiveConfig::demote_after_writes`] writes
//! arrive with no intervening read, the materialisation is **demoted** —
//! detached from the live instance so subsequent mutations stop paying
//! incremental maintenance for a program nobody is reading.
//!
//! Routing is **answer-preserving by construction**: scratch and
//! materialised evaluation compute the same unique fixpoint — the
//! differential suite pins it.
//!
//! All state lives in small atomic cells behind one mutex-guarded map;
//! routing decisions happen in the run step of each request (a batch
//! resolves its snapshots up front, so resolve-time decisions would be
//! blind to the batch's own feedback), and every write, inline or
//! batched, feeds [`AdaptiveController::record_write`].

use sirup_core::fx::FxHashMap;
use sirup_core::sync;
use sirup_core::telemetry::{counter_add, Counter};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// Knobs of the adaptive controller. `enabled: false` (the default) keeps
/// the server byte-for-byte on its static policy: always materialise
/// semi-naive programs.
///
/// ```
/// use sirup_server::adaptive::AdaptiveConfig;
///
/// // The default is fully static — nothing adapts.
/// let cfg = AdaptiveConfig::default();
/// assert!(!cfg.enabled);
///
/// // An adaptive config that promotes after 3 uninterrupted reads and
/// // demotes after 2 uninterrupted writes.
/// let cfg = AdaptiveConfig {
///     enabled: true,
///     promote_after_reads: 3,
///     demote_after_writes: 2,
/// };
/// assert!(cfg.enabled);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Master switch. `false` = static routing, exactly as before.
    pub enabled: bool,
    /// Reads with no intervening write before a semi-naive program is
    /// promoted to a maintained materialisation.
    pub promote_after_reads: u32,
    /// Writes with no intervening read before a promoted program is
    /// demoted (its materialisation detached).
    pub demote_after_writes: u32,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            enabled: false,
            promote_after_reads: 4,
            demote_after_writes: 2,
        }
    }
}

/// Hysteresis state of one (program, instance) pair.
#[derive(Debug, Default)]
struct Cell {
    /// Reads since the instance's last write.
    reads_since_write: AtomicU32,
    /// Writes since this program's last read on the instance.
    writes_since_read: AtomicU32,
    /// Whether the program is currently promoted (materialised).
    promoted: AtomicBool,
}

/// One row of the controller's route snapshot (rendered as
/// `sirup_adaptive_route{...}` samples and by `sirupctl top`).
#[derive(Debug, Clone)]
pub struct RouteInfo {
    /// The program's plan cache key.
    pub program: String,
    /// The instance name.
    pub instance: String,
    /// `"materialised"` or `"scratch"`.
    pub route: &'static str,
    /// Human-readable reason for the current route.
    pub why: String,
}

/// The feedback controller. One per [`Server`](crate::Server), consulted
/// by every request's run step.
#[derive(Debug)]
pub struct AdaptiveController {
    config: AdaptiveConfig,
    /// `(program key, instance)` → hysteresis cell.
    cells: Mutex<FxHashMap<(String, String), Arc<Cell>>>,
}

impl AdaptiveController {
    /// A controller with the given knobs.
    pub fn new(config: AdaptiveConfig) -> AdaptiveController {
        AdaptiveController {
            config,
            cells: Mutex::new(FxHashMap::default()),
        }
    }

    /// The knobs this controller runs with.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// Is adaptive routing on at all?
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    fn cell(&self, program: &str, instance: &str) -> Arc<Cell> {
        let mut cells = sync::lock(&self.cells);
        Arc::clone(
            cells
                .entry((program.to_owned(), instance.to_owned()))
                .or_default(),
        )
    }

    /// Record a semi-naive read of `program` on `instance` and decide the
    /// route: `true` = serve from (and possibly attach) the maintained
    /// materialisation, `false` = evaluate from scratch. Promotion happens
    /// here — the read that completes an uninterrupted run of
    /// [`AdaptiveConfig::promote_after_reads`] flips the cell and bumps
    /// `sirup_adaptive_promotions_total`.
    pub fn route_read(&self, program: &str, instance: &str) -> bool {
        if !self.config.enabled {
            return true;
        }
        let cell = self.cell(program, instance);
        cell.writes_since_read.store(0, Ordering::Relaxed);
        let reads = cell.reads_since_write.fetch_add(1, Ordering::Relaxed) + 1;
        if cell.promoted.load(Ordering::Relaxed) {
            return true;
        }
        if reads >= self.config.promote_after_reads
            && cell
                .promoted
                .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            counter_add(Counter::AdaptivePromotions, 1);
            return true;
        }
        false
    }

    /// Count an answer-cache-served read toward `program`'s read run on
    /// `instance` without using the route decision. Cache hits are still
    /// read demand: without this, a program whose answers never leave the
    /// cache between mutations would never accumulate a run and never
    /// promote — yet it is exactly the read-hot shape maintenance pays off
    /// for once a write invalidates the cache.
    pub fn note_read(&self, program: &str, instance: &str) {
        if self.config.enabled {
            let _ = self.route_read(program, instance);
        }
    }

    /// Record a write on `instance`. Returns the program keys demoted by
    /// this write — the caller detaches their materialisations from the
    /// live instance. A no-op (empty) when adaptive routing is off.
    pub fn record_write(&self, instance: &str) -> Vec<String> {
        if !self.config.enabled {
            return Vec::new();
        }
        let cells = sync::lock(&self.cells);
        let mut demoted = Vec::new();
        for ((program, inst), cell) in cells.iter() {
            if inst != instance {
                continue;
            }
            cell.reads_since_write.store(0, Ordering::Relaxed);
            let writes = cell.writes_since_read.fetch_add(1, Ordering::Relaxed) + 1;
            if writes >= self.config.demote_after_writes
                && cell
                    .promoted
                    .compare_exchange(true, false, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            {
                demoted.push(program.clone());
            }
        }
        demoted
    }

    /// Snapshot of every (program, instance) route for exposition, sorted
    /// by program then instance.
    pub fn routes(&self) -> Vec<RouteInfo> {
        let cells = sync::lock(&self.cells);
        let mut out: Vec<RouteInfo> = cells
            .iter()
            .map(|((program, instance), cell)| {
                let promoted = cell.promoted.load(Ordering::Relaxed);
                let reads = cell.reads_since_write.load(Ordering::Relaxed);
                let writes = cell.writes_since_read.load(Ordering::Relaxed);
                RouteInfo {
                    program: program.clone(),
                    instance: instance.clone(),
                    route: if promoted { "materialised" } else { "scratch" },
                    why: if promoted {
                        format!(
                            "reads_since_write={reads}>={}",
                            self.config.promote_after_reads
                        )
                    } else {
                        format!(
                            "reads_since_write={reads}<{} writes_since_read={writes}",
                            self.config.promote_after_reads
                        )
                    },
                }
            })
            .collect();
        out.sort_by(|a, b| (&a.program, &a.instance).cmp(&(&b.program, &b.instance)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl(promote: u32, demote: u32) -> AdaptiveController {
        AdaptiveController::new(AdaptiveConfig {
            enabled: true,
            promote_after_reads: promote,
            demote_after_writes: demote,
        })
    }

    #[test]
    fn disabled_controller_always_materialises() {
        let c = AdaptiveController::new(AdaptiveConfig::default());
        assert!(c.route_read("p", "i"));
        assert!(c.record_write("i").is_empty());
        assert!(c.routes().is_empty());
    }

    #[test]
    fn promotes_after_read_run_and_demotes_after_write_run() {
        let c = ctrl(3, 2);
        assert!(!c.route_read("p", "i")); // read 1 → scratch
        assert!(!c.route_read("p", "i")); // read 2 → scratch
        assert!(c.route_read("p", "i")); // read 3 → promoted
        assert!(c.route_read("p", "i")); // stays promoted
        assert!(c.record_write("i").is_empty()); // write 1: no demotion yet
        assert_eq!(c.record_write("i"), vec!["p".to_owned()]); // write 2: demote
        assert!(!c.route_read("p", "i")); // back to scratch, run restarts
    }

    #[test]
    fn interleaved_writes_reset_the_read_run() {
        let c = ctrl(2, 2);
        assert!(!c.route_read("p", "i"));
        c.record_write("i"); // resets the run
        assert!(!c.route_read("p", "i")); // run restarted: read 1 again
        assert!(c.route_read("p", "i")); // read 2 → promoted
    }

    #[test]
    fn cells_are_per_program_and_per_instance() {
        let c = ctrl(2, 1);
        assert!(!c.route_read("p", "a"));
        assert!(c.route_read("p", "a")); // p@a promoted
        assert!(!c.route_read("q", "a")); // q@a has its own read run
        assert!(!c.route_read("p", "b")); // p@b has its own read run
                                          // A write on `a` demotes only `p@a` — `q@a` was never promoted and
                                          // `p@b` lives on a different instance.
        assert_eq!(c.record_write("a"), vec!["p".to_owned()]);
        assert!(c.record_write("b").is_empty());
    }

    #[test]
    fn routes_snapshot_is_sorted_and_explains_itself() {
        let c = ctrl(1, 1);
        c.route_read("zz", "i");
        c.route_read("aa", "i");
        let routes = c.routes();
        assert_eq!(routes.len(), 2);
        assert_eq!(routes[0].program, "aa");
        assert_eq!(routes[0].route, "materialised");
        assert!(routes[0].why.contains("reads_since_write"));
    }
}
