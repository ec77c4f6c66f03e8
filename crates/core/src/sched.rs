//! A shared work-stealing scheduler for intra- and inter-request
//! parallelism.
//!
//! Every heavy evaluation path in this workspace — plan enumeration, the
//! semi-naive fixpoint, UCQ disjuncts, a server batch's requests — runs as
//! **splittable tasks** on one [`Scheduler`]: a fixed set of worker threads
//! (`std::thread` — crates.io is unreachable, so no rayon) with **per-worker
//! deques** for fine-grained subtasks, a **FIFO injector** for detached
//! request-level jobs, and `Mutex`/`Condvar` sleeping. Request-level tasks
//! and intra-request subtasks share the same workers, so one expensive
//! fixpoint can saturate the machine while lighter requests interleave.
//!
//! ## Two task classes, two queues
//!
//! * **Detached jobs** ([`Scheduler::spawn`]) are `'static` closures — the
//!   server's per-request work items. They enter a global FIFO and are only
//!   ever started by a worker's *top-level* loop. The FIFO order is
//!   load-bearing: the server's mutation tickets are reserved atomically
//!   with the injector append, and a worker blocked on a predecessor ticket
//!   can rely on that predecessor having been dequeued first (see the
//!   ordering argument in `DESIGN.md`).
//! * **Scoped subtasks** ([`Scheduler::scope`], [`Scope::spawn`]) may borrow
//!   the caller's stack. The scope owner *helps* — it executes subtasks
//!   itself while waiting — and `scope` does not return until every spawned
//!   subtask has completed, which is what makes the lifetime erasure behind
//!   `Scope::spawn` sound. Helping threads **never** pop the injector:
//!   starting a second (possibly ticket-blocked) request-level job from
//!   inside a running one could deadlock the ticket sequencer.
//!
//! ## Cancellation
//!
//! A [`CancelToken`] is a shared flag checked cooperatively: parallel
//! `exists` flips it on the first witness, parallel UCQ evaluation on the
//! first matching disjunct, and the plan executor polls it per backtracking
//! node. Cancellation is advisory — a task that misses the flag merely does
//! redundant work, never produces a wrong answer.
//!
//! ## Zero-overhead fallback
//!
//! Callers gate splitting on a [`ParCtx`] threshold: work smaller than the
//! threshold runs on the caller's thread through the exact sequential code
//! path, so small instances pay nothing. The sequential paths also remain
//! the differential-test oracle for every parallel path.

use crate::telemetry;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A boxed, type-erased unit of work.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// A shared cancellation flag. Clones observe the same flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Raise the flag.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Has the flag been raised?
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Parallel-execution context handed down the evaluation stack: which
/// scheduler to split on and how big a work set must be to bother.
#[derive(Debug, Clone, Copy)]
pub struct ParCtx<'a> {
    /// The shared scheduler.
    pub sched: &'a Scheduler,
    /// Minimum work-set size (domain cardinality, candidate count, node
    /// count) below which callers stay on the sequential path.
    pub threshold: usize,
}

impl<'a> ParCtx<'a> {
    /// A context splitting work sets of at least `threshold` items.
    pub fn new(sched: &'a Scheduler, threshold: usize) -> ParCtx<'a> {
        ParCtx { sched, threshold }
    }

    /// Should a work set of `n` items be split?
    #[inline]
    pub fn should_split(&self, n: usize) -> bool {
        n >= self.threshold.max(2)
    }

    /// How many chunks to split a work set into: enough to feed every
    /// worker plus the helping owner, with a little slack for imbalance.
    pub fn fanout(&self) -> usize {
        (self.sched.workers() + 1) * 2
    }

    /// Take a node buffer from the executing worker's scratch arena
    /// ([`crate::arena`]). Scratch is thread-local, so a `ParCtx` flowing
    /// through scoped subtasks hands each worker its *own* pool — this
    /// method just makes the arena discoverable from the context that
    /// evaluation code already threads everywhere. Return the buffer with
    /// [`crate::arena::put_node_vec`].
    #[inline]
    pub fn scratch_node_vec(&self) -> Vec<crate::structure::Node> {
        crate::arena::take_node_vec()
    }
}

/// Point-in-time scheduler counters (for `sirupctl stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Worker threads.
    pub workers: usize,
    /// Detached jobs spawned over the scheduler's lifetime.
    pub jobs_spawned: u64,
    /// Scoped subtasks spawned.
    pub subtasks_spawned: u64,
    /// Subtasks executed by a thread other than the one that pushed them.
    pub steals: u64,
    /// High-water mark of any single queue's depth.
    pub max_queue_depth: u64,
}

thread_local! {
    static WORKER: std::cell::Cell<Option<(usize, usize)>> = const { std::cell::Cell::new(None) };
}

/// Scheduler ids distinguish workers of coexisting schedulers (tests build
/// several).
static NEXT_SCHED_ID: AtomicUsize = AtomicUsize::new(1);

struct Inner {
    id: usize,
    /// `queues[w]` for worker `w`; `queues[workers]` is the shared slot
    /// external threads push scoped subtasks to. Own pushes/pops are
    /// front-side (LIFO, cache-warm); steals take the back (FIFO).
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Detached request-level jobs, strictly FIFO.
    injector: Mutex<VecDeque<Task>>,
    /// Sleep coordination: pushers take this lock before notifying, workers
    /// re-check for work under it before waiting.
    sleep: Mutex<()>,
    cv: Condvar,
    shutdown: AtomicBool,
    jobs_spawned: AtomicU64,
    subtasks_spawned: AtomicU64,
    steals: AtomicU64,
    max_queue_depth: AtomicU64,
}

impl Inner {
    fn workers(&self) -> usize {
        self.queues.len() - 1
    }

    fn note_depth(&self, depth: usize) {
        self.max_queue_depth
            .fetch_max(depth as u64, Ordering::Relaxed);
        telemetry::gauge_max(telemetry::Gauge::QueueDepthMax, depth as u64);
    }

    /// The queue index this thread pushes scoped subtasks to: its own deque
    /// if it is one of this scheduler's workers, the shared slot otherwise.
    fn local_slot(&self) -> usize {
        match WORKER.with(|w| w.get()) {
            Some((sched, index)) if sched == self.id => index,
            _ => self.workers(),
        }
    }

    fn push_subtask(&self, task: Task) {
        self.subtasks_spawned.fetch_add(1, Ordering::Relaxed);
        let slot = self.local_slot();
        {
            let mut q = self.queues[slot].lock().unwrap();
            q.push_front(task);
            self.note_depth(q.len());
        }
        self.notify();
    }

    /// Append a detached job, unless shutdown has begun — the check and
    /// the append share the injector lock, and [`Scheduler::shutdown`]
    /// raises the flag under the same lock, so a job is either (a) pushed
    /// before the flag is visible, in which case the post-join drain sweep
    /// is guaranteed to see it, or (b) rejected here and run inline by the
    /// caller. No third interleaving exists.
    fn push_job(&self, task: Task) -> Result<(), Task> {
        {
            let mut q = self.injector.lock().unwrap();
            if self.shutdown.load(Ordering::Acquire) {
                return Err(task);
            }
            self.jobs_spawned.fetch_add(1, Ordering::Relaxed);
            telemetry::counter_add(telemetry::Counter::SchedJobs, 1);
            q.push_back(task);
            self.note_depth(q.len());
        }
        self.notify();
        Ok(())
    }

    /// Serialise with sleepers before notifying, so a worker that found no
    /// work and is about to wait cannot miss this push. One task needs one
    /// worker: `notify_one` avoids a thundering herd on streams of small
    /// jobs (each push sends its own wakeup, so pending work never lacks
    /// one).
    fn notify(&self) {
        drop(self.sleep.lock().unwrap());
        self.cv.notify_one();
    }

    /// Wake every worker (shutdown).
    fn notify_all(&self) {
        drop(self.sleep.lock().unwrap());
        self.cv.notify_all();
    }

    /// Pop a scoped subtask: own slot first (front), then steal from every
    /// other slot (back).
    fn find_subtask(&self) -> Option<Task> {
        let own = self.local_slot();
        if let Some(t) = self.queues[own].lock().unwrap().pop_front() {
            return Some(t);
        }
        let n = self.queues.len();
        for off in 1..n {
            let victim = (own + off) % n;
            if let Some(t) = self.queues[victim].lock().unwrap().pop_back() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                telemetry::counter_add(telemetry::Counter::SchedSteals, 1);
                return Some(t);
            }
        }
        None
    }

    /// Anything at all queued?
    fn has_work(&self) -> bool {
        !self.injector.lock().unwrap().is_empty()
            || self.queues.iter().any(|q| !q.lock().unwrap().is_empty())
    }

    fn run(task: Task) {
        // Detached jobs report through their own channels; a panicking job
        // must not take its worker thread down with it (scoped subtasks
        // record panics in their scope before this catch).
        let _ = catch_unwind(AssertUnwindSafe(task));
    }

    fn worker_loop(self: &Arc<Inner>, index: usize) {
        WORKER.with(|w| w.set(Some((self.id, index))));
        loop {
            // Subtasks first: finish requests in flight before starting new
            // ones (and keep scope owners unblocked).
            if let Some(t) = self.find_subtask() {
                Inner::run(t);
                continue;
            }
            let job = self.injector.lock().unwrap().pop_front();
            if let Some(t) = job {
                Inner::run(t);
                continue;
            }
            let guard = self.sleep.lock().unwrap();
            if self.has_work() {
                continue;
            }
            if self.shutdown.load(Ordering::Acquire) {
                // Drain semantics: exit only once every queued job has been
                // taken (mutation tickets must all be redeemed).
                return;
            }
            // The timeout is a belt-and-braces re-poll; notify() serialises
            // with this wait, so wakeups are not normally missed.
            telemetry::counter_add(telemetry::Counter::SchedParks, 1);
            telemetry::gauge_add(telemetry::Gauge::WorkersParked, 1);
            let parked = self
                .cv
                .wait_timeout(guard, Duration::from_millis(20))
                .unwrap();
            telemetry::gauge_sub(telemetry::Gauge::WorkersParked, 1);
            let _ = parked;
        }
    }
}

/// Per-scope completion state shared between the owner and its subtasks.
struct ScopeState {
    pending: Mutex<usize>,
    cv: Condvar,
    panicked: AtomicBool,
}

/// A spawning handle for borrowed subtasks; see [`Scheduler::scope`].
pub struct Scope<'s, 'env> {
    inner: &'s Arc<Inner>,
    state: &'s Arc<ScopeState>,
    /// Invariant over `'env` (the rayon trick): keeps callers from
    /// shortening the environment lifetime the spawned closures borrow.
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Spawn a subtask that may borrow data outliving the enclosing
    /// [`Scheduler::scope`] call. The closure runs on some worker thread or
    /// on the scope owner while it helps.
    pub fn spawn(&self, body: impl FnOnce() + Send + 'env) {
        *self.state.pending.lock().unwrap() += 1;
        let state = Arc::clone(self.state);
        let boxed: Box<dyn FnOnce() + Send + 'env> = Box::new(body);
        // SAFETY: `Scheduler::scope` helps until `state.pending` returns to
        // zero before returning, so every borrow in `body` (valid for
        // `'env`, which outlives the `scope` call) is still live whenever
        // the subtask runs. The completion decrement below runs even if the
        // body panics.
        let boxed: Task = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(boxed)
        };
        let wrapped: Task = Box::new(move || {
            if catch_unwind(AssertUnwindSafe(boxed)).is_err() {
                state.panicked.store(true, Ordering::Release);
            }
            let mut pending = state.pending.lock().unwrap();
            *pending -= 1;
            if *pending == 0 {
                state.cv.notify_all();
            }
        });
        self.inner.push_subtask(wrapped);
    }
}

/// The shared work-stealing scheduler. See the module docs for the task
/// model; construction spawns the worker threads immediately, [`Drop`]
/// (or [`Scheduler::shutdown`]) drains every queued job and joins them.
pub struct Scheduler {
    inner: Arc<Inner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("workers", &self.workers())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Scheduler {
    /// A scheduler with `workers` worker threads (at least 1).
    pub fn new(workers: usize) -> Scheduler {
        let workers = workers.max(1);
        let inner = Arc::new(Inner {
            id: NEXT_SCHED_ID.fetch_add(1, Ordering::Relaxed),
            queues: (0..=workers).map(|_| Mutex::default()).collect(),
            injector: Mutex::default(),
            sleep: Mutex::default(),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            jobs_spawned: AtomicU64::new(0),
            subtasks_spawned: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
        });
        telemetry::gauge_add(telemetry::Gauge::WorkersTotal, workers as u64);
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("sirup-sched-{i}"))
                    .spawn(move || inner.worker_loop(i))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Scheduler {
            inner,
            handles: Mutex::new(handles),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.inner.workers()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> SchedStats {
        SchedStats {
            workers: self.workers(),
            jobs_spawned: self.inner.jobs_spawned.load(Ordering::Relaxed),
            subtasks_spawned: self.inner.subtasks_spawned.load(Ordering::Relaxed),
            steals: self.inner.steals.load(Ordering::Relaxed),
            max_queue_depth: self.inner.max_queue_depth.load(Ordering::Relaxed),
        }
    }

    /// Enqueue a detached job on the FIFO injector. Jobs submitted after
    /// [`Scheduler::shutdown`] run inline on the caller (nothing is lost,
    /// but nothing is concurrent either).
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        if let Err(job) = self.inner.push_job(Box::new(job)) {
            self.inner.jobs_spawned.fetch_add(1, Ordering::Relaxed);
            Inner::run(job);
        }
    }

    /// Run `f` with a [`Scope`] on which borrowed subtasks can be spawned;
    /// returns only after every spawned subtask has completed. The calling
    /// thread *helps*: it executes queued subtasks (its own and stolen
    /// ones — never detached jobs) while it waits. Panics in subtasks are
    /// re-raised here after the scope completes.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        let state = Arc::new(ScopeState {
            pending: Mutex::new(0),
            cv: Condvar::new(),
            panicked: AtomicBool::new(false),
        });
        let scope = Scope {
            inner: &self.inner,
            state: &state,
            _env: std::marker::PhantomData,
        };
        // Catch a panic in `f` itself: already-spawned subtasks borrow the
        // caller's frame, so unwinding out of here before they finish would
        // free stack they still read. Help-until-drained runs on BOTH
        // paths; only then may the owner panic resume.
        let out = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Help until the scope's own counter drains. Stolen subtasks may
        // belong to other scopes; running them is harmless (subtasks never
        // block on scheduler state).
        loop {
            {
                let pending = state.pending.lock().unwrap();
                if *pending == 0 {
                    break;
                }
            }
            if let Some(t) = self.inner.find_subtask() {
                Inner::run(t);
                continue;
            }
            let pending = state.pending.lock().unwrap();
            if *pending == 0 {
                break;
            }
            // Re-poll on a timeout: a subtask of ours may be queued behind
            // re-spawns on a queue we just found empty.
            let _ = state
                .cv
                .wait_timeout(pending, Duration::from_millis(1))
                .unwrap();
        }
        let out = match out {
            Ok(out) => out,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        assert!(
            !state.panicked.load(Ordering::Acquire),
            "a scoped subtask panicked"
        );
        out
    }

    /// Run `a` and `b` as a parallel pair (`b` is spawned, `a` runs on the
    /// calling thread) and return both results.
    pub fn join<RA, RB>(
        &self,
        a: impl FnOnce() -> RA + Send,
        b: impl FnOnce() -> RB + Send,
    ) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
    {
        let b_out: Mutex<Option<RB>> = Mutex::new(None);
        let a_out = self.scope(|s| {
            s.spawn(|| {
                *b_out.lock().unwrap() = Some(b());
            });
            a()
        });
        let b_out = b_out.into_inner().unwrap().expect("spawned half ran");
        (a_out, b_out)
    }

    /// Run `f` over every pre-split work unit, in parallel. Blocks until
    /// all units are done.
    pub fn for_each_split<T: Send>(&self, units: Vec<T>, f: impl Fn(T) + Send + Sync) {
        self.scope(|s| {
            for unit in units {
                let f = &f;
                s.spawn(move || f(unit));
            }
        });
    }

    /// Split `items` into at most `chunks` contiguous slices, map each with
    /// `f` in parallel, and return the results **in slice order** (callers
    /// rely on this for deterministic merges).
    pub fn map_chunks<T: Sync, R: Send>(
        &self,
        items: &[T],
        chunks: usize,
        f: impl Fn(&[T]) -> R + Send + Sync,
    ) -> Vec<R> {
        let chunks = chunks.clamp(1, items.len().max(1));
        let per = items.len().div_ceil(chunks);
        let slices: Vec<&[T]> = items.chunks(per.max(1)).collect();
        let slots: Vec<Mutex<Option<R>>> = slices.iter().map(|_| Mutex::new(None)).collect();
        self.scope(|s| {
            for (slice, slot) in slices.into_iter().zip(&slots) {
                let f = &f;
                s.spawn(move || {
                    *slot.lock().unwrap() = Some(f(slice));
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().unwrap().expect("chunk task ran"))
            .collect()
    }

    /// Signal shutdown and join every worker. Queued jobs are **drained**,
    /// not dropped: workers exit only once the injector and every deque are
    /// empty, so each reserved mutation ticket is still redeemed.
    /// Idempotent; also called by [`Drop`].
    pub fn shutdown(&self) {
        {
            // Raise the flag under the injector lock: mutually exclusive
            // with `push_job`'s check-and-append, so no job can slip into
            // the queue unobserved after this point.
            let _q = self.inner.injector.lock().unwrap();
            self.inner.shutdown.store(true, Ordering::Release);
        }
        self.inner.notify_all();
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.handles.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
        // Post-join sweep: a worker may have checked for work just before a
        // racing push landed and then exited on the shutdown flag. Any such
        // straggler job runs inline here, so the drain contract holds under
        // every interleaving.
        loop {
            let job = self.inner.injector.lock().unwrap().pop_front();
            match job {
                Some(t) => Inner::run(t),
                None => break,
            }
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn detached_jobs_run_and_drain_on_drop() {
        let sched = Scheduler::new(2);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let hits = Arc::clone(&hits);
            sched.spawn(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(sched); // drains the injector before joining
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn spawn_after_shutdown_runs_inline() {
        let sched = Scheduler::new(1);
        sched.shutdown();
        let (tx, rx) = std::sync::mpsc::channel();
        sched.spawn(move || tx.send(42).unwrap());
        assert_eq!(rx.recv().unwrap(), 42);
    }

    #[test]
    fn scope_runs_borrowed_subtasks() {
        let sched = Scheduler::new(3);
        let data: Vec<u64> = (0..1000).collect();
        let partials: Vec<Mutex<u64>> = (0..4).map(|_| Mutex::new(0)).collect();
        sched.scope(|s| {
            for (i, chunk) in data.chunks(250).enumerate() {
                let slot = &partials[i];
                s.spawn(move || {
                    *slot.lock().unwrap() = chunk.iter().sum();
                });
            }
        });
        let total: u64 = partials.iter().map(|m| *m.lock().unwrap()).sum();
        assert_eq!(total, 1000 * 999 / 2);
        let stats = sched.stats();
        assert_eq!(stats.workers, 3);
        assert_eq!(stats.subtasks_spawned, 4);
    }

    #[test]
    fn join_returns_both_halves() {
        let sched = Scheduler::new(2);
        let x = 10u64;
        let (a, b) = sched.join(|| x * 2, || x * 3);
        assert_eq!((a, b), (20, 30));
    }

    #[test]
    fn for_each_split_visits_every_unit() {
        let sched = Scheduler::new(2);
        let seen = Mutex::new(Vec::new());
        sched.for_each_split((0..20).collect(), |i: usize| {
            seen.lock().unwrap().push(i);
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn map_chunks_preserves_slice_order() {
        let sched = Scheduler::new(4);
        let items: Vec<u32> = (0..97).collect();
        let sums = sched.map_chunks(&items, 8, |slice| (slice[0], slice.iter().sum::<u32>()));
        assert!(sums.len() <= 8);
        // Slice order: first elements strictly increase.
        assert!(sums.windows(2).all(|w| w[0].0 < w[1].0));
        let total: u32 = sums.iter().map(|&(_, s)| s).sum();
        assert_eq!(total, 96 * 97 / 2);
    }

    #[test]
    fn nested_scopes_complete() {
        let sched = Scheduler::new(2);
        let total = AtomicUsize::new(0);
        sched.scope(|s| {
            for _ in 0..4 {
                let total = &total;
                let sched_ref = &sched;
                s.spawn(move || {
                    sched_ref.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn cancellation_is_shared_across_clones() {
        let t = CancelToken::new();
        let t2 = t.clone();
        assert!(!t2.is_cancelled());
        t.cancel();
        assert!(t2.is_cancelled());
    }

    #[test]
    #[should_panic(expected = "scoped subtask panicked")]
    fn scope_propagates_subtask_panics() {
        let sched = Scheduler::new(1);
        sched.scope(|s| {
            s.spawn(|| panic!("boom"));
        });
    }

    /// A panic in the scope *closure* must still wait for already-spawned
    /// subtasks (they borrow the caller's frame) before unwinding.
    #[test]
    fn scope_owner_panic_waits_for_subtasks() {
        let sched = Scheduler::new(2);
        let data: Vec<u64> = (0..256).collect();
        let ran = AtomicBool::new(false);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            sched.scope(|s| {
                s.spawn(|| {
                    std::thread::sleep(Duration::from_millis(20));
                    // Reads the borrowed frame; must still be alive.
                    assert_eq!(data.iter().sum::<u64>(), 255 * 128);
                    ran.store(true, Ordering::Release);
                });
                panic!("owner panics mid-scope");
            });
        }));
        assert!(caught.is_err(), "owner panic must propagate");
        assert!(
            ran.load(Ordering::Acquire),
            "subtask must have completed before the unwind escaped scope()"
        );
    }

    /// Shutdown racing spawn: every job either runs inline or is swept by
    /// shutdown's post-join drain — none is ever stranded.
    #[test]
    fn shutdown_racing_spawns_lose_no_jobs() {
        for _ in 0..20 {
            let sched = Arc::new(Scheduler::new(2));
            let (tx, rx) = std::sync::mpsc::channel::<usize>();
            let spawner = {
                let sched = Arc::clone(&sched);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        let tx = tx.clone();
                        sched.spawn(move || {
                            let _ = tx.send(i);
                        });
                        std::thread::yield_now();
                    }
                })
            };
            sched.shutdown();
            // Spawns after the flag ran inline on the spawner; spawns
            // accepted before it were drained by workers or the sweep.
            spawner.join().unwrap();
            let mut got: Vec<usize> = rx.try_iter().collect();
            got.sort_unstable();
            assert_eq!(got, (0..50).collect::<Vec<_>>(), "a job was stranded");
        }
    }

    #[test]
    fn steals_are_counted_under_load() {
        let sched = Scheduler::new(2);
        // External pushes land in the shared slot; workers taking them
        // count as steals.
        let n = AtomicUsize::new(0);
        sched.scope(|s| {
            for _ in 0..32 {
                let n = &n;
                s.spawn(move || {
                    n.fetch_add(1, Ordering::Relaxed);
                    std::thread::yield_now();
                });
            }
        });
        assert_eq!(n.load(Ordering::Relaxed), 32);
        let stats = sched.stats();
        assert_eq!(stats.subtasks_spawned, 32);
        assert!(stats.max_queue_depth > 0);
    }

    #[test]
    fn parctx_gating() {
        let sched = Scheduler::new(3);
        let ctx = ParCtx::new(&sched, 16);
        assert!(!ctx.should_split(15));
        assert!(ctx.should_split(16));
        assert_eq!(ctx.fanout(), 8);
        let tiny = ParCtx::new(&sched, 0);
        assert!(!tiny.should_split(1), "never split a singleton");
        assert!(tiny.should_split(2));
    }
}
