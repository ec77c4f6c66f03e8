//! The batch executor on the shared work-stealing scheduler.
//!
//! A [`Pool`] is the request-level face of the workspace's shared
//! [`Scheduler`] (`sirup-core::sched`): each submitted [`Job`] becomes a
//! detached task on the scheduler's FIFO injector, and the *same* worker
//! threads also run the intra-request subtasks those jobs fan out (parallel
//! plan enumeration, semi-naive delta chunks, UCQ disjuncts) — one set of
//! workers for both levels, so a single expensive request can saturate the
//! machine while small ones keep their zero-overhead sequential path
//! (gated by [`ServerConfig::parallelism`](crate::server::ServerConfig)
//! and the spawn threshold).
//!
//! A job is either a **query** (an `Arc<Plan>` paired with an
//! `Arc<IndexedInstance>` snapshot; workers compute `plan.answer_ctx`) or a
//! **mutation** (a ticketed fact batch applied through the catalog's
//! copy-on-write swap). Both report on the job's reply channel with
//! queue+service latency.
//!
//! Ordering invariant (unchanged from the fixed-pool era, now carried by
//! the scheduler's injector): mutation tickets are reserved atomically with
//! the injector append (see [`Server::enqueue`](crate::server::Server)),
//! workers start injector jobs strictly in FIFO order, and helping threads
//! never pop the injector — so the job holding the next-to-apply ticket is
//! always dequeued before any job that waits on it, and a blocked waiter
//! can never starve the pool.
//!
//! The pool shuts down when dropped: the scheduler **drains the remaining
//! queue** before joining its workers, so every reserved ticket is redeemed
//! and every in-flight request still gets its response — the
//! shutdown-ordering test pins this.

use crate::adaptive::AdaptiveController;
use crate::catalog::{Catalog, IndexedInstance};
use crate::plan::{Answer, Plan};
use sirup_core::telemetry;
use sirup_core::{FactOp, ParCtx, SchedStats, Scheduler};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a job does when a worker picks it up.
pub(crate) enum Work {
    /// Answer `plan` over the resolved `instance` snapshot.
    Answer {
        /// The (cached) plan.
        plan: Arc<Plan>,
        /// The catalog snapshot resolved at submission time.
        instance: Arc<IndexedInstance>,
    },
    /// Apply a mutation batch under a submission-time ticket.
    Mutate {
        /// The catalog to mutate (mutations resolve at *execution* time).
        catalog: Arc<Catalog>,
        /// Target instance name.
        instance: String,
        /// The fact batch.
        ops: Arc<Vec<FactOp>>,
        /// Ticket reserved at submission (fixes the same-instance order).
        ticket: u64,
    },
}

/// One unit of work plus its reporting envelope.
pub(crate) struct Job {
    /// Position of this request in its batch (for in-order reassembly).
    pub idx: usize,
    /// The work item.
    pub work: Work,
    /// When the job entered the queue.
    pub enqueued: Instant,
    /// Where to send the completion.
    pub reply: Sender<Completion>,
}

/// A finished job.
pub(crate) struct Completion {
    /// The job's batch position.
    pub idx: usize,
    /// The computed answer.
    pub answer: Answer,
    /// Strategy that served it (stable name from [`Plan`], or `mutation`).
    pub strategy: &'static str,
    /// Queue wait + evaluation time.
    pub latency: Duration,
}

/// The request-level executor over the shared scheduler.
pub(crate) struct Pool {
    sched: Arc<Scheduler>,
    /// Intra-request fan-out width; `<= 1` keeps every request on the
    /// sequential path (no `ParCtx` is ever constructed).
    parallelism: usize,
    /// Minimum work-set size before a request-level task splits.
    threshold: usize,
    /// Adaptive routing hooks; `None` = the static policy, untouched.
    adaptive: Option<Arc<AdaptiveController>>,
}

impl Pool {
    /// Spawn a shared scheduler with `threads` workers (at least 1).
    /// `parallelism > 1` lets each request split its own evaluation into
    /// subtasks on the same workers; work sets below `threshold` stay
    /// sequential. `adaptive` attaches the feedback controller workers
    /// consult at execution time (routing decisions cannot happen at
    /// resolve time: a closed batch resolves all its snapshots before any
    /// observation exists).
    pub fn new(
        threads: usize,
        parallelism: usize,
        threshold: usize,
        adaptive: Option<Arc<AdaptiveController>>,
    ) -> Pool {
        Pool {
            sched: Arc::new(Scheduler::new(threads)),
            parallelism,
            threshold,
            adaptive,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.sched.workers()
    }

    /// The shared scheduler (the catalog borrows it for parallel
    /// materialisation carry-forward).
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.sched
    }

    /// Scheduler lifetime counters.
    pub fn stats(&self) -> SchedStats {
        self.sched.stats()
    }

    /// Enqueue a job on the scheduler's FIFO injector.
    pub fn submit(&self, job: Job) {
        let sched = Arc::clone(&self.sched);
        let par_enabled = self.parallelism > 1;
        let threshold = self.threshold;
        let adaptive = self.adaptive.clone();
        self.sched.spawn(move || {
            let par = par_enabled.then(|| ParCtx::new(&sched, threshold));
            let (program, target) = match &job.work {
                Work::Answer { plan, instance } => (plan.key(), instance.name.as_str()),
                Work::Mutate { instance, .. } => ("mutation", instance.as_str()),
            };
            // Root trace span for this request (inert unless tracing is on,
            // so the format! is gated too).
            let _req = if telemetry::tracing_enabled() {
                telemetry::request_span(format!("{program} @ {target}"))
            } else {
                telemetry::request_span(String::new())
            };
            let (answer, strategy) = match &job.work {
                Work::Answer { plan, instance } => match &adaptive {
                    // Execution-time routing: consult the controller here,
                    // with every observation up to this job visible —
                    // including the admission bucket, which charges of
                    // already-completed jobs have drained by now (a
                    // resolve-time check alone would see a full bucket for
                    // a whole closed batch).
                    Some(ctrl) if ctrl.enabled() => {
                        if ctrl.admit(&instance.name) {
                            (ctrl.execute(plan, instance, par), plan.strategy.name())
                        } else {
                            (Answer::Overloaded, "shed")
                        }
                    }
                    _ => (plan.answer_ctx(instance, par), plan.strategy.name()),
                },
                Work::Mutate {
                    catalog,
                    instance,
                    ops,
                    ticket,
                } => {
                    let answer = match catalog.mutate_ticketed(instance, ops, *ticket) {
                        Some(out) => Answer::Applied {
                            applied: out.applied,
                            seq: out.seq,
                        },
                        // Instance vanished between validation and execution
                        // (concurrent remove); the ticket is consumed either
                        // way.
                        None => Answer::Applied { applied: 0, seq: 0 },
                    };
                    // Demotion: a write run crossing the threshold detaches
                    // the demoted programs' materialisations from the live
                    // (post-mutation) instance, so later mutations stop
                    // paying carry-forward for them.
                    if let Some(ctrl) = &adaptive {
                        let demoted = ctrl.record_write(instance);
                        if !demoted.is_empty() {
                            if let Some(fresh) = catalog.get(instance) {
                                for key in &demoted {
                                    fresh.detach_materialization(key);
                                }
                            }
                        }
                    }
                    (answer, "mutation")
                }
            };
            let latency = job.enqueued.elapsed();
            // The per-(program, instance) observation feed: strategy,
            // latency, result cardinality (what adaptive routing reads).
            telemetry::record_request(program, target, strategy, latency, answer.cardinality());
            // Admission: charge the instance's token bucket the *observed*
            // cost of this completed request.
            if let Some(ctrl) = &adaptive {
                ctrl.charge(target, latency.as_micros() as u64);
            }
            // The batch collector may have given up (panic elsewhere); a
            // closed reply channel is not this worker's problem.
            let _ = job.reply.send(Completion {
                idx: job.idx,
                answer,
                strategy,
                latency,
            });
        });
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Drain-then-join: every queued job (and so every reserved mutation
        // ticket) completes before the workers exit.
        self.sched.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Plan, PlanOptions, Query};
    use sirup_core::parse::st;
    use sirup_core::{Node, Pred};
    use std::sync::mpsc::channel;

    #[test]
    fn pool_answers_and_shuts_down() {
        let pool = Pool::new(3, 4, 2, None);
        assert_eq!(pool.threads(), 3);
        let plan = Arc::new(Plan::build(
            Query::Delta {
                cq: st("F(x), R(x,y), T(y)"),
                disjoint: false,
            },
            &PlanOptions::default(),
        ));
        let inst = Arc::new(IndexedInstance::new("i", st("F(u), R(u,v), T(v)")));
        let (reply, done) = channel();
        for idx in 0..16 {
            pool.submit(Job {
                idx,
                work: Work::Answer {
                    plan: Arc::clone(&plan),
                    instance: Arc::clone(&inst),
                },
                enqueued: Instant::now(),
                reply: reply.clone(),
            });
        }
        drop(reply);
        let mut seen: Vec<usize> = done
            .iter()
            .map(|c| {
                assert_eq!(c.answer, Answer::Bool(true));
                assert_eq!(c.strategy, "dpll");
                c.idx
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..16).collect::<Vec<_>>());
        assert!(pool.stats().jobs_spawned >= 16);
        drop(pool); // joins workers without hanging
    }

    /// Shutdown/drop ordering under in-flight mutations: dropping the pool
    /// while ticketed mutation jobs are still queued must (a) not deadlock
    /// — queued tickets are drained in order, so no waiter starves — and
    /// (b) lose no responses: every submitted job completes.
    #[test]
    fn drop_with_in_flight_mutations_drains_cleanly() {
        let catalog = Arc::new(Catalog::new(2));
        catalog.insert("d", st("T(a), A(b), R(b,a)"));
        let pool = Pool::new(2, 1, 64, None);
        let (reply, done) = channel();
        let total = 24usize;
        for idx in 0..total {
            // Alternate inserts and retracts of the same label so every op
            // is effective, all against one instance (maximal ticket
            // contention).
            let op = if idx % 2 == 0 {
                FactOp::RemoveLabel(Pred::T, Node(0))
            } else {
                FactOp::AddLabel(Pred::T, Node(0))
            };
            let ticket = catalog.reserve_ticket("d");
            pool.submit(Job {
                idx,
                work: Work::Mutate {
                    catalog: Arc::clone(&catalog),
                    instance: "d".to_owned(),
                    ops: Arc::new(vec![op]),
                    ticket,
                },
                enqueued: Instant::now(),
                reply: reply.clone(),
            });
        }
        drop(reply);
        // Drop the pool immediately: most jobs are still queued. Drop joins
        // the workers, which drain the queue first.
        drop(pool);
        let completions: Vec<Completion> = done.iter().collect();
        assert_eq!(completions.len(), total, "lost responses on shutdown");
        let mut seen: Vec<usize> = completions.iter().map(|c| c.idx).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..total).collect::<Vec<_>>());
        for c in &completions {
            assert_eq!(c.strategy, "mutation");
            let Answer::Applied { applied, seq } = c.answer else {
                panic!("mutation job answered {:?}", c.answer);
            };
            assert_eq!(applied, 1, "every alternating op must be effective");
            assert!(seq > 0);
        }
        // Ticket order ⇒ deterministic final state: even total ends on an
        // Add, so the label is present.
        assert!(catalog.get("d").unwrap().data.has_label(Node(0), Pred::T));
        // And the whole ticket range was redeemed: a fresh mutation does
        // not block.
        assert!(catalog
            .mutate("d", &[FactOp::AddLabel(Pred::A, Node(0))])
            .is_some());
    }
}
