//! The [`Server`]: catalog + plan cache + answer cache + scheduler, and
//! workload replay.
//!
//! ## One request path
//!
//! Every request runs the same steps, whichever entry point it came
//! through:
//!
//! 1. **resolve**: take the instance snapshot (an unknown instance fails
//!    here), and for a query probe the answer cache at that version and,
//!    on a miss, fetch or build the plan;
//! 2. **reserve** (writes only): on a durable server the WAL record, then
//!    the mutation ticket, both under one lock; a failed append reserves
//!    nothing and fails the request with [`ServerError::Wal`];
//! 3. **run**: a query along its plan's one route
//!    ([`Plan::answer_routed`], materialising a semi-naive program), a
//!    write under its ticket;
//! 4. **record**: the per-(program, instance) telemetry row and, for an
//!    evaluated query, the answer-cache insert.
//!
//! [`Server::answer_one`] runs them inline on the calling thread (the wire
//! front-end, in-process clients). [`Server::submit`] and
//! [`Server::replay`] resolve a whole batch first, then reserve and spawn
//! each request as a detached job on the server's scheduler (pacing by
//! arrival offsets in [`ReplayMode::Open`] is the only difference between
//! the two replay modes) and reassemble responses in request order.
//!
//! ## Read/write semantics
//!
//! A query in a batch answers against the instance snapshot current at
//! submission time; mutations apply in submission order per instance
//! (ticketed) and produce a fresh snapshot version. Queries submitted
//! *after* a mutation's batch observe its effects; queries racing it in the
//! same batch observe the pre-batch snapshot. The answer cache is keyed by
//! `(program, instance, version)`, so a mutation invalidates cached answers
//! simply by bumping the version — stale entries can never be served.

use crate::catalog::{Catalog, IndexedInstance};
use crate::metrics::LatencyStats;
use crate::plan::{Answer, Plan, PlanCache, PlanOptions, Query};
use crate::wal::{Wal, WalRecord};
use sirup_core::fx::FxHashMap;
use sirup_core::telemetry;
use sirup_core::{sync, FactOp, OneCq, ParCtx, Scheduler, Structure};
use sirup_engine::MaterializationStats;
use sirup_workloads::traffic::{QueryKind, TrafficAction, TrafficRequest, TrafficSpec};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Most nodes one instance may hold. Larger loads are refused before
/// anything is built or logged: every snapshot carries a CSR view with an
/// n-bit row per label and edge endpoint, and the WAL records node counts
/// as `u32`.
pub const MAX_NODES: usize = 1 << 24;

/// `nodes` as the WAL records it, or an error above [`MAX_NODES`] (which
/// also keeps the count inside `u32`).
fn logged_node_count(nodes: usize) -> Result<u32, ServerError> {
    u32::try_from(nodes)
        .ok()
        .filter(|&n| n as usize <= MAX_NODES)
        .ok_or(ServerError::TooManyNodes(nodes))
}

/// Server construction knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads in the shared scheduler (at least 1). The same
    /// workers run request-level jobs *and* intra-request subtasks.
    pub threads: usize,
    /// Intra-request fan-out: `> 1` lets one request split its own
    /// evaluation (plan enumeration chunks, semi-naive delta chunks, UCQ
    /// disjuncts) into subtasks on the shared workers. `1` (the default)
    /// keeps every request on the exact sequential evaluation path — zero
    /// scheduling overhead, the pre-parallel behaviour. A mutation
    /// advances its instance's materialisations one after another at any
    /// setting.
    pub parallelism: usize,
    /// Minimum work-set size (root-domain cardinality, candidate count,
    /// node count) before an intra-request split happens; below it even a
    /// `parallelism > 1` server evaluates sequentially, so small instances
    /// never pay fan-out overhead.
    pub par_threshold: usize,
    /// Plan-cache capacity (at least 1).
    pub plan_cache: usize,
    /// Answer-cache capacity (0 disables answer caching — benches that
    /// measure evaluation cost, not cache hits, run with 0).
    pub answer_cache: usize,
    /// Plan construction knobs.
    pub plan: PlanOptions,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 4,
            parallelism: 1,
            par_threshold: 64,
            plan_cache: 64,
            answer_cache: 256,
            plan: PlanOptions::default(),
        }
    }
}

/// What a request asks of its target instance.
#[derive(Debug, Clone)]
pub enum Action {
    /// A certain-answer query.
    Query(Query),
    /// A fact-level mutation batch, applied in order.
    Mutate(Vec<FactOp>),
}

/// One request: an action against a named catalog instance.
#[derive(Debug, Clone)]
pub struct Request {
    /// The action.
    pub action: Action,
    /// Target instance name.
    pub instance: String,
}

impl Request {
    /// A query request.
    pub fn query(query: Query, instance: impl Into<String>) -> Request {
        Request {
            action: Action::Query(query),
            instance: instance.into(),
        }
    }

    /// A mutation request.
    pub fn mutation(ops: Vec<FactOp>, instance: impl Into<String>) -> Request {
        Request {
            action: Action::Mutate(ops),
            instance: instance.into(),
        }
    }

    /// `<program> @ <instance>`: the label of the request's root trace
    /// span.
    fn label(&self) -> String {
        match &self.action {
            Action::Query(q) => format!("{} @ {}", q.cache_key(), self.instance),
            Action::Mutate(_) => format!("mutation @ {}", self.instance),
        }
    }

    /// Convert a workload request (re-validating 1-CQ kinds).
    pub fn from_traffic(r: &TrafficRequest) -> Result<Request, ServerError> {
        let action = match &r.action {
            TrafficAction::Query { kind, cq } => Action::Query(match kind {
                QueryKind::PiGoal => Query::PiGoal(
                    OneCq::new(cq.clone()).map_err(|e| ServerError::BadQuery(e.to_string()))?,
                ),
                QueryKind::SigmaAnswers => Query::SigmaAnswers(
                    OneCq::new(cq.clone()).map_err(|e| ServerError::BadQuery(e.to_string()))?,
                ),
                QueryKind::Delta => Query::Delta {
                    cq: cq.clone(),
                    disjoint: false,
                },
                QueryKind::DeltaPlus => Query::Delta {
                    cq: cq.clone(),
                    disjoint: true,
                },
            }),
            TrafficAction::Mutate { ops } => Action::Mutate(ops.clone()),
        };
        Ok(Request {
            action,
            instance: r.instance.clone(),
        })
    }
}

/// One response, positionally matching its request.
#[derive(Debug, Clone)]
pub struct Response {
    /// The certain answer (or mutation outcome).
    pub answer: Answer,
    /// Which strategy served it (`rewriting`, `semi-naive`, `dpll`,
    /// `mutation`, `cached`).
    pub strategy: &'static str,
    /// Queue wait + service time: from enqueue (a batch job) or arrival
    /// ([`Server::answer_one`], so its resolve and reserve steps count as
    /// the wait) to the response.
    pub latency: Duration,
    /// Service time alone: from the start of the run step to the response.
    pub service: Duration,
}

/// Errors surfaced by the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// A request targeted an instance the catalog does not hold.
    UnknownInstance(String),
    /// A `pi`/`sigma` request whose CQ is not a 1-CQ.
    BadQuery(String),
    /// A load whose instance has more than [`MAX_NODES`] nodes.
    TooManyNodes(usize),
    /// The write-ahead log refused the record (an I/O error now or
    /// earlier: the log is fail-stop), so nothing was applied or acked.
    Wal(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::UnknownInstance(n) => write!(f, "unknown instance {n:?}"),
            ServerError::BadQuery(m) => write!(f, "bad query: {m}"),
            ServerError::TooManyNodes(n) => {
                write!(f, "{n} nodes is above the limit of {MAX_NODES}")
            }
            ServerError::Wal(m) => write!(f, "write-ahead log: {m}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl ServerError {
    fn wal(e: std::io::Error) -> ServerError {
        ServerError::Wal(e.to_string())
    }
}

/// How [`Server::replay`] paces submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayMode {
    /// Submit the whole stream as one batch and drain at full speed.
    Closed,
    /// Pace submission by the spec's virtual arrival offsets.
    Open,
}

/// Aggregate results of a replay run.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Requests served (queries + mutations).
    pub total: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
    /// Request counts per action keyword (`pi`, …, `mutate`).
    pub per_kind: Vec<(String, usize)>,
    /// Request counts per serving strategy.
    pub per_strategy: Vec<(String, usize)>,
    /// Mutation requests served.
    pub mutations: usize,
    /// Mutation ops that changed an instance.
    pub mutation_ops_applied: usize,
    /// Latency order statistics (queue wait + service: in a closed batch
    /// they track queue position).
    pub latency: LatencyStats,
    /// Service-time order statistics (from the start of each run step).
    pub service: LatencyStats,
    /// Plan-cache `(hits, misses)` over the whole server lifetime.
    pub plan_cache: (u64, u64),
    /// Answer-cache `(hits, misses)` over the whole server lifetime.
    pub answer_cache: (u64, u64),
    /// Distinct plans resident after the run.
    pub plans_resident: usize,
    /// Answers in request order (for differential checking).
    pub answers: Vec<Answer>,
}

impl ReplayReport {
    /// Requests per second.
    pub fn throughput(&self) -> f64 {
        self.total as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Mutation requests per second.
    pub fn mutation_throughput(&self) -> f64 {
        self.mutations as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Human-readable multi-line summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "replayed {} requests on {} worker thread(s) in {:.3} ms ({:.0} req/s)",
            self.total,
            self.threads,
            self.elapsed.as_secs_f64() * 1e3,
            self.throughput()
        )
        .unwrap();
        let fmt_counts = |pairs: &[(String, usize)]| {
            pairs
                .iter()
                .map(|(k, n)| format!("{k} {n}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        writeln!(out, "kinds     : {}", fmt_counts(&self.per_kind)).unwrap();
        writeln!(out, "strategies: {}", fmt_counts(&self.per_strategy)).unwrap();
        writeln!(
            out,
            "mutations : {} request(s), {} op(s) applied ({:.0} mut/s)",
            self.mutations,
            self.mutation_ops_applied,
            self.mutation_throughput()
        )
        .unwrap();
        writeln!(
            out,
            "latency   : p50 {}µs  p95 {}µs  p99 {}µs  max {}µs  mean {}µs",
            self.latency.p50_us,
            self.latency.p95_us,
            self.latency.p99_us,
            self.latency.max_us,
            self.latency.mean_us
        )
        .unwrap();
        writeln!(
            out,
            "service   : p50 {}µs  p95 {}µs  p99 {}µs  max {}µs  mean {}µs",
            self.service.p50_us,
            self.service.p95_us,
            self.service.p99_us,
            self.service.max_us,
            self.service.mean_us
        )
        .unwrap();
        let (hits, misses) = self.plan_cache;
        let (ahits, amisses) = self.answer_cache;
        writeln!(
            out,
            "plan cache: {} resident, {hits} hit(s) / {misses} miss(es); \
             answer cache {ahits} hit(s) / {amisses} miss(es)",
            self.plans_resident
        )
        .unwrap();
        out
    }
}

/// Point-in-time statistics of one live catalog instance (for
/// `sirupctl stats`).
#[derive(Debug, Clone)]
pub struct InstanceStats {
    /// Instance name.
    pub name: String,
    /// Current snapshot version.
    pub version: u64,
    /// Per-instance mutation sequence number (0 = freshly loaded).
    pub seq: u64,
    /// Nodes in the instance.
    pub nodes: usize,
    /// Unary atoms.
    pub unary_atoms: usize,
    /// Binary atoms.
    pub binary_atoms: usize,
    /// Structural sharing of the live snapshot's data with the version it
    /// was mutated from (zero shared pages right after a load).
    pub cow: crate::catalog::CowStats,
    /// Bytes the live facts would occupy stored flat (no page granularity,
    /// no copy-on-write retention). `cow.retained_bytes - live_bytes` is
    /// the versioning overhead a version-GC pass could reclaim at most.
    pub live_bytes: usize,
    /// Heap bytes of the snapshot's CSR read view (every snapshot has one).
    pub frozen_bytes: usize,
    /// Per-program materialisation stats, sorted by program key.
    pub materializations: Vec<(String, MaterializationStats)>,
}

/// A version-keyed LRU of full answers: `(program, instance, version) →`
/// [`Answer`]. Mutations invalidate by construction — they bump the
/// instance version, so stale keys are never probed again and age out of
/// the LRU. Capacity 0 disables it.
type AnswerCache = crate::cache::StampedLru<Answer>;

/// The concurrent certain-answer query-and-mutation service.
pub struct Server {
    config: ServerConfig,
    shared: Arc<Shared>,
    plans: PlanCache,
    /// Serialises mutation-ticket reservation with the WAL append and, in
    /// a batch, with the job spawn (see `Server::spawn`), so that per
    /// instance ticket order equals both log order — the recovery fold's
    /// whole correctness argument — and queue order.
    mutation_order: Mutex<()>,
    /// Write-ahead durability, present on [`Server::open_durable`] servers:
    /// every catalog-shaping event (load, mutate, remove) is fsync'd to the
    /// log before it applies.
    wal: Option<Mutex<Wal>>,
    /// Compaction cadence: snapshot after this many logged mutations
    /// (0 disables automatic snapshots; [`Server::snapshot_now`] is always
    /// available).
    snapshot_every: AtomicU64,
    /// Mutations logged since the last snapshot.
    since_snapshot: AtomicU64,
}

/// The server state a request's run step reads, behind the one `Arc` that
/// batch jobs share.
struct Shared {
    catalog: Catalog,
    answers: AnswerCache,
    /// The work-stealing scheduler: batch jobs, connection jobs and
    /// intra-request subtasks all run on its workers.
    sched: Arc<Scheduler>,
    /// The smallest work set a request splits, when `parallelism > 1`.
    par_threshold: Option<usize>,
}

/// One request after its resolve step: what its run step reads.
enum Resolved<'a> {
    /// The answer cache held this query's answer at the resolved version.
    Cached {
        program: String,
        inst: Arc<IndexedInstance>,
        answer: Answer,
    },
    /// Evaluate `plan` over the snapshot `inst`; with the answer cache on,
    /// remember the answer under `key`.
    Query {
        plan: Arc<Plan>,
        inst: Arc<IndexedInstance>,
        key: Option<String>,
    },
    /// Apply `ops` to `instance` under `ticket` (set by the reserve step).
    Mutate {
        instance: Cow<'a, str>,
        ops: Cow<'a, [FactOp]>,
        ticket: u64,
    },
}

impl Resolved<'_> {
    /// The same request owning its borrowed parts, to move into a job.
    fn into_owned(self) -> Resolved<'static> {
        match self {
            Resolved::Cached {
                program,
                inst,
                answer,
            } => Resolved::Cached {
                program,
                inst,
                answer,
            },
            Resolved::Query { plan, inst, key } => Resolved::Query { plan, inst, key },
            Resolved::Mutate {
                instance,
                ops,
                ticket,
            } => Resolved::Mutate {
                instance: Cow::Owned(instance.into_owned()),
                ops: Cow::Owned(ops.into_owned()),
                ticket,
            },
        }
    }
}

impl Shared {
    /// The intra-request fan-out context (`None` unless `parallelism > 1`).
    fn par(&self) -> Option<ParCtx<'_>> {
        self.par_threshold.map(|t| ParCtx::new(&self.sched, t))
    }

    /// The run and record steps of one resolved (and, for a write, reserved)
    /// request: [`Server::answer_one`] calls this inline, a batch job on a
    /// worker. A query runs its plan's one route through
    /// [`Plan::answer_routed`], a semi-naive plan reading (and on first use
    /// attaching) the snapshot's maintained materialisation. A write
    /// applies under its ticket, waiting for every earlier ticket of its
    /// instance. Every request is recorded in the per-(program, instance)
    /// telemetry table with its wait (`started` to this call) and service
    /// time (this call to the response); an evaluated answer also
    /// goes into the answer cache.
    fn run(&self, work: Resolved<'_>, started: Instant) -> Response {
        let serving = Instant::now();
        let record = |program: &str, instance: &str, strategy, answer: Answer| {
            let service = serving.elapsed();
            let queued = serving.saturating_duration_since(started);
            telemetry::record_request(
                program,
                instance,
                strategy,
                queued,
                service,
                answer.cardinality(),
            );
            Response {
                answer,
                strategy,
                latency: queued + service,
                service,
            }
        };
        match work {
            Resolved::Cached {
                program,
                inst,
                answer,
            } => record(&program, &inst.name, "cached", answer),
            Resolved::Query { plan, inst, key } => {
                let answer = plan.answer_routed(&inst, self.par(), true);
                if let Some(key) = key {
                    self.answers.insert(key, answer.clone());
                }
                record(plan.key(), &inst.name, plan.strategy.name(), answer)
            }
            Resolved::Mutate {
                instance,
                ops,
                ticket,
            } => {
                let answer = match self.catalog.mutate_ticketed(&instance, &ops, ticket) {
                    Some(out) => Answer::Applied {
                        applied: out.applied,
                        seq: out.seq,
                    },
                    // The instance vanished after the resolve step (a
                    // concurrent remove); the ticket is consumed either way.
                    None => Answer::Applied { applied: 0, seq: 0 },
                };
                record("mutation", &instance, "mutation", answer)
            }
        }
    }
}

impl Server {
    /// Build a server (spawns the shared scheduler's workers immediately).
    pub fn new(config: ServerConfig) -> Server {
        let sched = Arc::new(Scheduler::new(config.threads));
        Server {
            shared: Arc::new(Shared {
                catalog: Catalog::new(),
                answers: AnswerCache::new(config.answer_cache),
                sched,
                par_threshold: (config.parallelism > 1).then_some(config.par_threshold),
            }),
            plans: PlanCache::new(config.plan_cache),
            mutation_order: Mutex::new(()),
            wal: None,
            snapshot_every: AtomicU64::new(0),
            since_snapshot: AtomicU64::new(0),
            config,
        }
    }

    /// A server with [`ServerConfig::default`].
    pub fn with_defaults() -> Server {
        Server::new(ServerConfig::default())
    }

    /// Build a **durable** server backed by the write-ahead log in
    /// `data_dir` (created if needed): the directory's snapshot + log are
    /// recovered into the catalog — each instance at exactly the data and
    /// per-instance mutation sequence it had reached — and every later
    /// load/mutate/remove is fsync'd to the log before it applies.
    pub fn open_durable(
        config: ServerConfig,
        data_dir: impl Into<PathBuf>,
    ) -> std::io::Result<Server> {
        let (wal, recovered) = Wal::open(data_dir)?;
        let mut server = Server::new(config);
        for inst in recovered {
            server
                .shared
                .catalog
                .restore(inst.name, inst.data, inst.seq);
        }
        server.wal = Some(Mutex::new(wal));
        Ok(server)
    }

    /// Is this server writing a WAL?
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Snapshot automatically after every `ops` logged mutations (0
    /// disables). The daemon's housekeeping thread polls
    /// [`Server::snapshot_due`] — mutation paths only bump a counter, so a
    /// worker thread never blocks inside compaction's quiesce.
    pub fn set_snapshot_every(&self, ops: u64) {
        self.snapshot_every.store(ops, Ordering::Relaxed);
    }

    /// Has the auto-snapshot threshold been crossed?
    pub fn snapshot_due(&self) -> bool {
        let every = self.snapshot_every.load(Ordering::Relaxed);
        every > 0 && self.since_snapshot.load(Ordering::Relaxed) >= every
    }

    /// Snapshot the catalog and compact the log now. Blocks new mutation
    /// reservations, waits for in-flight tickets to apply (so the snapshot
    /// reflects every logged record), then writes snapshot + truncated log
    /// atomically (see `wal` module docs for the crash windows). No-op on a
    /// non-durable server.
    ///
    /// Prefer calling from a plain thread (the daemon's housekeeping
    /// loop): the quiesce wait is satisfied by scheduler workers applying
    /// outstanding tickets, so a scheduler worker blocking here while
    /// ticketed batch jobs sit queued could starve the very jobs it waits
    /// on. Wire-only traffic is safe either way — connection jobs reserve
    /// and apply their ticket in one un-yielding step, so every
    /// outstanding ticket is held by a *running* worker.
    pub fn snapshot_now(&self) -> std::io::Result<()> {
        let Some(wal) = &self.wal else { return Ok(()) };
        let _order = sync::lock(&self.mutation_order);
        self.shared.catalog.quiesce();
        let names = self.shared.catalog.names();
        let insts: Vec<_> = names
            .iter()
            .filter_map(|n| self.shared.catalog.get(n))
            .collect();
        let entries: Vec<(String, u64, &Structure)> = insts
            .iter()
            .map(|i| (i.name.clone(), i.seq, &i.data))
            .collect();
        sync::lock(wal).compact(&entries)?;
        self.since_snapshot.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// The shared work-stealing scheduler (connection jobs ride on it).
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.shared.sched
    }

    /// The instance catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.shared.catalog
    }

    /// The plan cache.
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plans
    }

    /// Answer-cache `(hits, misses)` so far.
    pub fn answer_cache_stats(&self) -> (u64, u64) {
        self.shared.answers.stats()
    }

    /// Worker-thread count.
    pub fn threads(&self) -> usize {
        self.shared.sched.workers()
    }

    /// Lifetime counters of the shared scheduler (tasks spawned, steals,
    /// queue high-water mark) — surfaced by `sirupctl stats`.
    pub fn scheduler_stats(&self) -> sirup_core::SchedStats {
        self.shared.sched.stats()
    }

    /// Load (or replace) a named instance. On a durable server the load is
    /// logged first: the critical section waits for in-flight mutations to
    /// the whole catalog to apply (a load resets the instance's mutation
    /// sequence, so logged-but-unapplied mutations must not straddle it).
    /// Returns whether an instance was replaced; an instance above
    /// [`MAX_NODES`] nodes is refused, neither logged nor loaded.
    pub fn load_instance(
        &self,
        name: impl Into<String>,
        data: Structure,
    ) -> Result<bool, ServerError> {
        let name = name.into();
        let nodes = logged_node_count(data.node_count())?;
        if let Some(wal) = &self.wal {
            let _order = sync::lock(&self.mutation_order);
            self.shared.catalog.quiesce();
            sync::lock(wal)
                .append(&WalRecord::Load {
                    name: name.clone(),
                    nodes,
                    ops: data.to_ops(),
                })
                .map_err(ServerError::wal)?;
            Ok(self.shared.catalog.insert(name, data))
        } else {
            Ok(self.shared.catalog.insert(name, data))
        }
    }

    /// Drop a named instance (logged first on a durable server). Returns
    /// whether it existed; a failed log append removes nothing.
    pub fn remove_instance(&self, name: &str) -> Result<bool, ServerError> {
        if let Some(wal) = &self.wal {
            let _order = sync::lock(&self.mutation_order);
            self.shared.catalog.quiesce();
            sync::lock(wal)
                .append(&WalRecord::Remove {
                    name: name.to_owned(),
                })
                .map_err(ServerError::wal)?;
        }
        Ok(self.shared.catalog.remove(name))
    }

    /// Answer one request **inline on the calling thread** — the wire
    /// front-end's entry point. Connection handlers already run as
    /// detached scheduler jobs, so they must not round-trip through
    /// [`Server::submit`]'s reply channel (a worker blocking on work that
    /// sits behind it in the injector is a deadlock); instead they run the
    /// request's steps here, with intra-request parallelism still fanning
    /// out to the other workers when configured.
    ///
    /// Inline mutations stay deadlock-free under the ticket discipline
    /// because reservation, WAL append, and apply happen in one
    /// un-yielding step: every earlier-ticket holder is simultaneously
    /// *running* on some worker (never parked in a queue), so the wait in
    /// `mutate_ticketed` always bottoms out at the next-to-apply ticket
    /// making progress. On a durable server the write is fsync'd before it
    /// applies: by the time the caller sees the outcome, it is recoverable.
    pub fn answer_one(&self, req: &Request) -> Result<Response, ServerError> {
        let started = Instant::now();
        let _span = telemetry::tracing_enabled().then(|| telemetry::request_span(req.label()));
        let mut work = self.resolve(req)?;
        drop(self.reserve(&mut work)?);
        Ok(self.shared.run(work, started))
    }

    /// The resolve step of every request: take the instance snapshot
    /// (failing on an unknown instance); for a query, probe the answer
    /// cache at that version and, on a miss, fetch or build the plan.
    fn resolve<'a>(&self, req: &'a Request) -> Result<Resolved<'a>, ServerError> {
        let inst = self
            .shared
            .catalog
            .get(&req.instance)
            .ok_or_else(|| ServerError::UnknownInstance(req.instance.clone()))?;
        let query = match &req.action {
            Action::Query(query) => query,
            Action::Mutate(ops) => {
                return Ok(Resolved::Mutate {
                    instance: Cow::Borrowed(&req.instance),
                    ops: Cow::Borrowed(ops),
                    ticket: 0,
                })
            }
        };
        let program = query.cache_key();
        let answers = &self.shared.answers;
        let key = answers
            .enabled()
            .then(|| format!("{program}|{}#{}", inst.name, inst.version));
        if let Some(answer) = key.as_deref().and_then(|k| answers.get(k)) {
            return Ok(Resolved::Cached {
                program,
                inst,
                answer,
            });
        }
        let plan = self
            .plans
            .get_or_build_keyed(&program, query, &self.config.plan);
        Ok(Resolved::Query { plan, inst, key })
    }

    /// The reserve step of a write: on a durable server its WAL record,
    /// then its ticket, both under `mutation_order`, so per-instance log
    /// order equals ticket order. The record is logged with the ticket
    /// the reservation is about to take; a failed append returns
    /// [`ServerError::Wal`] with no ticket taken, so no later write of the
    /// instance (nor a quiesce) waits on a ticket nobody will redeem.
    /// Returns the held lock (`None` for a query): a batch spawns the
    /// write's job before releasing it (see `Server::spawn`),
    /// [`Server::answer_one`] releases it at once.
    fn reserve(&self, work: &mut Resolved<'_>) -> Result<Option<MutexGuard<'_, ()>>, ServerError> {
        let Resolved::Mutate {
            instance,
            ops,
            ticket,
        } = work
        else {
            return Ok(None);
        };
        let order = sync::lock(&self.mutation_order);
        let catalog = &self.shared.catalog;
        if let Some(wal) = &self.wal {
            sync::lock(wal)
                .append(&WalRecord::Mutate {
                    name: instance.to_string(),
                    seq: catalog.next_ticket(instance) + 1,
                    ops: ops.to_vec(),
                })
                .map_err(ServerError::wal)?;
            self.since_snapshot.fetch_add(1, Ordering::Relaxed);
        }
        *ticket = catalog.reserve_ticket(instance);
        Ok(Some(order))
    }

    /// A point-in-time snapshot of the process-wide telemetry registry —
    /// counters, gauges, latency histograms, and the per-(program,
    /// instance) request table fed by every request's record step. The
    /// `metrics` wire verb and `replay --metrics` render this as
    /// Prometheus-style text.
    pub fn telemetry_snapshot(&self) -> sirup_core::TelemetrySnapshot {
        telemetry::snapshot()
    }

    /// WAL `(epoch, log bytes)` on a durable server, `None` otherwise.
    pub fn wal_stats(&self) -> Option<(u64, u64)> {
        self.wal.as_ref().map(|w| {
            let w = sync::lock(w);
            (w.epoch(), w.log_len().unwrap_or(0))
        })
    }

    /// The full Prometheus text exposition served by the `metrics` wire
    /// verb: the process-wide registry
    /// ([`Server::telemetry_snapshot`]) followed by this server's own
    /// families — plan/answer cache hit/miss counters and, on a durable
    /// server, WAL epoch and log size gauges. The caches are per-server
    /// state (the registry is per-process), which is why they are appended
    /// here rather than counted globally.
    pub fn metrics_text(&self) -> String {
        let mut out = self.telemetry_snapshot().to_prometheus();
        let (ph, pm) = self.plans.stats();
        let (ah, am) = self.shared.answers.stats();
        for (name, v) in [
            ("sirup_plan_cache_hits_total", ph),
            ("sirup_plan_cache_misses_total", pm),
            ("sirup_answer_cache_hits_total", ah),
            ("sirup_answer_cache_misses_total", am),
        ] {
            writeln!(out, "# TYPE {name} counter\n{name} {v}").unwrap();
        }
        if let Some((epoch, bytes)) = self.wal_stats() {
            writeln!(out, "# TYPE sirup_wal_epoch gauge\nsirup_wal_epoch {epoch}").unwrap();
            writeln!(
                out,
                "# TYPE sirup_wal_log_bytes gauge\nsirup_wal_log_bytes {bytes}"
            )
            .unwrap();
        }
        out
    }

    /// Stats of one live instance.
    pub fn instance_stats(&self, name: &str) -> Option<InstanceStats> {
        let inst = self.shared.catalog.get(name)?;
        Some(InstanceStats {
            name: inst.name.clone(),
            version: inst.version,
            seq: inst.seq,
            nodes: inst.data.node_count(),
            unary_atoms: inst.data.label_count(),
            binary_atoms: inst.data.edge_count(),
            cow: inst.cow,
            live_bytes: inst.data.live_bytes(),
            frozen_bytes: inst.frozen_bytes(),
            materializations: inst.materialization_stats(),
        })
    }

    /// Spawn one resolved and reserved request as a detached job on the
    /// scheduler; its response comes back on `reply` under `idx`, and
    /// `label` (present while tracing) names its root trace span.
    ///
    /// Ticket order: a write's job is spawned while the reserve step still
    /// holds `mutation_order`, so per instance tickets enter the
    /// scheduler's FIFO injector in reservation order. Workers start
    /// injector jobs strictly in FIFO order and helping threads never pop
    /// the injector, so the job holding the next-to-apply ticket is always
    /// started before any job that waits on it in `mutate_ticketed`, and a
    /// blocked waiter can never starve the workers. Reserving at resolve
    /// time instead would let an arrival-sorted paced replay or a racing
    /// second submitter enqueue tickets out of order and hang the
    /// scheduler.
    fn spawn(
        &self,
        idx: usize,
        work: Resolved<'static>,
        label: Option<String>,
        reply: &Sender<(usize, Response)>,
    ) {
        let shared = Arc::clone(&self.shared);
        let reply = reply.clone();
        let enqueued = Instant::now();
        self.shared.sched.spawn(move || {
            let _span = label.map(telemetry::request_span);
            let response = shared.run(work, enqueued);
            // The batch collector may have given up (a panic elsewhere); a
            // closed reply channel is not this job's problem.
            let _ = reply.send((idx, response));
        });
    }

    /// Answer a batch. Requests are validated up front (no partial
    /// execution on a validation error); responses come back in request
    /// order. Queries already answered for the resolved instance version
    /// are served from the answer cache without touching the scheduler;
    /// mutations apply in request order per instance. A failed WAL append
    /// stops the batch at that write and returns [`ServerError::Wal`]: the
    /// requests spawned before it still run (their writes were logged),
    /// nothing after it does.
    pub fn submit(&self, requests: &[Request]) -> Result<Vec<Response>, ServerError> {
        self.submit_paced(requests, None)
    }

    /// The batch loop behind [`Server::submit`] and [`Server::replay`].
    /// Every request is resolved before any runs, so an unknown instance
    /// fails the whole batch, every query answers against its
    /// submission-time snapshot, and cold plan builds happen before the
    /// pacing clock starts. Then each request is reserved and spawned in
    /// turn — with `arrivals`, in arrival order and not before its virtual
    /// arrival offset (a late stream never sleeps to catch up), so
    /// same-instance mutations apply in arrival order — while answer-cache
    /// hits are answered inline.
    fn submit_paced(
        &self,
        requests: &[Request],
        arrivals: Option<&[u64]>,
    ) -> Result<Vec<Response>, ServerError> {
        let mut resolved = requests
            .iter()
            .map(|r| self.resolve(r).map(Some))
            .collect::<Result<Vec<_>, _>>()?;
        let mut order: Vec<usize> = (0..requests.len()).collect();
        if let Some(arrivals) = arrivals {
            order.sort_by_key(|&i| arrivals[i]);
        }
        let mut responses: Vec<Option<Response>> = vec![None; requests.len()];
        let (reply, done) = channel();
        let start = Instant::now();
        for i in order {
            if let Some(arrivals) = arrivals {
                let due = Duration::from_micros(arrivals[i]);
                if let Some(wait) = due.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
            }
            let mut work = resolved[i].take().expect("each request runs once");
            // A failed WAL append stops the batch here: what was spawned
            // runs to completion, nothing after it is reserved.
            let _order = self.reserve(&mut work)?;
            if let Resolved::Cached { .. } = work {
                responses[i] = Some(self.shared.run(work, Instant::now()));
            } else {
                let label = telemetry::tracing_enabled().then(|| requests[i].label());
                self.spawn(i, work.into_owned(), label, &reply);
            }
        }
        drop(reply);
        for (i, response) in done {
            responses[i] = Some(response);
        }
        Ok(responses
            .into_iter()
            .map(|r| r.expect("every request completes"))
            .collect())
    }

    /// Load a spec's instances and replay its request stream.
    pub fn replay(
        &self,
        spec: &TrafficSpec,
        mode: ReplayMode,
    ) -> Result<ReplayReport, ServerError> {
        for (name, data) in &spec.instances {
            self.load_instance(name.clone(), data.clone())?;
        }
        let requests: Vec<Request> = spec
            .requests
            .iter()
            .map(Request::from_traffic)
            .collect::<Result<_, _>>()?;
        let arrivals: Vec<u64> = spec.requests.iter().map(|r| r.arrival_us).collect();
        let paced = (mode == ReplayMode::Open).then_some(&arrivals[..]);
        let started = Instant::now();
        let responses = self.submit_paced(&requests, paced)?;
        let elapsed = started.elapsed();

        let mut per_kind: FxHashMap<&str, usize> = FxHashMap::default();
        for r in &spec.requests {
            *per_kind.entry(r.keyword()).or_default() += 1;
        }
        let mut per_strategy: FxHashMap<&str, usize> = FxHashMap::default();
        for r in &responses {
            *per_strategy.entry(r.strategy).or_default() += 1;
        }
        let sorted = |m: FxHashMap<&str, usize>| {
            let mut v: Vec<(String, usize)> =
                m.into_iter().map(|(k, n)| (k.to_owned(), n)).collect();
            v.sort_unstable();
            v
        };
        let mutations = responses
            .iter()
            .filter(|r| r.strategy == "mutation")
            .count();
        let mutation_ops_applied = responses
            .iter()
            .map(|r| match r.answer {
                Answer::Applied { applied, .. } => applied,
                _ => 0,
            })
            .sum();
        let latencies: Vec<Duration> = responses.iter().map(|r| r.latency).collect();
        let services: Vec<Duration> = responses.iter().map(|r| r.service).collect();
        Ok(ReplayReport {
            total: responses.len(),
            threads: self.threads(),
            elapsed,
            per_kind: sorted(per_kind),
            per_strategy: sorted(per_strategy),
            mutations,
            mutation_ops_applied,
            latency: LatencyStats::from_durations(&latencies),
            service: LatencyStats::from_durations(&services),
            plan_cache: self.plans.stats(),
            answer_cache: self.shared.answers.stats(),
            plans_resident: self.plans.len(),
            answers: responses.into_iter().map(|r| r.answer).collect(),
        })
    }
}

impl Drop for Server {
    /// Drain-then-join: every queued job — so every reserved mutation
    /// ticket — completes before the workers exit, and every in-flight
    /// request still gets its response.
    fn drop(&mut self) {
        self.shared.sched.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirup_core::parse::st;
    use sirup_core::{Node, Pred};

    #[test]
    fn logged_node_counts_are_checked_not_truncated() {
        assert_eq!(logged_node_count(0), Ok(0));
        assert_eq!(logged_node_count(MAX_NODES), Ok(MAX_NODES as u32));
        for n in [MAX_NODES + 1, 1 << 32, usize::MAX] {
            assert_eq!(logged_node_count(n), Err(ServerError::TooManyNodes(n)));
        }
    }

    fn tiny_server() -> Server {
        let s = Server::new(ServerConfig {
            threads: 2,
            plan_cache: 8,
            answer_cache: 16,
            ..ServerConfig::default()
        });
        s.load_instance("yes", st("F(u), R(u,v), T(v)")).unwrap();
        s.load_instance("no", st("F(u), R(v,u), T(v)")).unwrap();
        s
    }

    fn pi_req(instance: &str) -> Request {
        Request::query(Query::PiGoal(OneCq::parse("F(x), R(x,y), T(y)")), instance)
    }

    #[test]
    fn submit_answers_in_request_order() {
        let s = tiny_server();
        let reqs = vec![pi_req("yes"), pi_req("no"), pi_req("yes")];
        let resp = s.submit(&reqs).unwrap();
        assert_eq!(resp.len(), 3);
        assert_eq!(resp[0].answer, Answer::Bool(true));
        assert_eq!(resp[1].answer, Answer::Bool(false));
        assert_eq!(resp[2].answer, Answer::Bool(true));
        // One program in the batch ⇒ one plan build, shared.
        assert_eq!(s.plan_cache().stats().1, 1);
    }

    #[test]
    fn answer_cache_serves_repeats_and_mutation_invalidates() {
        let s = tiny_server();
        let r = pi_req("yes");
        let first = s.submit(std::slice::from_ref(&r)).unwrap();
        assert_ne!(first[0].strategy, "cached");
        let second = s.submit(std::slice::from_ref(&r)).unwrap();
        assert_eq!(second[0].strategy, "cached");
        assert_eq!(second[0].answer, first[0].answer);
        // A mutation bumps the version: the cached answer cannot be served
        // and the fresh evaluation sees the new data.
        let m = Request::mutation(vec![FactOp::RemoveLabel(Pred::T, Node(1))], "yes");
        let out = s.submit(std::slice::from_ref(&m)).unwrap();
        let Answer::Applied { applied, seq } = out[0].answer else {
            panic!("mutation got {:?}", out[0].answer);
        };
        assert_eq!((applied, out[0].strategy), (1, "mutation"));
        assert_eq!(seq, 1, "first mutation of the instance");
        let third = s.submit(std::slice::from_ref(&r)).unwrap();
        assert_ne!(third[0].strategy, "cached");
        assert_eq!(third[0].answer, Answer::Bool(false));
    }

    #[test]
    fn mutations_in_one_batch_apply_in_order() {
        let s = tiny_server();
        // Same-instance mutations race across workers but tickets force
        // request order: remove, add, remove ⇒ label absent.
        let ops = [
            FactOp::RemoveLabel(Pred::T, Node(1)),
            FactOp::AddLabel(Pred::T, Node(1)),
            FactOp::RemoveLabel(Pred::T, Node(1)),
        ];
        let reqs: Vec<Request> = ops
            .iter()
            .map(|&op| Request::mutation(vec![op], "yes"))
            .collect();
        let resp = s.submit(&reqs).unwrap();
        for r in &resp {
            let Answer::Applied { applied, .. } = r.answer else {
                panic!()
            };
            assert_eq!(applied, 1, "each alternating op is effective in order");
        }
        assert!(!s
            .catalog()
            .get("yes")
            .unwrap()
            .data
            .has_label(Node(1), Pred::T));
    }

    #[test]
    fn unknown_instance_fails_whole_batch() {
        let s = tiny_server();
        let err = s.submit(&[pi_req("yes"), pi_req("missing")]).unwrap_err();
        assert_eq!(err, ServerError::UnknownInstance("missing".to_owned()));
        // The failed batch reserved no tickets: an inline mutation proceeds.
        let add = Request::mutation(vec![FactOp::AddLabel(Pred::A, Node(0))], "yes");
        assert!(s.answer_one(&add).is_ok());
        let err = s.answer_one(&Request::mutation(vec![], "missing"));
        assert_eq!(
            err.unwrap_err(),
            ServerError::UnknownInstance("missing".to_owned())
        );
    }

    #[test]
    fn replay_reports_both_modes() {
        use sirup_workloads::traffic::{mixed_traffic, TrafficParams};
        let spec = mixed_traffic(
            TrafficParams {
                instances: 2,
                requests: 40,
                mean_gap_us: 30,
                ..Default::default()
            },
            11,
        );
        let s = Server::with_defaults();
        let closed = s.replay(&spec, ReplayMode::Closed).unwrap();
        assert_eq!(closed.total, 40);
        assert_eq!(closed.answers.len(), 40);
        assert!(closed.throughput() > 0.0);
        assert!(!closed.per_kind.is_empty());
        assert!(!closed.per_strategy.is_empty());
        assert_eq!(closed.mutations, 0);
        let open = s.replay(&spec, ReplayMode::Open).unwrap();
        assert_eq!(open.total, 40);
        // Identical answers regardless of pacing and cache temperature.
        assert_eq!(closed.answers, open.answers);
        let text = closed.summary();
        for needle in ["req/s", "p50", "p99", "plan cache", "mutations"] {
            assert!(text.contains(needle), "summary missing {needle}: {text}");
        }
    }

    #[test]
    fn replay_with_mutations_reports_throughput() {
        use sirup_workloads::traffic::{mixed_traffic, TrafficParams};
        let spec = mixed_traffic(
            TrafficParams {
                instances: 2,
                requests: 60,
                mean_gap_us: 20,
                mutation_ratio: 0.3,
                hot_weight: 0.4,
                ..Default::default()
            },
            23,
        );
        let s = Server::with_defaults();
        let report = s.replay(&spec, ReplayMode::Closed).unwrap();
        assert!(report.mutations > 0);
        assert!(report.mutation_ops_applied > 0);
        assert!(report.mutation_throughput() > 0.0);
        assert!(report
            .per_kind
            .iter()
            .any(|(k, n)| k == "mutate" && *n == report.mutations));
        assert!(report
            .per_strategy
            .iter()
            .any(|(k, n)| k == "mutation" && *n == report.mutations));
        let text = report.summary();
        assert!(text.contains("op(s) applied"), "{text}");
    }

    #[test]
    fn instance_stats_expose_live_state() {
        let s = tiny_server();
        // A semi-naive query attaches a materialisation.
        let q4 = Request::query(
            Query::PiGoal(OneCq::parse("F(x), R(y,x), R(y,z), T(z)")),
            "yes",
        );
        s.submit(&[q4]).unwrap();
        let stats = s.instance_stats("yes").unwrap();
        assert_eq!(stats.name, "yes");
        assert!(stats.version > 0);
        assert_eq!(stats.nodes, 2);
        assert_eq!(stats.unary_atoms + stats.binary_atoms, 3);
        assert_eq!(stats.materializations.len(), 1);
        assert!(s.instance_stats("missing").is_none());
    }

    /// Both entry points run the same steps: a Σ_q4 read attaches one
    /// materialisation whether it runs inline or batched, and the writes
    /// that follow carry it rather than drop it.
    #[test]
    fn inline_and_batched_reads_attach_and_writes_carry() {
        let q4 = Query::SigmaAnswers(OneCq::parse("F(x), R(y,x), R(y,z), T(z)"));
        for inline in [true, false] {
            // No answer cache: every read evaluates.
            let s = Server::new(ServerConfig {
                threads: 1,
                answer_cache: 0,
                ..ServerConfig::default()
            });
            s.load_instance("d", st("F(u), R(v,u), R(v,w), T(w)"))
                .unwrap();
            let send = |req: Request| {
                if inline {
                    s.answer_one(&req).unwrap()
                } else {
                    s.submit(&[req]).unwrap().remove(0)
                }
            };
            let mats = || s.catalog().get("d").unwrap().materialization_count();
            assert_eq!(mats(), 0);
            let first = send(Request::query(q4.clone(), "d"));
            assert_eq!(first.strategy, "semi-naive");
            assert_eq!(mats(), 1, "the first read attaches (inline: {inline})");
            for i in 0..2 {
                send(Request::mutation(
                    vec![FactOp::AddLabel(Pred::A, Node(10 + i))],
                    "d",
                ));
            }
            assert_eq!(mats(), 1, "writes carry it (inline: {inline})");
            assert_eq!(send(Request::query(q4.clone(), "d")).answer, first.answer);
        }
    }

    /// Answer-cache hits reach the per-(program, instance) table on both
    /// entry points.
    #[test]
    fn cached_hits_are_recorded_inline_and_batched() {
        let s = tiny_server();
        let q4 = Query::PiGoal(OneCq::parse("F(x), R(y,x), R(y,z), T(z)"));
        for (inline, name) in [(true, "per-key-inline"), (false, "per-key-batched")] {
            s.load_instance(name, st("F(u), R(v,u), R(v,w), T(w)"))
                .unwrap();
            let req = Request::query(q4.clone(), name);
            for _ in 0..2 {
                if inline {
                    s.answer_one(&req).unwrap();
                } else {
                    s.submit(std::slice::from_ref(&req)).unwrap();
                }
            }
            let row = telemetry::snapshot()
                .keys
                .into_iter()
                .find(|k| k.instance == name)
                .expect("a per-key row for the instance");
            assert_eq!(
                row.strategies,
                vec![("semi-naive", 1), ("cached", 1)],
                "inline: {inline}"
            );
        }
    }

    /// Dropping the server while ticketed write jobs are still queued must
    /// neither deadlock (queued tickets drain in order, so no waiter
    /// starves) nor lose a response.
    #[test]
    fn drop_with_queued_writes_drains_cleanly() {
        let s = Server::new(ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        });
        s.load_instance("d", st("T(a), A(b), R(b,a)")).unwrap();
        let shared = Arc::clone(&s.shared);
        // Alternate removing and re-adding one label so every op is
        // effective, all against one instance (maximal ticket contention).
        let total = 24;
        let reqs: Vec<Request> = (0..total)
            .map(|i| {
                let op = if i % 2 == 0 {
                    FactOp::RemoveLabel(Pred::T, Node(0))
                } else {
                    FactOp::AddLabel(Pred::T, Node(0))
                };
                Request::mutation(vec![op], "d")
            })
            .collect();
        let (reply, done) = channel();
        for (idx, req) in reqs.iter().enumerate() {
            let mut work = s.resolve(req).unwrap();
            let _order = s.reserve(&mut work).unwrap();
            s.spawn(idx, work.into_owned(), None, &reply);
        }
        drop(reply);
        // Most jobs are still queued: dropping the server drains them.
        drop(s);
        let mut seen: Vec<usize> = done
            .iter()
            .map(|(idx, r)| {
                assert_eq!(r.strategy, "mutation");
                let Answer::Applied { applied, seq } = r.answer else {
                    panic!("write answered {:?}", r.answer);
                };
                assert_eq!((applied, seq), (1, idx as u64 + 1), "ticket order");
                idx
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..total).collect::<Vec<_>>(), "lost responses");
        // An even total ends on an add: the label is present, and the
        // whole ticket range was redeemed, so a fresh write does not block.
        let catalog = &shared.catalog;
        assert!(catalog.get("d").unwrap().data.has_label(Node(0), Pred::T));
        assert!(catalog
            .mutate("d", &[FactOp::AddLabel(Pred::A, Node(0))])
            .is_some());
    }

    /// A failed WAL append acks nothing and takes no ticket: a later write
    /// to the same instance and a snapshot both return (the log is
    /// fail-stop, so both report the failure) instead of waiting forever
    /// on a ticket nobody redeems. The waits are bounded, so a wedge fails
    /// the test rather than hanging it.
    #[test]
    fn failed_wal_append_acks_nothing_and_wedges_nothing() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for inline in [true, false] {
            let dir = std::env::temp_dir().join(format!(
                "sirup-server-walfault-{inline}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let config = ServerConfig {
                threads: 2,
                ..ServerConfig::default()
            };
            let s = Arc::new(Server::open_durable(config, &dir).unwrap());
            s.load_instance("d", st("T(a), A(b), R(b,a)")).unwrap();
            let write = |i| Request::mutation(vec![FactOp::AddLabel(Pred::A, Node(i))], "d");
            sync::lock(s.wal.as_ref().unwrap()).fail_next_append();
            // Caught like the wire front-end catches a request's panic.
            let failed = catch_unwind(AssertUnwindSafe(|| {
                if inline {
                    s.answer_one(&write(0)).map(|_| ())
                } else {
                    s.submit(&[pi_req("d"), write(0), write(1)]).map(|_| ())
                }
            }));
            assert!(
                matches!(failed, Ok(Err(ServerError::Wal(_)))),
                "inline: {inline}: {failed:?}"
            );
            let (tx, rx) = channel();
            let server = Arc::clone(&s);
            std::thread::spawn(move || {
                let later = server.answer_one(&write(2)).map(|r| r.answer);
                let _ = tx.send((later, server.snapshot_now().is_ok()));
            });
            let (later, snapshotted) = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("a write or snapshot after a failed append hung");
            assert!(matches!(later, Err(ServerError::Wal(_))), "{later:?}");
            assert!(!snapshotted, "a failed log must refuse compaction");
            let d = s.catalog().get("d").unwrap();
            assert_eq!((d.seq, d.data.has_label(Node(0), Pred::A)), (0, false));
            drop(s);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
