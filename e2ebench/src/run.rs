//! Targets, set-up, the closed-loop phase driver and the answer checks.

use crate::host;
use crate::trace::Tracer;
use crate::workload::{
    canonical, large_instance, oracle, oracle_cold, sub_seed, Class, ColdGen, Mix, Model,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sirup_cactus::{find_bound, pi_rewriting, sigma_rewriting, BoundSearch, Boundedness};
use sirup_classifier::classify_trichotomy;
use sirup_core::frame;
use sirup_core::program::{pi_q, sigma_q};
use sirup_core::{FactOp, Node};
use sirup_engine::containment::minimise_ucq;
use sirup_engine::CompiledProgram;
use sirup_hom::core_of;
use sirup_server::{
    Action, Answer, Daemon, PlanOptions, Query, Request, Server, ServerConfig, Wal, WalRecord,
    WireConfig,
};
use sirup_workloads::paper;
use sirup_workloads::wire::{load_request, mutate_request, query_request, WireClient};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Of the states a mutation leaves, one in this many has its read checked
/// against the engine (every read of the loaded state is checked).
const STATE_SAMPLE: u64 = 64;
/// One in this many cold answers is checked against the engine.
const COLD_SAMPLE: u32 = 16;
/// At most this many sampled answers wait for the check after the phase,
/// so the client's memory does not grow with the request count.
const MAX_DEFERRED: usize = 4096;
/// How often the calibration kernel runs during a phase: often enough
/// that its median over a round follows the host through the round.
const CALIB_EVERY: Duration = Duration::from_millis(25);
/// Peak RSS is read after this many requests of a phase (or at its end if
/// it sends fewer), so it measures a fixed amount of work and not how fast
/// the host ran.
const RSS_AT_REQUESTS: u64 = 2000;
/// Requests in this first stretch of a phase are sent and checked but
/// neither timed nor traced: caches and allocator pools fill first.
const WARMUP: Duration = Duration::from_millis(100);

/// In-process servers answer inline on the client thread, so one worker
/// is enough; the daemon's connection job runs on that worker.
fn config(answer_cache: usize) -> ServerConfig {
    ServerConfig {
        threads: 1,
        answer_cache,
        ..ServerConfig::default()
    }
}

/// Where requests go.
pub enum Target {
    InProc(Box<Server>),
    Wire(Box<WireTarget>),
}

pub struct WireTarget {
    server: Arc<Server>,
    daemon: Daemon,
    client: Option<WireClient>,
    /// An in-process server fed the same requests, whose `answer_one` time
    /// is subtracted from the round trip, and a WAL the benchmark appends
    /// the same mutation records to.
    twin: Server,
    own_wal: Wal,
}

/// A set-up target with the client's model of its large instance `g`
/// (absent when the target holds only `d1`).
pub struct Bench {
    pub target: Target,
    pub model: Option<Model>,
}

impl Bench {
    /// The server that holds the catalog.
    pub fn server(&self) -> &Server {
        match &self.target {
            Target::InProc(s) => s,
            Target::Wire(w) => &w.server,
        }
    }

    /// Send one request untraced.
    fn request(&mut self, req: &Request) -> Result<Answer, String> {
        match &mut self.target {
            Target::InProc(s) => s
                .answer_one(req)
                .map(|r| r.answer)
                .map_err(|e| e.to_string()),
            Target::Wire(w) => {
                let client = w.client.as_mut().expect("client open");
                let reply = client.request(&render(req)).map_err(|e| e.to_string());
                reply.and_then(|r| parse_reply(&r))
            }
        }
    }

    /// The model of `g`: every mix but [`Mix::Cold`] reads or writes it.
    fn model(&mut self) -> &mut Model {
        self.model
            .as_mut()
            .expect("this mix needs the large instance")
    }

    /// Keep the twin's state identical to the daemon's (untimed).
    fn mirror(&mut self, req: &Request) {
        if let Target::Wire(w) = &mut self.target {
            let _ = w.twin.answer_one(req);
        }
    }

    /// Stop the daemon and wait until its connection job has let go of the
    /// server, so the server (and its workers) drop on this thread.
    pub fn shutdown(self) {
        if let Target::Wire(mut w) = self.target {
            drop(w.client.take());
            w.daemon.shutdown();
            let deadline = Instant::now() + Duration::from_secs(10);
            while Arc::strong_count(&w.server) > 1 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

/// Load `g` into `server` and answer every read class once (plans built,
/// the fixpoint materialised, the CSR view frozen).
fn load_warm(server: &Server, m: &Model) {
    server.load_instance(m.name.clone(), m.base.clone());
    for c in Class::READS {
        server
            .answer_one(&Request::query(c.query(), m.name.clone()))
            .expect("warm read");
    }
}

/// The in-process bench: the large instance `g` (warmed) when `large`, the
/// paper's `d1` when `cold`.
pub fn setup_inproc(large: bool, cold: bool) -> Bench {
    let server = Server::new(config(0));
    let model = large.then(|| Model::new("g", large_instance()));
    if let Some(m) = &model {
        load_warm(&server, m);
    }
    if cold {
        server.load_instance("d1", paper::d1());
    }
    Bench {
        target: Target::InProc(Box::new(server)),
        model,
    }
}

/// The durable daemon bench in `dir` (traced runs only): a fresh WAL
/// (snapshots off), `g` loaded over the wire (the load logged) and every
/// read class answered once, plus the twin server and the benchmark's own
/// WAL. The answer cache stays at its default.
pub fn setup_wire(dir: &Path) -> Result<Bench, String> {
    let io = |e: std::io::Error| e.to_string();
    let server = Arc::new(Server::open_durable(config(256), dir.join("daemon")).map_err(io)?);
    let daemon = Daemon::start(Arc::clone(&server), WireConfig::default()).map_err(io)?;
    let mut client = WireClient::connect(daemon.addr()).map_err(io)?;
    let m = Model::new("g", large_instance());
    let reply = client
        .request(&load_request(&m.name, &m.base))
        .map_err(io)?;
    if !reply.starts_with("ok ") {
        return Err(format!("load {}: {reply}", m.name));
    }
    for c in Class::READS {
        let q = Request::query(c.query(), m.name.clone());
        parse_reply(&client.request(&render(&q)).map_err(io)?)?;
    }
    let twin = Server::open_durable(config(256), dir.join("twin")).map_err(io)?;
    load_warm(&twin, &m);
    let (own_wal, _) = Wal::open(dir.join("own-wal")).map_err(io)?;
    Ok(Bench {
        target: Target::Wire(Box::new(WireTarget {
            server,
            daemon,
            client: Some(client),
            twin,
            own_wal,
        })),
        model: Some(m),
    })
}

fn render(req: &Request) -> String {
    match &req.action {
        Action::Query(q) => query_request(q.kind_name(), &req.instance, q.cq()),
        Action::Mutate(ops) => mutate_request(&req.instance, ops),
    }
}

/// Parse a wire reply into the answer it carries.
fn parse_reply(reply: &str) -> Result<Answer, String> {
    let bad = || format!("unexpected reply {reply:?}");
    let mut w = reply.split_whitespace();
    if w.next() != Some("answer") {
        return Err(bad());
    }
    match w.next() {
        Some("bool") => match w.next() {
            Some("true") => Ok(Answer::Bool(true)),
            Some("false") => Ok(Answer::Bool(false)),
            _ => Err(bad()),
        },
        Some("nodes") => w
            .next()
            .unwrap_or("")
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.strip_prefix('n')
                    .and_then(|d| d.parse().ok())
                    .map(Node)
                    .ok_or_else(bad)
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Answer::Nodes),
        Some("applied") => {
            let applied = w.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
            let seq = (w.next() == Some("seq"))
                .then(|| w.next().and_then(|s| s.parse().ok()))
                .flatten()
                .ok_or_else(bad)?;
            Ok(Answer::Applied { applied, seq })
        }
        _ => Err(bad()),
    }
}

/// A read whose expected answer is computed after the timed phases.
struct Deferred {
    state: u64,
    batch: Vec<FactOp>,
    class: Class,
    answer: Answer,
}

/// What one phase measured.
#[derive(Default)]
pub struct Record {
    /// Untraced latencies in µs, by class.
    pub lat: [Vec<f64>; 5],
    /// Traced requests: wall time and counted layer sum in µs, by class.
    pub traced_wall: [Vec<f64>; 5],
    pub traced_sum: [Vec<f64>; 5],
    /// Summed latency of the untraced requests, in seconds.
    pub busy_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub calib: Vec<f64>,
    /// Mutation ops sent.
    pub ops: u64,
    /// `VmHWM` after [`RSS_AT_REQUESTS`] requests, in MiB.
    pub rss_mb: Option<f64>,
    deferred: Vec<Deferred>,
    deferred_cold: Vec<(Query, Answer)>,
}

impl Record {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }
}

/// Run `mix` against `bench` in a closed loop (one request in flight) for
/// `secs` seconds after a short warm-up. With a tracer, a seeded coin picks
/// the half of the requests that is traced (every second request would
/// alias with the write-then-read alternation).
pub fn run_phase(
    bench: &mut Bench,
    mix: Mix,
    secs: f64,
    seed: u64,
    mut tracer: Option<&mut Tracer>,
    rec: &mut Record,
) {
    let mut pick = StdRng::seed_from_u64(sub_seed(seed, 1));
    let mut muts = StdRng::seed_from_u64(sub_seed(seed, 2));
    let mut sample = StdRng::seed_from_u64(sub_seed(seed, 3));
    let mut cold = ColdGen::new(sub_seed(seed, 4));
    let mut coin = StdRng::seed_from_u64(sub_seed(seed, 5));
    let queries: Vec<Query> = Class::READS.iter().map(|c| c.query()).collect();
    let start = Instant::now();
    let measured = start + WARMUP;
    let deadline = measured + Duration::from_secs_f64(secs);
    let mut next_calib = measured;
    let mut calib = host::Calib::new();
    let mut write_next = true;
    let mut prev: Option<Class> = None;
    let mut i: u64 = 0;
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let warming = now < measured;
        if now >= next_calib {
            rec.calib.push(calib.time_us());
            next_calib += CALIB_EVERY;
        }
        let class = match mix {
            // Unbounded reads twice as often: then one in three (not one in
            // two) has a DPLL read since the last large allocation, and its
            // median stays in one mode (see README.md).
            Mix::Reads => [
                Class::Bounded,
                Class::Unbounded,
                Class::Unbounded,
                Class::Disjunctive,
            ][pick.gen_range(0..4usize)],
            Mix::WriteRead => {
                write_next = !write_next;
                if write_next {
                    Class::READS[pick.gen_range(0..3usize)]
                } else {
                    Class::Mutate
                }
            }
            Mix::Cold => Class::Cold,
            Mix::MutateCold => [Class::Mutate, Class::Cold][pick.gen_range(0..2usize)],
        };
        let req = match class {
            Class::Mutate => {
                let ops = bench.model().next_mutation(&mut muts);
                rec.ops += ops.len() as u64;
                Request::mutation(ops, bench.model().name.clone())
            }
            Class::Cold => Request::query(cold.next_query(), "d1"),
            c => Request::query(queries[c.index()].clone(), bench.model().name.clone()),
        };
        rec.attempted += 1;
        let result = match tracer.as_deref_mut() {
            Some(t) if !warming && coin.gen_bool(0.5) => {
                t.begin(i);
                let result = traced(bench, &req, class, prev, t);
                let (wall, sum) = t.end(class.name());
                rec.traced_wall[class.index()].push(wall);
                rec.traced_sum[class.index()].push(sum);
                result
            }
            _ => {
                let t0 = Instant::now();
                let result = bench.request(&req);
                let dt = t0.elapsed().as_secs_f64();
                if !warming {
                    rec.lat[class.index()].push(dt * 1e6);
                    rec.busy_s += dt;
                }
                bench.mirror(&req);
                result
            }
        };
        check(bench, class, &req, result, &mut sample, rec);
        if rec.attempted == RSS_AT_REQUESTS {
            rec.rss_mb = Some(host::peak_rss_mb());
        }
        prev = Some(class);
        i += 1;
    }
}

/// Check one answer: mutation replies and reads of a loaded state at once,
/// sampled reads of mutated states and cold answers after the phase.
fn check(
    bench: &mut Bench,
    class: Class,
    req: &Request,
    result: Result<Answer, String>,
    sample: &mut StdRng,
    rec: &mut Record,
) {
    let answer = match result {
        Ok(a) => a,
        Err(e) => return rec.fail(format!("{} request failed: {e}", class.name())),
    };
    match (&req.action, class) {
        (Action::Mutate(ops), _) => {
            let m = bench.model();
            let want = m.apply(ops);
            if answer != want {
                rec.fail(format!("mutate {}: got {answer:?}, want {want:?}", m.name));
            }
        }
        (Action::Query(q), Class::Cold) => {
            if sample.gen_range(0..COLD_SAMPLE) == 0 && rec.deferred_cold.len() < MAX_DEFERRED {
                rec.deferred_cold.push((q.clone(), answer));
            }
        }
        (Action::Query(_), _) => {
            let m = bench.model();
            if m.state == 0 {
                let want = m.base_answers[class.index()].as_ref().expect("base solved");
                if &answer != want {
                    rec.fail(format!(
                        "{} on {}: got {answer:?}, want {want:?}",
                        class.name(),
                        m.name
                    ));
                }
            } else {
                if sub_seed(m.state, 0).is_multiple_of(STATE_SAMPLE)
                    && rec.deferred.len() < MAX_DEFERRED
                {
                    rec.deferred.push(Deferred {
                        state: m.state,
                        batch: m.pending().to_vec(),
                        class,
                        answer,
                    });
                }
            }
        }
    }
}

/// The checks left after the phase: sampled reads of mutated states,
/// sampled cold answers, and the fold of every op sent against the final
/// catalog instance.
pub fn verify(bench: &Bench, rec: &mut Record) {
    let mut expected: HashMap<(u64, Class), Answer> = HashMap::new();
    for d in std::mem::take(&mut rec.deferred) {
        let m = bench.model.as_ref().expect("deferred reads have a model");
        let want = expected.entry((d.state, d.class)).or_insert_with(|| {
            let mut data = m.base.clone();
            data.apply_all(&d.batch);
            oracle(d.class, &data)
        });
        if &d.answer != want {
            let msg = format!(
                "{} on {} state {}: got {:?}, want {want:?}",
                d.class.name(),
                m.name,
                d.state,
                d.answer
            );
            rec.fail(msg);
        }
    }
    let d1 = paper::d1();
    for (q, answer) in std::mem::take(&mut rec.deferred_cold) {
        let want = oracle_cold(&q, &d1);
        if answer != want {
            rec.fail(format!(
                "cold {}: got {answer:?}, want {want:?}",
                q.cache_key()
            ));
        }
    }
    if let Some(m) = &bench.model {
        let mut fold = m.base.clone();
        fold.apply_all(&m.log);
        let live = bench.server().catalog().get(&m.name);
        if live.map(|i| canonical(&i.data)) != Some(canonical(&fold)) {
            rec.fail(format!("{}: catalog differs from the folded ops", m.name));
        }
    }
}

/// One request replaced by its layer calls.
fn traced(
    bench: &mut Bench,
    req: &Request,
    class: Class,
    prev: Option<Class>,
    t: &mut Tracer,
) -> Result<Answer, String> {
    match &mut bench.target {
        Target::InProc(server) => traced_inproc(server, req, class, prev, t),
        Target::Wire(w) => traced_wire(w, req, t),
    }
}

fn traced_inproc(
    server: &Server,
    req: &Request,
    class: Class,
    prev: Option<Class>,
    t: &mut Tracer,
) -> Result<Answer, String> {
    let (inst, _) = t.call("catalog.get", true, || server.catalog().get(&req.instance));
    let inst = inst.ok_or_else(|| format!("unknown instance {}", req.instance))?;
    let query = match &req.action {
        Action::Mutate(ops) => {
            let (_, us) = t.call("paged.apply", false, || {
                let mut data = inst.data.clone();
                data.apply_all(ops);
                data
            });
            t.sample("paged.apply_us", us);
            let (_, us) = t.call("index.apply", false, || {
                let mut index = inst.index.clone();
                index.apply_all(ops);
                index
            });
            t.sample("index.apply_us", us);
            for (key, _) in inst.materialization_stats() {
                let m = inst.materialization(&key, || unreachable!("listed as attached"));
                let (_, us) = t.call("incremental.carry", false, || {
                    let mut fwd = (*m).clone();
                    fwd.apply(ops);
                    fwd
                });
                t.sample("incremental.carry_us", us);
            }
            drop(inst);
            let (out, us) = t.call("catalog.mutate", true, || {
                server.catalog().mutate(&req.instance, ops)
            });
            t.sample("catalog.mutate_us", us);
            let out = out.ok_or("instance vanished")?;
            if let Some(now) = server.catalog().get(&req.instance) {
                t.sample("catalog.shared_ratio", now.cow.shared_ratio());
            }
            return Ok(Answer::Applied {
                applied: out.applied,
                seq: out.seq,
            });
        }
        Action::Query(q) => q,
    };
    let opts = PlanOptions::default();
    let (layer, metric) = if class == Class::Cold {
        ("plan.build", "plan.build_us")
    } else {
        ("plan.lookup", "plan.lookup_us")
    };
    let (plan, us) = t.call(layer, true, || {
        server.plan_cache().get_or_build(query, &opts)
    });
    t.sample(metric, us);
    if matches!(class, Class::Bounded | Class::Disjunctive) {
        // The rewriting and DPLL routes read through the version's CSR
        // view; the maintained fixpoint does not.
        let built = inst.frozen_bytes() > 0;
        let (_, us) = t.call("csr.frozen", true, || inst.frozen().is_some());
        if !built && inst.frozen_bytes() > 0 {
            t.sample("csr.freeze_us", us);
            t.sample("csr.frozen_bytes", inst.frozen_bytes() as f64);
            t.count("csr.freezes");
        }
    }
    let eval = match class {
        Class::Bounded => Some("eval.rewriting_us"),
        Class::Unbounded if prev == Some(Class::Disjunctive) => Some("eval.fixpoint_after_dpll_us"),
        Class::Unbounded => Some("eval.fixpoint_us"),
        Class::Disjunctive => Some("eval.dpll_us"),
        _ => None,
    };
    let (answer, us) = t.call(eval.unwrap_or("eval.cold_us"), true, || {
        plan.answer_routed(&inst, None, true)
    });
    match eval {
        Some(metric) => {
            t.sample(metric, us);
            t.count("reads");
        }
        None => replay_build(query, &opts, t),
    }
    Ok(answer)
}

/// Re-run the public steps of `Plan::build` one by one, each timed.
fn replay_build(query: &Query, opts: &PlanOptions, t: &mut Tracer) {
    let cq = query.cq();
    let (_, us) = t.call("hom.core", false, || core_of(cq));
    t.sample("hom.core_us", us);
    let (_, us) = t.call("classifier.trichotomy", false, || {
        classify_trichotomy(cq).ok()
    });
    t.sample("classifier.trichotomy_us", us);
    let (q, sigma) = match query {
        Query::PiGoal(q) => (q, false),
        Query::SigmaAnswers(q) => (q, true),
        Query::Delta { .. } => return,
    };
    let search = BoundSearch {
        max_d: opts.max_depth,
        horizon: opts.horizon,
        cap: opts.cap,
        sigma,
    };
    let (bound, us) = t.call("cactus.find_bound", false, || find_bound(q, search));
    t.sample("cactus.find_bound_us", us);
    if let Boundedness::BoundedEvidence { d, .. } = bound {
        let (ucq, us) = t.call("cactus.rewriting", false, || {
            if sigma {
                sigma_rewriting(q, d, opts.cap)
            } else {
                pi_rewriting(q, d, opts.cap)
            }
        });
        t.sample("cactus.rewriting_us", us);
        if let Some(ucq) = ucq {
            let (min, us) = t.call("containment.minimise", false, || minimise_ucq(&ucq));
            t.sample("containment.minimise_us", us);
            let (_, us) = t.call("fo.render", false, || {
                format!("{}", sirup_fo::ucq_to_fo(&min))
            });
            t.sample("fo.render_us", us);
            let (_, us) = t.call("plan.compile", false, || min.compile());
            t.sample("plan.compile_us", us);
            return;
        }
    }
    let program = if sigma { sigma_q(q) } else { pi_q(q) };
    let (_, us) = t.call("plan.compile", false, || CompiledProgram::new(&program));
    t.sample("plan.compile_us", us);
}

/// A wire request: the real round trip, with frame encode/decode replayed
/// beside it and the same request timed on the in-process twin.
fn traced_wire(w: &mut WireTarget, req: &Request, t: &mut Tracer) -> Result<Answer, String> {
    let payload = render(req);
    let (_, us) = t.call("frame.encode", true, || {
        let mut buf = Vec::with_capacity(payload.len() + 8);
        frame::write_frame(&mut buf, payload.as_bytes()).map(|()| buf)
    });
    t.sample("frame.encode_us", us);
    let client = w.client.as_mut().expect("client open");
    let (reply, rtt) = t.call("wire.rtt", false, || client.request(&payload));
    t.sample("wire.rtt_us", rtt);
    let reply = reply.map_err(|e| e.to_string())?;
    t.sample("wire.reply_bytes", reply.len() as f64);
    let mut encoded = Vec::with_capacity(reply.len() + 8);
    frame::write_frame(&mut encoded, reply.as_bytes()).map_err(|e| e.to_string())?;
    let (_, us) = t.call("frame.decode", true, || {
        frame::read_frame(&mut std::io::Cursor::new(&encoded))
    });
    t.sample("frame.decode_us", us);
    let twin = &w.twin;
    let (_, inproc) = t.call("server.answer_one", true, || twin.answer_one(req));
    t.sample("wire.overhead_us", rtt - inproc);
    let answer = parse_reply(&reply)?;
    if let (Action::Mutate(ops), Answer::Applied { seq, .. }) = (&req.action, &answer) {
        let record = WalRecord::Mutate {
            name: req.instance.clone(),
            seq: *seq,
            ops: ops.clone(),
        };
        let wal = &mut w.own_wal;
        let (_, us) = t.call("wal.append", false, || wal.append(&record));
        t.sample("wal.append_us", us);
    }
    Ok(answer)
}

/// A fresh scratch directory for one run, inside the working directory.
pub fn run_dir(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(".bench_out").join(format!("run-{workload}-{seed}-{}", std::process::id()))
}
