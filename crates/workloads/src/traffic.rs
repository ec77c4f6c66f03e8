//! Traffic generation and the workload file format for the query service.
//!
//! A [`TrafficSpec`] is a self-contained workload: a catalog of named data
//! instances plus a stream of requests against them, each tagged with a
//! virtual arrival offset. A request either asks a certain-answer **query**
//! or applies a **mutation** (a batch of fact-level inserts/retracts) — the
//! read/write mix that makes the service a live system. `sirup-server`
//! replays specs either **closed-loop** (the whole stream is submitted as
//! one batch and drained at full speed — a throughput measurement) or
//! **open-loop** (submission is paced by the arrival offsets — a
//! latency-under-load measurement).
//!
//! [`mixed_traffic`] emits seeded random specs mixing the paper's named
//! programs (`q2`–`q5`, `q7`, `q8`, and `q1`–`q4` as disjunctive sirups)
//! with random ditree CQs over random instances — the standing workload for
//! the service-layer benchmarks and differential tests. With a positive
//! [`TrafficParams::mutation_ratio`] the stream interleaves mutation
//! requests whose ops are generated against an evolving shadow copy of each
//! instance (so retracts hit facts that exist); `hot_weight` skews traffic
//! towards the first instance, modelling a hot shard.
//!
//! The text format (one item per line, `#` comments) round-trips through
//! [`render_workload`] / [`parse_workload`]:
//!
//! ```text
//! # sirup workload v1
//! instance d1 = F(f1), R(f1,a1), A(a1), R(a1,t1), T(t1)
//! request pi d1 @0 = F(x), R(x,y), T(y)
//! request sigma d1 @180 = F(x), R(y,x), R(y,z), T(z)
//! request delta d1 @420 = T(x), R(x,y), F(y)
//! request mutate d1 @500 = +T(a1), -R(f1,a1)
//! ```
//!
//! Mutation ops name nodes by the identifiers of the instance definition
//! line (`Display` renders them as `n<i>`); names not bound by the instance
//! allocate fresh nodes, which is how inserts grow an instance.

use crate::paper;
use crate::random::{random_ditree_cq, random_instance, DitreeCqParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sirup_core::delta::parse_op;
use sirup_core::parse::parse_structure;
use sirup_core::{FactOp, Node, OneCq, Pred, Structure};
use std::fmt::Write as _;

/// The certain-answer query kinds the service answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Boolean certain answer to `(Π_q, G)` — needs a 1-CQ.
    PiGoal,
    /// Unary certain answers to `(Σ_q, P)` — needs a 1-CQ.
    SigmaAnswers,
    /// Boolean certain answer to the disjunctive `(Δ_q, G)`.
    Delta,
    /// Boolean certain answer to `(Δ⁺_q, G)` (with disjointness (3)).
    DeltaPlus,
}

impl QueryKind {
    /// The format keyword (`pi`, `sigma`, `delta`, `delta+`).
    pub fn keyword(self) -> &'static str {
        match self {
            QueryKind::PiGoal => "pi",
            QueryKind::SigmaAnswers => "sigma",
            QueryKind::Delta => "delta",
            QueryKind::DeltaPlus => "delta+",
        }
    }

    /// Parse a format keyword.
    pub fn from_keyword(kw: &str) -> Option<QueryKind> {
        match kw {
            "pi" => Some(QueryKind::PiGoal),
            "sigma" => Some(QueryKind::SigmaAnswers),
            "delta" => Some(QueryKind::Delta),
            "delta+" => Some(QueryKind::DeltaPlus),
            _ => None,
        }
    }
}

/// What a traffic request does to its target instance.
#[derive(Debug, Clone)]
pub enum TrafficAction {
    /// Ask a certain-answer query defined by a CQ.
    Query {
        /// Which certain-answer query to run.
        kind: QueryKind,
        /// The CQ `q` (validated as a 1-CQ for `pi`/`sigma` requests).
        cq: Structure,
    },
    /// Apply a batch of fact-level mutations, in order.
    Mutate {
        /// The inserts/retracts.
        ops: Vec<FactOp>,
    },
}

/// One request of a workload: an action against a named instance at a
/// virtual arrival offset.
#[derive(Debug, Clone)]
pub struct TrafficRequest {
    /// What to do.
    pub action: TrafficAction,
    /// Name of the target instance in the spec's catalog.
    pub instance: String,
    /// Virtual arrival time in microseconds from stream start (open-loop
    /// pacing; ignored by closed-loop replay).
    pub arrival_us: u64,
}

impl TrafficRequest {
    /// The format keyword of this request's action (`pi`, …, `mutate`).
    pub fn keyword(&self) -> &'static str {
        match &self.action {
            TrafficAction::Query { kind, .. } => kind.keyword(),
            TrafficAction::Mutate { .. } => "mutate",
        }
    }

    /// Is this a mutation?
    pub fn is_mutation(&self) -> bool {
        matches!(self.action, TrafficAction::Mutate { .. })
    }
}

/// A workload: named instances plus a request stream sorted by arrival.
#[derive(Debug, Clone, Default)]
pub struct TrafficSpec {
    /// The instance catalog content, in definition order.
    pub instances: Vec<(String, Structure)>,
    /// The request stream.
    pub requests: Vec<TrafficRequest>,
}

impl TrafficSpec {
    /// The catalog after applying every mutation of the stream in order:
    /// the reference final state for differential checks against a replay.
    pub fn final_instances(&self) -> Vec<(String, Structure)> {
        let mut out = self.instances.clone();
        for r in &self.requests {
            if let TrafficAction::Mutate { ops } = &r.action {
                if let Some((_, s)) = out.iter_mut().find(|(n, _)| *n == r.instance) {
                    s.apply_all(ops);
                }
            }
        }
        out
    }

    /// Total number of mutation ops across the stream.
    pub fn mutation_op_count(&self) -> usize {
        self.requests
            .iter()
            .map(|r| match &r.action {
                TrafficAction::Mutate { ops } => ops.len(),
                TrafficAction::Query { .. } => 0,
            })
            .sum()
    }
}

/// Parameters for [`mixed_traffic`].
#[derive(Debug, Clone, Copy)]
pub struct TrafficParams {
    /// Number of random instances to generate (besides `d1`/`d2`).
    pub instances: usize,
    /// Nodes per random instance.
    pub instance_nodes: usize,
    /// Edges per random instance.
    pub instance_edges: usize,
    /// Number of requests in the stream.
    pub requests: usize,
    /// Mean virtual inter-arrival gap in microseconds.
    pub mean_gap_us: u64,
    /// Number of random ditree CQs to add to the program pool.
    pub random_cqs: usize,
    /// Fraction of requests that are mutations (0.0 — the default — keeps
    /// the stream read-only).
    pub mutation_ratio: f64,
    /// Probability that a request targets the first (hot) instance instead
    /// of a uniformly random one (0.0 = uniform).
    pub hot_weight: f64,
}

impl Default for TrafficParams {
    fn default() -> Self {
        TrafficParams {
            instances: 4,
            instance_nodes: 24,
            instance_edges: 40,
            requests: 200,
            mean_gap_us: 150,
            random_cqs: 3,
            mutation_ratio: 0.0,
            hot_weight: 0.0,
        }
    }
}

/// One random mutation op against the current shadow state `s`: ~half
/// retracts of *existing* facts, ~half inserts (labels, edges, and the
/// occasional fresh node). Returns `None` when the shadow is empty and a
/// retract was drawn.
fn random_op(s: &Structure, rng: &mut StdRng) -> Option<FactOp> {
    let unary = [Pred::F, Pred::T, Pred::A];
    let binary = [Pred::R, Pred::S];
    if rng.gen_bool(0.5) {
        // Retract a uniformly random existing atom.
        let labels = s.label_count();
        let total = labels + s.edge_count();
        if total == 0 {
            return None;
        }
        let k = rng.gen_range(0..total);
        if k < labels {
            let (p, v) = s.unary_atoms().nth(k)?;
            Some(FactOp::RemoveLabel(p, v))
        } else {
            let (p, u, v) = s.edges().nth(k - labels)?;
            Some(FactOp::RemoveEdge(p, u, v))
        }
    } else {
        let grow = rng.gen_bool(0.08);
        let n = s.node_count() as u32;
        let fresh = Node(n); // one past the range: grows on insert
        let pick = |rng: &mut StdRng| Node(rng.gen_range(0..n.max(1)));
        if rng.gen_bool(0.5) {
            let v = if grow { fresh } else { pick(rng) };
            Some(FactOp::AddLabel(unary[rng.gen_range(0..3usize)], v))
        } else {
            let u = if grow { fresh } else { pick(rng) };
            let v = pick(rng);
            Some(FactOp::AddEdge(binary[rng.gen_range(0..2usize)], u, v))
        }
    }
}

/// Generate a seeded mixed workload over the paper's named programs plus
/// random ditree CQs and random instances, optionally interleaving mutation
/// requests. Deterministic in `(params, seed)`.
pub fn mixed_traffic(params: TrafficParams, seed: u64) -> TrafficSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut spec = TrafficSpec::default();
    spec.instances.push(("d1".to_owned(), paper::d1()));
    spec.instances.push(("d2".to_owned(), paper::d2()));
    for i in 0..params.instances {
        // Moderate A-density keeps the DPLL labelling search tractable.
        let s = random_instance(
            params.instance_nodes,
            params.instance_edges,
            0.45,
            0.25,
            seed.wrapping_add(i as u64).wrapping_mul(0x9e37),
        );
        spec.instances.push((format!("rand{i}"), s));
    }
    // Shadow copies track the effect of generated mutations, so retracts
    // target facts that actually exist at their point in the stream.
    let mut shadows: Vec<Structure> = spec.instances.iter().map(|(_, s)| s.clone()).collect();

    // Program pools. 1-CQs serve every kind; q1 (two solitary Fs) only the
    // disjunctive kinds.
    let mut one_cqs: Vec<OneCq> = vec![
        paper::q2_cq(),
        paper::q3_cq(),
        paper::q4_cq(),
        paper::q5(),
        paper::q7(),
        paper::q8(),
    ];
    let mut tries = 0u64;
    while one_cqs.len() < 6 + params.random_cqs && tries < 200 {
        let cq_seed = seed.wrapping_mul(31).wrapping_add(tries);
        if let Some(q) = random_ditree_cq(DitreeCqParams::default(), cq_seed) {
            one_cqs.push(q);
        }
        tries += 1;
    }
    let delta_only: Vec<Structure> = vec![paper::q1()];

    let mut arrival = 0u64;
    for _ in 0..params.requests {
        arrival += rng.gen_range(0..=2 * params.mean_gap_us);
        let inst_idx = if params.hot_weight > 0.0 && rng.gen_bool(params.hot_weight.min(1.0)) {
            0
        } else {
            rng.gen_range(0..spec.instances.len())
        };
        let instance = spec.instances[inst_idx].0.clone();

        if params.mutation_ratio > 0.0 && rng.gen_bool(params.mutation_ratio.min(1.0)) {
            let batch = rng.gen_range(1..=3usize);
            let mut ops = Vec::with_capacity(batch);
            for _ in 0..batch {
                if let Some(op) = random_op(&shadows[inst_idx], &mut rng) {
                    ops.push(op);
                }
            }
            if !ops.is_empty() {
                shadows[inst_idx].apply_all(&ops);
                spec.requests.push(TrafficRequest {
                    action: TrafficAction::Mutate { ops },
                    instance,
                    arrival_us: arrival,
                });
                continue;
            }
        }

        let kind = match rng.gen_range(0..100u32) {
            0..=29 => QueryKind::PiGoal,
            30..=54 => QueryKind::SigmaAnswers,
            55..=89 => QueryKind::Delta,
            _ => QueryKind::DeltaPlus,
        };
        let cq = match kind {
            QueryKind::PiGoal | QueryKind::SigmaAnswers => {
                one_cqs[rng.gen_range(0..one_cqs.len())].structure().clone()
            }
            QueryKind::Delta | QueryKind::DeltaPlus => {
                // Disjunctive kinds draw from both pools.
                let total = one_cqs.len() + delta_only.len();
                let i = rng.gen_range(0..total);
                if i < one_cqs.len() {
                    one_cqs[i].structure().clone()
                } else {
                    delta_only[i - one_cqs.len()].clone()
                }
            }
        };
        spec.requests.push(TrafficRequest {
            action: TrafficAction::Query { kind, cq },
            instance,
            arrival_us: arrival,
        });
    }
    spec
}

/// A **scaling** workload: one large generated instance (the `nodes` knob)
/// under a stream of heavy queries — the semi-naive fixpoint, the Σ answer
/// sweep, a rewriting-served sweep, and the DPLL labelling search all hit
/// the same big instance, so intra-request parallelism (not request mixing)
/// dominates the runtime. `sirupctl serve --scaling --nodes N --emit`
/// renders it (the bundled `workloads/large.sirupload` is this spec at its
/// committed size), and the `parallel_scaling` bench measures the same
/// shape directly. Deterministic in `(nodes, requests, seed)`.
pub fn scaling_traffic(nodes: usize, requests: usize, seed: u64) -> TrafficSpec {
    let nodes = nodes.max(8);
    let big = random_instance(nodes, nodes * 2, 0.45, 0.25, seed);
    let mut spec = TrafficSpec {
        instances: vec![("big".to_owned(), big)],
        requests: Vec::new(),
    };
    let heavy: [(QueryKind, Structure); 4] = [
        (QueryKind::PiGoal, paper::q4_cq().structure().clone()),
        (QueryKind::SigmaAnswers, paper::q4_cq().structure().clone()),
        (QueryKind::SigmaAnswers, paper::q7().structure().clone()),
        (QueryKind::Delta, paper::q2()),
    ];
    for i in 0..requests {
        let (kind, cq) = &heavy[i % heavy.len()];
        spec.requests.push(TrafficRequest {
            action: TrafficAction::Query {
                kind: *kind,
                cq: cq.clone(),
            },
            instance: "big".to_owned(),
            arrival_us: (i as u64) * 50,
        });
    }
    spec
}

/// A **phase-shifting** workload: one hot instance under three
/// consecutive traffic phases —
///
/// 1. **write-heavy**: mutations dominate with occasional interleaved
///    reads, so every write carries the materialisations attached to the
///    snapshot it builds on;
/// 2. **read-heavy**: an uninterrupted run of unbounded semi-naive reads
///    (`q4` as Π/Σ) plus disjunctive DPLL reads (`q2` as Δ/Δ⁺);
/// 3. **write-heavy again**. Over the wire, where each request reads the
///    snapshot current at its arrival, these writes carry the
///    materialisations phase 2 attached; a file replay is one batch,
///    whose reads all attach to the pre-batch snapshot.
///
/// It measures the write path under mixed traffic: writes to the one
/// instance apply one after another under the instance's writer lock, on
/// the submitting thread, while the reads run on the workers.
/// `sirupctl serve --phases --emit` renders it (the bundled
/// `workloads/phases.sirupload` is this spec at its committed size, and
/// `workloads/recordings/phases.answers` its answer stream). Deterministic
/// in `(per_phase, seed)`; arrivals are strictly nondecreasing.
pub fn phase_traffic(per_phase: usize, seed: u64) -> TrafficSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let per_phase = per_phase.max(4);
    let hot = random_instance(48, 96, 0.45, 0.25, seed);
    let mut spec = TrafficSpec {
        instances: vec![("hot".to_owned(), hot)],
        requests: Vec::new(),
    };
    let mut shadow = spec.instances[0].1.clone();
    let reads: [(QueryKind, Structure); 4] = [
        (QueryKind::PiGoal, paper::q4_cq().structure().clone()),
        (QueryKind::SigmaAnswers, paper::q4_cq().structure().clone()),
        (QueryKind::Delta, paper::q2()),
        (QueryKind::DeltaPlus, paper::q2()),
    ];
    let mut arrival = 0u64;
    for phase in 0..3usize {
        let write_heavy = phase != 1;
        for i in 0..per_phase {
            arrival += 40;
            // Write phases: 3 mutations to every read. Read phase: pure
            // reads cycling the pool, so each program's run is unbroken.
            if write_heavy && i % 4 != 0 {
                let batch = rng.gen_range(1..=2usize);
                let mut ops = Vec::with_capacity(batch);
                for _ in 0..batch {
                    if let Some(op) = random_op(&shadow, &mut rng) {
                        ops.push(op);
                    }
                }
                if !ops.is_empty() {
                    shadow.apply_all(&ops);
                    spec.requests.push(TrafficRequest {
                        action: TrafficAction::Mutate { ops },
                        instance: "hot".to_owned(),
                        arrival_us: arrival,
                    });
                    continue;
                }
            }
            let (kind, cq) = &reads[i % reads.len()];
            spec.requests.push(TrafficRequest {
                action: TrafficAction::Query {
                    kind: *kind,
                    cq: cq.clone(),
                },
                instance: "hot".to_owned(),
                arrival_us: arrival,
            });
        }
    }
    spec
}

/// Render a spec in the workload text format.
pub fn render_workload(spec: &TrafficSpec) -> String {
    let mut out = String::from("# sirup workload v1\n");
    for (name, s) in &spec.instances {
        writeln!(out, "instance {name} = {s}").unwrap();
    }
    for r in &spec.requests {
        match &r.action {
            TrafficAction::Query { cq, .. } => writeln!(
                out,
                "request {} {} @{} = {}",
                r.keyword(),
                r.instance,
                r.arrival_us,
                cq
            )
            .unwrap(),
            TrafficAction::Mutate { ops } => {
                let rendered: Vec<String> = ops.iter().map(|op| op.to_string()).collect();
                writeln!(
                    out,
                    "request mutate {} @{} = {}",
                    r.instance,
                    r.arrival_us,
                    rendered.join(", ")
                )
                .unwrap()
            }
        }
    }
    out
}

/// Split an op list on top-level commas (commas inside `(...)` separate
/// atom arguments, not ops). Shared with the wire protocol's `mutate` and
/// `query` verbs, which carry the same comma-separated vocabulary.
pub fn split_ops(body: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let (mut depth, mut start) = (0usize, 0usize);
    for (i, c) in body.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&body[start..]);
    parts
}

/// Parse the workload text format. Validates that every request targets a
/// defined instance and that `pi`/`sigma` CQs are 1-CQs. Mutation ops
/// resolve node names through the target instance's definition (fresh
/// names allocate fresh nodes, consistently across the file).
pub fn parse_workload(text: &str) -> Result<TrafficSpec, String> {
    let mut spec = TrafficSpec::default();
    // Per instance: the node-name binding of its definition line, plus the
    // next free index for names first seen in mutation ops.
    let mut bindings: Vec<(std::collections::BTreeMap<String, Node>, u32)> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let at = |msg: String| format!("line {}: {msg}", lineno + 1);
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head, body) = line
            .split_once('=')
            .ok_or_else(|| at("expected `... = <atoms>`".into()))?;
        let fields: Vec<&str> = head.split_whitespace().collect();
        match fields.as_slice() {
            ["instance", name] => {
                if spec.instances.iter().any(|(n, _)| n == name) {
                    return Err(at(format!("instance {name} defined twice")));
                }
                let (atoms, names) = parse_structure(body).map_err(|e| at(e.to_string()))?;
                bindings.push((names, atoms.node_count() as u32));
                spec.instances.push(((*name).to_owned(), atoms));
            }
            ["request", "mutate", instance, arrival] => {
                let arrival_us = parse_arrival(arrival)
                    .ok_or_else(|| at(format!("bad arrival {arrival:?} (expected @<µs>)")))?;
                let idx = spec
                    .instances
                    .iter()
                    .position(|(n, _)| n == instance)
                    .ok_or_else(|| {
                        at(format!("request targets undefined instance {instance:?}"))
                    })?;
                let (names, next) = &mut bindings[idx];
                let mut ops = Vec::new();
                for part in split_ops(body) {
                    if part.trim().is_empty() {
                        continue;
                    }
                    let op = parse_op(part, |name| {
                        *names.entry(name.to_owned()).or_insert_with(|| {
                            let v = Node(*next);
                            *next += 1;
                            v
                        })
                    })
                    .map_err(&at)?;
                    ops.push(op);
                }
                if ops.is_empty() {
                    return Err(at("mutate request has no ops".into()));
                }
                spec.requests.push(TrafficRequest {
                    action: TrafficAction::Mutate { ops },
                    instance: (*instance).to_owned(),
                    arrival_us,
                });
            }
            ["request", kw, instance, arrival] => {
                let kind = QueryKind::from_keyword(kw)
                    .ok_or_else(|| at(format!("unknown query kind {kw:?}")))?;
                let arrival_us = parse_arrival(arrival)
                    .ok_or_else(|| at(format!("bad arrival {arrival:?} (expected @<µs>)")))?;
                let atoms = parse_structure(body).map_err(|e| at(e.to_string()))?.0;
                if !spec.instances.iter().any(|(n, _)| n == instance) {
                    return Err(at(format!(
                        "request targets undefined instance {instance:?}"
                    )));
                }
                if matches!(kind, QueryKind::PiGoal | QueryKind::SigmaAnswers) {
                    OneCq::new(atoms.clone())
                        .map_err(|e| at(format!("{kw} request needs a 1-CQ: {e}")))?;
                }
                spec.requests.push(TrafficRequest {
                    action: TrafficAction::Query { kind, cq: atoms },
                    instance: (*instance).to_owned(),
                    arrival_us,
                });
            }
            _ => return Err(at(format!("unrecognised item {head:?}"))),
        }
    }
    Ok(spec)
}

fn parse_arrival(field: &str) -> Option<u64> {
    field.strip_prefix('@').and_then(|a| a.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query_kind(r: &TrafficRequest) -> Option<QueryKind> {
        match &r.action {
            TrafficAction::Query { kind, .. } => Some(*kind),
            TrafficAction::Mutate { .. } => None,
        }
    }

    #[test]
    fn mixed_traffic_is_deterministic_and_well_formed() {
        let a = mixed_traffic(TrafficParams::default(), 7);
        let b = mixed_traffic(TrafficParams::default(), 7);
        assert_eq!(a.requests.len(), b.requests.len());
        assert_eq!(a.requests.len(), TrafficParams::default().requests);
        for (ra, rb) in a.requests.iter().zip(&b.requests) {
            assert_eq!(ra.keyword(), rb.keyword());
            assert_eq!(ra.instance, rb.instance);
            assert_eq!(ra.arrival_us, rb.arrival_us);
        }
        // Arrivals are nondecreasing; every request targets a known instance.
        let mut last = 0;
        for r in &a.requests {
            assert!(r.arrival_us >= last);
            last = r.arrival_us;
            assert!(a.instances.iter().any(|(n, _)| *n == r.instance));
            if let TrafficAction::Query { kind, cq } = &r.action {
                if matches!(kind, QueryKind::PiGoal | QueryKind::SigmaAnswers) {
                    assert!(OneCq::new(cq.clone()).is_ok());
                }
            }
        }
        // The default mix is read-only and covers all four kinds.
        assert_eq!(a.mutation_op_count(), 0);
        for kind in [
            QueryKind::PiGoal,
            QueryKind::SigmaAnswers,
            QueryKind::Delta,
            QueryKind::DeltaPlus,
        ] {
            assert!(
                a.requests.iter().any(|r| query_kind(r) == Some(kind)),
                "{kind:?} missing"
            );
        }
    }

    #[test]
    fn mutation_traffic_mixes_and_skews() {
        let params = TrafficParams {
            requests: 300,
            mutation_ratio: 0.3,
            hot_weight: 0.6,
            ..Default::default()
        };
        let spec = mixed_traffic(params, 9);
        let mutations = spec.requests.iter().filter(|r| r.is_mutation()).count();
        assert!(
            (50..200).contains(&mutations),
            "expected ~30% mutations, got {mutations}/300"
        );
        assert!(spec.mutation_op_count() >= mutations);
        // Hot skew: d1 sees far more than its uniform share (1/6).
        let hot = spec.requests.iter().filter(|r| r.instance == "d1").count();
        assert!(hot > 300 / 3, "hot instance got {hot}/300");
        // Deterministic in the seed.
        let again = mixed_traffic(params, 9);
        assert_eq!(render_workload(&spec), render_workload(&again));
        // Retract ops target facts that existed at their stream position:
        // replaying every mutation on the instances applies ≥ 90% of ops
        // (duplicate inserts of an already-present atom may no-op).
        let mut applied = 0usize;
        let mut instances = spec.instances.clone();
        for r in &spec.requests {
            if let TrafficAction::Mutate { ops } = &r.action {
                let (_, s) = instances
                    .iter_mut()
                    .find(|(n, _)| *n == r.instance)
                    .unwrap();
                applied += s.apply_all(ops);
            }
        }
        assert!(
            applied * 10 >= spec.mutation_op_count() * 9,
            "only {applied}/{} ops applied",
            spec.mutation_op_count()
        );
    }

    #[test]
    fn scaling_traffic_is_deterministic_and_heavy() {
        let a = scaling_traffic(64, 12, 5);
        let b = scaling_traffic(64, 12, 5);
        assert_eq!(render_workload(&a), render_workload(&b));
        assert_eq!(a.instances.len(), 1);
        assert_eq!(a.instances[0].0, "big");
        assert_eq!(a.instances[0].1.node_count(), 64);
        assert_eq!(a.requests.len(), 12);
        assert!(a.requests.iter().all(|r| r.instance == "big"));
        assert_eq!(a.mutation_op_count(), 0);
        // All four heavy kinds cycle through the stream.
        for kind in [QueryKind::PiGoal, QueryKind::SigmaAnswers, QueryKind::Delta] {
            assert!(a.requests.iter().any(|r| query_kind(r) == Some(kind)));
        }
        // And the rendering round-trips through the file format.
        assert!(parse_workload(&render_workload(&a)).is_ok());
    }

    #[test]
    fn phase_traffic_is_deterministic_and_phase_shaped() {
        let a = phase_traffic(16, 11);
        let b = phase_traffic(16, 11);
        assert_eq!(render_workload(&a), render_workload(&b));
        assert_eq!(a.instances.len(), 1);
        assert_eq!(a.instances[0].0, "hot");
        assert_eq!(a.requests.len(), 48);
        assert!(a.requests.iter().all(|r| r.instance == "hot"));
        // Arrivals are nondecreasing (open-loop pacing needs this).
        assert!(a
            .requests
            .windows(2)
            .all(|w| w[0].arrival_us <= w[1].arrival_us));
        // The middle third is pure reads; the outer thirds are
        // write-dominated.
        let thirds: Vec<&[TrafficRequest]> = a.requests.chunks(16).collect();
        let writes = |reqs: &[TrafficRequest]| reqs.iter().filter(|r| r.is_mutation()).count();
        assert_eq!(writes(thirds[1]), 0, "read phase must be pure reads");
        assert!(writes(thirds[0]) > 8, "first phase must be write-heavy");
        assert!(writes(thirds[2]) > 8, "last phase must be write-heavy");
        // The read phase exercises both the semi-naive kinds
        // (materialised) and the disjunctive kinds (DPLL).
        for kind in [
            QueryKind::PiGoal,
            QueryKind::SigmaAnswers,
            QueryKind::Delta,
            QueryKind::DeltaPlus,
        ] {
            assert!(thirds[1].iter().any(|r| query_kind(r) == Some(kind)));
        }
        // And the rendering round-trips through the file format.
        assert!(parse_workload(&render_workload(&a)).is_ok());
    }

    #[test]
    fn workload_format_round_trips() {
        let spec = mixed_traffic(
            TrafficParams {
                instances: 2,
                requests: 60,
                mutation_ratio: 0.25,
                ..Default::default()
            },
            3,
        );
        let text = render_workload(&spec);
        let back = parse_workload(&text).expect("rendered workload parses");
        assert_eq!(back.instances.len(), spec.instances.len());
        assert_eq!(back.requests.len(), spec.requests.len());
        // Node identity is not preserved (rendering names nodes by their
        // atoms, and isolated unlabeled nodes are dropped), but the atom
        // sets — the semantics — are.
        for ((na, sa), (nb, sb)) in spec.instances.iter().zip(&back.instances) {
            assert_eq!(na, nb);
            assert_eq!(sa.size(), sb.size());
        }
        for (ra, rb) in spec.requests.iter().zip(&back.requests) {
            assert_eq!(ra.keyword(), rb.keyword());
            assert_eq!(ra.instance, rb.instance);
            assert_eq!(ra.arrival_us, rb.arrival_us);
            match (&ra.action, &rb.action) {
                (TrafficAction::Query { cq: a, .. }, TrafficAction::Query { cq: b, .. }) => {
                    assert_eq!(a.size(), b.size())
                }
                (TrafficAction::Mutate { ops: a }, TrafficAction::Mutate { ops: b }) => {
                    assert_eq!(a.len(), b.len())
                }
                _ => panic!("action kind flipped in round trip"),
            }
        }
        // The *semantics* round-trip too: applying all mutations on both
        // sides leaves catalogs of identical sizes.
        for ((_, a), (_, b)) in spec.final_instances().iter().zip(&back.final_instances()) {
            assert_eq!(a.size(), b.size());
        }
    }

    #[test]
    fn mutate_ops_resolve_instance_node_names() {
        let text = "\
instance d = F(f), R(f,t), T(t)
request mutate d @10 = -T(t), +T(g), +R(t,g)
request mutate d @20 = -R(f,t), +A(g)
";
        let spec = parse_workload(text).unwrap();
        assert_eq!(spec.requests.len(), 2);
        let finals = spec.final_instances();
        let d = &finals[0].1;
        // `g` allocated one fresh node, consistently across both lines.
        assert_eq!(d.node_count(), 3);
        assert_eq!(d.nodes_with_label(Pred::T).len(), 1);
        assert_eq!(d.nodes_with_label(Pred::A).len(), 1);
        assert_eq!(d.edge_count(), 1);
    }

    #[test]
    fn parse_rejects_malformed_workloads() {
        assert!(parse_workload("garbage").is_err());
        assert!(parse_workload("instance a = F(x\n").is_err());
        // Undefined instance.
        assert!(parse_workload("request pi nope @0 = F(x), R(x,y), T(y)").is_err());
        assert!(parse_workload("request mutate nope @0 = +T(x)").is_err());
        // pi needs a 1-CQ (two solitary Fs here).
        let two_f = "instance d = T(u)\nrequest pi d @0 = F(x), R(x,y), F(y)";
        assert!(parse_workload(two_f).is_err());
        // delta accepts it.
        let delta = "instance d = T(u)\nrequest delta d @0 = F(x), R(x,y), F(y)";
        assert!(parse_workload(delta).is_ok());
        // Duplicate instance.
        assert!(parse_workload("instance d = T(u)\ninstance d = T(v)").is_err());
        // Bad arrival.
        assert!(parse_workload("instance d = T(u)\nrequest pi d 0 = F(x), R(x,y), T(y)").is_err());
        // Malformed / empty mutation ops.
        assert!(parse_workload("instance d = T(u)\nrequest mutate d @0 = T(u)").is_err());
        assert!(parse_workload("instance d = T(u)\nrequest mutate d @0 = ").is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# header\n\n  # indented comment\ninstance d = T(u)\n";
        let spec = parse_workload(text).unwrap();
        assert_eq!(spec.instances.len(), 1);
        assert!(spec.requests.is_empty());
    }
}
