//! Differential tests for the live-instance machinery: the server under
//! mutation traffic must agree with the engine's direct **sequential**
//! evaluation paths — those paths stay available precisely to serve as the
//! oracle here, whatever the server's thread count or intra-request
//! parallelism.
//!
//! Batch snapshot semantics make this checkable exactly: queries of a
//! replayed stream resolve their instance snapshots at submission time (the
//! catalog *before* the stream's mutations), while the stream's mutations
//! apply in submission order, so
//!
//! * in-stream query answers ≡ engine on the initial instances,
//! * the post-replay catalog ≡ the spec's mutations folded over the initial
//!   instances ([`TrafficSpec::final_instances`]),
//! * post-replay query answers ≡ engine on those final instances — on every
//!   strategy path, including semi-naive materialisations carried forward
//!   incrementally through the whole mutation stream.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sirup_core::program::{pi_q, sigma_q, DSirup};
use sirup_core::{FactOp, Node, OneCq, Pred, Structure};
use sirup_engine::disjunctive::certain_answer_dsirup;
use sirup_engine::eval::{certain_answer_goal, certain_answers_unary, evaluate};
use sirup_engine::{CompiledProgram, MaterializedFixpoint};
use sirup_server::{Answer, Catalog, Query, ReplayMode, Request, Server, ServerConfig};
use sirup_workloads::paper;
use sirup_workloads::random::{random_ditree_cq, DitreeCqParams};
use sirup_workloads::traffic::{parse_workload, TrafficAction, TrafficSpec};

fn server(threads: usize, answer_cache: usize) -> Server {
    Server::new(ServerConfig {
        threads,
        plan_cache: 64,
        answer_cache,
        ..ServerConfig::default()
    })
}

/// Direct, sequential reference answer (the differential oracle).
fn engine_answer(query: &Query, data: &Structure) -> Answer {
    match query {
        Query::PiGoal(q) => Answer::Bool(certain_answer_goal(&pi_q(q), data)),
        Query::SigmaAnswers(q) => Answer::Nodes(certain_answers_unary(&sigma_q(q), data)),
        Query::Delta { cq, disjoint } => {
            let d = DSirup {
                cq: cq.clone(),
                disjoint: *disjoint,
            };
            Answer::Bool(certain_answer_dsirup(&d, data))
        }
    }
}

fn bundled_spec() -> TrafficSpec {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../workloads/mutations.sirupload"
    );
    parse_workload(&std::fs::read_to_string(path).expect("bundled workload readable"))
        .expect("bundled workload parses")
}

/// A small query battery hitting all three strategy paths.
fn battery() -> Vec<Query> {
    vec![
        Query::PiGoal(paper::q4_cq()),       // unbounded → semi-naive
        Query::SigmaAnswers(paper::q4_cq()), // unbounded → semi-naive
        Query::PiGoal(paper::q5()),          // bounded → rewriting
        Query::SigmaAnswers(paper::q7()),    // bounded → rewriting
        Query::Delta {
            cq: paper::q2(),
            disjoint: false,
        }, // dpll
        Query::Delta {
            cq: paper::q2(),
            disjoint: true,
        },
    ]
}

#[test]
fn bundled_mutation_replay_matches_engine() {
    let spec = bundled_spec();
    assert!(spec.mutation_op_count() > 0, "workload must mutate");
    let s = server(4, 64);
    let report = s.replay(&spec, ReplayMode::Closed).unwrap();
    assert_eq!(report.total, spec.requests.len());
    assert!(report.mutations > 0);
    assert!(report.mutation_ops_applied > 0);
    assert!(report.mutation_throughput() > 0.0);

    // In-stream queries answered against the initial snapshots.
    for (i, r) in spec.requests.iter().enumerate() {
        let TrafficAction::Query { .. } = &r.action else {
            let Answer::Applied { .. } = report.answers[i] else {
                panic!("mutation request {i} answered {:?}", report.answers[i]);
            };
            continue;
        };
        let initial = &spec
            .instances
            .iter()
            .find(|(n, _)| *n == r.instance)
            .unwrap()
            .1;
        let query = match Request::from_traffic(r).unwrap() {
            Request {
                action: sirup_server::Action::Query(q),
                ..
            } => q,
            _ => unreachable!(),
        };
        assert_eq!(
            report.answers[i],
            engine_answer(&query, initial),
            "in-stream answer {i} diverged from engine on the initial instance"
        );
    }

    // The live catalog equals the mutations folded over the initial state.
    let finals = spec.final_instances();
    for (name, expected) in &finals {
        let inst = s.catalog().get(name).unwrap();
        assert_eq!(
            &inst.data, expected,
            "catalog instance {name} diverged from the folded mutation stream"
        );
    }

    // Post-replay queries — including semi-naive answers served from
    // materialisations maintained incrementally through every mutation —
    // match the engine on the final instances.
    for query in battery() {
        for (name, data) in &finals {
            let resp = s
                .submit(&[Request::query(query.clone(), name.clone())])
                .unwrap();
            assert_eq!(
                resp[0].answer,
                engine_answer(&query, data),
                "post-replay {} answer diverged on {name} (strategy {})",
                query.kind_name(),
                resp[0].strategy
            );
        }
    }
}

#[test]
fn open_loop_replay_applies_the_same_final_state() {
    let spec = bundled_spec();
    let closed = server(4, 0);
    closed.replay(&spec, ReplayMode::Closed).unwrap();
    let open = server(3, 0);
    open.replay(&spec, ReplayMode::Open).unwrap();
    for (name, expected) in spec.final_instances() {
        assert_eq!(closed.catalog().get(&name).unwrap().data, expected);
        assert_eq!(open.catalog().get(&name).unwrap().data, expected);
    }
}

/// Open-loop replay submits in arrival order, which may differ from the
/// request stream: decreasing arrivals must complete and apply mutations
/// in arrival order.
#[test]
fn open_loop_out_of_order_arrivals_do_not_deadlock() {
    let text = "\
instance d = T(t), A(a), R(a,t)
request mutate d @500 = -T(t)
request mutate d @400 = +T(t)
request mutate d @300 = -T(t)
request mutate d @200 = +T(t)
request mutate d @100 = -T(t)
";
    let spec = parse_workload(text).unwrap();
    let s = server(4, 0);
    let report = s.replay(&spec, ReplayMode::Open).unwrap();
    assert_eq!(report.mutations, 5);
    // Arrival order: -T@100, +T@200, -T@300, +T@400, -T@500 ⇒ every op is
    // effective and the label ends up retracted.
    assert_eq!(report.mutation_ops_applied, 5);
    assert!(!s.catalog().get("d").unwrap().data.has_label(
        sirup_core::parse::st_with("T(t), A(a), R(a,t)", "t").1,
        Pred::T
    ));
}

/// Four threads racing whole mutation batches through `submit` on one
/// instance, single worker: every batch completes, and a later inline
/// write does not block.
#[test]
fn racing_submitters_single_worker_do_not_deadlock() {
    let s = server(1, 0);
    s.load_instance("d", sirup_core::parse::st("T(t)")).unwrap();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let sref = &s;
                scope.spawn(move || {
                    for j in 0..10 {
                        let op = if (i + j) % 2 == 0 {
                            FactOp::AddLabel(Pred::A, Node(0))
                        } else {
                            FactOp::RemoveLabel(Pred::A, Node(0))
                        };
                        sref.submit(&[Request::mutation(vec![op], "d")]).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    // All 40 writes applied: a fresh inline mutation does not block.
    assert!(s
        .answer_one(&Request::mutation(
            vec![FactOp::AddLabel(Pred::F, Node(0))],
            "d"
        ))
        .is_ok());
}

/// Interleaved single-op mutations and reads on one instance: after every
/// mutation the served answers (materialised semi-naive, rewriting, dpll)
/// must match the engine on the current catalog data, and the semi-naive
/// materialisation must be the carried-forward one (ops_applied counts the
/// whole history), not a rebuild.
#[test]
fn served_answers_track_a_long_mutation_stream() {
    let mut rng = StdRng::seed_from_u64(99);
    let s = server(2, 16);
    s.load_instance("live", paper::d1()).unwrap();
    let queries = battery();
    // Warm the materialisations once so maintenance (not rebuild) is on
    // trial below.
    for q in &queries {
        s.submit(&[Request::query(q.clone(), "live")]).unwrap();
    }
    let unary = [Pred::F, Pred::T, Pred::A];
    let binary = [Pred::R, Pred::S];
    for step in 0..60 {
        let n = s.catalog().get("live").unwrap().data.node_count() as u32 + 1;
        let u = Node(rng.gen_range(0..n));
        let v = Node(rng.gen_range(0..n));
        let op = match rng.gen_range(0..4u32) {
            0 => FactOp::AddLabel(unary[rng.gen_range(0..3usize)], v),
            1 => FactOp::RemoveLabel(unary[rng.gen_range(0..3usize)], v),
            2 => FactOp::AddEdge(binary[rng.gen_range(0..2usize)], u, v),
            _ => FactOp::RemoveEdge(binary[rng.gen_range(0..2usize)], u, v),
        };
        s.submit(&[Request::mutation(vec![op], "live")]).unwrap();
        let data = s.catalog().get("live").unwrap().data.clone();
        for q in &queries {
            let resp = s.submit(&[Request::query(q.clone(), "live")]).unwrap();
            assert_eq!(
                resp[0].answer,
                engine_answer(q, &data),
                "step {step}: {} diverged after {op} (strategy {})",
                q.kind_name(),
                resp[0].strategy
            );
        }
    }
    // The semi-naive materialisations were maintained, not rebuilt: they
    // saw every effective op of the stream.
    let stats = s.instance_stats("live").unwrap();
    let maintained = stats
        .materializations
        .iter()
        .map(|(_, m)| m.ops_applied)
        .max()
        .unwrap_or(0);
    assert!(
        maintained >= 30,
        "expected a long maintenance history, got {maintained} ops"
    );
}

/// Readers racing a mutation stream: every answer any thread observes must
/// equal the engine's answer on *some* catalog version (reads are
/// snapshot-consistent — no torn state), and the final state is the
/// submission order's.
#[test]
fn concurrent_readers_see_snapshot_consistent_answers() {
    let s = server(4, 0);
    let (d, n) = sirup_core::parse::parse_structure("T(t), A(a), R(a,t), A(b), R(b,a)").unwrap();
    s.load_instance("live", d).unwrap();
    let q = Query::SigmaAnswers(OneCq::parse("F(x), R(x,y), T(y)"));
    // The stream toggles T(t): the closure alternates between {P(t),P(a),P(b)}
    // and {} — any snapshot a reader sees must answer one of the two.
    let full: Answer = Answer::Nodes(vec![n["t"], n["a"], n["b"]]);
    let empty = Answer::Nodes(vec![]);
    std::thread::scope(|scope| {
        let sref = &s;
        let writer = scope.spawn(move || {
            for i in 0..40 {
                let op = if i % 2 == 0 {
                    FactOp::RemoveLabel(Pred::T, n["t"])
                } else {
                    FactOp::AddLabel(Pred::T, n["t"])
                };
                sref.submit(&[Request::mutation(vec![op], "live")]).unwrap();
            }
        });
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let q = q.clone();
                let (full, empty) = (full.clone(), empty.clone());
                scope.spawn(move || {
                    for _ in 0..30 {
                        let resp = sref.submit(&[Request::query(q.clone(), "live")]).unwrap();
                        assert!(
                            resp[0].answer == full || resp[0].answer == empty,
                            "torn answer {:?}",
                            resp[0].answer
                        );
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
    });
    // 40 toggles starting with Remove ⇒ final state has T(t) re-added ⇒
    // the full closure.
    let resp = s.submit(&[Request::query(q, "live")]).unwrap();
    assert_eq!(resp[0].answer, full);
}

/// The bundled mutation replay with intra-request parallelism enabled:
/// submission-ordered mutation effects, the folded final catalog, and
/// post-replay answers must all match the sequential oracle — the write
/// order survives the shared scheduler.
#[test]
fn parallel_mutation_replay_matches_engine() {
    let spec = bundled_spec();
    let s = Server::new(ServerConfig {
        threads: 4,
        parallelism: 4,
        par_threshold: 2,
        plan_cache: 64,
        answer_cache: 0,
        ..ServerConfig::default()
    });
    let report = s.replay(&spec, ReplayMode::Closed).unwrap();
    assert!(report.mutations > 0);
    // Sequential reference replay. Mutation answers carry *per-instance*
    // sequence numbers (submission order), so they are deterministic across
    // thread counts and compare exactly — no normalisation.
    let oracle = server(4, 0);
    let oracle_report = oracle.replay(&spec, ReplayMode::Closed).unwrap();
    assert_eq!(
        report.answers, oracle_report.answers,
        "parallel replay answers diverged from the sequential server"
    );
    for (name, expected) in spec.final_instances() {
        assert_eq!(
            s.catalog().get(&name).unwrap().data,
            expected,
            "parallel mutation stream folded differently on {name}"
        );
    }
    for query in battery() {
        for (name, data) in &spec.final_instances() {
            let resp = s
                .submit(&[Request::query(query.clone(), name.clone())])
                .unwrap();
            assert_eq!(
                resp[0].answer,
                engine_answer(&query, data),
                "post-replay parallel answer diverged on {name}"
            );
        }
    }
}

/// A random instance over F/T/A labels and R/S edges, 30 nodes: node growth
/// crosses the first storage page boundary.
fn random_instance(rng: &mut StdRng) -> Structure {
    let n = 30;
    let mut s = Structure::with_nodes(n);
    for _ in 0..50 {
        let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
        let p = if rng.gen_bool(0.5) { Pred::R } else { Pred::S };
        s.add_edge(p, Node(u), Node(v));
    }
    for v in (0..n as u32).map(Node) {
        for (p, odds) in [(Pred::T, 0.35), (Pred::F, 0.2), (Pred::A, 0.45)] {
            if rng.gen_bool(odds) {
                s.add_label(v, p);
            }
        }
    }
    s
}

/// A 1–5-op batch against an instance of `n` nodes whose derived `P`-facts
/// are `derived`, in the shapes a batch can hold that a single op cannot:
/// a repeated insert, an insert and a retract of one fact, an asserted `P`
/// that is already derived, and inserts that grow the node range.
fn random_batch(n: usize, derived: &[Node], rng: &mut StdRng) -> Vec<FactOp> {
    let unary = [Pred::F, Pred::T, Pred::A, Pred::P];
    let binary = [Pred::R, Pred::S];
    let node = |rng: &mut StdRng| Node(rng.gen_range(0..n as u32 + 1));
    let mut batch: Vec<FactOp> = (0..rng.gen_range(1..4usize))
        .map(|_| match rng.gen_range(0..4u32) {
            0 => FactOp::AddLabel(unary[rng.gen_range(0..4usize)], node(rng)),
            1 => FactOp::RemoveLabel(unary[rng.gen_range(0..4usize)], node(rng)),
            2 => FactOp::AddEdge(binary[rng.gen_range(0..2usize)], node(rng), node(rng)),
            _ => FactOp::RemoveEdge(binary[rng.gen_range(0..2usize)], node(rng), node(rng)),
        })
        .collect();
    if !derived.is_empty() && rng.gen_bool(0.4) {
        let v = derived[rng.gen_range(0..derived.len())];
        batch.push(FactOp::AddLabel(Pred::P, v));
    }
    if rng.gen_bool(0.25) {
        let a = Node(n as u32 + rng.gen_range(0..3u32));
        batch.push(FactOp::AddEdge(
            Pred::R,
            a,
            Node(rng.gen_range(0..n as u32)),
        ));
    }
    if batch.len() < 5 && rng.gen_bool(0.6) {
        let op = batch[rng.gen_range(0..batch.len())];
        let echo = match (op, rng.gen_bool(0.5)) {
            (op, true) => op,
            (FactOp::AddLabel(p, v), false) => FactOp::RemoveLabel(p, v),
            (FactOp::RemoveLabel(p, v), false) => FactOp::AddLabel(p, v),
            (FactOp::AddEdge(p, u, v), false) => FactOp::RemoveEdge(p, u, v),
            (FactOp::RemoveEdge(p, u, v), false) => FactOp::AddEdge(p, u, v),
        };
        batch.insert(rng.gen_range(0..=batch.len()), echo);
    }
    batch
}

/// Batches through the catalog path: Σ_q and Π_q materialisations attached
/// to one instance are carried through 1–5-op batches sent with
/// `Catalog::mutate`. After every batch each equals a from-scratch
/// evaluation of the snapshot's data, and its base shares every page with
/// that data: the catalog patches one copy of the data per version.
#[test]
fn catalog_batches_carry_materializations_over_shared_pages() {
    let mut batches_with_growth = 0;
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = random_ditree_cq(DitreeCqParams::default(), seed)
            .unwrap_or_else(|| OneCq::parse("F(x), R(x,y), T(y)"));
        let programs = [("sigma", sigma_q(&q)), ("pi", pi_q(&q))];
        let c = Catalog::new();
        c.insert("d", random_instance(&mut rng));
        let inst = c.get("d").unwrap();
        for (key, program) in &programs {
            inst.materialization(key, || {
                MaterializedFixpoint::from_compiled(
                    CompiledProgram::new(program),
                    inst.target(None),
                )
            });
        }
        for step in 0..25 {
            let inst = c.get("d").unwrap();
            let n = inst.data.node_count();
            let derived = inst
                .materialization("sigma", || unreachable!("attached"))
                .answers(Pred::P);
            let batch = random_batch(n, &derived, &mut rng);
            assert!((1..=5).contains(&batch.len()));
            c.mutate("d", &batch).unwrap();
            let inst = c.get("d").unwrap();
            batches_with_growth += usize::from(inst.data.node_count() > n);
            for (key, program) in &programs {
                let ctx = format!("seed {seed} step {step} {key} after {batch:?}");
                let mat = inst.materialization(key, || panic!("{ctx}: not carried"));
                let (live, fresh) = (mat.evaluation(), evaluate(program, &inst.data));
                assert_eq!(live.nullary, fresh.nullary, "{ctx}: nullary diverged");
                assert_eq!(live.unary, fresh.unary, "{ctx}: unary diverged");
                assert_eq!(
                    mat.base().shared_pages_with(&inst.data),
                    inst.data.page_count(),
                    "{ctx}: the materialisation keeps its own copy of the data"
                );
            }
        }
    }
    assert!(batches_with_growth > 0, "no batch grew the node range");
}
