//! Differential tests: the batched, multi-threaded server must agree
//! bit-for-bit with the engine's **sequential** evaluation paths (the
//! oracle the parallel execution stack is pinned against) — cold plan
//! cache, warm plan cache, on every strategy path (rewriting-served,
//! semi-naive fixpoint, DPLL for disjunctive sirups), and with
//! intra-request parallelism enabled.

use sirup_core::program::{pi_q, sigma_q, DSirup};
use sirup_core::{OneCq, Structure};
use sirup_engine::disjunctive::certain_answer_dsirup;
use sirup_engine::eval::{certain_answer_goal, certain_answers_unary};
use sirup_server::{
    Answer, PlanOptions, Query, ReplayMode, Request, Server, ServerConfig, Strategy,
};
use sirup_workloads::random::{random_ditree_cq, random_instance, DitreeCqParams};
use sirup_workloads::traffic::{mixed_traffic, QueryKind, TrafficParams};
use sirup_workloads::{d1, d2, paper};

fn four_thread_server() -> Server {
    Server::new(ServerConfig {
        threads: 4,
        plan_cache: 64, // all_queries() builds ~42 distinct plans; no evictions wanted here
        answer_cache: 0, // strategy-path asserts want every submit evaluated
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

fn test_instances() -> Vec<(String, Structure)> {
    let mut out = vec![("d1".to_owned(), d1()), ("d2".to_owned(), d2())];
    for (i, seed) in [3u64, 17, 42, 99].iter().enumerate() {
        out.push((
            format!("rand{i}"),
            random_instance(16, 26, 0.45, 0.25, *seed),
        ));
    }
    // An inconsistent instance (FT-twin) to exercise the Δ⁺ short-circuit.
    out.push((
        "twin".to_owned(),
        sirup_core::parse::st("F(u), T(u), R(u,v), A(v)"),
    ));
    out
}

fn one_cq_pool() -> Vec<OneCq> {
    let mut pool = vec![
        paper::q2_cq(),
        paper::q3_cq(),
        paper::q4_cq(),
        paper::q5(),
        paper::q7(),
        paper::q8(),
    ];
    for seed in 0..12u64 {
        if let Some(q) = random_ditree_cq(DitreeCqParams::default(), seed) {
            pool.push(q);
            if pool.len() >= 10 {
                break;
            }
        }
    }
    pool
}

fn all_queries() -> Vec<Query> {
    let mut queries = Vec::new();
    for q in one_cq_pool() {
        queries.push(Query::PiGoal(q.clone()));
        queries.push(Query::SigmaAnswers(q.clone()));
        queries.push(Query::Delta {
            cq: q.structure().clone(),
            disjoint: false,
        });
        queries.push(Query::Delta {
            cq: q.structure().clone(),
            disjoint: true,
        });
    }
    // q1 is not a 1-CQ (two solitary Fs): disjunctive kinds only.
    queries.push(Query::Delta {
        cq: paper::q1(),
        disjoint: false,
    });
    queries.push(Query::Delta {
        cq: paper::q1(),
        disjoint: true,
    });
    queries
}

#[test]
fn batched_answers_match_engine_cold_and_warm() {
    let server = four_thread_server();
    let instances = test_instances();
    for (name, data) in &instances {
        server.load_instance(name.clone(), data.clone()).unwrap();
    }
    let mut requests = Vec::new();
    let mut expected = Vec::new();
    for query in all_queries() {
        for (name, data) in &instances {
            expected.push(engine_answer(&query, data));
            requests.push(Request::query(query.clone(), name.clone()));
        }
    }
    // Cold cache: every plan is built during this batch.
    let cold: Vec<Answer> = server
        .submit(&requests)
        .unwrap()
        .into_iter()
        .map(|r| r.answer)
        .collect();
    assert_eq!(cold, expected, "cold-cache batched ≠ direct engine");
    let (_, misses_after_cold) = server.plan_cache().stats();
    assert!(misses_after_cold > 0);
    // Warm cache: identical batch again, all plans served from cache.
    let warm: Vec<Answer> = server
        .submit(&requests)
        .unwrap()
        .into_iter()
        .map(|r| r.answer)
        .collect();
    assert_eq!(warm, expected, "warm-cache batched ≠ direct engine");
    let (hits, misses_after_warm) = server.plan_cache().stats();
    assert_eq!(
        misses_after_warm, misses_after_cold,
        "warm batch must not rebuild plans"
    );
    assert!(hits > 0);
}

#[test]
fn rewriting_served_path_matches_engine() {
    // q5 and q7 are bounded at depth 1 (verified elsewhere in the
    // workspace): their Π and Σ plans must be rewriting-served, and the
    // served answers must still match the fixpoint engine exactly.
    let server = four_thread_server();
    let instances = test_instances();
    for (name, data) in &instances {
        server.load_instance(name.clone(), data.clone()).unwrap();
    }
    for q in [paper::q5(), paper::q7()] {
        for query in [Query::PiGoal(q.clone()), Query::SigmaAnswers(q.clone())] {
            let plan = server
                .plan_cache()
                .get_or_build(&query, &PlanOptions::default());
            assert!(
                matches!(plan.strategy, Strategy::Rewriting { .. }),
                "{} plan for a bounded CQ must be rewriting-served, got {}",
                query.kind_name(),
                plan.strategy.name()
            );
            let requests: Vec<Request> = instances
                .iter()
                .map(|(name, _)| Request::query(query.clone(), name.clone()))
                .collect();
            let responses = server.submit(&requests).unwrap();
            for ((name, data), resp) in instances.iter().zip(responses) {
                assert_eq!(resp.strategy, "rewriting");
                assert_eq!(
                    resp.answer,
                    engine_answer(&query, data),
                    "rewriting-served {} answer differs on {name}",
                    query.kind_name()
                );
            }
        }
    }
}

#[test]
fn unbounded_queries_stay_on_the_fixpoint_path() {
    // q4 is unbounded: its plan must not claim a rewriting, and the served
    // (semi-naive, index-seeded) answers must match the plain engine.
    let server = four_thread_server();
    let instances = test_instances();
    for (name, data) in &instances {
        server.load_instance(name.clone(), data.clone()).unwrap();
    }
    for query in [
        Query::PiGoal(paper::q4_cq()),
        Query::SigmaAnswers(paper::q4_cq()),
    ] {
        let requests: Vec<Request> = instances
            .iter()
            .map(|(name, _)| Request::query(query.clone(), name.clone()))
            .collect();
        for ((name, data), resp) in instances.iter().zip(server.submit(&requests).unwrap()) {
            assert_eq!(resp.strategy, "semi-naive");
            assert_eq!(
                resp.answer,
                engine_answer(&query, data),
                "semi-naive answer differs on {name}"
            );
        }
    }
}

#[test]
fn cached_compiled_plans_serve_warm_path_like_fresh_builds() {
    // The cache stores *compiled* plans (hom-search plans, compiled rule
    // bodies, compiled UCQ disjuncts). The warm path must (a) hand back the
    // very same compiled artifact (no re-planning), and (b) answer exactly
    // like a freshly built plan and the direct engine, on every strategy
    // path.
    use sirup_server::{IndexedInstance, Plan, PlanCache};
    let cache = PlanCache::new(16);
    let opts = PlanOptions::default();
    let indexed: Vec<IndexedInstance> = test_instances()
        .into_iter()
        .map(|(name, data)| IndexedInstance::new(name, data))
        .collect();
    let queries = [
        Query::PiGoal(paper::q5()),    // bounded → rewriting strategy
        Query::PiGoal(paper::q4_cq()), // unbounded → semi-naive
        Query::SigmaAnswers(paper::q4_cq()),
        Query::Delta {
            cq: paper::q2(),
            disjoint: false,
        }, // dpll
        Query::Delta {
            cq: paper::q2(),
            disjoint: true,
        },
    ];
    for query in queries {
        let cold = cache.get_or_build(&query, &opts);
        let warm = cache.get_or_build(&query, &opts);
        assert!(
            std::sync::Arc::ptr_eq(&cold, &warm),
            "warm fetch must reuse the compiled plan ({})",
            query.kind_name()
        );
        let fresh = Plan::build(query.clone(), &opts);
        for inst in &indexed {
            let served = warm.answer_routed(inst, None, true);
            assert_eq!(
                served,
                fresh.answer_routed(inst, None, true),
                "cached plan ≠ fresh build on {} ({})",
                inst.name,
                query.kind_name()
            );
            // The scratch reference: no materialisation read or attached.
            assert_eq!(
                served,
                fresh.answer_routed(inst, None, false),
                "served ≠ scratch evaluation on {} ({})",
                inst.name,
                query.kind_name()
            );
            assert_eq!(
                served,
                engine_answer(&query, &inst.data),
                "cached plan ≠ engine on {} ({})",
                inst.name,
                query.kind_name()
            );
        }
    }
    let (hits, misses) = cache.stats();
    assert_eq!(misses, 5);
    assert_eq!(hits, 5);
}

#[test]
fn mixed_replay_matches_engine_in_both_modes() {
    let spec = mixed_traffic(
        TrafficParams {
            instances: 3,
            instance_nodes: 16,
            instance_edges: 26,
            requests: 80,
            mean_gap_us: 40,
            random_cqs: 2,
            ..Default::default()
        },
        2026,
    );
    let expected: Vec<Answer> = spec
        .requests
        .iter()
        .map(|r| {
            let data = &spec
                .instances
                .iter()
                .find(|(n, _)| *n == r.instance)
                .unwrap()
                .1;
            let sirup_workloads::traffic::TrafficAction::Query { kind, cq } = &r.action else {
                panic!("read-only spec contains a mutation");
            };
            let query = match kind {
                QueryKind::PiGoal => Query::PiGoal(OneCq::new(cq.clone()).unwrap()),
                QueryKind::SigmaAnswers => Query::SigmaAnswers(OneCq::new(cq.clone()).unwrap()),
                QueryKind::Delta => Query::Delta {
                    cq: cq.clone(),
                    disjoint: false,
                },
                QueryKind::DeltaPlus => Query::Delta {
                    cq: cq.clone(),
                    disjoint: true,
                },
            };
            engine_answer(&query, data)
        })
        .collect();
    let server = four_thread_server();
    let closed = server.replay(&spec, ReplayMode::Closed).unwrap();
    assert_eq!(closed.answers, expected, "closed-loop replay ≠ engine");
    // Second pass (warm) open-loop: same answers, no new plan builds.
    let (_, misses_before) = server.plan_cache().stats();
    let open = server.replay(&spec, ReplayMode::Open).unwrap();
    assert_eq!(open.answers, expected, "open-loop replay ≠ engine");
    assert_eq!(server.plan_cache().stats().1, misses_before);
}

/// The whole battery again on a server with **intra-request parallelism**
/// enabled (parallelism 4, threshold 2, so even small instances split):
/// answers must stay bit-identical to the sequential engine oracle, and
/// the scheduler must actually have fanned subtasks out.
#[test]
fn parallel_server_matches_engine() {
    let server = Server::new(ServerConfig {
        threads: 4,
        parallelism: 4,
        par_threshold: 2,
        plan_cache: 64,
        answer_cache: 0,
        ..ServerConfig::default()
    });
    let instances = test_instances();
    for (name, data) in &instances {
        server.load_instance(name.clone(), data.clone()).unwrap();
    }
    let mut requests = Vec::new();
    let mut expected = Vec::new();
    for query in all_queries() {
        for (name, data) in &instances {
            expected.push(engine_answer(&query, data));
            requests.push(Request::query(query.clone(), name.clone()));
        }
    }
    let got: Vec<Answer> = server
        .submit(&requests)
        .unwrap()
        .into_iter()
        .map(|r| r.answer)
        .collect();
    assert_eq!(got, expected, "parallel server ≠ sequential engine");
    let stats = server.scheduler_stats();
    assert!(stats.jobs_spawned as usize >= requests.len());
    assert!(
        stats.subtasks_spawned > 0,
        "parallelism 4 with threshold 2 must split some request"
    );
}
