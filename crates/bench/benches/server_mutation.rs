//! S4 — mutation traffic through the service layer.
//!
//! Measured shapes: (1) `mutation_submit_32req/{threads}` — a batch of 32
//! ticketed single-op mutations against one instance with two warm
//! semi-naive materialisations attached: each op pays the copy-on-write
//! snapshot (data clone + index deltas) plus *incremental* maintenance of
//! both materialisations; (2) `replay_mixed_mutations_4t` — closed-loop
//! replay of the standing mixed read/write workload (30% mutations, hot
//! instance skew), instances re-loaded per iteration — the headline
//! mutation-throughput figure tracked in `BENCH_incremental.json`;
//! (3) `server_mutation_scale/32req_{1x,10x,100x}` — the same 32-op
//! single-instance mutation batch against bipartite-tangle instances of
//! ~512, ~5k and ~51k nodes: with page-granular copy-on-write snapshots
//! the per-op write cost must stay flat in instance size (bench_check.sh
//! gates the 100x/1x ratio at ≤2x); (4) `server_mutation_scale/
//! write_read/{1x,10x,100x}` — mixed traffic on the same instances: 16
//! single-op mutations, each followed by one q5 π read (the rewriting
//! route, which reads through the CSR view). The view is carried across
//! each write, so the read after it must not re-freeze the instance;
//! bench_check.sh gates this 100x/1x ratio at ≤2x too;
//! (5) `server_mutation_scale/maintained/{1x,10x,100x}` — the same
//! instances with a warm `Σ_q4` read attached, so every write also
//! maintains that materialisation: 16 single-op `R`-edge toggles. Each
//! maintained write replays the rule plans pinned at the toggled edge,
//! which read the edge's neighbourhood only, and the per-write clone of
//! the materialisation copies its base's page table and one `n`-bit row
//! per IDB predicate; bench_check.sh gates this 100x/1x ratio at ≤2x as
//! well.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sirup_bench::{bench_opts, bipartite_tangle};
use sirup_core::{FactOp, Node, Pred};
use sirup_server::{Query, ReplayMode, Request, Server, ServerConfig};
use sirup_workloads::paper;
use sirup_workloads::traffic::{mixed_traffic, TrafficParams};

fn server(threads: usize) -> Server {
    Server::new(ServerConfig {
        threads,
        plan_cache: 64,
        answer_cache: 0, // measure evaluation + mutation cost, not cache hits
        ..ServerConfig::default()
    })
}

fn server_mutation(c: &mut Criterion) {
    let mut g = c.benchmark_group("server_mutation");
    bench_opts(&mut g);

    // Ticketed mutation batches against a live instance with warm
    // materialisations.
    for threads in [1usize, 4] {
        let s = server(threads);
        s.load_instance("d1", paper::d1()).unwrap();
        for q in [
            Query::PiGoal(paper::q4_cq()),
            Query::SigmaAnswers(paper::q4_cq()),
        ] {
            s.submit(&[Request::query(q, "d1")]).unwrap(); // attach materialisation
        }
        let requests: Vec<Request> = (0..32)
            .map(|i| {
                let op = if i % 2 == 0 {
                    FactOp::AddEdge(Pred::S, Node(0), Node(1))
                } else {
                    FactOp::RemoveEdge(Pred::S, Node(0), Node(1))
                };
                Request::mutation(vec![op], "d1")
            })
            .collect();
        g.bench_with_input(
            BenchmarkId::new("mutation_submit_32req", threads),
            &requests,
            |b, reqs| {
                b.iter(|| s.submit(reqs).unwrap());
            },
        );
    }

    // Closed-loop mixed read/write replay (instances re-loaded per
    // iteration by `replay`, so every run mutates from the same state).
    let spec = mixed_traffic(
        TrafficParams {
            instances: 3,
            instance_nodes: 20,
            instance_edges: 32,
            requests: 96,
            mean_gap_us: 0,
            random_cqs: 2,
            mutation_ratio: 0.3,
            hot_weight: 0.4,
        },
        4243,
    );
    let s = server(4);
    s.replay(&spec, ReplayMode::Closed).unwrap(); // warm plans
    g.bench_function(
        BenchmarkId::from_parameter("replay_mixed_mutations_4t"),
        |b| {
            b.iter(|| s.replay(&spec, ReplayMode::Closed).unwrap());
        },
    );

    g.finish();

    // The flat-writes sweep: identical 32-op mutation batches against
    // instances 1x/10x/100x the size. No materialisations attached — this
    // isolates the snapshot path (structure clone + patch, index deltas),
    // which used to be O(instance) and is now O(touched pages).
    let mut g = c.benchmark_group("server_mutation_scale");
    bench_opts(&mut g);
    let toggles_of = |p: Pred, count: usize| -> Vec<Request> {
        (0..count)
            .map(|i| {
                let op = if i % 2 == 0 {
                    FactOp::AddEdge(p, Node(0), Node(1))
                } else {
                    FactOp::RemoveEdge(p, Node(0), Node(1))
                };
                Request::mutation(vec![op], "big")
            })
            .collect()
    };
    let toggles = |count: usize| toggles_of(Pred::S, count);
    let scales = [("1x", 256usize), ("10x", 2560), ("100x", 25600)];
    for (tag, half) in scales {
        let s = server(1);
        s.load_instance("big", bipartite_tangle(half, 2, 77))
            .unwrap();
        g.bench_with_input(BenchmarkId::new("32req", tag), &toggles(32), |b, reqs| {
            b.iter(|| s.submit(reqs).unwrap());
        });
    }

    // Write-then-read on the same instances: every read follows a write
    // and lands on the snapshot that write created.
    let read = Request::query(Query::PiGoal(paper::q5()), "big");
    for (tag, half) in scales {
        let s = server(1);
        s.load_instance("big", bipartite_tangle(half, 2, 77))
            .unwrap();
        s.answer_one(&read).unwrap(); // plan built, CSR view frozen
        g.bench_with_input(
            BenchmarkId::new("write_read", tag),
            &toggles(16),
            |b, writes| {
                b.iter(|| {
                    for w in writes {
                        s.answer_one(w).unwrap();
                        s.answer_one(&read).unwrap();
                    }
                });
            },
        );
    }

    // Writes that maintain a materialisation: a warm `Σ_q4` read attaches
    // it, and every `R` toggle carries it forward incrementally.
    let sigma = Request::query(Query::SigmaAnswers(paper::q4_cq()), "big");
    for (tag, half) in scales {
        let s = server(1);
        s.load_instance("big", bipartite_tangle(half, 2, 77))
            .unwrap();
        s.answer_one(&sigma).unwrap(); // materialisation attached
        g.bench_with_input(
            BenchmarkId::new("maintained", tag),
            &toggles_of(Pred::R, 16),
            |b, writes| {
                b.iter(|| {
                    for w in writes {
                        s.answer_one(w).unwrap();
                    }
                });
            },
        );
    }
    g.finish();
}

criterion_group!(benches, server_mutation);
criterion_main!(benches);
