//! S4 — intra-request parallel scaling on the shared scheduler.
//!
//! Three heavy single-request operations, each measured sequentially (the
//! `parallelism: 1` zero-overhead oracle path — the `seq_*` points) and at
//! 1 / 2 / 4 / 8 scheduler workers with the default spawn threshold:
//!
//! * `exists/{w}` — a triangle pattern against [`bipartite_tangle`]: no
//!   odd cycle embeds, but AC-3 keeps full domains, so **every** root
//!   candidate is refuted by search — the adversarial miss where
//!   early-cancel cannot fire and the work splits evenly across root
//!   chunks;
//! * `enumerate/{w}` — full enumeration of all length-2 `T`-paths over the
//!   same tangle (~50k homomorphisms; per-chunk buffers merged in chunk
//!   order, bit-identical to sequential);
//! * `fixpoint/{w}` — the Σ_q4 semi-naive fixpoint over a 1000-node random
//!   instance (`sirupctl serve --scaling --nodes 1000` emits this shape;
//!   the bundled `workloads/large.sirupload` is the committed 192-node
//!   rendering), with chunked per-rule delta checks.
//!
//! Wall-clock speedup across worker counts is only observable when the
//! host has that many cores; `scripts/bench_check.sh` gates the
//! 4-vs-1-worker ratio when the host has ≥ 4 CPUs and reports it
//! informationally otherwise (the committed `BENCH_parallel.json` records
//! the host's core count).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sirup_bench::{bench_opts, bipartite_tangle};
use sirup_core::program::sigma_q;
use sirup_core::{ParCtx, Scheduler, Target};
use sirup_engine::CompiledProgram;
use sirup_hom::QueryPlan;
use sirup_workloads::paper;
use sirup_workloads::random::random_instance;

const THRESHOLD: usize = 64;

fn parallel_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel");
    bench_opts(&mut g);

    let tangle = bipartite_tangle(400, 8, 7);
    let triangle = QueryPlan::compile(&sirup_core::parse::st(
        "T(a), R(a,b), T(b), R(b,c), T(c), R(c,a)",
    ));
    let paths = QueryPlan::compile(&sirup_core::parse::st("T(a), R(a,b), T(b), R(b,c), T(c)"));
    let big = random_instance(1000, 2000, 0.45, 0.25, 1);
    let compiled = CompiledProgram::new(&sigma_q(&paper::q4_cq()));

    // Sequential oracle points (no ParCtx — the parallelism: 1 path).
    g.bench_function(BenchmarkId::from_parameter("seq_exists"), |b| {
        b.iter(|| assert!(!triangle.on(&tangle).exists()));
    });
    g.bench_function(BenchmarkId::from_parameter("seq_enumerate"), |b| {
        b.iter(|| paths.on(&tangle).find_up_to(10_000_000).len());
    });
    g.bench_function(BenchmarkId::from_parameter("seq_fixpoint"), |b| {
        b.iter(|| compiled.evaluate(&big));
    });

    for workers in [1usize, 2, 4, 8] {
        let sched = Scheduler::new(workers);
        let ctx = ParCtx::new(&sched, THRESHOLD);
        g.bench_function(BenchmarkId::new("exists", workers), |b| {
            b.iter(|| {
                assert!(!triangle
                    .on(Target::from(&tangle).with_par(Some(ctx)))
                    .exists())
            });
        });
        g.bench_function(BenchmarkId::new("enumerate", workers), |b| {
            b.iter(|| {
                paths
                    .on(Target::from(&tangle).with_par(Some(ctx)))
                    .find_up_to(10_000_000)
                    .len()
            });
        });
        g.bench_function(BenchmarkId::new("fixpoint", workers), |b| {
            b.iter(|| compiled.evaluate(Target::from(&big).with_par(Some(ctx))));
        });
    }
    g.finish();
}

criterion_group!(benches, parallel_scaling);
criterion_main!(benches);
