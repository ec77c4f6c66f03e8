//! Compiled query plans vs. the legacy backtracking search — the PR-3
//! tentpole's before/after numbers (recorded in `BENCH_hom.json`).
//!
//! Three shapes, each run both ways on the same inputs:
//!
//! * `*_exists/{depth}` — one existence check, pattern = depth-2 cactus of
//!   q8, target = growing full cactus (the Prop. 2 evidence-search shape);
//! * `*_pinned_sweep` — one pinned existence check per target node (the
//!   rule-application shape of the datalog fixpoint), where the legacy
//!   search replans per pin and the plan is compiled once outside the loop;
//! * `*_enumerate` — capped enumeration of all homomorphisms.
//!
//! `compile/{depth}` isolates the one-off compilation cost being amortised.
//! Since the CSR-substrate PR the `planned_*` points attach a
//! [`FrozenStructure`] snapshot of the target, frozen once outside the
//! loop — the amortisation the engine's fixpoint and the server's catalog
//! perform; `freeze/{depth}` isolates that one-off cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sirup_bench::bench_opts;
use sirup_cactus::enumerate::full_cactus;
use sirup_core::{FrozenStructure, Target};
use sirup_hom::{HomFinder, QueryPlan};
use sirup_workloads::paper;

fn hom_plan(c: &mut Criterion) {
    let mut g = c.benchmark_group("hom_plan");
    bench_opts(&mut g);
    let q = paper::q8();
    let small = full_cactus(&q, 2);
    for depth in [2u32, 4, 6] {
        let big = full_cactus(&q, depth);
        g.bench_with_input(BenchmarkId::new("legacy_exists", depth), &depth, |b, _| {
            b.iter(|| HomFinder::new(small.structure(), big.structure()).exists());
        });
        let plan = QueryPlan::compile(small.structure());
        let frozen = FrozenStructure::freeze(big.structure());
        g.bench_with_input(BenchmarkId::new("planned_exists", depth), &depth, |b, _| {
            b.iter(|| {
                plan.on(Target::from(big.structure()).with_view(Some(&frozen)))
                    .exists()
            });
        });
        // The same executions on live paged reads — the within-run control
        // that isolates the CSR substrate's gain from machine drift.
        g.bench_with_input(
            BenchmarkId::new("planned_exists_live", depth),
            &depth,
            |b, _| {
                b.iter(|| plan.on(big.structure()).exists());
            },
        );
        g.bench_with_input(BenchmarkId::new("compile", depth), &depth, |b, _| {
            b.iter(|| QueryPlan::compile(big.structure()).order().len());
        });
        g.bench_with_input(BenchmarkId::new("freeze", depth), &depth, |b, _| {
            b.iter(|| FrozenStructure::freeze(big.structure()).edge_count());
        });
    }

    // Rule-application shape: pin the pattern root to every target node in
    // turn (what each fixpoint round does per rule and candidate).
    let big = full_cactus(&q, 4);
    let root = small.root_focus();
    g.bench_function("legacy_pinned_sweep", |b| {
        b.iter(|| {
            big.structure()
                .nodes()
                .filter(|&a| {
                    HomFinder::new(small.structure(), big.structure())
                        .fix(root, a)
                        .exists()
                })
                .count()
        });
    });
    let plan = QueryPlan::compile(small.structure());
    let frozen = FrozenStructure::freeze(big.structure());
    g.bench_function("planned_pinned_sweep", |b| {
        b.iter(|| {
            big.structure()
                .nodes()
                .filter(|&a| {
                    plan.on(Target::from(big.structure()).with_view(Some(&frozen)))
                        .fix(root, a)
                        .exists()
                })
                .count()
        });
    });
    g.bench_function("planned_pinned_sweep_live", |b| {
        b.iter(|| {
            big.structure()
                .nodes()
                .filter(|&a| plan.on(big.structure()).fix(root, a).exists())
                .count()
        });
    });

    // Capped enumeration.
    let c0 = full_cactus(&q, 1);
    let c3 = full_cactus(&q, 3);
    g.bench_function("legacy_enumerate", |b| {
        b.iter(|| {
            HomFinder::new(c0.structure(), c3.structure())
                .find_up_to(256)
                .len()
        });
    });
    let enum_plan = QueryPlan::compile(c0.structure());
    let frozen3 = FrozenStructure::freeze(c3.structure());
    g.bench_function("planned_enumerate", |b| {
        b.iter(|| {
            enum_plan
                .on(Target::from(c3.structure()).with_view(Some(&frozen3)))
                .find_up_to(256)
                .len()
        });
    });
    g.finish();
}

criterion_group!(benches, hom_plan);
criterion_main!(benches);
