//! S3 — incremental fixpoint maintenance vs. from-scratch re-evaluation.
//!
//! The fixpoint-shaped instance is the `q4_ladder`: `layers` chained q4
//! patterns whose closure needs one derivation round per layer, the shape
//! where re-evaluation is most expensive. Measured points:
//!
//! * `from_scratch/{n}` — one full `CompiledProgram::evaluate` (what every
//!   data change cost before the incremental layer existed);
//! * `build_materialization/{n}` — the one-off `MaterializedFixpoint`
//!   build (the evaluation, plus one recorded derivation per derived
//!   nullary fact), paid once per instance;
//! * `maintain_local_pair/{n}` — insert **plus** retract of an edge that
//!   touches no derivation (the common case for point writes): two
//!   maintenance ops per iteration, so the per-op cost is half the
//!   reported mean. The headline comparison: this pair must stay ≥ 5×
//!   below `from_scratch` (see `BENCH_incremental.json`);
//! * `maintain_cascade_pair/{n}` — retract **plus** re-insert of the
//!   ladder's deep `T`-seed: a full DRed overdeletion followed by a full
//!   re-derivation, the adversarial worst case where maintenance touches
//!   every derived fact.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sirup_bench::{bench_opts, q4_ladder};
use sirup_core::program::sigma_q;
use sirup_core::{FactOp, Node, OneCq, Pred};
use sirup_engine::{CompiledProgram, MaterializedFixpoint};

fn engine_incremental(c: &mut Criterion) {
    let mut g = c.benchmark_group("incremental");
    bench_opts(&mut g);
    let q4 = OneCq::parse("F(x), R(y,x), R(y,z), T(z)");
    let sigma = sigma_q(&q4);
    let compiled = CompiledProgram::new(&sigma);

    for layers in [8usize, 24] {
        let data = q4_ladder(layers);
        let deep_t = data
            .nodes()
            .find(|&v| data.has_label(v, Pred::T))
            .expect("ladder has a T seed");

        g.bench_with_input(
            BenchmarkId::new("from_scratch", layers),
            &data,
            |b, data| {
                b.iter(|| compiled.evaluate(data));
            },
        );

        g.bench_with_input(
            BenchmarkId::new("build_materialization", layers),
            &data,
            |b, data| {
                b.iter(|| MaterializedFixpoint::from_compiled(compiled.clone(), data));
            },
        );

        // Local pair: an edge from a fresh unlabeled side node — present in
        // the data, irrelevant to every derivation. Insert + retract per
        // iteration returns to the starting state.
        {
            let mut grown = data.clone();
            let side = grown.add_node();
            let mut mat = MaterializedFixpoint::from_compiled(compiled.clone(), &grown);
            let ins = [FactOp::AddEdge(Pred::R, side, Node(0))];
            let del = [FactOp::RemoveEdge(Pred::R, side, Node(0))];
            g.bench_function(BenchmarkId::new("maintain_local_pair", layers), |b| {
                b.iter(|| {
                    mat.apply(&ins);
                    mat.apply(&del);
                });
            });
        }

        // Cascade pair: toggling the deep T-seed overdeletes and rederives
        // the entire P-chain.
        {
            let mut mat = MaterializedFixpoint::from_compiled(compiled.clone(), &data);
            let del = [FactOp::RemoveLabel(Pred::T, deep_t)];
            let ins = [FactOp::AddLabel(Pred::T, deep_t)];
            g.bench_function(BenchmarkId::new("maintain_cascade_pair", layers), |b| {
                b.iter(|| {
                    mat.apply(&del);
                    mat.apply(&ins);
                });
            });
        }
    }
    g.finish();
}

criterion_group!(benches, engine_incremental);
criterion_main!(benches);
