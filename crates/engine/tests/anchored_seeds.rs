//! Incremental maintenance reads a write's neighbourhood, not the
//! instance: on a 5000-node instance with a `Σ_q4` materialisation, an
//! edge insert that derives new facts, and its retract, seed every
//! plan-execution domain from a pin. The seed counters
//! (`sirup_hom_anchored_seeds_total`, `sirup_hom_universe_seeds_total`)
//! are process-wide, so this is the only test in its binary.

use sirup_core::program::sigma_q;
use sirup_core::telemetry;
use sirup_core::{FactOp, Node, OneCq, Pred};
use sirup_engine::MaterializedFixpoint;
use sirup_workloads::random::random_instance;

fn seeds() -> (u64, u64) {
    let snap = telemetry::snapshot();
    (
        snap.counter("sirup_hom_anchored_seeds_total"),
        snap.counter("sirup_hom_universe_seeds_total"),
    )
}

#[test]
fn a_maintained_write_seeds_no_domain_over_the_universe() {
    telemetry::set_enabled(true);
    let data = random_instance(5000, 10000, 0.3, 0.05, 11);
    let q4 = OneCq::parse("F(x), R(y,x), R(y,z), T(z)");
    let mut mf = MaterializedFixpoint::new(&sigma_q(&q4), &data);
    mf.apply(&[]); // seed the support counts (one unpinned pass per rule)
    let before = mf.evaluation();

    // `R(y, x)` with `A(x)`, `P(x)` not yet derived, and `y` already an
    // `R`-source of some `P` node: rule (7) derives `P(x)`, which cascades.
    let derived = |v: Node| mf.holds_at(Pred::P, v);
    let x = data
        .nodes()
        .find(|&v| data.has_label(v, Pred::A) && !derived(v))
        .expect("an underived A node");
    let y = data
        .nodes()
        .find(|&v| v != x && data.out_pred(v, Pred::R).iter().any(|&(_, z)| derived(z)))
        .expect("an R-source of a derived node");
    let edge = (Pred::R, y, x);
    assert!(!data.has_edge(edge.0, edge.1, edge.2));

    let (anchored0, universe0) = seeds();
    mf.apply(&[FactOp::AddEdge(edge.0, edge.1, edge.2)]);
    assert!(mf.holds_at(Pred::P, x), "the insert derives P(x)");
    mf.apply(&[FactOp::RemoveEdge(edge.0, edge.1, edge.2)]);
    let (anchored1, universe1) = seeds();

    assert_eq!(mf.evaluation().unary, before.unary, "the retract undoes it");
    assert!(anchored1 > anchored0, "maintenance seeds from its pins");
    assert_eq!(universe1, universe0, "no domain seeded over the instance");
}
