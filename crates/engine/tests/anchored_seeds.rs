//! Incremental maintenance reads a write's neighbourhood, not the
//! instance: on a 5000-node instance with a `Σ_q4` and a `Π_q4`
//! materialisation, an edge insert that derives new facts, and its
//! retract, seed every plan-execution domain from a pin. For `Π_q4` this
//! also pins that a retract which leaves the goal's recorded derivation
//! intact does not search for the goal again. The seed counters
//! (`sirup_hom_anchored_seeds_total`, `sirup_hom_universe_seeds_total`)
//! are process-wide, so this is the only test in its binary.

use sirup_core::program::{pi_q, sigma_q};
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
    let mut sigma = MaterializedFixpoint::new(&sigma_q(&q4), &data);
    let mut pi = MaterializedFixpoint::new(&pi_q(&q4), &data);
    assert!(pi.holds(Pred::GOAL), "the goal holds on this instance");

    // `R(y, x)` with `A(x)`, `P(x)` not yet derived, and `y` already an
    // `R`-source of some `P` node: rule (7) derives `P(x)`. `x` has no
    // other `R`-source and no derived `A` node is an `R`-target of `y`, so
    // the retract overdeletes only facts the insert derived: none of them
    // is in the goal's recorded derivation, which predates the insert.
    let derived = |v: Node| sigma.holds_at(Pred::P, v);
    let x = data
        .nodes()
        .find(|&v| {
            data.has_label(v, Pred::A) && !derived(v) && data.inn_pred(v, Pred::R).is_empty()
        })
        .expect("an underived A node with no R-source");
    let y = data
        .nodes()
        .find(|&v| {
            let targets = data.out_pred(v, Pred::R);
            v != x
                && targets.iter().any(|&(_, z)| derived(z))
                && !targets
                    .iter()
                    .any(|&(_, z)| derived(z) && data.has_label(z, Pred::A))
        })
        .expect("an R-source of a derived node and of no derived A node");
    let ops = [
        FactOp::AddEdge(Pred::R, y, x),
        FactOp::RemoveEdge(Pred::R, y, x),
    ];

    for (name, mf) in [("sigma", &mut sigma), ("pi", &mut pi)] {
        let before = mf.evaluation();
        let (anchored0, universe0) = seeds();
        mf.apply(&ops[..1]);
        assert!(mf.holds_at(Pred::P, x), "{name}: the insert derives P(x)");
        mf.apply(&ops[1..]);
        let (anchored1, universe1) = seeds();

        let after = mf.evaluation();
        assert_eq!(after.unary, before.unary, "{name}: the retract undoes it");
        assert_eq!(after.nullary, before.nullary, "{name}: nullary facts stay");
        assert!(
            anchored1 > anchored0,
            "{name}: maintenance seeds from its pins"
        );
        assert_eq!(
            universe1, universe0,
            "{name}: no domain seeded over the instance"
        );
    }
}
