//! Differential tests for the incremental maintenance layer: a
//! [`MaterializedFixpoint`] driven through random mutation sequences must
//! equal a from-scratch [`evaluate`] of its base instance **after every
//! single op** — insertions (delta rules), deletions (overdelete/rederive),
//! node growth, and no-op re-inserts/re-retractions alike — and after
//! every whole batch, where one `apply` stages several ops before their
//! cascade runs.
//!
//! Programs are the paper's `Π_q`/`Σ_q` over random ditree 1-CQs (the
//! monadic-sirup shape the maintenance layer is specialised to), instances
//! are random labelled digraphs, and mutation sequences mix inserts and
//! retracts ≥ 50 ops deep.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sirup_core::program::{pi_q, sigma_q, Program};
use sirup_core::{FactOp, Node, Pred, Structure};
use sirup_engine::eval::evaluate;
use sirup_engine::MaterializedFixpoint;
use sirup_workloads::random::{random_ditree_cq, DitreeCqParams};

/// A random instance over F/T/A labels and R/S edges (messy: self-loops and
/// multi-labelled nodes allowed).
fn random_structure(n: usize, edges: usize, seed: u64) -> Structure {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = Structure::with_nodes(n);
    for _ in 0..edges {
        let u = Node(rng.gen_range(0..n) as u32);
        let v = Node(rng.gen_range(0..n) as u32);
        let p = if rng.gen_bool(0.5) { Pred::R } else { Pred::S };
        s.add_edge(p, u, v);
    }
    for v in 0..n as u32 {
        if rng.gen_bool(0.35) {
            s.add_label(Node(v), Pred::T);
        }
        if rng.gen_bool(0.2) {
            s.add_label(Node(v), Pred::F);
        }
        if rng.gen_bool(0.45) {
            s.add_label(Node(v), Pred::A);
        }
    }
    s
}

/// A random mutation sequence against an instance that currently has
/// `nodes` nodes. Ops may target one node past the range (growth) and may
/// be no-ops (re-insert / retract-absent) — the maintenance layer must
/// treat both exactly like the from-scratch evaluator would.
fn random_ops(nodes: usize, count: usize, seed: u64) -> Vec<FactOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let unary = [Pred::F, Pred::T, Pred::A, Pred::P];
    let binary = [Pred::R, Pred::S];
    (0..count)
        .map(|_| {
            let n = nodes as u32 + 1;
            let u = Node(rng.gen_range(0..n));
            let v = Node(rng.gen_range(0..n));
            match rng.gen_range(0..4u32) {
                0 => FactOp::AddLabel(unary[rng.gen_range(0..4usize)], v),
                1 => FactOp::RemoveLabel(unary[rng.gen_range(0..4usize)], v),
                2 => FactOp::AddEdge(binary[rng.gen_range(0..2usize)], u, v),
                _ => FactOp::RemoveEdge(binary[rng.gen_range(0..2usize)], u, v),
            }
        })
        .collect()
}

/// Drive `ops` through a materialisation of `program` over `data`, checking
/// equality with a from-scratch fixpoint after every op.
fn check_sequence(program: &Program, data: &Structure, ops: &[FactOp], ctx: &str) {
    let mut mat = MaterializedFixpoint::new(program, data);
    for (i, &op) in ops.iter().enumerate() {
        mat.apply(&[op]);
        let fresh = evaluate(program, mat.base());
        let live = mat.evaluation();
        assert_eq!(
            live.nullary, fresh.nullary,
            "{ctx}: nullary diverged after op {i} ({op})"
        );
        assert_eq!(
            live.unary, fresh.unary,
            "{ctx}: unary diverged after op {i} ({op})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// ≥ 50 random mutations against Σ_q of a random ditree CQ: maintained
    /// state ≡ from-scratch fixpoint after every op.
    #[test]
    fn sigma_maintenance_equals_from_scratch(seed in 0u64..10_000) {
        let q = random_ditree_cq(DitreeCqParams::default(), seed)
            .or_else(|| random_ditree_cq(DitreeCqParams::default(), seed + 7))
            .unwrap_or_else(|| sirup_core::OneCq::parse("F(x), R(x,y), T(y)"));
        let sigma = sigma_q(&q);
        let data = random_structure(8, 14, seed ^ 0xace5);
        let ops = random_ops(8, 50, seed.wrapping_mul(31).wrapping_add(5));
        check_sequence(&sigma, &data, &ops, "sigma");
    }

    /// Same against Π_q (adds the nullary goal rule to the maintained mix).
    #[test]
    fn pi_maintenance_equals_from_scratch(seed in 0u64..10_000) {
        let q = random_ditree_cq(DitreeCqParams::default(), seed)
            .or_else(|| random_ditree_cq(DitreeCqParams::default(), seed + 7))
            .unwrap_or_else(|| sirup_core::OneCq::parse("F(x), R(x,y), T(y)"));
        let pi = pi_q(&q);
        let data = random_structure(7, 12, seed ^ 0xbeef);
        let ops = random_ops(7, 50, seed.wrapping_mul(17).wrapping_add(3));
        check_sequence(&pi, &data, &ops, "pi");
    }
}

/// Deterministic deep sequence on the paper's q4 program: a long mixed
/// insert/retract run with interleaved growth, retract-all, and rebuild.
#[test]
fn q4_long_mixed_sequence() {
    let q = sirup_core::OneCq::parse("F(x), R(y,x), R(y,z), T(z)");
    let sigma = sigma_q(&q);
    let pi = pi_q(&q);
    for seed in [1u64, 2, 3] {
        let data = random_structure(10, 18, seed);
        let ops = random_ops(10, 120, seed.wrapping_mul(101));
        check_sequence(&sigma, &data, &ops, "q4 sigma");
        check_sequence(&pi, &data, &ops, "q4 pi");
    }
}

/// Retracting every asserted fact one by one must drain the closure to the
/// empty evaluation, and re-inserting them must rebuild it exactly.
#[test]
fn drain_and_rebuild_round_trip() {
    let q = sirup_core::OneCq::parse("F(x), R(y,x), R(y,z), T(z)");
    let sigma = sigma_q(&q);
    let data = random_structure(9, 16, 77);
    let mut facts: Vec<FactOp> = Vec::new();
    for (p, v) in data.unary_atoms() {
        facts.push(FactOp::RemoveLabel(p, v));
    }
    for (p, u, v) in data.edges() {
        facts.push(FactOp::RemoveEdge(p, u, v));
    }
    let mut mat = MaterializedFixpoint::new(&sigma, &data);
    check_sequence(&sigma, &data, &facts, "drain");
    for &op in &facts {
        mat.apply(&[op]);
    }
    assert!(mat.answers(Pred::P).is_empty());
    // Rebuild by re-asserting everything as inserts.
    let inserts: Vec<FactOp> = facts
        .iter()
        .map(|&op| match op {
            FactOp::RemoveLabel(p, v) => FactOp::AddLabel(p, v),
            FactOp::RemoveEdge(p, u, v) => FactOp::AddEdge(p, u, v),
            _ => unreachable!(),
        })
        .collect();
    mat.apply(&inserts);
    let fresh = evaluate(&sigma, &data);
    let live = mat.evaluation();
    assert_eq!(live.nullary, fresh.nullary);
    assert_eq!(live.unary, fresh.unary);
}

/// The base's node count and its facts in a canonical order.
fn facts(s: &Structure) -> (usize, Vec<String>) {
    let mut ops: Vec<String> = s.to_ops().iter().map(FactOp::to_string).collect();
    ops.sort_unstable();
    (s.node_count(), ops)
}

/// One random batch against `mat`: random ops plus the shapes a batch can
/// hold that a single op cannot — a repeated insert, an insert and a
/// retract of the same fact, an asserted `P` label that is already
/// derived, and inserts that grow the node range.
fn random_batch(mat: &MaterializedFixpoint, rng: &mut StdRng) -> Vec<FactOp> {
    let n = mat.base().node_count();
    let mut batch = random_ops(n, rng.gen_range(1..6), rng.gen_range(0..u64::MAX));
    let derived = mat.answers(Pred::P);
    if !derived.is_empty() && rng.gen_bool(0.5) {
        let v = derived[rng.gen_range(0..derived.len())];
        batch.insert(rng.gen_range(0..=batch.len()), FactOp::AddLabel(Pred::P, v));
    }
    if rng.gen_bool(0.3) {
        let (a, b) = (Node(n as u32), Node(n as u32 + 1));
        batch.push(FactOp::AddLabel(Pred::A, a));
        batch.push(FactOp::AddEdge(
            Pred::R,
            a,
            Node(rng.gen_range(0..n as u32)),
        ));
        batch.push(FactOp::AddEdge(Pred::S, b, a));
    }
    for _ in 0..2 {
        let Some(&op) = batch.get(rng.gen_range(0..batch.len())) else {
            continue;
        };
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

/// Drive whole batches through a materialisation: after every batch the
/// maintained state equals a from-scratch fixpoint of the base, the base
/// equals `Structure::apply_all` of the same batches, and `apply` counts
/// what `apply_all` counts.
fn check_batches(program: &Program, data: &Structure, batches: usize, seed: u64, ctx: &str) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mat = MaterializedFixpoint::new(program, data);
    let mut reference = data.clone();
    for i in 0..batches {
        let batch = random_batch(&mat, &mut rng);
        let applied = mat.apply(&batch);
        assert_eq!(
            applied,
            reference.apply_all(&batch),
            "{ctx}: count diverged on batch {i} {batch:?}"
        );
        assert_eq!(
            facts(mat.base()),
            facts(&reference),
            "{ctx}: base diverged on batch {i}"
        );
        let fresh = evaluate(program, mat.base());
        let live = mat.evaluation();
        assert_eq!(
            live.nullary, fresh.nullary,
            "{ctx}: nullary diverged on batch {i} {batch:?}"
        );
        assert_eq!(
            live.unary, fresh.unary,
            "{ctx}: unary diverged on batch {i} {batch:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Σ_q and Π_q of a random ditree CQ under 30 random batches: see
    /// [`check_batches`].
    #[test]
    fn batch_maintenance_equals_from_scratch(seed in 0u64..10_000) {
        let q = random_ditree_cq(DitreeCqParams::default(), seed)
            .or_else(|| random_ditree_cq(DitreeCqParams::default(), seed + 7))
            .unwrap_or_else(|| sirup_core::OneCq::parse("F(x), R(x,y), T(y)"));
        let data = random_structure(8, 14, seed ^ 0x5eed);
        check_batches(&sigma_q(&q), &data, 30, seed, "sigma");
        check_batches(&pi_q(&q), &data, 30, seed ^ 1, "pi");
    }
}

/// The paper's q4 under batches, on both programs.
#[test]
fn q4_batches() {
    let q = sirup_core::OneCq::parse("F(x), R(y,x), R(y,z), T(z)");
    for seed in [4u64, 5, 6] {
        let data = random_structure(10, 18, seed);
        check_batches(&sigma_q(&q), &data, 60, seed, "q4 sigma");
        check_batches(&pi_q(&q), &data, 60, seed, "q4 pi");
    }
}
