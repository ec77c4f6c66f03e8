//! Differential proptests for the engine's **parallel** evaluation paths
//! against the sequential oracles, at 1, 2, 4 and 8 workers:
//!
//! * `CompiledProgram::evaluate` on a target with a `ParCtx` (chunked
//!   delta checks, merged per-worker derivation buffers) vs without — the
//!   fixpoint is unique,
//!   so the derived nullary/unary sets must be identical (round counts may
//!   differ: parallel rounds give up in-rule in-round propagation);
//! * `CompiledUcq::{eval_boolean, eval_at, answers}` with a `ParCtx`
//!   (concurrent disjuncts with first-match cancellation, chunked answer
//!   sweeps) vs without — `answers` compares **exact vectors**, not sets;
//! * `certain_answer_dsirup_planned` with a `ParCtx` (parallel bound
//!   checks inside the sequential DPLL branching) vs without;
//! * `MaterializedFixpoint::apply` batching consecutive insert worklists
//!   into one cascade vs applying the same ops one at a time — maintained
//!   closure *and* subsequent deletions (which read the recorded goal
//!   derivations each mode left) must agree.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sirup_core::program::{pi_q, sigma_q, DSirup};
use sirup_core::{FactOp, Node, ParCtx, Pred, Scheduler, Structure, Target};
use sirup_engine::disjunctive::certain_answer_dsirup_planned;
use sirup_engine::{CompiledProgram, MaterializedFixpoint, Ucq};
use sirup_hom::QueryPlan;
use sirup_workloads::random::{random_ditree_cq, DitreeCqParams};
use std::sync::OnceLock;

fn schedulers() -> &'static Vec<Scheduler> {
    static S: OnceLock<Vec<Scheduler>> = OnceLock::new();
    S.get_or_init(|| [1usize, 2, 4, 8].into_iter().map(Scheduler::new).collect())
}

const THRESHOLD: usize = 2;

/// A random messy instance (self-loops, multi-labels allowed).
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
        if rng.gen_bool(0.3) {
            s.add_label(Node(v), Pred::T);
        }
        if rng.gen_bool(0.2) {
            s.add_label(Node(v), Pred::F);
        }
        if rng.gen_bool(0.4) {
            s.add_label(Node(v), Pred::A);
        }
    }
    s
}

/// A random mixed op sequence against a shadow copy of `s` (retracts hit
/// existing facts; inserts occasionally grow the instance).
fn random_ops(s: &Structure, count: usize, seed: u64) -> Vec<FactOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shadow = s.clone();
    let unary = [Pred::F, Pred::T, Pred::A];
    let binary = [Pred::R, Pred::S];
    let mut ops = Vec::with_capacity(count);
    while ops.len() < count {
        let op = if rng.gen_bool(0.4) && shadow.size() > 0 {
            let labels = shadow.label_count();
            let total = labels + shadow.edge_count();
            let k = rng.gen_range(0..total);
            if k < labels {
                let (p, v) = shadow.unary_atoms().nth(k).unwrap();
                FactOp::RemoveLabel(p, v)
            } else {
                let (p, u, v) = shadow.edges().nth(k - labels).unwrap();
                FactOp::RemoveEdge(p, u, v)
            }
        } else {
            let n = shadow.node_count() as u32;
            let fresh = rng.gen_bool(0.1);
            let pick = |rng: &mut StdRng| Node(rng.gen_range(0..n.max(1)));
            if rng.gen_bool(0.5) {
                let v = if fresh { Node(n) } else { pick(&mut rng) };
                FactOp::AddLabel(unary[rng.gen_range(0..3usize)], v)
            } else {
                let u = if fresh { Node(n) } else { pick(&mut rng) };
                let v = pick(&mut rng);
                FactOp::AddEdge(binary[rng.gen_range(0..2usize)], u, v)
            }
        };
        shadow.apply(op);
        ops.push(op);
    }
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Parallel semi-naive ≡ sequential semi-naive on Π_q / Σ_q of random
    /// ditree CQs over random structures, at every worker count.
    #[test]
    fn parallel_fixpoint_matches_sequential(seed in 0u64..4000) {
        let q = random_ditree_cq(DitreeCqParams::default(), seed)
            .or_else(|| random_ditree_cq(DitreeCqParams::default(), seed + 7));
        prop_assume!(q.is_some());
        let q = q.unwrap();
        let data = random_structure(10, 18, seed ^ 0xD00D);
        for program in [pi_q(&q), sigma_q(&q)] {
            let compiled = CompiledProgram::new(&program);
            let sequential = compiled.evaluate(&data);
            for sched in schedulers() {
                let ctx = Some(ParCtx::new(sched, THRESHOLD));
                let parallel = compiled.evaluate(Target::from(&data).with_par(ctx));
                prop_assert_eq!(
                    &sequential.nullary, &parallel.nullary,
                    "nullary diverged at {} workers", sched.workers()
                );
                prop_assert_eq!(
                    &sequential.unary, &parallel.unary,
                    "unary diverged at {} workers", sched.workers()
                );
            }
        }
    }

    /// Parallel UCQ evaluation (concurrent disjuncts, chunked answer
    /// sweeps) ≡ sequential, including the exact sorted answer vector.
    #[test]
    fn parallel_ucq_matches_sequential(seed in 0u64..4000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = random_structure(12, 20, seed ^ 0xBEEF);
        // A UCQ of 1–4 random disjuncts, each with a random free node.
        let k = rng.gen_range(1..=4usize);
        let disjuncts: Vec<(Structure, Node)> = (0..k)
            .map(|i| {
                let pat = random_structure(3, 4, seed.wrapping_mul(31).wrapping_add(i as u64));
                let free = Node(rng.gen_range(0..pat.node_count().max(1)) as u32);
                (pat, free)
            })
            .collect();
        let boolean = Ucq::boolean(disjuncts.iter().map(|(s, _)| s.clone())).compile();
        let unary = Ucq::unary(disjuncts).compile();
        let seq_bool = boolean.eval_boolean(&data);
        let seq_answers = unary.answers(&data);
        for sched in schedulers() {
            let par = Target::from(&data).with_par(Some(ParCtx::new(sched, THRESHOLD)));
            prop_assert_eq!(seq_bool, boolean.eval_boolean(par));
            prop_assert_eq!(&seq_answers, &unary.answers(par));
            for a in data.nodes().take(4) {
                prop_assert_eq!(unary.eval_at(&data, a), unary.eval_at(par, a));
            }
        }
    }

    /// DPLL with parallel bound checks ≡ sequential DPLL.
    #[test]
    fn parallel_dpll_matches_sequential(seed in 0u64..4000) {
        let q = random_ditree_cq(DitreeCqParams::default(), seed)
            .or_else(|| random_ditree_cq(DitreeCqParams::default(), seed + 7));
        prop_assume!(q.is_some());
        let cq = q.unwrap().structure().clone();
        // Few A-nodes keep the labelling search small.
        let data = random_structure(9, 14, seed ^ 0xCAFE);
        for disjoint in [false, true] {
            let d = DSirup { cq: cq.clone(), disjoint };
            let plan = QueryPlan::compile(&d.cq);
            let sequential = certain_answer_dsirup_planned(&d, &plan, &data);
            for sched in schedulers() {
                let par = Target::from(&data).with_par(Some(ParCtx::new(sched, THRESHOLD)));
                prop_assert_eq!(
                    sequential,
                    certain_answer_dsirup_planned(&d, &plan, par),
                    "DPLL diverged at {} workers (disjoint: {})", sched.workers(), disjoint
                );
            }
        }
    }

    /// Batched insert worklists ≡ per-op application: same maintained
    /// closure, and — because later deletions read the goal derivations
    /// each mode recorded — the states still agree after a follow-up
    /// retract wave.
    #[test]
    fn batched_cascades_match_per_op(seed in 0u64..4000) {
        let q = random_ditree_cq(DitreeCqParams::default(), seed)
            .or_else(|| random_ditree_cq(DitreeCqParams::default(), seed + 7));
        prop_assume!(q.is_some());
        let q = q.unwrap();
        let data = random_structure(8, 14, seed ^ 0xF00D);
        for program in [pi_q(&q), sigma_q(&q)] {
            let compiled = CompiledProgram::new(&program);
            let ops = random_ops(&data, 24, seed ^ 0x51ED);
            let mut batched = MaterializedFixpoint::from_compiled(compiled.clone(), &data);
            let mut per_op = MaterializedFixpoint::from_compiled(compiled.clone(), &data);
            let a = batched.apply(&ops);
            let mut b = 0usize;
            for &op in &ops {
                b += per_op.apply(&[op]);
            }
            prop_assert_eq!(a, b, "applied-op counts diverged");
            let live_a = batched.evaluation();
            let live_b = per_op.evaluation();
            prop_assert_eq!(&live_a.nullary, &live_b.nullary);
            prop_assert_eq!(&live_a.unary, &live_b.unary);
            prop_assert_eq!(batched.base(), per_op.base());
            // Follow-up retracts exercise the goal derivations both modes
            // recorded; they must agree with each other and with a
            // from-scratch evaluation of the maintained base.
            let wave = random_ops(batched.base(), 8, seed ^ 0xDEAD);
            batched.apply(&wave);
            for &op in &wave {
                per_op.apply(&[op]);
            }
            let live_a = batched.evaluation();
            let live_b = per_op.evaluation();
            prop_assert_eq!(&live_a.nullary, &live_b.nullary);
            prop_assert_eq!(&live_a.unary, &live_b.unary);
            let fresh = compiled.evaluate(batched.base());
            prop_assert_eq!(&live_a.nullary, &fresh.nullary);
            prop_assert_eq!(&live_a.unary, &fresh.unary);
        }
    }
}
