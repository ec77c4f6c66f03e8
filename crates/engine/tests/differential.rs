//! Differential tests: the production evaluators against tiny, obviously
//! correct reference implementations on seeded random instances.
//!
//! * [`naive`]: a textbook naive datalog fixpoint (enumerate every variable
//!   assignment per rule per round) checked against the semi-naive
//!   [`sirup_engine::eval::evaluate`];
//! * [`brute`]: certain answers of a d-sirup by enumerating **all**
//!   `T`/`F`-labellings of the `A`-nodes, checked against the DPLL-style
//!   [`certain_answer_dsirup`] and, on every read-target shape (forced CSR
//!   view, parallel context) and on instances above the 64-edge
//!   freeze gate, [`certain_answer_dsirup_planned`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sirup_core::program::{pi_q, sigma_q, DSirup, Program};
use sirup_core::{FrozenStructure, Node, OneCq, ParCtx, Pred, Scheduler, Structure, Target};
use sirup_engine::disjunctive::{
    certain_answer_dsirup, certain_answer_dsirup_planned, certain_answer_dsirup_stats,
};
use sirup_engine::eval::evaluate;
use sirup_hom::QueryPlan;
use std::collections::BTreeSet;

/// A random instance over F/T/A labels and R/S edges, denser and messier
/// than `sirup_workloads::random::random_instance` (self-loops, parallel
/// edges, multi-labelled nodes are all allowed).
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

mod naive {
    use super::*;

    /// The reference closure: all derived facts, by naive enumeration.
    #[derive(Debug, PartialEq, Eq)]
    struct Closure {
        nullary: BTreeSet<Pred>,
        unary: BTreeSet<(Pred, Node)>,
    }

    /// Naive fixpoint: per round, try every rule under every assignment of
    /// its variables to data nodes. Exponential in rule arity — only for
    /// tiny instances.
    fn naive_closure(program: &Program, data: &Structure) -> Closure {
        let nodes: Vec<Node> = data.nodes().collect();
        let mut nullary: BTreeSet<Pred> = BTreeSet::new();
        let mut unary: BTreeSet<(Pred, Node)> = data
            .nodes()
            .flat_map(|v| data.labels(v).iter().map(move |&p| (p, v)))
            .collect();
        let has_edge = |p: Pred, u: Node, v: Node| data.has_edge(p, u, v);

        loop {
            let mut changed = false;
            for rule in &program.rules {
                let k = rule.var_count();
                // Enumerate assignments as base-|nodes| counters.
                let total = nodes.len().pow(k as u32);
                for idx in 0..total {
                    let mut rest = idx;
                    let assignment: Vec<Node> = (0..k)
                        .map(|_| {
                            let v = nodes[rest % nodes.len()];
                            rest /= nodes.len();
                            v
                        })
                        .collect();
                    let satisfied = rule.body.iter().all(|atom| match atom.args.as_slice() {
                        [] => nullary.contains(&atom.pred),
                        [t] => unary.contains(&(atom.pred, assignment[t.0 as usize])),
                        [t1, t2] => has_edge(
                            atom.pred,
                            assignment[t1.0 as usize],
                            assignment[t2.0 as usize],
                        ),
                        _ => unreachable!("atoms have arity ≤ 2"),
                    });
                    if !satisfied {
                        continue;
                    }
                    match rule.head.args.as_slice() {
                        [] => changed |= nullary.insert(rule.head.pred),
                        [t] => changed |= unary.insert((rule.head.pred, assignment[t.0 as usize])),
                        _ => unreachable!("monadic heads"),
                    }
                }
            }
            if !changed {
                return Closure { nullary, unary };
            }
        }
    }

    /// Project the semi-naive [`evaluate`] result to the same shape as the
    /// reference (IDB facts only, plus pre-existing IDB-labelled data facts,
    /// which `evaluate` folds into the full extension).
    fn seminaive_closure(program: &Program, data: &Structure) -> Closure {
        let ev = evaluate(program, data);
        let mut unary: BTreeSet<(Pred, Node)> = data
            .nodes()
            .flat_map(|v| data.labels(v).iter().map(move |&p| (p, v)))
            .collect();
        for p in program.idbs() {
            for &v in ev.answers(p) {
                unary.insert((p, v));
            }
        }
        Closure {
            nullary: ev.nullary.iter().copied().collect(),
            unary,
        }
    }

    fn check_program_on_seeds(q: &OneCq, seeds: std::ops::Range<u64>) {
        for seed in seeds {
            let d = random_structure(6, 10, seed);
            for program in [pi_q(q), sigma_q(q)] {
                assert_eq!(
                    naive_closure(&program, &d),
                    seminaive_closure(&program, &d),
                    "program {:?} diverged on seed {seed} over {d}",
                    program.goal,
                );
            }
        }
    }

    #[test]
    fn seminaive_matches_naive_q4() {
        check_program_on_seeds(&OneCq::parse("F(x), R(y,x), R(y,z), T(z)"), 0..25);
    }

    #[test]
    fn seminaive_matches_naive_path() {
        check_program_on_seeds(&OneCq::parse("F(x), R(x,y), T(y)"), 100..125);
    }

    #[test]
    fn seminaive_matches_naive_span_two() {
        check_program_on_seeds(
            &OneCq::parse("F(x), R(x,y1), T(y1), S(x,y2), T(y2)"),
            200..220,
        );
    }
}

mod brute {
    use super::*;

    /// Reference certain answer: enumerate all 2^|A| labellings explicitly.
    fn brute_force_dsirup(dsirup: &DSirup, data: &Structure) -> bool {
        if dsirup.disjoint {
            let inconsistent = data
                .nodes()
                .any(|v| data.has_label(v, Pred::T) && data.has_label(v, Pred::F));
            if inconsistent {
                return true;
            }
        }
        let a_nodes: Vec<Node> = data
            .nodes()
            .filter(|&v| data.has_label(v, Pred::A))
            .filter(|&v| !(data.has_label(v, Pred::T) && data.has_label(v, Pred::F)))
            .collect();
        assert!(a_nodes.len() <= 12, "brute force capped at 2^12 labellings");
        let plan = QueryPlan::compile(&dsirup.cq);
        for mask in 0u32..1 << a_nodes.len() {
            let mut labelled = data.clone();
            for (i, &v) in a_nodes.iter().enumerate() {
                let label = if mask & (1 << i) != 0 {
                    Pred::T
                } else {
                    Pred::F
                };
                labelled.add_label(v, label);
            }
            if !plan.on(&labelled).exists() {
                return false; // countermodel: this labelling avoids q
            }
        }
        true
    }

    #[test]
    fn dpll_matches_brute_force_on_random_instances() {
        let queries = [
            "F(x), R(y,x), R(y,z), T(z)",
            "F(x), R(x,y), T(y)",
            "T(x), R(x,y), F(y)",
            "F(x), R(x,y1), T(y1), S(x,y2), T(y2)",
        ];
        for (qi, q_text) in queries.iter().enumerate() {
            let q = OneCq::parse(q_text);
            for seed in 0..40u64 {
                let d = random_structure(8, 12, 1000 + 100 * qi as u64 + seed);
                let dsirup = DSirup::new(q.structure().clone());
                assert_eq!(
                    certain_answer_dsirup(&dsirup, &d),
                    brute_force_dsirup(&dsirup, &d),
                    "Δ_q diverged for {q_text} on seed {seed} over {d}",
                );
            }
        }
    }

    #[test]
    fn dpll_matches_brute_force_with_disjointness() {
        let q = OneCq::parse("F(x), R(y,x), R(y,z), T(z)");
        for seed in 0..40u64 {
            let d = random_structure(10, 16, 5000 + seed);
            let dsirup = DSirup::with_disjointness(q.structure().clone());
            assert_eq!(
                certain_answer_dsirup(&dsirup, &d),
                brute_force_dsirup(&dsirup, &d),
                "Δ⁺_q diverged on seed {seed} over {d}",
            );
        }
    }

    /// A random instance with exactly `a_count` `A`-nodes and sparse `T`/`F`
    /// labels (some on `A`-nodes), so that DPLL searches branch instead of
    /// settling at the root. With `edges >= 64` it clears the freeze gate.
    fn sparse_structure(n: usize, edges: usize, a_count: usize, seed: u64) -> Structure {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = Structure::with_nodes(n);
        for _ in 0..edges {
            let u = Node(rng.gen_range(0..n) as u32);
            let v = Node(rng.gen_range(0..n) as u32);
            let p = if rng.gen_bool(0.5) { Pred::R } else { Pred::S };
            s.add_edge(p, u, v);
        }
        let mut placed = 0;
        while placed < a_count {
            if s.add_label(Node(rng.gen_range(0..n) as u32), Pred::A) {
                placed += 1;
            }
        }
        for v in 0..n as u32 {
            if rng.gen_bool(0.08) {
                s.add_label(Node(v), Pred::T);
            }
            if rng.gen_bool(0.08) {
                s.add_label(Node(v), Pred::F);
            }
        }
        s
    }

    /// `certain_answer_dsirup_planned` on every read-target shape of `d` —
    /// live, forced CSR view, view + parallel context — must agree with
    /// brute force.
    fn check_every_target(dsirup: &DSirup, d: &Structure, sched: &Scheduler, what: &str) -> bool {
        let expect = brute_force_dsirup(dsirup, d);
        let plan = QueryPlan::compile(&dsirup.cq);
        let f = FrozenStructure::freeze(d);
        let par = Some(ParCtx::new(sched, 2));
        let targets = [
            ("live", Target::from(d)),
            ("view", Target::from(d).with_view(Some(&f))),
            (
                "view+par",
                Target::from(d).with_view(Some(&f)).with_par(par),
            ),
        ];
        for (shape, t) in targets {
            assert_eq!(
                certain_answer_dsirup_planned(dsirup, &plan, t),
                expect,
                "{what} diverged from brute force on the {shape} target over {d}",
            );
        }
        expect
    }

    /// Below the freeze gate a view is never attached unless forced: force
    /// one (with and without a parallel context).
    #[test]
    fn dpll_matches_brute_force_on_forced_views() {
        let sched = Scheduler::new(2);
        let queries = ["F(x), R(x,y), T(y)", "F(x), R(x,y1), T(y1), S(x,y2), T(y2)"];
        for (qi, q_text) in queries.iter().enumerate() {
            let q = OneCq::parse(q_text);
            for seed in 0..20u64 {
                let dense = random_structure(8, 12, 1000 + 100 * qi as u64 + seed);
                let sparse = sparse_structure(12, 50, 6, 3000 + 100 * qi as u64 + seed);
                for (d, dsirup) in [&dense, &sparse].into_iter().flat_map(|d| {
                    [
                        (d, DSirup::new(q.structure().clone())),
                        (d, DSirup::with_disjointness(q.structure().clone())),
                    ]
                }) {
                    check_every_target(&dsirup, d, &sched, &format!("{q_text} seed {seed}"));
                }
            }
        }
    }

    /// Instances above the 64-edge freeze gate with at most 12 `A`-nodes,
    /// sparse enough that the search branches: across the seeds, both Δ
    /// and Δ⁺ must see a 'yes' settled after branching and a 'no' (a
    /// countermodel found after branching).
    #[test]
    fn dpll_matches_brute_force_above_the_freeze_gate() {
        let sched = Scheduler::new(2);
        let queries = [
            "F(x), R(x,y), T(y)",
            "T(x), R(x,y), F(y)",
            "F(x), R(y,x), R(y,z), T(z)",
        ];
        for disjoint in [false, true] {
            let (mut branched_yes, mut branched_no) = (0, 0);
            for (qi, q_text) in queries.iter().enumerate() {
                let q = OneCq::parse(q_text).structure().clone();
                let dsirup = if disjoint {
                    DSirup::with_disjointness(q)
                } else {
                    DSirup::new(q)
                };
                for seed in 0..12u64 {
                    let d = sparse_structure(
                        24,
                        70,
                        8 + (seed % 5) as usize,
                        7000 + 100 * qi as u64 + seed,
                    );
                    assert!(d.edge_count() >= 64, "instance must clear the freeze gate");
                    let what = format!("{q_text} (disjoint: {disjoint}) seed {seed}");
                    let expect = check_every_target(&dsirup, &d, &sched, &what);
                    let (ans, stats) = certain_answer_dsirup_stats(&dsirup, &d);
                    assert_eq!(ans, expect, "{what} diverged from brute force over {d}");
                    if stats.branches > 1 {
                        if ans {
                            branched_yes += 1;
                        } else {
                            branched_no += 1;
                        }
                    }
                }
            }
            assert!(
                branched_yes > 0 && branched_no > 0,
                "disjoint: {disjoint}: want branching 'yes' and 'no' cases, got {branched_yes} / {branched_no}",
            );
        }
    }

    /// `A`-nodes that already carry one of `T`/`F` in the data keep it in
    /// every completion, so the upper bound must keep it too when the
    /// search assigns them the other label. Dense tiny instances put a data
    /// label on about half the `A`-nodes.
    #[test]
    fn dpll_matches_brute_force_when_a_nodes_carry_data_labels() {
        let q = sirup_core::parse::st("F(x), R(x,y), T(y)");
        for seed in 0..4000u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 6;
            let mut d = Structure::with_nodes(n);
            for _ in 0..rng.gen_range(3usize..9) {
                let u = Node(rng.gen_range(0..n) as u32);
                let v = Node(rng.gen_range(0..n) as u32);
                d.add_edge(Pred::R, u, v);
            }
            for v in 0..n as u32 {
                if rng.gen_bool(0.25) {
                    d.add_label(Node(v), Pred::T);
                }
                if rng.gen_bool(0.25) {
                    d.add_label(Node(v), Pred::F);
                }
                if rng.gen_bool(0.6) {
                    d.add_label(Node(v), Pred::A);
                }
            }
            let dsirup = DSirup::new(q.clone());
            assert_eq!(
                certain_answer_dsirup(&dsirup, &d),
                brute_force_dsirup(&dsirup, &d),
                "Δ_q diverged on seed {seed} over {d}",
            );
        }
    }

    /// Labelled-both nodes in the data make Δ⁺ inconsistent; the evaluator
    /// and the reference must both answer 'yes' regardless of the query.
    #[test]
    fn inconsistent_data_entails_everything_under_disjointness() {
        let q = OneCq::parse("F(x), S(x,y), S(y,x), T(y)");
        let mut d = Structure::with_nodes(3);
        d.add_label(Node(0), Pred::T);
        d.add_label(Node(0), Pred::F);
        d.add_edge(Pred::R, Node(1), Node(2));
        let dsirup = DSirup::with_disjointness(q.structure().clone());
        assert!(certain_answer_dsirup(&dsirup, &d));
        assert!(brute_force_dsirup(&dsirup, &d));
    }
}
