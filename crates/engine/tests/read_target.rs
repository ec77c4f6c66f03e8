//! Read-target differential: every evaluator answers identically through
//! every shape of [`Target`] — plain, index, view, index + view, each with
//! and without a `ParCtx` (threshold 2) — on fixtures that sit on both
//! sides of the 64-edge freeze gate.
//!
//! The chain fixtures run `Π_q`/`Σ_q` of q4, whose recursive rule (7)
//! needs the derived label `P` on a *non-head* body variable. A fixpoint
//! or DPLL search that read its label-mutating working copy through the
//! base data's index postings or view label rows would never see `P` and
//! stop after one link, so the chains are also checked against their
//! known closure, not only against the plain target (which itself freezes
//! a view at 64 edges).

use sirup_core::csr::FREEZE_EDGE_THRESHOLD;
use sirup_core::parse::{parse_structure, st};
use sirup_core::program::{pi_q, sigma_q, DSirup, Program};
use sirup_core::{
    FrozenStructure, Node, OneCq, ParCtx, Pred, PredIndex, Scheduler, Structure, Target,
};
use sirup_engine::disjunctive::certain_answer_dsirup_planned;
use sirup_engine::{CompiledProgram, CompiledUcq, Evaluation, MaterializedFixpoint, Ucq};
use sirup_hom::QueryPlan;

fn q4() -> OneCq {
    OneCq::parse("F(x), R(y,x), R(y,z), T(z)")
}

/// A q4 derivation chain with exactly `edges` edges: `T(c_0)`, and for
/// each link `A(c_{i+1}), R(m_i, c_{i+1}), R(m_i, c_i)`, closed by
/// `F(f), R(m, f), R(m, c_k)`, padded with `S` edges. `Σ_q` derives `P`
/// at every `c_i` — `P(c_{i+1})` needs `P(c_i)` on a non-head variable —
/// and `Π_q`'s goal needs `P(c_k)`. Returns the instance and `c_0..=c_k`.
fn chain(edges: usize) -> (Structure, Vec<Node>) {
    let links = (edges - 2) / 2;
    let mut s = Structure::new();
    let mut cs = vec![s.add_node()];
    s.add_label(cs[0], Pred::T);
    for i in 0..links {
        let m = s.add_node();
        let next = s.add_node();
        s.add_label(next, Pred::A);
        s.add_edge(Pred::R, m, next);
        s.add_edge(Pred::R, m, cs[i]);
        cs.push(next);
    }
    let (m, f) = (s.add_node(), s.add_node());
    s.add_label(f, Pred::F);
    s.add_edge(Pred::R, m, f);
    s.add_edge(Pred::R, m, *cs.last().unwrap());
    while s.edge_count() < edges {
        let (a, b) = (s.add_node(), s.add_node());
        s.add_edge(Pred::S, a, b);
    }
    assert_eq!(s.edge_count(), edges);
    (s, cs)
}

/// The eight target shapes over `data`, with a label for failures.
fn shapes<'a>(
    data: &'a Structure,
    index: &'a PredIndex,
    view: &'a FrozenStructure,
    ctx: ParCtx<'a>,
) -> Vec<(String, Target<'a>)> {
    let mut out = Vec::new();
    for par in [None, Some(ctx)] {
        let plain = Target::from(data).with_par(par);
        for (name, t) in [
            ("plain", plain),
            ("index", plain.with_index(index)),
            ("view", plain.with_view(Some(view))),
            ("index+view", plain.with_index(index).with_view(Some(view))),
        ] {
            out.push((
                format!("{name}{}", if par.is_some() { "+par" } else { "" }),
                t,
            ));
        }
    }
    out
}

fn assert_same_eval(want: &Evaluation, got: &Evaluation, what: &str) {
    assert_eq!(want.nullary, got.nullary, "{what}: nullary facts");
    assert_eq!(want.unary, got.unary, "{what}: unary facts");
}

/// Programs, UCQs and d-sirups run on every fixture.
struct Suite {
    programs: Vec<(&'static str, Program)>,
    ucqs: Vec<(&'static str, Ucq)>,
    dsirups: Vec<DSirup>,
}

fn suite() -> Suite {
    let q = q4();
    let (pat, pn) = parse_structure("R(x,y), T(y)").unwrap();
    let (q4s, q4n) = parse_structure("F(x), R(y,x), R(y,z), T(z)").unwrap();
    Suite {
        programs: vec![("pi_q4", pi_q(&q)), ("sigma_q4", sigma_q(&q))],
        ucqs: vec![
            (
                "mixed",
                Ucq {
                    disjuncts: vec![(pat, Some(pn["x"])), (st("F(a), S(a,b)"), None)],
                },
            ),
            ("q4_at_z", Ucq::unary([(q4s, q4n["z"])])),
        ],
        dsirups: [false, true]
            .into_iter()
            .map(|disjoint| DSirup {
                cq: q.structure().clone(),
                disjoint,
            })
            .collect(),
    }
}

/// Run every evaluator through every target shape over `data` and compare
/// with the plain sequential target.
fn check_all_shapes(data: &Structure, fixture: &str, sched: &Scheduler) {
    let s = suite();
    let index = PredIndex::new(data);
    let view = FrozenStructure::freeze(data);
    let ctx = ParCtx::new(sched, 2);
    let targets = shapes(data, &index, &view, ctx);

    for (pname, program) in &s.programs {
        let compiled = CompiledProgram::new(program);
        let want = compiled.evaluate(data);
        for (shape, t) in &targets {
            let what = format!("{fixture}/{pname}/{shape}");
            assert_same_eval(&want, &compiled.evaluate(*t), &format!("evaluate {what}"));
            let mat = MaterializedFixpoint::from_compiled(compiled.clone(), *t);
            assert_same_eval(&want, &mat.evaluation(), &format!("from_compiled {what}"));
        }
    }

    for (uname, ucq) in &s.ucqs {
        let compiled: CompiledUcq = ucq.compile();
        let want_bool = compiled.eval_boolean(data);
        let want_answers = compiled.answers(data);
        let want_at: Vec<bool> = data.nodes().map(|a| compiled.eval_at(data, a)).collect();
        assert_eq!(
            want_bool,
            ucq.eval_boolean(data),
            "{fixture}/{uname}: lazy Ucq"
        );
        assert_eq!(
            want_answers,
            ucq.answers(data),
            "{fixture}/{uname}: lazy Ucq"
        );
        for (shape, t) in &targets {
            let what = format!("{fixture}/{uname}/{shape}");
            assert_eq!(want_bool, compiled.eval_boolean(*t), "eval_boolean {what}");
            assert_eq!(want_bool, ucq.eval_boolean(*t), "Ucq::eval_boolean {what}");
            assert_eq!(want_answers, compiled.answers(*t), "answers {what}");
            assert_eq!(want_answers, ucq.answers(*t), "Ucq::answers {what}");
            for (a, &want) in data.nodes().zip(&want_at) {
                assert_eq!(want, compiled.eval_at(*t, a), "eval_at n{} {what}", a.0);
                assert_eq!(want, ucq.eval_at(*t, a), "Ucq::eval_at n{} {what}", a.0);
            }
        }
    }

    for d in &s.dsirups {
        let plan = QueryPlan::compile(&d.cq);
        let want = certain_answer_dsirup_planned(d, &plan, data);
        for (shape, t) in &targets {
            assert_eq!(
                want,
                certain_answer_dsirup_planned(d, &plan, *t),
                "dpll {fixture}/disjoint={}/{shape}",
                d.disjoint
            );
        }
    }
}

#[test]
fn every_target_shape_agrees_on_both_sides_of_the_freeze_gate() {
    let sched = Scheduler::new(2);
    let q = q4();
    for edges in [FREEZE_EDGE_THRESHOLD - 1, FREEZE_EDGE_THRESHOLD] {
        let (data, cs) = chain(edges);
        let fixture = format!("chain{edges}");
        check_all_shapes(&data, &fixture, &sched);
        // The known closure: P at every chain node and nowhere else, so
        // the goal holds and every labelling of the A-nodes embeds q4.
        let pi = sirup_engine::evaluate(&pi_q(&q), &data);
        assert!(pi.holds(Pred::GOAL), "{fixture}: goal");
        let sigma = sirup_engine::evaluate(&sigma_q(&q), &data);
        assert_eq!(
            sigma.answers(Pred::P),
            cs.as_slice(),
            "{fixture}: P extension"
        );
        let d = DSirup::new(q.structure().clone());
        let plan = QueryPlan::compile(&d.cq);
        assert!(
            certain_answer_dsirup_planned(&d, &plan, &data),
            "{fixture}: dpll"
        );
    }
}

#[test]
fn every_target_shape_agrees_on_small_fixtures() {
    let sched = Scheduler::new(2);
    for (i, data) in [
        // Π_q/Σ_q recursion through A-nodes.
        st("F(f), R(m1,f), R(m1,a), A(a), R(m2,a), R(m2,t), T(t)"),
        st("A(a), R(m,a), R(m,z), T(z), A(b), R(k,b), R(k,a)"),
        st("F(x), R(x,y)"),
        // UCQ answers, Boolean disjuncts, self-loops.
        st("R(a,b), T(b), R(b,c)"),
        st("F(a), S(a,b), R(b,c)"),
        st("A(a), R(a,a)"),
    ]
    .iter()
    .enumerate()
    {
        check_all_shapes(data, &format!("small{i}"), &sched);
    }
}
