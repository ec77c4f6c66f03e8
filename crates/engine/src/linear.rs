//! Linear and symmetric-linear monadic datalog.
//!
//! §4 (items (c) and (d) of the \[22\] classification recalled on p. 12):
//! a d-sirup `(Δ_q, G)` whose CQ has **one solitary `F` and one solitary
//! `T`** is *linear-datalog-rewritable* (so in NL), and if `q` is moreover
//! *quasi-symmetric*, *symmetric-linear-datalog-rewritable* (so in L).
//! This module makes those rewritability classes executable:
//!
//! * [`linearity`] classifies a program (every recursive rule has ≤ 1 IDB
//!   body atom);
//! * [`LinearEvaluator`] evaluates a linear monadic program by reachability
//!   over the *fact graph* — nodes are `(IDB, constant)` facts, edges are
//!   single-rule applications — the NL-style algorithm, cross-checked
//!   against the general semi-naive engine;
//! * [`symmetric_closure_eval`] evaluates the *symmetric* closure (each
//!   linear rule usable in both directions), the L-style
//!   undirected-reachability algorithm that is sound and complete exactly
//!   for symmetric-linear programs.

use crate::eval::{certain_answers_unary, label_rows};
use sirup_core::fx::FxHashMap;
use sirup_core::program::{Program, Rule};
use sirup_core::{Node, NodeSet, Pred, Structure, Target, Term};
use sirup_hom::QueryPlan;

/// Linearity classification of a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Linearity {
    /// No recursive rule at all (bounded by construction).
    NonRecursive,
    /// Every recursive rule has exactly one IDB body atom.
    Linear,
    /// Some rule has ≥ 2 IDB body atoms.
    NonLinear,
}

/// Classify `program`'s linearity.
pub fn linearity(program: &Program) -> Linearity {
    let idbs = program.idbs();
    let mut any_recursive = false;
    for r in &program.rules {
        let idb_atoms = r
            .body
            .iter()
            .filter(|a| idbs.binary_search(&a.pred).is_ok())
            .count();
        match idb_atoms {
            0 => {}
            1 => any_recursive = true,
            _ => return Linearity::NonLinear,
        }
    }
    if any_recursive {
        Linearity::Linear
    } else {
        Linearity::NonRecursive
    }
}

/// A rule split into its single IDB body atom and the EDB remainder,
/// compiled to a pattern structure for hom search.
struct CompiledLinearRule {
    head_pred: Pred,
    /// Head variable's pattern node (`None` for nullary heads).
    head_node: Option<Node>,
    /// The IDB body atom's predicate and pattern node, if recursive.
    idb: Option<(Pred, Node)>,
    /// EDB-only pattern (IDB atom removed), compiled once per rule — the
    /// fact-graph construction replays it per (head, body) node pair.
    plan: QueryPlan,
    /// For nullary heads: the *full* body pattern (IDB atoms kept as
    /// labels), compiled once — it runs against the data with the closure's
    /// facts laid over it.
    full_plan: Option<QueryPlan>,
}

fn compile_rule(rule: &Rule, idbs: &[Pred]) -> CompiledLinearRule {
    let nvars = rule.var_count();
    let mut pattern = Structure::with_nodes(nvars);
    let mut full = Structure::with_nodes(nvars);
    let mut idb = None;
    for atom in &rule.body {
        let is_idb = idbs.binary_search(&atom.pred).is_ok();
        match atom.args.as_slice() {
            [] => {}
            [t] => {
                full.add_label(Node(t.0), atom.pred);
                if is_idb {
                    assert!(idb.is_none(), "rule is not linear");
                    idb = Some((atom.pred, Node(t.0)));
                } else {
                    pattern.add_label(Node(t.0), atom.pred);
                }
            }
            [t1, t2] => {
                assert!(!is_idb, "binary IDBs are not monadic");
                pattern.add_edge(atom.pred, Node(t1.0), Node(t2.0));
                full.add_edge(atom.pred, Node(t1.0), Node(t2.0));
            }
            _ => unreachable!("atoms have arity ≤ 2"),
        }
    }
    let head_node = rule.head.args.first().map(|t: &Term| Node(t.0));
    CompiledLinearRule {
        head_pred: rule.head.pred,
        head_node,
        idb,
        plan: QueryPlan::compile(&pattern),
        full_plan: head_node.is_none().then(|| QueryPlan::compile(&full)),
    }
}

/// One edge of the fact graph: applying `rule` with the IDB body fact at
/// `from` derives the head fact at `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FactEdge {
    /// Index of the rule in the program.
    pub rule: usize,
    /// The body fact `(pred, node)`.
    pub from: (Pred, Node),
    /// The derived head fact.
    pub to: (Pred, Node),
}

/// The NL-style evaluator for linear monadic programs.
///
/// Construction materialises, per recursive rule, every `(body fact, head
/// fact)` pair whose EDB pattern embeds into the data with both pinned —
/// the *fact graph*. Evaluation is then plain (directed) reachability from
/// the base facts. For a linear program this is exactly the certain-answer
/// semantics; [`Self::goal_nodes`] is cross-checked against the semi-naive
/// engine in the tests.
pub struct LinearEvaluator {
    /// Base facts derived by non-recursive rules.
    pub base: Vec<(Pred, Node)>,
    /// Fact-graph edges.
    pub edges: Vec<FactEdge>,
    /// Facts reachable from the base (the closure).
    pub derived: Vec<(Pred, Node)>,
    /// Whether a nullary goal was derived, per nullary-headed rule firing.
    pub nullary: Vec<Pred>,
}

impl LinearEvaluator {
    /// Build the fact graph of `program` over `data` and compute the
    /// closure. Panics if the program is not linear (or non-recursive) or
    /// not monadic.
    pub fn new(program: &Program, data: &Structure) -> LinearEvaluator {
        assert_ne!(
            linearity(program),
            Linearity::NonLinear,
            "LinearEvaluator requires a linear program"
        );
        let idbs = program.idbs();
        let compiled: Vec<CompiledLinearRule> = program
            .rules
            .iter()
            .map(|r| compile_rule(r, &idbs))
            .collect();

        // Base facts and fact-graph edges.
        let mut base: Vec<(Pred, Node)> = Vec::new();
        let mut edges: Vec<FactEdge> = Vec::new();
        for (ri, c) in compiled.iter().enumerate() {
            match (&c.idb, c.head_node) {
                (None, Some(h)) => {
                    // Non-recursive unary rule: heads are all nodes where
                    // the pattern embeds with the head pinned.
                    for a in data.nodes() {
                        if c.plan.on(data).fix(h, a).exists() {
                            base.push((c.head_pred, a));
                        }
                    }
                }
                (Some((bp, bn)), Some(h)) => {
                    // Recursive rule: an edge (bp, b) → (head, a) for every
                    // embedding of the EDB pattern with both pinned.
                    for a in data.nodes() {
                        for b in data.nodes() {
                            if c.plan.on(data).fix(h, a).fix(*bn, b).exists() {
                                edges.push(FactEdge {
                                    rule: ri,
                                    from: (*bp, b),
                                    to: (c.head_pred, a),
                                });
                            }
                        }
                    }
                }
                // Nullary heads are resolved after the closure.
                _ => {}
            }
        }

        // Directed reachability from the base facts.
        let derived = closure(&base, &edges, false);

        // Nullary rules fire against data + derived facts: each IDB
        // predicate's row (its data labels plus its derived facts) laid
        // over the data.
        let mut rows: FxHashMap<Pred, NodeSet> = idbs
            .iter()
            .map(|&p| (p, NodeSet::empty(data.node_count())))
            .collect();
        for (p, a) in data.unary_atoms().chain(derived.iter().copied()) {
            if let Some(row) = rows.get_mut(&p) {
                row.insert(a);
            }
        }
        let rows = label_rows(&rows);
        let on = Target::from(data).with_label_rows(&rows);
        let mut nullary = Vec::new();
        for c in &compiled {
            if let Some(fp) = &c.full_plan {
                if fp.on(on).exists() && !nullary.contains(&c.head_pred) {
                    nullary.push(c.head_pred);
                }
            }
        }

        LinearEvaluator {
            base,
            edges,
            derived,
            nullary,
        }
    }

    /// Certain answers to `(program, goal)` for a unary goal.
    pub fn goal_nodes(&self, goal: Pred) -> Vec<Node> {
        let mut out: Vec<Node> = self
            .derived
            .iter()
            .filter(|(p, _)| *p == goal)
            .map(|&(_, a)| a)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Was the nullary `goal` derived?
    pub fn holds(&self, goal: Pred) -> bool {
        self.nullary.contains(&goal)
    }
}

/// Reachability closure over the fact graph. With `symmetric`, edges are
/// traversed in both directions (the L-style undirected algorithm — sound
/// and complete only for symmetric-linear programs).
fn closure(base: &[(Pred, Node)], edges: &[FactEdge], symmetric: bool) -> Vec<(Pred, Node)> {
    let mut seen: FxHashMap<(Pred, Node), ()> = FxHashMap::default();
    let mut queue: Vec<(Pred, Node)> = Vec::new();
    for &f in base {
        if seen.insert(f, ()).is_none() {
            queue.push(f);
        }
    }
    while let Some(f) = queue.pop() {
        for e in edges {
            if e.from == f && seen.insert(e.to, ()).is_none() {
                queue.push(e.to);
            }
            if symmetric && e.to == f && seen.insert(e.from, ()).is_none() {
                queue.push(e.from);
            }
        }
    }
    let mut out: Vec<(Pred, Node)> = seen.into_keys().collect();
    out.sort_unstable();
    out
}

/// Evaluate the symmetric closure of a linear program over `data`: facts
/// reachable from the base through edges used in either direction.
///
/// For programs that are *symmetric-linear* (each recursive rule's reverse
/// is derivable — e.g. the sirups of quasi-symmetric CQs under the
/// reduction of Appendix G), this equals the certain answers; in general it
/// over-approximates them. The tests exhibit both sides.
pub fn symmetric_closure_eval(program: &Program, data: &Structure, goal: Pred) -> Vec<Node> {
    let ev = LinearEvaluator::new(program, data);
    let all = closure(&ev.base, &ev.edges, true);
    let mut out: Vec<Node> = all
        .into_iter()
        .filter(|(p, _)| *p == goal)
        .map(|(_, a)| a)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Does the fact graph of `program` over `data` happen to be symmetric
/// (every edge has its reverse)? A *data-level* witness of symmetry: for
/// quasi-symmetric CQs this holds over the Appendix G reduction instances.
pub fn fact_graph_is_symmetric(program: &Program, data: &Structure) -> bool {
    let ev = LinearEvaluator::new(program, data);
    ev.edges
        .iter()
        .all(|e| ev.edges.iter().any(|r| r.from == e.to && r.to == e.from))
}

/// Convenience: evaluate a linear program and cross-check against the
/// semi-naive engine, returning the agreed answers. Panics on disagreement
/// (used as a test harness and in examples).
pub fn linear_answers_checked(program: &Program, data: &Structure) -> Vec<Node> {
    let ev = LinearEvaluator::new(program, data);
    let fast = ev.goal_nodes(program.goal);
    let slow = certain_answers_unary(program, data);
    assert_eq!(
        fast, slow,
        "linear evaluator disagrees with semi-naive engine"
    );
    fast
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirup_core::parse::{parse_structure, st};
    use sirup_core::program::{pi_q, sigma_q};
    use sirup_core::OneCq;

    fn q4() -> OneCq {
        OneCq::parse("F(x), R(y,x), R(y,z), T(z)")
    }

    #[test]
    fn sigma_of_span1_is_linear() {
        assert_eq!(linearity(&sigma_q(&q4())), Linearity::Linear);
        // Span-2 CQ: rule (7) has two P-atoms — non-linear.
        let q2 = OneCq::parse("F(x), R(x,y1), T(y1), S(x,y2), T(y2)");
        assert_eq!(linearity(&sigma_q(&q2)), Linearity::NonLinear);
        // Span-0: non-recursive.
        let q0 = OneCq::parse("F(x), R(x,y)");
        assert_eq!(linearity(&sigma_q(&q0)), Linearity::NonRecursive);
    }

    #[test]
    fn linear_evaluator_matches_semi_naive_on_chain() {
        let mut text = String::from("T(c0)");
        for i in 0..5 {
            text.push_str(&format!(
                ", A(c{next}), R(m{i},c{next}), R(m{i},c{i})",
                next = i + 1
            ));
        }
        let (d, n) = parse_structure(&text).unwrap();
        let sig = sigma_q(&q4());
        let answers = linear_answers_checked(&sig, &d);
        assert!(answers.contains(&n["c5"]));
        assert!(answers.contains(&n["c0"]));
        assert!(!answers.contains(&n["m0"]));
    }

    #[test]
    fn linear_evaluator_matches_semi_naive_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let sig = sigma_q(&q4());
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 8;
            let mut d = Structure::with_nodes(n);
            for v in 0..n as u32 {
                if rng.gen_bool(0.4) {
                    d.add_label(Node(v), Pred::T);
                }
                if rng.gen_bool(0.5) {
                    d.add_label(Node(v), Pred::A);
                }
            }
            for _ in 0..14 {
                let u = Node(rng.gen_range(0..n as u32));
                let v = Node(rng.gen_range(0..n as u32));
                d.add_edge(Pred::R, u, v);
            }
            let _ = linear_answers_checked(&sig, &d); // panics on mismatch
        }
    }

    #[test]
    fn fact_graph_edges_are_rule_applications() {
        let (d, n) = parse_structure("A(a), R(m,a), R(m,t), T(t)").unwrap();
        let ev = LinearEvaluator::new(&sigma_q(&q4()), &d);
        // Base: P(t) via rule (6).
        assert!(ev.base.contains(&(Pred::P, n["t"])));
        // Edge P(t) → P(a) via rule (7) with the m-pattern.
        assert!(ev
            .edges
            .iter()
            .any(|e| e.from == (Pred::P, n["t"]) && e.to == (Pred::P, n["a"])));
        assert!(ev.derived.contains(&(Pred::P, n["a"])));
    }

    #[test]
    fn nullary_goal_through_linear_pi() {
        // Π_q for span-1 q is linear (rules 5 and 7 have one P-atom each).
        let pi = pi_q(&q4());
        assert_eq!(linearity(&pi), Linearity::Linear);
        let d = st("F(f), R(m1,f), R(m1,a), A(a), R(m2,a), R(m2,t), T(t)");
        let ev = LinearEvaluator::new(&pi, &d);
        assert!(ev.holds(Pred::GOAL));
        let d2 = st("F(f), R(m1,f), R(m1,a), A(a), R(m2,a), R(m2,t)");
        let ev2 = LinearEvaluator::new(&pi, &d2);
        assert!(!ev2.holds(Pred::GOAL));
    }

    #[test]
    fn symmetric_closure_agrees_on_quasi_symmetric_instances() {
        // q4 is quasi-symmetric: edges between A-facts come in reverse
        // pairs (the head-side A-label is the only asymmetry, and it holds
        // at both endpoints of any A–A contact), and edges out of T-base
        // facts only ever *add* facts that are already base when walked
        // backwards. So the symmetric closure equals the directed one.
        let (d, _) = parse_structure(
            "A(a), R(m1,a), R(m1,b), A(b), R(m2,b), R(m2,c), T(c), R(m0,z), R(m0,a), T(z)",
        )
        .unwrap();
        let sig = sigma_q(&q4());
        let directed = LinearEvaluator::new(&sig, &d).goal_nodes(Pred::P);
        let symmetric = symmetric_closure_eval(&sig, &d, Pred::P);
        assert_eq!(directed, symmetric);
        // On an all-A instance, the fact graph is literally symmetric.
        let (d2, _) = parse_structure("A(a), A(b), R(m,a), R(m,b)").unwrap();
        assert!(fact_graph_is_symmetric(&sig, &d2));
    }

    #[test]
    fn symmetric_closure_over_approximates_asymmetric_programs() {
        // An asymmetric chain CQ: F(x), R(x,y), T(y). Its sirup propagates
        // P against R-edges from A-nodes; the edge P(c) → P(a) (via
        // A(a), R(a,c)) has no reverse because c is not labelled A. With a
        // T-seed at a, backward traversal derives P(c), which the directed
        // semantics does not.
        let q = OneCq::parse("F(x), R(x,y), T(y)");
        let sig = sigma_q(&q);
        let (d, n) = parse_structure("A(a), T(a), R(a,c), A(c)").unwrap();
        assert!(!fact_graph_is_symmetric(&sig, &d));
        let directed = LinearEvaluator::new(&sig, &d).goal_nodes(Pred::P);
        let symmetric = symmetric_closure_eval(&sig, &d, Pred::P);
        assert!(directed.contains(&n["a"]));
        assert!(!directed.contains(&n["c"]));
        assert!(symmetric.contains(&n["c"]), "over-approximation expected");
    }

    #[test]
    #[should_panic(expected = "requires a linear program")]
    fn non_linear_program_rejected() {
        let q2 = OneCq::parse("F(x), R(x,y1), T(y1), S(x,y2), T(y2)");
        let _ = LinearEvaluator::new(&sigma_q(&q2), &Structure::new());
    }

    #[test]
    fn empty_data_empty_everything() {
        let ev = LinearEvaluator::new(&sigma_q(&q4()), &Structure::new());
        assert!(ev.base.is_empty());
        assert!(ev.edges.is_empty());
        assert!(ev.derived.is_empty());
    }
}
