//! Bottom-up evaluation of monadic datalog programs.
//!
//! The closure `Π(D)` of a data instance under a monadic program is computed
//! by materialising derived unary IDB facts as extra labels on a working copy
//! of the instance and iterating rule application to a fixpoint. Rule bodies
//! are conjunctive patterns; applying a rule with head `P(x)` amounts to one
//! pinned homomorphism check per candidate constant, and nullary heads to a
//! single homomorphism check. Only candidates not yet derived are re-checked
//! per round (the semi-naive idea specialised to the monadic case, where a
//! fact is a (predicate, node) pair and rounds are bounded by `#facts`).
//!
//! Rule bodies are compiled **once** into [`sirup_hom::QueryPlan`]s (a
//! [`CompiledProgram`]); the fixpoint then replays those plans against the
//! working instance, so no per-round or per-candidate search planning
//! happens. Long-lived callers (the query service) build a
//! [`CompiledProgram`] up front and reuse it across requests.

use sirup_core::fx::FxHashMap;
use sirup_core::program::{Program, Rule};
use sirup_core::{arena, telemetry};
use sirup_core::{FrozenStructure, Node, NodeSet, Pred, Structure, Target, Term};
use sirup_hom::QueryPlan;

/// Result of evaluating a program over a data instance.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Derived nullary facts (e.g. the goal `G`), sorted.
    pub nullary: Vec<Pred>,
    /// Derived unary facts per IDB predicate, sorted node lists.
    pub unary: FxHashMap<Pred, Vec<Node>>,
    /// Number of fixpoint rounds executed.
    pub rounds: usize,
}

impl Evaluation {
    /// Is the nullary predicate `g` derived?
    pub fn holds(&self, g: Pred) -> bool {
        self.nullary.binary_search(&g).is_ok()
    }

    /// Is `p(a)` derived?
    pub fn holds_at(&self, p: Pred, a: Node) -> bool {
        self.unary
            .get(&p)
            .is_some_and(|v| v.binary_search(&a).is_ok())
    }

    /// The certain answers to the unary query `(Π, p)`.
    pub fn answers(&self, p: Pred) -> &[Node] {
        self.unary.get(&p).map_or(&[], Vec::as_slice)
    }
}

/// Convert a rule body into a pattern structure. Returns the pattern and,
/// for each rule variable, its pattern node.
fn body_pattern(rule: &Rule) -> (Structure, Vec<Node>) {
    let nvars = rule.var_count();
    let mut s = Structure::with_nodes(nvars);
    for atom in &rule.body {
        match atom.args.as_slice() {
            [] => {} // nullary body atoms are handled separately (not used by Π_q/Σ_q)
            [t] => {
                s.add_label(Node(t.0), atom.pred);
            }
            [t1, t2] => {
                s.add_edge(atom.pred, Node(t1.0), Node(t2.0));
            }
            _ => unreachable!("atoms have arity ≤ 2"),
        }
    }
    (s, (0..nvars as u32).map(Node).collect())
}

/// One rule, compiled: its body's reusable hom-search plan plus the
/// instance-independent facts the fixpoint needs per round. Shared with the
/// incremental maintenance layer ([`crate::incremental`]), which replays the
/// same plans under delta pins.
#[derive(Debug, Clone)]
pub(crate) struct CompiledRule {
    /// The body pattern's compiled search plan.
    pub(crate) plan: QueryPlan,
    pub(crate) head_pred: Pred,
    /// Head variable's pattern node (`None` for nullary heads).
    pub(crate) head_node: Option<Node>,
    /// Sorted, deduplicated EDB labels the body places on the head
    /// variable — exact candidate pre-filters (EDB labels never change
    /// during evaluation).
    head_edb_labels: Vec<Pred>,
}

/// A monadic program with every rule body compiled once into a
/// [`QueryPlan`]. Build once per program, evaluate against any number of
/// data instances; the server's plan cache stores these across requests.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    rules: Vec<CompiledRule>,
    idbs: Vec<Pred>,
}

impl CompiledProgram {
    /// Compile `program`. IDB predicates must be nullary or unary (monadic
    /// programs); EDBs at most binary. Panics otherwise.
    pub fn new(program: &Program) -> CompiledProgram {
        let idbs = program.idbs();
        let rules = program
            .rules
            .iter()
            .map(|r| {
                assert!(
                    r.head.args.len() <= 1,
                    "monadic evaluation requires ≤ unary heads, got {:?}",
                    r.head
                );
                let (pattern, _) = body_pattern(r);
                let head_term: Option<Term> = r.head.args.first().copied();
                let mut head_edb_labels: Vec<Pred> = r
                    .body
                    .iter()
                    .filter(|a| a.args.len() == 1 && Some(a.args[0]) == head_term)
                    .map(|a| a.pred)
                    .filter(|p| idbs.binary_search(p).is_err())
                    .collect();
                head_edb_labels.sort_unstable();
                head_edb_labels.dedup();
                CompiledRule {
                    plan: QueryPlan::compile(&pattern),
                    head_pred: r.head.pred,
                    head_node: head_term.map(|t| Node(t.0)),
                    head_edb_labels,
                }
            })
            .collect();
        CompiledProgram { rules, idbs }
    }

    /// The compiled plan of rule `i`'s body (for plan inspection/debugging).
    pub fn rule_plan(&self, i: usize) -> &QueryPlan {
        &self.rules[i].plan
    }

    /// The compiled rules (for the incremental maintenance layer).
    pub(crate) fn compiled_rules(&self) -> &[CompiledRule] {
        &self.rules
    }

    /// The program's IDB predicates, sorted.
    pub(crate) fn idb_preds(&self) -> &[Pred] {
        &self.idbs
    }

    /// Evaluate over the target's data, returning all derived IDB facts.
    ///
    /// The fixpoint adds derived labels to a working copy of the data and
    /// replays the rule plans against it through
    /// [`Target::relabelled`]: the CSR view (attached, or built here when
    /// none is and the data clears the freeze gate) serves adjacency for
    /// the whole evaluation, since edges never change. The index and the
    /// view's label rows seed each unary-headed rule's candidates: only
    /// nodes carrying every *EDB* label its body places on the head
    /// variable. EDB labels are invariant during evaluation, so the seeding
    /// is exact and the result identical to a plain evaluation's.
    ///
    /// With a parallel context, each semi-naive round partitions a rule's
    /// candidate set across the scheduler's workers (above the context's
    /// threshold), checks the candidates against the round-start working
    /// instance, and merges the per-worker derivation buffers in chunk
    /// order. Parallel rounds give up in-round propagation within a rule,
    /// so [`Evaluation::rounds`] may differ from the sequential count — the
    /// fixpoint itself is unique and identical (the parallel differential
    /// suite pins this).
    pub fn evaluate<'a>(&self, target: impl Into<Target<'a>>) -> Evaluation {
        let t = target.into();
        let own = match t.view() {
            Some(_) => None,
            None => FrozenStructure::freeze_if_large(t.data()),
        };
        let t = t.with_view(own.as_ref());
        let _span = telemetry::traced(telemetry::Family::SemiNaiveFixpoint, "seminaive_fixpoint");
        let data = t.data();
        let n = data.node_count();
        // Working structure: data plus derived labels.
        let mut work = data.clone();
        // Per-candidate checks run sequentially: the parallel context
        // splits the candidate sweep and the nullary existence checks.
        let seq = t.with_par(None);
        let mut nullary: Vec<Pred> = Vec::new();
        // Per-rule candidate seeds: nodes carrying every EDB label the body
        // places on the head variable (`None` = all nodes), as a bitmap
        // with its cardinality. Read off the index postings or, failing
        // that, the view's label rows (both snapshots of the base data, and
        // EDB labels never change during evaluation — the seeding is exact).
        let seeds: Vec<Option<(NodeSet, usize)>> = self
            .rules
            .iter()
            .map(|c| {
                c.head_node?;
                let (&first, rest) = c.head_edb_labels.split_first()?;
                let mut set = NodeSet::empty(n);
                match (t.index(), t.label_view()) {
                    (Some(idx), _) => {
                        for a in idx.nodes_with_label(first).iter() {
                            if rest.iter().all(|&l| idx.has_label(a, l)) {
                                set.insert(a);
                            }
                        }
                    }
                    (None, Some(f)) => {
                        set.copy_from(f.label_row(first));
                        for &l in rest {
                            set.intersect_with(f.label_row(l));
                        }
                    }
                    (None, None) => return None,
                }
                let len = set.len();
                Some((set, len))
            })
            .collect();
        // Maintained closure extension per IDB predicate, seeded from the
        // base data in one pass and updated on every derivation — replaces
        // the per-round / final O(n · |IDB|) label rescans.
        let mut derived: FxHashMap<Pred, NodeSet> =
            self.idbs.iter().map(|&p| (p, NodeSet::empty(n))).collect();
        for (p, a) in data.unary_atoms() {
            if let Some(set) = derived.get_mut(&p) {
                set.insert(a);
            }
        }

        let mut cands = arena::take_node_vec();
        let mut cand_set = arena::take_set(n);
        let mut rounds = 0usize;
        let mut changed = true;
        while changed {
            changed = false;
            rounds += 1;
            telemetry::counter_add(telemetry::Counter::SemiNaiveRounds, 1);
            for (c, seed) in self.rules.iter().zip(&seeds) {
                match c.head_node {
                    None => {
                        // Nullary head: derive once. The existence check
                        // itself splits its root domain when a context is
                        // attached.
                        if nullary.binary_search(&c.head_pred).is_err()
                            && c.plan.on(t.relabelled(&work)).exists()
                        {
                            let pos = nullary.binary_search(&c.head_pred).unwrap_err();
                            nullary.insert(pos, c.head_pred);
                            changed = true;
                        }
                    }
                    Some(head_node) => {
                        let p = c.head_pred;
                        let derived_p = &derived[&p];
                        // Candidates not yet carrying p, computed word-wise:
                        // (seed | universe) \ derived.
                        if let Some((seed, seed_len)) = seed {
                            if seed.count_and(derived_p) == *seed_len {
                                // Every seeded candidate already derived.
                                continue;
                            }
                            cand_set.copy_from(seed);
                        } else {
                            cand_set.fill(n);
                        }
                        cand_set.difference_with(derived_p);
                        cands.clear();
                        cands.extend(cand_set.iter());
                        match t.par() {
                            Some(ctx) if ctx.should_split(cands.len()) => {
                                // Check every candidate against the
                                // round-start snapshot, in parallel chunks;
                                // merge the per-chunk derivation buffers in
                                // chunk order (deterministic) and apply.
                                let work_ref = &work;
                                let derived_now: Vec<Vec<Node>> =
                                    ctx.sched.map_chunks(&cands, ctx.fanout(), |slice| {
                                        slice
                                            .iter()
                                            .copied()
                                            .filter(|&a| {
                                                c.plan
                                                    .on(seq.relabelled(work_ref))
                                                    .fix(head_node, a)
                                                    .exists()
                                            })
                                            .collect()
                                    });
                                for a in derived_now.into_iter().flatten() {
                                    work.add_label(a, p);
                                    derived.get_mut(&p).expect("head pred is IDB").insert(a);
                                    changed = true;
                                }
                            }
                            _ => {
                                for &a in cands.iter() {
                                    if c.plan.on(seq.relabelled(&work)).fix(head_node, a).exists() {
                                        work.add_label(a, p);
                                        derived.get_mut(&p).expect("head pred is IDB").insert(a);
                                        changed = true;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        arena::put_node_vec(cands);
        arena::put_set(cand_set);

        // Report the full extension of each IDB predicate in the closure:
        // facts already present in the data under an IDB predicate (e.g.
        // T-facts when P's rule (6) fires) count just like derived ones.
        // The maintained bitsets iterate in increasing node order, so the
        // lists arrive sorted.
        let unary: FxHashMap<Pred, Vec<Node>> = derived
            .into_iter()
            .map(|(p, set)| (p, set.iter().collect()))
            .collect();
        Evaluation {
            nullary,
            unary,
            rounds,
        }
    }
}

/// Evaluate `program` over `target`, returning all derived IDB facts.
///
/// Compiles the program first; callers that evaluate the same program
/// repeatedly should build a [`CompiledProgram`] once instead.
pub fn evaluate<'a>(program: &Program, target: impl Into<Target<'a>>) -> Evaluation {
    CompiledProgram::new(program).evaluate(target)
}

/// Certain answer to the Boolean query `(program, program.goal)` over `data`
/// for a nullary goal.
pub fn certain_answer_goal(program: &Program, data: &Structure) -> bool {
    evaluate(program, data).holds(program.goal)
}

/// Certain answers to `(program, program.goal)` for a unary goal predicate.
pub fn certain_answers_unary(program: &Program, data: &Structure) -> Vec<Node> {
    evaluate(program, data).answers(program.goal).to_vec()
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
    fn direct_match_fires_goal() {
        // D contains q4 itself: goal holds with zero recursion.
        let d = st("F(x), R(y,x), R(y,z), T(z)");
        assert!(certain_answer_goal(&pi_q(&q4()), &d));
    }

    #[test]
    fn no_match_no_goal() {
        let d = st("F(x), R(x,y), T(y)"); // wrong shape for q4
        assert!(!certain_answer_goal(&pi_q(&q4()), &d));
    }

    #[test]
    fn recursion_through_a_nodes() {
        // A chain of q4-patterns glued through A-nodes:
        //   F(f), R(m1,f), R(m1,a), A(a), R(m2,a), R(m2,t), T(t)
        // P(t) by rule 6; P(a) by rule 7 (with the m2 pattern); G by rule 5.
        let d = st("F(f), R(m1,f), R(m1,a), A(a), R(m2,a), R(m2,t), T(t)");
        let pi = pi_q(&q4());
        assert!(certain_answer_goal(&pi, &d));
        // Without the final T, nothing derives.
        let d2 = st("F(f), R(m1,f), R(m1,a), A(a), R(m2,a), R(m2,t)");
        assert!(!certain_answer_goal(&pi, &d2));
    }

    #[test]
    fn sigma_certain_answers() {
        let (d, n) = parse_structure("A(a), R(m,a), R(m,z), T(z), A(b), R(k,b), R(k,a)").unwrap();
        let sig = sigma_q(&q4());
        let answers = certain_answers_unary(&sig, &d);
        // P(z) via rule 6; P(a) via rule 7 using P(z); P(b) via rule 7 using P(a).
        assert!(answers.contains(&n["z"]));
        assert!(answers.contains(&n["a"]));
        assert!(answers.contains(&n["b"]));
        assert!(!answers.contains(&n["m"]));
    }

    #[test]
    fn rounds_are_bounded_by_chain_length() {
        // A long derivation chain requires multiple rounds.
        let mut text = String::from("T(c0)");
        for i in 0..6 {
            text.push_str(&format!(
                ", A(c{next}), R(m{i},c{next}), R(m{i},c{i})",
                next = i + 1
            ));
        }
        let q = OneCq::parse("F(x), R(y,x), R(y,z), T(z)");
        let (d, n) = parse_structure(&text).unwrap();
        let sig = sigma_q(&q);
        let ev = evaluate(&sig, &d);
        assert!(ev.holds_at(sirup_core::Pred::P, n["c6"]));
        // In-round propagation may finish early, but at least one working
        // round plus one fixpoint-confirmation round are needed.
        assert!(ev.rounds >= 2);
    }

    #[test]
    fn evaluation_is_monotone_in_data() {
        // Adding facts never removes derived facts.
        let q = q4();
        let pi = pi_q(&q);
        let d1 = st("F(f), R(m,f), R(m,t), T(t)");
        let mut d2 = d1.clone();
        let extra = d2.add_node();
        d2.add_label(extra, sirup_core::Pred::A);
        assert!(certain_answer_goal(&pi, &d1));
        assert!(certain_answer_goal(&pi, &d2));
    }

    #[test]
    fn span_two_needs_both_branches() {
        // q with two solitary Ts on *differently labelled* branches (so the
        // two T-variables cannot unify): P propagates only when both close.
        let q = OneCq::parse("F(x), R(x,y1), T(y1), S(x,y2), T(y2)");
        let pi = pi_q(&q);
        let yes = st("F(f), R(f,u), T(u), S(f,v), T(v)");
        assert!(certain_answer_goal(&pi, &yes));
        let no = st("F(f), R(f,u), T(u), S(f,v)");
        assert!(!certain_answer_goal(&pi, &no));
        // One level of budding on the S-branch.
        let deep = st("F(f), R(f,u), T(u), S(f,a), A(a), R(a,u1), T(u1), S(a,u2), T(u2)");
        assert!(certain_answer_goal(&pi, &deep));
    }

    #[test]
    fn holds_uses_sorted_nullary() {
        let d = st("F(x), R(y,x), R(y,z), T(z)");
        let ev = evaluate(&pi_q(&q4()), &d);
        let mut sorted = ev.nullary.clone();
        sorted.sort_unstable();
        assert_eq!(ev.nullary, sorted, "nullary facts must stay sorted");
        assert!(ev.holds(sirup_core::Pred::GOAL));
        assert!(!ev.holds(sirup_core::Pred::S));
    }

    #[test]
    fn non_core_branches_unify() {
        // With identically labelled branches y1, y2 may unify, so a single
        // satisfied branch suffices (q is homomorphically equivalent to its
        // core F(x), R(x,y), T(y)).
        let q = OneCq::parse("F(x), R(x,y1), T(y1), R(x,y2), T(y2)");
        let pi = pi_q(&q);
        let one_branch = st("F(f), R(f,u), T(u)");
        assert!(certain_answer_goal(&pi, &one_branch));
    }
}
