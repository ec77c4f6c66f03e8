//! Semantic verification of candidate rewritings.
//!
//! By definition (§2), `Φ` is an FO-rewriting of a query iff it returns
//! exactly the certain answers over *every* data instance. That is not
//! finitely checkable, but disagreement is: this module runs a candidate
//! rewriting and a reference evaluator side by side over a supplied family
//! of instances and reports the first disagreement (a concrete
//! counterexample instance), or agreement over the whole family.
//!
//! The rewriting is evaluated twice — through the hom-based [`Ucq`] engine
//! *and* through the independent FO model checker of [`crate::formula`] —
//! so the two evaluation paths also cross-check each other.

use crate::from_ucq::ucq_to_fo;
use sirup_core::{Node, Structure};
use sirup_engine::ucq::Ucq;

/// A disagreement found by a verification run.
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// Index of the offending instance in the supplied family.
    pub instance_index: usize,
    /// The instance itself.
    pub instance: Structure,
    /// The node at which answers differ (`None` for Boolean queries).
    pub at: Option<Node>,
    /// What the reference evaluator said.
    pub reference: bool,
    /// What the rewriting said.
    pub rewriting: bool,
}

impl std::fmt::Display for Disagreement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "instance #{}: reference says {}, rewriting says {}",
            self.instance_index, self.reference, self.rewriting
        )?;
        if let Some(a) = self.at {
            write!(f, " at {a:?}")?;
        }
        write!(f, " on {}", self.instance)
    }
}

/// Verify a Boolean rewriting against a reference evaluator over a family
/// of instances. Returns the first disagreement, or `Ok(n)` with the number
/// of instances checked.
///
/// Panics if the hom-based and FO evaluations of the rewriting itself ever
/// disagree — that would be a bug in this workspace, not in the rewriting.
pub fn verify_boolean_rewriting<'a>(
    rewriting: &Ucq,
    reference: impl Fn(&Structure) -> bool,
    instances: impl IntoIterator<Item = &'a Structure>,
) -> Result<usize, Box<Disagreement>> {
    let phi = ucq_to_fo(rewriting);
    // Compile the rewriting's disjunct plans once for the whole sweep.
    let compiled = rewriting.compile();
    let mut checked = 0;
    for (i, d) in instances.into_iter().enumerate() {
        let via_hom = compiled.eval_boolean(d);
        let via_fo = phi.eval_sentence(d);
        assert_eq!(
            via_hom, via_fo,
            "internal: hom and FO evaluation of the rewriting disagree on {d}"
        );
        let expected = reference(d);
        if via_hom != expected {
            return Err(Box::new(Disagreement {
                instance_index: i,
                instance: d.clone(),
                at: None,
                reference: expected,
                rewriting: via_hom,
            }));
        }
        checked += 1;
    }
    Ok(checked)
}

/// Verify a unary rewriting against a reference evaluator (returning the
/// full answer set per instance) over a family of instances.
pub fn verify_unary_rewriting<'a>(
    rewriting: &Ucq,
    reference: impl Fn(&Structure) -> Vec<Node>,
    instances: impl IntoIterator<Item = &'a Structure>,
) -> Result<usize, Box<Disagreement>> {
    let phi = ucq_to_fo(rewriting);
    // Compile the rewriting's disjunct plans once for the whole sweep.
    let compiled = rewriting.compile();
    let mut checked = 0;
    for (i, d) in instances.into_iter().enumerate() {
        let expected = reference(d);
        for a in d.nodes() {
            let via_hom = compiled.eval_at(d, a);
            let via_fo = phi.eval_at(d, a);
            assert_eq!(
                via_hom, via_fo,
                "internal: hom and FO evaluation of the rewriting disagree at {a:?} on {d}"
            );
            let exp = expected.contains(&a);
            if via_hom != exp {
                return Err(Box::new(Disagreement {
                    instance_index: i,
                    instance: d.clone(),
                    at: Some(a),
                    reference: exp,
                    rewriting: via_hom,
                }));
            }
        }
        checked += 1;
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirup_core::parse::st;
    use sirup_core::program::{pi_q, sigma_q};
    use sirup_core::{OneCq, Pred};
    use sirup_engine::eval::{certain_answer_goal, certain_answers_unary};

    /// The bounded q5-phenomenon CQ (rewriting depth 1; cf.
    /// `sirup-cactus::rewriting`).
    fn bounded_cq() -> OneCq {
        OneCq::parse("T(b), F(c), T(c), F(e), R(a,b), R(a,c), R(b,d), R(c,e), R(d,g)")
    }

    fn family() -> Vec<Structure> {
        vec![
            st("F(x), R(x,y), T(y)"),
            st("T(b), F(c), T(c), F(e), R(a,b), R(a,c), R(b,d), R(c,e), R(d,g)"),
            st("A(a), R(a,b), T(b)"),
            st("F(e), R(c,e), F(c), T(c), R(a,c), R(a,b), T(b), R(b,d), R(d,g)"),
            Structure::new(),
        ]
    }

    #[test]
    fn correct_boolean_rewriting_verifies() {
        // The depth-0 "rewriting" C0 = q itself is exactly the d = 0 UCQ,
        // which under-approximates the query; but the family below contains
        // only instances where the answer is decided by direct embedding,
        // so checking agreement against direct embedding must pass.
        let q = bounded_cq();
        let rewriting = Ucq::boolean([q.structure().clone()]);
        let fam = [st("F(x), R(x,y), T(y)"), family()[1].clone()];
        let plan = sirup_hom::QueryPlan::compile(q.structure());
        let n = verify_boolean_rewriting(&rewriting, |d| plan.on(d).exists(), fam.iter())
            .expect("no disagreement");
        assert_eq!(n, 2);
    }

    #[test]
    fn incomplete_rewriting_is_caught_with_witness() {
        // Use the engine (full recursion) as reference but give it only the
        // depth-0 disjunct: an instance needing one budding level exposes it.
        let q = OneCq::parse("F(x), R(y,x), R(y,z), T(z)");
        let rewriting = Ucq::boolean([q.structure().clone()]);
        let pi = pi_q(&q);
        // A depth-1 cactus: engine says yes, depth-0 rewriting says no.
        let fam = [
            st("F(f), R(m,f), R(m,t), T(t)"),
            st("F(f), R(m1,f), R(m1,a), A(a), R(m2,a), R(m2,t), T(t)"),
        ];
        let err = verify_boolean_rewriting(&rewriting, |d| certain_answer_goal(&pi, d), fam.iter())
            .unwrap_err();
        assert_eq!(err.instance_index, 1);
        assert!(err.reference);
        assert!(!err.rewriting);
    }

    #[test]
    fn unary_rewriting_verifies_on_bounded_cq() {
        let q = bounded_cq();
        let rewriting = sirup_cactus_rewriting(&q);
        let sigma = sigma_q(&q);
        let n = verify_unary_rewriting(
            &rewriting,
            |d| certain_answers_unary(&sigma, d),
            family().iter(),
        )
        .expect("Σ-rewriting of the bounded CQ must agree with the engine");
        assert_eq!(n, family().len());
    }

    /// Local reconstruction of `sirup-cactus::rewriting::sigma_rewriting`
    /// at depth 1 (avoiding a cyclic dev-dependency on sirup-cactus):
    /// T(r) ∨ C◦_0 ∨ C◦_1 for the span-1 bounded CQ.
    fn sirup_cactus_rewriting(q: &OneCq) -> Ucq {
        let mut disjuncts: Vec<(Structure, Node)> = Vec::new();
        let mut t = Structure::new();
        let r = t.add_node();
        t.add_label(r, Pred::T);
        disjuncts.push((t, r));
        // C◦_0: q with F(focus) → A(focus).
        let mut c0 = q.structure().clone();
        c0.remove_label(q.focus(), Pred::F);
        c0.add_label(q.focus(), Pred::A);
        disjuncts.push((c0, q.focus()));
        // C◦_1: bud the solitary T once, then relabel the root focus.
        let c1 = {
            let c = sirup_build_c1(q);
            (c.0, c.1)
        };
        disjuncts.push(c1);
        Ucq::unary(disjuncts)
    }

    fn sirup_build_c1(q: &OneCq) -> (Structure, Node) {
        // Manual (bud): relabel T(y) to A, attach a fresh q⁻ copy with its
        // focus at y, restore its own solitary T labels; then C◦.
        let y = q.solitary_t()[0];
        let mut s = q.structure().clone();
        s.remove_label(y, Pred::T);
        s.add_label(y, Pred::A);
        let qm = q.q_minus();
        let mut map: Vec<Node> = Vec::with_capacity(qm.node_count());
        for v in qm.nodes() {
            if v == q.focus() {
                map.push(y);
            } else {
                map.push(s.add_node());
            }
        }
        for (p, v) in qm.unary_atoms() {
            s.add_label(map[v.index()], p);
        }
        for (p, u, v) in qm.edges() {
            s.add_edge(p, map[u.index()], map[v.index()]);
        }
        for &t in q.solitary_t() {
            s.add_label(map[t.index()], Pred::T);
        }
        let r = q.focus();
        s.remove_label(r, Pred::F);
        s.add_label(r, Pred::A);
        (s, r)
    }

    #[test]
    fn empty_family_checks_zero() {
        let rewriting = Ucq::boolean([st("T(x)")]);
        let n = verify_boolean_rewriting(&rewriting, |_| true, std::iter::empty()).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn disagreement_display_mentions_instance() {
        let q = st("T(x)");
        let rewriting = Ucq::boolean([q]);
        let fam = [st("F(a)")];
        let err = verify_boolean_rewriting(&rewriting, |_| true, fam.iter()).unwrap_err();
        let text = format!("{err}");
        assert!(text.contains("instance #0"));
        assert!(text.contains("reference says true"));
    }
}
