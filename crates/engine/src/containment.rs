//! Conjunctive-query and UCQ containment, equivalence and minimisation.
//!
//! The classical Chandra–Merlin machinery the paper leans on throughout:
//! `q ⊑ q′` (every instance answering `q` answers `q′`) iff there is a
//! homomorphism `q′ → q`; a UCQ is contained in another iff every disjunct
//! is contained in some disjunct of the other (Sagiv–Yannakakis). We use it
//! to *minimise* the Prop. 2 rewritings: a cactus disjunct that already
//! contains a homomorphic image of a shallower one is redundant — this is
//! exactly the paper's observation in Example 4 that `(Π_q5, G)` rewrites
//! to `C_0 ∨ C_1` even though `𝔎_q5` is infinite.
//!
//! For unary disjuncts, homs must preserve the free (answer) variable.

use crate::ucq::Ucq;
use sirup_core::{Node, Structure};
use sirup_hom::QueryPlan;

/// Boolean-CQ containment: `a ⊑ b` iff `b → a` homomorphically.
pub fn cq_contained_in(a: &Structure, b: &Structure) -> bool {
    QueryPlan::compile(b).on(a).exists()
}

/// Unary-CQ containment with answer variables: `(a, x) ⊑ (b, y)` iff there
/// is a `b → a` homomorphism sending `y` to `x`.
pub fn unary_cq_contained_in(a: &Structure, x: Node, b: &Structure, y: Node) -> bool {
    QueryPlan::compile(b).on(a).fix(y, x).exists()
}

/// Disjunct-wise containment of one UCQ disjunct in another (handles the
/// Boolean/unary mix the way [`Ucq::eval_at`] does: a Boolean disjunct
/// answers every node, so a unary disjunct is contained in a Boolean one
/// iff it is contained in its Boolean part).
fn disjunct_contained(a: &(Structure, Option<Node>), b: &(Structure, Option<Node>)) -> bool {
    match (a.1, b.1) {
        (None, None) => cq_contained_in(&a.0, &b.0),
        (Some(x), Some(y)) => unary_cq_contained_in(&a.0, x, &b.0, y),
        // Unary ⊑ Boolean: the Boolean pattern must embed somewhere in a.
        (Some(_), None) => cq_contained_in(&a.0, &b.0),
        // Boolean ⊑ unary cannot hold in general (the unary disjunct
        // constrains the answer node); stay sound and say no.
        (None, Some(_)) => false,
    }
}

/// UCQ containment (Sagiv–Yannakakis): `u ⊑ v` iff every disjunct of `u`
/// is contained in some disjunct of `v`.
pub fn ucq_contained_in(u: &Ucq, v: &Ucq) -> bool {
    u.disjuncts
        .iter()
        .all(|a| v.disjuncts.iter().any(|b| disjunct_contained(a, b)))
}

/// UCQ equivalence: containment both ways.
pub fn ucq_equivalent(u: &Ucq, v: &Ucq) -> bool {
    ucq_contained_in(u, v) && ucq_contained_in(v, u)
}

/// Remove redundant disjuncts: a disjunct contained in another (kept)
/// disjunct is dropped. The result is equivalent to the input and no
/// smaller equivalent subset of disjuncts exists.
#[allow(clippy::needless_range_loop)]
pub fn minimise_ucq(u: &Ucq) -> Ucq {
    let n = u.disjuncts.len();
    let mut keep = vec![true; n];
    for i in 0..n {
        if !keep[i] {
            continue;
        }
        for j in 0..n {
            if i == j || !keep[j] {
                continue;
            }
            // Drop j if it is contained in i (i subsumes j). Tie-break on
            // index so mutually-equivalent disjuncts keep exactly one.
            if disjunct_contained(&u.disjuncts[j], &u.disjuncts[i])
                && (!disjunct_contained(&u.disjuncts[i], &u.disjuncts[j]) || i < j)
            {
                keep[j] = false;
            }
        }
    }
    Ucq {
        disjuncts: u
            .disjuncts
            .iter()
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|(d, _)| d.clone())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirup_core::parse::{parse_structure, st};

    #[test]
    fn cq_containment_is_hom_reversed() {
        // F(x), R(x,y), T(y) is contained in ∃x∃y R(x,y).
        let specific = st("F(x), R(x,y), T(y)");
        let general = st("R(x,y)");
        assert!(cq_contained_in(&specific, &general));
        assert!(!cq_contained_in(&general, &specific));
    }

    #[test]
    fn containment_is_reflexive_and_transitive() {
        let a = st("F(x), R(x,y), T(y)");
        let b = st("R(x,y), T(y)");
        let c = st("R(x,y)");
        assert!(cq_contained_in(&a, &a));
        assert!(cq_contained_in(&a, &b));
        assert!(cq_contained_in(&b, &c));
        assert!(cq_contained_in(&a, &c));
    }

    #[test]
    fn unary_containment_respects_answer_variable() {
        let (a, an) = parse_structure("A(r), R(r,y), T(y)").unwrap();
        let (b, bn) = parse_structure("A(r)").unwrap();
        // (a, r) ⊑ (b, r): b → a fixing r exists.
        assert!(unary_cq_contained_in(&a, an["r"], &b, bn["r"]));
        assert!(!unary_cq_contained_in(&b, bn["r"], &a, an["r"]));
        // Same patterns, but the answer variable moved: y is not an A-node.
        let (c, cn) = parse_structure("A(r), R(r,y), T(y)").unwrap();
        assert!(!unary_cq_contained_in(&c, cn["y"], &b, bn["r"]));
    }

    #[test]
    fn ucq_containment_per_disjunct() {
        let u = Ucq::boolean([st("F(x), R(x,y), T(y)"), st("T(x), S(x,y), T(y)")]);
        let v = Ucq::boolean([st("R(x,y)"), st("S(x,y)")]);
        assert!(ucq_contained_in(&u, &v));
        assert!(!ucq_contained_in(&v, &u));
        assert!(!ucq_equivalent(&u, &v));
        assert!(ucq_equivalent(&u, &u));
    }

    #[test]
    fn minimise_drops_subsumed_disjuncts() {
        // The general R(x,y) subsumes both specific disjuncts.
        let u = Ucq::boolean([st("F(x), R(x,y), T(y)"), st("R(x,y)"), st("R(x,y), R(y,z)")]);
        let m = minimise_ucq(&u);
        assert_eq!(m.len(), 1);
        assert!(ucq_equivalent(&u, &m));
        // Semantics preserved on concrete instances.
        for d in [st("R(a,b)"), st("F(a), T(b)"), st("S(a,b)")] {
            assert_eq!(u.eval_boolean(&d), m.eval_boolean(&d));
        }
    }

    #[test]
    fn minimise_keeps_one_of_equivalent_twins() {
        let u = Ucq::boolean([st("R(x,y)"), st("R(u,v)")]);
        let m = minimise_ucq(&u);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn minimise_of_irredundant_ucq_is_identity() {
        let u = Ucq::boolean([st("F(x)"), st("T(x)")]);
        let m = minimise_ucq(&u);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn example4_rewriting_minimises_to_two_cactuses() {
        // q5's cactuses: C2 contains a hom image of C1, so C0 ∨ C1 ∨ C2
        // minimises to C0 ∨ C1 — the paper's Example 4 statement.
        use sirup_core::OneCq;
        let q5 = OneCq::parse("T(b), F(c), T(c), F(e), R(a,b), R(a,c), R(b,d), R(c,e), R(d,g)");
        // Local budding to avoid a dev-dependency cycle with sirup-cactus:
        // C_{k+1} = bud the single solitary T of C_k.
        fn bud_once(q: &OneCq, c: &Structure, t_nodes: &mut Vec<Node>) -> Structure {
            let y = t_nodes.pop().unwrap();
            let mut s = c.clone();
            s.remove_label(y, sirup_core::Pred::T);
            s.add_label(y, sirup_core::Pred::A);
            let qm = q.q_minus();
            let mut map = Vec::with_capacity(qm.node_count());
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
                s.add_label(map[t.index()], sirup_core::Pred::T);
                t_nodes.push(map[t.index()]);
            }
            s
        }
        let c0 = q5.structure().clone();
        let mut ts = vec![q5.solitary_t()[0]];
        let c1 = bud_once(&q5, &c0, &mut ts);
        let c2 = bud_once(&q5, &c1, &mut ts);
        let u = Ucq::boolean([c0, c1, c2]);
        let m = minimise_ucq(&u);
        assert_eq!(m.len(), 2, "Example 4: C2 is redundant");
        assert!(ucq_equivalent(&u, &m));
    }
}
