//! Isomorphisms and automorphisms.
//!
//! Used by the classifier for the *symmetric solitary pair* test of §4 (a
//! pair (t,f) is symmetric iff the pruned, unlabeled CQ admits an
//! automorphism fixing the root and swapping t and f) and by tests comparing
//! independently built structures (e.g. Example 3's cactus vs. D2).

use crate::plan::QueryPlan;
use sirup_core::{Node, Structure};

/// Find an isomorphism `a → b` (returns the node map), if one exists.
///
/// Two finite structures with the same number of nodes and atoms are
/// isomorphic iff there is an injective homomorphism in each direction; we
/// search for an injective hom `a → b` and verify it is strong (reflects
/// atoms), which for equal atom counts is automatic.
pub fn find_isomorphism(a: &Structure, b: &Structure) -> Option<Vec<Node>> {
    if a.node_count() != b.node_count()
        || a.edge_count() != b.edge_count()
        || a.label_count() != b.label_count()
    {
        return None;
    }
    let mut result = None;
    QueryPlan::compile(a).on(b).injective().for_each(|h| {
        // Injective + equal atom counts ⇒ bijective and atom counts match;
        // still verify strongness defensively (cheap).
        if is_strong(a, b, h) {
            result = Some(h.to_vec());
            false
        } else {
            true
        }
    });
    result
}

/// Are `a` and `b` isomorphic?
pub fn isomorphic(a: &Structure, b: &Structure) -> bool {
    find_isomorphism(a, b).is_some()
}

/// Find an automorphism of `s` with the given pinned assignments.
pub fn find_automorphism_fixing(s: &Structure, fixed: &[(Node, Node)]) -> Option<Vec<Node>> {
    let plan = QueryPlan::compile(s);
    let mut f = plan.on(s).injective();
    for &(u, v) in fixed {
        f = f.fix(u, v);
    }
    let mut result = None;
    f.for_each(|h| {
        if is_strong(s, s, h) {
            result = Some(h.to_vec());
            false
        } else {
            true
        }
    });
    result
}

/// Does the bijection `h` reflect atoms (i.e. `h⁻¹` is also a hom)?
fn is_strong(a: &Structure, b: &Structure, h: &[Node]) -> bool {
    // h injective on equal-size structures ⇒ bijective; build the inverse.
    let mut inv: Vec<Option<Node>> = vec![None; b.node_count()];
    for (u, &t) in h.iter().enumerate() {
        if inv[t.index()].is_some() {
            return false;
        }
        inv[t.index()] = Some(Node(u as u32));
    }
    let inv: Vec<Node> = match inv.into_iter().collect::<Option<Vec<_>>>() {
        Some(v) => v,
        None => return false,
    };
    b.is_hom(a, &inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirup_core::parse::{parse_structure, st};

    #[test]
    fn renamed_structures_are_isomorphic() {
        let a = st("F(x), R(x,y), T(y), S(y,z)");
        let b = st("S(m,k), F(u), R(u,m), T(m)");
        let h = find_isomorphism(&a, &b).expect("isomorphic");
        assert!(a.is_hom(&b, &h));
    }

    #[test]
    fn different_shapes_are_not() {
        let a = st("R(x,y), R(y,z)");
        let b = st("R(x,y), R(x,z)");
        assert!(!isomorphic(&a, &b));
        // Same shape, different labels.
        let c = st("R(x,y), R(y,z), T(x)");
        assert!(!isomorphic(&a, &c));
    }

    #[test]
    fn homomorphic_but_not_isomorphic() {
        // Both directions have homs but sizes differ.
        let a = st("R(x,y)");
        let b = st("R(x,y), R(y,z)");
        assert!(crate::QueryPlan::compile(&a).on(&b).exists());
        assert!(!isomorphic(&a, &b));
    }

    #[test]
    fn automorphism_swapping_symmetric_branches() {
        // Root with two unlabeled children: swapping them is an automorphism.
        let (s, n) = parse_structure("R(r,a), R(r,b)").unwrap();
        let h = find_automorphism_fixing(&s, &[(n["a"], n["b"])]).expect("swap exists");
        assert_eq!(h[n["a"].index()], n["b"]);
        assert_eq!(h[n["b"].index()], n["a"]);
        assert_eq!(h[n["r"].index()], n["r"]);
    }

    #[test]
    fn no_automorphism_across_asymmetric_branches() {
        // One branch longer: swap impossible.
        let (s, n) = parse_structure("R(r,a), R(r,b), R(b,c)").unwrap();
        assert!(find_automorphism_fixing(&s, &[(n["a"], n["b"])]).is_none());
    }

    #[test]
    fn parallel_edge_labels_respected() {
        let a = st("R(x,y), S(x,y)");
        let b = st("R(x,y), S(y,x)");
        assert!(!isomorphic(&a, &b));
        let c = st("S(u,v), R(u,v)");
        assert!(isomorphic(&a, &c));
    }
}
