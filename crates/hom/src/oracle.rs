//! A naive homomorphism enumerator: the reference the compiled
//! [`QueryPlan`](crate::QueryPlan) executor is tested against.
//!
//! It shares no idea with the plan: pattern nodes are assigned in index
//! order, every target node is a candidate, and there is no domain seeding,
//! no arc consistency and no adjacency-driven candidate generation. A
//! candidate must carry all of the pattern node's labels, and each atom is
//! checked once both of its ends are assigned. Pins, exclusions and
//! injectivity are filters a caller applies to the complete list.

use sirup_core::{Node, Structure};

/// Every homomorphism `pattern → target`, as image vectors indexed by
/// pattern node, in lexicographic order. The empty pattern has exactly one
/// (the empty map). Exponential in the pattern size: for small tests only.
pub fn every_hom(pattern: &Structure, target: &Structure) -> Vec<Vec<Node>> {
    let mut homs = Vec::new();
    extend(pattern, target, &mut Vec::new(), &mut homs);
    homs
}

/// Extend the partial map `h` (defined on the first `h.len()` pattern
/// nodes) in every possible way.
fn extend(pattern: &Structure, target: &Structure, h: &mut Vec<Node>, homs: &mut Vec<Vec<Node>>) {
    if h.len() == pattern.node_count() {
        homs.push(h.clone());
        return;
    }
    let u = Node(h.len() as u32);
    for v in target.nodes() {
        let image = |w: Node| if w == u { v } else { h[w.index()] };
        let fits = pattern.labels(u).iter().all(|&p| target.has_label(v, p))
            && pattern
                .out(u)
                .iter()
                .filter(|&&(_, w)| w <= u)
                .all(|&(p, w)| target.has_edge(p, v, image(w)))
            && pattern
                .inn(u)
                .iter()
                .filter(|&&(_, w)| w < u)
                .all(|&(p, w)| target.has_edge(p, image(w), v));
        if fits {
            h.push(v);
            extend(pattern, target, h, homs);
            h.pop();
        }
    }
}
