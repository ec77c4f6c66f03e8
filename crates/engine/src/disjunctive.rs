//! Certain-answer evaluation of monadic disjunctive sirups.
//!
//! The certain answer to `(Δ_q, G)` over `D` is ‘yes’ iff **every** model of
//! the covering axiom `T(x) ∨ F(x) ← A(x)` over `D` embeds `q` — i.e. iff
//! every `T`/`F`-labelling of the `A`-nodes creates a `q`-match (Example 2's
//! “proof by exhaustion”). We search for a *countermodel* (a labelling with
//! no match) by DPLL-style branching with two monotone prunes:
//!
//! * **lower bound**: if `q` already embeds using only the labels assigned
//!   so far, every completion of the branch has a match — prune;
//! * **upper bound**: if `q` does not embed even when all unassigned
//!   `A`-nodes carry *both* labels, no completion has a match — countermodel.
//!
//! `Δ⁺_q` (with disjointness (3)) is handled by returning ‘yes’ whenever the
//! data itself is inconsistent (some node carries both `T` and `F`), since
//! an inconsistent program entails everything; labellings assign exactly one
//! label so the search itself is unchanged.

use sirup_core::program::DSirup;
use sirup_core::telemetry;
use sirup_core::{FrozenStructure, Node, Pred, Structure, Target};
use sirup_hom::QueryPlan;

/// Statistics from a disjunctive evaluation (for the benchmark harness).
#[derive(Debug, Clone, Copy, Default)]
pub struct DisjunctiveStats {
    /// Number of branching nodes explored.
    pub branches: usize,
    /// Number of homomorphism checks performed.
    pub hom_checks: usize,
}

/// Certain answer to `(Δ_q, G)` (or `(Δ⁺_q, G)`) over `data`.
pub fn certain_answer_dsirup(dsirup: &DSirup, data: &Structure) -> bool {
    certain_answer_dsirup_stats(dsirup, data).0
}

/// As [`certain_answer_dsirup`], also returning search statistics.
/// Compiles `q`'s search plan first; callers that evaluate the same d-sirup
/// repeatedly should compile once and use [`certain_answer_dsirup_planned`].
pub fn certain_answer_dsirup_stats(dsirup: &DSirup, data: &Structure) -> (bool, DisjunctiveStats) {
    let plan = QueryPlan::compile(&dsirup.cq);
    certain_answer_inner(dsirup, &plan, data.into())
}

/// As [`certain_answer_dsirup`], with a precompiled plan for `dsirup.cq`
/// (the server's DPLL strategy caches one per program), over `target`.
///
/// The DPLL search mutates only *labels* on its bound structures, so the
/// target's CSR view (attached, or built here when none is and the data
/// clears the freeze gate) serves adjacency down every branch through
/// [`Target::relabelled`]; its label rows answer the up-front `A`/`T`/`F`
/// scans. The index is never read. With a parallel context, the DPLL
/// branching itself stays sequential (its prunes depend on the branch
/// order); the per-branch bound checks — the hot inner loop on large
/// instances — fan their root domains out.
pub fn certain_answer_dsirup_planned<'a>(
    dsirup: &DSirup,
    plan: &QueryPlan,
    target: impl Into<Target<'a>>,
) -> bool {
    certain_answer_inner(dsirup, plan, target.into()).0
}

fn certain_answer_inner(
    dsirup: &DSirup,
    plan: &QueryPlan,
    t: Target<'_>,
) -> (bool, DisjunctiveStats) {
    assert_eq!(
        plan.pattern(),
        &dsirup.cq,
        "plan was not compiled from this d-sirup's CQ"
    );
    telemetry::counter_add(telemetry::Counter::DpllChecks, 1);
    let _span = telemetry::traced(telemetry::Family::Dpll, "dpll");
    // A search explores up to 2^|A| branches with two bound checks each, so
    // freezing once pays for itself quickly on non-trivial instances.
    let own = match t.view() {
        Some(_) => None,
        None => FrozenStructure::freeze_if_large(t.data()),
    };
    let t = t.with_view(own.as_ref());
    let data = t.data();
    let mut stats = DisjunctiveStats::default();
    if dsirup.disjoint {
        // Δ⁺ is inconsistent over data containing an FT-twin: entails G.
        // With a view, that is one word-level bitmap-row probe.
        let inconsistent = match t.label_view() {
            Some(f) => f
                .label_row(Pred::T)
                .first_common(f.label_row(Pred::F))
                .is_some(),
            None => data
                .nodes()
                .any(|v| data.has_label(v, Pred::T) && data.has_label(v, Pred::F)),
        };
        if inconsistent {
            return (true, stats);
        }
    }
    // Both paths enumerate in increasing node order, so the branch order
    // (and hence the pruning behaviour) is identical with and without a
    // view.
    let a_nodes: Vec<Node> = match t.label_view() {
        Some(f) => f
            .label_row(Pred::A)
            .iter()
            .filter(|&v| !(f.has_label(v, Pred::T) && f.has_label(v, Pred::F)))
            .collect(),
        None => data
            .nodes()
            .filter(|&v| data.has_label(v, Pred::A))
            // Nodes already labelled both ways cannot change anything.
            .filter(|&v| !(data.has_label(v, Pred::T) && data.has_label(v, Pred::F)))
            .collect(),
    };

    // Lower bound instance: assigned labels only.
    let mut low = data.clone();
    // Upper bound instance: unassigned A-nodes get both labels.
    let mut high = data.clone();
    for &v in &a_nodes {
        high.add_label(v, Pred::T);
        high.add_label(v, Pred::F);
    }

    let found_counter = search(plan, &a_nodes, 0, &mut low, &mut high, t, &mut stats);
    (!found_counter, stats)
}

/// Returns true iff some completion of the current partial labelling has no
/// `q`-match (a countermodel exists below this branch). Both bound
/// structures differ from `t`'s data by labels only, so each check reads
/// them as [`Target::relabelled`] working copies.
fn search(
    q: &QueryPlan,
    a_nodes: &[Node],
    next: usize,
    low: &mut Structure,
    high: &mut Structure,
    t: Target<'_>,
    stats: &mut DisjunctiveStats,
) -> bool {
    stats.branches += 1;
    stats.hom_checks += 1;
    if q.on(t.relabelled(low)).exists() {
        // Every completion embeds q: no countermodel here.
        return false;
    }
    stats.hom_checks += 1;
    if !q.on(t.relabelled(high)).exists() {
        // No completion embeds q: the all-unassigned-free completion — e.g.
        // assign every remaining node T — is a countermodel.
        return true;
    }
    if next >= a_nodes.len() {
        // Fully assigned: low == high semantically; no match ⇒ countermodel.
        return true;
    }
    let v = a_nodes[next];
    for label in [Pred::T, Pred::F] {
        let other = if label == Pred::T { Pred::F } else { Pred::T };
        let low_added = low.add_label(v, label);
        let high_removed = high.remove_label(v, other);
        let found = search(q, a_nodes, next + 1, low, high, t, stats);
        if low_added {
            low.remove_label(v, label);
        }
        if high_removed {
            high.add_label(v, other);
        }
        if found {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirup_core::parse::st;
    use sirup_core::program::DSirup;

    #[test]
    fn single_a_node_case_split() {
        // q = F(x), R(x,y), T(y). Data: T(u), R(u,a), A(a), R(a,w), T(w).
        // If a is F: pattern F(a), R(a,w), T(w) matches. If a is T:
        // no F anywhere — countermodel. So certain answer is 'no'.
        let q = st("F(x), R(x,y), T(y)");
        let d = st("T(u), R(u,a), A(a), R(a,w), T(w)");
        assert!(!certain_answer_dsirup(&DSirup::new(q.clone()), &d));
        // Add F(z), R(a,z)? No: make the T branch also match:
        // F(z), R(w2,z) with T(w2)… simpler: data where both branches match.
        let d2 = st("T(u), R(u,a), A(a), R(a,w), T(w), F(v), R(a,v), R(u,v)");
        // a=F: F(a), R(a,w), T(w) matches. a=T: T(a), R(a,v), F(v)?? pattern
        // needs F(x),R(x,y),T(y): x=u? u is T. Use F(v): v has no outgoing
        // edge, so no match from v. But T(u), R(u,v), F(v): pattern is
        // F-then-T, so no. Hence still 'no'.
        assert!(!certain_answer_dsirup(&DSirup::new(q), &d2));
    }

    #[test]
    fn example2_style_exhaustion() {
        // Mirror of the paper's Example 2 reasoning shape with a simple q:
        // q = T(x), R(x,y), F(y) — pattern “T points to F”.
        // Data: chain T(s), R(s,a), A(a), R(a,b), A(b), R(b,t), F(t).
        // Any labelling has a T immediately followed by F somewhere.
        let q = st("T(x), R(x,y), F(y)");
        let d = st("T(s), R(s,a), A(a), R(a,b), A(b), R(b,t), F(t)");
        assert!(certain_answer_dsirup(&DSirup::new(q.clone()), &d));
        // Break the chain: remove the final F — countermodel (label all T).
        let d2 = st("T(s), R(s,a), A(a), R(a,b), A(b), R(b,t)");
        assert!(!certain_answer_dsirup(&DSirup::new(q), &d2));
    }

    #[test]
    fn no_a_nodes_reduces_to_hom() {
        let q = st("F(x), R(x,y), T(y)");
        let yes = st("F(u), R(u,v), T(v)");
        let no = st("F(u), R(v,u), T(v)");
        assert!(certain_answer_dsirup(&DSirup::new(q.clone()), &yes));
        assert!(!certain_answer_dsirup(&DSirup::new(q), &no));
    }

    #[test]
    fn disjointness_on_inconsistent_data() {
        let q = st("F(x), R(x,y), T(y)");
        let d = st("T(u), F(u)"); // inconsistent for Δ⁺
        assert!(certain_answer_dsirup(
            &DSirup::with_disjointness(q.clone()),
            &d
        ));
        assert!(!certain_answer_dsirup(&DSirup::new(q), &d));
    }

    #[test]
    fn twins_in_query_match_either_assignment() {
        // q with an FT-twin requires a node labelled both ways; a single
        // A-node assigned one label can never provide it, but data with an
        // explicit twin does.
        let q = st("F(x), T(x)");
        let d_a = st("A(a)");
        assert!(!certain_answer_dsirup(&DSirup::new(q.clone()), &d_a));
        let d_twin = st("F(u), T(u)");
        assert!(certain_answer_dsirup(&DSirup::new(q), &d_twin));
    }

    #[test]
    fn stats_track_search_effort() {
        let q = st("T(x), R(x,y), F(y)");
        let d = st("T(s), R(s,a), A(a), R(a,b), A(b), R(b,t), F(t)");
        let (ans, stats) = certain_answer_dsirup_stats(&DSirup::new(q), &d);
        assert!(ans);
        assert!(stats.hom_checks >= 2);
        assert!(stats.branches >= 1);
    }
}
