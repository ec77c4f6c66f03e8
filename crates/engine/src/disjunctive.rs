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
use sirup_core::{FrozenStructure, Node, NodeSet, Pred, Structure, Target};
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
/// The search never copies the data. Its lower and upper bounds are
/// `T`/`F` label overlays on the target ([`Target::with_label_rows`]):
/// four node bitmaps built once from the data's `T`/`F` rows (the view's
/// label rows when one is attached, or is built here because the data
/// clears the freeze gate). A branch step flips bits in them. Every bound
/// check reads the view in full mode for edges and all other labels, so
/// the root's lower-bound check, which settles most reads, costs what a
/// plain hom check on the data costs. With a parallel context, the DPLL
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
    let _span = telemetry::timed(telemetry::Family::Dpll, "dpll");
    // A search explores up to 2^|A| branches with two bound checks each, so
    // freezing once pays for itself quickly on non-trivial instances.
    let own = match t.view() {
        Some(_) => None,
        None => FrozenStructure::freeze_if_large(t.data()),
    };
    let t = t.with_view(own.as_ref());
    let mut stats = DisjunctiveStats::default();
    // Lower bound: assigned labels only, so it starts as the data's rows.
    // Indexed like `PREDS`: [T, F].
    let mut low = PREDS.map(|l| label_row(t, l));
    // Nodes labelled both ways: Δ⁺ is inconsistent over data containing
    // one (so it entails G), and as A-nodes they cannot change anything.
    let mut twins = label_row(t, Pred::T);
    twins.intersect_with(&low[1]);
    if dsirup.disjoint && !twins.is_empty() {
        return (true, stats);
    }
    // Increasing node order, with and without a view, so the branch order
    // (and hence the pruning behaviour) does not depend on the substrate.
    let mut a_set = label_row(t, Pred::A);
    a_set.difference_with(&twins);
    let a_nodes: Vec<Node> = a_set.iter().collect();
    // Upper bound: unassigned A-nodes carry both labels.
    let mut high = PREDS.map(|l| {
        let mut row = label_row(t, l);
        row.union_with(&a_set);
        row
    });

    let found_counter = search(plan, &a_nodes, 0, &mut low, &mut high, t, &mut stats);
    telemetry::counter_add(telemetry::Counter::DpllBranches, stats.branches as u64);
    telemetry::counter_add(telemetry::Counter::DpllHomChecks, stats.hom_checks as u64);
    (!found_counter, stats)
}

/// The data's row of nodes labelled `l`: the view's when attached, else one
/// scan of the live data.
fn label_row(t: Target<'_>, l: Pred) -> NodeSet {
    let data = t.data();
    let mut row = NodeSet::empty(data.node_count());
    match t.label_row(l) {
        Some(r) => row.copy_from(r),
        None => {
            for v in data.nodes().filter(|&v| data.has_label(v, l)) {
                row.insert(v);
            }
        }
    }
    row
}

/// The predicates of the bounds' rows, in index order.
const PREDS: [Pred; 2] = [Pred::T, Pred::F];

/// `[T, F]` bound rows as a [`Target::with_label_rows`] overlay.
fn overlay(rows: &[NodeSet; 2]) -> [(Pred, &NodeSet); 2] {
    [(PREDS[0], &rows[0]), (PREDS[1], &rows[1])]
}

/// Returns true iff some completion of the current partial labelling has no
/// `q`-match (a countermodel exists below this branch). `low` and `high`
/// are the bounds' `[T, F]` rows; each check reads `t` with them overlaid.
fn search(
    q: &QueryPlan,
    a_nodes: &[Node],
    next: usize,
    low: &mut [NodeSet; 2],
    high: &mut [NodeSet; 2],
    t: Target<'_>,
    stats: &mut DisjunctiveStats,
) -> bool {
    stats.branches += 1;
    stats.hom_checks += 1;
    if q.on(t.with_label_rows(&overlay(low))).exists() {
        // Every completion embeds q: no countermodel here.
        return false;
    }
    stats.hom_checks += 1;
    if !q.on(t.with_label_rows(&overlay(high))).exists() {
        // No completion embeds q: the all-unassigned-free completion — e.g.
        // assign every remaining node T — is a countermodel.
        return true;
    }
    if next >= a_nodes.len() {
        // Fully assigned: low == high semantically; no match ⇒ countermodel.
        return true;
    }
    let v = a_nodes[next];
    for (label, other) in [(0, 1), (1, 0)] {
        let low_added = low[label].insert(v);
        // The other label leaves the upper bound only if the data does not
        // carry it: every completion keeps the data's labels.
        let high_removed = !t.has_label(v, PREDS[other]) && high[other].remove(v);
        let found = search(q, a_nodes, next + 1, low, high, t, stats);
        if low_added {
            low[label].remove(v);
        }
        if high_removed {
            high[other].insert(v);
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
    fn upper_bound_keeps_data_labels_of_a_nodes() {
        // c carries T in the data. Every labelling matches F(x), R(x,y),
        // T(y): e is F, so f = T matches via e -> f, and f = F via f -> c.
        // When the search assigns c the label F, the upper bound must
        // keep c's data T, or it misses the f -> c match and reports a
        // countermodel.
        let q = st("F(x), R(x,y), T(y)");
        let d = st("T(c), A(c), A(g), F(e), A(e), A(f), \
                    R(a,c), R(a,g), R(b,c), R(e,b), R(e,f), R(f,c)");
        assert!(certain_answer_dsirup(&DSirup::new(q.clone()), &d));
        assert!(certain_answer_dsirup(&DSirup::with_disjointness(q), &d));
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
