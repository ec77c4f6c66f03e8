//! Differential proptests for the read-optimized execution substrate.
//!
//! * The CSR [`FrozenStructure`] snapshot is pinned against live
//!   `Structure` reads: random `FactOp` sequences build an instance, a
//!   freeze of the result must agree with the live structure on every
//!   read surface (per-pred adjacency rows, edge membership, labels,
//!   label/source/sink bitmap rows).
//! * The maintained view is pinned against a fresh freeze: a view carried
//!   across a random op sequence by [`FrozenStructure::apply_all`] must
//!   count the ops that changed it exactly as `Structure::apply_all` does
//!   and read exactly like `FrozenStructure::freeze` of the folded
//!   structure after every op, across node growth and overlay folds, while
//!   a clone taken before keeps reading like the structure it was built
//!   from.
//! * The widened (4-words-per-step) `NodeSet` kernels are pinned against a
//!   deliberately scalar one-bit-at-a-time oracle, including ragged tail
//!   words and operands of different universe sizes.

use proptest::prelude::*;
use sirup_core::telemetry;
use sirup_core::{FactOp, FrozenStructure, Node, NodeSet, Pred, Structure};

const PREDS_U: [Pred; 3] = [Pred::F, Pred::T, Pred::A];
const PREDS_B: [Pred; 2] = [Pred::R, Pred::S];

/// Strategy: one random op over a node universe of `n` (same shape as the
/// paged-storage differential, so the two suites explore comparable
/// instance populations).
fn arb_op(n: u32) -> impl Strategy<Value = FactOp> {
    (0..4u32, 0..3usize, 0..n, 0..n).prop_map(|(kind, pi, a, b)| match kind {
        0 => FactOp::AddLabel(PREDS_U[pi], Node(a)),
        1 => FactOp::RemoveLabel(PREDS_U[pi], Node(a)),
        2 => FactOp::AddEdge(PREDS_B[pi % 2], Node(a), Node(b)),
        _ => FactOp::RemoveEdge(PREDS_B[pi % 2], Node(a), Node(b)),
    })
}

/// Every read surface of a freeze of `s` must agree with live reads.
fn assert_frozen_agrees(s: &Structure) {
    let f = FrozenStructure::freeze(s);
    assert_eq!(f.node_count(), s.node_count());
    assert_eq!(f.edge_count(), s.edge_count());
    for u in s.nodes() {
        for p in PREDS_B {
            let out: Vec<Node> = s
                .out(u)
                .iter()
                .filter(|&&(q, _)| q == p)
                .map(|&(_, v)| v)
                .collect();
            assert_eq!(f.out(p, u), out.as_slice(), "out({p}, {u:?})");
            let inn: Vec<Node> = s
                .inn(u)
                .iter()
                .filter(|&&(q, _)| q == p)
                .map(|&(_, v)| v)
                .collect();
            assert_eq!(f.inn(p, u), inn.as_slice(), "inn({p}, {u:?})");
            for v in s.nodes() {
                assert_eq!(f.has_edge(p, u, v), s.has_edge(p, u, v), "{p}({u:?},{v:?})");
            }
        }
        for p in PREDS_U {
            assert_eq!(f.has_label(u, p), s.has_label(u, p), "{p}({u:?})");
        }
    }
    // Bitmap rows hold exactly the nodes live reads find.
    for p in PREDS_U {
        let row: Vec<Node> = f.label_row(p).iter().collect();
        assert_eq!(row, s.nodes_with_label(p), "label row {p}");
    }
    for p in PREDS_B {
        let sources: Vec<Node> = f.source_row(p).iter().collect();
        let live: Vec<Node> = s
            .nodes()
            .filter(|&u| !s.out_pred(u, p).is_empty())
            .collect();
        assert_eq!(sources, live, "source row {p}");
        let sinks: Vec<Node> = f.sink_row(p).iter().collect();
        let live: Vec<Node> = s
            .nodes()
            .filter(|&v| !s.inn_pred(v, p).is_empty())
            .collect();
        assert_eq!(sinks, live, "sink row {p}");
    }
    // Out-of-universe probes are safe and empty.
    let ghost = Node(s.node_count() as u32 + 7);
    for p in PREDS_B {
        assert!(f.out(p, ghost).is_empty());
        assert!(f.inn(p, ghost).is_empty());
    }
}

/// Every read surface of `view` equals that of `fresh` (a fresh freeze of
/// the same structure), including probes past the node universe and
/// predicates neither view holds.
fn assert_views_agree(view: &FrozenStructure, fresh: &FrozenStructure, what: &str) {
    let n = fresh.node_count();
    assert_eq!(view.node_count(), n, "{what}: node count");
    assert_eq!(view.edge_count(), fresh.edge_count(), "{what}: edge count");
    let unused_b = Pred::new("Unused");
    // Past the universe, across at least one word boundary.
    let probe = n + 70;
    for u in (0..probe as u32).map(Node) {
        for p in PREDS_B.into_iter().chain([unused_b]) {
            assert_eq!(view.out(p, u), fresh.out(p, u), "{what}: out({p}, {u:?})");
            assert_eq!(view.inn(p, u), fresh.inn(p, u), "{what}: inn({p}, {u:?})");
            // Membership where either side has an edge, plus misses on
            // both sides of the universe's end.
            let edges = view.out(p, u).iter().chain(fresh.out(p, u));
            let misses = [0, 1, n.saturating_sub(1), n, n + 1].map(|i| Node(i as u32));
            for &v in edges.chain(&misses) {
                assert_eq!(
                    view.has_edge(p, u, v),
                    fresh.has_edge(p, u, v),
                    "{what}: {p}({u:?},{v:?})"
                );
            }
        }
        for p in PREDS_U.into_iter().chain([Pred::P]) {
            assert_eq!(
                view.has_label(u, p),
                fresh.has_label(u, p),
                "{what}: {p}({u:?})"
            );
        }
    }
    // Bitmap rows agree bit for bit, universe dimension included.
    for p in PREDS_U.into_iter().chain([Pred::P]) {
        assert_eq!(
            view.label_row(p),
            fresh.label_row(p),
            "{what}: label row {p}"
        );
    }
    for p in PREDS_B.into_iter().chain([unused_b]) {
        assert_eq!(
            view.source_row(p),
            fresh.source_row(p),
            "{what}: source row {p}"
        );
        assert_eq!(view.sink_row(p), fresh.sink_row(p), "{what}: sink row {p}");
    }
}

/// Strategy: an op for the maintained-view suite. Nodes range past the
/// base universe (so inserts grow it and retracts probe beyond it); kind
/// 4 repeats the previous op — a duplicate insert or an absent retract —
/// and kind 5 undoes it, so retracts of present atoms are common too.
fn arb_step(n: u32) -> impl Strategy<Value = (u32, usize, u32, u32)> {
    (0..6u32, 0..3usize, 0..n, 0..n)
}

fn step_op(step: (u32, usize, u32, u32), prev: Option<FactOp>) -> FactOp {
    match (step.0, prev) {
        (4, Some(op)) => op,
        (5, Some(FactOp::AddLabel(p, v))) => FactOp::RemoveLabel(p, v),
        (5, Some(FactOp::RemoveLabel(p, v))) => FactOp::AddLabel(p, v),
        (5, Some(FactOp::AddEdge(p, u, v))) => FactOp::RemoveEdge(p, u, v),
        (5, Some(FactOp::RemoveEdge(p, u, v))) => FactOp::AddEdge(p, u, v),
        (kind, _) => {
            let (pi, a, b) = (step.1, Node(step.2), Node(step.3));
            match kind % 4 {
                0 => FactOp::AddLabel(PREDS_U[pi], a),
                1 => FactOp::RemoveLabel(PREDS_U[pi], a),
                2 => FactOp::AddEdge(PREDS_B[pi % 2], a, b),
                _ => FactOp::RemoveEdge(PREDS_B[pi % 2], a, b),
            }
        }
    }
}

/// The scalar one-bit oracle: a `Vec<bool>` per set, every kernel spelled
/// out bit by bit. `n` is the universe in *bits*, deliberately not a
/// multiple of 64 in most generated cases so ragged tail words are the
/// norm, not the exception.
#[derive(Clone, Debug, PartialEq)]
struct ScalarSet {
    bits: Vec<bool>,
}

impl ScalarSet {
    fn from_members(n: usize, members: &[u32]) -> (ScalarSet, NodeSet) {
        let mut bits = vec![false; n];
        let mut set = NodeSet::empty(n);
        for &m in members {
            let m = m as usize % n.max(1);
            if n > 0 {
                bits[m] = true;
                set.insert(Node(m as u32));
            }
        }
        (ScalarSet { bits }, set)
    }

    /// The word-universe of the packed set this models (bits rounded up).
    fn word_bits(&self) -> usize {
        self.bits.len().div_ceil(64) * 64
    }

    fn members(&self) -> Vec<u32> {
        (0..self.bits.len() as u32)
            .filter(|&i| self.bits[i as usize])
            .collect()
    }

    fn intersect(&mut self, other: &ScalarSet) {
        // Bits past `other`'s *word* universe clear; bits inside its tail
        // word but past its bit universe were never set on either side.
        let ow = other.word_bits();
        for i in 0..self.bits.len() {
            self.bits[i] &= i < ow && other.bits.get(i).copied().unwrap_or(false);
        }
    }

    fn difference(&mut self, other: &ScalarSet) {
        // Overhang past `other` is untouched (absent there removes nothing).
        for i in 0..self.bits.len() {
            self.bits[i] &= !other.bits.get(i).copied().unwrap_or(false);
        }
    }

    fn union(&mut self, other: &ScalarSet) {
        if other.bits.len() > self.bits.len() {
            self.bits.resize(other.bits.len(), false);
        }
        for i in 0..other.bits.len() {
            self.bits[i] |= other.bits[i];
        }
    }

    fn count_and(&self, other: &ScalarSet) -> usize {
        (0..self.bits.len().min(other.bits.len()))
            .filter(|&i| self.bits[i] && other.bits[i])
            .count()
    }

    fn first_common(&self, other: &ScalarSet) -> Option<u32> {
        (0..self.bits.len().min(other.bits.len()) as u32)
            .find(|&i| self.bits[i as usize] && other.bits[i as usize])
    }
}

/// Collect a packed set's members for comparison with the oracle.
fn packed_members(s: &NodeSet) -> Vec<u32> {
    s.iter().map(|v| v.0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random instance builds: a freeze of the result agrees with live
    /// `Structure` reads on every surface, both at the end and
    /// at an interior prefix (so frozen-of-mutated states are covered, not
    /// just frozen-of-fresh-folds).
    #[test]
    fn frozen_matches_live_reads_over_random_ops(
        ops in proptest::collection::vec(arb_op(24), 60..=120),
        cut in 10..50usize,
    ) {
        let mut s = Structure::new();
        for (step, &op) in ops.iter().enumerate() {
            s.apply(op);
            if step == cut {
                assert_frozen_agrees(&s);
            }
        }
        assert_frozen_agrees(&s);
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A view carried by `apply_all` one op at a time counts the ops that
    /// changed it as `Structure::apply_all` does and reads exactly like a
    /// fresh freeze of the folded structure after every op — through node
    /// growth, no-op ops and several overlay folds — and the clone it was
    /// carried from is left untouched.
    #[test]
    fn maintained_view_matches_fresh_freeze_after_every_op(
        base_ops in proptest::collection::vec(arb_op(24), 20..=60),
        steps in proptest::collection::vec(arb_step(60), 100..=140),
    ) {
        let mut s = Structure::with_nodes(24);
        s.apply_all(&base_ops);
        let mut view = FrozenStructure::freeze(&s);
        let folds_before = telemetry::snapshot().counter("sirup_csr_overlay_folds_total");
        let mut prev = None;
        for (i, &step) in steps.iter().enumerate() {
            let op = step_op(step, prev);
            prev = Some(op);
            let before = s.clone();
            let applied = s.apply_all(&[op]);
            let mut next = view.clone();
            prop_assert_eq!(next.apply_all(&[op]), applied, "op {} {:?}: applied count", i, op);
            assert_views_agree(&next, &FrozenStructure::freeze(&s), &format!("op {i} {op:?}"));
            assert_views_agree(&view, &FrozenStructure::freeze(&before), &format!("predecessor of op {i}"));
            view = next;
        }
        let folds = telemetry::snapshot().counter("sirup_csr_overlay_folds_total") - folds_before;
        prop_assert!(folds >= 3, "only {} overlay folds over {} ops", folds, steps.len());
    }

    /// Multi-op batches carry like the same ops one at a time: the view
    /// after each batch counts the same applied ops as the structure and
    /// reads like a fresh freeze of the folded structure.
    #[test]
    fn maintained_view_matches_fresh_freeze_across_batches(
        base_ops in proptest::collection::vec(arb_op(24), 20..=60),
        ops in proptest::collection::vec(arb_op(40), 100..=140),
        batch in 2..12usize,
    ) {
        let mut s = Structure::with_nodes(24);
        s.apply_all(&base_ops);
        let mut view = FrozenStructure::freeze(&s);
        for (i, chunk) in ops.chunks(batch).enumerate() {
            let applied = s.apply_all(chunk);
            prop_assert_eq!(view.apply_all(chunk), applied, "batch {}: applied count", i);
            assert_views_agree(&view, &FrozenStructure::freeze(&s), &format!("batch {i}"));
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Widened kernels equal the scalar one-bit oracle on ragged universes
    /// of different sizes (including the degenerate word counts 0 and 1 and
    /// sizes straddling the 4-word lane width).
    #[test]
    fn widened_kernels_match_scalar_oracle(
        na in 1..400usize,
        nb in 1..400usize,
        a_members in proptest::collection::vec(0..400u32, 0..64),
        b_members in proptest::collection::vec(0..400u32, 0..64),
    ) {
        let (oracle_a, set_a) = ScalarSet::from_members(na, &a_members);
        let (oracle_b, set_b) = ScalarSet::from_members(nb, &b_members);

        // intersect_with: result + change bit.
        let mut s = set_a.clone();
        let mut o = oracle_a.clone();
        let changed = s.intersect_with(&set_b);
        o.intersect(&oracle_b);
        prop_assert_eq!(packed_members(&s), o.members(), "intersect {} {}", na, nb);
        prop_assert_eq!(changed, packed_members(&set_a) != o.members(), "intersect changed");

        // difference_with keeps the overhang.
        let mut s = set_a.clone();
        let mut o = oracle_a.clone();
        let changed = s.difference_with(&set_b);
        o.difference(&oracle_b);
        prop_assert_eq!(packed_members(&s), o.members(), "difference {} {}", na, nb);
        prop_assert_eq!(changed, packed_members(&set_a) != o.members(), "difference changed");

        // union_with grows to cover the larger operand.
        let mut s = set_a.clone();
        let mut o = oracle_a.clone();
        let changed = s.union_with(&set_b);
        o.union(&oracle_b);
        prop_assert_eq!(packed_members(&s), o.members(), "union {} {}", na, nb);
        prop_assert_eq!(changed, packed_members(&set_a) != o.members(), "union changed");

        // count_and and first_common read without mutating.
        prop_assert_eq!(set_a.count_and(&set_b), oracle_a.count_and(&oracle_b));
        prop_assert_eq!(
            set_a.first_common(&set_b).map(|v| v.0),
            oracle_a.first_common(&oracle_b)
        );
        // Batched len agrees with the popcount of the oracle.
        prop_assert_eq!(set_a.len(), oracle_a.members().len());
    }
}
