//! Differential proptests: the paged, structurally-shared `Structure`
//! storage is pinned against a deliberately naive dense model (plain
//! `Vec<Vec<_>>` per-node lists — the representation the storage refactor
//! replaced). Random `FactOp` sequences of ≥100 ops are applied op by op;
//! after every op the paged structure must agree with the dense oracle on
//! all read surfaces (`out`/`inn`/`labels`/`edges`, label and edge
//! counts), and the mutated structure must equal the fold of the op prefix
//! into a fresh structure — which also pins the canonical page layout
//! behind derived `PartialEq`.

use proptest::prelude::*;
use sirup_core::{FactOp, Node, Pred, Structure};

const PREDS_U: [Pred; 3] = [Pred::F, Pred::T, Pred::A];
const PREDS_B: [Pred; 2] = [Pred::R, Pred::S];

/// The legacy dense representation, kept only as this oracle: per-node
/// sorted lists with the same set/no-op and node-growth semantics as
/// `Structure::apply`.
#[derive(Default)]
struct DenseStructure {
    labels: Vec<Vec<Pred>>,
    out: Vec<Vec<(Pred, Node)>>,
    inn: Vec<Vec<(Pred, Node)>>,
}

impl DenseStructure {
    fn ensure(&mut self, v: Node) {
        while self.labels.len() <= v.index() {
            self.labels.push(Vec::new());
            self.out.push(Vec::new());
            self.inn.push(Vec::new());
        }
    }

    fn apply(&mut self, op: FactOp) -> bool {
        match op {
            FactOp::AddLabel(p, v) => {
                self.ensure(v);
                insert_sorted(&mut self.labels[v.index()], p)
            }
            FactOp::RemoveLabel(p, v) => {
                v.index() < self.labels.len() && remove_sorted(&mut self.labels[v.index()], p)
            }
            FactOp::AddEdge(p, u, v) => {
                self.ensure(u.max(v));
                if insert_sorted(&mut self.out[u.index()], (p, v)) {
                    insert_sorted(&mut self.inn[v.index()], (p, u));
                    true
                } else {
                    false
                }
            }
            FactOp::RemoveEdge(p, u, v) => {
                u.index() < self.labels.len()
                    && v.index() < self.labels.len()
                    && remove_sorted(&mut self.out[u.index()], (p, v))
                    && remove_sorted(&mut self.inn[v.index()], (p, u))
            }
        }
    }
}

fn insert_sorted<T: Ord>(list: &mut Vec<T>, x: T) -> bool {
    match list.binary_search(&x) {
        Ok(_) => false,
        Err(pos) => {
            list.insert(pos, x);
            true
        }
    }
}

fn remove_sorted<T: Ord>(list: &mut Vec<T>, x: T) -> bool {
    match list.binary_search(&x) {
        Ok(pos) => {
            list.remove(pos);
            true
        }
        Err(_) => false,
    }
}

/// Strategy: one random op over a node universe of `n` (ops may reference
/// one node past the current structure, exercising node growth).
fn arb_op(n: u32) -> impl Strategy<Value = FactOp> {
    (0..4u32, 0..3usize, 0..n, 0..n).prop_map(|(kind, pi, a, b)| match kind {
        0 => FactOp::AddLabel(PREDS_U[pi], Node(a)),
        1 => FactOp::RemoveLabel(PREDS_U[pi], Node(a)),
        2 => FactOp::AddEdge(PREDS_B[pi % 2], Node(a), Node(b)),
        _ => FactOp::RemoveEdge(PREDS_B[pi % 2], Node(a), Node(b)),
    })
}

/// Full read-surface agreement between the paged structure and the dense
/// oracle.
fn assert_agrees(step: usize, op: FactOp, s: &Structure, dense: &DenseStructure) {
    assert_eq!(s.node_count(), dense.labels.len(), "step {step}: {op}");
    for i in 0..dense.labels.len() {
        let v = Node(i as u32);
        assert_eq!(s.labels(v), dense.labels[i].as_slice(), "step {step}: {op}");
        assert_eq!(s.out(v), dense.out[i].as_slice(), "step {step}: {op}");
        assert_eq!(s.inn(v), dense.inn[i].as_slice(), "step {step}: {op}");
    }
    let edges: Vec<(Pred, Node, Node)> = s.edges().collect();
    let dense_edges: Vec<(Pred, Node, Node)> = dense
        .out
        .iter()
        .enumerate()
        .flat_map(|(i, adj)| adj.iter().map(move |&(p, v)| (p, Node(i as u32), v)))
        .collect();
    assert_eq!(edges, dense_edges, "step {step}: {op}");
    assert_eq!(
        s.label_count(),
        dense.labels.iter().map(Vec::len).sum::<usize>(),
        "step {step}: {op}"
    );
    assert_eq!(s.edge_count(), dense_edges.len(), "step {step}: {op}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// ≥100 random ops, checked after every op: paged reads equal the
    /// dense oracle, and the mutated structure equals the from-scratch fold
    /// of the op prefix.
    #[test]
    fn paged_storage_matches_dense_oracle(
        ops in proptest::collection::vec(arb_op(24), 100..=160),
    ) {
        let mut s = Structure::new();
        let mut dense = DenseStructure::default();
        for (step, &op) in ops.iter().enumerate() {
            let changed_s = s.apply(op);
            prop_assert_eq!(changed_s, dense.apply(op), "step {}: {}", step, op);
            assert_agrees(step, op, &s, &dense);
            // Folded snapshot: replaying the prefix from scratch lands on
            // an equal structure — same content AND same canonical page
            // layout (derived PartialEq compares page-wise).
            let mut folded = Structure::new();
            folded.apply_all(&ops[..=step]);
            prop_assert_eq!(&folded, &s, "fold diverged at step {}: {}", step, op);
        }
    }

    /// Snapshot chains stay independent: every per-op clone keeps its own
    /// version of history while sharing untouched pages with its successor.
    #[test]
    fn snapshot_chain_preserves_history(
        ops in proptest::collection::vec(arb_op(16), 100..=120),
    ) {
        let mut s = Structure::new();
        let mut snapshots: Vec<(usize, Structure)> = Vec::new();
        for (step, &op) in ops.iter().enumerate() {
            s.apply(op);
            if step % 10 == 0 {
                snapshots.push((step, s.clone()));
            }
        }
        for &(step, ref snap) in &snapshots {
            let mut folded = Structure::new();
            folded.apply_all(&ops[..=step]);
            prop_assert_eq!(&folded, snap, "snapshot at step {} diverged", step);
        }
    }
}
