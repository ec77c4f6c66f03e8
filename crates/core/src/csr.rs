//! CSR-style frozen read snapshots of a [`Structure`].
//!
//! The paged [`Structure`] is the right layout for *writes* (a point
//! mutation copies one page) but every adjacency read pays a page chase:
//! group spine → page `Arc` → `NodeRec` → `Vec` heap block. The hot read
//! loops — AC-3 revise, backtracking joins, fixpoint delta scans — walk
//! adjacency millions of times per request, so PR 8's snapshot-clone win
//! cost them 3–22% (measured in `BENCH_hom.json`'s PR 8 meta note).
//!
//! A [`FrozenStructure`] is the classic columnar answer: one contiguous
//! **CSR array pair per (predicate, direction)** — `offsets[n + 1]` into a
//! flat node-sorted `targets` array — plus one [`NodeSet`] bitmap row per
//! unary predicate and per binary-predicate endpoint role (sources/sinks).
//! Freezing is one pass over the structure's atoms; reads are then two
//! array indexes with no pointer chasing, and domain seeding is a handful
//! of word-parallel row intersections instead of a per-node admissibility
//! scan.
//!
//! **Maintained under deltas.** [`FrozenStructure::apply_all`] applies
//! ops to a view in O(ops), LSM-style (O'Neil et al., *The
//! Log-Structured Merge-Tree*, 1996), and a clone taken before the call
//! keeps reading as it did:
//!
//! * the base CSR arrays are `Arc`-shared between the clone and the result;
//! * each adjacency row an op touches is rewritten into a small
//!   per-(predicate, direction) overlay, guarded by a [`NodeSet`] of
//!   patched nodes — reading an unpatched row costs one bit test on top
//!   of the base slice, and a view with no overlay skips even that;
//! * label, source and sink bits flip on copy-on-write `Arc<NodeSet>`
//!   rows, grown with the node universe;
//! * an overlay that passes `1 / FOLD_FRACTION` of its base is folded
//!   back into fresh base arrays, so the fold's O(base) cost is amortised
//!   O(1) per op.
//!
//! The staleness contract: a view reads exactly like
//! [`FrozenStructure::freeze`] of the structure **as of its build or its
//! last `apply_all`**. The server catalog freezes one per instance at load
//! and carries it to every later snapshot by clone + `apply_all`, so every
//! snapshot has one; the datalog engine, the DPLL search and UCQ answer
//! sweeps freeze plain data once per evaluation (only at or above
//! [`FREEZE_EDGE_THRESHOLD`] edges, [`FrozenStructure::freeze_if_large`])
//! and read it in full mode, with the labels they derive laid over the
//! view's rows as an overlay — see [`crate::Target::with_label_rows`]. A
//! view is always read in full mode: its label rows are as current as its
//! edges.

use crate::bitset::NodeSet;
use crate::delta::FactOp;
use crate::fx::FxHashMap;
use crate::paged::PagedVec;
use crate::structure::{Node, Structure};
use crate::symbols::Pred;
use crate::telemetry::{self, Counter};
use std::sync::Arc;

/// Self-freeze gate: below this many edges a view built for one
/// evaluation costs more than the page chases it saves, so small plain
/// structures stay on live reads. Shared by the fixpoint, the DPLL search
/// and UCQ answer sweeps; a catalog snapshot always carries its view.
pub const FREEZE_EDGE_THRESHOLD: usize = 64;

/// An overlay folds into its base once its size (patched rows plus their
/// entries) exceeds `1 / FOLD_FRACTION` of the base's (`n + 1` offsets
/// plus targets). Counting the offsets means even a predicate with few
/// edges folds only every ~n / 16 patched rows.
const FOLD_FRACTION: usize = 8;

/// One predicate's adjacency in one direction: node `u`'s neighbours are
/// `targets[offsets[u] .. offsets[u + 1]]`, sorted — unless `u` has been
/// patched since the last fold, in which case its row lives in `patch`.
#[derive(Debug, Clone, Default)]
struct Adj {
    /// `node_count + 1` prefix offsets into `targets` (as of the last
    /// freeze or fold; nodes past the end read empty).
    offsets: Arc<[u32]>,
    /// Flat neighbour array, grouped by source node, sorted within a group.
    targets: Arc<[Node]>,
    /// Rows rewritten by [`FrozenStructure::apply_all`] since the last fold;
    /// behind an `Arc` so untouched adjacencies carry for a pointer bump
    /// and an unpatched one stays as compact as a bare CSR.
    patch: Option<Arc<Patch>>,
}

/// The overlay of one [`Adj`]: rows rewritten since the last fold.
#[derive(Debug, Clone)]
struct Patch {
    /// Nodes whose current row is in `rows`, not in the base arrays.
    patched: Arc<NodeSet>,
    /// The patched rows, sorted, indexed by node (empty elsewhere); paged
    /// copy-on-write, so carrying the overlay to the next view copies only
    /// the pages a write touches, and a page copy only bumps row counts.
    rows: PagedVec<Arc<[Node]>>,
    /// Patched rows plus their entries — weighed against the base to
    /// decide the fold.
    size: usize,
}

impl Adj {
    /// Build from `(key, neighbour)` pairs sorted by key (then neighbour).
    fn from_sorted(n: usize, pairs: &[(Node, Node)]) -> Adj {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(pairs.len());
        let mut i = 0usize;
        offsets.push(0);
        for u in 0..n as u32 {
            while i < pairs.len() && pairs[i].0 == Node(u) {
                targets.push(pairs[i].1);
                i += 1;
            }
            offsets.push(targets.len() as u32);
        }
        debug_assert_eq!(i, pairs.len(), "pairs reference nodes beyond n");
        Adj {
            offsets: offsets.into(),
            targets: targets.into(),
            patch: None,
        }
    }

    #[inline]
    fn row(&self, u: Node) -> &[Node] {
        if let Some(p) = &self.patch {
            if p.patched.contains_checked(u) {
                return &p.rows.get(u.index())[..];
            }
        }
        let i = u.index();
        if i + 1 >= self.offsets.len() {
            return &[];
        }
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Insert (`add`) or retract `v` in `u`'s row — a real change, never
    /// a no-op. Returns whether the row is non-empty afterwards.
    fn toggle(&mut self, u: Node, v: Node, add: bool, n: usize) -> bool {
        let mut row = self.row(u).to_vec();
        match (row.binary_search(&v), add) {
            (Err(at), true) => row.insert(at, v),
            (Ok(at), false) => {
                row.remove(at);
            }
            _ => unreachable!("the caller checked the edge's presence"),
        }
        let non_empty = !row.is_empty();
        self.set_row(u, row, n);
        non_empty
    }

    /// Put `row` into the overlay as `u`'s current row, growing the
    /// overlay to the `n`-node universe.
    fn set_row(&mut self, u: Node, row: Vec<Node>, n: usize) {
        let p = Arc::make_mut(self.patch.get_or_insert_with(|| {
            Arc::new(Patch {
                patched: Arc::new(NodeSet::empty(n)),
                rows: PagedVec::with_len(n),
                size: 0,
            })
        }));
        while p.rows.len() < n {
            p.rows.push(Arc::default());
        }
        let slot = p.rows.get_mut(u.index());
        if p.patched.contains_checked(u) {
            p.size -= slot.len();
        } else {
            // Copy the shared guard only when it gains a node.
            let patched = Arc::make_mut(&mut p.patched);
            patched.grow(n);
            patched.insert(u);
            p.size += 1;
        }
        p.size += row.len();
        *slot = row.into();
    }

    /// Rebuild the base arrays with the overlay merged in, if the overlay
    /// has outgrown its share of the base.
    fn maybe_fold(&mut self, n: usize) {
        let Some(p) = &self.patch else {
            return;
        };
        // The base is weighed at the size the fold would give it, so a
        // predicate new since the freeze does not fold on its first edge.
        if p.size * FOLD_FRACTION <= n + 1 + self.targets.len() {
            return;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(self.targets.len() + p.size);
        offsets.push(0);
        for u in 0..n as u32 {
            targets.extend_from_slice(self.row(Node(u)));
            offsets.push(targets.len() as u32);
        }
        *self = Adj {
            offsets: offsets.into(),
            targets: targets.into(),
            patch: None,
        };
        telemetry::counter_add(Counter::CsrOverlayFolds, 1);
    }

    fn heap_bytes(&self) -> usize {
        let base = self.offsets.len() * std::mem::size_of::<u32>()
            + self.targets.len() * std::mem::size_of::<Node>();
        let overlay = self.patch.as_ref().map_or(0, |p| {
            p.patched.heap_bytes()
                + p.patched.len() * std::mem::size_of::<Arc<[Node]>>()
                + p.size * std::mem::size_of::<Node>()
        });
        base + overlay
    }
}

/// A cache-friendly read snapshot of a [`Structure`]: per-pred CSR
/// adjacency in both directions, plus bitmap rows for labels and edge
/// endpoints. Built by [`FrozenStructure::freeze`], carried across
/// mutations by [`FrozenStructure::apply_all`]; see the module docs for the
/// staleness contract.
#[derive(Debug, Clone, Default)]
pub struct FrozenStructure {
    node_count: usize,
    edge_count: usize,
    out: FxHashMap<Pred, Adj>,
    inn: FxHashMap<Pred, Adj>,
    /// Nodes carrying each unary predicate.
    labels: FxHashMap<Pred, Arc<NodeSet>>,
    /// Nodes with ≥1 outgoing edge of each binary predicate.
    sources: FxHashMap<Pred, Arc<NodeSet>>,
    /// Nodes with ≥1 incoming edge of each binary predicate.
    sinks: FxHashMap<Pred, Arc<NodeSet>>,
    /// Shared empty row returned for predicates absent from the snapshot,
    /// dimensioned to the node universe so row intersections stay exact.
    empty_row: Arc<NodeSet>,
}

impl FrozenStructure {
    /// Freeze `s`: one pass over its atoms into contiguous arrays.
    pub fn freeze(s: &Structure) -> FrozenStructure {
        let n = s.node_count();
        // `Structure::edges()` yields (pred, u, v) in u-order with each
        // node's out-list sorted by (pred, target) — so grouping by pred
        // preserves (u, v) sort order for the out CSRs; the in side needs
        // a sort.
        let mut out_pairs: FxHashMap<Pred, Vec<(Node, Node)>> = FxHashMap::default();
        let mut inn_pairs: FxHashMap<Pred, Vec<(Node, Node)>> = FxHashMap::default();
        let mut sources: FxHashMap<Pred, NodeSet> = FxHashMap::default();
        let mut sinks: FxHashMap<Pred, NodeSet> = FxHashMap::default();
        let mut edge_count = 0usize;
        for (p, u, v) in s.edges() {
            edge_count += 1;
            out_pairs.entry(p).or_default().push((u, v));
            inn_pairs.entry(p).or_default().push((v, u));
            sources
                .entry(p)
                .or_insert_with(|| NodeSet::empty(n))
                .insert(u);
            sinks
                .entry(p)
                .or_insert_with(|| NodeSet::empty(n))
                .insert(v);
        }
        let mut labels: FxHashMap<Pred, NodeSet> = FxHashMap::default();
        for (p, v) in s.unary_atoms() {
            labels
                .entry(p)
                .or_insert_with(|| NodeSet::empty(n))
                .insert(v);
        }
        let out = out_pairs
            .into_iter()
            .map(|(p, pairs)| (p, Adj::from_sorted(n, &pairs)))
            .collect();
        let inn = inn_pairs
            .into_iter()
            .map(|(p, mut pairs)| {
                pairs.sort_unstable();
                (p, Adj::from_sorted(n, &pairs))
            })
            .collect();
        let shared = |rows: FxHashMap<Pred, NodeSet>| {
            rows.into_iter()
                .map(|(p, row)| (p, Arc::new(row)))
                .collect()
        };
        FrozenStructure {
            node_count: n,
            edge_count,
            out,
            inn,
            labels: shared(labels),
            sources: shared(sources),
            sinks: shared(sinks),
            empty_row: Arc::new(NodeSet::empty(n)),
        }
    }

    /// Freeze `s` if it has at least [`FREEZE_EDGE_THRESHOLD`] edges;
    /// `None` below the gate.
    pub fn freeze_if_large(s: &Structure) -> Option<FrozenStructure> {
        (s.edge_count() >= FREEZE_EDGE_THRESHOLD).then(|| FrozenStructure::freeze(s))
    }

    /// Apply `ops` in order, with [`Structure::apply_all`]'s set and
    /// node-growth semantics, and return how many changed the view. The
    /// view then reads exactly like [`FrozenStructure::freeze`] of the
    /// mutated structure. A clone taken before the call is left untouched
    /// and shares every unwritten array and row with the result, so
    /// carrying a view to the next snapshot is clone + `apply_all`: O(ops)
    /// apart from the amortised overlay folds.
    pub fn apply_all(&mut self, ops: &[FactOp]) -> usize {
        let applied = ops.iter().filter(|&&op| self.apply_op(op)).count();
        let n = self.node_count;
        for adj in self.out.values_mut().chain(self.inn.values_mut()) {
            adj.maybe_fold(n);
        }
        applied
    }

    /// Apply one op; `true` iff the view changed.
    fn apply_op(&mut self, op: FactOp) -> bool {
        match op {
            FactOp::AddLabel(p, v) => {
                self.grow(v.index() + 1);
                set_bit(&mut self.labels, p, v, self.node_count, true)
            }
            FactOp::RemoveLabel(p, v) => set_bit(&mut self.labels, p, v, self.node_count, false),
            FactOp::AddEdge(p, u, v) | FactOp::RemoveEdge(p, u, v) => {
                let add = op.is_insert();
                if add {
                    self.grow(u.max(v).index() + 1);
                }
                if self.has_edge(p, u, v) == add {
                    return false; // set semantics: a duplicate insert or absent retract
                }
                let n = self.node_count;
                if add {
                    self.edge_count += 1;
                } else {
                    self.edge_count -= 1;
                }
                let has_out = self.out.entry(p).or_default().toggle(u, v, add, n);
                let has_inn = self.inn.entry(p).or_default().toggle(v, u, add, n);
                set_bit(&mut self.sources, p, u, n, has_out);
                set_bit(&mut self.sinks, p, v, n, has_inn);
                true
            }
        }
    }

    /// Grow the node universe to at least `n`, re-dimensioning every
    /// bitmap row when the universe needs another word.
    fn grow(&mut self, n: usize) {
        if n <= self.node_count {
            return;
        }
        let widened = n.div_ceil(64) > self.node_count.div_ceil(64);
        self.node_count = n;
        if widened {
            for row in self
                .labels
                .values_mut()
                .chain(self.sources.values_mut())
                .chain(self.sinks.values_mut())
            {
                Arc::make_mut(row).grow(n);
            }
            self.empty_row = Arc::new(NodeSet::empty(n));
        }
    }

    /// Node count of the frozen snapshot (for staleness assertions).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of binary atoms in the snapshot.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// All `v` with `p(u, v)`, sorted — a contiguous slice, no page chase.
    #[inline]
    pub fn out(&self, p: Pred, u: Node) -> &[Node] {
        self.out.get(&p).map_or(&[], |a| a.row(u))
    }

    /// All `u` with `p(u, v)`, sorted.
    #[inline]
    pub fn inn(&self, p: Pred, v: Node) -> &[Node] {
        self.inn.get(&p).map_or(&[], |a| a.row(v))
    }

    /// Does `p(u, v)` hold (by the frozen snapshot)?
    #[inline]
    pub fn has_edge(&self, p: Pred, u: Node, v: Node) -> bool {
        self.out(p, u).binary_search(&v).is_ok()
    }

    /// Is node `v` labelled `p` (by the frozen snapshot)? `false` for a
    /// node past the universe.
    #[inline]
    pub fn has_label(&self, v: Node, p: Pred) -> bool {
        self.labels
            .get(&p)
            .is_some_and(|row| row.contains_checked(v))
    }

    /// Bitmap row of nodes labelled `p` (empty row if the predicate is
    /// absent). Dimensioned to the node universe, so it can be intersected
    /// directly into a candidate domain.
    #[inline]
    pub fn label_row(&self, p: Pred) -> &NodeSet {
        self.labels.get(&p).unwrap_or(&self.empty_row)
    }

    /// Bitmap row of nodes with an outgoing `p`-edge.
    #[inline]
    pub fn source_row(&self, p: Pred) -> &NodeSet {
        self.sources.get(&p).unwrap_or(&self.empty_row)
    }

    /// Bitmap row of nodes with an incoming `p`-edge.
    #[inline]
    pub fn sink_row(&self, p: Pred) -> &NodeSet {
        self.sinks.get(&p).unwrap_or(&self.empty_row)
    }

    /// Approximate heap bytes reachable from the view (base arrays shared
    /// with other views count fully) — what the catalog reports as "CSR
    /// cache" next to the copy-on-write sharing stats.
    pub fn retained_bytes(&self) -> usize {
        let adj: usize = self
            .out
            .values()
            .chain(self.inn.values())
            .map(Adj::heap_bytes)
            .sum();
        let rows: usize = [&self.labels, &self.sources, &self.sinks]
            .iter()
            .flat_map(|m| m.values())
            .chain(std::iter::once(&self.empty_row))
            .map(|row| row.heap_bytes())
            .sum();
        adj + rows
    }
}

/// Set (`on`) or clear `v`'s bit in `p`'s row of `rows`, copying the row
/// first only if the bit actually changes and the row is shared. A new
/// row is dimensioned to the `n`-node universe. Returns whether the bit
/// changed.
fn set_bit(rows: &mut FxHashMap<Pred, Arc<NodeSet>>, p: Pred, v: Node, n: usize, on: bool) -> bool {
    if on {
        let row = rows.entry(p).or_insert_with(|| Arc::new(NodeSet::empty(n)));
        if row.contains(v) {
            return false;
        }
        Arc::make_mut(row).insert(v);
        true
    } else if let Some(row) = rows.get_mut(&p).filter(|row| row.contains_checked(v)) {
        Arc::make_mut(row).remove(v);
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::st;

    #[test]
    fn freeze_matches_structure_reads() {
        let s = st("F(a), T(c), R(a,b), R(a,c), R(b,c), S(c,a)");
        let f = FrozenStructure::freeze(&s);
        assert_eq!(f.node_count(), s.node_count());
        assert_eq!(f.edge_count(), s.edge_count());
        for v in s.nodes() {
            for p in [Pred::F, Pred::T, Pred::A] {
                assert_eq!(f.has_label(v, p), s.has_label(v, p));
                assert_eq!(f.label_row(p).contains(v), s.has_label(v, p));
            }
            for p in [Pred::R, Pred::S] {
                let out: Vec<Node> = s.out_pred(v, p).iter().map(|&(_, t)| t).collect();
                assert_eq!(f.out(p, v), out.as_slice());
                let inn: Vec<Node> = s.inn_pred(v, p).iter().map(|&(_, t)| t).collect();
                assert_eq!(f.inn(p, v), inn.as_slice());
                assert_eq!(f.source_row(p).contains(v), !out.is_empty());
                assert_eq!(f.sink_row(p).contains(v), !inn.is_empty());
                for w in s.nodes() {
                    assert_eq!(f.has_edge(p, v, w), s.has_edge(p, v, w));
                }
            }
        }
        assert!(f.retained_bytes() > 0);
    }

    #[test]
    fn absent_predicates_read_empty() {
        let f = FrozenStructure::freeze(&st("T(a)"));
        assert!(f.out(Pred::R, Node(0)).is_empty());
        assert!(f.inn(Pred::R, Node(0)).is_empty());
        assert!(!f.has_edge(Pred::R, Node(0), Node(0)));
        assert!(f.source_row(Pred::R).is_empty());
        assert!(f.label_row(Pred::F).is_empty());
        // Out-of-range nodes (stale callers) read empty, not panic.
        assert!(f.out(Pred::R, Node(99)).is_empty());
    }

    #[test]
    fn apply_all_shares_the_base_and_leaves_a_clone_alone() {
        let s = st("F(a), R(a,b), R(b,c), S(c,a)");
        let f = FrozenStructure::freeze(&s);
        let mut g = f.clone();
        let applied = g.apply_all(&[
            FactOp::AddEdge(Pred::R, Node(0), Node(2)),
            FactOp::AddEdge(Pred::R, Node(0), Node(2)), // duplicate: no-op
            FactOp::RemoveLabel(Pred::F, Node(0)),
            FactOp::RemoveLabel(Pred::A, Node(0)), // absent: no-op
            FactOp::AddLabel(Pred::T, Node(4)),    // grows the universe
        ]);
        assert_eq!(applied, 3);
        // Untouched arrays are the same allocations, not copies (R's tiny
        // base folds at once, so only S's stays shared here).
        assert!(Arc::ptr_eq(
            &f.out[&Pred::S].targets,
            &g.out[&Pred::S].targets
        ));
        assert!(Arc::ptr_eq(
            &f.inn[&Pred::S].offsets,
            &g.inn[&Pred::S].offsets
        ));
        assert_eq!(g.out(Pred::R, Node(0)), &[Node(1), Node(2)]);
        assert_eq!(g.inn(Pred::R, Node(2)), &[Node(0), Node(1)]);
        assert!(!g.has_label(Node(0), Pred::F));
        assert!(g.has_label(Node(4), Pred::T));
        assert_eq!((g.node_count(), g.edge_count()), (5, 4));
        // The source view still reads as before.
        assert_eq!(f.out(Pred::R, Node(0)), &[Node(1)]);
        assert!(f.has_label(Node(0), Pred::F));
        assert!(!f.has_label(Node(4), Pred::T));
        assert_eq!((f.node_count(), f.edge_count()), (3, 3));
    }

    #[test]
    fn empty_structure_freezes() {
        let f = FrozenStructure::freeze(&Structure::new());
        assert_eq!(f.node_count(), 0);
        assert_eq!(f.edge_count(), 0);
    }
}
