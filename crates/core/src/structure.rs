//! Finite relational structures with unary and binary predicates.
//!
//! A [`Structure`] plays every structural role in the paper: a Boolean CQ `q`
//! (nodes = variables), a data instance `D` (nodes = constants), a cactus
//! `C ∈ 𝔎_q`, and the blow-ups `¯ℌ` of type graphs in §4. Keeping one type
//! means the homomorphism engine in `sirup-hom` has a single code path.
//!
//! Invariants maintained by all mutating methods:
//! * per-node label lists are sorted and duplicate-free,
//! * per-node adjacency lists are sorted and duplicate-free (the structure is
//!   a set of atoms, so parallel identical edges collapse).
//!
//! Storage is paged ([`crate::paged::PagedVec`]): each node's record — its
//! label list plus out/in adjacency, bundled so every read about one node
//! shares a single page chase — lives in an `Arc`-shared page of
//! [`crate::paged::PAGE_NODES`] records, with pages grouped under
//! `Arc`-shared group spines. `clone` is O(groups) pointer bumps and a
//! point mutation copies one group spine plus the touched page. This is
//! what makes the server catalog's snapshot-per-mutation scheme O(touched)
//! instead of O(instance).

use crate::paged::{HeapBytes, PagedVec, PAGE_NODES};
use crate::symbols::Pred;
use std::fmt;

/// A node of a [`Structure`] (a variable of a CQ or a constant of a data
/// instance). Dense `u32` index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Node(pub u32);

impl Node {
    /// The index of this node in its structure's dense node range.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Everything a [`Structure`] stores about one node: its sorted label
/// list and both adjacency directions. Keeping the three lists in one
/// record means every read of a node shares one page lookup and its
/// lists sit on the same cache line(s).
#[derive(Clone, PartialEq, Eq, Default, Debug)]
struct NodeRec {
    labels: Vec<Pred>,
    out: Vec<(Pred, Node)>,
    inn: Vec<(Pred, Node)>,
}

impl HeapBytes for NodeRec {
    fn heap_bytes(&self) -> usize {
        self.labels.heap_bytes() + self.out.heap_bytes() + self.inn.heap_bytes()
    }
}

/// A finite relational structure over unary and binary predicates.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Structure {
    nodes: PagedVec<NodeRec>,
    edge_count: usize,
    label_count: usize,
}

impl Structure {
    /// The empty structure.
    pub fn new() -> Structure {
        Structure::default()
    }

    /// A structure with `n` unlabeled, disconnected nodes.
    pub fn with_nodes(n: usize) -> Structure {
        Structure {
            nodes: PagedVec::with_len(n),
            edge_count: 0,
            label_count: 0,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of distinct binary atoms.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of distinct unary atoms (maintained as a counter; `size()`
    /// and stats hit this on hot paths).
    #[inline]
    pub fn label_count(&self) -> usize {
        self.label_count
    }

    /// Total atom count (unary + binary), the paper's `|q|`.
    pub fn size(&self) -> usize {
        self.label_count() + self.edge_count
    }

    /// Iterate over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = Node> + '_ {
        (0..self.nodes.len() as u32).map(Node)
    }

    /// Add a fresh node and return it.
    pub fn add_node(&mut self) -> Node {
        let id = Node(self.nodes.len() as u32);
        self.nodes.push(NodeRec::default());
        id
    }

    /// Number of storage pages (one page holds every list of
    /// [`PAGE_NODES`] nodes).
    pub fn page_count(&self) -> usize {
        self.nodes.page_count()
    }

    /// Pages physically shared with `other` — the structural sharing
    /// between two snapshots related by mutation.
    pub fn shared_pages_with(&self, other: &Structure) -> usize {
        self.nodes.shared_pages_with(&other.nodes)
    }

    /// Approximate retained heap bytes (shared pages counted fully),
    /// estimated in O(1) from the maintained counters — the catalog
    /// measures every snapshot on the mutation hot path, so an exact
    /// every-element walk is off the table.
    pub fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        // Page buffers hold the per-node records inline.
        let pages = self.page_count() * (PAGE_NODES * size_of::<NodeRec>() + size_of::<usize>());
        // Atom payloads (lengths, not capacities).
        let atoms =
            self.label_count * size_of::<Pred>() + 2 * self.edge_count * size_of::<(Pred, Node)>();
        pages + atoms
    }

    /// Approximate heap bytes the *live* facts would occupy stored flat —
    /// atom payloads plus one record header per node, with no page
    /// granularity and no copy-on-write retention. The gap between
    /// [`Structure::retained_bytes`] (what a snapshot actually holds, with
    /// shared pages counted fully) and this figure is the storage cost of
    /// versioning: what a version-GC pass could reclaim at most. O(1) from
    /// the maintained counters.
    pub fn live_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.len() * size_of::<NodeRec>()
            + self.label_count * size_of::<Pred>()
            + 2 * self.edge_count * size_of::<(Pred, Node)>()
    }

    /// Add `k` fresh nodes, returning the first.
    pub fn add_nodes(&mut self, k: usize) -> Node {
        let first = Node(self.nodes.len() as u32);
        for _ in 0..k {
            self.add_node();
        }
        first
    }

    /// Add the unary atom `p(v)`. Returns `false` if already present.
    pub fn add_label(&mut self, v: Node, p: Pred) -> bool {
        if self.nodes.get(v.index()).labels.binary_search(&p).is_ok() {
            return false;
        }
        let ls = &mut self.nodes.get_mut(v.index()).labels;
        let pos = ls.binary_search(&p).unwrap_err();
        ls.insert(pos, p);
        self.label_count += 1;
        true
    }

    /// Remove the unary atom `p(v)` if present.
    pub fn remove_label(&mut self, v: Node, p: Pred) -> bool {
        let Ok(pos) = self.nodes.get(v.index()).labels.binary_search(&p) else {
            return false;
        };
        self.nodes.get_mut(v.index()).labels.remove(pos);
        self.label_count -= 1;
        true
    }

    /// Does the unary atom `p(v)` hold?
    #[inline]
    pub fn has_label(&self, v: Node, p: Pred) -> bool {
        self.nodes.get(v.index()).labels.binary_search(&p).is_ok()
    }

    /// All unary predicates of `v`, sorted.
    #[inline]
    pub fn labels(&self, v: Node) -> &[Pred] {
        &self.nodes.get(v.index()).labels
    }

    /// Add the binary atom `p(u, v)`. Returns `false` if already present.
    pub fn add_edge(&mut self, p: Pred, u: Node, v: Node) -> bool {
        if self.nodes.get(u.index()).out.binary_search(&(p, v)).is_ok() {
            return false;
        }
        let o = &mut self.nodes.get_mut(u.index()).out;
        let pos = o.binary_search(&(p, v)).unwrap_err();
        o.insert(pos, (p, v));
        let i = &mut self.nodes.get_mut(v.index()).inn;
        let ipos = i.binary_search(&(p, u)).unwrap_err();
        i.insert(ipos, (p, u));
        self.edge_count += 1;
        true
    }

    /// Remove the binary atom `p(u, v)` if present.
    pub fn remove_edge(&mut self, p: Pred, u: Node, v: Node) -> bool {
        let Ok(pos) = self.nodes.get(u.index()).out.binary_search(&(p, v)) else {
            return false;
        };
        self.nodes.get_mut(u.index()).out.remove(pos);
        let i = &mut self.nodes.get_mut(v.index()).inn;
        let ipos = i.binary_search(&(p, u)).expect("in-list mirrors out-list");
        i.remove(ipos);
        self.edge_count -= 1;
        true
    }

    /// Does the binary atom `p(u, v)` hold?
    #[inline]
    pub fn has_edge(&self, p: Pred, u: Node, v: Node) -> bool {
        self.nodes.get(u.index()).out.binary_search(&(p, v)).is_ok()
    }

    /// Out-neighbourhood of `u` as `(pred, target)` pairs, sorted.
    #[inline]
    pub fn out(&self, u: Node) -> &[(Pred, Node)] {
        &self.nodes.get(u.index()).out
    }

    /// In-neighbourhood of `v` as `(pred, source)` pairs, sorted.
    #[inline]
    pub fn inn(&self, v: Node) -> &[(Pred, Node)] {
        &self.nodes.get(v.index()).inn
    }

    /// The sub-slice of `u`'s out-neighbourhood carrying predicate `p`
    /// (adjacency lists are sorted by `(pred, node)`).
    #[inline]
    pub fn out_pred(&self, u: Node, p: Pred) -> &[(Pred, Node)] {
        pred_slice(self.out(u), p)
    }

    /// The sub-slice of `v`'s in-neighbourhood carrying predicate `p`.
    #[inline]
    pub fn inn_pred(&self, v: Node, p: Pred) -> &[(Pred, Node)] {
        pred_slice(self.inn(v), p)
    }

    /// Sorted, deduplicated predicates of `u`'s outgoing edges.
    pub fn out_preds(&self, u: Node) -> Vec<Pred> {
        distinct_preds(self.out(u))
    }

    /// Sorted, deduplicated predicates of `v`'s incoming edges.
    pub fn in_preds(&self, v: Node) -> Vec<Pred> {
        distinct_preds(self.inn(v))
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: Node) -> usize {
        self.nodes.get(u.index()).out.len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: Node) -> usize {
        self.nodes.get(v.index()).inn.len()
    }

    /// Iterate over all binary atoms `(p, u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (Pred, Node, Node)> + '_ {
        self.nodes()
            .flat_map(move |u| self.out(u).iter().map(move |&(p, v)| (p, u, v)))
    }

    /// Iterate over all unary atoms `(p, v)`.
    pub fn unary_atoms(&self) -> impl Iterator<Item = (Pred, Node)> + '_ {
        self.nodes()
            .flat_map(move |v| self.labels(v).iter().map(move |&p| (p, v)))
    }

    /// All nodes carrying label `p`.
    pub fn nodes_with_label(&self, p: Pred) -> Vec<Node> {
        self.nodes().filter(|&v| self.has_label(v, p)).collect()
    }

    /// Sorted, deduplicated list of binary predicates that occur.
    pub fn binary_preds(&self) -> Vec<Pred> {
        let mut ps: Vec<Pred> = self.edges().map(|(p, _, _)| p).collect();
        ps.sort_unstable();
        ps.dedup();
        ps
    }

    /// Sorted, deduplicated list of unary predicates that occur.
    pub fn unary_preds(&self) -> Vec<Pred> {
        let mut ps: Vec<Pred> = self.unary_atoms().map(|(p, _)| p).collect();
        ps.sort_unstable();
        ps.dedup();
        ps
    }

    /// Append a disjoint copy of `other`; returns the node offset, i.e. node
    /// `v` of `other` becomes `Node(offset + v.0)` here.
    pub fn append(&mut self, other: &Structure) -> u32 {
        let offset = self.node_count() as u32;
        for v in other.nodes() {
            let nv = self.add_node();
            for &p in other.labels(v) {
                self.add_label(nv, p);
            }
        }
        for (p, u, v) in other.edges() {
            self.add_edge(p, Node(offset + u.0), Node(offset + v.0));
        }
        offset
    }

    /// Quotient by the (total) node map `map`: node `v` of `self` becomes
    /// `map[v]` in a fresh structure with `new_count` nodes. Atoms are
    /// transported; merged nodes union their atoms.
    pub fn quotient(&self, map: &[Node], new_count: usize) -> Structure {
        assert_eq!(map.len(), self.node_count());
        let mut s = Structure::with_nodes(new_count);
        for (p, v) in self.unary_atoms() {
            s.add_label(map[v.index()], p);
        }
        for (p, u, v) in self.edges() {
            s.add_edge(p, map[u.index()], map[v.index()]);
        }
        s
    }

    /// Induced substructure on the nodes where `keep` is true.
    /// Returns the substructure and, for each old node, its new id (or `None`).
    pub fn induced(&self, keep: &[bool]) -> (Structure, Vec<Option<Node>>) {
        assert_eq!(keep.len(), self.node_count());
        let mut map: Vec<Option<Node>> = vec![None; self.node_count()];
        let mut s = Structure::new();
        for v in self.nodes() {
            if keep[v.index()] {
                map[v.index()] = Some(s.add_node());
            }
        }
        for (p, v) in self.unary_atoms() {
            if let Some(nv) = map[v.index()] {
                s.add_label(nv, p);
            }
        }
        for (p, u, v) in self.edges() {
            if let (Some(nu), Some(nv)) = (map[u.index()], map[v.index()]) {
                s.add_edge(p, nu, nv);
            }
        }
        (s, map)
    }

    /// The image substructure of `self` under a candidate hom `map` into a
    /// structure with `target_nodes` nodes: which target nodes are touched.
    pub fn image_mask(map: &[Node], target_nodes: usize) -> Vec<bool> {
        let mut mask = vec![false; target_nodes];
        for &v in map {
            mask[v.index()] = true;
        }
        mask
    }

    /// Check that `map` is a homomorphism `self → target` (label- and
    /// edge-preserving). Used as a test oracle for the search engine.
    pub fn is_hom(&self, target: &Structure, map: &[Node]) -> bool {
        if map.len() != self.node_count() {
            return false;
        }
        for (p, v) in self.unary_atoms() {
            if !target.has_label(map[v.index()], p) {
                return false;
            }
        }
        for (p, u, v) in self.edges() {
            if !target.has_edge(p, map[u.index()], map[v.index()]) {
                return false;
            }
        }
        true
    }
}

/// The sub-slice of a sorted `(pred, node)` adjacency list carrying `p`.
#[inline]
fn pred_slice(adj: &[(Pred, Node)], p: Pred) -> &[(Pred, Node)] {
    let lo = adj.partition_point(|&(q, _)| q < p);
    let hi = adj.partition_point(|&(q, _)| q <= p);
    &adj[lo..hi]
}

/// Sorted, deduplicated predicates of a sorted adjacency list.
fn distinct_preds(adj: &[(Pred, Node)]) -> Vec<Pred> {
    let mut ps: Vec<Pred> = adj.iter().map(|&(p, _)| p).collect();
    ps.dedup(); // sorted by (pred, node) ⇒ equal preds are adjacent
    ps
}

impl fmt::Debug for Structure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Structure {
    /// Render as a comma-separated list of atoms, e.g. `F(n0), R(n0,n1)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if first {
                first = false;
                Ok(())
            } else {
                write!(f, ", ")
            }
        };
        for (p, v) in self.unary_atoms() {
            sep(f)?;
            write!(f, "{p}(n{})", v.0)?;
        }
        for (p, u, v) in self.edges() {
            sep(f)?;
            write!(f, "{p}(n{},n{})", u.0, v.0)?;
        }
        if first {
            write!(f, "⊤")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Structure {
        // F(0), R(0,1), R(1,2), T(2)
        let mut s = Structure::with_nodes(3);
        s.add_label(Node(0), Pred::F);
        s.add_label(Node(2), Pred::T);
        s.add_edge(Pred::R, Node(0), Node(1));
        s.add_edge(Pred::R, Node(1), Node(2));
        s
    }

    #[test]
    fn counts_and_membership() {
        let s = path3();
        assert_eq!(s.node_count(), 3);
        assert_eq!(s.edge_count(), 2);
        assert_eq!(s.label_count(), 2);
        assert_eq!(s.size(), 4);
        assert!(s.has_label(Node(0), Pred::F));
        assert!(!s.has_label(Node(1), Pred::F));
        assert!(s.has_edge(Pred::R, Node(0), Node(1)));
        assert!(!s.has_edge(Pred::R, Node(1), Node(0)));
        assert!(!s.has_edge(Pred::S, Node(0), Node(1)));
    }

    #[test]
    fn remove_edge_keeps_adjacency_consistent() {
        let mut s = path3();
        assert!(s.remove_edge(Pred::R, Node(0), Node(1)));
        assert!(!s.remove_edge(Pred::R, Node(0), Node(1)));
        assert!(!s.remove_edge(Pred::S, Node(1), Node(2)));
        assert_eq!(s.edge_count(), 1);
        assert!(s.out(Node(0)).is_empty());
        assert!(s.inn(Node(1)).is_empty());
        assert!(s.has_edge(Pred::R, Node(1), Node(2)));
    }

    #[test]
    fn atoms_are_sets() {
        let mut s = path3();
        assert!(!s.add_edge(Pred::R, Node(0), Node(1)));
        assert!(!s.add_label(Node(0), Pred::F));
        assert_eq!(s.edge_count(), 2);
        assert_eq!(s.label_count(), 2);
    }

    #[test]
    fn snapshots_share_pages() {
        let mut s = Structure::with_nodes(300);
        for i in 0..299u32 {
            s.add_edge(Pred::R, Node(i), Node(i + 1));
        }
        let snap = s.clone();
        assert_eq!(s.shared_pages_with(&snap), s.page_count());
        assert_eq!(s, snap);
        // A point write diverges only the touched page per column.
        s.add_label(Node(5), Pred::F);
        assert!(s.shared_pages_with(&snap) >= s.page_count() - 1);
        assert_eq!(snap.label_count(), 0, "snapshot is untouched");
        assert_eq!(s.label_count(), 1);
        assert_ne!(s, snap);
        assert!(s.retained_bytes() > 0);
    }

    #[test]
    fn adjacency_is_consistent() {
        let s = path3();
        assert_eq!(s.out(Node(0)), &[(Pred::R, Node(1))]);
        assert_eq!(s.inn(Node(1)), &[(Pred::R, Node(0))]);
        assert_eq!(s.out_degree(Node(1)), 1);
        assert_eq!(s.in_degree(Node(2)), 1);
        assert_eq!(s.edges().count(), 2);
    }

    #[test]
    fn append_offsets_nodes() {
        let mut s = path3();
        let off = s.append(&path3());
        assert_eq!(off, 3);
        assert_eq!(s.node_count(), 6);
        assert!(s.has_edge(Pred::R, Node(3), Node(4)));
        assert!(s.has_label(Node(5), Pred::T));
        assert!(!s.has_edge(Pred::R, Node(2), Node(3)));
    }

    #[test]
    fn quotient_merges_atoms() {
        let s = path3();
        // Merge node 0 and node 2 into node 0 of a 2-node structure.
        let map = vec![Node(0), Node(1), Node(0)];
        let q = s.quotient(&map, 2);
        assert_eq!(q.node_count(), 2);
        assert!(q.has_label(Node(0), Pred::F));
        assert!(q.has_label(Node(0), Pred::T));
        assert!(q.has_edge(Pred::R, Node(0), Node(1)));
        assert!(q.has_edge(Pred::R, Node(1), Node(0)));
    }

    #[test]
    fn induced_substructure() {
        let s = path3();
        let (sub, map) = s.induced(&[true, true, false]);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.edge_count(), 1);
        assert!(map[2].is_none());
        assert!(sub.has_label(map[0].unwrap(), Pred::F));
    }

    #[test]
    fn is_hom_oracle() {
        let s = path3();
        // Identity is a hom.
        assert!(s.is_hom(&s, &[Node(0), Node(1), Node(2)]));
        // Swapping ends is not.
        assert!(!s.is_hom(&s, &[Node(2), Node(1), Node(0)]));
    }

    #[test]
    fn display_smoke() {
        let s = path3();
        let d = format!("{s}");
        assert!(d.contains("F(n0)"));
        assert!(d.contains("R(n1,n2)"));
        assert_eq!(format!("{}", Structure::new()), "⊤");
    }
}
