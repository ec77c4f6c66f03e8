//! The [`Cactus`] type: expansions of `(Π_q, G)` as labelled digraphs.
//!
//! A cactus consists of *segments* — copies of (maximal subsets of) `q` —
//! glued by the (bud) rule: budding a solitary `T(y)` in segment `𝔰` strips
//! the `T`, labels `y` with `A`, and attaches a fresh copy of `q⁻` whose
//! focus **is** `y` and whose own solitary `T`s are intact. The *skeleton*
//! `C^s` is the ditree of segments with edges labelled by which solitary `T`
//! was budded — for span-2 CQs this is exactly the paper's 01-tree view.

use sirup_core::{Node, OneCq, Pred, Structure};

/// One segment of a cactus: a copy of `q` inside the cactus structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// For each node of `q`, the corresponding cactus node. The focus maps
    /// to the gluing point (`r` for the root segment).
    pub map: Vec<Node>,
    /// Parent segment and the solitary-`T` index we were budded at, or
    /// `None` for the root segment.
    pub parent: Option<(usize, usize)>,
    /// Depth in the skeleton (root segment = 0).
    pub depth: u32,
    /// For each solitary-`T` index of `q`: the child segment budded there.
    pub buds: Vec<Option<usize>>,
}

/// A cactus `C ∈ 𝔎_q` for a 1-CQ `q`.
#[derive(Debug, Clone)]
pub struct Cactus {
    q: OneCq,
    /// `q⁻`, computed once: every bud attaches a copy of it.
    q_minus: Structure,
    s: Structure,
    segments: Vec<Segment>,
}

impl Cactus {
    /// The initial cactus `C_G = q` (root segment only).
    pub fn root(q: &OneCq) -> Cactus {
        let s = q.structure().clone();
        let span = q.span();
        let seg = Segment {
            map: s.nodes().collect(),
            parent: None,
            depth: 0,
            buds: vec![None; span],
        };
        Cactus {
            q: q.clone(),
            q_minus: q.q_minus(),
            s,
            segments: vec![seg],
        }
    }

    /// The underlying 1-CQ.
    pub fn query(&self) -> &OneCq {
        &self.q
    }

    /// The cactus as a structure (directly usable as a data instance:
    /// `F` at the root focus, `A` at non-root foci, `T` at unbudded solitary
    /// `T`-nodes, twins keep both labels).
    pub fn structure(&self) -> &Structure {
        &self.s
    }

    /// The segments, root first (parents precede children).
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The root focus `r` (the unique solitary-`F` node of the cactus).
    pub fn root_focus(&self) -> Node {
        self.segments[0].map[self.q.focus().index()]
    }

    /// Depth of the cactus: maximum segment depth.
    pub fn depth(&self) -> u32 {
        self.segments.iter().map(|s| s.depth).max().unwrap_or(0)
    }

    /// Is `(seg, t_index)` still buddable (i.e. carries a solitary `T`)?
    pub fn can_bud(&self, seg: usize, t_index: usize) -> bool {
        seg < self.segments.len()
            && t_index < self.q.span()
            && self.segments[seg].buds[t_index].is_none()
    }

    /// Apply (bud) at segment `seg`, solitary-`T` index `t_index`,
    /// returning the extended cactus. Panics if not buddable.
    pub fn bud(&self, seg: usize, t_index: usize) -> Cactus {
        let mut c = self.clone();
        c.bud_mut(seg, t_index);
        c
    }

    /// Apply (bud) in place: as [`Cactus::bud`], without copying the
    /// cactus. Panics if not buddable.
    pub fn bud_mut(&mut self, seg: usize, t_index: usize) {
        assert!(self.can_bud(seg, t_index), "({seg},{t_index}) not buddable");
        let (q, qm, s) = (&self.q, &self.q_minus, &mut self.s);
        let y_q = q.solitary_t()[t_index]; // the q-node being budded
        let y = self.segments[seg].map[y_q.index()]; // its cactus node

        // Strip T, label A (rule (bud)).
        s.remove_label(y, Pred::T);
        s.add_label(y, Pred::A);
        // Attach a fresh copy of q⁻, renaming its focus to y and restoring
        // the solitary T-labels of the new segment.
        let focus = q.focus();
        let mut map: Vec<Node> = Vec::with_capacity(qm.node_count());
        for v in qm.nodes() {
            if v == focus {
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
        let depth = self.segments[seg].depth + 1;
        let new_idx = self.segments.len();
        self.segments.push(Segment {
            map,
            parent: Some((seg, t_index)),
            depth,
            buds: vec![None; q.span()],
        });
        self.segments[seg].buds[t_index] = Some(new_idx);
    }

    /// The focus node of segment `i` in the cactus.
    pub fn focus_of(&self, i: usize) -> Node {
        self.segments[i].map[self.q.focus().index()]
    }

    /// `C◦`: the cactus with the `F`-label of the root focus replaced by
    /// `A` (used for `(Σ_q, P)` answers, Prop. 1).
    pub fn degree_structure(&self) -> Structure {
        let mut s = self.s.clone();
        let r = self.root_focus();
        s.remove_label(r, Pred::F);
        s.add_label(r, Pred::A);
        s
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The skeleton `C^s` as parent links: for each segment, `(parent,
    /// budded index)`; the root has `None`. (Segments are stored root-first,
    /// so this is a valid ditree encoding.)
    pub fn skeleton(&self) -> Vec<Option<(usize, usize)>> {
        self.segments.iter().map(|s| s.parent).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirup_hom::isomorphic;

    fn q4() -> OneCq {
        OneCq::parse("F(x), R(y,x), R(y,z), T(z)")
    }

    #[test]
    fn root_cactus_is_q() {
        let q = q4();
        let c = Cactus::root(&q);
        assert_eq!(c.depth(), 0);
        assert_eq!(c.segment_count(), 1);
        assert!(isomorphic(c.structure(), q.structure()));
        assert!(c.structure().has_label(c.root_focus(), Pred::F));
    }

    #[test]
    fn budding_grows_one_segment() {
        let q = q4();
        let c0 = Cactus::root(&q);
        assert!(c0.can_bud(0, 0));
        let c1 = c0.bud(0, 0);
        assert_eq!(c1.segment_count(), 2);
        assert_eq!(c1.depth(), 1);
        assert!(!c1.can_bud(0, 0));
        assert!(c1.can_bud(1, 0));
        // The budded node lost T, gained A, and is the child's focus.
        let y = c1.segments()[0].map[q.solitary_t()[0].index()];
        assert!(!c1.structure().has_label(y, Pred::T));
        assert!(c1.structure().has_label(y, Pred::A));
        assert_eq!(c1.focus_of(1), y);
        // The child's solitary T is fresh and labelled T.
        let t_child = c1.segments()[1].map[q.solitary_t()[0].index()];
        assert!(c1.structure().has_label(t_child, Pred::T));
        // Node count: root had 3; child adds 2 fresh (focus is shared).
        assert_eq!(c1.structure().node_count(), 5);
    }

    #[test]
    fn depth_two_chain() {
        let q = q4();
        let c2 = Cactus::root(&q).bud(0, 0).bud(1, 0);
        assert_eq!(c2.depth(), 2);
        assert_eq!(c2.segment_count(), 3);
        // Exactly one F (the root focus), one T (deepest), two A.
        let s = c2.structure();
        assert_eq!(s.nodes_with_label(Pred::F).len(), 1);
        assert_eq!(s.nodes_with_label(Pred::T).len(), 1);
        assert_eq!(s.nodes_with_label(Pred::A).len(), 2);
        // Skeleton is a chain.
        assert_eq!(c2.skeleton(), vec![None, Some((0, 0)), Some((1, 0))]);
    }

    #[test]
    fn example3_d2_is_a_depth2_cactus_of_q2() {
        // q2 = T(x), S(x,y), T(y), R(y,z), F(z)  (Example 1).
        // Example 3: D2 is isomorphic to the cactus obtained by budding q2
        // twice: first at the root's T(y)… the paper buds solitary Ts; with
        // two solitary Ts (x and y) budding x then y of the root gives the
        // three-segment cactus pictured.
        let q2 = OneCq::parse("T(x), S(x,y), T(y), R(y,z), F(z)");
        assert_eq!(q2.span(), 2);
        let c = Cactus::root(&q2).bud(0, 0).bud(0, 1);
        assert_eq!(c.segment_count(), 3);
        assert_eq!(c.depth(), 1);
        // The exact isomorphism with the paper's D2 picture is checked in
        // the workloads/integration tests; here we verify the structural
        // invariants of the cactus.
        let s = c.structure();
        assert_eq!(s.nodes_with_label(Pred::F).len(), 1);
        assert_eq!(s.nodes_with_label(Pred::A).len(), 2);
        assert_eq!(s.nodes_with_label(Pred::T).len(), 4);
    }

    #[test]
    fn degree_structure_relabels_root() {
        let q = q4();
        let c = Cactus::root(&q).bud(0, 0);
        let d = c.degree_structure();
        let r = c.root_focus();
        assert!(d.has_label(r, Pred::A));
        assert!(!d.has_label(r, Pred::F));
        // Original untouched.
        assert!(c.structure().has_label(r, Pred::F));
    }

    #[test]
    #[should_panic(expected = "not buddable")]
    fn double_budding_panics() {
        let q = q4();
        let _ = Cactus::root(&q).bud(0, 0).bud(0, 0);
    }

    #[test]
    fn span_zero_has_no_buds() {
        let q = OneCq::parse("F(x), R(x,y)");
        let c = Cactus::root(&q);
        assert!(!c.can_bud(0, 0));
    }
}
