//! Skeletons of span-2 cactuses as 01-trees (§3.2).
//!
//! "The 1-CQ q we associate with M and w has two solitary T-nodes, t0 and
//! t1. Thus, we can regard the skeleton C^s of any cactus C ∈ 𝔎_q as a
//! 01-tree, indicating which of t0 or t1 were budded." This module performs
//! that reading, connecting the cactus machinery of `sirup-cactus` to the
//! 01-tree correctness predicates of `sirup-atm` — the two sides Lemma 4
//! equates.

use sirup_atm::trees::BinTree;
use sirup_cactus::Cactus;

/// Read the skeleton of a span-2 cactus as a 01-tree: budding slot 0 is a
/// `0`-edge, slot 1 a `1`-edge. Returns the tree and, per segment index,
/// its tree node.
///
/// Panics if the cactus is not span-2.
pub fn skeleton_to_01tree(c: &Cactus) -> (BinTree, Vec<usize>) {
    assert_eq!(c.query().span(), 2, "01-tree skeletons need span 2");
    let mut tree = BinTree::new();
    let mut node_of = vec![0usize; c.segment_count()];
    for (i, seg) in c.segments().iter().enumerate() {
        match seg.parent {
            None => node_of[i] = 0, // the root segment is the tree root
            Some((parent, slot)) => {
                node_of[i] = tree.add_child(node_of[parent], slot == 1);
            }
        }
    }
    (tree, node_of)
}

/// The depth-first budding sequence realising a given 01-tree as a span-2
/// cactus skeleton: bud slot 0 for a `0`-child, slot 1 for a `1`-child.
/// Returns the cactus whose skeleton reads back as `tree`.
pub fn cactus_from_01tree(q: &sirup_core::OneCq, tree: &BinTree) -> Cactus {
    assert_eq!(q.span(), 2, "01-tree skeletons need span 2");
    let mut c = Cactus::root(q);
    // Map tree nodes to segment indices as we bud.
    let mut seg_of = vec![usize::MAX; tree.len()];
    seg_of[0] = 0;
    // Parents precede children in BinTree (nodes are appended).
    for v in 1..tree.len() {
        let (parent, bit) = parent_of(tree, v);
        let pseg = seg_of[parent];
        debug_assert_ne!(pseg, usize::MAX, "tree nodes must be parent-first");
        c.bud_mut(pseg, bit as usize);
        seg_of[v] = c.segment_count() - 1;
    }
    c
}

fn parent_of(tree: &BinTree, v: usize) -> (usize, bool) {
    for p in tree.nodes() {
        for (bit, child) in tree.children[p].iter().enumerate() {
            if *child == Some(v) {
                return (p, bit == 1);
            }
        }
    }
    panic!("node {v} has no parent");
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirup_cactus::enumerate::{build, enumerate_shapes, full_cactus};
    use sirup_core::OneCq;

    fn q() -> OneCq {
        OneCq::parse("F(x), R(x,y1), T(y1), S(x,y2), T(y2)")
    }

    #[test]
    fn full_cactus_reads_as_full_binary_tree() {
        let c = full_cactus(&q(), 2);
        let (tree, node_of) = skeleton_to_01tree(&c);
        assert_eq!(node_of.len(), 7); // 1 + 2 + 4 segments
        assert_eq!(tree.len(), 7);
        // The root has both children, which themselves have both children.
        assert_eq!(tree.child_count(0), 2);
        for v in tree.nodes() {
            let d = tree.depth[v];
            assert_eq!(tree.child_count(v), if d < 2 { 2 } else { 0 });
        }
    }

    #[test]
    fn round_trip_through_all_depth2_shapes() {
        let (shapes, complete) = enumerate_shapes(2, 2, 10_000);
        assert!(complete);
        for shape in &shapes {
            let c = build(&q(), shape);
            let (tree, _) = skeleton_to_01tree(&c);
            let c2 = cactus_from_01tree(&q(), &tree);
            let (tree2, _) = skeleton_to_01tree(&c2);
            // Same tree shape: same node count and same per-depth counts.
            assert_eq!(tree.len(), tree2.len());
            for v in 0..tree.len() {
                assert_eq!(tree.depth[v], tree2.depth[v]);
            }
            assert_eq!(c.segment_count(), c2.segment_count());
        }
    }

    #[test]
    fn slot_choice_maps_to_bit() {
        let c = Cactus::root(&q()).bud(0, 1); // bud slot 1 → a 1-child
        let (tree, node_of) = skeleton_to_01tree(&c);
        assert_eq!(tree.children[0][1], Some(node_of[1]));
        assert_eq!(tree.children[0][0], None);
    }

    #[test]
    fn correctness_predicates_run_on_skeletons() {
        // The bridge in action: the `good` predicate of §3.3.2 evaluates on
        // a cactus skeleton (any node shallower than 4d+11 is good).
        use sirup_atm::correct::good;
        let c = full_cactus(&q(), 3);
        let (tree, _) = skeleton_to_01tree(&c);
        for v in tree.nodes() {
            assert!(good(&tree, v, 4));
        }
    }

    #[test]
    #[should_panic(expected = "span 2")]
    fn span1_rejected() {
        let q1 = OneCq::parse("F(x), R(x,y), T(y)");
        let c = Cactus::root(&q1);
        let _ = skeleton_to_01tree(&c);
    }
}
