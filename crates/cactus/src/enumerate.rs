//! Canonical enumeration of cactus shapes.
//!
//! Two budding sequences can produce the same cactus; to enumerate `𝔎_q` up
//! to a depth without duplicates we enumerate *shapes*: a shape assigns to
//! each solitary-`T` slot of a segment either “unbudded” or, recursively, the
//! shape of the child segment. For span 1 the shapes of depth ≤ d form a
//! chain `C_0, …, C_d`; for span ≥ 2 they grow doubly exponentially, so all
//! enumerations carry a cap.

use crate::cactus::Cactus;
use sirup_core::{telemetry, OneCq};

/// A cactus shape: for each solitary-`T` index, the child shape (if budded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    /// Child shapes per solitary-`T` slot.
    pub children: Vec<Option<Shape>>,
}

impl Shape {
    /// The leaf shape (nothing budded) for the given span.
    pub fn leaf(span: usize) -> Shape {
        Shape {
            children: vec![None; span],
        }
    }

    /// Depth of the shape.
    pub fn depth(&self) -> u32 {
        self.children
            .iter()
            .flatten()
            .map(|c| 1 + c.depth())
            .max()
            .unwrap_or(0)
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .flatten()
            .map(Shape::segment_count)
            .sum::<usize>()
    }

    /// The full shape of the given span and depth (every slot budded down
    /// to depth `d`).
    pub fn full(span: usize, d: u32) -> Shape {
        if d == 0 {
            Shape::leaf(span)
        } else {
            Shape {
                children: vec![Some(Shape::full(span, d - 1)); span],
            }
        }
    }

    /// The chain shape budding only slot `slot`, `d` times.
    pub fn chain(span: usize, slot: usize, d: u32) -> Shape {
        let mut s = Shape::leaf(span);
        for _ in 0..d {
            let mut parent = Shape::leaf(span);
            parent.children[slot] = Some(s);
            s = parent;
        }
        s
    }
}

/// Number of shapes of the given span with depth ≤ `depth`:
/// `count(0) = 1`, `count(k) = (1 + count(k−1))^span` (each slot is either
/// unbudded or holds a shallower shape). Saturates at `usize::MAX`.
pub fn shape_count(span: usize, depth: u32) -> usize {
    (0..depth).fold(1usize, |n, _| {
        (0..span).fold(1usize, |acc, _| acc.saturating_mul(n.saturating_add(1)))
    })
}

/// Enumerate all shapes of the given span with depth ≤ `max_depth`.
/// Returns the shapes and whether the enumeration is complete. Past the
/// cap ([`shape_count`] `> cap`) it builds nothing and returns no shapes.
pub fn enumerate_shapes(span: usize, max_depth: u32, cap: usize) -> (Vec<Shape>, bool) {
    // The leaf alone is never past the cap: a span-0 or depth-0
    // enumeration is always complete.
    if shape_count(span, max_depth) > cap.max(1) {
        return (Vec::new(), false);
    }
    // all = shapes of depth ≤ d, grown one level per round. Each round
    // rebuilds the set as all combinations of per-slot options (unbudded, or
    // any shape of depth ≤ d−1); options per slot are pairwise distinct, so
    // combinations — and hence shapes — are produced without duplicates,
    // and shallower shapes reappear as combinations of shallower children.
    let mut all: Vec<Shape> = vec![Shape::leaf(span)];
    if span == 0 {
        return (all, true);
    }
    for _ in 0..max_depth {
        let options: Vec<Option<Shape>> = std::iter::once(None)
            .chain(all.iter().cloned().map(Some))
            .collect();
        let mut next: Vec<Shape> = Vec::new();
        let mut idx = vec![0usize; span];
        'combinations: loop {
            next.push(Shape {
                children: idx.iter().map(|&i| options[i].clone()).collect(),
            });
            // Advance the mixed-radix counter over option indices.
            let mut k = 0;
            while k < span {
                idx[k] += 1;
                if idx[k] < options.len() {
                    break;
                }
                idx[k] = 0;
                k += 1;
            }
            if k == span {
                break 'combinations;
            }
        }
        all = next;
    }
    (all, true)
}

/// Build the cactus realising `shape`, budding in place.
pub fn build(q: &OneCq, shape: &Shape) -> Cactus {
    grow(Cactus::root(q), shape)
}

/// Bud `shape` onto `c`, a copy of the root cactus (copies of one root
/// share its `q` and `q⁻`).
pub(crate) fn grow(mut c: Cactus, shape: &Shape) -> Cactus {
    assert_eq!(c.segment_count(), 1, "grow starts from the root cactus");
    assert_eq!(shape.children.len(), c.query().span());
    telemetry::counter_add(telemetry::Counter::CactusBuilds, 1);
    build_into(&mut c, 0, shape);
    c
}

fn build_into(c: &mut Cactus, seg: usize, shape: &Shape) {
    for (i, child) in shape.children.iter().enumerate() {
        if let Some(ch) = child {
            c.bud_mut(seg, i);
            let new_seg = c.segment_count() - 1;
            build_into(c, new_seg, ch);
        }
    }
}

/// Enumerate cactuses of depth ≤ `max_depth` (cap on the number of shapes).
/// Returns the cactuses and whether the enumeration is complete; past the
/// cap it builds no cactus.
pub fn enumerate_cactuses(q: &OneCq, max_depth: u32, cap: usize) -> (Vec<Cactus>, bool) {
    let (shapes, complete) = enumerate_shapes(q.span(), max_depth, cap);
    let root = Cactus::root(q);
    let cactuses = shapes.iter().map(|s| grow(root.clone(), s)).collect();
    (cactuses, complete)
}

/// The unpruned cactus of depth `d` (every slot budded, the paper's `C_n`
/// in Appendix G for span 1).
pub fn full_cactus(q: &OneCq, d: u32) -> Cactus {
    build(q, &Shape::full(q.span(), d))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span1_shapes_form_a_chain() {
        let (shapes, complete) = enumerate_shapes(1, 4, 1000);
        assert!(complete);
        assert_eq!(shapes.len(), 5); // depths 0..=4
        let mut depths: Vec<u32> = shapes.iter().map(Shape::depth).collect();
        depths.sort_unstable();
        assert_eq!(depths, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn span2_shape_counts() {
        // shapes(0) = 1, shapes(d) = (1 + shapes(d-1))².
        let (s0, _) = enumerate_shapes(2, 0, 10_000);
        assert_eq!(s0.len(), 1);
        let (s1, _) = enumerate_shapes(2, 1, 10_000);
        assert_eq!(s1.len(), 4);
        let (s2, _) = enumerate_shapes(2, 2, 10_000);
        assert_eq!(s2.len(), 25);
        let (s3, c3) = enumerate_shapes(2, 3, 10_000);
        assert_eq!(s3.len(), 676);
        assert!(c3);
    }

    #[test]
    fn cap_is_respected() {
        let (s, complete) = enumerate_shapes(2, 3, 100);
        assert!(!complete);
        assert!(s.is_empty());
    }

    #[test]
    fn shape_count_matches_enumeration() {
        for span in 0..=3 {
            for depth in 0..=3 {
                let n = shape_count(span, depth);
                if n > 10_000 {
                    continue;
                }
                let (shapes, complete) = enumerate_shapes(span, depth, n);
                assert!(complete);
                assert_eq!(shapes.len(), n, "span {span} depth {depth}");
                // One below the count is past the cap (the leaf alone never is).
                let (_, complete) = enumerate_shapes(span, depth, n - 1);
                assert_eq!(complete, n == 1, "span {span} depth {depth}");
            }
        }
        assert_eq!(shape_count(2, 3), 676);
        assert_eq!(shape_count(3, 4), usize::MAX);
        assert_eq!(shape_count(0, 9), 1);
    }

    #[test]
    fn shapes_are_distinct() {
        let (shapes, _) = enumerate_shapes(2, 2, 10_000);
        for i in 0..shapes.len() {
            for j in i + 1..shapes.len() {
                assert_ne!(shapes[i], shapes[j]);
            }
        }
    }

    #[test]
    fn build_realises_shape() {
        let q = sirup_core::OneCq::parse("F(x), R(y,x), R(y,z), T(z)");
        let shape = Shape::chain(1, 0, 3);
        let c = build(&q, &shape);
        assert_eq!(c.depth(), 3);
        assert_eq!(c.segment_count(), 4);
    }

    /// `shape` realised by the chain of public `bud` calls (each one a copy
    /// of its receiver), checking that no call changes its receiver.
    fn build_by_copies(mut c: Cactus, seg: usize, shape: &Shape) -> Cactus {
        for (i, child) in shape.children.iter().enumerate() {
            if let Some(ch) = child {
                let before = (c.structure().clone(), c.segments().to_vec());
                let next = c.bud(seg, i);
                assert_eq!(c.structure(), &before.0, "bud changed its receiver");
                assert_eq!(c.segments(), &before.1[..], "bud changed its receiver");
                let new_seg = next.segment_count() - 1;
                c = build_by_copies(next, new_seg, ch);
            }
        }
        c
    }

    #[test]
    fn in_place_build_equals_the_chain_of_buds() {
        for q in [
            "F(x), R(x,y)",
            "F(x), R(y,x), R(y,z), T(z)",
            "F(x), R(x,y), T(y), R(x,w), T(w), F(w)",
            "F(x), R(x,y1), T(y1), S(x,y2), T(y2)",
            "T(x), S(x,y), T(y), R(y,z), F(z)",
        ] {
            let q = OneCq::parse(q);
            let (shapes, complete) = enumerate_shapes(q.span(), 3, 1000);
            assert!(complete);
            let (cactuses, _) = enumerate_cactuses(&q, 3, 1000);
            assert_eq!(cactuses.len(), shapes.len());
            for (shape, c) in shapes.iter().zip(&cactuses) {
                let expected = build_by_copies(Cactus::root(&q), 0, shape);
                for built in [c, &build(&q, shape)] {
                    assert_eq!(built.structure(), expected.structure(), "{q}: {shape:?}");
                    assert_eq!(built.segments(), expected.segments(), "{q}: {shape:?}");
                    assert_eq!(built.root_focus(), expected.root_focus());
                }
            }
        }
    }

    #[test]
    fn full_cactus_span2() {
        let q = sirup_core::OneCq::parse("F(x), R(x,y1), T(y1), S(x,y2), T(y2)");
        let c = full_cactus(&q, 2);
        // Segments: 1 + 2 + 4 = 7.
        assert_eq!(c.segment_count(), 7);
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn span0_enumeration_is_singleton() {
        let (shapes, complete) = enumerate_shapes(0, 5, 10);
        assert!(complete);
        assert_eq!(shapes.len(), 1);
        assert_eq!(shapes[0].depth(), 0);
    }
}
