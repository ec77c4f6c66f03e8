//! Dense bitsets over a structure's node range.
//!
//! The homomorphism planner ([`sirup-hom`]'s `QueryPlan`) keeps one candidate
//! domain per pattern variable. Domains are subsets of a *dense* `0..n` node
//! universe, so a packed `u64`-word bitset beats both `Vec<bool>` (8× the
//! memory) and hash sets (pointer chasing) on the hot membership tests and
//! in-order iteration the arc-consistency prefilter and the backtracking
//! search perform.
//!
//! [`sirup-hom`]: ../../sirup_hom/index.html

use crate::structure::Node;

/// Words processed per step by the batched kernels below. Four `u64`s is a
/// cache line half — wide enough for the compiler to keep the loop in
/// registers (and auto-vectorise where the target allows), narrow enough
/// that the ragged tail stays trivial.
const LANES: usize = 4;

/// A dense bitset over node indices `0..n` (fixed at construction).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    /// The empty set over a universe of `n` nodes.
    pub fn empty(n: usize) -> NodeSet {
        NodeSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Grow the universe to at least `n` nodes (no-op if already as large).
    /// Existing membership is preserved; new nodes start absent.
    pub fn grow(&mut self, n: usize) {
        let words = n.div_ceil(64);
        if words > self.words.len() {
            self.words.resize(words, 0);
        }
    }

    /// Clear the set and re-dimension it for a universe of `n` nodes — the
    /// recycling entry point used by [`crate::arena::EvalScratch`]: a pooled
    /// set keeps its allocation and is reshaped per execution.
    pub fn reset(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), 0);
    }

    /// Make this the full universe `0..n` (re-dimensioning like
    /// [`NodeSet::reset`]); the tail word is masked so `len()` stays exact.
    pub fn fill(&mut self, n: usize) {
        self.words.clear();
        self.words.resize(n.div_ceil(64), !0u64);
        let tail = n % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Become a copy of `other` (same universe), reusing this set's
    /// allocation.
    pub fn copy_from(&mut self, other: &NodeSet) {
        self.words.clear();
        self.words.extend_from_slice(&other.words);
    }

    /// Insert node `v`. Returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, v: Node) -> bool {
        let (w, b) = (v.index() / 64, v.index() % 64);
        let had = self.words[w] >> b & 1;
        self.words[w] |= 1 << b;
        had == 0
    }

    /// Remove node `v`. Returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, v: Node) -> bool {
        let (w, b) = (v.index() / 64, v.index() % 64);
        let had = self.words[w] >> b & 1;
        self.words[w] &= !(1 << b);
        had == 1
    }

    /// Is node `v` in the set?
    #[inline]
    pub fn contains(&self, v: Node) -> bool {
        let (w, b) = (v.index() / 64, v.index() % 64);
        self.words[w] >> b & 1 == 1
    }

    /// As [`NodeSet::contains`], but `false` (not a panic) for a node past
    /// the universe.
    #[inline]
    pub fn contains_checked(&self, v: Node) -> bool {
        let (w, b) = (v.index() / 64, v.index() % 64);
        self.words.get(w).is_some_and(|word| word >> b & 1 == 1)
    }

    /// Number of nodes in the set. Batched: `LANES` words per step with
    /// independent `count_ones` accumulators, so the popcounts pipeline
    /// instead of serialising on one running sum.
    #[inline]
    pub fn len(&self) -> usize {
        let mut chunks = self.words.chunks_exact(LANES);
        let mut acc = [0usize; LANES];
        for c in &mut chunks {
            acc[0] += c[0].count_ones() as usize;
            acc[1] += c[1].count_ones() as usize;
            acc[2] += c[2].count_ones() as usize;
            acc[3] += c[3].count_ones() as usize;
        }
        let tail: usize = chunks
            .remainder()
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        acc[0] + acc[1] + acc[2] + acc[3] + tail
    }

    /// Is the set empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Heap bytes held by the backing word array (memory accounting).
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// Intersect in place: `self &= other`. Words past `other`'s universe
    /// are cleared (absent there means absent in the intersection). Returns
    /// `true` iff `self` changed. Runs `LANES` words per step.
    pub fn intersect_with(&mut self, other: &NodeSet) -> bool {
        let common = self.words.len().min(other.words.len());
        let mut changed = 0u64;
        let (a, a_tail) = self.words[..common].split_at_mut(common - common % LANES);
        let (b, b_tail) = other.words[..common].split_at(common - common % LANES);
        for (ca, cb) in a.chunks_exact_mut(LANES).zip(b.chunks_exact(LANES)) {
            for i in 0..LANES {
                let w = ca[i] & cb[i];
                changed |= ca[i] ^ w;
                ca[i] = w;
            }
        }
        for (wa, &wb) in a_tail.iter_mut().zip(b_tail) {
            let w = *wa & wb;
            changed |= *wa ^ w;
            *wa = w;
        }
        for w in &mut self.words[common..] {
            changed |= *w;
            *w = 0;
        }
        changed != 0
    }

    /// Remove `other`'s members in place: `self &= !other`. Returns `true`
    /// iff `self` changed. Runs `LANES` words per step.
    pub fn difference_with(&mut self, other: &NodeSet) -> bool {
        let common = self.words.len().min(other.words.len());
        let mut changed = 0u64;
        let (a, a_tail) = self.words[..common].split_at_mut(common - common % LANES);
        let (b, b_tail) = other.words[..common].split_at(common - common % LANES);
        for (ca, cb) in a.chunks_exact_mut(LANES).zip(b.chunks_exact(LANES)) {
            for i in 0..LANES {
                let w = ca[i] & !cb[i];
                changed |= ca[i] ^ w;
                ca[i] = w;
            }
        }
        for (wa, &wb) in a_tail.iter_mut().zip(b_tail) {
            let w = *wa & !wb;
            changed |= *wa ^ w;
            *wa = w;
        }
        changed != 0
    }

    /// Union in place: `self |= other`. Grows the universe to `other`'s if
    /// needed. Returns `true` iff `self` changed.
    pub fn union_with(&mut self, other: &NodeSet) -> bool {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut changed = 0u64;
        for (wa, &wb) in self.words.iter_mut().zip(&other.words) {
            changed |= !*wa & wb;
            *wa |= wb;
        }
        changed != 0
    }

    /// `|self ∩ other|` without materialising the intersection — batched
    /// `count_ones` over `LANES`-word strips.
    pub fn count_and(&self, other: &NodeSet) -> usize {
        let common = self.words.len().min(other.words.len());
        let mut a = self.words[..common].chunks_exact(LANES);
        let b = other.words[..common].chunks_exact(LANES);
        let mut acc = [0usize; LANES];
        for (ca, cb) in (&mut a).zip(b) {
            acc[0] += (ca[0] & cb[0]).count_ones() as usize;
            acc[1] += (ca[1] & cb[1]).count_ones() as usize;
            acc[2] += (ca[2] & cb[2]).count_ones() as usize;
            acc[3] += (ca[3] & cb[3]).count_ones() as usize;
        }
        let done = common - common % LANES;
        let tail: usize = self.words[done..common]
            .iter()
            .zip(&other.words[done..common])
            .map(|(&wa, &wb)| (wa & wb).count_ones() as usize)
            .sum();
        acc[0] + acc[1] + acc[2] + acc[3] + tail
    }

    /// The smallest node in `self ∩ other`, or `None` if the sets are
    /// disjoint. One AND per word, stopping at the first nonzero word — the
    /// word-level "is there any shared support?" probe.
    pub fn first_common(&self, other: &NodeSet) -> Option<Node> {
        let common = self.words.len().min(other.words.len());
        for i in 0..common {
            let w = self.words[i] & other.words[i];
            if w != 0 {
                return Some(Node((i * 64 + w.trailing_zeros() as usize) as u32));
            }
        }
        None
    }

    /// Partition the set into at most `chunks` disjoint subsets of
    /// near-equal cardinality, **in increasing node order**: chunk `i`
    /// holds nodes strictly smaller than every node of chunk `i + 1`.
    /// Parallel plan execution splits a candidate domain this way and
    /// merges per-chunk results in chunk order, which makes the merged
    /// enumeration sequence identical to the sequential one.
    pub fn split_chunks(&self, chunks: usize) -> Vec<NodeSet> {
        let total = self.len();
        let chunks = chunks.clamp(1, total.max(1));
        let per = total.div_ceil(chunks);
        let universe = self.words.len() * 64;
        let mut out: Vec<NodeSet> = Vec::with_capacity(chunks);
        let mut current = NodeSet::empty(universe);
        let mut filled = 0usize;
        for v in self.iter() {
            current.insert(v);
            filled += 1;
            if filled == per {
                out.push(std::mem::replace(&mut current, NodeSet::empty(universe)));
                filled = 0;
            }
        }
        if filled > 0 {
            out.push(current);
        }
        out
    }

    /// Iterate the set's nodes in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = Node> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(Node((i * 64 + b) as u32))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = NodeSet::empty(70);
        assert!(s.is_empty());
        assert!(s.insert(Node(0)));
        assert!(s.insert(Node(69)));
        assert!(!s.insert(Node(69)));
        assert!(s.contains(Node(0)));
        assert!(s.contains(Node(69)));
        assert!(!s.contains(Node(1)));
        assert_eq!(s.len(), 2);
        assert!(s.remove(Node(0)));
        assert!(!s.remove(Node(0)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iteration_is_sorted_across_words() {
        let mut s = NodeSet::empty(130);
        for v in [129u32, 5, 100, 1, 64] {
            s.insert(Node(v));
        }
        let got: Vec<u32> = s.iter().map(|n| n.0).collect();
        assert_eq!(got, vec![1, 5, 64, 100, 129]);
    }

    #[test]
    fn grow_preserves_membership() {
        let mut s = NodeSet::empty(10);
        s.insert(Node(3));
        s.grow(200);
        assert!(s.contains(Node(3)));
        assert!(s.insert(Node(199)));
        s.grow(50); // never shrinks
        assert!(s.contains(Node(199)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn split_chunks_partitions_in_order() {
        let mut s = NodeSet::empty(200);
        for v in (0..200).step_by(3) {
            s.insert(Node(v));
        }
        let total = s.len();
        for chunks in [1usize, 2, 4, 8, 100] {
            let parts = s.split_chunks(chunks);
            assert!(parts.len() <= chunks.max(1));
            let mut rebuilt: Vec<Node> = Vec::new();
            for p in &parts {
                let nodes: Vec<Node> = p.iter().collect();
                if let (Some(&last), Some(first)) = (rebuilt.last(), nodes.first()) {
                    assert!(last < *first, "chunks out of order");
                }
                rebuilt.extend(nodes);
            }
            assert_eq!(rebuilt.len(), total);
            assert_eq!(rebuilt, s.iter().collect::<Vec<_>>());
            // Near-equal: sizes differ by at most the ceiling step.
            let max = parts.iter().map(NodeSet::len).max().unwrap();
            let min = parts.iter().map(NodeSet::len).min().unwrap();
            assert!(max - min <= total.div_ceil(chunks));
        }
        assert_eq!(NodeSet::empty(10).split_chunks(4).len(), 0);
    }

    #[test]
    fn empty_universe() {
        let s = NodeSet::empty(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    fn from_nodes(n: usize, nodes: &[u32]) -> NodeSet {
        let mut s = NodeSet::empty(n);
        for &v in nodes {
            s.insert(Node(v));
        }
        s
    }

    #[test]
    fn intersect_difference_union_kernels() {
        // Universes straddle several LANES strips plus a ragged tail.
        let a_nodes: Vec<u32> = (0..400).step_by(3).collect();
        let b_nodes: Vec<u32> = (0..400).step_by(5).collect();
        let mut a = from_nodes(401, &a_nodes);
        let b = from_nodes(401, &b_nodes);
        assert_eq!(a.count_and(&b), (0..400).step_by(15).count());
        assert_eq!(a.first_common(&b), Some(Node(0)));
        assert!(a.intersect_with(&b));
        let got: Vec<u32> = a.iter().map(|n| n.0).collect();
        let want: Vec<u32> = (0..400).step_by(15).collect();
        assert_eq!(got, want);
        assert!(!a.intersect_with(&b), "already a subset: unchanged");
        let mut c = from_nodes(401, &a_nodes);
        assert!(c.difference_with(&b));
        assert!(c.iter().all(|n| n.0 % 3 == 0 && n.0 % 5 != 0));
        assert!(!c.difference_with(&b));
        let mut u = from_nodes(401, &[7]);
        assert!(u.union_with(&b));
        assert_eq!(u.len(), b.len() + 1);
        assert!(!u.union_with(&b));
    }

    #[test]
    fn kernels_handle_mismatched_universes() {
        // `a` larger than `b`: intersect clears the overhang, difference
        // keeps it, count/first ignore it.
        let mut a = from_nodes(300, &[1, 64, 130, 290]);
        let b = from_nodes(100, &[1, 64, 99]);
        assert_eq!(a.count_and(&b), 2);
        assert_eq!(a.first_common(&b), Some(Node(1)));
        let mut d = a.clone();
        assert!(d.difference_with(&b));
        assert_eq!(d.iter().map(|n| n.0).collect::<Vec<_>>(), vec![130, 290]);
        assert!(a.intersect_with(&b));
        assert_eq!(a.iter().map(|n| n.0).collect::<Vec<_>>(), vec![1, 64]);
        // `b` larger than `a`: union grows the universe.
        let mut small = from_nodes(10, &[2]);
        let big = from_nodes(200, &[2, 150]);
        assert!(small.union_with(&big));
        assert!(small.contains(Node(150)));
        assert_eq!(small.first_common(&big), Some(Node(2)));
    }

    #[test]
    fn reset_fill_copy() {
        let mut s = from_nodes(100, &[5, 50]);
        s.reset(70);
        assert!(s.is_empty());
        s.fill(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(Node(69)));
        s.fill(64); // exact word boundary: no tail mask needed
        assert_eq!(s.len(), 64);
        let src = from_nodes(130, &[0, 129]);
        s.copy_from(&src);
        assert_eq!(s, src);
        s.fill(0);
        assert!(s.is_empty());
    }

    #[test]
    fn first_common_disjoint_and_empty() {
        let a = from_nodes(128, &[3, 70]);
        let b = from_nodes(128, &[4, 71]);
        assert_eq!(a.first_common(&b), None);
        assert_eq!(a.count_and(&b), 0);
        assert_eq!(a.first_common(&NodeSet::empty(0)), None);
    }
}
