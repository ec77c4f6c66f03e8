//! The paper's query classes over [`Structure`]s.
//!
//! A CQ here is a set of atoms with unary predicates `F`, `T` and arbitrary
//! binary predicates (§2). An atom `F(z)` is *solitary* if `T(z) ∉ q`, and
//! symmetrically; a node with both labels is an *FT-twin*. A **1-CQ** has a
//! single solitary `F`-node (its *focus*), possibly multiple solitary
//! `T`-nodes `y_1, …, y_n`, arbitrary twins and binary atoms.

use crate::structure::{Node, Structure};
use crate::symbols::Pred;
use std::fmt;

/// Nodes of `q` labelled `F` but not `T`.
pub fn solitary_f(q: &Structure) -> Vec<Node> {
    q.nodes()
        .filter(|&v| q.has_label(v, Pred::F) && !q.has_label(v, Pred::T))
        .collect()
}

/// Nodes of `q` labelled `T` but not `F`.
pub fn solitary_t(q: &Structure) -> Vec<Node> {
    q.nodes()
        .filter(|&v| q.has_label(v, Pred::T) && !q.has_label(v, Pred::F))
        .collect()
}

/// Nodes of `q` labelled with both `F` and `T` (FT-twins).
pub fn twins(q: &Structure) -> Vec<Node> {
    q.nodes()
        .filter(|&v| q.has_label(v, Pred::T) && q.has_label(v, Pred::F))
        .collect()
}

/// Error from [`OneCq::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CqError {
    /// The CQ does not have exactly one solitary `F`-node.
    SolitaryFCount(usize),
    /// The CQ mentions the reserved EDB predicate `A`.
    MentionsA,
}

impl fmt::Display for CqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CqError::SolitaryFCount(n) => {
                write!(f, "a 1-CQ needs exactly one solitary F-node, found {n}")
            }
            CqError::MentionsA => write!(f, "a 1-CQ must not mention the reserved predicate A"),
        }
    }
}

impl std::error::Error for CqError {}

/// A validated 1-CQ: single solitary `F` (the focus), `n ≥ 0` solitary `T`s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OneCq {
    q: Structure,
    focus: Node,
    solitary_t: Vec<Node>,
}

impl OneCq {
    /// Validate `q` as a 1-CQ.
    pub fn new(q: Structure) -> Result<OneCq, CqError> {
        if q.nodes().any(|v| q.has_label(v, Pred::A)) {
            return Err(CqError::MentionsA);
        }
        let fs = solitary_f(&q);
        if fs.len() != 1 {
            return Err(CqError::SolitaryFCount(fs.len()));
        }
        let ts = solitary_t(&q);
        Ok(OneCq {
            q,
            focus: fs[0],
            solitary_t: ts,
        })
    }

    /// Parse from the text format (panics on malformed input; intended for
    /// statically known CQ literals).
    ///
    /// ```
    /// use sirup_core::OneCq;
    /// let q = OneCq::parse("F(x), R(y,x), R(y,z), T(z)");
    /// assert_eq!(q.span(), 1);
    /// ```
    pub fn parse(text: &str) -> OneCq {
        OneCq::new(crate::parse::st(text)).expect("structure literal is not a 1-CQ")
    }

    /// The underlying structure.
    #[inline]
    pub fn structure(&self) -> &Structure {
        &self.q
    }

    /// The solitary `F`-node `x` (the focus of the root segment).
    #[inline]
    pub fn focus(&self) -> Node {
        self.focus
    }

    /// The solitary `T`-nodes `y_1, …, y_n`, in node order.
    #[inline]
    pub fn solitary_t(&self) -> &[Node] {
        &self.solitary_t
    }

    /// Number of solitary `T`-nodes (the *span* for Λ-CQs, §4).
    #[inline]
    pub fn span(&self) -> usize {
        self.solitary_t.len()
    }

    /// The FT-twin nodes.
    pub fn twins(&self) -> Vec<Node> {
        twins(&self.q)
    }

    /// `q⁻ = q \ {F(x), T(y_1), …, T(y_n)}` (§2): the structure with the
    /// solitary labels removed (twins keep both labels).
    pub fn q_minus(&self) -> Structure {
        let mut s = self.q.clone();
        s.remove_label(self.focus, Pred::F);
        for &y in &self.solitary_t {
            s.remove_label(y, Pred::T);
        }
        s
    }

    /// A *segment*: a copy of `q` whose focus carries `focus_label`
    /// (`Pred::F` for a root segment, `Pred::A` for a budded one) and whose
    /// solitary `T`-node `y_i` carries `A` when `budded[i]` (its bud exists
    /// elsewhere) and `T` otherwise. Twins and binary atoms are unchanged.
    pub fn segment(&self, focus_label: Pred, budded: &[bool]) -> Structure {
        assert_eq!(budded.len(), self.span());
        let mut s = self.q_minus();
        s.add_label(self.focus, focus_label);
        for (i, &y) in self.solitary_t.iter().enumerate() {
            s.add_label(y, if budded[i] { Pred::A } else { Pred::T });
        }
        s
    }
}

impl fmt::Display for OneCq {
    /// Renders the underlying structure's atom list. [`OneCq::parse`]
    /// accepts this output, so display/parse round-trips up to isomorphism
    /// for CQs whose every node occurs in some atom (node names are
    /// regenerated — the contract for CQs, which are defined up to variable
    /// renaming). Isolated unlabelled nodes are not representable in the
    /// atom-list format and are dropped, as with
    /// [`crate::parse::to_text`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.q.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::st;

    fn q4() -> OneCq {
        OneCq::parse("F(x), R(y,x), R(y,z), T(z)")
    }

    #[test]
    fn classify_nodes() {
        let q = st("F(x), T(y), F(z), T(z)");
        assert_eq!(solitary_f(&q).len(), 1);
        assert_eq!(solitary_t(&q).len(), 1);
        assert_eq!(twins(&q).len(), 1);
    }

    #[test]
    fn one_cq_validation() {
        assert!(OneCq::new(st("F(x), R(x,y), T(y)")).is_ok());
        assert_eq!(
            OneCq::new(st("T(x), R(x,y), T(y)")).unwrap_err(),
            CqError::SolitaryFCount(0)
        );
        assert_eq!(
            OneCq::new(st("F(x), R(x,y), F(y)")).unwrap_err(),
            CqError::SolitaryFCount(2)
        );
        assert_eq!(
            OneCq::new(st("F(x), A(x)")).unwrap_err(),
            CqError::MentionsA
        );
        // Twins do not count as solitary.
        let q = OneCq::new(st("F(x), R(x,y), F(y), T(y)")).unwrap();
        assert_eq!(q.span(), 0);
        assert_eq!(q.twins().len(), 1);
    }

    #[test]
    fn q_minus_strips_solitary_labels_only() {
        let q = q4();
        let m = q.q_minus();
        assert_eq!(m.label_count(), 0);
        assert_eq!(m.edge_count(), 2);
        // Twins survive in q⁻.
        let q = OneCq::parse("F(x), R(x,y), T(y), R(y,z), F(z), T(z)");
        let m = q.q_minus();
        assert_eq!(m.label_count(), 2); // both labels of the twin z
    }

    #[test]
    fn segments() {
        let q = q4();
        // The root segment with nothing budded is `q` itself.
        let root = q.segment(Pred::F, &[false]);
        assert_eq!(root, *q.structure());
        let leaf = q.segment(Pred::A, &[false]);
        assert!(leaf.has_label(q.focus(), Pred::A));
        assert!(leaf.has_label(q.solitary_t()[0], Pred::T));
        let budded = q.segment(Pred::A, &[true]);
        assert!(budded.has_label(q.solitary_t()[0], Pred::A));
        assert!(!budded.has_label(q.solitary_t()[0], Pred::T));
    }

    #[test]
    fn span_counts_solitary_ts() {
        let q = OneCq::parse("F(x), R(r,x), R(r,y), T(y), R(r,z), T(z)");
        assert_eq!(q.span(), 2);
    }
}
