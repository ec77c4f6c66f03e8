//! The read target of one evaluation.
//!
//! Every certain-answer procedure — the fixpoint of `Π_q`/`Σ_q`, the UCQ
//! rewriting of Prop. 2, the DPLL search for `Δ_q` — reads one data
//! instance: the live [`Structure`] itself, and optionally a
//! [`FrozenStructure`] CSR view of it (contiguous adjacency rows, and
//! bitmap rows for labels and edge endpoints that seed candidate domains),
//! plus an optional [`ParCtx`] that lets the hot loops split over the
//! shared scheduler. A [`Target`] bundles the three into one borrowed
//! `Copy` value, so every evaluator has exactly one entry point.
//!
//! **The read-target contract.** An attached view is a current snapshot of
//! `data` (its node count is asserted on attach). Labels are read in one
//! of two modes:
//!
//! * full mode: every label comes from the view's label rows when a view
//!   is attached, else from the live data;
//! * overlay mode ([`Target::with_label_rows`]): the data with the rows of
//!   a few named predicates replaced by caller-owned bitmaps — DPLL's
//!   `T`/`F` bound overlays, and the derived IDB labels of the fixpoint
//!   and of its maintained materialisation. A read of an overridden
//!   predicate goes to its row; every other label is read as in full
//!   mode.
//!
//! Label reads go through [`Target::has_label`] and [`Target::label_row`],
//! which honour the overlay; the type, not a comment, rules out a stale
//! label read.

use crate::csr::FrozenStructure;
use crate::sched::ParCtx;
use crate::structure::{Node, Structure};
use crate::symbols::Pred;
use crate::NodeSet;

/// One evaluation's borrowed read target: the data, the optional CSR view
/// of it, and the optional parallel context. See the module docs for the
/// contract.
#[derive(Debug, Clone, Copy)]
pub struct Target<'a> {
    data: &'a Structure,
    view: Option<&'a FrozenStructure>,
    /// Label rows that override the named predicates
    /// ([`Target::with_label_rows`]); empty for a plain target.
    rows: &'a [(Pred, &'a NodeSet)],
    par: Option<ParCtx<'a>>,
}

impl<'a> From<&'a Structure> for Target<'a> {
    /// Live reads of `data` only, sequential.
    fn from(data: &'a Structure) -> Target<'a> {
        Target {
            data,
            view: None,
            rows: &[],
            par: None,
        }
    }
}

impl<'a> Target<'a> {
    /// Read adjacency **and labels** through `view`, a current snapshot of
    /// the data ("full" mode). `None` leaves the target as it is. An
    /// overlay's rows keep precedence over the view's label rows.
    pub fn with_view(mut self, view: Option<&'a FrozenStructure>) -> Self {
        if let Some(f) = view {
            assert_eq!(
                f.node_count(),
                self.data.node_count(),
                "FrozenStructure is not a snapshot of this target"
            );
            self.view = Some(f);
        }
        self
    }

    /// Split the hot loops over `par`'s scheduler; `None` keeps every path
    /// sequential.
    pub fn with_par(mut self, par: Option<ParCtx<'a>>) -> Self {
        self.par = par;
        self
    }

    /// This target with the label rows of the named predicates replaced
    /// by `rows` ("overlay" mode): each row must be dimensioned to the
    /// data's node count. Reads of an overridden predicate go to its row;
    /// every other label keeps its current source (the view when one is
    /// attached, or the live data). Replaces any earlier overlay.
    pub fn with_label_rows<'b>(self, rows: &'b [(Pred, &'b NodeSet)]) -> Target<'b>
    where
        'a: 'b,
    {
        Target { rows, ..self }
    }

    /// The data.
    #[inline]
    pub fn data(&self) -> &'a Structure {
        self.data
    }

    /// The attached view, if any.
    #[inline]
    pub fn view(&self) -> Option<&'a FrozenStructure> {
        self.view
    }

    /// Bitmap row of the nodes labelled `l`, dimensioned to the node
    /// count: the overlay's row for an overridden predicate, else the
    /// view's row; `None` when there is neither (then labels are read off
    /// the live data).
    #[inline]
    pub fn label_row(&self, l: Pred) -> Option<&'a NodeSet> {
        match self.rows.iter().find(|&&(p, _)| p == l) {
            Some(&(_, row)) => Some(row),
            None => self.view.map(|f| f.label_row(l)),
        }
    }

    /// Is `v` labelled `l` in this target? Reads [`Target::label_row`]
    /// when there is one, else the live data.
    #[inline]
    pub fn has_label(&self, v: Node, l: Pred) -> bool {
        // Live reads (no overlay, no view) are the hot case of the
        // planner's per-node admissibility scans.
        if self.rows.is_empty() && self.view.is_none() {
            return self.data.has_label(v, l);
        }
        match self.label_row(l) {
            Some(row) => row.contains_checked(v),
            None => self.data.has_label(v, l),
        }
    }

    /// The parallel context, if any.
    #[inline]
    pub fn par(&self) -> Option<ParCtx<'a>> {
        self.par
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::st;
    use crate::Pred;

    #[test]
    fn label_rows_override_named_predicates_only() {
        let d = st("R(a,b), T(b), A(a)");
        let (a, b) = (crate::Node(0), crate::Node(1));
        let f = FrozenStructure::freeze(&d);
        let mut t_row = NodeSet::empty(d.node_count());
        t_row.insert(a);
        let rows = [(Pred::T, &t_row)];
        for base in [Target::from(&d), Target::from(&d).with_view(Some(&f))] {
            let o = base.with_label_rows(&rows);
            assert_eq!(o.label_row(Pred::T), Some(&t_row));
            assert!(o.has_label(a, Pred::T) && !o.has_label(b, Pred::T));
            // Other labels keep their source: the view when attached, or
            // the live data.
            assert!(o.has_label(a, Pred::A));
            assert_eq!(o.label_row(Pred::A).is_some(), base.view().is_some());
        }
    }
}
