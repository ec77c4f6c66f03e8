//! The read target of one evaluation.
//!
//! Every certain-answer procedure — the fixpoint of `Π_q`/`Σ_q`, the UCQ
//! rewriting of Prop. 2, the DPLL search for `Δ_q` — reads one data
//! instance, possibly through up to three read substrates:
//!
//! * the live [`Structure`] itself (always);
//! * a [`PredIndex`] of it: label and endpoint postings that seed
//!   candidate domains;
//! * a [`FrozenStructure`] CSR view of it: contiguous adjacency rows and
//!   bitmap rows for labels and edge endpoints;
//!
//! plus an optional [`ParCtx`] that lets the hot loops split over the
//! shared scheduler. A [`Target`] bundles the four into one borrowed
//! `Copy` value, so every evaluator has exactly one entry point.
//!
//! **The read-target contract.** Each attached substrate is a current
//! snapshot of `data` (its node count is asserted on attach). The one
//! exception is built by [`Target::relabelled`]: a working copy that
//! differs from the data by *labels only* (the fixpoint's derived IDB
//! labels, DPLL's bound structures). Its edges are the data's, so the view
//! stays attached for adjacency; its labels have moved on, so the index is
//! dropped and the view's label rows are never read. The type, not a
//! comment, rules out a stale label read.

use crate::csr::FrozenStructure;
use crate::index::PredIndex;
use crate::sched::ParCtx;
use crate::structure::Structure;

/// One evaluation's borrowed read target: the data, the optional index and
/// CSR view of it, and the optional parallel context. See the module docs
/// for the contract.
#[derive(Debug, Clone, Copy)]
pub struct Target<'a> {
    data: &'a Structure,
    index: Option<&'a PredIndex>,
    view: Option<&'a FrozenStructure>,
    /// Are the view's label rows current for `data`? `false` only on a
    /// [`Target::relabelled`] working copy.
    view_labels: bool,
    par: Option<ParCtx<'a>>,
}

impl<'a> From<&'a Structure> for Target<'a> {
    /// Live reads of `data` only, sequential.
    fn from(data: &'a Structure) -> Target<'a> {
        Target {
            data,
            index: None,
            view: None,
            view_labels: false,
            par: None,
        }
    }
}

impl<'a> Target<'a> {
    /// Seed candidate domains from `index`, a current snapshot of the data.
    pub fn with_index(mut self, index: &'a PredIndex) -> Self {
        assert_eq!(
            index.node_count(),
            self.data.node_count(),
            "PredIndex is not a snapshot of this target"
        );
        self.index = Some(index);
        self
    }

    /// Read adjacency **and labels** through `view`, a current snapshot of
    /// the data ("full" mode). `None` leaves the target as it is.
    pub fn with_view(mut self, view: Option<&'a FrozenStructure>) -> Self {
        if let Some(f) = view {
            assert_eq!(
                f.node_count(),
                self.data.node_count(),
                "FrozenStructure is not a snapshot of this target"
            );
            self.view = Some(f);
            self.view_labels = true;
        }
        self
    }

    /// Split the hot loops over `par`'s scheduler; `None` keeps every path
    /// sequential.
    pub fn with_par(mut self, par: Option<ParCtx<'a>>) -> Self {
        self.par = par;
        self
    }

    /// The target for `work`, a copy of this target's data that has since
    /// gained or lost labels but no edges or nodes. The view stays
    /// attached in "edges-only" mode (its label rows are never read) and
    /// the index is dropped; the parallel context carries over.
    pub fn relabelled<'b>(self, work: &'b Structure) -> Target<'b>
    where
        'a: 'b,
    {
        if let Some(f) = self.view {
            assert_eq!(
                f.node_count(),
                work.node_count(),
                "FrozenStructure is not a snapshot of this target"
            );
        }
        Target {
            data: work,
            index: None,
            view: self.view,
            view_labels: false,
            par: self.par,
        }
    }

    /// The data.
    #[inline]
    pub fn data(&self) -> &'a Structure {
        self.data
    }

    /// The attached index, if any.
    #[inline]
    pub fn index(&self) -> Option<&'a PredIndex> {
        self.index
    }

    /// The attached view, if any. Its edge side is always current.
    #[inline]
    pub fn view(&self) -> Option<&'a FrozenStructure> {
        self.view
    }

    /// The attached view if its label rows are current too ("full" mode).
    #[inline]
    pub fn label_view(&self) -> Option<&'a FrozenStructure> {
        self.view.filter(|_| self.view_labels)
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
    fn relabelled_keeps_edges_only() {
        let d = st("R(a,b), T(b)");
        let idx = PredIndex::new(&d);
        let f = FrozenStructure::freeze(&d);
        let full = Target::from(&d).with_index(&idx).with_view(Some(&f));
        assert!(full.index().is_some() && full.label_view().is_some());
        let mut work = d.clone();
        work.add_label(crate::Node(0), Pred::P);
        let w = full.relabelled(&work);
        assert!(w.index().is_none());
        assert!(w.view().is_some());
        assert!(w.label_view().is_none());
        // Re-attaching no view keeps the mode.
        assert!(w.with_view(None).label_view().is_none());
    }
}
