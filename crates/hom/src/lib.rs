//! # sirup-hom
//!
//! Homomorphism engine for the monadic-sirups workspace.
//!
//! Every semantic notion of the paper bottoms out in homomorphisms between
//! finite relational structures: certain answers via cactus images (Prop. 1),
//! the boundedness criterion (Prop. 2), the focusedness condition (foc), CQ
//! minimality (§4), and the H(t,f) tests of Theorem 11. This crate provides:
//!
//! * [`plan`]: **compile-once query plans** — a pattern is compiled once
//!   into a static variable order, per-variable domain constraints, and
//!   join programs, then executed any number of times against different
//!   targets with dense-bitset domains and AC-3 prefiltering. Every hot
//!   path in the workspace (datalog fixpoints, UCQ evaluation, Prop. 2
//!   evidence search, DPLL labelling, the classifier deciders) runs on
//!   plans;
//! * [`search`]: the legacy backtracking homomorphism search (dynamic MRV
//!   ordering, re-planned per call) with label/degree filtering,
//!   arc-consistency propagation, pinned assignments, an injectivity mode,
//!   and bounded enumeration — kept as the differential-test oracle the
//!   plan executor is pinned against;
//! * [`cores`]: retracts, cores, and CQ minimality (a CQ is minimal iff it
//!   has no homomorphism onto a proper sub-CQ, iff it is its own core);
//! * [`iso`]: isomorphism and automorphism tests built on injective search.

pub mod cores;
pub mod iso;
pub mod plan;
pub mod search;

pub use cores::{core_of, is_minimal};
pub use iso::{find_isomorphism, isomorphic};
pub use plan::{PlanExec, PlanExplain, QueryPlan};
pub use search::{all_homs, find_hom, find_hom_fixing, hom_exists, HomFinder};
