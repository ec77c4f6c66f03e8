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
//!   evidence search, DPLL labelling, CQ containment, the classifier
//!   deciders) runs on plans; it is the workspace's only homomorphism
//!   engine;
//! * [`oracle`]: a naive enumerator of every homomorphism (plain
//!   backtracking in pattern-node order, no pruning beyond checking each
//!   atom), the independent reference the plan executor is tested against;
//! * [`cores`]: retracts, cores, and CQ minimality (a CQ is minimal iff it
//!   has no homomorphism onto a proper sub-CQ, iff it is its own core);
//! * [`iso`]: isomorphism and automorphism tests built on injective search.

pub mod cores;
pub mod iso;
pub mod oracle;
pub mod plan;

pub use cores::{core_of, is_minimal};
pub use iso::{find_isomorphism, isomorphic};
pub use plan::{PlanExec, PlanExplain, QueryPlan};
