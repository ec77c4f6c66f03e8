//! # sirup-engine
//!
//! Evaluation engines for the monadic-sirups workspace.
//!
//! * [`eval`]: bottom-up (semi-naive flavoured) evaluation of monadic datalog
//!   programs with at most binary EDBs over finite data instances — certain
//!   answers for `(Π_q, G)` and `(Σ_q, P)` (§2). Rule bodies are compiled
//!   once into reusable `sirup-hom` query plans ([`eval::CompiledProgram`]).
//! * [`disjunctive`]: certain-answer evaluation of monadic disjunctive
//!   sirups `(Δ_q, G)` and `(Δ⁺_q, G)` by DPLL-style search over the
//!   `T`/`F`-labellings of `A`-nodes (the “proof by exhaustion” of
//!   Example 2), with monotone lower/upper-bound pruning.
//! * [`ucq`]: evaluation of unions of conjunctive queries (FO-rewritings per
//!   Prop. 2 are UCQs).
//! * [`incremental`]: live maintenance of materialised fixpoints under fact
//!   insertion/retraction — delta-rule insertion plus DRed-style
//!   overdelete/rederive deletion with exact support counts
//!   ([`MaterializedFixpoint`]).

pub mod containment;
pub mod disjunctive;
pub mod eval;
pub mod incremental;
pub mod linear;
pub mod ucq;

pub use disjunctive::certain_answer_dsirup;
pub use eval::{evaluate, CompiledProgram, Evaluation};
pub use incremental::{MaterializationStats, MaterializedFixpoint};
pub use ucq::{CompiledUcq, Ucq};
