//! # monadic-sirups
//!
//! A Rust reproduction of **“Deciding Boundedness of Monadic Sirups”**
//! (Kikot, Kurucz, Podolskii, Zakharyaschev, PODS 2021).
//!
//! This facade crate re-exports the workspace crates:
//!
//! * [`core`] — structures, CQs, programs (`Π_q`, `Σ_q`, `Δ_q`);
//! * [`hom`] — homomorphism search, cores, isomorphisms;
//! * [`engine`] — datalog and disjunctive certain-answer evaluation;
//! * [`fo`] — first-order formulas, model checking, SQL rendering and
//!   rewriting verification;
//! * [`cactus`] — cactus expansions and the Prop. 2 boundedness criterion;
//! * [`classifier`] — the §4 deciders (Theorems 7, 9, 11; Corollary 8);
//! * [`atm`] — alternating Turing machines and 01-tree encodings (§3.3);
//! * [`circuits`] — the §3.4 Boolean formula families;
//! * [`reduction`] — the §3.5 2ExpTime-hardness query construction;
//! * [`schemaorg`] — Prop. 5 (Schema.org / DL-Lite_bool presentations);
//! * [`workloads`] — the paper's named objects (q1…q8, D1, D2), generators,
//!   and the traffic/workload-file machinery;
//! * [`server`] — the concurrent certain-answer query service (versioned
//!   instance catalog, plan and answer caches, one request path run
//!   inline or batched on a work-stealing scheduler).
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the system inventory,
//! and `EXPERIMENTS.md` for the paper-claim vs. measured index.
//!
//! ```
//! use monadic_sirups::cactus::{find_bound, BoundSearch, Boundedness};
//! use monadic_sirups::core::OneCq;
//!
//! // The paper's q4 (Example 1) — its sirup is unbounded.
//! let q4 = OneCq::parse("F(x), R(y,x), R(y,z), T(z)");
//! let verdict = find_bound(&q4, BoundSearch::default());
//! assert!(matches!(verdict, Boundedness::UnboundedEvidence { .. }));
//! ```

pub use sirup_atm as atm;
pub use sirup_cactus as cactus;
pub use sirup_circuits as circuits;
pub use sirup_classifier as classifier;
pub use sirup_core as core;
pub use sirup_engine as engine;
pub use sirup_fo as fo;
pub use sirup_hom as hom;
pub use sirup_reduction as reduction;
pub use sirup_schemaorg as schemaorg;
pub use sirup_server as server;
pub use sirup_workloads as workloads;
