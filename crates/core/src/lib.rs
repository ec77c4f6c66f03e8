//! # sirup-core
//!
//! Core vocabulary for the reproduction of *“Deciding Boundedness of Monadic
//! Sirups”* (Kikot, Kurucz, Podolskii, Zakharyaschev, PODS 2021).
//!
//! This crate provides the shared data model used by every other crate in the
//! workspace:
//!
//! * interned predicate symbols ([`Pred`], [`symbols`]),
//! * finite relational [`Structure`]s with unary and binary predicates, used
//!   uniformly for conjunctive queries, data instances, cactuses and blow-ups,
//! * the paper's query classes: [`cq::OneCq`] (1-CQs with a single solitary
//!   `F`-node) and general d-sirup CQs,
//! * monadic datalog [`program::Program`]s and the constructors `Π_q`, `Σ_q`
//!   and the disjunctive `Δ_q` of the paper (§2, rules (1)–(7)),
//! * prebuilt per-predicate indexes over structures ([`index::PredIndex`]),
//!   used by the hom engine and the query service for repeated global
//!   per-predicate lookups,
//! * CSR-style frozen read snapshots ([`csr::FrozenStructure`]) — contiguous
//!   per-predicate adjacency arrays and label bitmap rows for the hot
//!   evaluation loops, built once per catalog snapshot,
//! * one borrowed read target per evaluation ([`target::Target`]): the
//!   data plus its optional index, view and parallel context,
//! * per-worker reusable evaluation buffers ([`arena`]) so the inner loops
//!   of plan execution and fixpoint rounds stop allocating,
//! * structurally-shared paged storage ([`paged`]) backing both: O(pages)
//!   snapshot clones with page-granular copy-on-write, so the service's
//!   snapshot-per-mutation catalog pays O(touched) per write,
//! * fact-level deltas over structures ([`delta::FactOp`]) — the mutation
//!   vocabulary shared by the incremental fixpoint maintenance, the
//!   service-layer mutation traffic, the workload file format, and (in the
//!   binary encoding) the write-ahead log,
//! * length-prefixed checksummed byte frames ([`frame`]) carrying both the
//!   TCP wire protocol and the WAL's on-disk records,
//! * poison-recovering lock helpers ([`sync`]) for long-lived service state,
//! * a process-wide metrics registry and request-tracing facility
//!   ([`telemetry`]) every layer reports into,
//! * shape recognisers for ditrees and dags ([`shape`]),
//! * a small text format for structures ([`parse`]).

#![deny(missing_docs)]

pub mod arena;
pub mod bitset;
pub mod builder;
pub mod cq;
pub mod csr;
pub mod delta;
pub mod frame;
pub mod fx;
pub mod index;
pub mod paged;
pub mod parse;
pub mod program;
pub mod sched;
pub mod shape;
pub mod structure;
pub mod symbols;
pub mod sync;
pub mod target;
pub mod telemetry;

pub use bitset::NodeSet;
pub use cq::OneCq;
pub use csr::FrozenStructure;
pub use delta::FactOp;
pub use index::PredIndex;
pub use program::{Atom, Program, Rule, Term};
pub use sched::{CancelToken, ParCtx, SchedStats, Scheduler};
pub use structure::{Node, Structure};
pub use symbols::Pred;
pub use target::Target;
pub use telemetry::TelemetrySnapshot;
