//! # sirup-server
//!
//! A concurrent certain-answer query service over the workspace's engines —
//! the paper's one-shot library calls packaged as a multi-instance,
//! multi-threaded service. The in-process [`Server`] is the core of the
//! service; [`wire`] adds a length-prefixed TCP front-end on top of it and
//! [`wal`] gives it write-ahead durability (`sirupctl serve`/`connect`/
//! `replay` front both).
//!
//! Three layers (see `DESIGN.md`, "Service layer" and "Incremental
//! maintenance"):
//!
//! * [`catalog`] — a **versioned instance catalog**: named
//!   [`sirup_core::Structure`] snapshots behind one `RwLock` map, each
//!   stored with its CSR view ([`sirup_core::FrozenStructure`], frozen at
//!   load) and the instance's live [`sirup_engine::MaterializedFixpoint`]s.
//!   Mutations are copy-on-write `Arc` swaps under fresh versions: data
//!   patched and view carried by clone + `apply_all`, once per version;
//!   materialisations advanced *incrementally* (DRed over the old and the
//!   new snapshot) with no data of their own; same-instance order fixed
//!   by tickets;
//! * [`plan`] — a **plan cache**: an LRU of per-program [`plan::Plan`]s
//!   memoising the compiled search of the chosen strategy — given Prop. 2
//!   boundedness evidence, the UCQ rewriting, so bounded programs are
//!   answered by rewriting instead of fixpoint (and need no maintenance at
//!   all under mutation); for disjunctive sirups, the CQ's core;
//! * [`server`] — **one request path** on the shared work-stealing
//!   scheduler (`sirup-core::sched`): every request is resolved
//!   (snapshot, answer-cache probe, plan), reserved (a mutation's ticket
//!   and WAL record), run and recorded by the same steps, inline in
//!   [`Server::answer_one`] or as detached scheduler jobs for a batch
//!   ([`Server::submit`]). A query not in the answer cache runs its
//!   plan's one route (rewriting, materialised semi-naive, or DPLL for
//!   disjunctive sirups), the answer cache is keyed by instance version
//!   so mutations invalidate it by construction, and — with
//!   [`server::ServerConfig::parallelism`] `> 1` — each request splits
//!   its own evaluation (plan enumeration chunks, semi-naive delta
//!   chunks, UCQ disjuncts) into subtasks on the *same* workers.
//!
//! Two service-boundary layers sit on top (see `DESIGN.md`, "Wire protocol
//! & durability"):
//!
//! * [`wal`] — a **write-ahead log**: every acknowledged load/mutation/
//!   remove is an fsync'd [`sirup_core::FactOp`] record in `wal.log`
//!   *before* the catalog applies it, with periodic snapshot + log
//!   compaction (`snapshot.bin`, epoch-stamped) so a `kill -9` recovers
//!   the exact catalog — per-instance sequence numbers included;
//! * [`wire`] — a **TCP front-end** on `std::net`: length-prefixed,
//!   CRC-checked frames ([`sirup_core::frame`]) carrying a small text
//!   vocabulary (`load`/`query`/`mutate`/`stats`/`tail`/...), each
//!   connection a detached job on the *same* shared scheduler (a blocked
//!   socket never holds a worker — connections re-spawn on a read
//!   timeout), each request isolated by `catch_unwind`.
//!
//! The differential test-suite pins batched, concurrent answers — cold
//! cache, warm cache, rewriting-served, under mutation, and with
//! intra-request parallelism on — to the engine's **sequential** evaluation
//! paths, which remain available unchanged and serve as the oracle for
//! every parallel path.
//!
//! ```
//! use sirup_server::{Server, Request, Query, Answer};
//! use sirup_core::{parse::st, FactOp, Node, OneCq, Pred};
//!
//! let server = Server::with_defaults();
//! server.load_instance("d", st("F(u), R(u,v), T(v)")).unwrap();
//! let req = Request::query(Query::PiGoal(OneCq::parse("F(x), R(x,y), T(y)")), "d");
//! let resp = server.submit(std::slice::from_ref(&req)).unwrap();
//! assert_eq!(resp[0].answer, Answer::Bool(true));
//!
//! // The catalog is live: retract the T-fact and the answer flips.
//! let retract = Request::mutation(vec![FactOp::RemoveLabel(Pred::T, Node(1))], "d");
//! server.submit(&[retract]).unwrap();
//! let resp = server.submit(&[req]).unwrap();
//! assert_eq!(resp[0].answer, Answer::Bool(false));
//! ```

#![deny(missing_docs)]

mod cache;
pub mod catalog;
pub mod metrics;
pub mod plan;
pub mod server;
pub mod wal;
pub mod wire;

pub use catalog::{Catalog, CowStats, IndexedInstance, MutationOutcome};
pub use metrics::LatencyStats;
pub use plan::{Answer, Plan, PlanCache, PlanOptions, Query, Strategy};
pub use server::{
    Action, InstanceStats, ReplayMode, ReplayReport, Request, Response, Server, ServerConfig,
    ServerError, MAX_NODES,
};
pub use wal::{RecoveredInstance, Wal, WalRecord};
pub use wire::{Daemon, TailEvent, WireConfig};
