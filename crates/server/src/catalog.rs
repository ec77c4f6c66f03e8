//! The sharded, versioned instance catalog.
//!
//! The service holds many named data instances at once. Each instance is
//! stored *indexed*: alongside the [`Structure`] sits a prebuilt
//! [`PredIndex`] so every evaluation strategy reads per-predicate edge and
//! label lists as sorted slices instead of rescanning adjacency, plus the
//! instance's **live materialisations** — one incrementally maintained
//! [`MaterializedFixpoint`] per semi-naive program that has queried it.
//!
//! Instances are **immutable snapshots**: a mutation builds a new
//! [`IndexedInstance`] — data snapshot-cloned and patched, index updated by
//! [`PredIndex::apply`] deltas (not rebuilt), the CSR read view (once one
//! is built) carried by [`FrozenStructure::apply`] deltas, every
//! materialisation carried forward by *incremental* maintenance (not
//! re-evaluated) — under a fresh catalog-wide version, and swaps the `Arc`
//! (copy-on-write). The structure and the index store their lists in
//! `Arc`-shared pages (`sirup_core::paged`) and the view shares its base
//! arrays, so the "clone" is O(pages) pointer bumps and
//! patching dirties only the pages the ops touch: a point write is
//! O(touched) end to end, flat in instance size, and consecutive versions
//! physically share all untouched storage ([`CowStats`] measures how
//! much). In-flight readers keep the snapshot they resolved: data, index,
//! and materialisations are mutually consistent by construction, with no
//! version checks on the read path.
//!
//! Mutations to the *same* instance are serialised in ticket order (see
//! [`Catalog::reserve_ticket`]): the batch executor may run mutation
//! requests on any worker thread, but their effects apply in submission
//! order, which keeps replayed mutation streams deterministic. Mutations to
//! different instances proceed in parallel (the expensive copy-forward work
//! happens outside the shard lock).
//!
//! The map is split into shards, each behind its own `RwLock`, so concurrent
//! lookups from worker threads and loads from the control path contend only
//! per shard. Shard choice hashes the instance name with the workspace's
//! `FxHasher`.

use crate::cache::StampedLru;
use sirup_core::csr::FREEZE_EDGE_THRESHOLD;
use sirup_core::fx::{FxHashMap, FxHasher};
use sirup_core::sync;
use sirup_core::telemetry;
use sirup_core::{FactOp, FrozenStructure, ParCtx, PredIndex, Scheduler, Structure, Target};
use sirup_engine::{MaterializationStats, MaterializedFixpoint};
use std::hash::Hasher as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};

/// Most live materialisations one instance retains (LRU beyond this):
/// every mutation carries each attached materialisation forward, so an
/// unbounded set — one per distinct semi-naive program ever queried —
/// would make per-op mutation cost and memory grow without bound.
const MAX_LIVE_MATERIALIZATIONS: usize = 32;

/// Structural-sharing statistics of one snapshot, measured against the
/// version it was mutated from (all-zero sharing for a fresh load: there
/// is no predecessor to share with).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CowStats {
    /// Storage pages (structure) + posting chunks (index) in the snapshot.
    pub pages: usize,
    /// Of those, how many are physically shared (same allocation) with the
    /// predecessor snapshot — O(touched) writes keep this near `pages`.
    pub shared_pages: usize,
    /// Approximate heap bytes retained by data + index. Shared pages count
    /// fully: this is "bytes reachable from this snapshot", of which
    /// roughly `shared_ratio()` cost nothing new.
    pub retained_bytes: usize,
}

impl CowStats {
    /// Measure a snapshot with no predecessor (fresh load / recovery).
    fn fresh(data: &Structure, index: &PredIndex) -> CowStats {
        CowStats {
            pages: data.page_count() + index.chunk_count(),
            shared_pages: 0,
            retained_bytes: data.retained_bytes() + index.retained_bytes(),
        }
    }

    /// Measure a mutated snapshot against the version it came from.
    fn against(data: &Structure, index: &PredIndex, old: &IndexedInstance) -> CowStats {
        CowStats {
            shared_pages: data.shared_pages_with(&old.data) + index.shared_chunks_with(&old.index),
            ..CowStats::fresh(data, index)
        }
    }

    /// Fraction of pages shared with the predecessor (0.0 with no pages).
    pub fn shared_ratio(&self) -> f64 {
        if self.pages == 0 {
            0.0
        } else {
            self.shared_pages as f64 / self.pages as f64
        }
    }

    /// Approximate bytes of `retained_bytes` that are shared with the
    /// predecessor (retained scaled by the shared-page fraction).
    pub fn shared_bytes(&self) -> u64 {
        (self.retained_bytes as f64 * self.shared_ratio()) as u64
    }
}

/// A named, immutable snapshot of a data instance: the structure, its
/// prebuilt per-predicate index, and the live materialisations attached to
/// this version.
#[derive(Debug)]
pub struct IndexedInstance {
    /// Catalog name.
    pub name: String,
    /// The data instance.
    pub data: Structure,
    /// Per-predicate index snapshot of `data`.
    pub index: PredIndex,
    /// Catalog-wide version of this snapshot (strictly increases across
    /// loads and mutations of any instance; a reload always changes it).
    /// Used for cache keying — never reported to clients.
    pub version: u64,
    /// Per-instance mutation sequence number: 0 after a fresh load, +1 per
    /// applied mutation batch. This is the durable coordinate — the WAL
    /// records it, recovery restores it, and `Answer::Applied` reports it —
    /// so it is deterministic for a given mutation stream regardless of
    /// what other instances the catalog serves concurrently.
    pub seq: u64,
    /// Live materialisations keyed by program cache key, built lazily by
    /// the first semi-naive query and carried forward incrementally by
    /// mutations. Each is immutable once built (mutation clones it); the
    /// set is LRU-bounded by [`MAX_LIVE_MATERIALIZATIONS`].
    mats: StampedLru<Arc<MaterializedFixpoint>>,
    /// Structural sharing of this snapshot with the version it was mutated
    /// from (zero sharing after a fresh load).
    pub cow: CowStats,
    /// CSR read view of `data` (see [`sirup_core::csr::FrozenStructure`]):
    /// contiguous per-predicate adjacency plus label bitmap rows, shared by
    /// every strategy that evaluates against this version, and only for
    /// instances above the freeze gate. A loaded or restored
    /// instance freezes it on first use; from then on every mutation
    /// carries the predecessor's view forward with
    /// [`FrozenStructure::apply`] and stores it pre-filled, so reads after
    /// a write never re-freeze. Either way the view reads exactly like a
    /// fresh freeze of this version's `data`.
    frozen: OnceLock<Option<FrozenStructure>>,
}

impl IndexedInstance {
    /// Index `data` under `name` at version 0 (for direct library use; the
    /// catalog assigns real versions).
    pub fn new(name: impl Into<String>, data: Structure) -> IndexedInstance {
        IndexedInstance::with_version(name, data, 0)
    }

    /// Index `data` under `name` at an explicit version (mutation sequence
    /// starts at 0, as after a fresh load).
    pub fn with_version(name: impl Into<String>, data: Structure, version: u64) -> IndexedInstance {
        IndexedInstance::with_state(name, data, version, 0)
    }

    /// Index `data` under `name` at an explicit version and mutation
    /// sequence (the recovery path re-creates instances mid-sequence).
    pub fn with_state(
        name: impl Into<String>,
        data: Structure,
        version: u64,
        seq: u64,
    ) -> IndexedInstance {
        let index = PredIndex::new(&data);
        let cow = CowStats::fresh(&data, &index);
        IndexedInstance {
            name: name.into(),
            data,
            index,
            version,
            seq,
            mats: StampedLru::new(MAX_LIVE_MATERIALIZATIONS),
            cow,
            frozen: OnceLock::new(),
        }
    }

    /// The CSR read view of this version's data: the one a mutation
    /// carried forward, else built on first use. Returns `None` for
    /// instances below the freeze gate (where building costs more
    /// than it saves). Concurrent first builds race; `OnceLock` keeps the
    /// first and drops the rest, which is sound because both are frozen
    /// from the same immutable data.
    pub fn frozen(&self) -> Option<&FrozenStructure> {
        self.frozen
            .get_or_init(|| {
                // Time only an actual freeze, not a gated-out `None`.
                let _t = (self.data.edge_count() >= FREEZE_EDGE_THRESHOLD)
                    .then(|| telemetry::timed(telemetry::Family::CsrFreeze, "csr_freeze"));
                FrozenStructure::freeze_if_large(&self.data)
            })
            .as_ref()
    }

    /// The read target of this version: data, index and CSR view
    /// ([`IndexedInstance::frozen`], so this may build the view), with
    /// `par` attached.
    pub fn target<'a>(&'a self, par: Option<ParCtx<'a>>) -> Target<'a> {
        Target::from(&self.data)
            .with_index(&self.index)
            .with_view(self.frozen())
            .with_par(par)
    }

    /// Heap bytes held by the CSR read view, if one has been built or
    /// carried (0 otherwise — querying this never forces a build).
    pub fn frozen_bytes(&self) -> usize {
        self.frozen
            .get()
            .and_then(|f| f.as_ref())
            .map_or(0, |f| f.retained_bytes())
    }

    /// The materialisation for `key`, building it with `build` on first
    /// use. Concurrent first uses may build twice; the first insert wins,
    /// which is sound because both are built from this immutable snapshot.
    pub fn materialization(
        &self,
        key: &str,
        build: impl FnOnce() -> MaterializedFixpoint,
    ) -> Arc<MaterializedFixpoint> {
        if let Some(m) = self.mats.get(key) {
            return m;
        }
        let built = Arc::new(build());
        self.mats.insert(key.to_owned(), Arc::clone(&built));
        built
    }

    /// Detach the materialisation for `key`, returning whether one was
    /// attached. Detaching stops the incremental carry-forward cost on
    /// every subsequent mutation — adaptive demotion calls this when
    /// writes dominate a program's traffic. A concurrent reader holding
    /// the `Arc` keeps its (still-correct) snapshot; a concurrent
    /// attacher may re-attach, which is benign (the next demotion
    /// detaches again).
    pub fn detach_materialization(&self, key: &str) -> bool {
        self.mats.remove(key)
    }

    /// Stats of every attached materialisation, sorted by program key.
    pub fn materialization_stats(&self) -> Vec<(String, MaterializationStats)> {
        let mut out: Vec<(String, MaterializationStats)> = self
            .mats
            .entries()
            .into_iter()
            .map(|(k, m)| (k, m.stats()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Number of attached materialisations.
    pub fn materialization_count(&self) -> usize {
        self.mats.len()
    }
}

/// The result of one applied mutation batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationOutcome {
    /// Ops that changed the instance (set semantics: duplicate inserts and
    /// absent retracts are no-ops).
    pub applied: usize,
    /// The instance's mutation sequence number after this batch — the k-th
    /// mutation since the instance was loaded carries `seq == k`,
    /// independent of any other instance's traffic.
    pub seq: u64,
}

type Shard = RwLock<FxHashMap<String, Arc<IndexedInstance>>>;

/// Per-instance mutation ticket state: tickets are handed out in
/// submission order and applied strictly in that order.
#[derive(Debug, Default)]
struct Tickets {
    issued: FxHashMap<String, u64>,
    applied: FxHashMap<String, u64>,
}

/// A sharded map from instance name to versioned [`IndexedInstance`]
/// snapshots, with ticket-ordered copy-on-write mutation.
#[derive(Debug)]
pub struct Catalog {
    shards: Vec<Shard>,
    versions: AtomicU64,
    tickets: Mutex<Tickets>,
    ticket_cv: Condvar,
    /// When set, a mutation carries the instance's live materialisations
    /// forward as parallel subtasks on the shared scheduler (one per
    /// materialisation — they are independent). `None` forwards them
    /// sequentially, which is the differential oracle.
    mat_sched: Option<Arc<Scheduler>>,
}

impl Catalog {
    /// A catalog with `shards` shards (at least 1).
    pub fn new(shards: usize) -> Catalog {
        Catalog {
            shards: (0..shards.max(1)).map(|_| Shard::default()).collect(),
            versions: AtomicU64::new(0),
            tickets: Mutex::new(Tickets::default()),
            ticket_cv: Condvar::new(),
            mat_sched: None,
        }
    }

    /// Forward live materialisations in parallel on `sched` during
    /// mutations (the server enables this when its `parallelism` config
    /// exceeds 1). Same-instance mutation *order* is untouched — tickets
    /// still serialise whole mutations; only the independent per-program
    /// carry-forward work inside one mutation fans out.
    pub fn with_mat_parallelism(mut self, sched: Arc<Scheduler>) -> Catalog {
        self.mat_sched = Some(sched);
        self
    }

    fn shard_of(&self, name: &str) -> &Shard {
        let mut h = FxHasher::default();
        h.write(name.as_bytes());
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    fn next_version(&self) -> u64 {
        self.versions.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Load (or replace) an instance under a fresh version. Returns `true`
    /// if a previous instance with this name was replaced. The mutation
    /// sequence restarts at 0 — a (re)load begins a new durable history —
    /// so quiescent ticket state for the name is reset too; with tickets
    /// still outstanding the counters stay, keeping in-flight waiters'
    /// numbering intact.
    pub fn insert(&self, name: impl Into<String>, data: Structure) -> bool {
        let inst = IndexedInstance::with_version(name, data, self.next_version());
        let name = inst.name.clone();
        let replaced = sync::write(self.shard_of(&name))
            .insert(name.clone(), Arc::new(inst))
            .is_some();
        let mut t = sync::lock(&self.tickets);
        if t.issued.get(&name) == t.applied.get(&name) {
            t.issued.remove(&name);
            t.applied.remove(&name);
        }
        replaced
    }

    /// Re-create an instance mid-history: data at mutation sequence `seq`,
    /// ticket counters aligned so the next mutation applies as `seq + 1`.
    /// This is the recovery path — the caller (WAL replay) owns the claim
    /// that `data` really is the fold of the first `seq` mutation batches.
    pub fn restore(&self, name: impl Into<String>, data: Structure, seq: u64) {
        let inst = IndexedInstance::with_state(name, data, self.next_version(), seq);
        let name = inst.name.clone();
        sync::write(self.shard_of(&name)).insert(name.clone(), Arc::new(inst));
        let mut t = sync::lock(&self.tickets);
        t.issued.insert(name.clone(), seq);
        t.applied.insert(name, seq);
    }

    /// Look up an instance by name.
    pub fn get(&self, name: &str) -> Option<Arc<IndexedInstance>> {
        sync::read(self.shard_of(name)).get(name).cloned()
    }

    /// Reserve the next mutation ticket for `name`. Tickets must each be
    /// redeemed by exactly one later [`Catalog::mutate_ticketed`] call (in
    /// any thread); redemption happens in ticket order.
    pub fn reserve_ticket(&self, name: &str) -> u64 {
        let mut t = sync::lock(&self.tickets);
        let counter = t.issued.entry(name.to_owned()).or_insert(0);
        let ticket = *counter;
        *counter += 1;
        ticket
    }

    /// Block until every reserved ticket (for every instance) has been
    /// redeemed. The snapshot path quiesces before serialising the catalog
    /// so no acknowledged-but-unapplied mutation can be missed.
    pub fn quiesce(&self) {
        let mut t = sync::lock(&self.tickets);
        while t.issued.iter().any(|(n, i)| t.applied.get(n) != Some(i)) {
            t = sync::wait(&self.ticket_cv, t);
        }
    }

    /// Apply a mutation batch under a previously reserved ticket: waits
    /// until every earlier ticket for this instance has been applied, then
    /// swaps in the mutated snapshot. Returns `None` if the instance is
    /// (no longer) present — the ticket is still consumed.
    pub fn mutate_ticketed(
        &self,
        name: &str,
        ops: &[FactOp],
        ticket: u64,
    ) -> Option<MutationOutcome> {
        {
            let _t = telemetry::timed(telemetry::Family::TicketWait, "ticket_wait");
            let mut t = sync::lock(&self.tickets);
            while *t.applied.get(name).unwrap_or(&0) != ticket {
                t = sync::wait(&self.ticket_cv, t);
            }
        }
        let outcome = self.apply_mutation(name, ops);
        let mut t = sync::lock(&self.tickets);
        *t.applied.entry(name.to_owned()).or_insert(0) += 1;
        self.ticket_cv.notify_all();
        drop(t);
        outcome
    }

    /// Reserve a ticket and apply `ops` (the one-call path for direct
    /// library use; the batch executor reserves at submission time).
    pub fn mutate(&self, name: &str, ops: &[FactOp]) -> Option<MutationOutcome> {
        let ticket = self.reserve_ticket(name);
        self.mutate_ticketed(name, ops, ticket)
    }

    /// Copy-on-write application: clone the current snapshot's data, patch
    /// it, delta-update the index, carry every materialisation forward
    /// incrementally, and swap the new snapshot in. Runs outside the shard
    /// lock except for the final swap; same-instance ordering is the ticket
    /// sequencer's job.
    fn apply_mutation(&self, name: &str, ops: &[FactOp]) -> Option<MutationOutcome> {
        telemetry::counter_add(telemetry::Counter::MutationsApplied, 1);
        let _apply_t = telemetry::timed(telemetry::Family::MutationApply, "mutation_apply");
        let old = self.get(name)?;
        let mut data = old.data.clone();
        let applied = data.apply_all(ops);
        let mut index = old.index.clone();
        let index_applied = index.apply_all(ops);
        debug_assert_eq!(applied, index_applied, "index deltas diverged from data");
        let mats = StampedLru::new(MAX_LIVE_MATERIALIZATIONS);
        let entries = old.mats.entries();
        let mat_t = (!entries.is_empty())
            .then(|| telemetry::timed(telemetry::Family::MatCarry, "materialisation_carry"));
        match &self.mat_sched {
            Some(sched) if entries.len() >= 2 => {
                // Independent per-program maintenance: one subtask per
                // materialisation; chunk order preserves the LRU insertion
                // order of the sequential path.
                let forwarded = sched.map_chunks(&entries, entries.len(), |slice| {
                    slice
                        .iter()
                        .map(|(k, m)| {
                            let mut fwd = (**m).clone();
                            fwd.apply(ops);
                            (k.clone(), fwd)
                        })
                        .collect::<Vec<_>>()
                });
                for (k, fwd) in forwarded.into_iter().flatten() {
                    mats.insert(k, Arc::new(fwd));
                }
            }
            _ => {
                for (k, m) in entries {
                    let mut fwd = (*m).clone();
                    fwd.apply(ops);
                    mats.insert(k, Arc::new(fwd));
                }
            }
        }
        drop(mat_t);
        // Carry a built read view forward (dropped below the freeze gate,
        // where `frozen()` promises `None`); otherwise the new snapshot
        // freezes lazily, like a fresh load.
        let frozen = OnceLock::new();
        if let Some(Some(view)) = old.frozen.get() {
            if data.edge_count() >= FREEZE_EDGE_THRESHOLD {
                let _t = telemetry::timed(telemetry::Family::CsrCarry, "csr_carry");
                let next = view.apply(ops);
                debug_assert_eq!(
                    (next.node_count(), next.edge_count()),
                    (data.node_count(), data.edge_count()),
                    "carried view diverged from data"
                );
                let _ = frozen.set(Some(next));
            }
        }
        let cow = CowStats::against(&data, &index, &old);
        telemetry::gauge_set(telemetry::Gauge::CatalogBytesShared, cow.shared_bytes());
        let version = self.next_version();
        let seq = old.seq + 1;
        let inst = IndexedInstance {
            name: name.to_owned(),
            data,
            index,
            version,
            seq,
            mats,
            cow,
            frozen,
        };
        sync::write(self.shard_of(name)).insert(name.to_owned(), Arc::new(inst));
        Some(MutationOutcome { applied, seq })
    }

    /// Drop an instance. Returns `true` if it existed. Quiescent ticket
    /// state for the name is pruned (a churn of generated names must not
    /// leak counter entries); with tickets still outstanding the entry
    /// stays, so in-flight `mutate_ticketed` waiters keep their numbering.
    pub fn remove(&self, name: &str) -> bool {
        let existed = sync::write(self.shard_of(name)).remove(name).is_some();
        let mut t = sync::lock(&self.tickets);
        if t.issued.get(name) == t.applied.get(name) {
            t.issued.remove(name);
            t.applied.remove(name);
        }
        existed
    }

    /// Number of loaded instances.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| sync::read(s).len()).sum()
    }

    /// Is the catalog empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// All instance names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| sync::read(s).keys().cloned().collect::<Vec<_>>())
            .collect();
        names.sort_unstable();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirup_core::parse::st;
    use sirup_core::{Node, Pred};

    #[test]
    fn insert_get_remove() {
        let c = Catalog::new(4);
        assert!(c.is_empty());
        assert!(!c.insert("a", st("F(x), R(x,y), T(y)")));
        assert!(!c.insert("b", st("T(u)")));
        assert_eq!(c.len(), 2);
        assert_eq!(c.shard_count(), 4);
        let a = c.get("a").unwrap();
        assert_eq!(a.name, "a");
        assert_eq!(a.data.size(), 3);
        assert_eq!(a.index.node_count(), a.data.node_count());
        assert!(c.get("zzz").is_none());
        // Replacing returns true, swaps the Arc, and bumps the version.
        assert!(c.insert("a", st("T(v)")));
        let a2 = c.get("a").unwrap();
        assert_eq!(a2.data.size(), 1);
        assert!(a2.version > a.version);
        // The old Arc stays valid for holders.
        assert_eq!(a.data.size(), 3);
        assert!(c.remove("a"));
        assert!(!c.remove("a"));
        assert_eq!(c.names(), vec!["b"]);
    }

    #[test]
    fn mutate_swaps_a_consistent_snapshot() {
        let c = Catalog::new(2);
        c.insert("d", st("F(a), R(a,b), T(b)"));
        let before = c.get("d").unwrap();
        let out = c
            .mutate(
                "d",
                &[
                    FactOp::AddLabel(Pred::A, Node(1)),
                    FactOp::AddLabel(Pred::A, Node(1)), // duplicate: no-op
                    FactOp::RemoveEdge(Pred::R, Node(0), Node(1)),
                ],
            )
            .unwrap();
        assert_eq!(out.applied, 2);
        let after = c.get("d").unwrap();
        assert_eq!(after.seq, out.seq);
        assert_eq!(out.seq, 1, "first mutation since load");
        assert!(after.version > before.version);
        assert!(after.data.has_label(Node(1), Pred::A));
        assert_eq!(after.data.edge_count(), 0);
        // Index was delta-updated, not stale.
        assert!(after.index.pairs(Pred::R).is_empty());
        assert_eq!(
            after.index.nodes_with_label(Pred::A).to_vec(),
            vec![Node(1)]
        );
        // The pre-mutation snapshot is untouched.
        assert!(before.data.has_edge(Pred::R, Node(0), Node(1)));
        // Mutating a missing instance consumes the ticket and reports so.
        assert!(c
            .mutate("missing", &[FactOp::AddLabel(Pred::T, Node(0))])
            .is_none());
    }

    #[test]
    fn point_mutation_shares_almost_all_pages() {
        let c = Catalog::new(1);
        // A large chain instance: many pages per column.
        let mut s = Structure::with_nodes(10_000);
        for i in 0..9_999u32 {
            s.add_edge(Pred::R, Node(i), Node(i + 1));
            if i % 3 == 0 {
                s.add_label(Node(i), Pred::A);
            }
        }
        c.insert("big", s);
        let before = c.get("big").unwrap();
        assert_eq!(before.cow.shared_pages, 0, "fresh load shares nothing");
        assert!(before.cow.retained_bytes > 0);
        c.mutate("big", &[FactOp::AddLabel(Pred::T, Node(5_000))])
            .unwrap();
        let after = c.get("big").unwrap();
        // One touched label page (plus the T posting list) out of hundreds:
        // the acceptance bar is >90% shared after a point write.
        assert!(after.cow.pages > 100);
        assert!(
            after.cow.shared_ratio() > 0.9,
            "shared {}/{}",
            after.cow.shared_pages,
            after.cow.pages
        );
        assert!(after.cow.shared_bytes() > 0);
    }

    #[test]
    fn mutation_carries_materializations_forward() {
        use sirup_core::program::sigma_q;
        use sirup_core::OneCq;
        let q = OneCq::parse("F(x), R(x,y), T(y)");
        let sigma = sigma_q(&q);
        let c = Catalog::new(1);
        c.insert("d", st("T(t), A(a), R(a,t)"));
        let inst = c.get("d").unwrap();
        let mat = inst.materialization("sigma", || MaterializedFixpoint::new(&sigma, &inst.data));
        assert_eq!(mat.answers(Pred::P).len(), 2); // P(t), P(a)
        assert_eq!(inst.materialization_count(), 1);
        // The mutation forwards the materialisation incrementally.
        c.mutate("d", &[FactOp::RemoveLabel(Pred::T, Node(0))])
            .unwrap();
        let fresh = c.get("d").unwrap();
        assert_eq!(fresh.materialization_count(), 1);
        let fwd = fresh.materialization("sigma", || panic!("must be carried forward"));
        assert!(fwd.answers(Pred::P).is_empty());
        // Old snapshot still answers from its own version.
        assert_eq!(mat.answers(Pred::P).len(), 2);
    }

    #[test]
    fn tickets_serialise_same_instance_mutations() {
        let c = Arc::new(Catalog::new(2));
        c.insert("d", st("T(a)"));
        // Reserve in order, redeem from racing threads in reverse order:
        // ticket order must still win.
        let t0 = c.reserve_ticket("d");
        let t1 = c.reserve_ticket("d");
        assert_eq!((t0, t1), (0, 1));
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || {
            // Applies second despite starting first.
            c2.mutate_ticketed("d", &[FactOp::RemoveLabel(Pred::T, Node(0))], t1)
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        c.mutate_ticketed("d", &[FactOp::AddLabel(Pred::T, Node(0))], t0)
            .unwrap();
        h.join().unwrap().unwrap();
        // t0 (re-insert, no-op) then t1 (remove): the label is gone.
        assert!(!c.get("d").unwrap().data.has_label(Node(0), Pred::T));
        // Removing the instance prunes its quiescent ticket state, and a
        // re-created instance starts a fresh ticket sequence.
        assert!(c.remove("d"));
        c.insert("d", st("T(a)"));
        assert_eq!(c.reserve_ticket("d"), 0);
        assert!(c
            .mutate_ticketed("d", &[FactOp::RemoveLabel(Pred::T, Node(0))], 0)
            .is_some());
    }

    #[test]
    fn seq_is_per_instance_and_survives_restore() {
        let c = Catalog::new(2);
        c.insert("a", st("T(u)"));
        c.insert("b", st("T(u)"));
        // Interleave traffic: each instance counts its own mutations.
        assert_eq!(
            c.mutate("a", &[FactOp::AddLabel(Pred::A, Node(0))])
                .unwrap()
                .seq,
            1
        );
        assert_eq!(
            c.mutate("b", &[FactOp::AddLabel(Pred::A, Node(0))])
                .unwrap()
                .seq,
            1
        );
        assert_eq!(
            c.mutate("a", &[FactOp::RemoveLabel(Pred::A, Node(0))])
                .unwrap()
                .seq,
            2
        );
        // A reload restarts the sequence even after earlier mutations.
        c.insert("a", st("T(u)"));
        assert_eq!(c.get("a").unwrap().seq, 0);
        assert_eq!(
            c.mutate("a", &[FactOp::AddLabel(Pred::A, Node(0))])
                .unwrap()
                .seq,
            1
        );
        // Restore re-enters mid-history: next mutation continues the count.
        c.restore("a", st("T(u), A(u)"), 7);
        assert_eq!(c.get("a").unwrap().seq, 7);
        let out = c
            .mutate("a", &[FactOp::RemoveLabel(Pred::A, Node(0))])
            .unwrap();
        assert_eq!(out.seq, 8);
        c.quiesce(); // no tickets outstanding: returns immediately
    }

    #[test]
    fn frozen_snapshot_is_gated_and_cached() {
        let c = Catalog::new(1);
        // Below the freeze gate: no CSR view, and asking costs nothing.
        c.insert("small", st("F(a), R(a,b), T(b)"));
        let small = c.get("small").unwrap();
        assert!(small.frozen().is_none());
        assert_eq!(small.frozen_bytes(), 0);
        // Above the gate: built lazily, once, and consistent with the data.
        let edges = FREEZE_EDGE_THRESHOLD as u32 + 2;
        let mut s = Structure::with_nodes(edges as usize + 1);
        for i in 0..edges {
            s.add_edge(Pred::R, Node(i), Node(i + 1));
        }
        s.add_label(Node(0), Pred::F);
        c.insert("big", s);
        let big = c.get("big").unwrap();
        assert_eq!(big.frozen_bytes(), 0, "no build before first use");
        let f = big.frozen().expect("above the freeze gate");
        assert_eq!(f.edge_count(), edges as usize);
        assert!(f.has_label(Node(0), Pred::F));
        assert_eq!(f.out(Pred::R, Node(7)), &[Node(8)]);
        assert!(std::ptr::eq(f, big.frozen().unwrap()), "built once");
        assert!(big.frozen_bytes() > 0);
        // A mutation carries the built view forward eagerly: the new
        // snapshot holds it before its first read, and it matches a fresh
        // freeze of the mutated data.
        c.mutate("big", &[FactOp::AddEdge(Pred::S, Node(3), Node(9))])
            .unwrap();
        let next = c.get("big").unwrap();
        assert!(next.frozen_bytes() > 0, "carried, not frozen lazily");
        let f2 = next.frozen().unwrap();
        assert_eq!(f2.out(Pred::S, Node(3)), &[Node(9)]);
        assert_eq!(f2.edge_count(), next.data.edge_count());
        assert!(f.out(Pred::S, Node(3)).is_empty(), "old view untouched");
        // The carry continues across snapshots nobody read.
        c.mutate("big", &[FactOp::RemoveEdge(Pred::R, Node(0), Node(1))])
            .unwrap();
        c.mutate("big", &[FactOp::AddLabel(Pred::T, Node(5))])
            .unwrap();
        let later = c.get("big").unwrap();
        assert!(later.frozen_bytes() > 0);
        let f3 = later.frozen().unwrap();
        assert!(f3.out(Pred::R, Node(0)).is_empty());
        assert!(f3.has_label(Node(5), Pred::T));
        // Dropping below the gate drops the view: `frozen()` is `None`.
        let shrink: Vec<FactOp> = (1..edges)
            .map(|i| FactOp::RemoveEdge(Pred::R, Node(i), Node(i + 1)))
            .collect();
        c.mutate("big", &shrink).unwrap();
        let below = c.get("big").unwrap();
        assert!(below.data.edge_count() < FREEZE_EDGE_THRESHOLD);
        assert_eq!(below.frozen_bytes(), 0);
        assert!(below.frozen().is_none());
    }

    #[test]
    fn names_cross_shards() {
        let c = Catalog::new(3);
        for i in 0..20 {
            c.insert(format!("inst{i:02}"), st("T(u)"));
        }
        let names = c.names();
        assert_eq!(names.len(), 20);
        assert!(names.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(c.len(), 20);
    }

    #[test]
    fn single_shard_floor() {
        let c = Catalog::new(0);
        assert_eq!(c.shard_count(), 1);
        c.insert("x", st("T(u)"));
        assert!(c.get("x").is_some());
    }
}
