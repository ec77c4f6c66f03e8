//! The versioned instance catalog.
//!
//! The service holds many named data instances at once. Each instance is
//! stored *indexed*: alongside the [`Structure`] sits its CSR view
//! ([`FrozenStructure`], frozen at load), the one index every evaluation
//! strategy reads — per-predicate adjacency rows and label/endpoint bitmap
//! rows that seed candidate domains — plus the instance's **live
//! materialisations**: one incrementally maintained
//! [`MaterializedFixpoint`] per semi-naive program that has queried it.
//! A materialisation stays attached, and every write carries it, until the
//! per-instance LRU bound evicts it or the instance is reloaded.
//!
//! Instances are **immutable snapshots**: a mutation builds a new
//! [`IndexedInstance`] — data snapshot-cloned and patched, the view
//! carried by clone + [`FrozenStructure::apply_all`] (not re-frozen), every
//! materialisation carried forward by *incremental* maintenance (not
//! re-evaluated) — under a fresh catalog-wide version, and swaps the `Arc`
//! (copy-on-write). The structure stores its records in `Arc`-shared
//! pages (`sirup_core::paged`) and the view shares its base arrays and
//! untouched rows, so the "clone" is O(pages) pointer bumps and patching
//! dirties only the pages the ops touch: a point write is O(touched) end
//! to end, flat in instance size, and consecutive versions physically
//! share all untouched storage ([`CowStats`] measures how much of the
//! data). In-flight readers keep the snapshot they resolved: data, view
//! and materialisations are mutually consistent by construction, with no
//! version checks on the read path.
//!
//! **One copy of the data per version.** The ops are applied to exactly
//! one [`Structure`] and one [`FrozenStructure`]. A materialisation keeps
//! no data of its own: [`MaterializedFixpoint::advance`] reads the old
//! snapshot and the new one (data and view, as [`IndexedInstance::target`]
//! serves them to every strategy) and leaves the materialisation's base a
//! page-sharing clone of the new data, so a write copies each touched page
//! once however many programs are attached.
//!
//! **One writer per instance at a time.** Every write — load, restore,
//! mutate, remove — holds its instance's writer lock from reading the
//! current snapshot to swapping in its successor, so an instance's writes
//! apply in the order they take the lock and none can be undone by
//! another that read an older snapshot. The locks are striped by name
//! hash: writes to different instances usually proceed in parallel, and a
//! write holds one stripe only, so stripes cannot deadlock. A caller that
//! applies writes in a fixed order (the server applies a batch's writes
//! on the submitting thread, at their turn) gets that order, which keeps
//! replayed mutation streams deterministic. Readers never take a writer
//! lock.
//!
//! The map sits behind one `RwLock`: lookups share it, and a writer holds
//! it only to insert or remove one `Arc`.

use crate::cache::StampedLru;
use sirup_core::fx::{FxHashMap, FxHasher};
use sirup_core::sync;
use sirup_core::telemetry;
use sirup_core::{FactOp, FrozenStructure, ParCtx, Structure, Target};
use sirup_engine::{MaterializationStats, MaterializedFixpoint};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Most live materialisations one instance retains (LRU beyond this):
/// every mutation carries each attached materialisation forward, so an
/// unbounded set — one per distinct semi-naive program ever queried —
/// would make per-op mutation cost and memory grow without bound.
const MAX_LIVE_MATERIALIZATIONS: usize = 32;

/// Structural-sharing statistics of one snapshot's data, measured against
/// the version it was mutated from (all-zero sharing for a fresh load:
/// there is no predecessor to share with). The CSR view is reported on
/// its own ([`IndexedInstance::frozen_bytes`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CowStats {
    /// Storage pages of the structure in the snapshot.
    pub pages: usize,
    /// Of those, how many are physically shared (same allocation) with the
    /// predecessor snapshot — O(touched) writes keep this near `pages`.
    pub shared_pages: usize,
    /// Approximate heap bytes retained by the data. Shared pages count
    /// fully: this is "bytes reachable from this snapshot", of which
    /// roughly `shared_ratio()` cost nothing new.
    pub retained_bytes: usize,
}

impl CowStats {
    /// Measure a snapshot with no predecessor (fresh load / recovery).
    fn fresh(data: &Structure) -> CowStats {
        CowStats {
            pages: data.page_count(),
            shared_pages: 0,
            retained_bytes: data.retained_bytes(),
        }
    }

    /// Measure a mutated snapshot against the version it came from.
    fn against(data: &Structure, old: &IndexedInstance) -> CowStats {
        CowStats {
            shared_pages: data.shared_pages_with(&old.data),
            ..CowStats::fresh(data)
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

/// A named, immutable snapshot of a data instance: the structure, its CSR
/// view, and the live materialisations attached to this version.
#[derive(Debug)]
pub struct IndexedInstance {
    /// Catalog name.
    pub name: String,
    /// The data instance.
    pub data: Structure,
    /// The CSR read view of `data` (see [`sirup_core::csr`]): contiguous
    /// per-predicate adjacency plus label and endpoint bitmap rows, shared
    /// by every strategy that evaluates against this version. Frozen at
    /// load; every mutation carries the predecessor's view forward with
    /// [`FrozenStructure::apply_all`], so it always reads exactly like a
    /// fresh freeze of this version's `data`.
    pub index: FrozenStructure,
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
    /// Structural sharing of this snapshot's data with the version it was
    /// mutated from (zero sharing after a fresh load).
    pub cow: CowStats,
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
    /// sequence (the recovery path re-creates instances mid-sequence):
    /// freezes its view.
    pub fn with_state(
        name: impl Into<String>,
        data: Structure,
        version: u64,
        seq: u64,
    ) -> IndexedInstance {
        let index = {
            let _t = telemetry::timed(telemetry::Family::CsrFreeze, "csr_freeze");
            FrozenStructure::freeze(&data)
        };
        IndexedInstance {
            name: name.into(),
            cow: CowStats::fresh(&data),
            data,
            index,
            version,
            seq,
            mats: StampedLru::new(MAX_LIVE_MATERIALIZATIONS),
        }
    }

    /// The CSR read view of this version's data. Always `Some`: every
    /// snapshot carries its view.
    pub fn frozen(&self) -> Option<&FrozenStructure> {
        Some(&self.index)
    }

    /// The read target of this version: data and CSR view, with `par`
    /// attached.
    pub fn target<'a>(&'a self, par: Option<ParCtx<'a>>) -> Target<'a> {
        Target::from(&self.data)
            .with_view(Some(&self.index))
            .with_par(par)
    }

    /// Heap bytes held by the CSR read view.
    pub fn frozen_bytes(&self) -> usize {
        self.index.retained_bytes()
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

/// Writer-lock stripes: two instances share a lock only if their names
/// hash to the same stripe.
const WRITER_STRIPES: usize = 32;

/// A map from instance name to versioned [`IndexedInstance`] snapshots,
/// with copy-on-write writes serialised per instance.
#[derive(Debug, Default)]
pub struct Catalog {
    instances: RwLock<FxHashMap<String, Arc<IndexedInstance>>>,
    versions: AtomicU64,
    /// Every write holds its instance's stripe from reading the current
    /// snapshot to swapping in its successor (see [`Catalog::write`]).
    writers: [Mutex<()>; WRITER_STRIPES],
}

/// A held writer lock of one stripe: the only way an instance changes.
/// While it is held no other write to an instance of the stripe can land,
/// so [`CatalogWriter::get`] reads the snapshot the holder's next write
/// builds on.
pub(crate) struct CatalogWriter<'a> {
    catalog: &'a Catalog,
    stripe: usize,
    _lock: MutexGuard<'a, ()>,
}

/// Every writer lock held at once: no write can land, and every write
/// that took a lock before has swapped its snapshot in.
pub(crate) struct AllWriters<'a> {
    catalog: &'a Catalog,
    _locks: Vec<MutexGuard<'a, ()>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    fn next_version(&self) -> u64 {
        self.versions.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn stripe(name: &str) -> usize {
        let mut h = FxHasher::default();
        name.hash(&mut h);
        h.finish() as usize % WRITER_STRIPES
    }

    /// Take the writer lock of `name`'s stripe. A caller that must do more
    /// than the write itself under it (the server logs each write before
    /// applying it) holds the returned guard throughout.
    pub(crate) fn write(&self, name: &str) -> CatalogWriter<'_> {
        let stripe = Catalog::stripe(name);
        CatalogWriter {
            catalog: self,
            stripe,
            _lock: sync::lock(&self.writers[stripe]),
        }
    }

    /// Take every writer lock, in stripe order (a write holds one stripe
    /// only, so this cannot deadlock with one). The server compacts its
    /// log against a catalog no write can move.
    pub(crate) fn write_all(&self) -> AllWriters<'_> {
        AllWriters {
            catalog: self,
            _locks: self.writers.iter().map(sync::lock).collect(),
        }
    }

    /// Load (or replace) an instance under a fresh version. Returns `true`
    /// if a previous instance with this name was replaced. The mutation
    /// sequence restarts at 0: a (re)load begins a new durable history.
    pub fn insert(&self, name: impl Into<String>, data: Structure) -> bool {
        let inst = IndexedInstance::new(name, data);
        self.write(&inst.name).insert(inst)
    }

    /// Re-create an instance mid-history: data at mutation sequence `seq`,
    /// so the next mutation applies as `seq + 1`. This is the recovery
    /// path — the caller (WAL replay) owns the claim that `data` really is
    /// the fold of the first `seq` mutation batches.
    pub fn restore(&self, name: impl Into<String>, data: Structure, seq: u64) {
        let inst = IndexedInstance::with_state(name, data, 0, seq);
        self.write(&inst.name).insert(inst);
    }

    /// Look up an instance by name.
    pub fn get(&self, name: &str) -> Option<Arc<IndexedInstance>> {
        sync::read(&self.instances).get(name).cloned()
    }

    /// Apply a mutation batch, copy-on-write, under the instance's writer
    /// lock: clone the current snapshot's data and view and apply the ops
    /// to both, advance every materialisation from the old snapshot to the
    /// new one, and swap the new snapshot in (the map lock is held only for
    /// the swap). Returns `None` if the instance is not present.
    pub fn mutate(&self, name: &str, ops: &[FactOp]) -> Option<MutationOutcome> {
        self.write(name).mutate(name, ops)
    }

    /// Drop an instance. Returns `true` if it existed.
    pub fn remove(&self, name: &str) -> bool {
        self.write(name).remove(name)
    }

    /// Number of loaded instances.
    pub fn len(&self) -> usize {
        sync::read(&self.instances).len()
    }

    /// Is the catalog empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All instance names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = sync::read(&self.instances).keys().cloned().collect();
        names.sort_unstable();
        names
    }
}

impl AllWriters<'_> {
    /// Every current snapshot, sorted by name.
    pub(crate) fn snapshots(&self) -> Vec<Arc<IndexedInstance>> {
        let mut all: Vec<_> = sync::read(&self.catalog.instances)
            .values()
            .cloned()
            .collect();
        all.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        all
    }
}

impl CatalogWriter<'_> {
    /// The current snapshot of `name` (an instance of this stripe); no
    /// other write replaces it while this guard is held.
    pub(crate) fn get(&self, name: &str) -> Option<Arc<IndexedInstance>> {
        self.held(name);
        self.catalog.get(name)
    }

    fn held(&self, name: &str) {
        debug_assert_eq!(
            Catalog::stripe(name),
            self.stripe,
            "{name}: not this stripe"
        );
    }

    /// Swap `inst` in under its name at a fresh version; `true` if it
    /// replaced an instance. A load builds `inst` (its view freeze is the
    /// expensive part) before it takes its writer lock.
    pub(crate) fn insert(&self, mut inst: IndexedInstance) -> bool {
        self.held(&inst.name);
        inst.version = self.catalog.next_version();
        sync::write(&self.catalog.instances)
            .insert(inst.name.clone(), Arc::new(inst))
            .is_some()
    }

    /// See [`Catalog::remove`].
    pub(crate) fn remove(&self, name: &str) -> bool {
        self.held(name);
        sync::write(&self.catalog.instances).remove(name).is_some()
    }

    /// See [`Catalog::mutate`].
    pub(crate) fn mutate(&self, name: &str, ops: &[FactOp]) -> Option<MutationOutcome> {
        telemetry::counter_add(telemetry::Counter::MutationsApplied, 1);
        let _apply_t = telemetry::timed(telemetry::Family::MutationApply, "mutation_apply");
        let old = self.get(name)?;
        let mut data = old.data.clone();
        let applied = data.apply_all(ops);
        let mut index = old.index.clone();
        let view_applied = {
            let _t = telemetry::timed(telemetry::Family::CsrCarry, "csr_carry");
            index.apply_all(ops)
        };
        debug_assert_eq!(applied, view_applied, "carried view diverged from data");
        let mats = StampedLru::new(MAX_LIVE_MATERIALIZATIONS);
        let entries = old.mats.entries();
        if !entries.is_empty() {
            let _t = telemetry::timed(telemetry::Family::MatCarry, "materialisation_carry");
            let new = Target::from(&data).with_view(Some(&index));
            for (k, m) in entries {
                let mut fwd = (*m).clone();
                fwd.advance(old.target(None), new, ops);
                mats.insert(k, Arc::new(fwd));
            }
        }
        let cow = CowStats::against(&data, &old);
        telemetry::gauge_set(telemetry::Gauge::CatalogBytesShared, cow.shared_bytes());
        let seq = old.seq + 1;
        self.insert(IndexedInstance {
            name: name.to_owned(),
            data,
            index,
            version: 0,
            seq,
            mats,
            cow,
        });
        Some(MutationOutcome { applied, seq })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirup_core::parse::st;
    use sirup_core::{Node, Pred};

    #[test]
    fn insert_get_remove() {
        let c = Catalog::new();
        assert!(c.is_empty());
        assert!(!c.insert("a", st("F(x), R(x,y), T(y)")));
        assert!(!c.insert("b", st("T(u)")));
        assert_eq!(c.len(), 2);
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
        let c = Catalog::new();
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
        // The view was carried, not left stale.
        assert_eq!(after.index.edge_count(), 0);
        assert!(after.index.out(Pred::R, Node(0)).is_empty());
        assert_eq!(
            after.index.label_row(Pred::A).iter().collect::<Vec<_>>(),
            vec![Node(1)]
        );
        // The pre-mutation snapshot is untouched.
        assert!(before.data.has_edge(Pred::R, Node(0), Node(1)));
        // Mutating a missing instance reports so.
        assert!(c
            .mutate("missing", &[FactOp::AddLabel(Pred::T, Node(0))])
            .is_none());
    }

    #[test]
    fn point_mutation_shares_almost_all_pages() {
        let c = Catalog::new();
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
        // One touched label page out of hundreds: the acceptance bar is
        // >90% shared after a point write.
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
        let c = Catalog::new();
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

    /// Racing `mutate` callers on one instance: k threads × m effective
    /// ops end at `seq` = k·m, every op landed, and each batch got its own
    /// sequence number.
    #[test]
    fn racing_mutations_serialise_on_the_writer_lock() {
        let (k, m) = (4u32, 25u32);
        let c = Catalog::new();
        c.insert("d", st("T(a)"));
        let mut seqs: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..k)
                .map(|t| {
                    let c = &c;
                    scope.spawn(move || {
                        (0..m)
                            .map(|j| {
                                let u = Node(t * m + j);
                                let op = FactOp::AddEdge(Pred::R, u, Node(u.0 + 1));
                                let out = c.mutate("d", &[op]).unwrap();
                                assert_eq!(out.applied, 1, "a distinct edge is effective");
                                out.seq
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let total = u64::from(k * m);
        let d = c.get("d").unwrap();
        assert_eq!(d.seq, total);
        assert_eq!(d.data.edge_count() as u64, total, "no lost op");
        seqs.sort_unstable();
        assert_eq!(seqs, (1..=total).collect::<Vec<_>>());
        // A removed and re-created instance starts a fresh sequence.
        assert!(c.remove("d"));
        c.insert("d", st("T(a)"));
        let out = c.mutate("d", &[FactOp::RemoveLabel(Pred::T, Node(0))]);
        assert_eq!(out.map(|o| o.seq), Some(1));
    }

    /// A held writer lock blocks writes to its own instance only: a write
    /// to an instance of another stripe lands meanwhile.
    #[test]
    fn a_writer_lock_blocks_only_its_own_stripe() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        let a = "a".to_string();
        let b = (0..1000)
            .map(|i| format!("b{i}"))
            .find(|n| Catalog::stripe(n) != Catalog::stripe(&a))
            .expect("names spread over the stripes");
        let c = Catalog::new();
        c.insert(a.clone(), st("T(u)"));
        c.insert(b.clone(), st("T(u)"));
        let op = [FactOp::AddLabel(Pred::F, Node(0))];
        std::thread::scope(|scope| {
            let held = c.write(&a);
            let (tx, rx) = channel();
            for name in [&a, &b] {
                let (c, tx) = (&c, tx.clone());
                scope.spawn(move || {
                    c.mutate(name, &op);
                    let _ = tx.send(name.clone());
                });
            }
            let landed = rx.recv_timeout(Duration::from_secs(30));
            assert_eq!(landed.as_ref(), Ok(&b), "a write to another stripe waited");
            assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
            drop(held);
            assert_eq!(rx.recv_timeout(Duration::from_secs(30)), Ok(a.clone()));
        });
        assert_eq!((c.get(&a).unwrap().seq, c.get(&b).unwrap().seq), (1, 1));
    }

    /// A remove or a load that lands while a write applies is never undone
    /// by that write's swap: the instance's writer lock puts one wholly
    /// before the other. Each round releases the write on a second thread
    /// and the remove (or load) 0–399 µs later from one barrier, so the
    /// rounds sweep the write's window.
    #[test]
    fn a_write_never_undoes_a_racing_remove_or_load() {
        let base = chain(19_999);
        let ops: Vec<FactOp> = (0..200)
            .map(|i| FactOp::AddLabel(Pred::A, Node(i * 100)))
            .collect();
        let mut folded = base.clone();
        folded.apply_all(&ops);
        // Small, so the load's own view freeze does not outlast the write.
        let reload = st("T(u)");
        for round in 0..50u64 {
            let c = Catalog::new();
            let race = |other: &dyn Fn()| {
                let start = std::sync::Barrier::new(2);
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        start.wait();
                        c.mutate("d", &ops)
                    });
                    start.wait();
                    std::thread::sleep(std::time::Duration::from_micros(round * 8));
                    other();
                });
            };
            c.insert("d", base.clone());
            race(&|| {
                c.remove("d");
            });
            assert!(
                c.get("d").is_none(),
                "round {round}: the removed instance came back"
            );
            c.insert("d", base.clone());
            race(&|| {
                c.insert("d", reload.clone());
            });
            assert!(
                c.get("d").unwrap().data != folded,
                "round {round}: the write overwrote the racing load"
            );
        }
    }

    #[test]
    fn seq_is_per_instance_and_survives_restore() {
        let c = Catalog::new();
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
    }

    /// `inst`'s view reads exactly like a fresh freeze of its data.
    fn assert_view_is_fresh(inst: &IndexedInstance, what: &str) {
        let view = inst.frozen().expect("every snapshot carries a view");
        let fresh = FrozenStructure::freeze(&inst.data);
        let n = fresh.node_count();
        assert_eq!(view.node_count(), n, "{what}: node count");
        assert_eq!(view.edge_count(), fresh.edge_count(), "{what}: edge count");
        for p in [Pred::F, Pred::T, Pred::A] {
            assert_eq!(view.label_row(p), fresh.label_row(p), "{what}: {p} row");
        }
        for p in [Pred::R, Pred::S] {
            assert_eq!(
                view.source_row(p),
                fresh.source_row(p),
                "{what}: {p} sources"
            );
            assert_eq!(view.sink_row(p), fresh.sink_row(p), "{what}: {p} sinks");
            for u in (0..n as u32 + 1).map(Node) {
                assert_eq!(view.out(p, u), fresh.out(p, u), "{what}: out {p} {u:?}");
                assert_eq!(view.inn(p, u), fresh.inn(p, u), "{what}: inn {p} {u:?}");
            }
        }
        assert_eq!(inst.frozen_bytes(), view.retained_bytes(), "{what}: bytes");
    }

    /// An `R`-chain with `edges` edges, `F` at its start.
    fn chain(edges: u32) -> Structure {
        let mut s = Structure::with_nodes(edges as usize + 1);
        for i in 0..edges {
            s.add_edge(Pred::R, Node(i), Node(i + 1));
        }
        s.add_label(Node(0), Pred::F);
        s
    }

    #[test]
    fn every_snapshot_carries_a_view() {
        let c = Catalog::new();
        // From load on, on both sides of the engine's 64-edge freeze gate.
        for edges in [0, 3, 63, 64, 66] {
            let name = format!("chain{edges}");
            c.insert(name.as_str(), chain(edges));
            let inst = c.get(&name).unwrap();
            assert!(inst.frozen_bytes() > 0, "{name}: view frozen at load");
            assert_view_is_fresh(&inst, &name);
        }
        c.restore("restored", chain(5), 3);
        assert_view_is_fresh(&c.get("restored").unwrap(), "restored");
        // Mutations that cross 64 edges upward and back down, and grow the
        // node count: each snapshot carries its predecessor's view.
        let grow: Vec<FactOp> = (63..70)
            .map(|i| FactOp::AddEdge(Pred::R, Node(i), Node(i + 1)))
            .chain([FactOp::AddLabel(Pred::T, Node(80))])
            .collect();
        let shrink: Vec<FactOp> = (0..10)
            .map(|i| FactOp::RemoveEdge(Pred::R, Node(i), Node(i + 1)))
            .collect();
        let regrow: Vec<FactOp> = (0..10)
            .map(|i| FactOp::AddEdge(Pred::R, Node(i), Node(i + 1)))
            .collect();
        let before = c.get("chain63").unwrap();
        // Edge counts: 64, 70, 60, 70, 60.
        let steps = [&grow[..1], &grow[1..], &shrink, &regrow, &shrink];
        for (step, ops) in steps.into_iter().enumerate() {
            c.mutate("chain63", ops).unwrap();
            let inst = c.get("chain63").unwrap();
            assert_eq!(inst.data.edge_count(), [64, 70, 60, 70, 60][step]);
            assert_view_is_fresh(&inst, &format!("chain63 after step {step}"));
        }
        let after = c.get("chain63").unwrap();
        assert_eq!(after.data.node_count(), 81, "the node count grew");
        assert!(after.index.has_label(Node(80), Pred::T));
        // The first snapshot's view is untouched by the carries.
        assert_view_is_fresh(&before, "chain63 at load");
        assert_eq!(before.index.edge_count(), 63);
    }

    #[test]
    fn names_are_sorted() {
        let c = Catalog::new();
        for i in 0..20 {
            c.insert(format!("inst{i:02}"), st("T(u)"));
        }
        let names = c.names();
        assert_eq!(names.len(), 20);
        assert!(names.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(c.len(), 20);
    }
}
