//! Incremental maintenance of monadic-datalog fixpoints under mutation.
//!
//! A [`MaterializedFixpoint`] keeps the closure `Π(D)` of a data instance
//! *live*: instead of re-running the semi-naive fixpoint from scratch after
//! every data change, it maintains the derived facts — one bitset per IDB
//! predicate, plus one recorded derivation per derived nullary fact — under
//! batches of fact-level [`FactOp`] deltas.
//!
//! ## Two versions of the data
//!
//! The materialisation keeps no data of its own. Its base is a
//! page-sharing clone of the data version its closure is current for, and
//! [`MaterializedFixpoint::advance`] carries the closure from that version
//! (`old`) to the next (`new`) in one pass per batch, reading both as
//! [`Target`]s: the catalog hands over its two immutable snapshots, data
//! and CSR view, so a maintained write copies each touched page once
//! however many programs are attached. ([`MaterializedFixpoint::apply`],
//! with no snapshots to read, patches its base in place between the two
//! phases below.) The batch's net change is judged on each op's fact: the
//! new version has a fact the batch mentions iff the last op on it is an
//! insert, so Δ⁺ holds the facts `new` has and `old` lacks, Δ⁻ the
//! reverse, and an insert and a retract of one fact in one batch cancel.
//! Every derived label lives in one place, the extension rows, which
//! every rule check lays over the data's labels
//! ([`Target::with_label_rows`]); the overlay hides the data's own
//! (asserted) IDB labels, so an asserted IDB label is read from its row.
//!
//! ## Overdelete / rederive (DRed)
//!
//! Maintenance is DRed (Gupta, Mumick and Subrahmanian, SIGMOD 1993),
//! defined over the old and the new database, in two phases:
//!
//! 1. **Overdelete**, reading the **old** version with the old closure —
//!    starting from Δ⁻, every IDB label with a derivation that uses a
//!    removed fact is conservatively removed as well, transitively. The
//!    derivations are found by replaying the rules pinned to each removed
//!    fact (below). An asserted IDB label is treated like a derived one
//!    here. A derived nullary fact goes when its recorded derivation uses
//!    a removed fact.
//! 2. **Rederive and insert**, reading the **new** version — the
//!    extension rows grow to the new node count and take Δ⁺'s asserted
//!    IDB labels. An overdeleted label `P(a)` re-enters if the new version
//!    asserts it or one pinned existence check per rule with head `P`
//!    (the head variable fixed to `a`) still finds a derivation. Then Δ⁺
//!    and the rederived labels seed one insertion cascade: popping a fact
//!    `f` replays, for every rule and every body atom whose predicate
//!    matches `f`, the rule's compiled [`QueryPlan`](sirup_hom::QueryPlan)
//!    (nothing is re-planned) with that atom **pinned** to `f`. A
//!    homomorphism whose head is not yet true adds the head and queues
//!    it. A replay whose pin already fixes the head to a true fact is
//!    skipped, and so is every replay of a rule whose nullary head
//!    already holds.
//!
//! Derived **nullary** facts (`Π_q`'s goal `G`) occur in no rule body, so
//! they never cascade. Each keeps the one body homomorphism that derived it
//! (found through the target's view when the fixpoint is built, or by the
//! insertion replay that first derived it). A nullary fact dropped by
//! overdeletion comes back if the cascade derives it again or a fresh
//! search of its rules over the new version finds another derivation,
//! which is recorded in turn.
//!
//! The differential suite (`crates/engine/tests/incremental.rs`) pins the
//! maintained state to a from-scratch [`CompiledProgram::evaluate`] after
//! every op of random mutation sequences, and after every whole batch.
//!
//! ## Complexity
//!
//! Every replay and every rederive check is a pinned plan execution, and a
//! pinned execution seeds its domains outward from the pin (see
//! [`sirup_hom::plan`]): the pinned variable is the fact's node, and each
//! further body variable's domain is read off the adjacency of an already
//! seeded neighbour. One delta fact therefore costs, per rule and per body
//! atom it can pin, the adjacency read along the body from that atom, plus
//! the derivations found. That is not proportional to the instance size or
//! the fixpoint depth. One term stays linear in the node count `n`, at
//! memset speed: each execution clears one `n`-bit domain bitset per body
//! variable. A body variable whose neighbourhood is a hub (more adjacency
//! than a scan of the instance) is seeded by that scan instead, and a body
//! variable the pin cannot reach (a disconnected body) is always seeded
//! so. The 1-CQ rule bodies of `Π_q`/`Σ_q` are connected, so neither
//! happens on their replays. The one unpinned search is the re-search of
//! a nullary fact whose recorded derivation a retract broke. A clone of
//! the fixpoint copies the base's page table and one `n`-bit row per IDB
//! predicate. The `engine_incremental` bench measures the win against
//! re-evaluation; `crates/engine/tests/anchored_seeds.rs` asserts that a
//! maintained write on a 5000-node instance seeds nothing over the
//! instance.

use crate::eval::{label_rows, CompiledProgram, Evaluation};
use sirup_core::fx::{FxHashMap, FxHashSet};
use sirup_core::program::Program;
use sirup_core::telemetry;
use sirup_core::{FactOp, Node, NodeSet, Pred, Structure, Target};
use std::collections::VecDeque;
use std::sync::Arc;

/// A fact of the data or the closure: a unary label or a binary edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Fact {
    Label(Pred, Node),
    Edge(Pred, Node, Node),
}

impl Fact {
    /// The fact an op inserts or retracts.
    fn of(op: FactOp) -> Fact {
        match op {
            FactOp::AddLabel(p, v) | FactOp::RemoveLabel(p, v) => Fact::Label(p, v),
            FactOp::AddEdge(p, u, v) | FactOp::RemoveEdge(p, u, v) => Fact::Edge(p, u, v),
        }
    }

    /// Is the fact asserted in `s`?
    fn is_in(self, s: &Structure) -> bool {
        let n = s.node_count();
        match self {
            Fact::Label(p, a) => a.index() < n && s.has_label(a, p),
            Fact::Edge(p, a, b) => a.index() < n && b.index() < n && s.has_edge(p, a, b),
        }
    }
}

/// The net change of the batch `ops` over `old`, judged on each op's
/// fact: a fact the batch mentions is in the new version iff the last op
/// on it inserts it (set semantics), so Δ⁺ holds the facts `old` lacks and
/// the new version has, Δ⁻ the reverse.
fn net_delta(old: &Structure, ops: &[FactOp]) -> (Vec<Fact>, Vec<Fact>) {
    let mut seen: FxHashSet<Fact> = FxHashSet::default();
    let (mut added, mut removed) = (Vec::new(), Vec::new());
    for &op in ops.iter().rev() {
        let f = Fact::of(op);
        if seen.insert(f) && f.is_in(old) != op.is_insert() {
            if op.is_insert() {
                added.push(f);
            } else {
                removed.push(f);
            }
        }
    }
    (added, removed)
}

/// A batch between the two DRed phases: Δ⁺, the labels overdeletion took
/// out of the closure, the nullary facts it dropped, and the batch's span.
struct Batch {
    added: Vec<Fact>,
    slated: Vec<(Pred, Node)>,
    dropped: Vec<Pred>,
    span: telemetry::SpanGuard,
}

/// Body-atom pin positions of one rule, grouped by predicate: replaying the
/// rule's plan with one of these pinned to a delta fact enumerates exactly
/// the derivations using that fact at that atom.
#[derive(Debug, Clone, Default)]
struct RulePins {
    /// Unary body atoms per predicate: the pattern variable to pin.
    unary: FxHashMap<Pred, Vec<Node>>,
    /// Binary body atoms per predicate: the (source, target) variables.
    binary: FxHashMap<Pred, Vec<(Node, Node)>>,
}

impl RulePins {
    /// Does the body homomorphism `hom` map some atom onto `fact`?
    fn uses(&self, hom: &[Node], fact: Fact) -> bool {
        match fact {
            Fact::Label(p, a) => self
                .unary
                .get(&p)
                .is_some_and(|vars| vars.iter().any(|v| hom[v.index()] == a)),
            Fact::Edge(p, a, b) => self.binary.get(&p).is_some_and(|atoms| {
                atoms
                    .iter()
                    .any(|(u, v)| hom[u.index()] == a && hom[v.index()] == b)
            }),
        }
    }
}

/// A derived nullary fact and the derivation it rests on: the rule and the
/// body homomorphism that derived it.
#[derive(Debug, Clone)]
struct NullaryFact {
    pred: Pred,
    rule: usize,
    hom: Vec<Node>,
}

/// Sizes of a [`MaterializedFixpoint`], for live debugging (`sirupctl
/// stats`).
#[derive(Debug, Clone)]
pub struct MaterializationStats {
    /// Nodes in the maintained instance.
    pub nodes: usize,
    /// Atoms (unary + binary) in the base instance.
    pub base_atoms: usize,
    /// Per-IDB-predicate extension sizes in the closure, sorted by pred.
    pub extension_sizes: Vec<(Pred, usize)>,
    /// Derived nullary facts.
    pub nullary: Vec<Pred>,
    /// Facts changed since materialisation: each batch counts its net
    /// change (an insert and a retract of one fact in one batch cancel).
    pub ops_applied: u64,
}

/// A live, incrementally maintained fixpoint of one monadic program over
/// one data instance. Build once ([`MaterializedFixpoint::new`]), then
/// [`advance`](MaterializedFixpoint::advance) (or
/// [`apply`](MaterializedFixpoint::apply)) keeps the closure current;
/// reads ([`holds`](MaterializedFixpoint::holds),
/// [`answers`](MaterializedFixpoint::answers)) are lookups.
#[derive(Debug, Clone)]
pub struct MaterializedFixpoint {
    /// The compiled rules and their pin positions never change after the
    /// build, so every clone shares them.
    program: Arc<CompiledProgram>,
    pins: Arc<[RulePins]>,
    /// The data version the closure is current for: after
    /// [`MaterializedFixpoint::advance`], a page-sharing clone of the new
    /// snapshot's data.
    base: Structure,
    /// Derived nullary facts with their recorded derivations, sorted by
    /// predicate.
    nullary: Vec<NullaryFact>,
    /// Closure extension of each IDB predicate as a bitset over nodes: the
    /// label rows rule checks read over the data.
    extension: FxHashMap<Pred, NodeSet>,
    ops_applied: u64,
}

impl MaterializedFixpoint {
    /// Materialise `program` over `data` (compiles the program first;
    /// callers holding a [`CompiledProgram`] should use
    /// [`MaterializedFixpoint::from_compiled`]).
    pub fn new(program: &Program, data: &Structure) -> MaterializedFixpoint {
        MaterializedFixpoint::from_compiled(CompiledProgram::new(program), data)
    }

    /// Materialise an already-compiled program over the target's data,
    /// reusing its rule-body plans for both the initial fixpoint and all
    /// later delta replays. The initial fixpoint is
    /// [`CompiledProgram::evaluate`] over `target` (view seeding and
    /// parallel context as attached), and each derived nullary fact's
    /// derivation is found through the same target; the maintained closure
    /// is the same either way.
    pub fn from_compiled<'a>(
        program: CompiledProgram,
        target: impl Into<Target<'a>>,
    ) -> MaterializedFixpoint {
        let t = target.into();
        let ev = program.evaluate(t);
        let data = t.data();
        let pins = program
            .compiled_rules()
            .iter()
            .map(|r| {
                let mut p = RulePins::default();
                let pattern = r.plan.pattern();
                for (pred, v) in pattern.unary_atoms() {
                    p.unary.entry(pred).or_default().push(v);
                }
                for (pred, u, v) in pattern.edges() {
                    p.binary.entry(pred).or_default().push((u, v));
                }
                p
            })
            .collect();
        // Initial closure from the one-shot evaluator, whose extensions
        // include the data's own IDB labels.
        let extension: FxHashMap<Pred, NodeSet> = program
            .idb_preds()
            .iter()
            .map(|&p| {
                let mut set = NodeSet::empty(data.node_count());
                for &a in ev.answers(p) {
                    set.insert(a);
                }
                (p, set)
            })
            .collect();
        let nullary = {
            let rows = label_rows(&extension);
            let on = t.with_par(None).with_label_rows(&rows);
            ev.nullary
                .iter()
                .map(|&g| find_nullary(&program, on, g).expect("a derived fact has a derivation"))
                .collect()
        };
        MaterializedFixpoint {
            program: Arc::new(program),
            pins,
            base: data.clone(),
            nullary,
            extension,
            ops_applied: 0,
        }
    }

    /// The data version the closure is current for (asserted facts only).
    pub fn base(&self) -> &Structure {
        &self.base
    }

    /// Is the nullary fact `g` in the closure?
    pub fn holds(&self, g: Pred) -> bool {
        self.nullary.iter().any(|f| f.pred == g)
    }

    /// Is `p(a)` in the closure?
    pub fn holds_at(&self, p: Pred, a: Node) -> bool {
        match self.extension.get(&p) {
            Some(row) => row.contains_checked(a),
            None => a.index() < self.base.node_count() && self.base.has_label(a, p),
        }
    }

    /// The closure extension of IDB predicate `p`, sorted.
    pub fn answers(&self, p: Pred) -> Vec<Node> {
        self.extension
            .get(&p)
            .map(|s| s.iter().collect())
            .unwrap_or_default()
    }

    /// Snapshot the maintained closure in the one-shot evaluator's shape
    /// (`rounds` is 0: no fixpoint ran). Differential tests compare this
    /// against a from-scratch evaluation of [`MaterializedFixpoint::base`].
    pub fn evaluation(&self) -> Evaluation {
        let unary = self
            .extension
            .iter()
            .map(|(&p, s)| (p, s.iter().collect()))
            .collect();
        Evaluation {
            nullary: self.nullary.iter().map(|f| f.pred).collect(),
            unary,
            rounds: 0,
        }
    }

    /// Apply a mixed mutation batch to the base and carry the closure
    /// along: the same two DRed phases as
    /// [`MaterializedFixpoint::advance`], with the base patched in place
    /// by [`Structure::apply_all`] between them (a second version would
    /// copy every page the ops touch). Returns how many ops changed the
    /// instance, as `apply_all` counts them (set semantics: re-inserting a
    /// present fact or retracting an absent one is a no-op).
    pub fn apply(&mut self, ops: &[FactOp]) -> usize {
        // Rule heads are IDB, so no phase reads the base through `self`.
        let mut base = std::mem::take(&mut self.base);
        let batch = self.overdelete(Target::from(&base), ops);
        let applied = base.apply_all(ops);
        self.rederive_and_insert(Target::from(&base), batch);
        self.base = base;
        applied
    }

    /// Carry the closure from `old`, the data version it is current for,
    /// to `new`, the version `ops` turned `old` into: one DRed pass over
    /// the batch's net change (see the module docs). Overdeletion reads
    /// `old`; rederivation and the insertion cascade read `new`; the base
    /// becomes a page-sharing clone of `new`'s data. `ops` may be any
    /// sequence with that effect, so a materialisation several versions
    /// behind catches up with the ops since its version.
    pub fn advance(&mut self, old: Target<'_>, new: Target<'_>, ops: &[FactOp]) {
        debug_assert_eq!(old.data().node_count(), self.base.node_count());
        let batch = self.overdelete(old, ops);
        debug_assert!(batch.added.iter().all(|f| f.is_in(new.data())));
        self.rederive_and_insert(new, batch);
        self.base = new.data().clone();
    }

    /// Sizes for live debugging.
    pub fn stats(&self) -> MaterializationStats {
        let mut extension_sizes: Vec<(Pred, usize)> =
            self.extension.iter().map(|(&p, s)| (p, s.len())).collect();
        extension_sizes.sort_unstable();
        MaterializationStats {
            nodes: self.base.node_count(),
            base_atoms: self.base.size(),
            extension_sizes,
            nullary: self.nullary.iter().map(|f| f.pred).collect(),
            ops_applied: self.ops_applied,
        }
    }

    /// Replay rule `r`'s plan on `on` once per body atom that can map onto
    /// `fact`, with that atom pinned to it, and visit each homomorphism
    /// found (one that maps two atoms onto `fact` is visited twice). A
    /// replay whose pin fixes the head variable to a node `skip_head`
    /// accepts is skipped. Stops when `f` returns `false`.
    fn replay(
        &self,
        on: Target<'_>,
        r: usize,
        fact: Fact,
        skip_head: impl Fn(Node) -> bool,
        mut f: impl FnMut(&[Node]) -> bool,
    ) {
        let rule = &self.program.compiled_rules()[r];
        let fixes_skipped_head = |t: Node, a: Node| rule.head_node == Some(t) && skip_head(a);
        match fact {
            Fact::Label(p, a) => {
                for &t in self.pins[r].unary.get(&p).into_iter().flatten() {
                    if !fixes_skipped_head(t, a) && !rule.plan.on(on).fix(t, a).for_each(&mut f) {
                        return;
                    }
                }
            }
            Fact::Edge(p, a, b) => {
                for &(t1, t2) in self.pins[r].binary.get(&p).into_iter().flatten() {
                    if !fixes_skipped_head(t1, a)
                        && !fixes_skipped_head(t2, b)
                        && !rule.plan.on(on).fix(t1, a).fix(t2, b).for_each(&mut f)
                    {
                        return;
                    }
                }
            }
        }
    }

    /// Record a derived nullary fact, keeping the list sorted.
    fn add_nullary(&mut self, fact: NullaryFact) {
        if let Err(pos) = self.nullary.binary_search_by_key(&fact.pred, |f| f.pred) {
            self.nullary.insert(pos, fact);
        }
    }

    /// The first DRed phase, over the old version `old` and the closure
    /// as it stands: take the net change of `ops`, then slate every derived
    /// label with a derivation that uses a removed fact, transitively, and
    /// take the slated labels out of the closure; a nullary fact goes when
    /// its recorded derivation uses a removed fact. An asserted label is
    /// slated like a derived one and comes back in rederivation if the new
    /// version still asserts it.
    fn overdelete(&mut self, old: Target<'_>, ops: &[FactOp]) -> Batch {
        telemetry::counter_add(telemetry::Counter::IncrementalCascades, 1);
        let span = telemetry::timed(telemetry::Family::IncrementalCascade, "incremental_cascade");
        let (added, removed) = net_delta(old.data(), ops);
        self.ops_applied += (added.len() + removed.len()) as u64;
        let mut queued: FxHashSet<Fact> = removed.iter().copied().collect();
        let mut queue: VecDeque<Fact> = removed.into();
        let mut slated: Vec<(Pred, Node)> = Vec::new();
        let mut dropped: Vec<Pred> = Vec::new();
        {
            let rows = label_rows(&self.extension);
            let on = old.with_label_rows(&rows);
            let mut heads: Vec<Node> = Vec::new();
            while let Some(d) = queue.pop_front() {
                for (r, rule) in self.program.compiled_rules().iter().enumerate() {
                    let (p, Some(x)) = (rule.head_pred, rule.head_node) else {
                        continue;
                    };
                    // A head that is false or already slated needs no replay.
                    let stays =
                        |a: Node| !self.holds_at(p, a) || queued.contains(&Fact::Label(p, a));
                    self.replay(on, r, d, stays, |h| {
                        heads.push(h[x.index()]);
                        true
                    });
                    for a in heads.drain(..) {
                        let g = Fact::Label(p, a);
                        if queued.insert(g) {
                            queue.push_back(g);
                        }
                    }
                }
                for g in &self.nullary {
                    if !dropped.contains(&g.pred) && self.pins[g.rule].uses(&g.hom, d) {
                        dropped.push(g.pred);
                    }
                }
                if let Fact::Label(p, a) = d {
                    if self.extension.contains_key(&p) {
                        slated.push((p, a));
                    }
                }
            }
        }
        self.nullary.retain(|g| !dropped.contains(&g.pred));
        for &(p, a) in &slated {
            self.extension.get_mut(&p).expect("an IDB row").remove(a);
        }
        Batch {
            added,
            slated,
            dropped,
            span,
        }
    }

    /// The second DRed phase, over the new version `new`: grow the rows to
    /// its node count, add Δ⁺'s asserted IDB labels, rederive each slated
    /// label the new version asserts or a pinned check still derives, run
    /// one insertion cascade from Δ⁺ and the rederived labels, and search
    /// each dropped nullary fact the cascade did not bring back.
    fn rederive_and_insert(&mut self, new: Target<'_>, batch: Batch) {
        let Batch {
            added,
            slated,
            dropped,
            span: _span,
        } = batch;
        for row in self.extension.values_mut() {
            row.grow(new.data().node_count());
        }
        let mut seeds: Vec<Fact> = Vec::with_capacity(added.len());
        for f in added {
            let fresh = match f {
                Fact::Label(p, a) => self.extension.get_mut(&p).is_none_or(|row| row.insert(a)),
                Fact::Edge(..) => true,
            };
            if fresh {
                seeds.push(f);
            }
        }
        let rederived: Vec<(Pred, Node)> = {
            let rows = label_rows(&self.extension);
            let on = new.with_label_rows(&rows);
            slated
                .into_iter()
                .filter(|&(p, a)| {
                    !self.holds_at(p, a) && (new.data().has_label(a, p) || self.derivable(on, p, a))
                })
                .collect()
        };
        for &(p, a) in &rederived {
            self.extension.get_mut(&p).expect("an IDB row").insert(a);
            seeds.push(Fact::Label(p, a));
        }
        self.insert_cascade(new, seeds);
        for g in dropped {
            if !self.holds(g) {
                let rows = label_rows(&self.extension);
                if let Some(fact) = find_nullary(&self.program, new.with_label_rows(&rows), g) {
                    self.add_nullary(fact);
                }
            }
        }
    }

    /// Delta-driven insertion over the new version `new`. Every seed is
    /// already in the data or the closure; popping a fact replays each
    /// rule pinned to it, and each head found that is not yet true joins
    /// the closure and the worklist. A nullary head is recorded with the
    /// homomorphism that derived it.
    fn insert_cascade(&mut self, new: Target<'_>, seeds: Vec<Fact>) {
        let mut pending: VecDeque<Fact> = seeds.into();
        let mut heads: Vec<(Pred, Node)> = Vec::new();
        let mut derived: Vec<NullaryFact> = Vec::new();
        while let Some(f) = pending.pop_front() {
            {
                let rows = label_rows(&self.extension);
                let on = new.with_label_rows(&rows);
                for (r, rule) in self.program.compiled_rules().iter().enumerate() {
                    let p = rule.head_pred;
                    match rule.head_node {
                        None if self.holds(p) || derived.iter().any(|g| g.pred == p) => {}
                        None => self.replay(
                            on,
                            r,
                            f,
                            |_| false,
                            |h| {
                                derived.push(NullaryFact {
                                    pred: p,
                                    rule: r,
                                    hom: h.to_vec(),
                                });
                                false
                            },
                        ),
                        Some(x) => self.replay(
                            on,
                            r,
                            f,
                            |a| self.holds_at(p, a),
                            |h| {
                                heads.push((p, h[x.index()]));
                                true
                            },
                        ),
                    }
                }
            }
            for g in derived.drain(..) {
                self.add_nullary(g);
            }
            for (p, a) in heads.drain(..) {
                if self.extension.get_mut(&p).expect("an IDB row").insert(a) {
                    pending.push_back(Fact::Label(p, a));
                }
            }
        }
    }

    /// Does some rule with head `p` derive `p(a)` in `on`? One pinned
    /// existence check per such rule whose EDB labels on the head variable
    /// `a` carries.
    fn derivable(&self, on: Target<'_>, p: Pred, a: Node) -> bool {
        self.program.compiled_rules().iter().any(|rule| {
            rule.head_pred == p
                && rule.head_edb_labels.iter().all(|&l| on.has_label(a, l))
                && rule
                    .head_node
                    .is_some_and(|x| rule.plan.on(on).fix(x, a).exists())
        })
    }
}

/// A derivation of the nullary fact `g` in `on`: the first body
/// homomorphism of the first rule with head `g` that has one.
fn find_nullary(program: &CompiledProgram, on: Target<'_>, g: Pred) -> Option<NullaryFact> {
    program
        .compiled_rules()
        .iter()
        .enumerate()
        .filter(|(_, rule)| rule.head_pred == g && rule.head_node.is_none())
        .find_map(|(r, rule)| {
            let hom = rule.plan.on(on).find()?;
            Some(NullaryFact {
                pred: g,
                rule: r,
                hom,
            })
        })
}
#[cfg(test)]
mod tests {
    use super::*;
    use sirup_core::parse::{parse_structure, st};
    use sirup_core::program::{pi_q, sigma_q};
    use sirup_core::OneCq;

    fn q_chain() -> OneCq {
        OneCq::parse("F(x), R(x,y), T(y)")
    }

    /// Assert the maintained state equals a from-scratch evaluation of the
    /// maintained base.
    fn assert_fresh(mat: &MaterializedFixpoint, program: &Program) {
        let fresh = crate::eval::evaluate(program, mat.base());
        let live = mat.evaluation();
        assert_eq!(live.nullary, fresh.nullary, "nullary diverged");
        assert_eq!(live.unary, fresh.unary, "unary diverged");
    }
    use sirup_core::program::Program;

    #[test]
    fn insert_extends_a_derivation_chain() {
        let q = q_chain();
        let sigma = sigma_q(&q);
        let (d, n) = parse_structure("T(t), A(a), R(a,t), A(b)").unwrap();
        let mut mat = MaterializedFixpoint::new(&sigma, &d);
        assert!(mat.holds_at(Pred::P, n["a"]));
        assert!(!mat.holds_at(Pred::P, n["b"]));
        // Close the chain: R(b, a) makes P(b) derivable.
        assert_eq!(mat.apply(&[FactOp::AddEdge(Pred::R, n["b"], n["a"])]), 1);
        assert!(mat.holds_at(Pred::P, n["b"]));
        assert_fresh(&mat, &sigma);
        // Re-inserting is a no-op.
        assert_eq!(mat.apply(&[FactOp::AddEdge(Pred::R, n["b"], n["a"])]), 0);
    }

    #[test]
    fn retract_unwinds_the_chain() {
        let q = q_chain();
        let sigma = sigma_q(&q);
        let (d, n) = parse_structure("T(t), A(a), R(a,t), A(b), R(b,a)").unwrap();
        let mut mat = MaterializedFixpoint::new(&sigma, &d);
        assert!(mat.holds_at(Pred::P, n["b"]));
        assert_eq!(mat.apply(&[FactOp::RemoveLabel(Pred::T, n["t"])]), 1);
        assert!(!mat.holds_at(Pred::P, n["a"]));
        assert!(!mat.holds_at(Pred::P, n["b"]));
        assert!(mat.answers(Pred::P).is_empty());
        assert_fresh(&mat, &sigma);
    }

    #[test]
    fn cyclic_support_does_not_survive_deletion() {
        // P(a) and P(b) support each other through the A-cycle a ⇄ b; the
        // only well-founded support is T(c). Retracting T(c) must delete
        // all three P-facts even though each still has a (cyclic)
        // derivation — the case DRed overdeletion is there for.
        let q = q_chain();
        let sigma = sigma_q(&q);
        let (d, n) = parse_structure("T(c), A(a), R(a,c), A(b), R(b,a), R(a,b)").unwrap();
        let mut mat = MaterializedFixpoint::new(&sigma, &d);
        assert!(mat.holds_at(Pred::P, n["a"]));
        assert!(mat.holds_at(Pred::P, n["b"]));
        mat.apply(&[FactOp::RemoveLabel(Pred::T, n["c"])]);
        assert!(mat.answers(Pred::P).is_empty());
        assert_fresh(&mat, &sigma);
        // And rederivation resurrects the cycle when support returns.
        mat.apply(&[FactOp::AddLabel(Pred::T, n["c"])]);
        assert!(mat.holds_at(Pred::P, n["a"]));
        assert!(mat.holds_at(Pred::P, n["b"]));
        assert_fresh(&mat, &sigma);
    }

    #[test]
    fn alternative_support_is_rederived() {
        // Two external supports for P(a); retracting one keeps P(a) (and
        // the cycle through b) alive via the other.
        let q = q_chain();
        let sigma = sigma_q(&q);
        let (d, n) =
            parse_structure("T(c), A(a), R(a,c), T(e), R(a,e), A(b), R(b,a), R(a,b)").unwrap();
        let mut mat = MaterializedFixpoint::new(&sigma, &d);
        mat.apply(&[FactOp::RemoveLabel(Pred::T, n["c"])]);
        assert!(mat.holds_at(Pred::P, n["a"]));
        assert!(mat.holds_at(Pred::P, n["b"]));
        assert_fresh(&mat, &sigma);
    }

    #[test]
    fn goal_fact_tracks_mutations() {
        let q = q_chain();
        let pi = pi_q(&q);
        let (d, n) = parse_structure("F(f), R(f,t), T(t)").unwrap();
        let mut mat = MaterializedFixpoint::new(&pi, &d);
        assert!(mat.holds(Pred::GOAL));
        mat.apply(&[FactOp::RemoveLabel(Pred::F, n["f"])]);
        assert!(!mat.holds(Pred::GOAL));
        assert_fresh(&mat, &pi);
        mat.apply(&[FactOp::AddLabel(Pred::F, n["f"])]);
        assert!(mat.holds(Pred::GOAL));
        assert_fresh(&mat, &pi);
    }

    #[test]
    fn goal_outlives_its_recorded_derivation_while_another_exists() {
        // Two derivations of G, through f and through g; which one is
        // recorded at build time is the plan's choice, so the sequence
        // first forces the record onto f.
        let q = q_chain();
        let pi = pi_q(&q);
        let (d, n) = parse_structure("F(f), R(f,t), T(t), F(g), R(g,u), T(u)").unwrap();
        let mut mat = MaterializedFixpoint::new(&pi, &d);
        let (f, g, u) = (n["f"], n["g"], n["u"]);
        let steps: [(FactOp, bool); 7] = [
            (FactOp::RemoveLabel(Pred::F, f), true),
            (FactOp::RemoveEdge(Pred::R, g, u), false),
            // Only the derivation through f exists, so it is recorded ...
            (FactOp::AddLabel(Pred::F, f), true),
            (FactOp::AddEdge(Pred::R, g, u), true),
            // ... and the retract breaks it while the one through g stands.
            (FactOp::RemoveLabel(Pred::F, f), true),
            (FactOp::RemoveLabel(Pred::T, u), false),
            (FactOp::AddLabel(Pred::T, u), true),
        ];
        assert!(mat.holds(Pred::GOAL));
        for (op, goal) in steps {
            assert_eq!(mat.apply(&[op]), 1, "{op}");
            assert_eq!(mat.holds(Pred::GOAL), goal, "after {op}");
            assert_fresh(&mat, &pi);
        }
    }

    #[test]
    fn goal_is_rederived_through_an_overdeleted_fact() {
        // G rests on P(a), which rests on P(t) or P(s). Retracting T(t)
        // overdeletes P(a), so G's recorded derivation breaks; P(a) is
        // rederived through s and the insertion cascade derives G again.
        let q = q_chain();
        let pi = pi_q(&q);
        let (d, n) = parse_structure("F(f), R(f,a), A(a), R(a,t), T(t), R(a,s), T(s)").unwrap();
        let mut mat = MaterializedFixpoint::new(&pi, &d);
        mat.apply(&[FactOp::RemoveLabel(Pred::T, n["t"])]);
        assert!(mat.holds(Pred::GOAL));
        assert_fresh(&mat, &pi);
        mat.apply(&[FactOp::RemoveLabel(Pred::T, n["s"])]);
        assert!(!mat.holds(Pred::GOAL));
        assert_fresh(&mat, &pi);
        mat.apply(&[FactOp::AddLabel(Pred::T, n["s"])]);
        assert!(mat.holds(Pred::GOAL));
        assert_fresh(&mat, &pi);
    }

    #[test]
    fn inserts_may_grow_the_instance() {
        let q = q_chain();
        let sigma = sigma_q(&q);
        let d = st("T(t)");
        let mut mat = MaterializedFixpoint::new(&sigma, &d);
        // New nodes arrive with the facts that mention them.
        mat.apply(&[
            FactOp::AddLabel(Pred::A, Node(1)),
            FactOp::AddEdge(Pred::R, Node(1), Node(0)),
        ]);
        assert!(mat.holds_at(Pred::P, Node(1)));
        assert_fresh(&mat, &sigma);
        assert_eq!(mat.base().node_count(), 2);
    }

    #[test]
    fn asserted_idb_facts_are_axioms() {
        // A base P-fact stays true when its derivations go, and a derived
        // fact stays true when its base assertion goes.
        let q = q_chain();
        let sigma = sigma_q(&q);
        let (d, n) = parse_structure("T(t), A(a), R(a,t), P(a)").unwrap();
        let mut mat = MaterializedFixpoint::new(&sigma, &d);
        mat.apply(&[FactOp::RemoveLabel(Pred::T, n["t"])]);
        assert!(mat.holds_at(Pred::P, n["a"]), "asserted P(a) must survive");
        assert_fresh(&mat, &sigma);
        mat.apply(&[FactOp::AddLabel(Pred::T, n["t"])]);
        mat.apply(&[FactOp::RemoveLabel(Pred::P, n["a"])]);
        assert!(mat.holds_at(Pred::P, n["a"]), "derived P(a) must survive");
        assert_fresh(&mat, &sigma);
    }

    #[test]
    fn stats_report_sizes() {
        let q = q_chain();
        let sigma = sigma_q(&q);
        let d = st("T(t), A(a), R(a,t)");
        let mut mat = MaterializedFixpoint::new(&sigma, &d);
        mat.apply(&[FactOp::AddLabel(Pred::A, Node(3))]);
        let s = mat.stats();
        assert_eq!(s.nodes, 4);
        assert_eq!(s.ops_applied, 1);
        assert!(s
            .extension_sizes
            .iter()
            .any(|&(p, n)| p == Pred::P && n == 2));
    }
}
