//! Incremental maintenance of monadic-datalog fixpoints under mutation.
//!
//! A [`MaterializedFixpoint`] keeps the closure `Π(D)` of a data instance
//! *live*: instead of re-running the semi-naive fixpoint from scratch after
//! every data change, it maintains the derived facts — per-predicate derived
//! sets plus an exact **support count** per derived fact — under fact-level
//! [`FactOp`] deltas.
//!
//! ## Delta rules (insertion)
//!
//! Datalog is monotone, so an inserted fact can only *add* derivations. The
//! classic delta-rule idea, specialised to the monadic case: a derivation
//! (a homomorphism of some rule body into the working instance) is **new**
//! iff it uses at least one new fact. Newly inserted facts are processed
//! one at a time through a worklist; processing a fact `f` adds it to the
//! working instance and then, for every rule and every body atom whose
//! predicate matches `f`, replays the rule's compiled
//! [`QueryPlan`](sirup_hom::QueryPlan) (the PR 3 plans — nothing is
//! re-planned) with that atom **pinned** to `f`. Every homomorphism found
//! is a new support for its head fact; head facts that become true are
//! pushed onto the worklist and propagate further. Each new derivation is
//! counted exactly once — at the last of its new facts to be processed —
//! so the support counts stay exact.
//!
//! ## Overdelete / rederive (deletion, DRed)
//!
//! Deletion is not monotone, and support counting alone is unsound for
//! recursive programs: two facts can keep each other alive through a cycle
//! of derivations after their well-founded external support is gone. The
//! maintenance therefore follows the DRed discipline:
//!
//! 1. **Overdelete** — starting from the retracted facts, any derived fact
//!    that *loses a support* (a derivation using a removed fact) is
//!    conservatively removed as well, transitively. Dead derivations are
//!    found with the same pinned-plan replay as insertion and decrement
//!    the support counts exactly (a derivation dies at the first of its
//!    facts to be removed).
//! 2. **Rederive** — after overdeletion the support count of an overdeleted
//!    fact equals the number of its derivations that survived intact, so
//!    facts with a positive count are re-inserted — no re-checking needed —
//!    and cascade through the *insertion* machinery, which also restores
//!    the counts of derivations that involve rederived facts.
//!
//! ## The working instance
//!
//! The working instance is never copied. It is the base [`Structure`] (the
//! asserted facts) read with every IDB predicate's closure extension laid
//! over its labels as a bitmap row ([`Target::with_label_rows`]), so each
//! derived label lives in one place. A pending fact stays out of it until
//! the cascade pops it: an inserted EDB fact enters the base, and a
//! derived or asserted IDB label enters its extension row, only then; a
//! retracted one leaves at the same point, after its own replay. An
//! asserted IDB label is a DRed axiom, so it enters and leaves the base
//! when its op is staged; the overlay hides the base's IDB labels from rule
//! checks, so this changes no read.
//!
//! The differential suite (`crates/engine/tests/incremental.rs`) pins the
//! maintained state to a from-scratch [`CompiledProgram::evaluate`] after
//! every op of random mutation sequences, and after every whole batch.
//!
//! ## Complexity
//!
//! Every replay is a pinned plan execution, and a pinned execution seeds
//! its domains outward from the pin (see [`sirup_hom::plan`]): the pinned
//! variable is the fact's node, and each further body variable's domain
//! is read off the adjacency of an already seeded neighbour. One delta
//! fact therefore costs, per rule and per body atom it can pin, the
//! adjacency read along the body from that atom, plus the derivations
//! found. That is not proportional to the instance size or the fixpoint
//! depth. Two terms stay linear in the node count `n`, at memset speed:
//! each execution clears one `n`-bit domain bitset per body variable and
//! one `n`-byte flag array. A body variable whose neighbourhood is a hub
//! (more adjacency than a scan of the instance) is seeded by that scan
//! instead, and a body variable the pin cannot reach (a disconnected
//! body) is always seeded so. The 1-CQ rule bodies of `Π_q`/`Σ_q` are
//! connected, so neither happens on their replays. Support exactness
//! needs *enumeration* of the affected derivations, so a body whose
//! homomorphism count explodes still pays per derivation. The
//! `engine_incremental` bench measures the win against re-evaluation;
//! `crates/engine/tests/anchored_seeds.rs` asserts that a maintained
//! write on a 5000-node instance seeds nothing over the instance.

use crate::eval::{label_rows, CompiledProgram, Evaluation};
use sirup_core::fx::{FxHashMap, FxHashSet};
use sirup_core::program::Program;
use sirup_core::telemetry;
use sirup_core::{FactOp, Node, NodeSet, Pred, Structure, Target};
use std::collections::VecDeque;

/// A fact of the working instance: a unary label or a binary edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Fact {
    Label(Pred, Node),
    Edge(Pred, Node, Node),
}

/// A derived fact's identity: `(pred, Some(node))` for unary heads,
/// `(pred, None)` for nullary heads (the goal `G`).
type HeadKey = (Pred, Option<Node>);

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

/// Sizes and memory footprint of a [`MaterializedFixpoint`], for live
/// debugging (`sirupctl stats`).
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
    /// Entries in the support-count table.
    pub support_entries: usize,
    /// Total number of supporting derivations across all facts.
    pub support_total: u64,
    /// Approximate heap footprint of the support table in bytes.
    pub support_bytes: usize,
    /// Mutation ops applied since materialisation.
    pub ops_applied: u64,
}

/// A live, incrementally maintained fixpoint of one monadic program over
/// one data instance. Build once ([`MaterializedFixpoint::new`]), then
/// [`insert_facts`](MaterializedFixpoint::insert_facts) /
/// [`retract_facts`](MaterializedFixpoint::retract_facts) keep the closure
/// current; reads ([`holds`](MaterializedFixpoint::holds),
/// [`answers`](MaterializedFixpoint::answers)) are lookups.
#[derive(Debug, Clone)]
pub struct MaterializedFixpoint {
    program: CompiledProgram,
    pins: Vec<RulePins>,
    /// The asserted (base) instance: every retained EDB fact, plus any
    /// IDB-predicate facts the data itself carries. Between calls it holds
    /// every asserted fact; during a cascade its EDB facts are those the
    /// cascade has popped (see the module docs).
    base: Structure,
    /// Derived nullary facts, sorted (membership ⟺ support > 0).
    nullary: Vec<Pred>,
    /// Exact support counts: number of (rule, body-homomorphism) pairs in
    /// the current closure deriving each fact. Seeded lazily on the first
    /// mutation (reads never consult supports, so a read-only
    /// materialisation skips the enumeration pass entirely).
    support: FxHashMap<HeadKey, u64>,
    supports_seeded: bool,
    /// Closure extension of each IDB predicate as a bitset over nodes: the
    /// label rows rule checks read over the base.
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
    /// parallel context as attached); the maintained closure is the same
    /// either way.
    pub fn from_compiled<'a>(
        program: CompiledProgram,
        target: impl Into<Target<'a>>,
    ) -> MaterializedFixpoint {
        let t = target.into();
        let ev = program.evaluate(t);
        MaterializedFixpoint::build(program, t.data(), ev)
    }

    fn build(program: CompiledProgram, data: &Structure, ev: Evaluation) -> MaterializedFixpoint {
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
        // include the data's own IDB labels. Support counts are seeded by
        // one enumeration pass per rule — deferred to the first mutation,
        // since only maintenance reads them.
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
        MaterializedFixpoint {
            pins,
            base: data.clone(),
            nullary: ev.nullary,
            support: FxHashMap::default(),
            supports_seeded: false,
            extension,
            ops_applied: 0,
            program,
        }
    }

    /// Seed the exact support counts from the current closure: one plan
    /// enumeration per rule. Ran once, before the first mutation.
    fn ensure_supports_seeded(&mut self) {
        if self.supports_seeded {
            return;
        }
        let rows = label_rows(&self.extension);
        let on = Target::from(&self.base).with_label_rows(&rows);
        let support = &mut self.support;
        for r in self.program.compiled_rules() {
            r.plan.on(on).for_each(|h| {
                let key = (r.head_pred, r.head_node.map(|n| h[n.index()]));
                *support.entry(key).or_default() += 1;
                true
            });
        }
        self.supports_seeded = true;
    }

    /// The maintained base instance (asserted facts only).
    pub fn base(&self) -> &Structure {
        &self.base
    }

    /// Is the nullary fact `g` in the closure?
    pub fn holds(&self, g: Pred) -> bool {
        self.nullary.binary_search(&g).is_ok()
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
            nullary: self.nullary.clone(),
            unary,
            rounds: 0,
        }
    }

    /// Insert facts (all ops must be `Add*`; panics otherwise). Returns how
    /// many changed the instance.
    pub fn insert_facts(&mut self, ops: &[FactOp]) -> usize {
        assert!(
            ops.iter().all(|op| op.is_insert()),
            "insert_facts takes Add* ops only (use apply for mixed batches)"
        );
        self.apply(ops)
    }

    /// Retract facts (all ops must be `Remove*`; panics otherwise). Returns
    /// how many changed the instance.
    pub fn retract_facts(&mut self, ops: &[FactOp]) -> usize {
        assert!(
            ops.iter().all(|op| !op.is_insert()),
            "retract_facts takes Remove* ops only (use apply for mixed batches)"
        );
        self.apply(ops)
    }

    /// Apply a mixed mutation batch in order, maintaining the closure.
    /// Returns how many ops changed the instance (set semantics:
    /// re-inserting a present fact or retracting an absent one is a no-op,
    /// matching [`Structure::apply`]).
    ///
    /// Consecutive **insert** ops batch their delta worklists: the whole
    /// run's genuinely new facts seed *one* insertion cascade instead of
    /// one cascade per op. The cascade's exactly-once counting discipline
    /// (pending facts stay out of the working instance until popped) is
    /// seed-count-agnostic, so the maintained state and support counts are
    /// identical to the per-op result — the batch-vs-per-op differential
    /// test pins this. A staged EDB fact is present if the base holds it
    /// or it is already pending, so a repeated insert is a no-op. Retracts
    /// flush the pending batch first and cascade individually (DRed
    /// overdeletion is order-sensitive).
    pub fn apply(&mut self, ops: &[FactOp]) -> usize {
        telemetry::counter_add(telemetry::Counter::IncrementalCascades, 1);
        let _t = telemetry::traced(telemetry::Family::IncrementalCascade, "incremental_cascade");
        self.ensure_supports_seeded();
        let mut applied = 0usize;
        let mut seeds: Vec<Fact> = Vec::new();
        let mut staged: FxHashSet<Fact> = FxHashSet::default();
        for &op in ops {
            if op.is_insert() {
                if let Some(seed) = self.stage_insert(op, &staged, &mut applied) {
                    staged.insert(seed);
                    seeds.push(seed);
                }
            } else {
                if !seeds.is_empty() {
                    self.insert_cascade(std::mem::take(&mut seeds), std::mem::take(&mut staged));
                }
                if self.stage_retract(op) {
                    applied += 1;
                    self.ops_applied += 1;
                }
            }
        }
        if !seeds.is_empty() {
            self.insert_cascade(seeds, staged);
        }
        applied
    }

    /// Sizes and memory footprint for live debugging.
    pub fn stats(&self) -> MaterializationStats {
        let mut extension_sizes: Vec<(Pred, usize)> =
            self.extension.iter().map(|(&p, s)| (p, s.len())).collect();
        extension_sizes.sort_unstable();
        let entry_bytes = std::mem::size_of::<(HeadKey, u64)>() + std::mem::size_of::<u64>();
        MaterializationStats {
            nodes: self.base.node_count(),
            base_atoms: self.base.size(),
            extension_sizes,
            nullary: self.nullary.clone(),
            support_entries: self.support.len(),
            support_total: self.support.values().sum(),
            support_bytes: self.support.capacity() * entry_bytes,
            ops_applied: self.ops_applied,
        }
    }

    /// Stage one insert op and return the worklist seed, if the op
    /// introduced a genuinely new working-instance fact (`staged` holds the
    /// seeds already pending). An asserted IDB label is a DRed axiom and
    /// enters the base here; an EDB fact waits for the cascade to pop it.
    /// Bumps the counters for effective ops; the caller owns cascading the
    /// seeds.
    fn stage_insert(
        &mut self,
        op: FactOp,
        staged: &FxHashSet<Fact>,
        applied: &mut usize,
    ) -> Option<Fact> {
        let f = match op {
            FactOp::AddLabel(p, v) => {
                self.ensure_node(v);
                Fact::Label(p, v)
            }
            FactOp::AddEdge(p, u, v) => {
                self.ensure_node(u.max(v));
                Fact::Edge(p, u, v)
            }
            FactOp::RemoveLabel(..) | FactOp::RemoveEdge(..) => {
                unreachable!("stage_insert takes Add* ops")
            }
        };
        let fresh = match f {
            Fact::Label(p, v) if self.extension.contains_key(&p) => self.base.add_label(v, p),
            _ => !self.fact_in_work(f) && !staged.contains(&f),
        };
        if !fresh {
            return None;
        }
        *applied += 1;
        self.ops_applied += 1;
        // Asserted on top of derived: the closure is unchanged.
        (!self.fact_in_work(f)).then_some(f)
    }

    /// Stage one retract op and run its DRed cascade, which takes an EDB
    /// fact out of the base after its own replay; an asserted IDB label
    /// leaves the base here. Returns whether the op changed the instance.
    fn stage_retract(&mut self, op: FactOp) -> bool {
        let n = self.base.node_count();
        let (f, in_range) = match op {
            FactOp::RemoveLabel(p, v) => (Fact::Label(p, v), v.index() < n),
            FactOp::RemoveEdge(p, u, v) => (Fact::Edge(p, u, v), u.index() < n && v.index() < n),
            FactOp::AddLabel(..) | FactOp::AddEdge(..) => {
                unreachable!("stage_retract takes Remove* ops")
            }
        };
        let present = in_range
            && match f {
                Fact::Label(p, v) if self.extension.contains_key(&p) => {
                    self.base.remove_label(v, p)
                }
                _ => self.fact_in_work(f),
            };
        if present {
            // Even a still-derived fact must go through the DRed cascade:
            // its remaining supports may be cyclic (resting on derivations
            // that rest on this fact).
            self.retract_cascade(vec![f]);
        }
        present
    }

    fn ensure_node(&mut self, v: Node) {
        self.base.ensure_node(v);
        let n = self.base.node_count();
        for set in self.extension.values_mut() {
            set.grow(n);
        }
    }

    /// All distinct body homomorphisms of rule `r` into the current working
    /// instance that use `fact` at one or more atoms. Sorted and deduplicated
    /// (a hom found via two pinned atoms must count support once).
    fn homs_using(&self, r: usize, fact: Fact) -> Vec<Vec<Node>> {
        let plan = &self.program.compiled_rules()[r].plan;
        let rows = label_rows(&self.extension);
        let on = Target::from(&self.base).with_label_rows(&rows);
        let mut homs: Vec<Vec<Node>> = Vec::new();
        match fact {
            Fact::Label(p, a) => {
                if let Some(vars) = self.pins[r].unary.get(&p) {
                    for &t in vars {
                        plan.on(on).fix(t, a).for_each(|h| {
                            homs.push(h.to_vec());
                            true
                        });
                    }
                }
            }
            Fact::Edge(p, a, b) => {
                if let Some(atoms) = self.pins[r].binary.get(&p) {
                    for &(t1, t2) in atoms {
                        plan.on(on).fix(t1, a).fix(t2, b).for_each(|h| {
                            homs.push(h.to_vec());
                            true
                        });
                    }
                }
            }
        }
        // Same iteration order the previous ordered-set representation gave,
        // without its per-insert rebalancing.
        homs.sort_unstable();
        homs.dedup();
        homs
    }

    /// Add a popped fact to the working instance: an IDB label to its
    /// extension row, an EDB fact to the base.
    fn add_to_work(&mut self, fact: Fact) {
        match fact {
            Fact::Label(p, a) => match self.extension.get_mut(&p) {
                Some(row) => {
                    row.insert(a);
                }
                None => {
                    self.base.add_label(a, p);
                }
            },
            Fact::Edge(p, a, b) => {
                self.base.add_edge(p, a, b);
            }
        }
    }

    /// Remove a popped fact from the working instance (see `add_to_work`).
    fn remove_from_work(&mut self, fact: Fact) {
        match fact {
            Fact::Label(p, a) => match self.extension.get_mut(&p) {
                Some(row) => {
                    row.remove(a);
                }
                None => {
                    self.base.remove_label(a, p);
                }
            },
            Fact::Edge(p, a, b) => {
                self.base.remove_edge(p, a, b);
            }
        }
    }

    /// Delta-driven insertion: each pending fact enters the working
    /// instance, then every derivation using it is counted and newly true
    /// head facts join the worklist. Pending facts stay *out* of the
    /// working instance until popped, so each new derivation is found
    /// exactly once — when the last of its new facts is processed.
    /// `queued` holds the seeds.
    fn insert_cascade(&mut self, seeds: Vec<Fact>, mut queued: FxHashSet<Fact>) {
        let mut pending: VecDeque<Fact> = seeds.into();
        while let Some(f) = pending.pop_front() {
            self.add_to_work(f);
            for r in 0..self.pins.len() {
                let head_node = self.program.compiled_rules()[r].head_node;
                let head_pred = self.program.compiled_rules()[r].head_pred;
                for hom in self.homs_using(r, f) {
                    let key = (head_pred, head_node.map(|n| hom[n.index()]));
                    *self.support.entry(key).or_default() += 1;
                    match key.1 {
                        None => {
                            if let Err(pos) = self.nullary.binary_search(&head_pred) {
                                self.nullary.insert(pos, head_pred);
                            }
                        }
                        Some(a) => {
                            let derived = Fact::Label(head_pred, a);
                            if !self.holds_at(head_pred, a) && queued.insert(derived) {
                                pending.push_back(derived);
                            }
                        }
                    }
                }
            }
        }
    }

    /// DRed deletion: overdelete every fact that loses a support,
    /// transitively (decrementing counts exactly — a derivation dies at the
    /// first of its facts to be removed), then rederive overdeleted facts
    /// whose support count stayed positive (their surviving derivations are
    /// intact in the shrunken instance) through the insertion cascade.
    fn retract_cascade(&mut self, seeds: Vec<Fact>) {
        let mut queue: VecDeque<Fact> = seeds.into();
        let mut queued: FxHashSet<Fact> = queue.iter().copied().collect();
        let mut overdeleted: Vec<(Pred, Node)> = Vec::new();
        while let Some(d) = queue.pop_front() {
            if !self.fact_in_work(d) {
                // A seed the working instance never held (e.g. a retracted
                // base IDB fact that was never derived nor asserted… cannot
                // happen for asserted facts, but keep the cascade total).
                continue;
            }
            for r in 0..self.pins.len() {
                let head_node = self.program.compiled_rules()[r].head_node;
                let head_pred = self.program.compiled_rules()[r].head_pred;
                for hom in self.homs_using(r, d) {
                    let key = (head_pred, head_node.map(|n| hom[n.index()]));
                    if let Some(c) = self.support.get_mut(&key) {
                        *c -= 1;
                        if *c == 0 {
                            self.support.remove(&key);
                        }
                    }
                    match key.1 {
                        None => {
                            // Nullary facts never occur in rule bodies:
                            // membership tracks support directly.
                            if !self.support.contains_key(&key) {
                                if let Ok(pos) = self.nullary.binary_search(&head_pred) {
                                    self.nullary.remove(pos);
                                }
                            }
                        }
                        Some(a) => {
                            // Conservative DRed: any lost support slates the
                            // fact for overdeletion — unless it is asserted
                            // in the base (an axiom stays true).
                            let g = Fact::Label(head_pred, a);
                            if self.holds_at(head_pred, a)
                                && !self.base.has_label(a, head_pred)
                                && queued.insert(g)
                            {
                                queue.push_back(g);
                            }
                        }
                    }
                }
            }
            self.remove_from_work(d);
            if let Fact::Label(p, a) = d {
                overdeleted.push((p, a));
            }
        }
        // Rederive: a positive support count after overdeletion means some
        // derivation survived untouched — re-add and cascade.
        let rederive: Vec<Fact> = overdeleted
            .into_iter()
            .filter(|&(p, a)| {
                self.support.get(&(p, Some(a))).copied().unwrap_or(0) > 0 && !self.holds_at(p, a)
            })
            .map(|(p, a)| Fact::Label(p, a))
            .collect();
        if !rederive.is_empty() {
            let queued = rederive.iter().copied().collect();
            self.insert_cascade(rederive, queued);
        }
    }

    fn fact_in_work(&self, f: Fact) -> bool {
        match f {
            Fact::Label(p, a) => self.holds_at(p, a),
            Fact::Edge(p, a, b) => self.base.has_edge(p, a, b),
        }
    }
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
        assert_eq!(
            mat.insert_facts(&[FactOp::AddEdge(Pred::R, n["b"], n["a"])]),
            1
        );
        assert!(mat.holds_at(Pred::P, n["b"]));
        assert_fresh(&mat, &sigma);
        // Re-inserting is a no-op.
        assert_eq!(
            mat.insert_facts(&[FactOp::AddEdge(Pred::R, n["b"], n["a"])]),
            0
        );
    }

    #[test]
    fn retract_unwinds_the_chain() {
        let q = q_chain();
        let sigma = sigma_q(&q);
        let (d, n) = parse_structure("T(t), A(a), R(a,t), A(b), R(b,a)").unwrap();
        let mut mat = MaterializedFixpoint::new(&sigma, &d);
        assert!(mat.holds_at(Pred::P, n["b"]));
        assert_eq!(
            mat.retract_facts(&[FactOp::RemoveLabel(Pred::T, n["t"])]),
            1
        );
        assert!(!mat.holds_at(Pred::P, n["a"]));
        assert!(!mat.holds_at(Pred::P, n["b"]));
        assert!(mat.answers(Pred::P).is_empty());
        assert_fresh(&mat, &sigma);
    }

    #[test]
    fn cyclic_support_does_not_survive_deletion() {
        // P(a) and P(b) support each other through the A-cycle a ⇄ b; the
        // only well-founded support is T(c). Retracting T(c) must delete
        // all three P-facts even though each still counts a (cyclic)
        // support — the case where pure support counting is unsound and
        // DRed overdeletion is required.
        let q = q_chain();
        let sigma = sigma_q(&q);
        let (d, n) = parse_structure("T(c), A(a), R(a,c), A(b), R(b,a), R(a,b)").unwrap();
        let mut mat = MaterializedFixpoint::new(&sigma, &d);
        assert!(mat.holds_at(Pred::P, n["a"]));
        assert!(mat.holds_at(Pred::P, n["b"]));
        mat.retract_facts(&[FactOp::RemoveLabel(Pred::T, n["c"])]);
        assert!(mat.answers(Pred::P).is_empty());
        assert_fresh(&mat, &sigma);
        // And rederivation resurrects the cycle when support returns.
        mat.insert_facts(&[FactOp::AddLabel(Pred::T, n["c"])]);
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
        mat.retract_facts(&[FactOp::RemoveLabel(Pred::T, n["c"])]);
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
        mat.retract_facts(&[FactOp::RemoveLabel(Pred::F, n["f"])]);
        assert!(!mat.holds(Pred::GOAL));
        assert_fresh(&mat, &pi);
        mat.insert_facts(&[FactOp::AddLabel(Pred::F, n["f"])]);
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
        mat.insert_facts(&[
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
        mat.retract_facts(&[FactOp::RemoveLabel(Pred::T, n["t"])]);
        assert!(mat.holds_at(Pred::P, n["a"]), "asserted P(a) must survive");
        assert_fresh(&mat, &sigma);
        mat.insert_facts(&[FactOp::AddLabel(Pred::T, n["t"])]);
        mat.retract_facts(&[FactOp::RemoveLabel(Pred::P, n["a"])]);
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
        assert!(s.support_total >= 2); // P(t) via rule 6, P(a) via rule 7
        assert!(s
            .extension_sizes
            .iter()
            .any(|&(p, n)| p == Pred::P && n == 2));
        assert!(s.support_bytes > 0);
    }
}
