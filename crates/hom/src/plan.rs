//! Compile-once query plans for homomorphism search.
//!
//! A search that replans on every call recomputes variable constraints,
//! re-derives candidate domains, and picks its variable order while
//! searching. That planning cost is pure waste when the *pattern* is fixed
//! and only the *target* varies — the shape of every hot loop in this
//! workspace: a rule body checked against each fixpoint round, a UCQ
//! disjunct against each instance, a small cactus against each enumerated
//! big one, a d-sirup CQ against each DPLL labelling.
//!
//! A [`QueryPlan`] compiles a pattern once into:
//!
//! * a **static variable order**, chosen greedily by connectivity and
//!   selectivity: the most constrained variable first, then always a
//!   variable with the most edges into the already-ordered prefix, so each
//!   new variable is join-bounded by an assigned neighbour whenever the
//!   pattern is connected;
//! * **per-variable domain constraints** — required labels and incident
//!   binary predicates — precomputed so seeding a domain is a filter, not a
//!   rediscovery;
//! * **join programs** — for each position, the pattern edges back into the
//!   ordered prefix, so candidates are read off the target adjacency of an
//!   already-assigned neighbour instead of scanned from the whole domain.
//!
//! Execution ([`QueryPlan::on`]) reads one [`Target`]: it seeds dense
//! [`NodeSet`] bitset domains (from the view's bitmap rows when one is
//! attached, else by a scan; outward from the pins, over their
//! neighbourhood, when the execution has pins), runs an AC-3 pass over
//! the pattern edges, and then backtracks in the compiled order. It
//! supports pinning (`fix`), exclusion (`forbid`) and an injectivity
//! mode. Its tests compare it against [`oracle`](crate::oracle), a naive
//! enumerator that shares none of this machinery.

use sirup_core::{arena, telemetry};
use sirup_core::{CancelToken, Node, NodeSet, Pred, Structure, Target};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// How a variable's candidates are produced at its position in the order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Iterate the (pre-filtered) domain bitset — first variable of each
    /// connected component.
    Scan,
    /// Enumerate target adjacency of an already-assigned neighbour.
    Join,
}

/// A pattern edge from the variable at some position back into the ordered
/// prefix (or to itself, for loops).
#[derive(Debug, Clone, Copy)]
struct Join {
    pred: Pred,
    /// The earlier (already assigned) variable; equals the position's own
    /// variable for self-loops.
    other: Node,
    /// `true`: pattern edge `pred(var, other)` — candidates need an
    /// *outgoing* edge to `other`'s image. `false`: `pred(other, var)`.
    out: bool,
}

/// Compile-time constraints of one pattern variable.
#[derive(Debug, Clone, Default)]
struct VarConstraint {
    labels: Vec<Pred>,
    preds_out: Vec<Pred>,
    preds_in: Vec<Pred>,
}

impl VarConstraint {
    /// Static selectivity score: number of unary + incident binary
    /// constraints. Higher means a smaller expected domain.
    fn selectivity(&self) -> usize {
        self.labels.len() + self.preds_out.len() + self.preds_in.len()
    }
}

/// A compiled, reusable homomorphism search plan for one pattern.
///
/// Build once with [`QueryPlan::compile`]; execute any number of times
/// against different targets with [`QueryPlan::on`]. The plan owns a copy of
/// the pattern, so it is `'static` and can live in caches (the server's
/// [`PlanCache`] stores plans across requests).
///
/// [`PlanCache`]: ../../sirup_server/plan/struct.PlanCache.html
#[derive(Debug, Clone)]
pub struct QueryPlan {
    pattern: Structure,
    /// Static variable order (every pattern node exactly once).
    order: Vec<Node>,
    /// Per pattern node (by node index): its domain constraints.
    constraints: Vec<VarConstraint>,
    /// Per order position: edges back into the ordered prefix.
    joins: Vec<Vec<Join>>,
    /// All pattern edges, for the AC-3 prefilter.
    edges: Vec<(Pred, Node, Node)>,
    /// Per pattern node: the AC-3 arcs `(edge index, forward?)` whose
    /// support sets read that node's domain — re-enqueued when it shrinks.
    dependents: Vec<Vec<(u32, bool)>>,
}

impl QueryPlan {
    /// Compile `pattern` into a reusable plan.
    pub fn compile(pattern: &Structure) -> QueryPlan {
        let np = pattern.node_count();
        let constraints: Vec<VarConstraint> = pattern
            .nodes()
            .map(|u| VarConstraint {
                labels: pattern.labels(u).to_vec(),
                preds_out: pattern.out_preds(u),
                preds_in: pattern.in_preds(u),
            })
            .collect();

        // Greedy order: seed with the most selective variable; then always
        // take the variable with the most edges into the chosen prefix
        // (connectivity), breaking ties by selectivity, then degree, then
        // node index (for determinism).
        let degree = |u: Node| -> usize { pattern.out_degree(u) + pattern.in_degree(u) };
        let mut chosen = vec![false; np];
        let mut order: Vec<Node> = Vec::with_capacity(np);
        for _ in 0..np {
            let mut best: Option<(usize, usize, usize, usize)> = None; // (links, sel, deg, -idx) max
            let mut best_u = None;
            for u in pattern.nodes() {
                if chosen[u.index()] {
                    continue;
                }
                let links = pattern
                    .out(u)
                    .iter()
                    .filter(|&&(_, v)| chosen[v.index()])
                    .count()
                    + pattern
                        .inn(u)
                        .iter()
                        .filter(|&&(_, w)| chosen[w.index()])
                        .count();
                let key = (
                    links,
                    constraints[u.index()].selectivity(),
                    degree(u),
                    np - u.index(), // prefer smaller index on full ties
                );
                if best.is_none_or(|b| key > b) {
                    best = Some(key);
                    best_u = Some(u);
                }
            }
            let u = best_u.expect("unchosen variable exists");
            chosen[u.index()] = true;
            order.push(u);
        }

        // Join programs per position.
        let mut position = vec![usize::MAX; np];
        for (k, &u) in order.iter().enumerate() {
            position[u.index()] = k;
        }
        let joins: Vec<Vec<Join>> = order
            .iter()
            .enumerate()
            .map(|(k, &u)| {
                let mut js = Vec::new();
                for &(p, v) in pattern.out(u) {
                    if position[v.index()] <= k {
                        js.push(Join {
                            pred: p,
                            other: v,
                            out: true,
                        });
                    }
                }
                for &(p, w) in pattern.inn(u) {
                    // Skip self-loops here: already recorded from `out`.
                    if position[w.index()] < k {
                        js.push(Join {
                            pred: p,
                            other: w,
                            out: false,
                        });
                    }
                }
                js
            })
            .collect();

        let edges: Vec<(Pred, Node, Node)> = pattern.edges().collect();
        let mut dependents: Vec<Vec<(u32, bool)>> = vec![Vec::new(); np];
        for (ei, &(_, u, v)) in edges.iter().enumerate() {
            // The forward arc (revising u) reads dom[v]; the backward arc
            // (revising v) reads dom[u].
            dependents[v.index()].push((ei as u32, true));
            dependents[u.index()].push((ei as u32, false));
        }

        QueryPlan {
            edges,
            pattern: pattern.clone(),
            order,
            constraints,
            joins,
            dependents,
        }
    }

    /// The compiled pattern.
    pub fn pattern(&self) -> &Structure {
        &self.pattern
    }

    /// The static variable order.
    pub fn order(&self) -> &[Node] {
        &self.order
    }

    /// Begin an execution of this plan against `target`: a `&Structure`
    /// for live sequential reads, or a [`Target`] carrying an index, a CSR
    /// view or a parallel context.
    pub fn on<'a>(&'a self, target: impl Into<Target<'a>>) -> PlanExec<'a> {
        PlanExec {
            plan: self,
            target: target.into(),
            fixed: Vec::new(),
            forbidden: Vec::new(),
            injective: false,
            cancel: None,
        }
    }

    /// A human-readable account of the plan (variable order, constraints,
    /// access paths) for `sirupctl plan` and debugging.
    pub fn explain(&self) -> PlanExplain {
        let vars = self
            .order
            .iter()
            .enumerate()
            .map(|(k, &u)| {
                let c = &self.constraints[u.index()];
                let joins = self.joins[k].len();
                let access = if self.joins[k].iter().any(|j| j.other != u) {
                    Access::Join
                } else {
                    Access::Scan
                };
                VarPlan {
                    node: u,
                    labels: c.labels.clone(),
                    preds_out: c.preds_out.clone(),
                    preds_in: c.preds_in.clone(),
                    selectivity: c.selectivity(),
                    joins,
                    access,
                }
            })
            .collect();
        PlanExplain { vars }
    }
}

/// One variable's row in a [`PlanExplain`].
#[derive(Debug, Clone)]
pub struct VarPlan {
    /// The pattern variable.
    pub node: Node,
    /// Required labels.
    pub labels: Vec<Pred>,
    /// Required outgoing binary predicates.
    pub preds_out: Vec<Pred>,
    /// Required incoming binary predicates.
    pub preds_in: Vec<Pred>,
    /// Static selectivity score (unary + incident binary constraints).
    pub selectivity: usize,
    /// Pattern edges back into the ordered prefix (including self-loops).
    pub joins: usize,
    /// How candidates are produced.
    pub access: Access,
}

/// Explanation of a compiled plan, one row per variable in order.
#[derive(Debug, Clone)]
pub struct PlanExplain {
    /// Rows in execution order.
    pub vars: Vec<VarPlan>,
}

impl fmt::Display for PlanExplain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fmt_preds = |ps: &[Pred]| -> String {
            ps.iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        for (k, v) in self.vars.iter().enumerate() {
            let fanout = match v.access {
                Access::Join => format!("adjacency-bounded ({} join(s))", v.joins),
                Access::Scan if v.selectivity > 0 => {
                    format!("domain scan (selectivity {})", v.selectivity)
                }
                Access::Scan => "full scan (unconstrained)".to_owned(),
            };
            writeln!(
                f,
                "  {k}. n{}  labels[{}] out[{}] in[{}]  fan-out: {fanout}",
                v.node.0,
                fmt_preds(&v.labels),
                fmt_preds(&v.preds_out),
                fmt_preds(&v.preds_in),
            )?;
        }
        Ok(())
    }
}

/// One execution of a [`QueryPlan`] against a [`Target`], configured with
/// pins ([`PlanExec::fix`]), exclusions ([`PlanExec::forbid`]),
/// injectivity and an external cancellation token.
pub struct PlanExec<'a> {
    plan: &'a QueryPlan,
    /// What the search reads. With a CSR view attached, adjacency reads
    /// become contiguous slice scans and domain seeding becomes bitmap-row
    /// intersections; an overlay's rows ([`Target::with_label_rows`]) seed
    /// and check the predicates they override, the view's rows every other
    /// label.
    /// With a parallel context, [`PlanExec::exists`] and
    /// [`PlanExec::find_up_to`] split the first variable's post-AC-3
    /// domain into work units on the shared scheduler (above the context's
    /// threshold); [`PlanExec::for_each`] and [`PlanExec::find`] always stay
    /// sequential — they are the differential oracle for the parallel paths.
    target: Target<'a>,
    fixed: Vec<(Node, Node)>,
    forbidden: Vec<(Node, Node)>,
    injective: bool,
    /// External cooperative-cancellation flag, polled once per
    /// backtracking node (parallel UCQ evaluation cancels losing disjuncts
    /// through this).
    cancel: Option<&'a CancelToken>,
}

/// Count a backtracking search and open its trace span (inert unless
/// tracing is on).
fn backtrack_span() -> telemetry::SpanGuard {
    telemetry::counter_add(telemetry::Counter::BacktrackSearches, 1);
    telemetry::timed(telemetry::Family::Backtrack, "backtrack")
}

/// The outcome of domain seeding + the AC-3 prefilter.
enum Prep {
    /// Empty pattern: exactly one (empty) homomorphism.
    EmptyPattern,
    /// Some domain is empty: no homomorphism exists.
    NoMatch,
    /// Consistent per-variable domains, ready to backtrack over. Taken
    /// from the worker's scratch arena — the consuming public method
    /// returns them with [`arena::put_set_vec`].
    Domains(Vec<NodeSet>),
}

/// One adjacency list of the target, whichever backing store it came from:
/// `(pred, node)` pairs off the paged [`Structure`], or a flat contiguous
/// node slice off a [`FrozenStructure`](sirup_core::FrozenStructure) CSR row.
enum Adj<'a> {
    /// A `Structure::out_pred`/`inn_pred` slice (pred is constant).
    Pairs(&'a [(Pred, Node)]),
    /// A CSR row: just the neighbour nodes.
    Flat(&'a [Node]),
}

impl<'a> Adj<'a> {
    #[inline]
    fn len(&self) -> usize {
        match self {
            Adj::Pairs(s) => s.len(),
            Adj::Flat(s) => s.len(),
        }
    }

    #[inline]
    fn iter(&self) -> AdjIter<'a> {
        match self {
            Adj::Pairs(s) => AdjIter::Pairs(s.iter()),
            Adj::Flat(s) => AdjIter::Flat(s.iter()),
        }
    }

    /// Does any listed neighbour fall in `set`?
    #[inline]
    fn any_in(&self, set: &NodeSet) -> bool {
        match self {
            Adj::Pairs(s) => s.iter().any(|&(_, b)| set.contains(b)),
            Adj::Flat(s) => s.iter().any(|&b| set.contains(b)),
        }
    }
}

/// Iterator over an [`Adj`]'s neighbour nodes.
enum AdjIter<'a> {
    Pairs(std::slice::Iter<'a, (Pred, Node)>),
    Flat(std::slice::Iter<'a, Node>),
}

impl Iterator for AdjIter<'_> {
    type Item = Node;

    #[inline]
    fn next(&mut self) -> Option<Node> {
        match self {
            AdjIter::Pairs(i) => i.next().map(|&(_, t)| t),
            AdjIter::Flat(i) => i.next().copied(),
        }
    }
}

impl<'a> PlanExec<'a> {
    /// Require `h(u) = v`.
    pub fn fix(mut self, u: Node, v: Node) -> Self {
        self.fixed.push((u, v));
        self
    }

    /// Require `h(u) ≠ v`.
    pub fn forbid(mut self, u: Node, v: Node) -> Self {
        self.forbidden.push((u, v));
        self
    }

    /// Only look for injective homomorphisms.
    pub fn injective(mut self) -> Self {
        self.injective = true;
        self
    }

    /// Abandon the search when `token` is cancelled (the search then
    /// reports "no homomorphism found so far" — callers that cancel must
    /// not interpret the result). Sequential execution polls it once per
    /// backtracking node; inside parallel root chunks it is polled once
    /// per root candidate (the chunk-local early-stop flag covers the
    /// per-node granularity there).
    pub fn cancel_token(mut self, token: &'a CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Find one homomorphism, if any. Always sequential: returns the first
    /// homomorphism in the compiled enumeration order.
    pub fn find(&self) -> Option<Vec<Node>> {
        let mut out = None;
        self.for_each(|h| {
            out = Some(h.to_vec());
            false
        });
        out
    }

    /// Does any homomorphism exist? With a parallel context on the target
    /// and a large enough root domain, the domain is split into chunks
    /// searched concurrently; the first witness cancels the remaining
    /// chunks.
    pub fn exists(&self) -> bool {
        match self.prepare() {
            Prep::EmptyPattern => true,
            Prep::NoMatch => false,
            Prep::Domains(domains) => {
                let _t = backtrack_span();
                let found = if let Some(chunks) = self.par_chunks(&domains) {
                    self.par_exists(&domains, chunks)
                } else {
                    let mut found = false;
                    self.enumerate(&domains, self.cancel, &mut |_| {
                        found = true;
                        false
                    });
                    found
                };
                arena::put_set_vec(domains);
                found
            }
        }
    }

    /// Enumerate up to `cap` homomorphisms. With a parallel context on the
    /// target the root domain is split and per-chunk buffers are merged
    /// **in chunk order**, so the result is bit-identical to the
    /// sequential enumeration (including the `cap` prefix).
    pub fn find_up_to(&self, cap: usize) -> Vec<Vec<Node>> {
        if cap == 0 {
            return Vec::new();
        }
        match self.prepare() {
            Prep::EmptyPattern => vec![Vec::new()],
            Prep::NoMatch => Vec::new(),
            Prep::Domains(domains) => {
                let _t = backtrack_span();
                let par_chunks = if cap > 1 {
                    self.par_chunks(&domains)
                } else {
                    None
                };
                let out = match par_chunks {
                    Some(chunks) => self.par_find_up_to(&domains, chunks, cap),
                    None => {
                        let mut out = Vec::new();
                        self.enumerate(&domains, self.cancel, &mut |h| {
                            out.push(h.to_vec());
                            out.len() < cap
                        });
                        out
                    }
                };
                arena::put_set_vec(domains);
                out
            }
        }
    }

    /// Visit every homomorphism with a callback; return `false` from the
    /// callback to stop early. Returns `true` iff enumeration ran to
    /// completion. Enumeration order follows the compiled variable order
    /// (it generally differs from [`oracle`](crate::oracle)'s lexicographic
    /// order; the *set* of homomorphisms is identical). Always sequential —
    /// the callback may be arbitrary `FnMut` state; this path is the oracle
    /// the parallel paths are differentially pinned against.
    pub fn for_each(&self, mut f: impl FnMut(&[Node]) -> bool) -> bool {
        match self.prepare() {
            Prep::EmptyPattern => f(&[]),
            Prep::NoMatch => true,
            Prep::Domains(domains) => {
                let _t = backtrack_span();
                let completed = self.enumerate(&domains, self.cancel, &mut f);
                arena::put_set_vec(domains);
                completed
            }
        }
    }

    /// Seed and arc-filter the candidate domains.
    fn prepare(&self) -> Prep {
        if self.plan.pattern.node_count() == 0 {
            return Prep::EmptyPattern;
        }
        if self.data().node_count() == 0 {
            return Prep::NoMatch;
        }
        let Some(mut domains) = self.initial_domains() else {
            return Prep::NoMatch;
        };
        telemetry::counter_add(telemetry::Counter::Ac3Runs, 1);
        let ac3_ok = {
            let _t = telemetry::timed(telemetry::Family::Ac3, "ac3");
            self.ac3(&mut domains)
        };
        if !ac3_ok {
            return Prep::NoMatch;
        }
        Prep::Domains(domains)
    }

    /// Sequential enumeration over prepared domains: the root variable
    /// scans its full domain.
    fn enumerate(
        &self,
        domains: &[NodeSet],
        cancel: Option<&CancelToken>,
        f: &mut impl FnMut(&[Node]) -> bool,
    ) -> bool {
        let root = self.plan.order[0];
        self.run_roots(&domains[root.index()], domains, cancel, f)
    }

    /// The root-domain chunks to search in parallel, if a context is
    /// attached and the domain is large enough to be worth splitting.
    fn par_chunks(&self, domains: &[NodeSet]) -> Option<Vec<NodeSet>> {
        let ctx = self.target.par()?;
        let root = self.plan.order[0];
        let dom = &domains[root.index()];
        if !ctx.should_split(dom.len()) {
            return None;
        }
        Some(dom.split_chunks(ctx.fanout()))
    }

    /// Parallel existence: one task per root chunk, a shared token cancels
    /// the rest on the first witness (and observes the external token).
    fn par_exists(&self, domains: &[NodeSet], chunks: Vec<NodeSet>) -> bool {
        let ctx = self.target.par().expect("par_chunks returned Some");
        let stop = CancelToken::new();
        let found = AtomicBool::new(false);
        ctx.sched.scope(|s| {
            for chunk in &chunks {
                let (stop, found) = (&stop, &found);
                s.spawn(move || {
                    if stop.is_cancelled() || self.externally_cancelled() {
                        return;
                    }
                    self.run_roots(chunk, domains, Some(stop), &mut |_| {
                        found.store(true, Ordering::Release);
                        stop.cancel();
                        false
                    });
                });
            }
        });
        found.load(Ordering::Acquire)
    }

    /// Parallel enumeration: each chunk collects up to `cap` homomorphisms
    /// independently; merging in chunk order and truncating reproduces the
    /// sequential prefix exactly.
    fn par_find_up_to(
        &self,
        domains: &[NodeSet],
        chunks: Vec<NodeSet>,
        cap: usize,
    ) -> Vec<Vec<Node>> {
        let ctx = self.target.par().expect("par_chunks returned Some");
        let slots: Vec<Mutex<Vec<Vec<Node>>>> = chunks.iter().map(|_| Mutex::default()).collect();
        ctx.sched.scope(|s| {
            for (chunk, slot) in chunks.iter().zip(&slots) {
                s.spawn(move || {
                    if self.externally_cancelled() {
                        return;
                    }
                    let mut local: Vec<Vec<Node>> = Vec::new();
                    self.run_roots(chunk, domains, self.cancel, &mut |h| {
                        local.push(h.to_vec());
                        local.len() < cap
                    });
                    *slot.lock().unwrap() = local;
                });
            }
        });
        let mut out: Vec<Vec<Node>> = Vec::new();
        for slot in slots {
            out.extend(slot.into_inner().unwrap());
            if out.len() >= cap {
                out.truncate(cap);
                break;
            }
        }
        out
    }

    fn externally_cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }

    /// Drive the search from every root candidate in `roots` (a subset of
    /// the root variable's domain), in increasing node order. Shared by the
    /// sequential path (`roots` = the whole domain) and every parallel
    /// chunk task. `cancel` (the chunk-local early-stop flag, polled per
    /// backtracking node) and the executor's external token (polled once
    /// per root candidate, so a cancelled UCQ disjunct stops its in-flight
    /// chunks too) both abandon the search.
    fn run_roots(
        &self,
        roots: &NodeSet,
        domains: &[NodeSet],
        cancel: Option<&CancelToken>,
        f: &mut impl FnMut(&[Node]) -> bool,
    ) -> bool {
        let np = self.plan.pattern.node_count();
        let mut assignment = arena::take_node_vec();
        assignment.resize(np, Node(0));
        let root = self.plan.order[0];
        let mut completed = true;
        for t in roots.iter() {
            if cancel.is_some_and(CancelToken::is_cancelled) || self.externally_cancelled() {
                completed = false;
                break;
            }
            // Position 0 has no joins into a prefix except self-loops,
            // which `joins_hold` covers.
            if !self.joins_hold(0, root, t, &assignment) {
                continue;
            }
            assignment[root.index()] = t;
            if !self.backtrack(1, domains, &mut assignment, cancel, f) {
                completed = false;
                break;
            }
        }
        arena::put_node_vec(assignment);
        completed
    }

    /// The target's live data.
    #[inline]
    fn data(&self) -> &'a Structure {
        self.target.data()
    }

    /// Outgoing `p`-adjacency of target node `u`, CSR-backed when a view
    /// is attached.
    #[inline]
    fn adj_out(&self, u: Node, p: Pred) -> Adj<'a> {
        match self.target.view() {
            Some(f) => Adj::Flat(f.out(p, u)),
            None => Adj::Pairs(self.data().out_pred(u, p)),
        }
    }

    /// Incoming `p`-adjacency of target node `v`, CSR-backed when a view
    /// is attached.
    #[inline]
    fn adj_inn(&self, v: Node, p: Pred) -> Adj<'a> {
        match self.target.view() {
            Some(f) => Adj::Flat(f.inn(p, v)),
            None => Adj::Pairs(self.data().inn_pred(v, p)),
        }
    }

    /// Does `p(u, v)` hold in the target (a view's edges are never stale,
    /// so this always prefers the CSR)?
    #[inline]
    fn edge_holds(&self, p: Pred, u: Node, v: Node) -> bool {
        match self.target.view() {
            Some(f) => f.has_edge(p, u, v),
            None => self.data().has_edge(p, u, v),
        }
    }

    /// Is `t` labelled `l`? Reads the target's label row (overlay, or the
    /// view) when it has one; otherwise the live data.
    #[inline]
    fn label_ok(&self, t: Node, l: Pred) -> bool {
        self.target.has_label(t, l)
    }

    /// Per-node candidate domains after unary/degree filtering and pinning.
    /// `None` means some domain is empty (no homomorphism exists). The
    /// returned buffers come from the worker's scratch arena; callers
    /// return them with [`arena::put_set_vec`].
    fn initial_domains(&self) -> Option<Vec<NodeSet>> {
        let mut domains = arena::take_set_vec();
        if self.seed_domains(&mut domains) {
            Some(domains)
        } else {
            arena::put_set_vec(domains);
            None
        }
    }

    /// Fill `domains` with one seeded candidate set per pattern variable;
    /// `false` means some domain came up empty.
    ///
    /// An unpinned execution seeds every variable over the whole instance
    /// ([`PlanExec::seed_universe`]). A pinned one seeds outward from its
    /// pins ([`PlanExec::seed_anchored`]): the domains it builds are
    /// smaller, but AC-3 shrinks both seedings to the same domains, so the
    /// search is unchanged.
    fn seed_domains(&self, domains: &mut Vec<NodeSet>) -> bool {
        let seeded = if self.fixed.is_empty() {
            let nt = self.data().node_count();
            let ok = self.plan.constraints.iter().all(|c| {
                let mut dom = arena::take_set(nt);
                self.seed_universe(c, &mut dom);
                let ok = !dom.is_empty();
                domains.push(dom);
                ok
            });
            let seeds = domains.len() as u64;
            telemetry::counter_add(telemetry::Counter::HomUniverseSeeds, seeds);
            ok
        } else {
            self.seed_anchored(domains)
        };
        if !seeded {
            return false;
        }
        for &(u, v) in &self.forbidden {
            domains[u.index()].remove(v);
            if domains[u.index()].is_empty() {
                return false;
            }
        }
        true
    }

    /// Does target node `t` satisfy `c`'s unary and degree constraints?
    #[inline]
    fn admissible(&self, c: &VarConstraint, t: Node) -> bool {
        c.labels.iter().all(|&l| self.label_ok(t, l))
            && c.preds_out.iter().all(|&p| self.adj_out(t, p).len() > 0)
            && c.preds_in.iter().all(|&p| self.adj_inn(t, p).len() > 0)
    }

    /// Seed `dom` with every admissible node of the instance: the view's
    /// bitmap rows when one is attached, else a scan of all nodes.
    fn seed_universe(&self, c: &VarConstraint, dom: &mut NodeSet) {
        if self.seed_domain_rows(c, dom) {
            return;
        }
        for t in self.data().nodes() {
            if self.admissible(c, t) {
                dom.insert(t);
            }
        }
    }

    /// What [`PlanExec::seed_universe`] reads to seed `c`: bitmap-row
    /// words, or every node.
    fn universe_cost(&self, c: &VarConstraint) -> usize {
        let nt = self.data().node_count();
        if self.target.view().is_some() {
            let rows = c.preds_out.len() + c.preds_in.len() + c.labels.len();
            return rows.max(1) * nt.div_ceil(64);
        }
        nt
    }

    /// Seed a pinned execution's domains outward from its pins.
    ///
    /// Each pinned variable gets its pin as a singleton domain (if
    /// admissible). A breadth-first walk over the pattern edges then seeds
    /// each reached variable `x` from one already seeded neighbour `w`:
    /// `x`'s domain is the admissible nodes adjacent, along that edge, to
    /// `w`'s domain. The walk skips an edge whose neighbourhood is longer
    /// than what [`PlanExec::universe_cost`] says a universe seed of `x`
    /// would read (a hub). Variables the walk never reaches (other
    /// components, or cut off by hubs) are seeded over the universe.
    ///
    /// An anchored domain is a subset of the universe seed and a superset
    /// of the AC-3 fixpoint domain: every value that survives AC-3 has a
    /// neighbour in its neighbour's surviving domain, and that domain is
    /// inside the neighbour's anchored seed (by induction from the pins).
    /// AC-3 computes the greatest arc-consistent sub-domains of its input,
    /// so it lands on the same domains from either seeding.
    fn seed_anchored(&self, domains: &mut Vec<NodeSet>) -> bool {
        let np = self.plan.pattern.node_count();
        let nt = self.data().node_count();
        domains.extend((0..np).map(|_| arena::take_set(nt)));
        let mut reached = arena::take_bool_vec(np);
        // Domain members of the reached variables, as (variable, start,
        // end) ranges into `members`, in the order they were reached: the
        // walk's queue.
        let mut members = arena::take_node_vec();
        let mut queue: Vec<(Node, usize, usize)> = Vec::with_capacity(np);
        let mut ok = self.anchor(domains, &mut reached, &mut members, &mut queue);
        let anchored = queue.len() as u64;
        let mut universe = 0u64;
        if ok {
            for (u, c) in self.plan.constraints.iter().enumerate() {
                if !reached[u] {
                    universe += 1;
                    self.seed_universe(c, &mut domains[u]);
                    if domains[u].is_empty() {
                        ok = false;
                        break;
                    }
                }
            }
        }
        arena::put_bool_vec(reached);
        arena::put_node_vec(members);
        telemetry::counter_add(telemetry::Counter::HomAnchoredSeeds, anchored);
        if universe > 0 {
            telemetry::counter_add(telemetry::Counter::HomUniverseSeeds, universe);
        }
        ok
    }

    /// Seed every pinned variable with its pin, then walk the pattern
    /// edges breadth-first from them, seeding each reached variable from
    /// its neighbour's domain. `false` on conflicting or inadmissible pins,
    /// or when a seeded domain comes up empty.
    fn anchor(
        &self,
        domains: &mut [NodeSet],
        reached: &mut [bool],
        members: &mut Vec<Node>,
        queue: &mut Vec<(Node, usize, usize)>,
    ) -> bool {
        for &(u, v) in &self.fixed {
            if reached[u.index()] {
                if !domains[u.index()].contains(v) {
                    return false; // conflicting pins
                }
                continue;
            }
            if !self.admissible(&self.plan.constraints[u.index()], v) {
                return false;
            }
            domains[u.index()].insert(v);
            reached[u.index()] = true;
            queue.push((u, members.len(), members.len() + 1));
            members.push(v);
        }
        let mut head = 0;
        while let Some(&(w, start, end)) = queue.get(head) {
            head += 1;
            for &(ei, w_is_sink) in &self.plan.dependents[w.index()] {
                let (p, src, dst) = self.plan.edges[ei as usize];
                let x = if w_is_sink { src } else { dst };
                if reached[x.index()] {
                    continue; // includes self-loops
                }
                // Along `p(src, dst)`: the sources of edges into `w`'s
                // domain, or the sinks of edges out of it.
                let nbrs = |b: Node| {
                    if w_is_sink {
                        self.adj_inn(b, p)
                    } else {
                        self.adj_out(b, p)
                    }
                };
                let c = &self.plan.constraints[x.index()];
                let budget = self.universe_cost(c);
                let mut read = 0usize;
                if members[start..end].iter().any(|&b| {
                    read += nbrs(b).len();
                    read > budget
                }) {
                    continue; // a hub: cheaper to seed over the universe
                }
                let x_start = members.len();
                let dom = &mut domains[x.index()];
                for i in start..end {
                    for t in nbrs(members[i]).iter() {
                        if !dom.contains(t) && self.admissible(c, t) {
                            dom.insert(t);
                            members.push(t);
                        }
                    }
                }
                if members.len() == x_start {
                    return false;
                }
                reached[x.index()] = true;
                queue.push((x, x_start, members.len()));
            }
        }
        true
    }

    /// Try to seed a domain by intersecting the view's bitmap rows — the
    /// word-parallel path that replaces the per-node admissibility scan.
    /// Returns `false` when no view is attached (then the caller scans).
    /// Label rows come from the target: an overlay's rows,
    /// else the view's, which cover every label.
    fn seed_domain_rows(&self, c: &VarConstraint, dom: &mut NodeSet) -> bool {
        let Some(f) = self.target.view() else {
            return false;
        };
        dom.fill(self.data().node_count());
        for &p in &c.preds_out {
            dom.intersect_with(f.source_row(p));
        }
        for &p in &c.preds_in {
            dom.intersect_with(f.sink_row(p));
        }
        for &l in &c.labels {
            dom.intersect_with(
                self.target
                    .label_row(l)
                    .expect("a view has every label row"),
            );
        }
        true
    }

    /// AC-3 arc consistency over the compiled pattern edges: a worklist of
    /// directed arcs, where a shrunk domain re-enqueues only the arcs whose
    /// support sets read it (precomputed per node at compile time). Returns
    /// `false` if some domain becomes empty. Worklist state comes from the
    /// worker's scratch arena; with a view attached, large
    /// revisions run word-parallel (see [`PlanExec::revise`]).
    fn ac3(&self, domains: &mut [NodeSet]) -> bool {
        let edges = &self.plan.edges;
        if edges.is_empty() {
            return true;
        }
        // Arc encoding: edge index * 2, +0 forward (revise u against v),
        // +1 backward (revise v against u).
        let mut queued = arena::take_bool_vec(2 * edges.len());
        queued.iter_mut().for_each(|q| *q = true);
        let mut queue = arena::take_queue();
        queue.extend(0..2 * edges.len());
        let mut removals = arena::take_node_vec();
        let mut support = arena::take_set(self.data().node_count());
        let mut ok = true;
        while let Some(arc) = queue.pop_front() {
            queued[arc] = false;
            let (p, u, v) = edges[arc / 2];
            let forward = arc % 2 == 0;
            let (revised, other) = if forward { (u, v) } else { (v, u) };
            if !self.revise(
                p,
                forward,
                revised,
                other,
                domains,
                &mut removals,
                &mut support,
            ) {
                continue;
            }
            if domains[revised.index()].is_empty() {
                ok = false;
                break;
            }
            for &(ej, forward_j) in &self.plan.dependents[revised.index()] {
                let arc2 = (ej as usize) * 2 + usize::from(!forward_j);
                if !queued[arc2] {
                    queued[arc2] = true;
                    queue.push_back(arc2);
                }
            }
        }
        arena::put_bool_vec(queued);
        arena::put_queue(queue);
        arena::put_node_vec(removals);
        arena::put_set(support);
        ok
    }

    /// One AC-3 revision: shrink `dom[revised]` to the candidates with a
    /// `p`-edge into `dom[other]` (edge direction per `forward`). Returns
    /// `true` iff the domain changed.
    ///
    /// Two strategies compute the identical result set:
    ///
    /// * **scalar** — per candidate `a`, scan its adjacency for a supported
    ///   neighbour; cost `O(Σ_{a ∈ dom[revised]} deg(a))`. Wins when the
    ///   revised domain is small (the fixpoint's pinned-singleton shape).
    /// * **word-parallel** (CSR view only) — union the *other*
    ///   side's CSR rows into one support bitmap, then
    ///   [`NodeSet::intersect_with`] the revised domain against it, 4 words
    ///   per step; cost `O(Σ_{b ∈ dom[other]} deg(b) + n/64)`. Wins when
    ///   both domains are large, where per-bit membership probes thrash.
    #[allow(clippy::too_many_arguments)]
    fn revise(
        &self,
        p: Pred,
        forward: bool,
        revised: Node,
        other: Node,
        domains: &mut [NodeSet],
        removals: &mut Vec<Node>,
        support: &mut NodeSet,
    ) -> bool {
        let rlen = domains[revised.index()].len();
        if let Some(f) = self.target.view() {
            if rlen > 32 && rlen >= domains[other.index()].len() {
                support.reset(self.data().node_count());
                for b in domains[other.index()].iter() {
                    // Support for the revised side = everything with an
                    // edge *to* (forward) / *from* (backward) some live b.
                    let row = if forward { f.inn(p, b) } else { f.out(p, b) };
                    for &a in row {
                        support.insert(a);
                    }
                }
                return domains[revised.index()].intersect_with(support);
            }
        }
        removals.clear();
        for a in domains[revised.index()].iter() {
            let adj = if forward {
                self.adj_out(a, p)
            } else {
                self.adj_inn(a, p)
            };
            if !adj.any_in(&domains[other.index()]) {
                removals.push(a);
            }
        }
        for &a in removals.iter() {
            domains[revised.index()].remove(a);
        }
        !removals.is_empty()
    }

    /// Does candidate `t` for the variable at position `k` satisfy every
    /// join back into the assigned prefix?
    fn joins_hold(&self, k: usize, u: Node, t: Node, assignment: &[Node]) -> bool {
        self.plan.joins[k].iter().all(|j| {
            let other_img = if j.other == u {
                t
            } else {
                assignment[j.other.index()]
            };
            if j.out {
                self.edge_holds(j.pred, t, other_img)
            } else {
                self.edge_holds(j.pred, other_img, t)
            }
        })
    }

    /// In an injective search, is `t` already the image of a variable of
    /// the assigned prefix `plan.order[..k]`? Patterns have a handful of
    /// nodes, so the scan beats an n-byte flag array to clear.
    #[inline]
    fn taken(&self, k: usize, t: Node, assignment: &[Node]) -> bool {
        self.injective
            && self.plan.order[..k]
                .iter()
                .any(|v| assignment[v.index()] == t)
    }

    fn backtrack(
        &self,
        k: usize,
        domains: &[NodeSet],
        assignment: &mut Vec<Node>,
        cancel: Option<&CancelToken>,
        f: &mut impl FnMut(&[Node]) -> bool,
    ) -> bool {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return false;
        }
        if k == self.plan.order.len() {
            return f(assignment);
        }
        let u = self.plan.order[k];
        // Candidate source: the smallest adjacency slice of an assigned
        // neighbour, else the domain bitset.
        let best_join = self.plan.joins[k]
            .iter()
            .filter(|j| j.other != u)
            .map(|j| {
                let img = assignment[j.other.index()];
                // Candidates must have an edge *to* img (j.out) — read
                // img's in-list; or an edge *from* img — read its out-list.
                if j.out {
                    self.adj_inn(img, j.pred)
                } else {
                    self.adj_out(img, j.pred)
                }
            })
            .min_by_key(Adj::len);
        match best_join {
            Some(adj) => {
                for t in adj.iter() {
                    if !domains[u.index()].contains(t)
                        || self.taken(k, t, assignment)
                        || !self.joins_hold(k, u, t, assignment)
                    {
                        continue;
                    }
                    assignment[u.index()] = t;
                    if !self.backtrack(k + 1, domains, assignment, cancel, f) {
                        return false;
                    }
                }
            }
            None => {
                for t in domains[u.index()].iter() {
                    if self.taken(k, t, assignment) || !self.joins_hold(k, u, t, assignment) {
                        continue;
                    }
                    assignment[u.index()] = t;
                    if !self.backtrack(k + 1, domains, assignment, cancel, f) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::every_hom;
    use sirup_core::parse::{parse_structure, st};
    use sirup_core::FrozenStructure;

    fn sorted(mut homs: Vec<Vec<Node>>) -> Vec<Vec<Node>> {
        homs.sort();
        homs
    }

    /// `t` with its `T` and `F` labels stripped, and those labels as rows:
    /// the rows laid over the stripped copy read like `t` itself.
    fn strip_tf(t: &Structure) -> (Structure, [NodeSet; 2]) {
        let mut stripped = t.clone();
        let mut rows = [
            NodeSet::empty(t.node_count()),
            NodeSet::empty(t.node_count()),
        ];
        for (row, l) in rows.iter_mut().zip([Pred::T, Pred::F]) {
            for v in t.nodes().filter(|&v| t.has_label(v, l)) {
                row.insert(v);
                stripped.remove_label(v, l);
            }
        }
        (stripped, rows)
    }

    #[test]
    fn plan_agrees_with_oracle_on_fixtures() {
        let patterns = [
            st("F(a), R(a,b), T(b)"),
            st("R(a,b), R(b,c), T(c)"),
            st("T(a), T(b)"),
            st("S(a,b)"),
            st("R(a,a)"),
            st("R(a,b), R(b,c), R(c,d)"),
            st("F(a), T(a)"),
            Structure::new(),
        ];
        let targets = [
            st("F(x), R(x,y), T(y), R(y,z), T(z)"),
            st("R(x,y), R(y,x), T(x), T(y), R(y,z), T(z)"),
            st("A(x)"),
            st("R(x,x), T(x), F(x)"),
            st("T(x), R(x,y), F(y)"),
            st("R(x,y), R(y,x)"),
            Structure::new(),
        ];
        for p in &patterns {
            let plan = QueryPlan::compile(p);
            for t in &targets {
                let expect = every_hom(p, t);
                let planned = sorted(plan.on(t).find_up_to(100_000));
                assert_eq!(expect, planned, "pattern {p} target {t}");
                let f = FrozenStructure::freeze(t);
                let viewed = sorted(
                    plan.on(Target::from(t).with_view(Some(&f)))
                        .find_up_to(100_000),
                );
                assert_eq!(expect, viewed, "view: pattern {p} target {t}");
            }
        }
    }

    #[test]
    fn every_planned_hom_is_valid_and_distinct() {
        let p = st("R(a,b), R(b,c), T(c)");
        let t = st("R(x,y), R(y,x), T(x), T(y), R(y,z), T(z)");
        let plan = QueryPlan::compile(&p);
        let homs = plan.on(&t).find_up_to(10_000);
        assert!(!homs.is_empty());
        for h in &homs {
            assert!(p.is_hom(&t, h));
        }
        let deduped = sorted(homs.clone());
        assert_eq!(deduped.len(), homs.len());
    }

    #[test]
    fn fixing_and_forbidding() {
        let (p, pn) = parse_structure("R(a,b)").unwrap();
        let (t, tn) = parse_structure("R(x,y), R(y,z)").unwrap();
        let plan = QueryPlan::compile(&p);
        let h = plan.on(&t).fix(pn["a"], tn["y"]).find().unwrap();
        assert_eq!(h[pn["a"].index()], tn["y"]);
        assert_eq!(h[pn["b"].index()], tn["z"]);
        assert!(plan.on(&t).fix(pn["a"], tn["z"]).find().is_none());
        assert_eq!(plan.on(&t).forbid(pn["a"], tn["x"]).find_up_to(10).len(), 1);
    }

    #[test]
    fn injective_mode() {
        let p = st("T(a), T(b)");
        let t1 = st("T(x)");
        let plan = QueryPlan::compile(&p);
        assert!(plan.on(&t1).exists());
        assert!(!plan.on(&t1).injective().exists());
        let t2 = st("T(x), T(y)");
        assert!(plan.on(&t2).injective().exists());
    }

    #[test]
    fn self_loops_are_enforced() {
        let p = st("R(a,a)");
        let plan = QueryPlan::compile(&p);
        assert!(plan.on(&st("R(x,x)")).exists());
        assert!(!plan.on(&st("R(x,y), R(y,x)")).exists());
    }

    #[test]
    fn order_starts_selective_and_stays_connected() {
        // b is the most constrained (two labels + an incident edge); the
        // remaining variables must each join the prefix.
        let (p, pn) = parse_structure("F(b), T(b), R(a,b), R(b,c), R(c,d)").unwrap();
        let plan = QueryPlan::compile(&p);
        assert_eq!(plan.order()[0], pn["b"]);
        let ex = plan.explain();
        assert_eq!(ex.vars[0].access, Access::Scan);
        for v in &ex.vars[1..] {
            assert_eq!(v.access, Access::Join, "var n{} not join-bounded", v.node.0);
        }
        let text = ex.to_string();
        assert!(text.contains("domain scan"), "{text}");
        assert!(text.contains("adjacency-bounded"), "{text}");
    }

    #[test]
    fn disconnected_components_each_scan_once() {
        let p = st("T(a), R(b,c)");
        let plan = QueryPlan::compile(&p);
        let scans = plan
            .explain()
            .vars
            .iter()
            .filter(|v| v.access == Access::Scan)
            .count();
        assert_eq!(scans, 2);
        let t = st("T(x), R(y,z), T(z)");
        assert_eq!(sorted(plan.on(&t).find_up_to(100)), every_hom(&p, &t));
    }

    #[test]
    fn for_each_early_stop_and_empty_pattern() {
        let p = st("R(a,b)");
        let t = st("R(x,y), R(y,z), R(z,w)");
        let plan = QueryPlan::compile(&p);
        let mut n = 0;
        let completed = plan.on(&t).for_each(|_| {
            n += 1;
            n < 2
        });
        assert!(!completed);
        assert_eq!(n, 2);
        let empty = QueryPlan::compile(&Structure::new());
        assert_eq!(empty.on(&t).find_up_to(10).len(), 1);
    }

    #[test]
    fn frozen_snapshot_agrees_with_live_reads() {
        let patterns = [
            st("F(a), R(a,b), T(b)"),
            st("R(a,b), R(b,c), T(c)"),
            st("T(a), T(b)"),
            st("S(a,b)"),
            st("R(a,a)"),
            st("T(a), R(b,c)"),
        ];
        let targets = [
            st("F(x), R(x,y), T(y), R(y,z), T(z)"),
            st("R(x,y), R(y,x), T(x), T(y), R(y,z), T(z)"),
            st("R(x,x), T(x), F(x)"),
        ];
        for p in &patterns {
            let plan = QueryPlan::compile(p);
            for t in &targets {
                let f = FrozenStructure::freeze(t);
                let live = sorted(plan.on(t).find_up_to(100_000));
                let full = sorted(
                    plan.on(Target::from(t).with_view(Some(&f)))
                        .find_up_to(100_000),
                );
                assert_eq!(live, full, "frozen full: pattern {p} target {t}");
                // `T`/`F` as overlay rows on a view that lacks them.
                let (stripped, rows) = strip_tf(t);
                let sf = FrozenStructure::freeze(&stripped);
                let overlay = [(Pred::T, &rows[0]), (Pred::F, &rows[1])];
                let over = sorted(
                    plan.on(Target::from(&stripped)
                        .with_view(Some(&sf))
                        .with_label_rows(&overlay))
                        .find_up_to(100_000),
                );
                assert_eq!(live, over, "frozen overlay: pattern {p} target {t}");
            }
        }
    }

    #[test]
    fn frozen_agrees_under_pins_forbids_injective() {
        let p = st("F(a), R(a,b), R(b,c), T(c)");
        let t = st("F(x), R(x,y), R(y,z), T(z), R(x,z), T(y), F(y)");
        let plan = QueryPlan::compile(&p);
        let f = FrozenStructure::freeze(&t);
        for u in p.nodes() {
            for v in t.nodes() {
                let live = plan.on(&t).fix(u, v).exists();
                let froz = plan
                    .on(Target::from(&t).with_view(Some(&f)))
                    .fix(u, v)
                    .exists();
                assert_eq!(live, froz, "pin n{} -> n{}", u.0, v.0);
                let live_f = plan.on(&t).forbid(u, v).exists();
                let froz_f = plan
                    .on(Target::from(&t).with_view(Some(&f)))
                    .forbid(u, v)
                    .exists();
                assert_eq!(live_f, froz_f, "forbid n{} -> n{}", u.0, v.0);
            }
        }
        assert_eq!(
            plan.on(&t).injective().exists(),
            plan.on(Target::from(&t).with_view(Some(&f)))
                .injective()
                .exists()
        );
    }

    #[test]
    fn frozen_overlay_tracks_accruing_labels() {
        // The engine's shape: labels accrue after the freeze, edges never
        // change. The accrued labels ride as an overlay row on the view and
        // must read like the live labelled copy.
        let p = st("T(a), R(a,b), T(b)");
        let base = st("R(x,y), T(x)");
        let f = FrozenStructure::freeze(&base);
        let full = Target::from(&base).with_view(Some(&f));
        let plan = QueryPlan::compile(&p);
        let mut grown = base.clone();
        let mut t_row = NodeSet::empty(base.node_count());
        t_row.insert(Node(0));
        assert!(!plan.on(full.with_label_rows(&[(Pred::T, &t_row)])).exists());
        assert!(!plan.on(&grown).exists());
        grown.add_label(Node(1), Pred::T); // now T(x), T(y), R(x,y)
        t_row.insert(Node(1));
        let rows = [(Pred::T, &t_row)];
        assert!(plan.on(full.with_label_rows(&rows)).exists());
        assert_eq!(
            sorted(plan.on(&grown).find_up_to(100)),
            sorted(plan.on(full.with_label_rows(&rows)).find_up_to(100))
        );
    }

    #[test]
    #[should_panic(expected = "snapshot")]
    fn stale_frozen_is_rejected() {
        let t = st("R(x,y)");
        let f = FrozenStructure::freeze(&t);
        let bigger = st("R(x,y), R(y,z)");
        let plan = QueryPlan::compile(&st("R(a,b)"));
        let _ = plan.on(Target::from(&bigger).with_view(Some(&f))).exists();
    }

    #[test]
    fn plan_matches_oracle_under_pins() {
        let p = st("F(a), R(a,b), R(b,c), T(c)");
        let t = st("F(x), R(x,y), R(y,z), T(z), R(x,z), T(y), F(y)");
        let plan = QueryPlan::compile(&p);
        let homs = every_hom(&p, &t);
        for u in p.nodes() {
            for v in t.nodes() {
                let expect = homs.iter().any(|h| h[u.index()] == v);
                let planned = plan.on(&t).fix(u, v).exists();
                assert_eq!(expect, planned, "pin n{} -> n{}", u.0, v.0);
                let expect_f = homs.iter().any(|h| h[u.index()] != v);
                let planned_f = plan.on(&t).forbid(u, v).exists();
                assert_eq!(expect_f, planned_f, "forbid n{} -> n{}", u.0, v.0);
            }
        }
    }

    /// `exec`'s domains seeded the way every pinned execution was before
    /// anchored seeding: pins as singletons, every other variable over the
    /// universe, exclusions removed. `None` when one comes up empty.
    fn universe_seeded(exec: &PlanExec<'_>) -> Option<Vec<NodeSet>> {
        let nt = exec.data().node_count();
        let mut domains = Vec::new();
        for (u, c) in exec.plan.constraints.iter().enumerate() {
            let mut dom = NodeSet::empty(nt);
            let pins: Vec<Node> = exec
                .fixed
                .iter()
                .filter(|&&(x, _)| x.index() == u)
                .map(|&(_, v)| v)
                .collect();
            match pins.first() {
                Some(&v) if pins.iter().any(|&w| w != v) => return None,
                Some(&v) => {
                    if exec.admissible(c, v) {
                        dom.insert(v);
                    }
                }
                None => exec.seed_universe(c, &mut dom),
            }
            domains.push(dom);
        }
        for &(u, v) in &exec.forbidden {
            domains[u.index()].remove(v);
        }
        (!domains.iter().any(NodeSet::is_empty)).then_some(domains)
    }

    /// A 0..n `R`-chain (some nodes `T`) plus two hubs with `R` edges to and
    /// from every other node.
    fn two_hub_target(n: u32) -> Structure {
        let mut t = Structure::with_nodes(n as usize);
        for v in 0..n - 1 {
            t.add_edge(Pred::R, Node(v), Node(v + 1));
            if v % 3 == 0 {
                t.add_label(Node(v), Pred::T);
            }
        }
        for _ in 0..2 {
            let hub = t.add_node();
            for v in 0..n {
                t.add_edge(Pred::R, hub, Node(v));
                t.add_edge(Pred::R, Node(v), hub);
            }
        }
        t
    }

    #[test]
    fn anchored_seeding_reaches_the_universe_seeded_ac3_fixpoint() {
        let patterns = [
            st("F(a), R(a,b), R(b,c), T(c)"),
            st("R(a,b), R(b,c), R(c,a)"),
            st("R(b,a), R(b,c), T(c), A(a)"),
            st("T(a), R(b,c)"),
            st("R(a,a), R(a,b)"),
        ];
        let targets = [
            st("F(x), R(x,y), R(y,z), T(z), R(x,z), T(y), F(y), R(z,x), A(y)"),
            two_hub_target(70),
        ];
        for p in &patterns {
            let plan = QueryPlan::compile(p);
            for t in &targets {
                let f = FrozenStructure::freeze(t);
                let (stripped, rows) = strip_tf(t);
                let sf = FrozenStructure::freeze(&stripped);
                let overlay = [(Pred::T, &rows[0]), (Pred::F, &rows[1])];
                let shapes = [
                    Target::from(t),
                    Target::from(t).with_view(Some(&f)),
                    Target::from(&stripped)
                        .with_view(Some(&sf))
                        .with_label_rows(&overlay),
                ];
                for u in p.nodes() {
                    for v in t.nodes() {
                        let mut live = None;
                        for target in shapes {
                            let exec = plan.on(target).fix(u, v).forbid(u, Node(0));
                            let legacy = universe_seeded(&exec);
                            let anchored = exec.initial_domains();
                            if let (Some(l), Some(a)) = (&legacy, &anchored) {
                                for (lu, au) in l.iter().zip(a) {
                                    assert!(au.iter().all(|x| lu.contains(x)), "not a subset");
                                }
                            }
                            let fixpoint = |d: Option<Vec<NodeSet>>| {
                                d.and_then(|mut d| exec.ac3(&mut d).then_some(d))
                            };
                            let anchored = fixpoint(anchored);
                            assert_eq!(
                                fixpoint(legacy),
                                anchored,
                                "pattern {p}, pin n{} -> n{}",
                                u.0,
                                v.0
                            );
                            // Every shape, the overlay included, lands on
                            // the live read's domains.
                            let live = live.get_or_insert_with(|| anchored.clone());
                            assert_eq!(*live, anchored, "shapes diverged: pattern {p}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_hub_neighbourhood_falls_back_to_the_universe_seed() {
        // Pin a chain node: b's domain is its successor and the two hubs
        // (anchored); c's neighbourhood holds both hubs' full adjacency,
        // longer than a scan of the instance, so c is seeded over the
        // universe instead.
        let (p, pn) = parse_structure("R(a,b), R(b,c)").unwrap();
        let t = two_hub_target(40);
        let plan = QueryPlan::compile(&p);
        let exec = plan.on(&t).fix(pn["a"], Node(5));
        let domains = exec.initial_domains().unwrap();
        let b_dom: Vec<Node> = domains[pn["b"].index()].iter().collect();
        assert_eq!(b_dom, vec![Node(6), Node(40), Node(41)]);
        let mut universe = NodeSet::empty(t.node_count());
        exec.seed_universe(&plan.constraints[pn["c"].index()], &mut universe);
        assert_eq!(domains[pn["c"].index()], universe);
    }

    #[test]
    fn ac3_fixpoint_is_sound_and_arc_consistent() {
        // Answers cannot show a weakened AC-3 (the joins re-check every
        // edge), so its two contracts are checked directly: no
        // homomorphism's value is pruned, and every value left has support
        // along every pattern edge, in both directions. The hub target is
        // big enough for the word-parallel revision on the view.
        let patterns = [
            st("F(a), R(a,b), R(b,c), T(c)"),
            st("R(a,b), R(b,c), R(c,a)"),
            st("R(b,a), R(b,c), T(c), A(a)"),
            st("R(a,a), R(a,b)"),
        ];
        let targets = [
            st("F(x), R(x,y), R(y,z), T(z), R(x,z), T(y), F(y), R(z,x), A(y)"),
            two_hub_target(40),
        ];
        for p in &patterns {
            let plan = QueryPlan::compile(p);
            for t in &targets {
                let homs = every_hom(p, t);
                let f = FrozenStructure::freeze(t);
                for target in [Target::from(t), Target::from(t).with_view(Some(&f))] {
                    let exec = plan.on(target);
                    let Some(mut d) = exec.initial_domains() else {
                        assert!(homs.is_empty(), "seeding lost a hom: pattern {p}");
                        continue;
                    };
                    if !exec.ac3(&mut d) {
                        assert!(homs.is_empty(), "AC-3 lost a hom: pattern {p}");
                        continue;
                    }
                    for h in &homs {
                        assert!(p.nodes().all(|u| d[u.index()].contains(h[u.index()])));
                    }
                    for (pr, u, v) in p.edges() {
                        let (du, dv) = (&d[u.index()], &d[v.index()]);
                        assert!(
                            du.iter().all(|a| dv.iter().any(|b| t.has_edge(pr, a, b))),
                            "forward arc {pr:?}(n{}, n{}) unsupported: pattern {p}",
                            u.0,
                            v.0
                        );
                        assert!(
                            dv.iter().all(|b| du.iter().any(|a| t.has_edge(pr, a, b))),
                            "backward arc {pr:?}(n{}, n{}) unsupported: pattern {p}",
                            u.0,
                            v.0
                        );
                    }
                }
            }
        }
    }
}
