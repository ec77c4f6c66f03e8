//! Compile-once query plans for homomorphism search.
//!
//! [`search::HomFinder`](crate::search::HomFinder) replans on every call: it
//! recomputes variable constraints, re-derives candidate domains, and picks
//! its variable order dynamically (minimum-remaining-values) while searching.
//! That planning cost is pure waste when the *pattern* is fixed and only the
//! *target* varies — the shape of every hot loop in this workspace: a rule
//! body checked against each fixpoint round, a UCQ disjunct against each
//! instance, a small cactus against each enumerated big one, a d-sirup CQ
//! against each DPLL labelling.
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
//! [`NodeSet`] bitset domains (from the view's bitmap rows or the index's
//! postings when attached), runs an AC-3 pass over the pattern edges, and
//! then backtracks in the compiled order. It supports the same pinning
//! (`fix`), exclusion (`forbid`), and injectivity modes as the legacy
//! finder, which is kept as the differential-test oracle.

use sirup_core::paged::NodesView;
use sirup_core::{arena, telemetry};
use sirup_core::{CancelToken, Node, NodeSet, Pred, Structure, Target};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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

/// Observed per-variable fan-out of a compiled plan, shared across clones.
///
/// Every execution records the post-AC-3 domain size of each pattern
/// variable (a handful of relaxed atomic adds — noise next to the AC-3 pass
/// itself). The running averages are what adaptive re-planning compares
/// against the static selectivity estimate: when the variable the static
/// order put first turns out to have a much larger observed domain than a
/// later variable, the plan can be recompiled with
/// [`QueryPlan::compile_with_domain_estimates`].
#[derive(Debug, Clone)]
pub struct PlanStats(Arc<PlanStatsInner>);

#[derive(Debug)]
struct PlanStatsInner {
    /// Executions that reached the backtracking stage (AC-3 succeeded).
    samples: AtomicU64,
    /// Per pattern node (by node index): sum of post-AC-3 domain sizes.
    domain_sums: Vec<AtomicU64>,
}

impl PlanStats {
    fn new(nvars: usize) -> PlanStats {
        PlanStats(Arc::new(PlanStatsInner {
            samples: AtomicU64::new(0),
            domain_sums: (0..nvars).map(|_| AtomicU64::new(0)).collect(),
        }))
    }

    /// Record one execution's post-AC-3 domain sizes.
    fn record(&self, domains: &[NodeSet]) {
        self.0.samples.fetch_add(1, Ordering::Relaxed);
        for (sum, dom) in self.0.domain_sums.iter().zip(domains) {
            sum.fetch_add(dom.len() as u64, Ordering::Relaxed);
        }
    }

    /// Executions recorded so far.
    pub fn samples(&self) -> u64 {
        self.0.samples.load(Ordering::Relaxed)
    }

    /// Average observed post-AC-3 domain size per pattern node (by node
    /// index), or `None` before the first recorded execution.
    pub fn observed_domains(&self) -> Option<Vec<f64>> {
        let n = self.samples();
        if n == 0 {
            return None;
        }
        Some(
            self.0
                .domain_sums
                .iter()
                .map(|s| s.load(Ordering::Relaxed) as f64 / n as f64)
                .collect(),
        )
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
    /// Observed execution statistics; clones share one accumulator.
    stats: PlanStats,
}

impl QueryPlan {
    /// Compile `pattern` into a reusable plan.
    pub fn compile(pattern: &Structure) -> QueryPlan {
        QueryPlan::compile_inner(pattern, None)
    }

    /// Compile `pattern` ordering variables by **observed** average domain
    /// sizes (`est`, indexed by pattern node index — see
    /// [`PlanStats::observed_domains`]) instead of the static selectivity
    /// score: connectivity still leads, but ties now prefer the variable
    /// with the *smallest observed* domain rather than the one with the
    /// most syntactic constraints. The answer set is independent of
    /// variable order, so the recompiled plan stays differentially
    /// interchangeable with the original.
    pub fn compile_with_domain_estimates(pattern: &Structure, est: &[f64]) -> QueryPlan {
        assert_eq!(
            est.len(),
            pattern.node_count(),
            "one domain estimate per pattern node"
        );
        QueryPlan::compile_inner(pattern, Some(est))
    }

    fn compile_inner(pattern: &Structure, observed: Option<&[f64]>) -> QueryPlan {
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
        // Selectivity rank, higher = expected smaller domain. Static:
        // constraint count. Observed: inverted average domain size (scaled
        // to keep sub-integer differences), so a variable measured at 3
        // candidates outranks one measured at 300 whatever their syntax.
        let rank = |u: Node| -> u64 {
            match observed {
                None => constraints[u.index()].selectivity() as u64,
                Some(est) => u64::MAX - (est[u.index()].max(0.0) * 1024.0).round() as u64,
            }
        };
        let mut chosen = vec![false; np];
        let mut order: Vec<Node> = Vec::with_capacity(np);
        for _ in 0..np {
            let mut best: Option<(u64, u64, u64, u64)> = None; // (links, rank, deg, -idx) max
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
                    links as u64,
                    rank(u),
                    degree(u) as u64,
                    (np - u.index()) as u64, // prefer smaller index on full ties
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
            stats: PlanStats::new(np),
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

    /// Observed execution statistics (shared across clones of this plan).
    pub fn stats(&self) -> &PlanStats {
        &self.stats
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
    /// intersections; label rows are read only in full mode (a
    /// [`Target::relabelled`] working copy keeps labels on the live data).
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
    telemetry::traced(telemetry::Family::Backtrack, "backtrack")
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
/// node slice off a [`FrozenStructure`] CSR row.
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
    /// (it generally differs from the legacy finder's dynamic order; the
    /// *set* of homomorphisms is identical). Always sequential — the
    /// callback may be arbitrary `FnMut` state; this path is the oracle
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
            let _t = telemetry::traced(telemetry::Family::Ac3, "ac3");
            self.ac3(&mut domains)
        };
        if !ac3_ok {
            return Prep::NoMatch;
        }
        self.plan.stats.record(&domains);
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
        let nt = self.data().node_count();
        let mut assignment = arena::take_node_vec();
        assignment.resize(np, Node(0));
        let mut used = arena::take_bool_vec(nt);
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
            used[t.index()] = true;
            let keep_going = self.backtrack(1, domains, &mut assignment, &mut used, cancel, f);
            used[t.index()] = false;
            if !keep_going {
                completed = false;
                break;
            }
        }
        arena::put_node_vec(assignment);
        arena::put_bool_vec(used);
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

    /// Is `t` labelled `l`? Reads the view's label row only in full mode;
    /// otherwise the live data.
    #[inline]
    fn label_ok(&self, t: Node, l: Pred) -> bool {
        match self.target.label_view() {
            Some(f) => f.has_label(t, l),
            None => self.data().has_label(t, l),
        }
    }

    /// Smallest index-backed candidate list for pattern node `u`, if an
    /// index is attached and `u` is constrained at all.
    fn seed_candidates(&self, c: &VarConstraint) -> Option<NodesView<'a>> {
        let idx = self.target.index()?;
        let mut best: Option<NodesView<'a>> = None;
        let mut consider = |list: NodesView<'a>| {
            if best.is_none_or(|b| list.len() < b.len()) {
                best = Some(list);
            }
        };
        for &l in &c.labels {
            consider(idx.nodes_with_label(l));
        }
        for &p in &c.preds_out {
            consider(idx.sources(p));
        }
        for &p in &c.preds_in {
            consider(idx.sinks(p));
        }
        best
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
    fn seed_domains(&self, domains: &mut Vec<NodeSet>) -> bool {
        let np = self.plan.pattern.node_count();
        let nt = self.data().node_count();
        // Resolve pins first: a pinned variable's domain is a singleton, so
        // it never pays the full admissibility scan (this is the hot shape
        // of the datalog fixpoint, which pins the head variable per
        // candidate).
        let mut pinned: Vec<Option<Node>> = vec![None; np];
        for &(u, v) in &self.fixed {
            match pinned[u.index()] {
                None => pinned[u.index()] = Some(v),
                Some(w) if w == v => {}
                Some(_) => return false, // conflicting pins
            }
        }
        for u in self.plan.pattern.nodes() {
            let c = &self.plan.constraints[u.index()];
            let admissible = |t: Node| {
                c.labels.iter().all(|&l| self.label_ok(t, l))
                    && c.preds_out.iter().all(|&p| self.adj_out(t, p).len() > 0)
                    && c.preds_in.iter().all(|&p| self.adj_in_nonempty(t, p))
            };
            let mut dom = arena::take_set(nt);
            match pinned[u.index()] {
                Some(v) => {
                    if admissible(v) {
                        dom.insert(v);
                    }
                }
                None => {
                    if !self.seed_domain_rows(c, &mut dom) {
                        match self.seed_candidates(c) {
                            Some(seed) => {
                                for t in seed.iter() {
                                    if admissible(t) {
                                        dom.insert(t);
                                    }
                                }
                            }
                            None => {
                                for t in self.data().nodes() {
                                    if admissible(t) {
                                        dom.insert(t);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            if dom.is_empty() {
                arena::put_set(dom);
                return false;
            }
            domains.push(dom);
        }
        for &(u, v) in &self.forbidden {
            domains[u.index()].remove(v);
            if domains[u.index()].is_empty() {
                return false;
            }
        }
        true
    }

    #[inline]
    fn adj_in_nonempty(&self, t: Node, p: Pred) -> bool {
        self.adj_inn(t, p).len() > 0
    }

    /// Try to seed a domain by intersecting the view's bitmap rows — the
    /// word-parallel path that replaces the per-node admissibility scan.
    /// Returns `false` when no view is attached or no row is usable (then
    /// the caller falls back to seed/scan). In edges-only mode the label
    /// rows may be stale, so the row-AND covers only the source/sink rows
    /// and labels are re-checked against the live data over the (already
    /// small) candidate set.
    fn seed_domain_rows(&self, c: &VarConstraint, dom: &mut NodeSet) -> bool {
        let Some(f) = self.target.view() else {
            return false;
        };
        let label_rows = self.target.label_view();
        let rowable = c.preds_out.len()
            + c.preds_in.len()
            + if label_rows.is_some() {
                c.labels.len()
            } else {
                0
            };
        if rowable == 0 && !c.labels.is_empty() {
            // Edges-only mode with label-only constraints: the rows say
            // nothing; use the index/scan path with live labels.
            return false;
        }
        let nt = self.data().node_count();
        dom.fill(nt);
        for &p in &c.preds_out {
            dom.intersect_with(f.source_row(p));
        }
        for &p in &c.preds_in {
            dom.intersect_with(f.sink_row(p));
        }
        if let Some(f) = label_rows {
            for &l in &c.labels {
                dom.intersect_with(f.label_row(l));
            }
        } else if !c.labels.is_empty() {
            let mut drop = arena::take_node_vec();
            for t in dom.iter() {
                if !c.labels.iter().all(|&l| self.data().has_label(t, l)) {
                    drop.push(t);
                }
            }
            for &t in &drop {
                dom.remove(t);
            }
            arena::put_node_vec(drop);
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

    fn backtrack(
        &self,
        k: usize,
        domains: &[NodeSet],
        assignment: &mut Vec<Node>,
        used: &mut [bool],
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
                        || (self.injective && used[t.index()])
                        || !self.joins_hold(k, u, t, assignment)
                    {
                        continue;
                    }
                    assignment[u.index()] = t;
                    used[t.index()] = true;
                    let keep_going = self.backtrack(k + 1, domains, assignment, used, cancel, f);
                    used[t.index()] = false;
                    if !keep_going {
                        return false;
                    }
                }
            }
            None => {
                for t in domains[u.index()].iter() {
                    if (self.injective && used[t.index()]) || !self.joins_hold(k, u, t, assignment)
                    {
                        continue;
                    }
                    assignment[u.index()] = t;
                    used[t.index()] = true;
                    let keep_going = self.backtrack(k + 1, domains, assignment, used, cancel, f);
                    used[t.index()] = false;
                    if !keep_going {
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
    use crate::search::{all_homs, HomFinder};
    use sirup_core::parse::{parse_structure, st};
    use sirup_core::{FrozenStructure, PredIndex};

    fn sorted(mut homs: Vec<Vec<Node>>) -> Vec<Vec<Node>> {
        homs.sort();
        homs
    }

    #[test]
    fn plan_agrees_with_legacy_on_fixtures() {
        let patterns = [
            st("F(a), R(a,b), T(b)"),
            st("R(a,b), R(b,c), T(c)"),
            st("T(a), T(b)"),
            st("S(a,b)"),
            st("R(a,a)"),
            Structure::new(),
        ];
        let targets = [
            st("F(x), R(x,y), T(y), R(y,z), T(z)"),
            st("R(x,y), R(y,x), T(x), T(y), R(y,z), T(z)"),
            st("A(x)"),
            st("R(x,x), T(x), F(x)"),
            Structure::new(),
        ];
        for p in &patterns {
            let plan = QueryPlan::compile(p);
            for t in &targets {
                let legacy = sorted(all_homs(p, t, 100_000));
                let planned = sorted(plan.on(t).find_up_to(100_000));
                assert_eq!(legacy, planned, "pattern {p} target {t}");
                let idx = PredIndex::new(t);
                let indexed = sorted(
                    plan.on(Target::from(t).with_index(&idx))
                        .find_up_to(100_000),
                );
                assert_eq!(legacy, indexed, "indexed: pattern {p} target {t}");
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
        assert_eq!(
            sorted(plan.on(&t).find_up_to(100)),
            sorted(all_homs(&p, &t, 100))
        );
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
                let edges = sorted(
                    plan.on(Target::from(t).with_view(Some(&f)).relabelled(t))
                        .find_up_to(100_000),
                );
                assert_eq!(live, edges, "frozen edges: pattern {p} target {t}");
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
    fn frozen_edges_mode_tracks_live_labels() {
        // The engine's shape: labels accrue on the target after the freeze,
        // edges never change. Edges-only mode must see the *live* labels.
        let p = st("T(a), R(a,b), T(b)");
        let base = st("R(x,y), T(x)");
        let f = FrozenStructure::freeze(&base);
        let full = Target::from(&base).with_view(Some(&f));
        let plan = QueryPlan::compile(&p);
        let mut grown = base.clone();
        assert!(!plan.on(full.relabelled(&grown)).exists());
        grown.add_label(Node(1), Pred::T); // now T(x), T(y), R(x,y)
        assert!(plan.on(full.relabelled(&grown)).exists());
        assert_eq!(
            sorted(plan.on(&grown).find_up_to(100)),
            sorted(plan.on(full.relabelled(&grown)).find_up_to(100))
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
    #[should_panic(expected = "snapshot")]
    fn stale_index_is_rejected() {
        let t = st("R(x,y)");
        let idx = PredIndex::new(&t);
        let bigger = st("R(x,y), R(y,z)");
        let plan = QueryPlan::compile(&st("R(a,b)"));
        let _ = plan.on(Target::from(&bigger).with_index(&idx)).exists();
    }

    #[test]
    fn plan_matches_legacy_under_pins() {
        let p = st("F(a), R(a,b), R(b,c), T(c)");
        let t = st("F(x), R(x,y), R(y,z), T(z), R(x,z), T(y), F(y)");
        let plan = QueryPlan::compile(&p);
        for u in p.nodes() {
            for v in t.nodes() {
                let legacy = HomFinder::new(&p, &t).fix(u, v).exists();
                let planned = plan.on(&t).fix(u, v).exists();
                assert_eq!(legacy, planned, "pin n{} -> n{}", u.0, v.0);
                let legacy_f = HomFinder::new(&p, &t).forbid(u, v).exists();
                let planned_f = plan.on(&t).forbid(u, v).exists();
                assert_eq!(legacy_f, planned_f, "forbid n{} -> n{}", u.0, v.0);
            }
        }
    }
}
