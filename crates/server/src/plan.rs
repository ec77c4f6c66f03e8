//! Query plans and the plan cache.
//!
//! A [`Plan`] holds exactly what answering a program executes, none of
//! which depends on the data instance: the **compiled hom-search plans**
//! of its strategy (`sirup-hom::QueryPlan` — static variable order,
//! per-variable domain constraints, join programs), over the UCQ rewriting
//! (from `sirup-cactus`) when Prop. 2 boundedness evidence is found at the
//! configured horizon, and over the core of the CQ (from `sirup-hom`) for
//! disjunctive sirups. Building a plan costs cactus enumeration, hom
//! searches, and plan compilation; answering with one only *executes*
//! compiled plans. The [`PlanCache`] (LRU, keyed
//! by the query's canonical atom text) amortises all of that across every
//! request for the same program, so warm-path requests skip planning
//! entirely.
//!
//! Strategy routing, cheapest first:
//!
//! 1. **Rewriting** — bounded `Π`/`Σ` queries are answered by evaluating the
//!    depth-`d` UCQ rewriting against the instance's CSR view; no
//!    fixpoint at all.
//! 2. **Semi-naive** — unbounded (or unproven) `Π`/`Σ` queries run the
//!    `sirup-engine` fixpoint, candidate-seeded from the view's label rows.
//! 3. **DPLL** — disjunctive sirups run the labelling search over the *core*
//!    of `q` (hom-equivalent, so certain answers are unchanged — often
//!    strictly smaller, which shrinks every hom check in the search).
//!
//! Rewriting adoption is *evidence-based* (Prop. 2 at a finite horizon, the
//! honest laptop-scale substitute for the 2ExpTime decision — see
//! `sirup-cactus::bounded`); the differential test-suite pins the served
//! answers to the engine's on every path.

use crate::cache::StampedLru;
use crate::catalog::IndexedInstance;
use sirup_cactus::{find_bound, pi_rewriting, sigma_rewriting, BoundSearch, Boundedness};
use sirup_core::program::{pi_q, sigma_q, DSirup};
use sirup_core::telemetry;
use sirup_core::{Node, OneCq, Pred, Structure};
use sirup_engine::containment::minimise_ucq;
use sirup_engine::ucq::CompiledUcq;
use sirup_engine::{disjunctive, CompiledProgram};
use sirup_hom::{core_of, QueryPlan};

/// A certain-answer query the service can plan and execute.
#[derive(Debug, Clone)]
pub enum Query {
    /// Boolean certain answer to `(Π_q, G)`.
    PiGoal(OneCq),
    /// Unary certain answers to `(Σ_q, P)`.
    SigmaAnswers(OneCq),
    /// Boolean certain answer to `(Δ_q, G)` (`disjoint` adds rule (3)).
    Delta {
        /// The CQ of rule (2).
        cq: Structure,
        /// Include the disjointness constraint (`Δ⁺_q`).
        disjoint: bool,
    },
}

impl Query {
    /// The CQ underlying the query.
    pub fn cq(&self) -> &Structure {
        match self {
            Query::PiGoal(q) | Query::SigmaAnswers(q) => q.structure(),
            Query::Delta { cq, .. } => cq,
        }
    }

    /// Short kind name (`pi`, `sigma`, `delta`, `delta+`).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Query::PiGoal(_) => "pi",
            Query::SigmaAnswers(_) => "sigma",
            Query::Delta {
                disjoint: false, ..
            } => "delta",
            Query::Delta { disjoint: true, .. } => "delta+",
        }
    }

    /// Canonical cache key: kind plus the CQ's atom text. Two requests share
    /// a plan iff their keys are equal (syntactic identity; isomorphic but
    /// differently numbered CQs plan separately, which is sound).
    pub fn cache_key(&self) -> String {
        format!("{} {}", self.kind_name(), self.cq())
    }
}

/// The answer to a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// Boolean certain answer (`pi`, `delta`, `delta+`).
    Bool(bool),
    /// Unary certain answers, sorted by node (`sigma`).
    Nodes(Vec<Node>),
    /// Outcome of a mutation request: ops that changed the instance and the
    /// instance's new mutation sequence number (`0` with `applied == 0`
    /// means the instance vanished between validation and execution). The
    /// sequence is per-instance — the k-th mutation since the instance was
    /// loaded reports `seq == k` deterministically, whatever other traffic
    /// the catalog serves — and matches the WAL's durable numbering.
    Applied {
        /// Ops that changed the instance (set semantics).
        applied: usize,
        /// The instance's mutation sequence number after this batch.
        seq: u64,
    },
}

impl Answer {
    /// Result cardinality for telemetry: answer-set size for `sigma`,
    /// 0/1 for booleans, ops applied for mutations.
    pub fn cardinality(&self) -> u64 {
        match self {
            Answer::Bool(b) => *b as u64,
            Answer::Nodes(nodes) => nodes.len() as u64,
            Answer::Applied { applied, .. } => *applied as u64,
        }
    }
}

/// How a plan answers requests. Every variant carries its *compiled*
/// search artifacts (`sirup-hom` query plans), so the plan cache amortises
/// not just rewritings and cores but the whole hom-search compilation:
/// warm-path requests execute plans and never plan again.
#[derive(Debug, Clone)]
pub enum Strategy {
    /// Evaluate the depth-`d` UCQ rewriting (bounded queries).
    Rewriting {
        /// The (minimised) rewriting with each disjunct compiled to a
        /// query plan. The disjunct patterns remain reachable through the
        /// plans.
        compiled: CompiledUcq,
        /// The Prop. 2 depth at which it was extracted.
        depth: u32,
    },
    /// Run the semi-naive datalog fixpoint.
    SemiNaive {
        /// `Π_q` or `Σ_q` with every rule body compiled to a query plan.
        program: CompiledProgram,
    },
    /// Run the DPLL labelling search on the cored disjunctive sirup.
    Dpll {
        /// The d-sirup with `cq` replaced by its core.
        dsirup: DSirup,
        /// The compiled search plan of the cored CQ (boxed to keep the
        /// enum's variants comparably sized).
        plan: Box<QueryPlan>,
    },
}

impl Strategy {
    /// Stable short name for reports (`rewriting`, `semi-naive`, `dpll`).
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Rewriting { .. } => "rewriting",
            Strategy::SemiNaive { .. } => "semi-naive",
            Strategy::Dpll { .. } => "dpll",
        }
    }
}

/// Knobs for plan construction.
#[derive(Debug, Clone, Copy)]
pub struct PlanOptions {
    /// Largest Prop. 2 depth bound to certify.
    pub max_depth: u32,
    /// Horizon for boundedness evidence (must exceed `max_depth`).
    pub horizon: u32,
    /// Cactus-shape cap for enumeration (hit ⇒ fall back to the fixpoint).
    pub cap: usize,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            max_depth: 1,
            horizon: 3,
            cap: 600,
        }
    }
}

/// A fully built, instance-independent query plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The query's [`Query::cache_key`], rendered once at build time (the
    /// warm materialisation path probes per request and must not re-format
    /// the CQ every time).
    cache_key: String,
    /// The planned query.
    pub query: Query,
    /// The chosen evaluation strategy.
    pub strategy: Strategy,
}

impl Plan {
    /// The query's cache key, rendered once at build time (also the
    /// "program" label in telemetry's per-(program, instance) table).
    pub fn key(&self) -> &str {
        &self.cache_key
    }

    /// Build the plan for `query`.
    pub fn build(query: Query, opts: &PlanOptions) -> Plan {
        telemetry::counter_add(telemetry::Counter::PlanCompiles, 1);
        let _t = telemetry::timed(telemetry::Family::PlanCompile, "plan_compile");
        let cache_key = query.cache_key();
        let strategy = match &query {
            Query::PiGoal(q) | Query::SigmaAnswers(q) => {
                let sigma = matches!(query, Query::SigmaAnswers(_));
                let search = BoundSearch {
                    max_d: opts.max_depth,
                    horizon: opts.horizon,
                    cap: opts.cap,
                    sigma,
                };
                let rewriting = match find_bound(q, search) {
                    Boundedness::BoundedEvidence { d, .. } => if sigma {
                        sigma_rewriting(q, d, opts.cap)
                    } else {
                        pi_rewriting(q, d, opts.cap)
                    }
                    .map(|ucq| (minimise_ucq(&ucq), d)),
                    _ => None,
                };
                match rewriting {
                    Some((ucq, depth)) => Strategy::Rewriting {
                        compiled: ucq.compile(),
                        depth,
                    },
                    None => {
                        let program = if sigma { sigma_q(q) } else { pi_q(q) };
                        Strategy::SemiNaive {
                            program: CompiledProgram::new(&program),
                        }
                    }
                }
            }
            Query::Delta { cq, disjoint } => {
                // Coring is sound here: the DPLL search consults `q` only
                // through existence checks of `q`'s plan, which
                // hom-equivalence preserves.
                let dsirup = DSirup {
                    cq: core_of(cq).0,
                    disjoint: *disjoint,
                };
                let plan = Box::new(QueryPlan::compile(&dsirup.cq));
                Strategy::Dpll { dsirup, plan }
            }
        };
        Plan {
            cache_key,
            query,
            strategy,
        }
    }

    /// Answer the planned query over one catalog instance. Warm path: only
    /// compiled plans execute here — no search planning of any kind.
    ///
    /// Strategy interaction with the live-instance machinery:
    ///
    /// * **Rewriting** (bounded programs) answers straight from the
    ///   snapshot's read target ([`IndexedInstance::target`]: data and
    ///   CSR view) — the mutation fast
    ///   path: rewritten programs need no fixpoint, so mutations never pay
    ///   maintenance for them and a fresh snapshot answers correctly with
    ///   zero extra work.
    /// * **Semi-naive** answers from the snapshot's live
    ///   [`sirup_engine::MaterializedFixpoint`] for this program when
    ///   `materialise` is set, which is what the server always passes:
    ///   built on first use, carried forward *incrementally* by catalog
    ///   mutations, so repeated reads are lookups instead of fixpoint runs.
    ///   With `materialise` unset it evaluates the fixpoint from scratch
    ///   against the snapshot without attaching anything: the scratch
    ///   reference the differential suite compares the served answer
    ///   against. Π_q and Σ_q are datalog, so both compute the same least
    ///   fixpoint. Other strategies ignore the flag.
    /// * **DPLL** searches the labellings of the snapshot's data directly,
    ///   reading adjacency through the snapshot's CSR view.
    ///
    /// An optional [`ParCtx`](sirup_core::ParCtx) adds **intra-request
    /// parallelism**: it splits the strategy's heavy loops —
    /// rewriting disjuncts and answer sweeps, semi-naive delta checks and
    /// first materialisation builds, DPLL bound checks — into subtasks on
    /// the shared scheduler. `None` is the exact sequential path (the
    /// differential oracle); answers are identical either way.
    pub fn answer_routed(
        &self,
        inst: &IndexedInstance,
        par: Option<sirup_core::ParCtx<'_>>,
        materialise: bool,
    ) -> Answer {
        // Every direct-evaluation path reads through the snapshot's CSR
        // view. The instance is immutable, so full mode — labels included
        // — is sound everywhere; the materialised path reads the view only
        // to build its fixpoint and then maintains its own state.
        match (&self.strategy, &self.query) {
            (Strategy::Rewriting { compiled, .. }, Query::PiGoal(_)) => {
                Answer::Bool(compiled.eval_boolean(inst.target(par)))
            }
            (Strategy::Rewriting { compiled, .. }, Query::SigmaAnswers(_)) => {
                Answer::Nodes(compiled.answers(inst.target(par)))
            }
            (Strategy::SemiNaive { program }, Query::PiGoal(_)) => {
                if materialise {
                    Answer::Bool(self.materialization(program, inst, par).holds(Pred::GOAL))
                } else {
                    Answer::Bool(program.evaluate(inst.target(par)).holds(Pred::GOAL))
                }
            }
            (Strategy::SemiNaive { program }, Query::SigmaAnswers(_)) => {
                if materialise {
                    Answer::Nodes(self.materialization(program, inst, par).answers(Pred::P))
                } else {
                    Answer::Nodes(program.evaluate(inst.target(par)).answers(Pred::P).to_vec())
                }
            }
            (Strategy::Dpll { dsirup, plan }, Query::Delta { .. }) => Answer::Bool(
                disjunctive::certain_answer_dsirup_planned(dsirup, plan, inst.target(par)),
            ),
            _ => unreachable!("strategy/query kind mismatch"),
        }
    }

    /// The live materialisation of this plan's program over `inst`.
    fn materialization(
        &self,
        program: &CompiledProgram,
        inst: &IndexedInstance,
        par: Option<sirup_core::ParCtx<'_>>,
    ) -> std::sync::Arc<sirup_engine::MaterializedFixpoint> {
        // The build reads the snapshot's target, view included.
        inst.materialization(&self.cache_key, || {
            sirup_engine::MaterializedFixpoint::from_compiled(program.clone(), inst.target(par))
        })
    }
}

/// An LRU cache of built plans, keyed by [`Query::cache_key`].
#[derive(Debug)]
pub struct PlanCache {
    lru: StampedLru<std::sync::Arc<Plan>>,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (at least 1).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            lru: StampedLru::new(capacity.max(1)),
        }
    }

    /// Fetch the plan for `query`, building (and caching) it on a miss.
    /// The build runs outside the cache lock: plan construction runs
    /// cactus enumeration and hom searches, and must not serialise
    /// unrelated programs. Concurrent misses for the same key duplicate
    /// work harmlessly.
    pub fn get_or_build(&self, query: &Query, opts: &PlanOptions) -> std::sync::Arc<Plan> {
        self.get_or_build_keyed(&query.cache_key(), query, opts)
    }

    /// [`PlanCache::get_or_build`] for a caller that already holds
    /// `query.cache_key()` as `key`.
    pub(crate) fn get_or_build_keyed(
        &self,
        key: &str,
        query: &Query,
        opts: &PlanOptions,
    ) -> std::sync::Arc<Plan> {
        let _t = telemetry::timed(telemetry::Family::CacheLookup, "plan_cache_lookup");
        if let Some(plan) = self.lru.get(key) {
            return plan;
        }
        let plan = std::sync::Arc::new(Plan::build(query.clone(), opts));
        self.lru.insert(key.to_owned(), plan.clone());
        plan
    }

    /// The cached plan for `key`, if present (refreshes its LRU stamp and
    /// counts a hit/miss like any lookup).
    pub fn get(&self, key: &str) -> Option<std::sync::Arc<Plan>> {
        self.lru.get(key)
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        self.lru.stats()
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirup_core::parse::st;

    fn q5() -> OneCq {
        OneCq::parse("T(b), F(c), T(c), F(e), R(a,b), R(a,c), R(b,d), R(c,e), R(d,g)")
    }

    #[test]
    fn bounded_pi_plans_to_rewriting() {
        let plan = Plan::build(Query::PiGoal(q5()), &PlanOptions::default());
        assert_eq!(plan.strategy.name(), "rewriting");
    }

    #[test]
    fn unbounded_pi_plans_to_seminaive() {
        let q4 = OneCq::parse("F(x), R(y,x), R(y,z), T(z)");
        let plan = Plan::build(Query::PiGoal(q4.clone()), &PlanOptions::default());
        assert_eq!(plan.strategy.name(), "semi-naive");
        let sigma = Plan::build(Query::SigmaAnswers(q4), &PlanOptions::default());
        assert_eq!(sigma.strategy.name(), "semi-naive");
    }

    #[test]
    fn delta_plans_to_cored_dpll() {
        // Duplicated branches collapse in the core.
        let q = st("F(x), R(x,y1), T(y1), R(x,y2), T(y2)");
        let plan = Plan::build(
            Query::Delta {
                cq: q.clone(),
                disjoint: false,
            },
            &PlanOptions::default(),
        );
        let Strategy::Dpll { dsirup, .. } = &plan.strategy else {
            panic!("expected dpll");
        };
        assert!(dsirup.cq.node_count() < q.node_count());
    }

    #[test]
    fn cache_hits_and_lru_eviction() {
        let cache = PlanCache::new(2);
        let opts = PlanOptions::default();
        let qa = Query::Delta {
            cq: st("F(x), R(x,y), T(y)"),
            disjoint: false,
        };
        let qb = Query::Delta {
            cq: st("T(x), R(x,y), F(y)"),
            disjoint: false,
        };
        let qc = Query::Delta {
            cq: st("F(x), S(x,y), T(y)"),
            disjoint: false,
        };
        let a1 = cache.get_or_build(&qa, &opts);
        let a2 = cache.get_or_build(&qa, &opts);
        assert!(std::sync::Arc::ptr_eq(&a1, &a2));
        assert_eq!(cache.stats(), (1, 1));
        cache.get_or_build(&qb, &opts);
        // Touch qa so qb is the LRU victim when qc arrives.
        cache.get_or_build(&qa, &opts);
        cache.get_or_build(&qc, &opts);
        assert_eq!(cache.len(), 2);
        let (h0, m0) = cache.stats();
        cache.get_or_build(&qb, &opts); // evicted → miss (and this evicts qa)
        let (h1, m1) = cache.stats();
        assert_eq!(h1, h0);
        assert_eq!(m1, m0 + 1);
        cache.get_or_build(&qc, &opts); // still cached → hit
        assert_eq!(cache.stats().0, h1 + 1);
    }

    #[test]
    fn delta_plus_key_differs_from_delta() {
        let cq = st("F(x), R(x,y), T(y)");
        let d = Query::Delta {
            cq: cq.clone(),
            disjoint: false,
        };
        let dp = Query::Delta { cq, disjoint: true };
        assert_ne!(d.cache_key(), dp.cache_key());
        assert_eq!(d.kind_name(), "delta");
        assert_eq!(dp.kind_name(), "delta+");
    }
}
