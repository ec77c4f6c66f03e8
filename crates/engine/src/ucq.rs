//! Unions of conjunctive queries.
//!
//! FO-rewritings in the paper are (equivalent to) UCQs: Prop. 2 produces the
//! rewriting `∃(C_1 ∨ … ∨ C_m)` from the cactuses of depth ≤ d. A [`Ucq`]
//! is a disjunction of Boolean CQs evaluated by homomorphism, or — with a
//! distinguished free node per disjunct — a unary query.
//!
//! Evaluation runs on compiled query plans: [`Ucq::compile`] turns each
//! disjunct into a reusable [`QueryPlan`] ([`CompiledUcq`]); the convenience
//! `eval_*` methods on [`Ucq`] compile on the fly, long-lived callers (the
//! server's rewriting strategy) keep the [`CompiledUcq`].

use sirup_core::{arena, CancelToken, FrozenStructure, Node, Structure, Target};
use sirup_hom::QueryPlan;
use std::sync::atomic::{AtomicBool, Ordering};

/// A union of conjunctive queries. Each disjunct optionally has one free
/// (answer) variable.
#[derive(Debug, Clone, Default)]
pub struct Ucq {
    /// The disjuncts with their optional free node.
    pub disjuncts: Vec<(Structure, Option<Node>)>,
}

impl Ucq {
    /// A Boolean UCQ from disjunct structures.
    pub fn boolean(disjuncts: impl IntoIterator<Item = Structure>) -> Ucq {
        Ucq {
            disjuncts: disjuncts.into_iter().map(|s| (s, None)).collect(),
        }
    }

    /// A unary UCQ from (structure, free node) pairs.
    pub fn unary(disjuncts: impl IntoIterator<Item = (Structure, Node)>) -> Ucq {
        Ucq {
            disjuncts: disjuncts.into_iter().map(|(s, n)| (s, Some(n))).collect(),
        }
    }

    /// Number of disjuncts.
    pub fn len(&self) -> usize {
        self.disjuncts.len()
    }

    /// Is the UCQ empty (equivalent to `false`)?
    pub fn is_empty(&self) -> bool {
        self.disjuncts.is_empty()
    }

    /// Total atom count across disjuncts (rewriting size).
    pub fn size(&self) -> usize {
        self.disjuncts.iter().map(|(s, _)| s.size()).sum()
    }

    /// Compile every disjunct into a reusable query plan.
    pub fn compile(&self) -> CompiledUcq {
        CompiledUcq {
            disjuncts: self
                .disjuncts
                .iter()
                .map(|(s, free)| (QueryPlan::compile(s), *free))
                .collect(),
        }
    }

    /// One-shot evaluation: compile disjuncts lazily so the union
    /// short-circuits on the first matching disjunct without paying for
    /// the rest.
    fn eval_lazy(&self, t: Target<'_>, at: Option<Node>) -> bool {
        self.disjuncts.iter().any(|(s, free)| {
            let plan = QueryPlan::compile(s);
            let exec = plan.on(t);
            match (free, at) {
                (Some(x), Some(a)) => exec.fix(*x, a).exists(),
                _ => exec.exists(),
            }
        })
    }

    /// Boolean evaluation: does some disjunct embed into the target?
    pub fn eval_boolean<'a>(&self, target: impl Into<Target<'a>>) -> bool {
        self.eval_lazy(target.into(), None)
    }

    /// Unary evaluation at `a`: does some disjunct embed with its free node
    /// mapped to `a`? Boolean disjuncts count as matching any `a`.
    pub fn eval_at<'a>(&self, target: impl Into<Target<'a>>, a: Node) -> bool {
        self.eval_lazy(target.into(), Some(a))
    }

    /// All certain answers of a unary UCQ over the target (disjuncts
    /// compiled once, reused across all nodes; see [`CompiledUcq::answers`]).
    pub fn answers<'a>(&self, target: impl Into<Target<'a>>) -> Vec<Node> {
        self.compile().answers(target)
    }
}

/// A [`Ucq`] with each disjunct compiled into a [`QueryPlan`]. Build once
/// per rewriting (the server caches these inside its plans), evaluate
/// against any number of instances.
#[derive(Debug, Clone, Default)]
pub struct CompiledUcq {
    /// Compiled disjuncts with their optional free node.
    pub disjuncts: Vec<(QueryPlan, Option<Node>)>,
}

impl CompiledUcq {
    /// Boolean evaluation: does some disjunct embed into the target? With a
    /// parallel context, disjuncts evaluate **concurrently**, the first
    /// matching disjunct cancels the rest through a shared token (each
    /// disjunct's plan execution polls it per backtracking node), and every
    /// disjunct's own root domain may split further above the threshold.
    pub fn eval_boolean<'a>(&self, target: impl Into<Target<'a>>) -> bool {
        self.any_disjunct(target.into(), None)
    }

    /// Unary evaluation at `a`: does some disjunct embed with its free node
    /// mapped to `a`? Boolean disjuncts count as matching any `a`. Parallel
    /// as [`CompiledUcq::eval_boolean`].
    pub fn eval_at<'a>(&self, target: impl Into<Target<'a>>, a: Node) -> bool {
        self.any_disjunct(target.into(), Some(a))
    }

    /// Does some disjunct embed (with its free node fixed to `at`, if
    /// both are given)?
    fn any_disjunct(&self, t: Target<'_>, at: Option<Node>) -> bool {
        match t.par() {
            Some(ctx) if self.disjuncts.len() > 1 => {
                // One task per disjunct; the first hit cancels the rest.
                let token = CancelToken::new();
                let hit = AtomicBool::new(false);
                ctx.sched.scope(|s| {
                    for (plan, free) in &self.disjuncts {
                        let (token, hit) = (&token, &hit);
                        s.spawn(move || {
                            if token.is_cancelled() {
                                return;
                            }
                            let mut exec = plan.on(t).cancel_token(token);
                            if let (Some(x), Some(a)) = (free, at) {
                                exec = exec.fix(*x, a);
                            }
                            if exec.exists() {
                                hit.store(true, Ordering::Release);
                                token.cancel();
                            }
                        });
                    }
                });
                hit.load(Ordering::Acquire)
            }
            // Single disjunct: no disjunct-level fan-out, but the one
            // plan's root domain still splits.
            _ => self.disjuncts.iter().any(|(plan, free)| {
                let exec = plan.on(t);
                match (free, at) {
                    (Some(x), Some(a)) => exec.fix(*x, a).exists(),
                    _ => exec.exists(),
                }
            }),
        }
    }

    /// All certain answers over the target: every node at which
    /// [`CompiledUcq::eval_at`] holds, checked sequentially per node. When
    /// no view is attached and the data clears the freeze gate, one is
    /// built here and amortised over the whole sweep (the data is
    /// immutable for its duration, so full mode is sound). With a parallel
    /// context the candidate nodes are partitioned across the scheduler;
    /// per-chunk answer buffers merge in chunk order, so the (sorted)
    /// answer list is bit-identical to the sequential one.
    pub fn answers<'a>(&self, target: impl Into<Target<'a>>) -> Vec<Node> {
        let t = target.into();
        let own = match t.view() {
            Some(_) => None,
            None => FrozenStructure::freeze_if_large(t.data()),
        };
        let seq = t.with_view(own.as_ref()).with_par(None);
        let mut nodes = arena::take_node_vec();
        nodes.extend(t.data().nodes());
        let out = match t.par() {
            Some(ctx) if ctx.should_split(nodes.len()) => ctx
                .sched
                .map_chunks(&nodes, ctx.fanout(), |slice| {
                    slice
                        .iter()
                        .copied()
                        .filter(|&a| self.eval_at(seq, a))
                        .collect::<Vec<Node>>()
                })
                .into_iter()
                .flatten()
                .collect(),
            _ => nodes
                .iter()
                .copied()
                .filter(|&a| self.eval_at(seq, a))
                .collect(),
        };
        arena::put_node_vec(nodes);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirup_core::parse::{parse_structure, st};

    #[test]
    fn boolean_union_semantics() {
        let u = Ucq::boolean([st("F(x), R(x,y)"), st("T(x), S(x,y)")]);
        assert_eq!(u.len(), 2);
        assert!(u.eval_boolean(&st("T(a), S(a,b)")));
        assert!(u.eval_boolean(&st("F(a), R(a,b)")));
        assert!(!u.eval_boolean(&st("F(a), S(a,b)")));
    }

    #[test]
    fn unary_answers() {
        let (pat, pn) = parse_structure("R(x,y), T(y)").unwrap();
        let u = Ucq::unary([(pat, pn["x"])]);
        let (d, dn) = parse_structure("R(a,b), T(b), R(b,c)").unwrap();
        let ans = u.answers(&d);
        assert_eq!(ans, vec![dn["a"]]);
    }

    #[test]
    fn empty_ucq_is_false() {
        let u = Ucq::default();
        assert!(u.is_empty());
        assert!(!u.eval_boolean(&st("T(a)")));
        assert_eq!(u.size(), 0);
    }

    #[test]
    fn size_accumulates() {
        let u = Ucq::boolean([st("F(x), R(x,y)"), st("T(x)")]);
        assert_eq!(u.size(), 3);
    }
}
