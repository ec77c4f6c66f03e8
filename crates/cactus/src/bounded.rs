//! The Prop. 2 boundedness criterion with a finite horizon, and (foc).
//!
//! Prop. 2: for a 1-CQ `q`, `(Π_q, G)` is bounded iff there is `d < ω` such
//! that every `C ∈ 𝔎_q` contains a homomorphic image of some `C′ ∈ 𝔎_q` of
//! depth ≤ d; `(Σ_q, P)` is bounded iff additionally `h(r′) = r` can be
//! required (automatic when `q` is *focused*).
//!
//! `𝔎_q` is infinite, so a terminating check explores it to a finite
//! *horizon*: [`find_bound`] certifies “bounded with depth `d`, verified on
//! all cactuses of depth ≤ horizon”, or produces a concrete witness cactus
//! into which no small cactus maps — evidence of unboundedness at this
//! horizon. (The genuine decision problem is 2ExpTime-complete — Theorem 3 —
//! so a horizon is the honest laptop-scale substitute; for the classes where
//! the paper gives exact deciders, `sirup-classifier` implements those.)

use crate::cactus::Cactus;
use crate::enumerate::{enumerate_cactuses, enumerate_shapes, grow, Shape};
use sirup_core::fx::FxHashMap;
use sirup_core::{telemetry, OneCq};
use sirup_hom::QueryPlan;
use std::cell::OnceCell;

/// Parameters for the bounded-horizon Prop. 2 check.
#[derive(Debug, Clone, Copy)]
pub struct BoundSearch {
    /// Largest candidate depth bound `d` to try.
    pub max_d: u32,
    /// Check all cactuses up to this depth (must be > `max_d`).
    pub horizon: u32,
    /// Cap on the number of enumerated cactus shapes.
    pub cap: usize,
    /// Require `h(r′) = r` (the `(Σ_q, P)` variant of Prop. 2).
    pub sigma: bool,
}

impl Default for BoundSearch {
    fn default() -> Self {
        BoundSearch {
            max_d: 2,
            horizon: 4,
            cap: 4096,
            sigma: false,
        }
    }
}

/// Outcome of a bounded-horizon Prop. 2 check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Boundedness {
    /// Every enumerated cactus of depth ≤ horizon contains a homomorphic
    /// image of some cactus of depth ≤ `d` (and `d` is minimal with this
    /// property among those tried).
    BoundedEvidence {
        /// The depth bound.
        d: u32,
        /// How deep the evidence goes.
        horizon: u32,
    },
    /// For every `d ≤ max_d` some cactus of depth ≤ horizon admits no
    /// homomorphism from any cactus of depth ≤ d; `witness_depth` is the
    /// depth of the witness found for `d = max_d`.
    UnboundedEvidence {
        /// Depth of the witness cactus for the largest `d` tried.
        witness_depth: u32,
    },
    /// The shape cap was hit before the horizon; no verdict.
    Inconclusive,
}

/// Run the bounded-horizon Prop. 2 check for `(Π_q, G)` (or `(Σ_q, P)` with
/// `sigma = true`).
///
/// The cap is decided by counting shapes
/// ([`shape_count`](crate::enumerate::shape_count)), so past it the
/// check returns [`Boundedness::Inconclusive`] without building a cactus.
/// Otherwise each cactus, and each small cactus's search plan, is built on
/// first touch: a verdict settled at a small `d` never builds the deeper
/// shapes it does not read. Each (small, big) embedding is decided once and
/// replayed for every candidate bound that asks it again.
pub fn find_bound(q: &OneCq, params: BoundSearch) -> Boundedness {
    assert!(params.horizon > params.max_d, "horizon must exceed max_d");
    let (shapes, complete) = enumerate_shapes(q.span(), params.horizon, params.cap);
    if !complete {
        return Boundedness::Inconclusive;
    }
    let depths: Vec<u32> = shapes.iter().map(Shape::depth).collect();
    let cactuses: Vec<OnceCell<Cactus>> = shapes.iter().map(|_| OnceCell::new()).collect();
    let plans: Vec<OnceCell<QueryPlan>> = shapes.iter().map(|_| OnceCell::new()).collect();
    let root = Cactus::root(q);
    let cactus = |i: usize| cactuses[i].get_or_init(|| grow(root.clone(), &shapes[i]));
    let mut memo: FxHashMap<(usize, usize), bool> = FxHashMap::default();
    let mut maps_into = |small: usize, big: usize| {
        *memo.entry((small, big)).or_insert_with(|| {
            let plan = plans[small].get_or_init(|| QueryPlan::compile(cactus(small).structure()));
            embeds_planned(cactus(small), plan, cactus(big), params.sigma)
        })
    };
    'next_d: for d in 0..=params.max_d {
        let smalls: Vec<usize> = (0..shapes.len()).filter(|&i| depths[i] <= d).collect();
        for big in (0..shapes.len()).filter(|&i| depths[i] > d) {
            if !smalls.iter().any(|&small| maps_into(small, big)) {
                if d == params.max_d {
                    return Boundedness::UnboundedEvidence {
                        witness_depth: depths[big],
                    };
                }
                continue 'next_d;
            }
        }
        return Boundedness::BoundedEvidence {
            d,
            horizon: params.horizon,
        };
    }
    unreachable!("loop returns for d = max_d")
}

/// Does `small` map homomorphically into `big` (optionally with root-focus
/// fixed to root-focus)? `plan` is the compiled plan of `small.structure()`.
pub fn embeds_planned(small: &Cactus, plan: &QueryPlan, big: &Cactus, fix_root: bool) -> bool {
    telemetry::counter_add(telemetry::Counter::CactusEmbeds, 1);
    let exec = plan.on(big.structure());
    if fix_root {
        exec.fix(small.root_focus(), big.root_focus()).exists()
    } else {
        exec.exists()
    }
}

/// Check condition (foc) up to a horizon: for all enumerated cactuses
/// `C, C′` of depth ≤ horizon, every homomorphism `h : C → C′` maps
/// root-focus to root-focus. Returns `Some(true/false)` on a verdict, `None`
/// if the cap was hit.
pub fn is_focused_up_to(q: &OneCq, horizon: u32, cap: usize) -> Option<bool> {
    let (cactuses, complete) = enumerate_cactuses(q, horizon, cap);
    if !complete {
        return None;
    }
    for c in &cactuses {
        // One compiled plan of `c` serves the whole inner loop.
        let plan = QueryPlan::compile(c.structure());
        for c2 in &cactuses {
            // A focus-violating hom exists iff one exists with h(r) ≠ r′.
            let violating = plan
                .on(c2.structure())
                .forbid(c.root_focus(), c2.root_focus())
                .exists();
            if violating {
                return Some(false);
            }
        }
    }
    Some(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A focused, bounded span-1 Λ-CQ exhibiting the q5 phenomenon of
    /// Example 4 (both (Π,G) and (Σ,P) bounded): the root focus has a twin
    /// sibling `w`, so the budded `T`-node's replacement always folds onto
    /// `w`. (The paper's exact q5 is reconstructed in `sirup-workloads`.)
    fn bounded_twin_cq() -> OneCq {
        OneCq::parse("F(x), R(x,y), T(y), R(x,w), T(w), F(w)")
    }

    /// An unfocused 1-CQ exhibiting the q6 phenomenon of Example 4:
    /// the twin `w` has the same out-pattern as the root focus `r` (both
    /// point at `t`), so homs between cactuses may send `r` to a twin —
    /// (Π,G) stays bounded while (Σ,P) is unbounded.
    fn unfocused_cq() -> OneCq {
        OneCq::parse("F(r), R(r,t), T(t), R(w,t), F(w), T(w)")
    }

    #[test]
    fn twin_sibling_cq_is_focused_and_bounded_both_ways() {
        let q = bounded_twin_cq();
        assert_eq!(q.span(), 1);
        assert_eq!(is_focused_up_to(&q, 3, 1000), Some(true));
        let pi = find_bound(
            &q,
            BoundSearch {
                max_d: 2,
                horizon: 5,
                cap: 4096,
                sigma: false,
            },
        );
        // Every cactus contains a hom image of C0 = q itself (the budded
        // T-node folds onto the twin w), so the bound is d = 0.
        assert_eq!(pi, Boundedness::BoundedEvidence { d: 0, horizon: 5 });
        let sigma = find_bound(
            &q,
            BoundSearch {
                max_d: 2,
                horizon: 5,
                cap: 4096,
                sigma: true,
            },
        );
        assert_eq!(sigma, Boundedness::BoundedEvidence { d: 0, horizon: 5 });
    }

    #[test]
    fn unfocused_gap_between_pi_and_sigma() {
        let q = unfocused_cq();
        // A hom C0 → C1 sending r to the child twin exists: not focused.
        assert_eq!(is_focused_up_to(&q, 2, 1000), Some(false));
        // (Π, G) is bounded: q itself maps into every cactus.
        let pi = find_bound(
            &q,
            BoundSearch {
                max_d: 2,
                horizon: 5,
                cap: 4096,
                sigma: false,
            },
        );
        assert_eq!(pi, Boundedness::BoundedEvidence { d: 0, horizon: 5 });
        // (Σ, P) is not: fixing the root focus blocks every small image.
        let sigma = find_bound(
            &q,
            BoundSearch {
                max_d: 2,
                horizon: 5,
                cap: 4096,
                sigma: true,
            },
        );
        assert!(
            matches!(sigma, Boundedness::UnboundedEvidence { .. }),
            "{sigma:?}"
        );
    }

    #[test]
    fn span0_is_trivially_bounded() {
        let q = OneCq::parse("F(x), R(x,y)");
        let b = find_bound(
            &q,
            BoundSearch {
                max_d: 0,
                horizon: 1,
                cap: 16,
                sigma: false,
            },
        );
        assert_eq!(b, Boundedness::BoundedEvidence { d: 0, horizon: 1 });
    }

    #[test]
    fn plain_path_is_unbounded() {
        // q3-like 1-CQ: T(x), R(x,y), F(y) reversed into a 1-CQ with one
        // solitary F and one solitary T: F(x), R(x,y), T(y). Budding builds
        // ever longer A-chains with no short hom images: the classic
        // transitive-closure-style unbounded sirup.
        let q = OneCq::parse("F(x), R(x,y), T(y)");
        let b = find_bound(
            &q,
            BoundSearch {
                max_d: 2,
                horizon: 4,
                cap: 4096,
                sigma: false,
            },
        );
        assert!(matches!(b, Boundedness::UnboundedEvidence { .. }), "{b:?}");
    }

    #[test]
    fn cap_yields_inconclusive() {
        let q = OneCq::parse("F(x), R(x,y1), T(y1), S(x,y2), T(y2)");
        let b = find_bound(
            &q,
            BoundSearch {
                max_d: 1,
                horizon: 3,
                cap: 10,
                sigma: false,
            },
        );
        assert_eq!(b, Boundedness::Inconclusive);
    }

    #[test]
    #[should_panic(expected = "horizon must exceed max_d")]
    fn horizon_must_exceed_max_d() {
        let q = OneCq::parse("F(x), R(x,y), T(y)");
        let _ = find_bound(
            &q,
            BoundSearch {
                max_d: 2,
                horizon: 2,
                cap: 10,
                sigma: false,
            },
        );
    }
}
