//! `find_bound` against an eager oracle: build every cactus up to the
//! horizon, compile every small cactus, then run the Prop. 2 loop over the
//! candidate bounds `d`. The lazy check builds cactuses on first touch and
//! memoises embeddings; the whole `Boundedness` value (`d` and
//! `witness_depth` included) must be the same.

use sirup_cactus::bounded::embeds_planned;
use sirup_cactus::enumerate::shape_count;
use sirup_cactus::{enumerate_cactuses, find_bound, BoundSearch, Boundedness};
use sirup_core::OneCq;
use sirup_hom::QueryPlan;
use sirup_workloads::paper;
use sirup_workloads::random::{random_ditree_cq, DitreeCqParams};

/// The eager Prop. 2 check at a finite horizon.
fn eager_find_bound(q: &OneCq, params: BoundSearch) -> Boundedness {
    assert!(params.horizon > params.max_d);
    let (cactuses, complete) = enumerate_cactuses(q, params.horizon, params.cap);
    if !complete {
        return Boundedness::Inconclusive;
    }
    let plans: Vec<Option<QueryPlan>> = cactuses
        .iter()
        .map(|c| (c.depth() <= params.max_d).then(|| QueryPlan::compile(c.structure())))
        .collect();
    'next_d: for d in 0..=params.max_d {
        for big in cactuses.iter().filter(|c| c.depth() > d) {
            let image_found = cactuses
                .iter()
                .zip(&plans)
                .filter(|(small, _)| small.depth() <= d)
                .any(|(small, plan)| {
                    embeds_planned(small, plan.as_ref().unwrap(), big, params.sigma)
                });
            if !image_found {
                if d == params.max_d {
                    return Boundedness::UnboundedEvidence {
                        witness_depth: big.depth(),
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

/// `(max_d, horizon, cap)` triples checked for every CQ; the first three
/// are the ones a plan build and the library default use.
const PARAMS: &[(u32, u32, usize)] = &[(0, 1, 16), (1, 3, 600), (2, 4, 4096), (1, 2, 64)];

/// Check one CQ under every parameter triple, both ways, plus caps just
/// below and at the shape count. Returns the verdicts seen.
fn check(q: &OneCq) -> Vec<Boundedness> {
    let mut triples = PARAMS.to_vec();
    for &(max_d, horizon) in &[(0, 1), (1, 2), (1, 3)] {
        let n = shape_count(q.span(), horizon);
        if n <= 700 {
            triples.push((max_d, horizon, n));
            triples.push((max_d, horizon, n - 1));
        }
    }
    let mut seen = Vec::new();
    for (max_d, horizon, cap) in triples {
        for sigma in [false, true] {
            let params = BoundSearch {
                max_d,
                horizon,
                cap,
                sigma,
            };
            let lazy = find_bound(q, params);
            let eager = eager_find_bound(q, params);
            assert_eq!(lazy, eager, "{q} at {params:?}");
            seen.push(lazy);
        }
    }
    seen
}

#[test]
fn paper_cqs_agree_with_the_eager_check() {
    let cqs = [
        paper::q2_cq(),
        paper::q3_cq(),
        paper::q4_cq(),
        paper::q5(),
        paper::q6(),
        paper::q7(),
        paper::q8(),
        OneCq::parse("F(x), R(x,y), T(y)"),
        OneCq::parse("F(x), R(x,y)"),
        OneCq::parse("F(r), R(r,t), T(t), R(w,t), F(w), T(w)"),
        OneCq::parse("F(x), R(x,y1), T(y1), S(x,y2), T(y2)"),
    ];
    let seen: Vec<Boundedness> = cqs.iter().flat_map(check).collect();
    // q5 is bounded at d = 1, so the memo replays pairs across bounds.
    assert!(seen.contains(&Boundedness::BoundedEvidence { d: 1, horizon: 3 }));
}

#[test]
fn random_ditrees_agree_with_the_eager_check() {
    let mut seen = Vec::new();
    let mut count = 0;
    for (span, s_edge_prob, wanted) in [(1, 0.0, 150), (2, 0.3, 60)] {
        let params = DitreeCqParams {
            nodes: 7,
            solitary_ts: span,
            s_edge_prob,
            ..DitreeCqParams::default()
        };
        let mut found = 0;
        let mut seed = 40_000 * span as u64;
        while found < wanted {
            seed += 1;
            let Some(q) = random_ditree_cq(params, seed) else {
                continue;
            };
            assert_eq!(q.span(), span);
            seen.extend(check(&q));
            found += 1;
        }
        count += found;
    }
    assert!(count >= 200);
    // The corpus reaches every verdict, with more than one witness depth.
    assert!(seen
        .iter()
        .any(|b| matches!(b, Boundedness::BoundedEvidence { .. })));
    let witnesses: Vec<u32> = seen
        .iter()
        .filter_map(|b| match b {
            Boundedness::UnboundedEvidence { witness_depth } => Some(*witness_depth),
            _ => None,
        })
        .collect();
    assert!(
        witnesses.iter().any(|&w| w != witnesses[0]),
        "{witnesses:?}"
    );
    assert!(seen.contains(&Boundedness::Inconclusive));
}
