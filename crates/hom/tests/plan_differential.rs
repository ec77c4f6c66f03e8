//! Differential proptests: the compiled-plan executor (`QueryPlan`) is
//! pinned against the legacy backtracking search (`HomFinder`), which is
//! kept exactly for this oracle role. The two engines plan very differently
//! (static greedy order + join-driven candidates vs. dynamic MRV + forward
//! checking), so agreement on random CQ/instance pairs — full enumeration
//! as a *set*, existence, pins, exclusions, injectivity, index seeding — is
//! a strong check that plan compilation loses no answers.

use proptest::prelude::*;
use sirup_core::{Node, Pred, PredIndex, Structure, Target};
use sirup_hom::{all_homs, HomFinder, QueryPlan};

/// Strategy: a random small structure with F/T/A labels and R/S edges.
fn arb_structure(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = Structure> {
    (2..=max_nodes).prop_flat_map(move |n| {
        let edges = proptest::collection::vec(((0..n), (0..n), prop::bool::ANY), 0..=max_edges);
        let labels = proptest::collection::vec(0..n, 0..=n);
        (
            edges,
            labels,
            proptest::collection::vec(0..n, 0..=n),
            proptest::collection::vec(0..n, 0..=n),
        )
            .prop_map(move |(edges, t_labels, f_labels, a_labels)| {
                let mut s = Structure::with_nodes(n);
                for (u, v, use_s) in edges {
                    let p = if use_s { Pred::S } else { Pred::R };
                    s.add_edge(p, Node(u as u32), Node(v as u32));
                }
                for v in t_labels {
                    s.add_label(Node(v as u32), Pred::T);
                }
                for v in f_labels {
                    s.add_label(Node(v as u32), Pred::F);
                }
                for v in a_labels {
                    s.add_label(Node(v as u32), Pred::A);
                }
                s
            })
    })
}

fn sorted(mut homs: Vec<Vec<Node>>) -> Vec<Vec<Node>> {
    homs.sort();
    homs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Full enumeration agrees as a set of homomorphisms, with and without
    /// index-seeded domains.
    #[test]
    fn plan_enumeration_equals_legacy(
        p in arb_structure(4, 6),
        t in arb_structure(5, 10),
    ) {
        let plan = QueryPlan::compile(&p);
        let legacy = sorted(all_homs(&p, &t, 200_000));
        let planned = sorted(plan.on(&t).find_up_to(200_000));
        prop_assert_eq!(&legacy, &planned, "plain enumeration diverged");
        let idx = PredIndex::new(&t);
        let indexed = sorted(plan.on(Target::from(&t).with_index(&idx)).find_up_to(200_000));
        prop_assert_eq!(&legacy, &indexed, "indexed enumeration diverged");
        for h in &legacy {
            prop_assert!(p.is_hom(&t, h));
        }
    }

    /// Existence with pinned and forbidden assignments agrees for every
    /// (pattern node, target node) pair.
    #[test]
    fn plan_pins_and_forbids_equal_legacy(
        p in arb_structure(3, 5),
        t in arb_structure(4, 7),
    ) {
        let plan = QueryPlan::compile(&p);
        for u in p.nodes() {
            for v in t.nodes() {
                prop_assert_eq!(
                    HomFinder::new(&p, &t).fix(u, v).exists(),
                    plan.on(&t).fix(u, v).exists(),
                    "fix({:?}→{:?}) diverged", u, v
                );
                prop_assert_eq!(
                    HomFinder::new(&p, &t).forbid(u, v).exists(),
                    plan.on(&t).forbid(u, v).exists(),
                    "forbid({:?}→{:?}) diverged", u, v
                );
            }
        }
    }

    /// Injective enumeration agrees as a set.
    #[test]
    fn plan_injective_equals_legacy(
        p in arb_structure(3, 4),
        t in arb_structure(4, 7),
    ) {
        let plan = QueryPlan::compile(&p);
        let legacy = sorted(HomFinder::new(&p, &t).injective().find_up_to(200_000));
        let planned = sorted(plan.on(&t).injective().find_up_to(200_000));
        prop_assert_eq!(legacy, planned);
    }

    /// Compiling once and reusing across targets equals per-target legacy
    /// searches (the compile-once contract the whole stack relies on).
    #[test]
    fn one_compilation_serves_many_targets(
        p in arb_structure(3, 5),
        targets in proptest::collection::vec(arb_structure(4, 8), 1..=4),
    ) {
        let plan = QueryPlan::compile(&p);
        for t in &targets {
            prop_assert_eq!(
                sorted(all_homs(&p, t, 200_000)),
                sorted(plan.on(t).find_up_to(200_000))
            );
        }
    }
}
