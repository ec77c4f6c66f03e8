//! Differential proptests: the compiled-plan executor (`QueryPlan`) is
//! pinned against `sirup_hom::oracle`, a naive enumerator that tries every
//! target node for each pattern node in index order and checks each atom.
//! The oracle shares none of the plan's machinery (static greedy order,
//! domain seeding, AC-3, join-driven candidates), so agreement on random
//! CQ/instance pairs — full enumeration as a *set*, existence, pins,
//! exclusions, injectivity, view-row seeding — is a strong check that plan
//! compilation loses no answers and invents none. Pins, exclusions and
//! injectivity are filters over the oracle's complete list.

use proptest::prelude::*;
use sirup_core::{FrozenStructure, Node, NodeSet, Pred, Structure, Target};
use sirup_hom::oracle::every_hom;
use sirup_hom::QueryPlan;

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

/// Strategy: a target with 0–2 hub nodes carrying `R` edges to and from
/// every other node (optionally `T`-labelled), so that a pin's
/// neighbourhood can be larger than what seeding over the whole instance
/// reads and anchored seeding falls back.
fn arb_hub_target() -> impl Strategy<Value = Structure> {
    (arb_structure(6, 10), 0..3usize, prop::bool::ANY).prop_map(|(mut t, hubs, label)| {
        for _ in 0..hubs {
            let hub = t.add_node();
            for v in 0..hub.0 {
                t.add_edge(Pred::R, hub, Node(v));
                t.add_edge(Pred::R, Node(v), hub);
            }
            if label {
                t.add_label(hub, Pred::T);
            }
        }
        t
    })
}

/// Strategy: a random connected-or-not pattern of 2–4 nodes with 1–5
/// `R`/`S` edges and at most one `T` and one `F` label (sparse, so pinned
/// searches usually have answers), optionally with a disjoint
/// `R(a,b), T(b)` component appended, so that one component can be pinned
/// while the other is not.
fn arb_pattern() -> impl Strategy<Value = Structure> {
    (2..=4usize).prop_flat_map(|n| {
        (
            proptest::collection::vec(((0..n), (0..n), prop::bool::ANY), 1..=5),
            proptest::collection::vec(0..n, 0..=1),
            proptest::collection::vec(0..n, 0..=1),
            prop::bool::ANY,
        )
            .prop_map(move |(edges, t_label, f_label, split)| {
                let mut p = Structure::with_nodes(n);
                for (u, v, use_s) in edges {
                    let pred = if use_s { Pred::S } else { Pred::R };
                    p.add_edge(pred, Node(u as u32), Node(v as u32));
                }
                for v in t_label {
                    p.add_label(Node(v as u32), Pred::T);
                }
                for v in f_label {
                    p.add_label(Node(v as u32), Pred::F);
                }
                if split {
                    let a = p.add_node();
                    let b = p.add_node();
                    p.add_edge(Pred::R, a, b);
                    p.add_label(b, Pred::T);
                }
                p
            })
    })
}

fn sorted(mut homs: Vec<Vec<Node>>) -> Vec<Vec<Node>> {
    homs.sort();
    homs
}

/// Is `h` injective?
fn is_injective(h: &[Node]) -> bool {
    let mut image = h.to_vec();
    image.sort();
    image.dedup();
    image.len() == h.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Full enumeration agrees as a set of homomorphisms, with and without
    /// domains seeded from a view's rows.
    #[test]
    fn plan_enumeration_equals_oracle(
        p in arb_structure(4, 6),
        t in arb_structure(5, 10),
    ) {
        let plan = QueryPlan::compile(&p);
        let expect = every_hom(&p, &t);
        let planned = sorted(plan.on(&t).find_up_to(200_000));
        prop_assert_eq!(&expect, &planned, "plain enumeration diverged");
        let f = FrozenStructure::freeze(&t);
        let viewed = sorted(plan.on(Target::from(&t).with_view(Some(&f))).find_up_to(200_000));
        prop_assert_eq!(&expect, &viewed, "view-seeded enumeration diverged");
        for h in &expect {
            prop_assert!(p.is_hom(&t, h));
        }
    }

    /// Existence with pinned and forbidden assignments agrees for every
    /// (pattern node, target node) pair.
    #[test]
    fn plan_pins_and_forbids_equal_oracle(
        p in arb_structure(3, 5),
        t in arb_structure(4, 7),
    ) {
        let plan = QueryPlan::compile(&p);
        let homs = every_hom(&p, &t);
        for u in p.nodes() {
            for v in t.nodes() {
                prop_assert_eq!(
                    homs.iter().any(|h| h[u.index()] == v),
                    plan.on(&t).fix(u, v).exists(),
                    "fix({:?}→{:?}) diverged", u, v
                );
                prop_assert_eq!(
                    homs.iter().any(|h| h[u.index()] != v),
                    plan.on(&t).forbid(u, v).exists(),
                    "forbid({:?}→{:?}) diverged", u, v
                );
            }
        }
    }

    /// Injective enumeration agrees as a set.
    #[test]
    fn plan_injective_equals_oracle(
        p in arb_structure(3, 4),
        t in arb_structure(4, 7),
    ) {
        let plan = QueryPlan::compile(&p);
        let mut expect = every_hom(&p, &t);
        expect.retain(|h| is_injective(h));
        let planned = sorted(plan.on(&t).injective().find_up_to(200_000));
        prop_assert_eq!(expect, planned);
    }

    /// A `T`/`F` label-row overlay reads exactly like a live read of the
    /// copy of the data whose `T`/`F` labels are those rows — live and
    /// through a forced CSR view.
    #[test]
    fn label_row_overlay_equals_relabelled_copy(
        p in arb_structure(3, 5),
        t in arb_structure(5, 10),
        t_row in proptest::collection::vec(0..5usize, 0..=5),
        f_row in proptest::collection::vec(0..5usize, 0..=5),
    ) {
        let n = t.node_count();
        let mut copy = t.clone();
        let mut rows = [NodeSet::empty(n), NodeSet::empty(n)];
        for (row, (l, picks)) in rows.iter_mut().zip([(Pred::T, &t_row), (Pred::F, &f_row)]) {
            for v in t.nodes() {
                copy.remove_label(v, l);
            }
            for &v in picks.iter().filter(|&&v| v < n) {
                row.insert(Node(v as u32));
                copy.add_label(Node(v as u32), l);
            }
        }
        let overlay = [(Pred::T, &rows[0]), (Pred::F, &rows[1])];
        let plan = QueryPlan::compile(&p);
        let expect = every_hom(&p, &copy);
        prop_assert_eq!(&expect, &sorted(plan.on(Target::from(&copy)).find_up_to(200_000)));
        let f = FrozenStructure::freeze(&t);
        for (shape, base) in [
            ("live", Target::from(&t)),
            ("view", Target::from(&t).with_view(Some(&f))),
        ] {
            let got = sorted(plan.on(base.with_label_rows(&overlay)).find_up_to(200_000));
            prop_assert_eq!(&expect, &got, "{} overlay diverged", shape);
        }
    }

    /// Compiling once and reusing across targets equals per-target oracle
    /// enumerations (the compile-once contract the whole stack relies on).
    #[test]
    fn one_compilation_serves_many_targets(
        p in arb_structure(3, 5),
        targets in proptest::collection::vec(arb_structure(4, 8), 1..=4),
    ) {
        let plan = QueryPlan::compile(&p);
        for t in &targets {
            prop_assert_eq!(every_hom(&p, t), sorted(plan.on(t).find_up_to(200_000)));
        }
    }

    /// Pinned executions — a first pin swept over every target node, an
    /// optional second pin (possibly conflicting), an optional exclusion
    /// and injectivity — enumerate the oracle's set, and the
    /// `find_up_to(cap)` sequence is the same on every target shape:
    /// plain, view, and a `T`/`F` label-row overlay
    /// live, on the view, and on the view of a copy stripped of those
    /// labels. Hub targets make
    /// pins whose neighbourhood exceeds a universe seed, so the fall-back
    /// runs too.
    #[test]
    fn anchored_seeding_equals_oracle_on_every_target(
        p in arb_pattern(),
        t in arb_hub_target(),
        pinned in 0..8u32,
        raw_pins in proptest::collection::vec((0..8u32, 0..12u32), 0..=1),
        raw_forbid in proptest::collection::vec((0..8u32, 0..12u32), 0..=1),
        injective in prop::bool::ANY,
        cap in 1..6usize,
    ) {
        let (np, nt) = (p.node_count() as u32, t.node_count() as u32);
        let pick = |&(u, v): &(u32, u32)| (Node(u % np), Node(v % nt));
        let forbid: Vec<(Node, Node)> = raw_forbid.iter().map(pick).collect();
        let plan = QueryPlan::compile(&p);
        let f = FrozenStructure::freeze(&t);
        // `t` without its `T`/`F` labels: the rows restore them on its view.
        let mut stripped = t.clone();
        let mut rows = [NodeSet::empty(t.node_count()), NodeSet::empty(t.node_count())];
        for (row, l) in rows.iter_mut().zip([Pred::T, Pred::F]) {
            for v in t.nodes().filter(|&v| t.has_label(v, l)) {
                row.insert(v);
                stripped.remove_label(v, l);
            }
        }
        let sf = FrozenStructure::freeze(&stripped);
        let overlay = [(Pred::T, &rows[0]), (Pred::F, &rows[1])];
        let homs = every_hom(&p, &t);
        let shapes = [
            ("view", Target::from(&t).with_view(Some(&f))),
            ("stripped view + label rows", Target::from(&stripped).with_view(Some(&sf)).with_label_rows(&overlay)),
            ("label rows", Target::from(&t).with_view(Some(&f)).with_label_rows(&overlay)),
            ("live label rows", Target::from(&t).with_label_rows(&overlay)),
        ];
        for first in t.nodes() {
            let mut pins = vec![(Node(pinned % np), first)];
            pins.extend(raw_pins.iter().map(pick));
            let run = |target: Target, cap: usize| {
                let mut exec = plan.on(target);
                for &(u, v) in &pins {
                    exec = exec.fix(u, v);
                }
                for &(u, v) in &forbid {
                    exec = exec.forbid(u, v);
                }
                if injective {
                    exec = exec.injective();
                }
                exec.find_up_to(cap)
            };
            let expect: Vec<Vec<Node>> = homs
                .iter()
                .filter(|h| {
                    pins.iter().all(|&(u, v)| h[u.index()] == v)
                        && forbid.iter().all(|&(u, v)| h[u.index()] != v)
                        && (!injective || is_injective(h))
                })
                .cloned()
                .collect();
            prop_assert_eq!(&expect, &sorted(run(Target::from(&t), 200_000)), "set diverged");
            let plain = run(Target::from(&t), cap);
            for (shape, target) in shapes {
                prop_assert_eq!(&plain, &run(target, cap), "{} sequence diverged", shape);
            }
        }
    }
}
