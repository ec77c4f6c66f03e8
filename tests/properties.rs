//! Property-based tests (proptest) over randomly generated structures,
//! exercising the core invariants listed in DESIGN.md.

use monadic_sirups::core::builder::GlueBuilder;
use monadic_sirups::core::{Node, Pred, Structure};
use monadic_sirups::hom::{core_of, is_minimal, QueryPlan};
use proptest::prelude::*;

/// Strategy: a random small structure with F/T/A labels and R/S edges.
fn arb_structure(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = Structure> {
    (2..=max_nodes).prop_flat_map(move |n| {
        let edges = proptest::collection::vec(((0..n), (0..n), prop::bool::ANY), 0..=max_edges);
        let labels = proptest::collection::vec(0..n, 0..=n);
        (edges, labels, proptest::collection::vec(0..n, 0..=n)).prop_map(
            move |(edges, t_labels, f_labels)| {
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
                s
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every hom found by the engine is a genuine homomorphism.
    #[test]
    fn found_homs_are_valid(
        p in arb_structure(4, 6),
        t in arb_structure(5, 10),
    ) {
        if let Some(h) = QueryPlan::compile(&p).on(&t).find() {
            prop_assert!(p.is_hom(&t, &h));
        }
    }

    /// Hom existence is closed under composition: p → t and t → u gives
    /// p → u.
    #[test]
    fn homs_compose(
        p in arb_structure(3, 4),
        t in arb_structure(4, 6),
        u in arb_structure(4, 6),
    ) {
        let p_plan = QueryPlan::compile(&p);
        if p_plan.on(&t).exists() && QueryPlan::compile(&t).on(&u).exists() {
            prop_assert!(p_plan.on(&u).exists());
        }
    }

    /// The core is minimal, hom-equivalent to the original, and idempotent.
    #[test]
    fn core_properties(s in arb_structure(5, 8)) {
        let (c, retraction) = core_of(&s);
        prop_assert!(is_minimal(&c));
        prop_assert!(s.is_hom(&c, &retraction));
        prop_assert!(QueryPlan::compile(&c).on(&s).exists());
        let (cc, _) = core_of(&c);
        prop_assert_eq!(cc.node_count(), c.node_count());
    }

    /// Identity is always among the enumerated endomorphisms.
    #[test]
    fn identity_endomorphism_enumerated(s in arb_structure(4, 6)) {
        let id: Vec<Node> = s.nodes().collect();
        let homs = QueryPlan::compile(&s).on(&s).find_up_to(50_000);
        prop_assert!(homs.contains(&id));
    }

    /// GlueBuilder quotient preserves atoms: every atom of each part
    /// appears (transported) in the glued result.
    #[test]
    fn gluing_preserves_atoms(a in arb_structure(4, 6), b in arb_structure(4, 6)) {
        let mut builder = GlueBuilder::new();
        let oa = builder.add(&a);
        let ob = builder.add(&b);
        builder.glue(Node(oa), Node(ob));
        let (g, map) = builder.finish();
        for (p, v) in a.unary_atoms() {
            prop_assert!(g.has_label(map[(oa + v.0) as usize], p));
        }
        for (p, u, v) in b.edges() {
            prop_assert!(g.has_edge(p, map[(ob + u.0) as usize], map[(ob + v.0) as usize]));
        }
    }
}

mod hom_props {
    use super::*;
    use monadic_sirups::core::OneCq;
    use monadic_sirups::hom::{find_isomorphism, isomorphic};
    use monadic_sirups::workloads::random::{random_ditree_cq, DitreeCqParams};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Taking the core is idempotent up to isomorphism: the core of a
        /// core is the core itself (not merely of equal size).
        #[test]
        fn core_of_core_idempotent(s in arb_structure(5, 8)) {
            let (c, _) = core_of(&s);
            let (cc, _) = core_of(&c);
            prop_assert!(isomorphic(&c, &cc), "core not idempotent: {c} vs {cc}");
        }

        /// Hom search is consistent with isomorphism: an explicit
        /// isomorphism is a valid hom in both directions, isomorphism is
        /// symmetric, and every structure is isomorphic to itself.
        #[test]
        fn hom_search_consistent_with_isomorphism(
            s in arb_structure(5, 8),
            t in arb_structure(5, 8),
        ) {
            prop_assert!(isomorphic(&s, &s));
            if let Some(f) = find_isomorphism(&s, &t) {
                prop_assert!(s.is_hom(&t, &f));
                prop_assert!(QueryPlan::compile(&s).on(&t).exists());
                prop_assert!(QueryPlan::compile(&t).on(&s).exists());
                prop_assert!(isomorphic(&t, &s), "isomorphism must be symmetric");
            }
        }

        /// `OneCq::parse` round-trips through `Display` up to isomorphism,
        /// preserving span and focus labelling.
        #[test]
        fn one_cq_parse_display_round_trip(
            seed in 0u64..10_000,
            nodes in 3usize..8,
            solitary_ts in 1usize..3,
        ) {
            let params = DitreeCqParams { nodes, solitary_ts, ..Default::default() };
            let q = random_ditree_cq(params, seed);
            // Generator misses are discarded (and retried), not counted as
            // vacuous passes.
            prop_assume!(q.is_some());
            let q = q.unwrap();
            let text = q.to_string();
            let back = OneCq::parse(&text);
            prop_assert!(
                isomorphic(q.structure(), back.structure()),
                "{q} vs {back}"
            );
            prop_assert_eq!(q.span(), back.span());
            prop_assert_eq!(q.twins().len(), back.twins().len());
        }
    }
}

mod disjunctive_props {
    use super::*;
    use monadic_sirups::core::program::{pi_q, DSirup};
    use monadic_sirups::core::OneCq;
    use monadic_sirups::engine::disjunctive::certain_answer_dsirup;
    use monadic_sirups::engine::eval::certain_answer_goal;
    use monadic_sirups::workloads::random::random_instance;

    /// Δ_q ≡ Π_q on random instances (the §2 equivalence), for a fixed
    /// span-1 1-CQ, driven by seeds for speed.
    #[test]
    fn delta_equals_pi_across_seeds() {
        let q = OneCq::parse("F(x), R(y,x), R(y,z), T(z)");
        let pi = pi_q(&q);
        for seed in 0..30 {
            let d = random_instance(7, 12, 0.6, 0.4, seed);
            assert_eq!(
                certain_answer_goal(&pi, &d),
                certain_answer_dsirup(&DSirup::new(q.structure().clone()), &d),
                "seed {seed}"
            );
        }
    }

    /// Monotonicity: adding a fact never flips 'yes' to 'no'.
    #[test]
    fn certain_answers_are_monotone() {
        let q = monadic_sirups::workloads::q3();
        for seed in 0..20 {
            let d = random_instance(6, 10, 0.6, 0.4, 100 + seed);
            let before = certain_answer_dsirup(&DSirup::new(q.clone()), &d);
            let mut d2 = d.clone();
            // Add a fresh disconnected T-node (harmless fact).
            let v = d2.add_node();
            d2.add_label(v, Pred::T);
            let after = certain_answer_dsirup(&DSirup::new(q.clone()), &d2);
            if before {
                assert!(after, "seed {seed}: adding a fact lost the answer");
            }
        }
    }
}

mod fo_props {
    use super::*;
    use monadic_sirups::engine::ucq::Ucq;
    use monadic_sirups::fo::transform::{from_prenex, is_nnf, simplify, to_nnf, to_prenex};
    use monadic_sirups::fo::{structure_to_cq, ucq_to_fo, Fo, Var};

    /// Strategy: a random FO sentence over variables v0..v2 with F/T labels
    /// and R edges, quantifier rank ≤ 3.
    fn arb_sentence() -> impl Strategy<Value = Fo> {
        let atom = prop_oneof![
            (0u32..3).prop_map(|v| Fo::Unary(Pred::F, Var(v))),
            (0u32..3).prop_map(|v| Fo::Unary(Pred::T, Var(v))),
            ((0u32..3), (0u32..3)).prop_map(|(a, b)| Fo::Binary(Pred::R, Var(a), Var(b))),
            ((0u32..3), (0u32..3)).prop_map(|(a, b)| Fo::Eq(Var(a), Var(b))),
        ];
        let open = atom.prop_recursive(3, 24, 3, |inner| {
            prop_oneof![
                inner.clone().prop_map(|f| f.negate()),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
                ((0u32..3), inner.clone()).prop_map(|(v, f)| Fo::exists(Var(v), f)),
                ((0u32..3), inner).prop_map(|(v, f)| Fo::forall(Var(v), f)),
            ]
        });
        // Close all free variables existentially.
        open.prop_map(|f| Fo::exists_all(f.free_vars(), f))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// NNF, simplification and prenex conversion preserve semantics.
        #[test]
        fn transforms_preserve_semantics(
            phi in arb_sentence(),
            d in arb_structure(4, 6),
        ) {
            let reference = phi.eval_sentence(&d);
            prop_assert_eq!(simplify(&phi).eval_sentence(&d), reference);
            let n = to_nnf(&phi);
            prop_assert!(is_nnf(&n));
            prop_assert_eq!(n.eval_sentence(&d), reference);
            let (prefix, matrix) = to_prenex(&n);
            prop_assert_eq!(matrix.quantifier_rank(), 0);
            prop_assert_eq!(from_prenex(&prefix, matrix).eval_sentence(&d), reference);
        }

        /// The CQ → FO translation agrees with hom-based evaluation.
        #[test]
        fn cq_translation_agrees_with_hom(
            p in arb_structure(3, 4),
            d in arb_structure(4, 8),
        ) {
            let phi = structure_to_cq(&p);
            prop_assert_eq!(phi.eval_sentence(&d), QueryPlan::compile(&p).on(&d).exists());
        }

        /// UCQ → FO agrees with the Ucq evaluator on Boolean unions.
        #[test]
        fn ucq_translation_agrees(
            p1 in arb_structure(3, 4),
            p2 in arb_structure(3, 4),
            d in arb_structure(4, 8),
        ) {
            let u = Ucq::boolean([p1, p2]);
            prop_assert_eq!(ucq_to_fo(&u).eval_sentence(&d), u.eval_boolean(&d));
        }
    }
}

mod linear_props {
    use super::*;
    use monadic_sirups::core::program::sigma_q;
    use monadic_sirups::core::OneCq;
    use monadic_sirups::engine::eval::certain_answers_unary;
    use monadic_sirups::engine::linear::LinearEvaluator;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The NL-style fact-graph evaluator agrees with semi-naive
        /// evaluation on arbitrary instances (A-labels added to make
        /// recursion reachable).
        #[test]
        fn linear_evaluator_agrees(d0 in arb_structure(5, 8), a_nodes in proptest::collection::vec(0usize..5, 0..5)) {
            let mut d = d0;
            for v in a_nodes {
                if v < d.node_count() {
                    d.add_label(Node(v as u32), Pred::A);
                }
            }
            let q = OneCq::parse("F(x), R(y,x), R(y,z), T(z)");
            let sigma = sigma_q(&q);
            let fast = LinearEvaluator::new(&sigma, &d).goal_nodes(Pred::P);
            let slow = certain_answers_unary(&sigma, &d);
            prop_assert_eq!(fast, slow);
        }
    }
}

mod containment_props {
    use super::*;
    use monadic_sirups::engine::containment::{
        cq_contained_in, minimise_ucq, ucq_contained_in, ucq_equivalent, unary_cq_contained_in,
    };
    use monadic_sirups::engine::ucq::Ucq;
    use monadic_sirups::hom::oracle::every_hom;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Minimisation preserves UCQ semantics (checked by containment
        /// both ways *and* by evaluation over independent instances).
        #[test]
        fn minimise_preserves_semantics(
            p1 in arb_structure(3, 4),
            p2 in arb_structure(3, 4),
            p3 in arb_structure(3, 4),
            d in arb_structure(4, 8),
        ) {
            let u = Ucq::boolean([p1, p2, p3]);
            let m = minimise_ucq(&u);
            prop_assert!(m.len() <= u.len());
            prop_assert!(ucq_equivalent(&u, &m));
            prop_assert_eq!(u.eval_boolean(&d), m.eval_boolean(&d));
        }

        /// Containment is sound w.r.t. evaluation: u ⊑ v and u holds on d
        /// imply v holds on d.
        #[test]
        fn containment_sound(
            p1 in arb_structure(3, 4),
            p2 in arb_structure(3, 4),
            d in arb_structure(4, 8),
        ) {
            let u = Ucq::boolean([p1]);
            let v = Ucq::boolean([p2]);
            if ucq_contained_in(&u, &v) && u.eval_boolean(&d) {
                prop_assert!(v.eval_boolean(&d));
            }
        }

        /// Chandra–Merlin containment agrees with the naive oracle:
        /// `a ⊑ b` iff some hom `b → a` exists, and with answer variables
        /// `(a, x) ⊑ (b, y)` iff some such hom sends `y` to `x`.
        #[test]
        fn containment_agrees_with_oracle(
            a in arb_structure(4, 6),
            b in arb_structure(3, 4),
        ) {
            let homs = every_hom(&b, &a);
            prop_assert_eq!(cq_contained_in(&a, &b), !homs.is_empty());
            for x in a.nodes() {
                for y in b.nodes() {
                    prop_assert_eq!(
                        unary_cq_contained_in(&a, x, &b, y),
                        homs.iter().any(|h| h[y.index()] == x),
                        "(a, {:?}) ⊑ (b, {:?}) diverged", x, y
                    );
                }
            }
        }
    }
}

mod serialisation_props {
    use super::*;
    use monadic_sirups::core::parse::{parse_structure, to_text};
    use monadic_sirups::hom::isomorphic;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The text format round-trips up to isomorphism (node names are
        /// regenerated, so only the shape is preserved — which is the
        /// contract: structures are CQs, defined up to variable renaming).
        #[test]
        fn text_round_trip(s in arb_structure(5, 8)) {
            let text = to_text(&s);
            // Structures with isolated unlabeled nodes lose them in the
            // atom-list format; restrict to the preserved fragment.
            let has_isolated = s
                .nodes()
                .any(|v| s.labels(v).is_empty() && s.out_degree(v) == 0 && s.in_degree(v) == 0);
            prop_assume!(!has_isolated);
            let (back, _) = parse_structure(&text).unwrap();
            prop_assert!(isomorphic(&s, &back), "{s} vs {back}");
        }
    }
}

mod budding_props {
    use super::*;
    use monadic_sirups::cactus::Cactus;
    use monadic_sirups::core::cq::{solitary_f, solitary_t};
    use monadic_sirups::core::OneCq;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random budding sequences keep the cactus invariants: exactly one
        /// solitary F (the root focus); A-count = number of buddings; node
        /// count = |q| + buddings·(|q| − 1); every unbudded slot carries T.
        #[test]
        fn random_budding_invariants(choices in proptest::collection::vec((0usize..8, 0usize..2), 0..6)) {
            let q = OneCq::parse("F(x), R(x,y1), T(y1), S(x,y2), T(y2)");
            let qn = q.structure().node_count();
            let mut c = Cactus::root(&q);
            let mut buds = 0usize;
            for (seg, slot) in choices {
                let seg = seg % c.segment_count();
                if c.can_bud(seg, slot) {
                    c = c.bud(seg, slot);
                    buds += 1;
                }
            }
            let s = c.structure();
            prop_assert_eq!(solitary_f(s).len(), 1);
            prop_assert_eq!(solitary_f(s)[0], c.root_focus());
            prop_assert_eq!(s.nodes_with_label(Pred::A).len(), buds);
            prop_assert_eq!(s.node_count(), qn + buds * (qn - 1));
            // Unbudded solitary-T slots: 2 per segment minus budded ones.
            prop_assert_eq!(solitary_t(s).len(), 2 * c.segment_count() - buds);
        }
    }
}

mod cactus_props {
    use monadic_sirups::cactus::enumerate::enumerate_cactuses;
    use monadic_sirups::core::cq::solitary_f;
    use monadic_sirups::core::program::pi_q;
    use monadic_sirups::core::OneCq;
    use monadic_sirups::engine::eval::certain_answer_goal;

    /// Prop. 1 sanity: `G ∈ Π_q(C)` for every cactus `C` of `q`; and every
    /// cactus has exactly one solitary F node (the root focus).
    #[test]
    fn every_cactus_satisfies_its_program() {
        for q in [
            OneCq::parse("F(x), R(y,x), R(y,z), T(z)"),
            monadic_sirups::workloads::q5(),
            monadic_sirups::workloads::paper::q2_cq(),
        ] {
            let pi = pi_q(&q);
            let (cs, _) = enumerate_cactuses(&q, 2, 200);
            for c in &cs {
                assert!(certain_answer_goal(&pi, c.structure()));
                assert_eq!(solitary_f(c.structure()).len(), 1);
                assert_eq!(solitary_f(c.structure())[0], c.root_focus());
            }
        }
    }

    /// Budding grows exactly one segment and keeps node bookkeeping right.
    #[test]
    fn budding_bookkeeping() {
        let q = monadic_sirups::workloads::paper::q2_cq();
        let (cs, complete) = enumerate_cactuses(&q, 2, 200);
        assert!(complete);
        for c in &cs {
            assert_eq!(
                c.segment_count(),
                c.skeleton().len(),
                "skeleton/segment mismatch"
            );
            for (i, seg) in c.segments().iter().enumerate() {
                if let Some((parent, slot)) = seg.parent {
                    assert!(parent < i, "parents precede children");
                    assert_eq!(c.segments()[parent].buds[slot], Some(i));
                }
            }
        }
    }
}
