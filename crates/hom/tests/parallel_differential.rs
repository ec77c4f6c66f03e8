//! Differential proptests for the **parallel** plan executor: with a
//! [`ParCtx`] attached, `exists` splits the root domain into cancellable
//! chunks and `find_up_to` merges per-chunk buffers in chunk order — both
//! must agree with the sequential executor (the oracle, kept unchanged)
//! **bit for bit**, at 1, 2, 4 and 8 workers. The enumeration comparison is
//! exact-sequence equality, not just set equality: chunk-ordered merging is
//! what makes parallel answers deterministic all the way up the stack.

use proptest::prelude::*;
use sirup_core::{Node, ParCtx, Pred, PredIndex, Scheduler, Structure, Target};
use sirup_hom::QueryPlan;
use std::sync::OnceLock;

/// One shared scheduler per swept worker count, built once for the whole
/// test binary (spawning threads per proptest case would dominate runtime).
fn schedulers() -> &'static Vec<Scheduler> {
    static S: OnceLock<Vec<Scheduler>> = OnceLock::new();
    S.get_or_init(|| [1usize, 2, 4, 8].into_iter().map(Scheduler::new).collect())
}

/// Threshold 2: any root domain with at least two candidates takes the
/// parallel path, so small random targets still exercise it.
const THRESHOLD: usize = 2;

/// Strategy: a random small structure with F/T/A labels and R/S edges.
fn arb_structure(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = Structure> {
    (2..=max_nodes).prop_flat_map(move |n| {
        let edges = proptest::collection::vec(((0..n), (0..n), prop::bool::ANY), 0..=max_edges);
        (
            edges,
            proptest::collection::vec(0..n, 0..=n),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Parallel enumeration reproduces the sequential sequence exactly —
    /// same homomorphisms, same order — at every worker count, plain and
    /// index-seeded.
    #[test]
    fn parallel_enumeration_is_bit_identical(
        p in arb_structure(4, 6),
        t in arb_structure(6, 12),
    ) {
        let plan = QueryPlan::compile(&p);
        let sequential = plan.on(&t).find_up_to(200_000);
        let idx = PredIndex::new(&t);
        for sched in schedulers() {
            let ctx = ParCtx::new(sched, THRESHOLD);
            let parallel = plan.on(Target::from(&t).with_par(Some(ctx))).find_up_to(200_000);
            prop_assert_eq!(
                &sequential, &parallel,
                "parallel enumeration diverged at {} workers", sched.workers()
            );
            let indexed = plan.on(Target::from(&t).with_index(&idx).with_par(Some(ctx))).find_up_to(200_000);
            prop_assert_eq!(
                &sequential, &indexed,
                "indexed parallel enumeration diverged at {} workers", sched.workers()
            );
        }
    }

    /// Parallel existence (early-cancel chunks) agrees with sequential,
    /// including under pins (singleton domains fall back to the sequential
    /// path via the threshold — agreement must hold regardless).
    #[test]
    fn parallel_exists_agrees(
        p in arb_structure(4, 6),
        t in arb_structure(6, 12),
    ) {
        let plan = QueryPlan::compile(&p);
        let sequential = plan.on(&t).exists();
        for sched in schedulers() {
            let ctx = ParCtx::new(sched, THRESHOLD);
            prop_assert_eq!(
                sequential,
                plan.on(Target::from(&t).with_par(Some(ctx))).exists(),
                "parallel exists diverged at {} workers", sched.workers()
            );
            for u in p.nodes().take(2) {
                for v in t.nodes().take(3) {
                    prop_assert_eq!(
                        plan.on(&t).fix(u, v).exists(),
                        plan.on(Target::from(&t).with_par(Some(ctx))).fix(u, v).exists(),
                        "pinned parallel exists diverged at {} workers", sched.workers()
                    );
                }
            }
        }
    }

    /// A capped parallel enumeration returns exactly the sequential
    /// `cap`-prefix (chunk-order merging + truncation).
    #[test]
    fn parallel_cap_prefix_is_exact(
        p in arb_structure(3, 5),
        t in arb_structure(6, 12),
        cap in 1usize..6,
    ) {
        let plan = QueryPlan::compile(&p);
        let sequential = plan.on(&t).find_up_to(cap);
        for sched in schedulers() {
            let ctx = ParCtx::new(sched, THRESHOLD);
            prop_assert_eq!(
                &sequential,
                &plan.on(Target::from(&t).with_par(Some(ctx))).find_up_to(cap),
                "cap-{} prefix diverged at {} workers", cap, sched.workers()
            );
        }
    }
}

/// The parallel path must actually engage (not silently fall back): a
/// domain above the threshold spawns subtasks on the scheduler.
#[test]
fn parallel_path_actually_splits() {
    let p = sirup_core::parse::st("T(a), R(a,b)");
    let mut t = Structure::with_nodes(64);
    for i in 0..63u32 {
        t.add_label(Node(i), Pred::T);
        t.add_edge(Pred::R, Node(i), Node(i + 1));
    }
    let plan = QueryPlan::compile(&p);
    let sched = Scheduler::new(2);
    let before = sched.stats().subtasks_spawned;
    let ctx = ParCtx::new(&sched, 2);
    assert!(plan.on(Target::from(&t).with_par(Some(ctx))).exists());
    let homs = plan
        .on(Target::from(&t).with_par(Some(ctx)))
        .find_up_to(10_000);
    assert_eq!(homs, plan.on(&t).find_up_to(10_000));
    assert!(
        sched.stats().subtasks_spawned > before,
        "ParCtx above threshold must fan out subtasks"
    );
}

#[test]
fn injective_and_forbid_modes_agree_in_parallel() {
    let p = sirup_core::parse::st("T(a), T(b)");
    let t = sirup_core::parse::st("T(x), T(y), T(z), R(x,y)");
    let plan = QueryPlan::compile(&p);
    for sched in schedulers() {
        let ctx = ParCtx::new(sched, THRESHOLD);
        assert_eq!(
            plan.on(&t).injective().find_up_to(1000),
            plan.on(Target::from(&t).with_par(Some(ctx)))
                .injective()
                .find_up_to(1000)
        );
        for v in t.nodes() {
            assert_eq!(
                plan.on(&t).forbid(Node(0), v).exists(),
                plan.on(Target::from(&t).with_par(Some(ctx)))
                    .forbid(Node(0), v)
                    .exists()
            );
        }
    }
}
