//! A Π/Σ plan build past the shape cap falls back to semi-naive without
//! building a cactus: the cap is decided by counting shapes. The cactus
//! counters (`sirup_cactus_builds_total`, `sirup_cactus_embeds_total`) are
//! process-wide, so this is the only test in its binary.

use sirup_core::telemetry;
use sirup_core::OneCq;
use sirup_server::plan::{Plan, PlanOptions, Query};

fn cactus_counters() -> (u64, u64) {
    let snap = telemetry::snapshot();
    (
        snap.counter("sirup_cactus_builds_total"),
        snap.counter("sirup_cactus_embeds_total"),
    )
}

#[test]
fn a_span2_plan_past_the_cap_builds_no_cactus() {
    telemetry::set_enabled(true);
    let opts = PlanOptions::default();
    // 676 shapes of depth ≤ 3 at span 2, past the default cap of 600.
    let q = OneCq::parse("F(x), R(x,y1), T(y1), S(x,y2), T(y2)");
    for query in [Query::PiGoal(q.clone()), Query::SigmaAnswers(q)] {
        let before = cactus_counters();
        let plan = Plan::build(query, &opts);
        assert_eq!(plan.strategy.name(), "semi-naive");
        assert_eq!(cactus_counters(), before, "no cactus built or embedded");
    }

    // Below the cap the same counters move: q5 (span 1) is certified from
    // its cactuses and rewritten.
    let before = cactus_counters();
    let q5 = sirup_workloads::q5();
    let plan = Plan::build(Query::PiGoal(q5), &opts);
    assert_eq!(plan.strategy.name(), "rewriting");
    let after = cactus_counters();
    assert!(
        after.0 > before.0 && after.1 > before.1,
        "{before:?} → {after:?}"
    );
}
