//! End-to-end FO-rewritability runs: Prop. 2 rewriting extraction →
//! FO translation → SQL rendering → semantic verification against the
//! datalog engine (experiments E4/E5 continued through the `sirup-fo`
//! layer).

use monadic_sirups::cactus::enumerate::enumerate_cactuses;
use monadic_sirups::cactus::{find_bound, pi_rewriting, sigma_rewriting, BoundSearch, Boundedness};
use monadic_sirups::core::program::{pi_q, sigma_q};
use monadic_sirups::core::{OneCq, Structure};
use monadic_sirups::engine::containment::minimise_ucq;
use monadic_sirups::engine::eval::{certain_answer_goal, certain_answers_unary};
use monadic_sirups::fo::{
    render_sql, ucq_to_fo, verify_boolean_rewriting, verify_unary_rewriting, SqlDialect,
};
use monadic_sirups::workloads::random::random_instance;
use monadic_sirups::workloads::{q5, q8};

/// Instances for verification: random ones plus all small cactuses of `q`
/// (which must answer 'yes') and their mutations.
fn family(q: &OneCq, seeds: std::ops::Range<u64>) -> Vec<Structure> {
    let mut out: Vec<Structure> = seeds
        .map(|s| random_instance(7, 12, 0.6, 0.4, 9_000 + s))
        .collect();
    let (cs, _) = enumerate_cactuses(q, 2, 64);
    out.extend(cs.iter().map(|c| c.structure().clone()));
    out.extend(cs.iter().map(|c| c.degree_structure()));
    out
}

#[test]
fn q5_pi_rewriting_verifies_at_certified_depth() {
    let q = q5();
    // Prop. 2 evidence certifies depth 1 (Example 4).
    let b = find_bound(
        &q,
        BoundSearch {
            max_d: 2,
            horizon: 5,
            cap: 10_000,
            sigma: false,
        },
    );
    let Boundedness::BoundedEvidence { d, .. } = b else {
        panic!("q5 must be bounded: {b:?}");
    };
    let rewriting = pi_rewriting(&q, d, 10_000).unwrap();
    let pi = pi_q(&q);
    let fam = family(&q, 0..20);
    let n = verify_boolean_rewriting(&rewriting, |i| certain_answer_goal(&pi, i), fam.iter())
        .expect("certified rewriting must agree with the engine");
    assert_eq!(n, fam.len());
}

#[test]
fn q5_sigma_rewriting_verifies() {
    let q = q5();
    let rewriting = sigma_rewriting(&q, 1, 10_000).unwrap();
    let sigma = sigma_q(&q);
    let fam = family(&q, 20..32);
    verify_unary_rewriting(&rewriting, |i| certain_answers_unary(&sigma, i), fam.iter())
        .expect("q5 is focused and bounded: the Σ-rewriting must verify");
}

#[test]
fn q8_rewriting_verifies_at_depth_2() {
    let q = q8();
    let rewriting = pi_rewriting(&q, 2, 10_000).unwrap();
    let pi = pi_q(&q);
    let fam = family(&q, 32..44);
    verify_boolean_rewriting(&rewriting, |i| certain_answer_goal(&pi, i), fam.iter())
        .expect("Example 5: q8 rewrites at depth 2");
}

#[test]
fn unbounded_q4_rewriting_fails_with_a_cactus_witness() {
    // q4's sirup is unbounded: every finite-depth candidate misses a deeper
    // cactus. The verifier must find that witness.
    let q = OneCq::parse("F(x), R(y,x), R(y,z), T(z)");
    let rewriting = pi_rewriting(&q, 2, 10_000).unwrap();
    let pi = pi_q(&q);
    let deep = monadic_sirups::cactus::enumerate::full_cactus(&q, 4);
    let fam = [deep.structure().clone()];
    let err = verify_boolean_rewriting(&rewriting, |i| certain_answer_goal(&pi, i), fam.iter())
        .unwrap_err();
    assert!(err.reference, "engine must answer 'yes' on the deep cactus");
    assert!(!err.rewriting, "depth-2 rewriting must miss it");
}

#[test]
fn sql_rendering_of_zoo_rewritings_is_wellformed() {
    for q in [q5(), q8()] {
        let ucq = pi_rewriting(&q, 1, 10_000).unwrap();
        let sql = render_sql(&ucq, SqlDialect::Ansi);
        assert!(sql.ends_with(';'));
        let opens = sql.matches('(').count();
        let closes = sql.matches(')').count();
        assert_eq!(opens, closes, "unbalanced SQL: {sql}");
        assert!(sql.contains("EXISTS"));
        let ddl = monadic_sirups::fo::sql::render_schema(&ucq);
        assert!(ddl.contains("CREATE TABLE nodes"));
    }
}

#[test]
fn fo_translation_matches_hom_evaluation_on_random_instances() {
    let q = q5();
    let ucq = pi_rewriting(&q, 1, 10_000).unwrap();
    let phi = ucq_to_fo(&ucq);
    // Minimising drops redundant disjuncts, not the quantified variables
    // of the ones that remain.
    let minimised = ucq_to_fo(&minimise_ucq(&ucq));
    assert!(minimised.to_string().contains('∃'), "{minimised}");
    for seed in 0..25 {
        let d = random_instance(6, 10, 0.5, 0.4, 7_000 + seed);
        assert_eq!(
            ucq.eval_boolean(&d),
            phi.eval_sentence(&d),
            "seed {seed} on {d}"
        );
    }
}
