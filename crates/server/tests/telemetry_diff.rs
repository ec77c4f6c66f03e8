//! Telemetry must be observationally free: replaying the same workload
//! with the metrics registry on, off, and with span tracing enabled must
//! produce bit-identical answer streams. This is the acceptance gate for
//! instrumenting hot paths — a counter or span that changes an answer is
//! a bug, full stop.
//!
//! This lives in its own integration-test binary because it toggles the
//! **process-global** telemetry switches; sharing a process with tests
//! that assert monotone registry deltas would race them.

use sirup_core::telemetry;
use sirup_server::{Answer, ReplayMode, Server, ServerConfig};
use sirup_workloads::traffic::{parse_workload, TrafficSpec};

fn replay_answers(spec: &TrafficSpec) -> Vec<String> {
    let server = Server::new(ServerConfig {
        threads: 4,
        ..ServerConfig::default()
    });
    let report = server.replay(spec, ReplayMode::Closed).unwrap();
    report
        .answers
        .iter()
        .map(|a| match a {
            // Mutation stamps are deterministic sequence numbers,
            // so the full stream (not just query answers) must agree.
            Answer::Applied { applied, seq } => format!("Applied {applied} seq {seq}"),
            other => format!("{other:?}"),
        })
        .collect()
}

#[test]
fn answers_are_identical_with_telemetry_on_off_and_traced() {
    let specs = [
        include_str!("../../../workloads/mutations.sirupload"),
        include_str!("../../../workloads/obda.sirupload"),
    ]
    .map(|text| parse_workload(text).unwrap());

    for (i, spec) in specs.iter().enumerate() {
        telemetry::set_enabled(true);
        telemetry::set_tracing(false);
        let baseline = replay_answers(spec);
        assert!(!baseline.is_empty());

        telemetry::set_enabled(false);
        let disabled = replay_answers(spec);
        assert_eq!(baseline, disabled, "workload {i}: registry off diverged");

        telemetry::set_enabled(true);
        telemetry::set_tracing(true);
        let traced = replay_answers(spec);
        assert_eq!(baseline, traced, "workload {i}: tracing on diverged");
        telemetry::set_tracing(false);
    }

    // While here (same process, switches under our control): disabling the
    // registry really does stop the meters.
    telemetry::set_enabled(false);
    let before = telemetry::snapshot().counter("sirup_requests_total");
    let _ = replay_answers(&specs[0]);
    let after = telemetry::snapshot().counter("sirup_requests_total");
    assert_eq!(before, after, "disabled registry must not move");
    telemetry::set_enabled(true);
}
