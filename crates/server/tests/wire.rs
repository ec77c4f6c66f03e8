//! Integration tests for the TCP front-end ([`sirup_server::wire`]) and
//! the write-ahead log behind it: protocol round trips over real sockets,
//! the panic-isolation guarantee (a poisoned request must not take the
//! daemon down), tail push, and full durable recovery — stop a daemon
//! after acknowledged mutations, reopen the same data directory, and the
//! catalog must equal the folded-ops oracle with per-instance sequence
//! numbers intact.

use sirup_core::parse::st;
use sirup_core::{FactOp, Node, OneCq, Pred, Structure};
use sirup_server::{
    Answer, Daemon, Query, Request, Server, ServerConfig, Wal, WireConfig, MAX_NODES,
};
use sirup_workloads::wire::{load_request, replay_over_wire, WireClient};
use sirup_workloads::{mixed_traffic, QueryKind, TrafficAction, TrafficParams};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sirup-wire-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn daemon(server: Server) -> Daemon {
    Daemon::start(Arc::new(server), WireConfig::default()).unwrap()
}

fn client(d: &Daemon) -> WireClient {
    WireClient::connect(d.addr()).unwrap()
}

#[test]
fn protocol_round_trips_over_a_socket() {
    let d = daemon(Server::with_defaults());
    let mut c = client(&d);
    assert_eq!(c.request("ping").unwrap(), "ok pong");

    let reply = c.request("load d 2\n+F(n0),+T(n1)\n+R(n0,n1)").unwrap();
    assert_eq!(reply, "ok loaded d nodes 2 atoms 3");
    assert_eq!(c.request("list").unwrap(), "ok instances d");

    // The paper's flagship sirup shape: F(x), R(x,y), T(y).
    let q = "query pi d = F(x), R(x,y), T(y)";
    assert_eq!(c.request(q).unwrap(), "answer bool true");
    // Sigma answers are the P-closure nodes: here only the T-labelled n1.
    assert_eq!(
        c.request("query sigma d = F(x), R(x,y), T(y)").unwrap(),
        "answer nodes n1"
    );

    // Retract the goal label; the answer flips; seq counts per instance.
    assert_eq!(
        c.request("mutate d = -T(n1)").unwrap(),
        "answer applied 1 seq 1"
    );
    assert_eq!(c.request(q).unwrap(), "answer bool false");
    assert_eq!(
        c.request("mutate d = +T(n1)").unwrap(),
        "answer applied 1 seq 2"
    );
    assert_eq!(c.request(q).unwrap(), "answer bool true");

    let stats = c.request("stats d").unwrap();
    assert!(
        stats.starts_with("ok stats d seq 2 nodes 2 unary 2 binary 1"),
        "unexpected stats reply: {stats}"
    );
    let dump = c.request("dump d").unwrap();
    let (head, body) = dump.split_once('\n').unwrap();
    assert_eq!(head, "ok dump d nodes 2 seq 2");
    assert_eq!(body, st("F(u), R(u,v), T(v)").to_string());

    // Errors are replies, not disconnects.
    assert!(c
        .request("query pi nosuch = F(x)")
        .unwrap()
        .starts_with("error "));
    assert!(c
        .request("mutate d = +T(bogus)")
        .unwrap()
        .starts_with("error "));
    assert!(c.request("frobnicate").unwrap().starts_with("error "));

    assert_eq!(c.request("remove d").unwrap(), "ok removed true");
    assert_eq!(c.request("remove d").unwrap(), "ok removed false");
}

/// Satellite hardening check: a request whose handler panics must poison
/// nothing — the same connection and fresh connections keep getting
/// answers. `__test_panic` is the deliberate crash hook.
#[test]
fn a_panicking_request_does_not_take_the_daemon_down() {
    let d = daemon(Server::with_defaults());
    let mut c = client(&d);
    c.request("load d 2\n+F(n0),+T(n1),+R(n0,n1)").unwrap();

    for _ in 0..3 {
        assert_eq!(
            c.request("__test_panic").unwrap(),
            "error internal: request handler panicked"
        );
    }
    // Same connection still answers — including paths through the shared
    // caches whose locks recover from poisoning.
    assert_eq!(
        c.request("query pi d = F(x), R(x,y), T(y)").unwrap(),
        "answer bool true"
    );
    assert_eq!(
        c.request("mutate d = -T(n1)").unwrap(),
        "answer applied 1 seq 1"
    );
    // And fresh connections are unaffected.
    let mut c2 = client(&d);
    assert_eq!(
        c2.request("query pi d = F(x), R(x,y), T(y)").unwrap(),
        "answer bool false"
    );
}

#[test]
fn tail_pushes_mutations_to_subscribers() {
    let d = daemon(Server::with_defaults());
    let mut watcher = client(&d);
    let mut writer = client(&d);
    writer.request("load d 2\n+F(n0),+R(n0,n1)").unwrap();

    assert_eq!(watcher.request("tail d").unwrap(), "ok tail d seq 0");
    writer.request("mutate d = +T(n1)").unwrap();
    writer.request("mutate d = -T(n1),+T(n0)").unwrap();

    watcher
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert_eq!(watcher.next_frame().unwrap().unwrap(), "op d 1 = +T(n1)");
    assert_eq!(
        watcher.next_frame().unwrap().unwrap(),
        "op d 2 = -T(n1),+T(n0)"
    );
}

/// The acceptance shape of the durability tentpole, in-process: mutate a
/// durable server over the wire, drop daemon and server without any clean
/// shutdown step, reopen the data directory, and the recovered catalog
/// must equal the folded-ops oracle — sequence numbers included.
#[test]
fn durable_server_recovers_wire_mutations_after_a_restart() {
    let dir = tmpdir("recover");
    let addr;
    {
        let server = Server::open_durable(ServerConfig::default(), &dir).unwrap();
        let d = daemon(server);
        addr = d.addr();
        let mut c = WireClient::connect(addr).unwrap();
        c.request("load a 3\n+F(n0),+R(n0,n1),+T(n1)").unwrap();
        c.request("load b 2\n+A(n0),+S(n0,n1)").unwrap();
        assert_eq!(
            c.request("mutate a = +T(n2),+R(n1,n2)").unwrap(),
            "answer applied 2 seq 1"
        );
        assert_eq!(
            c.request("mutate b = -A(n0)").unwrap(),
            "answer applied 1 seq 1"
        );
        assert_eq!(
            c.request("mutate a = -T(n1)").unwrap(),
            "answer applied 1 seq 2"
        );
        // No shutdown hook, no snapshot: the WAL alone carries the state.
    }
    let reopened = Server::open_durable(ServerConfig::default(), &dir).unwrap();
    let a = reopened.catalog().get("a").unwrap();
    let b = reopened.catalog().get("b").unwrap();
    // Folded-ops oracles: the loads plus every acknowledged mutation.
    let mut oracle_a = Structure::with_nodes(3);
    oracle_a.apply_all(&[
        FactOp::AddLabel(Pred::F, Node(0)),
        FactOp::AddEdge(Pred::R, Node(0), Node(1)),
        FactOp::AddLabel(Pred::T, Node(1)),
        FactOp::AddLabel(Pred::T, Node(2)),
        FactOp::AddEdge(Pred::R, Node(1), Node(2)),
        FactOp::RemoveLabel(Pred::T, Node(1)),
    ]);
    assert_eq!(a.data, oracle_a);
    assert_eq!(a.seq, 2, "per-instance seq must survive recovery");
    let mut oracle_b = Structure::with_nodes(2);
    oracle_b.apply_all(&[
        FactOp::AddLabel(Pred::A, Node(0)),
        FactOp::AddEdge(Pred::S, Node(0), Node(1)),
        FactOp::RemoveLabel(Pred::A, Node(0)),
    ]);
    assert_eq!(b.data, oracle_b);
    assert_eq!(b.seq, 1);
    // Recovery re-arms the sequence: the next mutation continues it.
    let out = reopened
        .catalog()
        .mutate("a", &[FactOp::AddLabel(Pred::T, Node(1))])
        .unwrap();
    assert_eq!(out.seq, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshot + compaction is transparent: state recovered through a
/// snapshot equals state recovered through the raw log.
#[test]
fn snapshot_compaction_is_transparent_to_recovery() {
    let dir = tmpdir("snap");
    {
        let server = Server::open_durable(ServerConfig::default(), &dir).unwrap();
        server.load_instance("d", st("F(u), R(u,v), T(v)")).unwrap();
        let d = daemon(server);
        let mut c = client(&d);
        c.request("mutate d = +T(n0)").unwrap();
        assert_eq!(c.request("snapshot").unwrap(), "ok snapshot");
        c.request("mutate d = -T(n0),+A(n1)").unwrap();
    }
    let reopened = Server::open_durable(ServerConfig::default(), &dir).unwrap();
    let inst = reopened.catalog().get("d").unwrap();
    let mut oracle = st("F(u), R(u,v), T(v)");
    oracle.apply_all(&[
        FactOp::AddLabel(Pred::T, Node(0)),
        FactOp::RemoveLabel(Pred::T, Node(0)),
        FactOp::AddLabel(Pred::A, Node(1)),
    ]);
    assert_eq!(inst.data, oracle);
    assert_eq!(inst.seq, 2, "seq must continue across the snapshot epoch");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A full generated workload replayed over TCP answers exactly like the
/// same requests evaluated in-process, one at a time — the wire layer adds
/// transport, not semantics. (The oracle is sequential [`Server::answer_one`],
/// not [`Server::replay`]: closed-loop replay batches requests, and queries
/// batched behind a mutation answer against their submission-time snapshot.)
#[test]
fn wire_replay_matches_in_process_replay() {
    let spec = mixed_traffic(
        TrafficParams {
            instances: 2,
            instance_nodes: 14,
            instance_edges: 24,
            requests: 60,
            mutation_ratio: 0.3,
            ..TrafficParams::default()
        },
        0xA11CE,
    );
    let d = daemon(Server::with_defaults());
    let wire_replies = replay_over_wire(&spec, &d.addr().to_string()).unwrap();
    assert_eq!(wire_replies.len(), spec.requests.len());

    let oracle = Server::with_defaults();
    for (name, data) in &spec.instances {
        oracle.load_instance(name.clone(), data.clone()).unwrap();
    }
    let rendered: Vec<String> = spec
        .requests
        .iter()
        .map(|r| {
            let query = match &r.action {
                TrafficAction::Query { kind, cq } => match kind {
                    QueryKind::PiGoal => Query::PiGoal(OneCq::new(cq.clone()).unwrap()),
                    QueryKind::SigmaAnswers => Query::SigmaAnswers(OneCq::new(cq.clone()).unwrap()),
                    QueryKind::Delta => Query::Delta {
                        cq: cq.clone(),
                        disjoint: false,
                    },
                    QueryKind::DeltaPlus => Query::Delta {
                        cq: cq.clone(),
                        disjoint: true,
                    },
                },
                TrafficAction::Mutate { ops } => {
                    let resp = oracle
                        .answer_one(&Request::mutation(ops.clone(), r.instance.clone()))
                        .unwrap();
                    let Answer::Applied { applied, seq } = resp.answer else {
                        panic!("mutation answered {:?}", resp.answer);
                    };
                    return format!("answer applied {applied} seq {seq}");
                }
            };
            let resp = oracle
                .answer_one(&Request::query(query, r.instance.clone()))
                .unwrap();
            match resp.answer {
                Answer::Bool(b) => format!("answer bool {b}"),
                Answer::Nodes(nodes) => {
                    let list: Vec<String> = nodes.iter().map(|n| format!("n{}", n.0)).collect();
                    format!("answer nodes {}", list.join(","))
                }
                Answer::Applied { .. } => unreachable!("query answered with Applied"),
            }
        })
        .collect();
    assert_eq!(
        wire_replies, rendered,
        "wire replay diverged from in-process replay"
    );

    // And the final wire-side catalog matches the folded oracle (checked
    // through the stats counters the protocol exposes).
    let mut c = client(&d);
    for (name, expected) in spec.final_instances() {
        let stats = c.request(&format!("stats {name}")).unwrap();
        let words: Vec<&str> = stats.split_whitespace().collect();
        assert_eq!(words[0..3], ["ok", "stats", name.as_str()], "{stats}");
        let field = |key: &str| -> usize {
            let at = words.iter().position(|w| *w == key).unwrap();
            words[at + 1].parse().unwrap()
        };
        assert_eq!(field("nodes"), expected.node_count(), "{name}: {stats}");
        assert_eq!(field("unary"), expected.label_count(), "{name}: {stats}");
        assert_eq!(field("binary"), expected.edge_count(), "{name}: {stats}");
    }
}

/// The telemetry surface over the wire: `metrics` returns a Prometheus
/// text exposition carrying the expected families (including the
/// per-(program, instance) table fed by this test's own traffic), and
/// `trace` returns rendered span trees — the daemon switches tracing on at
/// startup, so the request roots and their timed children are in the
/// rings.
#[test]
fn metrics_and_trace_verbs_expose_the_registry() {
    let d = daemon(Server::with_defaults());
    let mut c = client(&d);
    c.request("load telem 2\n+F(n0),+R(n0,n1),+T(n1)").unwrap();
    for _ in 0..4 {
        assert_eq!(
            c.request("query pi telem = F(x), R(x,y), T(y)").unwrap(),
            "answer bool true"
        );
    }
    assert_eq!(
        c.request("mutate telem = +A(n0)").unwrap(),
        "answer applied 1 seq 1"
    );

    let reply = c.request("metrics").unwrap();
    let (head, body) = reply.split_once('\n').unwrap();
    assert_eq!(head, "ok metrics");
    for needle in [
        "# TYPE sirup_requests_total counter",
        "sirup_scheduler_workers",
        "sirup_plan_compiles_total",
        "sirup_mutations_applied_total",
        "sirup_frame_decode_us_bucket{le=\"+Inf\"}",
        "instance=\"telem\"",
        "sirup_program_cardinality_total",
        "sirup_program_latency_us_bucket",
        "sirup_program_latency_p99_us",
        "sirup_plan_cache_hits_total",
        "sirup_answer_cache_misses_total",
    ] {
        assert!(body.contains(needle), "metrics missing {needle}:\n{body}");
    }
    // The per-key table saw this test's traffic: 4 pi queries (however
    // they were served) and 1 mutation against `telem`.
    let telem_requests: u64 = body
        .lines()
        .filter(|l| {
            l.starts_with("sirup_program_requests_total{") && l.contains("instance=\"telem\"")
        })
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(telem_requests, 5, "per-key request count:\n{body}");

    // `trace 0` returns every recent root; each line parses as a span.
    let reply = c.request("trace 0").unwrap();
    let mut lines = reply.lines();
    let head = lines.next().unwrap();
    let n: usize = head.strip_prefix("ok trace ").unwrap().parse().unwrap();
    assert!(n >= 5, "expected at least this test's 5 roots: {head}");
    let spans: Vec<&str> = lines.collect();
    assert!(spans.iter().all(|l| l.starts_with("span id=")), "{reply}");
    assert!(
        spans
            .iter()
            .any(|l| l.contains("name=request") && l.contains("@ telem")),
        "no request root for telem:\n{reply}"
    );
    // An impossible threshold filters everything out.
    assert_eq!(c.request("trace 999999999").unwrap(), "ok trace 0");
    // A bad threshold is an error reply, not a disconnect.
    assert!(c.request("trace soon").unwrap().starts_with("error "));
}

/// Loads over the wire validate their declared node count.
#[test]
fn load_rejects_out_of_range_nodes_and_retracts() {
    let d = daemon(Server::with_defaults());
    let mut c = client(&d);
    assert!(c
        .request("load d 2\n+F(n5)")
        .unwrap()
        .starts_with("error load d: ops mention node n5"));
    assert!(c
        .request("load d 2\n-F(n0)")
        .unwrap()
        .starts_with("error load bodies are insert-only"));
    // The renderer and the parser agree on the format.
    let data = st("F(u), R(u,v), T(v)");
    let reply = c.request(&load_request("d", &data)).unwrap();
    assert_eq!(reply, "ok loaded d nodes 2 atoms 3");
}

/// Node counts above `MAX_NODES`, and node names at or past it, are
/// refused before anything is built or logged; the daemon keeps serving,
/// and a reopened WAL holds only what was acknowledged.
#[test]
fn oversized_node_counts_and_names_are_refused_and_never_logged() {
    let dir = tmpdir("oversized");
    {
        let server = Server::open_durable(ServerConfig::default(), &dir).unwrap();
        let d = daemon(server);
        let mut c = client(&d);
        assert_eq!(
            c.request("load a 2\n+F(n0),+R(n0,n1)").unwrap(),
            "ok loaded a nodes 2 atoms 2"
        );
        let requests = [
            "load x 4294967296".to_owned(),
            format!("load x {}", MAX_NODES + 1),
            format!("load x 2\n+T(n{MAX_NODES})"),
            "mutate a = +T(n4000000000)".to_owned(),
            format!("mutate a = +R(n0,n{MAX_NODES})"),
            format!("mutate a = -T(n{MAX_NODES})"),
        ];
        for req in &requests {
            let reply = c.request(req).unwrap();
            assert!(reply.starts_with("error "), "{req:?} got {reply:?}");
        }
        assert_eq!(c.request("ping").unwrap(), "ok pong");
        assert_eq!(c.request("list").unwrap(), "ok instances a");
    }
    let (_, recovered) = Wal::open(&dir).unwrap();
    let summary: Vec<(&str, usize, u64)> = recovered
        .iter()
        .map(|r| (r.name.as_str(), r.data.node_count(), r.seq))
        .collect();
    assert_eq!(summary, [("a", 2, 0)]);
    let _ = std::fs::remove_dir_all(&dir);
}
