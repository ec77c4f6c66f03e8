//! S1 — the service layer: batched throughput, thread scaling, plan cost.
//!
//! Measured shapes: (1) warm-cache batch submission scales with worker
//! threads (the batch executor actually parallelises); (2) a cold plan
//! build dwarfs a warm cache fetch (the cache pays for itself on the first
//! repeat); (3) closed-loop replay of the standing mixed workload — the
//! headline requests/second figure tracked in `BENCH_server.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sirup_bench::bench_opts;
use sirup_server::{PlanOptions, Query, ReplayMode, Request, Server, ServerConfig};
use sirup_workloads::paper;
use sirup_workloads::traffic::{mixed_traffic, TrafficParams};

fn spec_params(requests: usize) -> TrafficParams {
    TrafficParams {
        instances: 3,
        instance_nodes: 20,
        instance_edges: 32,
        requests,
        mean_gap_us: 0,
        random_cqs: 2,
        ..Default::default()
    }
}

fn server(threads: usize) -> Server {
    Server::new(ServerConfig {
        threads,
        plan_cache: 64,
        // Answer caching off: these points measure evaluation + executor
        // cost (and stay comparable with the pre-answer-cache baselines).
        answer_cache: 0,
        ..ServerConfig::default()
    })
}

fn server_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("server");
    bench_opts(&mut g);

    // Warm-cache batch submission at 1 / 2 / 4 worker threads.
    let spec = mixed_traffic(spec_params(96), 4242);
    for threads in [1usize, 2, 4] {
        let s = server(threads);
        // Load instances and warm every plan once, outside the timer.
        s.replay(&spec, ReplayMode::Closed).unwrap();
        let requests: Vec<Request> = spec
            .requests
            .iter()
            .map(|r| Request::from_traffic(r).unwrap())
            .collect();
        g.bench_with_input(
            BenchmarkId::new("submit_warm_96req", threads),
            &requests,
            |b, reqs| {
                b.iter(|| s.submit(reqs).unwrap());
            },
        );
    }

    // Telemetry overhead: the same warm batch at 4 threads with the
    // metrics registry switched off. The telemetry-spine acceptance bar is
    // <5% on/off overhead on this point; bench_check gates the ratio
    // within the run (noise-padded in quick mode) and the committed
    // BENCH_server.json records the demonstrated figure.
    {
        let s = server(4);
        s.replay(&spec, ReplayMode::Closed).unwrap();
        let requests: Vec<Request> = spec
            .requests
            .iter()
            .map(|r| Request::from_traffic(r).unwrap())
            .collect();
        sirup_core::telemetry::set_enabled(false);
        g.bench_with_input(
            BenchmarkId::new("submit_warm_96req_telemetry_off", 4),
            &requests,
            |b, reqs| {
                b.iter(|| s.submit(reqs).unwrap());
            },
        );
        sirup_core::telemetry::set_enabled(true);
    }

    // Cold plan build vs warm cache fetch for a bounded (rewriting) and an
    // unbounded (semi-naive) program.
    let q5 = Query::PiGoal(paper::q5());
    let q4 = Query::PiGoal(paper::q4_cq());
    for (name, query) in [
        ("plan_cold_q5_bounded", &q5),
        ("plan_cold_q4_unbounded", &q4),
    ] {
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| sirup_server::Plan::build(query.clone(), &PlanOptions::default()));
        });
    }
    {
        let s = server(4);
        s.load_instance("d1", paper::d1()).unwrap();
        let req = Request::query(q5.clone(), "d1");
        s.submit(std::slice::from_ref(&req)).unwrap(); // warm
        g.bench_function(BenchmarkId::from_parameter("plan_warm_fetch_q5"), |b| {
            b.iter(|| s.submit(std::slice::from_ref(&req)).unwrap());
        });
    }

    // Headline: closed-loop replay of the standing mixed workload (cache
    // warmed by a priming replay; instances loaded once).
    let s = server(4);
    s.replay(&spec, ReplayMode::Closed).unwrap();
    g.bench_function(BenchmarkId::from_parameter("replay_closed_96req_4t"), |b| {
        b.iter(|| s.replay(&spec, ReplayMode::Closed).unwrap());
    });

    g.finish();
}

criterion_group!(benches, server_throughput);
criterion_main!(benches);
