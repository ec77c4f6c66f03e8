//! Subcommand implementations. Every command takes parsed [`Args`] and
//! returns the report it would print, so the whole CLI is unit-testable.

use crate::args::Kind::{Bool, Float, Int, List, Text};
use crate::args::{help_text, Args, Command, Flag};
use crate::dot::{skeleton_to_dot, structure_to_dot};
use sirup_cactus::{
    enumerate_cactuses, find_bound, is_focused_up_to, pi_rewriting, sigma_rewriting, BoundSearch,
    Boundedness, Cactus,
};
use sirup_classifier::{
    classify_delta_plus, classify_path_dsirup, classify_trichotomy, lambda_fo_rewritable,
    nl_hardness_condition, rewritability_bound, DitreeCqAnalysis, LambdaVerdict,
};
use sirup_core::cq::{solitary_f, solitary_t, twins};
use sirup_core::parse::parse_structure;
use sirup_core::shape::{is_dag, DitreeView};
use sirup_core::{OneCq, Structure};
use sirup_fo::{render_sql, ucq_to_fo, SqlDialect};
use sirup_schemaorg::SchemaOrgQuery;
use sirup_server::{
    Daemon, PlanOptions, ReplayMode, ReplayReport, Server, ServerConfig, WireConfig,
};
use sirup_workloads::traffic::{
    mixed_traffic, parse_workload, render_workload, QueryKind, TrafficAction, TrafficParams,
    TrafficRequest, TrafficSpec,
};
use sirup_workloads::wire::{
    load_request, mutate_request, query_request, replay_over_wire, WireClient,
};
use std::fmt;
use std::fmt::Write;

/// Errors surfaced to the user (exit code 1 with the message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Unknown subcommand.
    UnknownCommand(String),
    /// A required positional argument is missing.
    MissingArgument(&'static str),
    /// The CQ/instance text did not parse or validate.
    BadInput(String),
    /// A flag value is malformed.
    BadFlag(String),
    /// A workload file could not be read or parsed, or the service failed.
    Workload(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownCommand(c) => {
                write!(f, "unknown command {c:?} (try `sirupctl help`)")
            }
            CliError::MissingArgument(what) => write!(f, "missing argument: {what}"),
            CliError::BadInput(m) => write!(f, "bad input: {m}"),
            CliError::BadFlag(m) => write!(f, "{m}"),
            CliError::Workload(m) => write!(f, "workload: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Check a parsed command line against its table entry, then run it.
pub fn run(args: &Args) -> Result<String, CliError> {
    let spec = args.check()?;
    (spec.run)(args)
}

// Positionals and flags several table entries share.
const CQ: &[(&str, &str)] = &[("cq", "a CQ/structure as atom text")];
const FILE: &[(&str, &str)] = &[("file", "a .sirupload workload file")];
const SIGMA: Flag = Flag::of(
    "sigma",
    Bool,
    None,
    "use Σ_q (goal P) instead of Π_q (goal G)",
);
const CAP: Flag = Flag::of("cap", Int, Some("10000"), "cactus-shape cap");
const EMIT: Flag = Flag::of(
    "emit",
    Bool,
    None,
    "print the workload instead of running it",
);
const METRICS: Flag = Flag::of(
    "metrics",
    Bool,
    None,
    "append the registry's Prometheus text",
);
const CONNECT: Flag = Flag::of("connect", Text("ADDR"), None, "a `serve --listen` daemon");
const SEED: Flag = Flag::of("seed", Int, Some("1"), "random seed");

/// The flags that configure the in-process query service and its plans (a
/// [`ServerConfig`]), shared by every command
/// that runs one ([`Command::service`]).
#[rustfmt::skip]
pub static SERVICE: &[Flag] = &[
    Flag::of("threads", Int, Some("4"), "scheduler worker threads"),
    Flag::of("parallelism", Int, Some("1"), "intra-request fan-out (1 = sequential requests)"),
    Flag::of("par-threshold", Int, Some("64"), "smallest work set that is split"),
    Flag::of("plan-cache", Int, Some("64"), "plan-cache capacity"),
    Flag::of("answer-cache", Int, Some("256"), "answer-cache capacity (0 disables)"),
    Flag::of("open", Bool, None, "pace requests by their arrival offsets"),
    Flag::of("max-depth", Int, Some("1"), "largest Prop. 2 depth a plan certifies"),
    Flag::of("horizon", Int, None, "evidence horizon [default: --max-depth + 2]"),
    Flag::of("cap", Int, Some("600"), "cactus-shape cap of the evidence search"),
];

/// Every subcommand with its positionals, typed flags (defaults and help)
/// and handler. Parsing, `help` and the typed flag reads all read this
/// table, so a flag and its default exist in one place only.
#[rustfmt::skip]
pub static COMMANDS: &[Command] = &[
    Command { name: "parse", mode: None, positionals: CQ, flags: &[], service: false, run: cmd_parse,
        about: "validate a CQ; report shape, solitary nodes, twins" },
    Command { name: "classify", mode: None, positionals: CQ, flags: &[], service: false, run: cmd_classify,
        about: "run the §4 deciders (Cor. 8, Thm. 9, Thm. 11)" },
    Command { name: "plan", mode: None, positionals: CQ, flags: &[SIGMA], service: false, run: cmd_plan,
        about: "print the compiled hom-search plan of the CQ (variable order, domain\n\
                constraints, estimated fan-out) and of each rule body of Π_q / Σ_q" },
    Command { name: "bound", mode: None, positionals: CQ, service: false, run: cmd_bound,
        about: "Prop. 2 boundedness evidence at a finite horizon",
        flags: &[
            Flag::of("max-d", Int, Some("2"), "largest depth d to certify"),
            Flag::of("horizon", Int, None, "deepest cactus checked [default: --max-d + 2]"),
            CAP,
            SIGMA,
        ] },
    Command { name: "rewrite", mode: None, positionals: CQ, service: false, run: cmd_rewrite,
        about: "extract the candidate UCQ rewriting",
        flags: &[
            Flag::of("depth", Int, Some("1"), "cactus depth of the rewriting"),
            Flag::of("format", Text("ucq|fo|sql"), Some("ucq"), "output syntax"),
            SIGMA,
            Flag::of("minimise", Bool, None, "drop disjuncts contained in others"),
            CAP,
        ] },
    Command { name: "cactus", mode: None, positionals: CQ, service: false, run: cmd_cactus,
        about: "enumerate cactuses up to a depth",
        flags: &[
            Flag::of("depth", Int, Some("2"), "deepest cactus"),
            Flag::of("dot", Bool, None, "print the full cactus skeleton of that depth as DOT"),
            CAP,
        ] },
    Command { name: "dot", mode: None, positionals: &[("structure", "a structure as atom text")],
        flags: &[], service: false, run: cmd_dot, about: "Graphviz DOT of a structure" },
    Command { name: "program", mode: None, positionals: CQ, flags: &[], service: false, run: cmd_program,
        about: "print the programs Π_q and Σ_q (rules (5)–(7))" },
    Command { name: "schemaorg", mode: None, positionals: CQ, flags: &[], service: false, run: cmd_schemaorg,
        about: "the Δ'_q presentation (Prop. 5) in DL-Lite syntax" },
    Command { name: "schemaorg", mode: Some("traffic"), positionals: &[], service: true,
        run: cmd_schemaorg_traffic,
        about: "generate the Schema.org / OBDA workload instead: random instances pushed\n\
                through the Prop. 5 D ↦ D′ translation (the workloads/obda.sirupload generator)",
        flags: &[
            Flag::of("traffic", Bool, None, "select this mode"),
            Flag::of("instances", Int, Some("3"), "instances"),
            Flag::of("nodes", Int, Some("20"), "nodes per instance"),
            Flag::of("edges", Int, Some("36"), "edges per instance"),
            Flag::of("requests", Int, Some("24"), "requests"),
            Flag::of("gap-us", Int, Some("200"), "arrival gap between requests (µs)"),
            Flag::of("seed", Int, Some("5"), "random seed"),
            EMIT,
            METRICS,
        ] },
    Command { name: "serve", mode: Some("listen"), positionals: &[], service: true,
        run: cmd_serve_daemon,
        about: "run the TCP daemon: bind ADDR (e.g. 127.0.0.1:7407, or :0 for a free port),\n\
                print `listening <addr>`, and serve wire requests until killed",
        flags: &[
            Flag::of("listen", Text("ADDR"), None, "the address to bind"),
            Flag::of("data-dir", Text("DIR"), None, "durable: log every write to DIR/wal.log"),
            Flag::of("snapshot-every", Int, Some("0"), "compact the log after N logged mutations (0 = never)"),
        ] },
    Command { name: "serve", mode: Some("scaling"), positionals: &[], service: true,
        run: cmd_serve_scaling,
        about: "the parallel-scaling shape: one large instance under heavy queries\n\
                (the workloads/large.sirupload generator)",
        flags: &[
            Flag::of("scaling", Bool, None, "select this mode"),
            Flag::of("nodes", Int, Some("192"), "nodes of the instance"),
            Flag::of("requests", Int, Some("48"), "requests"),
            SEED,
            EMIT,
            METRICS,
        ] },
    Command { name: "serve", mode: Some("phases"), positionals: &[], service: true,
        run: cmd_serve_phases,
        about: "write-heavy → read-heavy → write-heavy traffic on one hot instance: a probe of\n\
                same-instance write hand-offs (the workloads/phases.sirupload generator)",
        flags: &[
            Flag::of("phases", Bool, None, "select this mode"),
            Flag::of("requests", Int, Some("24"), "requests per phase"),
            SEED,
            EMIT,
            METRICS,
        ] },
    Command { name: "serve", mode: None, positionals: &[], service: true, run: cmd_serve,
        about: "generate a mixed workload and run it through the query service",
        flags: &[
            Flag::of("requests", Int, Some("200"), "requests"),
            Flag::of("instances", Int, Some("4"), "instances"),
            Flag::of("nodes", Int, Some("24"), "nodes per instance"),
            Flag::of("edges", Int, Some("40"), "edges per instance"),
            Flag::of("gap-us", Int, Some("150"), "mean arrival gap between requests (µs)"),
            Flag::of("random-cqs", Int, Some("3"), "random CQs in the query pool"),
            Flag::of("mutation-ratio", Float, Some("0"), "share of insert/retract requests"),
            Flag::of("hot", Float, Some("0"), "skew towards one hot instance"),
            SEED,
            EMIT,
            METRICS,
        ] },
    Command { name: "replay", mode: Some("connect"), positionals: FILE, flags: &[CONNECT], service: false,
        run: cmd_replay_wire, about: "replay a workload over the wire against a running daemon" },
    Command { name: "replay", mode: None, positionals: FILE, service: true, run: cmd_replay,
        about: "replay a .sirupload workload (queries and mutations); report throughput,\n\
                mutation rate and p50/p99 latency",
        flags: &[
            Flag::of("threads-sweep", List, None, "replay once per worker count; print speedups"),
            Flag::of("dump-answers", Bool, None, "print only the answer stream (for determinism diffs)"),
            METRICS,
        ] },
    Command { name: "stats", mode: Some("connect"), positionals: &[], flags: &[CONNECT], service: false,
        run: cmd_stats_wire,
        about: "the registry snapshot below, scraped from a running daemon's `metrics`" },
    Command { name: "stats", mode: None, positionals: FILE, service: true, run: cmd_stats,
        about: "replay a workload, then dump each live instance (catalog version, sizes,\n\
                materialisations), the scheduler's counters and the telemetry registry",
        flags: &[Flag::of("instance", Text("NAME"), None, "dump only this instance")] },
    Command { name: "connect", mode: None, flags: &[], service: false, run: cmd_connect,
        positionals: &[("addr", "a daemon address"), ("request...", "a wire request (e.g. `ping`)")],
        about: "send one raw wire request (`ping`, `list`, `dump d`, …) and print the reply" },
    Command { name: "load", mode: None, flags: &[CONNECT], service: false, run: cmd_load,
        positionals: &[("name", "an instance name"), ("atoms|@file", "instance atoms (or @file)")],
        about: "load an instance on a running daemon" },
    Command { name: "query", mode: None, flags: &[CONNECT], service: false, run: cmd_query,
        positionals: &[("pi|sigma|delta|delta+", "a query kind"), ("instance", "an instance name"),
                       ("cq", "a CQ as atom text")],
        about: "ask a certain-answer query over the wire" },
    Command { name: "tail", mode: None, service: false, run: cmd_tail,
        positionals: &[("instance", "an instance name")],
        about: "print each `op <inst> <seq> = <ops>` mutation event pushed by the daemon",
        flags: &[CONNECT, Flag::of("count", Int, Some("0"), "exit after N events (0 = never)")] },
    Command { name: "top", mode: None, positionals: &[], service: false, run: cmd_top,
        about: "live per-(program, instance) table from the daemon's metrics",
        flags: &[
            CONNECT,
            Flag::of("count", Int, Some("1"), "polling rounds"),
            Flag::of("interval-ms", Int, Some("1000"), "pause between rounds"),
        ] },
    Command { name: "trace", mode: None, positionals: &[], service: false, run: cmd_trace,
        about: "span trees of recent requests, from the daemon's trace rings",
        flags: &[CONNECT, Flag::of("slow-ms", Int, Some("0"), "only requests at least this long")] },
    Command { name: "crash-check", mode: None, positionals: FILE, service: false, run: cmd_crash_check,
        about: "durability acceptance: SIGKILL a durable daemon child mid-stream, restart it\n\
                on the same data dir, and diff every instance against the folded-ops oracle",
        flags: &[Flag::of("kill-after", Int, Some("4"), "acknowledged mutations before the kill")] },
    Command { name: "zoo", mode: None, positionals: &[], flags: &[], service: false, run: cmd_zoo,
        about: "classify the paper's Example-1 CQs q1…q5" },
    Command { name: "help", mode: None, positionals: &[], flags: &[], service: false, run: |_| Ok(help_text()),
        about: "this text" },
];

fn structure_arg(args: &Args) -> Result<Structure, CliError> {
    parse_structure(&args.positional[0])
        .map(|(s, _)| s)
        .map_err(|e| CliError::BadInput(e.to_string()))
}

fn one_cq_arg(args: &Args) -> Result<OneCq, CliError> {
    let s = structure_arg(args)?;
    OneCq::new(s).map_err(|e| CliError::BadInput(e.to_string()))
}

/// `--<depth>` and `--horizon`, which defaults to two more and must exceed
/// it (`bound --max-d`, the service's `--max-depth`).
fn depth_and_horizon(args: &Args, depth: &str) -> Result<(u32, u32), CliError> {
    let d: u32 = args.get(depth)?;
    let horizon = args.get_opt("horizon")?.unwrap_or(d + 2);
    if horizon <= d {
        return Err(CliError::BadFlag(format!(
            "--horizon ({horizon}) must exceed --{depth} ({d})"
        )));
    }
    Ok((d, horizon))
}

fn bound_params(args: &Args) -> Result<BoundSearch, CliError> {
    let (max_d, horizon) = depth_and_horizon(args, "max-d")?;
    Ok(BoundSearch {
        max_d,
        horizon,
        cap: args.get("cap")?,
        sigma: args.flag_bool("sigma"),
    })
}

fn cmd_parse(args: &Args) -> Result<String, CliError> {
    let s = structure_arg(args)?;
    let mut out = String::new();
    writeln!(out, "atoms     : {s}").unwrap();
    writeln!(
        out,
        "size      : {} nodes, {} unary + {} binary atoms",
        s.node_count(),
        s.label_count(),
        s.edge_count()
    )
    .unwrap();
    let shape = if DitreeView::of(&s).is_some() {
        "ditree"
    } else if is_dag(&s) {
        "dag"
    } else {
        "cyclic digraph"
    };
    writeln!(out, "shape     : {shape}").unwrap();
    writeln!(
        out,
        "solitary F: {:?}",
        solitary_f(&s).iter().map(|v| v.0).collect::<Vec<_>>()
    )
    .unwrap();
    writeln!(
        out,
        "solitary T: {:?}",
        solitary_t(&s).iter().map(|v| v.0).collect::<Vec<_>>()
    )
    .unwrap();
    writeln!(
        out,
        "FT-twins  : {:?}",
        twins(&s).iter().map(|v| v.0).collect::<Vec<_>>()
    )
    .unwrap();
    match OneCq::new(s) {
        Ok(q) => writeln!(out, "1-CQ      : yes (span {})", q.span()).unwrap(),
        Err(e) => writeln!(out, "1-CQ      : no ({e})").unwrap(),
    }
    Ok(out)
}

fn cmd_classify(args: &Args) -> Result<String, CliError> {
    let s = structure_arg(args)?;
    let mut out = String::new();
    let bound = rewritability_bound(&s);
    writeln!(
        out,
        "[22] upper bound    : {bound:?} (data complexity in {})",
        bound.complexity_class()
    )
    .unwrap();
    match DitreeCqAnalysis::new(&s) {
        None => {
            writeln!(
                out,
                "not a ditree CQ with ≥1 solitary F and ≥1 solitary T; the §4 deciders need one"
            )
            .unwrap();
            writeln!(
                out,
                "(§3 applies to dag CQs, but deciding those is 2ExpTime-hard)"
            )
            .unwrap();
        }
        Some(a) => {
            writeln!(out, "quasi-symmetric    : {}", a.is_quasi_symmetric()).unwrap();
            writeln!(out, "minimal (core)     : {}", a.is_minimal()).unwrap();
            writeln!(out, "Theorem 7 condition: {:?}", nl_hardness_condition(&a)).unwrap();
            writeln!(out, "Corollary 8 (Δ⁺_q) : {:?}", classify_delta_plus(&a)).unwrap();
            match classify_trichotomy(&s) {
                Ok(c) => writeln!(out, "Theorem 11 (Δ_q)   : {c:?}").unwrap(),
                Err(e) => writeln!(out, "Theorem 11 (Δ_q)   : n/a ({e:?})").unwrap(),
            }
        }
    }
    if let Ok(path_class) = classify_path_dsirup(&s) {
        writeln!(out, "path classification: {path_class:?}").unwrap();
    }
    if let Ok(q) = OneCq::new(s) {
        let v = lambda_fo_rewritable(&q);
        if v != LambdaVerdict::NotLambda {
            writeln!(out, "Theorem 9 (Λ-CQ)   : {v:?}").unwrap();
        }
    }
    Ok(out)
}

fn cmd_plan(args: &Args) -> Result<String, CliError> {
    use sirup_engine::CompiledProgram;
    use sirup_hom::QueryPlan;
    let s = structure_arg(args)?;
    let mut out = String::new();
    writeln!(out, "CQ: {s}").unwrap();
    writeln!(out, "compiled plan (execution order):").unwrap();
    write!(out, "{}", QueryPlan::compile(&s).explain()).unwrap();
    let Ok(q) = OneCq::new(s) else {
        writeln!(out, "\n(not a 1-CQ: no Π_q / Σ_q rule plans)").unwrap();
        return Ok(out);
    };
    let (name, program) = if args.flag_bool("sigma") {
        ("Σ_q", sirup_core::program::sigma_q(&q))
    } else {
        ("Π_q", sirup_core::program::pi_q(&q))
    };
    let compiled = CompiledProgram::new(&program);
    writeln!(out, "\nrule-body plans of {name}:").unwrap();
    for (i, rule) in program.rules.iter().enumerate() {
        writeln!(out, "rule {i}: {rule}").unwrap();
        write!(out, "{}", compiled.rule_plan(i).explain()).unwrap();
    }
    Ok(out)
}

fn cmd_bound(args: &Args) -> Result<String, CliError> {
    let q = one_cq_arg(args)?;
    let params = bound_params(args)?;
    let mut out = String::new();
    let query_name = if params.sigma {
        "(Σ_q, P)"
    } else {
        "(Π_q, G)"
    };
    match is_focused_up_to(&q, params.horizon.min(3), params.cap) {
        Some(focused) => writeln!(
            out,
            "(foc) up to depth {}: {focused}",
            params.horizon.min(3)
        )
        .unwrap(),
        None => writeln!(out, "(foc): inconclusive (cap hit)").unwrap(),
    }
    match find_bound(&q, params) {
        Boundedness::BoundedEvidence { d, horizon } => writeln!(
            out,
            "{query_name}: bounded evidence — every cactus of depth ≤ {horizon} \
             contains a hom image of one of depth ≤ {d}"
        )
        .unwrap(),
        Boundedness::UnboundedEvidence { witness_depth } => writeln!(
            out,
            "{query_name}: UNBOUNDED evidence — a depth-{witness_depth} cactus admits no \
             hom from any cactus of depth ≤ {}",
            params.max_d
        )
        .unwrap(),
        Boundedness::Inconclusive => {
            writeln!(out, "{query_name}: inconclusive (shape cap hit)").unwrap()
        }
    }
    Ok(out)
}

fn cmd_rewrite(args: &Args) -> Result<String, CliError> {
    let q = one_cq_arg(args)?;
    let depth = args.get("depth")?;
    let cap = args.get("cap")?;
    let sigma = args.flag_bool("sigma");
    let raw = if sigma {
        sigma_rewriting(&q, depth, cap)
    } else {
        pi_rewriting(&q, depth, cap)
    }
    .ok_or_else(|| CliError::BadInput(format!("cactus cap {cap} hit at depth {depth}")))?;
    let minimised = args.flag_bool("minimise");
    let ucq = if minimised {
        sirup_engine::containment::minimise_ucq(&raw)
    } else {
        raw.clone()
    };
    let mut out = String::new();
    if minimised && ucq.len() < raw.len() {
        writeln!(
            out,
            "minimised: {} redundant disjunct(s) removed",
            raw.len() - ucq.len()
        )
        .unwrap();
    }
    writeln!(
        out,
        "candidate {} rewriting at depth {depth}: {} disjuncts, {} atoms",
        if sigma { "Σ" } else { "Π" },
        ucq.len(),
        ucq.size()
    )
    .unwrap();
    writeln!(
        out,
        "(a candidate is a genuine rewriting iff the query is bounded at this depth — \
         check with `sirupctl bound`)"
    )
    .unwrap();
    match args.get::<String>("format")?.as_str() {
        "ucq" => {
            for (i, (s, free)) in ucq.disjuncts.iter().enumerate() {
                match free {
                    Some(r) => writeln!(out, "  C{i} [answer n{}]: {s}", r.0).unwrap(),
                    None => writeln!(out, "  C{i}: {s}").unwrap(),
                }
            }
        }
        "fo" => {
            writeln!(out, "{}", ucq_to_fo(&ucq)).unwrap();
        }
        "sql" => {
            writeln!(out, "{}", render_sql(&ucq, SqlDialect::Ansi)).unwrap();
        }
        other => {
            return Err(CliError::BadFlag(format!(
                "--format expects ucq|fo|sql, got {other:?}"
            )))
        }
    }
    Ok(out)
}

fn cmd_cactus(args: &Args) -> Result<String, CliError> {
    let q = one_cq_arg(args)?;
    let depth = args.get("depth")?;
    let cap = args.get("cap")?;
    if args.flag_bool("dot") {
        let c = sirup_cactus::enumerate::full_cactus(&q, depth);
        return Ok(skeleton_to_dot(&c, &format!("full cactus depth {depth}")));
    }
    let (cs, complete) = enumerate_cactuses(&q, depth, cap);
    let mut out = String::new();
    if !complete {
        let n = sirup_cactus::enumerate::shape_count(q.span(), depth);
        writeln!(
            out,
            "cactuses of depth ≤ {depth}: {n} shapes exceed the cap {cap}; none built"
        )
        .unwrap();
        return Ok(out);
    }
    writeln!(out, "cactuses of depth ≤ {depth}: {}", cs.len()).unwrap();
    for d in 0..=depth {
        let at: Vec<&Cactus> = cs.iter().filter(|c| c.depth() == d).collect();
        let max_nodes = at
            .iter()
            .map(|c| c.structure().node_count())
            .max()
            .unwrap_or(0);
        writeln!(
            out,
            "  depth {d}: {} shapes, largest has {max_nodes} nodes",
            at.len()
        )
        .unwrap();
    }
    Ok(out)
}

fn cmd_dot(args: &Args) -> Result<String, CliError> {
    let s = structure_arg(args)?;
    Ok(structure_to_dot(&s, "structure"))
}

fn cmd_program(args: &Args) -> Result<String, CliError> {
    let q = one_cq_arg(args)?;
    let pi = sirup_core::program::pi_q(&q);
    let sigma = sirup_core::program::sigma_q(&q);
    let mut out = String::new();
    writeln!(out, "Π_q (rules (5)–(7)):").unwrap();
    writeln!(out, "{pi}").unwrap();
    writeln!(out).unwrap();
    writeln!(out, "Σ_q (rules (6)–(7)):").unwrap();
    writeln!(out, "{sigma}").unwrap();
    writeln!(
        out,
        "\nlinearity of Σ_q: {:?}",
        sirup_engine::linear::linearity(&sigma)
    )
    .unwrap();
    Ok(out)
}

fn cmd_schemaorg(args: &Args) -> Result<String, CliError> {
    let s = structure_arg(args)?;
    let q = SchemaOrgQuery::new(s);
    let mut out = String::new();
    writeln!(out, "Δ'_q presentation (Prop. 5), DL-Lite_bool syntax:").unwrap();
    writeln!(out, "{}", q.dl_lite_syntax()).unwrap();
    Ok(out)
}

/// `schemaorg --traffic`: generate the Schema.org / OBDA seed workload.
///
/// Instances are random `A`-covered structures pushed through the forward
/// `D ↦ D′` translation of Prop. 5, so they carry the `R'` range-covering
/// edges of the DL-Lite presentation. The stream cycles the four query
/// kinds over a small CQ pool and periodically mutates a covered `A`-atom
/// back in (exercising the disjunctive evaluator on the translated data).
/// The bundled `workloads/obda.sirupload` is this spec at its defaults
/// (`--emit` renders it).
fn cmd_schemaorg_traffic(args: &Args) -> Result<String, CliError> {
    use sirup_core::{FactOp, Node, Pred};
    use sirup_schemaorg::to_schemaorg_instance;
    use sirup_workloads::random::random_instance;
    let instances: usize = args.get("instances")?;
    let nodes: usize = args.get("nodes")?;
    let edges = args.get("edges")?;
    let requests = args.get("requests")?;
    let gap: u64 = args.get("gap-us")?;
    let seed: u64 = args.get("seed")?;
    if instances == 0 {
        return Err(CliError::BadFlag(
            "--traffic needs at least one instance".to_owned(),
        ));
    }
    let mut spec = TrafficSpec::default();
    for i in 0..instances {
        let d = random_instance(nodes, edges, 0.55, 0.35, seed + i as u64);
        spec.instances
            .push((format!("obda{i}"), to_schemaorg_instance(&d)));
    }
    let pool = [
        sirup_core::parse::st("T(x), R(x,y), F(y)"),
        sirup_core::parse::st("F(x), R(x,y), T(y)"),
        sirup_core::parse::st("T(x), R(x,y), R(y,z), F(z)"),
    ];
    let kinds = [
        QueryKind::Delta,
        QueryKind::SigmaAnswers,
        QueryKind::PiGoal,
        QueryKind::DeltaPlus,
    ];
    for r in 0..requests {
        let instance = format!("obda{}", r % instances);
        let action = if r % 6 == 5 {
            // Re-cover a node: the range axiom says every R'-range element
            // is T or F; an explicit A-atom makes it a branching point.
            TrafficAction::Mutate {
                ops: vec![FactOp::AddLabel(Pred::A, Node((r % nodes.max(1)) as u32))],
            }
        } else {
            TrafficAction::Query {
                kind: kinds[r % kinds.len()],
                cq: pool[r % pool.len()].clone(),
            }
        };
        spec.requests.push(TrafficRequest {
            action,
            instance,
            arrival_us: gap * r as u64,
        });
    }
    emit_or_run(&spec, args)
}

/// The shared [`SERVICE`] flags as a [`ServerConfig`].
fn config_from_flags(args: &Args) -> Result<ServerConfig, CliError> {
    let (max_depth, horizon) = depth_and_horizon(args, "max-depth")?;
    Ok(ServerConfig {
        threads: args.get("threads")?,
        parallelism: args.get("parallelism")?,
        par_threshold: args.get("par-threshold")?,
        plan_cache: args.get("plan-cache")?,
        answer_cache: args.get("answer-cache")?,
        plan: PlanOptions {
            max_depth,
            horizon,
            cap: args.get("cap")?,
        },
    })
}

/// `--open` paces requests by their arrival offsets; the mode's name.
fn replay_mode(args: &Args) -> (ReplayMode, &'static str) {
    if args.flag_bool("open") {
        (ReplayMode::Open, "open-loop")
    } else {
        (ReplayMode::Closed, "closed-loop")
    }
}

/// Replay `spec` on a fresh in-process server.
fn replay(
    spec: &TrafficSpec,
    args: &Args,
    config: ServerConfig,
) -> Result<(Server, ReplayReport), CliError> {
    let server = Server::new(config);
    let report = server
        .replay(spec, replay_mode(args).0)
        .map_err(|e| CliError::Workload(e.to_string()))?;
    Ok((server, report))
}

/// One wire request/reply round trip.
fn ask(client: &mut WireClient, request: &str) -> Result<String, CliError> {
    client
        .request(request)
        .map_err(|e| CliError::Workload(e.to_string()))
}

fn run_spec(spec: &TrafficSpec, args: &Args) -> Result<String, CliError> {
    let (server, report) = replay(spec, args, config_from_flags(args)?)?;
    let mut out = String::new();
    writeln!(
        out,
        "workload  : {} instance(s), {} request(s), {} mode",
        spec.instances.len(),
        spec.requests.len(),
        replay_mode(args).1
    )
    .unwrap();
    out.push_str(&report.summary());
    if args.flag_bool("metrics") {
        // Full registry exposition after the human summary — `replay
        // --metrics` is the scriptable way to scrape a one-shot run.
        out.push('\n');
        out.push_str(&server.metrics_text());
    }
    Ok(out)
}

/// `--emit` prints the generated workload; otherwise it runs in-process.
fn emit_or_run(spec: &TrafficSpec, args: &Args) -> Result<String, CliError> {
    if args.flag_bool("emit") {
        return Ok(render_workload(spec));
    }
    run_spec(spec, args)
}

/// `serve --scaling`: one large instance under a stream of heavy queries
/// (`--emit` generates the bundled workloads/large.sirupload).
fn cmd_serve_scaling(args: &Args) -> Result<String, CliError> {
    let spec = sirup_workloads::scaling_traffic(
        args.get("nodes")?,
        args.get("requests")?,
        args.get("seed")?,
    );
    emit_or_run(&spec, args)
}

/// `serve --phases`: one hot instance under write-heavy → read-heavy →
/// write-heavy traffic, which probes the ticket hand-off between writes
/// to one instance (`--emit` generates the bundled
/// workloads/phases.sirupload).
fn cmd_serve_phases(args: &Args) -> Result<String, CliError> {
    let spec = sirup_workloads::phase_traffic(args.get("requests")?, args.get("seed")?);
    emit_or_run(&spec, args)
}

fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let params = TrafficParams {
        instances: args.get("instances")?,
        instance_nodes: args.get("nodes")?,
        instance_edges: args.get("edges")?,
        requests: args.get("requests")?,
        mean_gap_us: args.get("gap-us")?,
        random_cqs: args.get("random-cqs")?,
        mutation_ratio: args.get("mutation-ratio")?,
        hot_weight: args.get("hot")?,
    };
    if !(0.0..=1.0).contains(&params.mutation_ratio) || !(0.0..=1.0).contains(&params.hot_weight) {
        return Err(CliError::BadFlag(
            "--mutation-ratio and --hot expect values in [0, 1]".to_owned(),
        ));
    }
    emit_or_run(&mixed_traffic(params, args.get("seed")?), args)
}

/// `replay <file> --connect ADDR`: one request per frame, strictly in
/// stream order, raw reply lines out.
fn cmd_replay_wire(args: &Args) -> Result<String, CliError> {
    let spec = workload_arg(args)?;
    let addr = args.flag("connect").expect("this entry's mode flag");
    let replies = replay_over_wire(&spec, addr)
        .map_err(|e| CliError::Workload(format!("wire replay against {addr}: {e}")))?;
    let mut out = String::new();
    for (i, r) in replies.iter().enumerate() {
        writeln!(out, "{i}: {r}").unwrap();
    }
    writeln!(out, "replayed {} request(s) over the wire", replies.len()).unwrap();
    Ok(out)
}

/// The workload file named by the first positional.
fn workload_arg(args: &Args) -> Result<TrafficSpec, CliError> {
    let path = &args.positional[0];
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Workload(format!("cannot read {path}: {e}")))?;
    parse_workload(&text).map_err(CliError::Workload)
}

fn cmd_replay(args: &Args) -> Result<String, CliError> {
    let spec = workload_arg(args)?;
    if let Some(list) = args.flag("threads-sweep") {
        // `Args::check` has parsed every entry as an integer.
        let counts: Vec<usize> = list
            .split(',')
            .filter_map(|n| n.trim().parse().ok())
            .collect();
        return cmd_threads_sweep(&spec, &counts, args);
    }
    if args.flag_bool("dump-answers") {
        // Answers only, one line per request — two runs of the same
        // workload must produce identical output (the CI determinism smoke
        // diffs them), so no timings or cache-temperature noise here.
        let (_, report) = replay(&spec, args, config_from_flags(args)?)?;
        let mut out = String::new();
        for (i, a) in report.answers.iter().enumerate() {
            match a {
                // Mutation stamps are per-instance sequence numbers fixed
                // by ticket order, so they are deterministic like every
                // query answer — the full stream diffs clean.
                sirup_server::Answer::Applied { applied, seq } => {
                    writeln!(out, "{i}: Applied {applied} seq {seq}").unwrap()
                }
                other => writeln!(out, "{i}: {other:?}").unwrap(),
            }
        }
        return Ok(out);
    }
    run_spec(&spec, args)
}

/// `replay <file> --threads-sweep 1,2,4,8`: replay the same workload once
/// per worker count and print a speedup table. Unless `--parallelism` is
/// given explicitly, intra-request parallelism follows the swept worker
/// count, so the sweep exercises the whole shared-scheduler stack.
fn cmd_threads_sweep(
    spec: &TrafficSpec,
    counts: &[usize],
    args: &Args,
) -> Result<String, CliError> {
    let mut out = String::new();
    writeln!(
        out,
        "threads-sweep over {} request(s), {} mode:",
        spec.requests.len(),
        replay_mode(args).1
    )
    .unwrap();
    writeln!(out, "threads   req/s      p95(µs)   speedup").unwrap();
    let mut base_rps: Option<f64> = None;
    for &t in counts {
        let mut config = config_from_flags(args)?;
        config.threads = t;
        if args.flag("parallelism").is_none() {
            config.parallelism = t;
        }
        let (_, report) = replay(spec, args, config)?;
        let rps = report.throughput();
        let speedup = rps / *base_rps.get_or_insert(rps);
        writeln!(
            out,
            "{t:>7}   {rps:>9.0}  {p95:>8}   {speedup:>6.2}x",
            p95 = report.latency.p95_us
        )
        .unwrap();
    }
    Ok(out)
}

/// `stats <file>`: replay a workload closed-loop, then dump each live
/// instance — catalog version, sizes, attached materialisations with their
/// derived-set sizes, derived nullary facts and ops applied.
fn cmd_stats(args: &Args) -> Result<String, CliError> {
    let spec = workload_arg(args)?;
    let (server, report) = replay(&spec, args, config_from_flags(args)?)?;
    let filter = args.flag("instance");
    let mut out = String::new();
    writeln!(
        out,
        "replayed {} request(s) ({} mutation(s), {} op(s) applied); live catalog:",
        report.total, report.mutations, report.mutation_ops_applied
    )
    .unwrap();
    let names = server.catalog().names();
    let mut shown = 0usize;
    for name in &names {
        if filter.is_some_and(|f| f != name) {
            continue;
        }
        let Some(stats) = server.instance_stats(name) else {
            continue;
        };
        shown += 1;
        writeln!(
            out,
            "\ninstance {name}: version {}, {} node(s), {} unary + {} binary atom(s)",
            stats.version, stats.nodes, stats.unary_atoms, stats.binary_atoms
        )
        .unwrap();
        writeln!(
            out,
            "  storage   : ~{} B retained, {}/{} page(s) shared with previous version ({:.1}%)",
            stats.cow.retained_bytes,
            stats.cow.shared_pages,
            stats.cow.pages,
            stats.cow.shared_ratio() * 100.0
        )
        .unwrap();
        // Retained vs live: how much of the retained storage is versioning
        // overhead (reclaimable by a version-GC pass at most), and how much
        // extra the snapshot's CSR view holds on top.
        writeln!(
            out,
            "  live      : ~{} B live facts (~{} B version overhead), csr snapshot ~{} B",
            stats.live_bytes,
            stats.cow.retained_bytes.saturating_sub(stats.live_bytes),
            stats.frozen_bytes
        )
        .unwrap();
        if stats.materializations.is_empty() {
            writeln!(out, "  (no live materialisations)").unwrap();
        }
        for (key, m) in &stats.materializations {
            let ext = m
                .extension_sizes
                .iter()
                .map(|(p, n)| format!("{p} {n}"))
                .collect::<Vec<_>>()
                .join(", ");
            let nullary = if m.nullary.is_empty() {
                "-".to_owned()
            } else {
                m.nullary
                    .iter()
                    .map(|p| p.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            writeln!(out, "  materialisation [{key}]").unwrap();
            writeln!(
                out,
                "    extensions: {ext}  nullary: {nullary}  ops applied: {}",
                m.ops_applied
            )
            .unwrap();
        }
    }
    if let Some(f) = filter {
        if shown == 0 {
            return Err(CliError::Workload(format!(
                "instance {f:?} not in the replayed catalog (have: {})",
                names.join(", ")
            )));
        }
    }
    let sched = server.scheduler_stats();
    writeln!(
        out,
        "\nscheduler: {} worker(s), {} job(s) spawned, {} subtask(s), {} steal(s), \
         max queue depth {}",
        sched.workers,
        sched.jobs_spawned,
        sched.subtasks_spawned,
        sched.steals,
        sched.max_queue_depth
    )
    .unwrap();
    let snap = server.telemetry_snapshot();
    out.push_str(&registry_section(
        snap.counter("sirup_requests_total"),
        sched.workers as u64,
        sched.steals,
        snap.counter("sirup_scheduler_parks_total"),
        sched.max_queue_depth,
        report.plan_cache,
        report.answer_cache,
        server.wal_stats(),
    ));
    Ok(out)
}

/// `stats --connect ADDR`: the same registry snapshot, scraped from a
/// running daemon's `metrics` verb instead of a local replay.
fn cmd_stats_wire(args: &Args) -> Result<String, CliError> {
    let mut client = connect_flag(args)?;
    let body = scrape_metrics(&mut client)?;
    let value = |name: &str| metric_value(&body, name);
    let wal = body
        .lines()
        .filter_map(parse_sample)
        .any(|(n, _, _)| n == "sirup_wal_epoch")
        .then(|| (value("sirup_wal_epoch"), value("sirup_wal_log_bytes")));
    let mut out = format!("daemon {}:", args.flag("connect").unwrap_or("?"));
    out.push_str(&registry_section(
        value("sirup_requests_total"),
        value("sirup_scheduler_workers"),
        value("sirup_scheduler_steals_total"),
        value("sirup_scheduler_parks_total"),
        value("sirup_scheduler_queue_depth_max"),
        (
            value("sirup_plan_cache_hits_total"),
            value("sirup_plan_cache_misses_total"),
        ),
        (
            value("sirup_answer_cache_hits_total"),
            value("sirup_answer_cache_misses_total"),
        ),
        wal,
    ));
    // Per-instance storage: the daemon's `stats <inst>` verb carries the
    // snapshot's page/sharing/retained-bytes figures.
    if let Ok(reply) = client.request("list") {
        if let Some(names) = reply.strip_prefix("ok instances ") {
            // Sort before rendering: the daemon's `list` reply is sorted
            // today, but the per-instance lines must stay deterministic
            // even if a future daemon enumerates its catalog in hash-map
            // order.
            let mut names: Vec<&str> = names.split(',').filter(|n| !n.is_empty()).collect();
            names.sort_unstable();
            for name in names {
                if let Ok(stats) = client.request(&format!("stats {name}")) {
                    if let Some(line) = wire_instance_line(&stats) {
                        out.push_str(&line);
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Render one `ok stats <inst> ...` wire reply as a per-instance storage
/// line for `stats --connect` (`None` if the reply is not in that shape).
fn wire_instance_line(reply: &str) -> Option<String> {
    let words: Vec<&str> = reply.split_whitespace().collect();
    if words.first() != Some(&"ok") || words.get(1) != Some(&"stats") {
        return None;
    }
    let name = words.get(2)?;
    let get = |key: &str| {
        words
            .windows(2)
            .find(|w| w[0] == key)
            .and_then(|w| w[1].parse::<u64>().ok())
    };
    let (nodes, pages) = (get("nodes")?, get("pages")?);
    let (shared, retained) = (get("shared")?, get("retained")?);
    let ratio = if pages == 0 {
        0.0
    } else {
        shared as f64 * 100.0 / pages as f64
    };
    // `live`/`frozen` arrived with the CSR-snapshot work; tolerate replies
    // from daemons that predate them.
    let live_part = match (get("live"), get("frozen")) {
        (Some(live), Some(frozen)) => format!(
            ", ~{live} B live (~{} B version overhead), csr ~{frozen} B",
            retained.saturating_sub(live)
        ),
        _ => String::new(),
    };
    Some(format!(
        "\ninstance {name}: {nodes} node(s), ~{retained} B retained, \
         {shared}/{pages} page(s) shared with previous version ({ratio:.1}%){live_part}"
    ))
}

/// `serve --listen ADDR`: run the TCP daemon (blocking; never returns on
/// success). With `--data-dir` the server is durable — acknowledged writes
/// hit the WAL before they apply, and a restart on the same directory
/// recovers the exact catalog.
fn cmd_serve_daemon(args: &Args) -> Result<String, CliError> {
    use std::io::Write as _;
    let listen = args.flag("listen").expect("this entry's mode flag");
    let config = config_from_flags(args)?;
    let server = match args.flag("data-dir") {
        Some(dir) => Server::open_durable(config, dir)
            .map_err(|e| CliError::Workload(format!("cannot open data dir {dir}: {e}")))?,
        None => Server::new(config),
    };
    let wire = WireConfig {
        listen: listen.to_owned(),
        snapshot_every: args.get("snapshot-every")?,
        ..WireConfig::default()
    };
    let daemon = Daemon::start(std::sync::Arc::new(server), wire)
        .map_err(|e| CliError::Workload(format!("cannot bind {listen}: {e}")))?;
    // Machine-readable readiness line: child-process drivers (crash-check,
    // the CI smoke) wait for it before connecting.
    println!("listening {}", daemon.addr());
    let _ = std::io::stdout().flush();
    loop {
        std::thread::park();
    }
}

/// The `--connect ADDR` flag shared by the client subcommands.
fn connect_flag(args: &Args) -> Result<WireClient, CliError> {
    let addr = args.flag("connect").ok_or(CliError::MissingArgument(
        "--connect <addr> (a running `sirupctl serve --listen` daemon)",
    ))?;
    WireClient::connect(addr)
        .map_err(|e| CliError::Workload(format!("cannot connect to {addr}: {e}")))
}

/// `connect <addr> <request...>`: one raw request/reply round trip.
fn cmd_connect(args: &Args) -> Result<String, CliError> {
    let addr = &args.positional[0];
    let request = args.positional[1..].join(" ");
    let mut client = WireClient::connect(addr)
        .map_err(|e| CliError::Workload(format!("cannot connect to {addr}: {e}")))?;
    let reply = ask(&mut client, &request)?;
    Ok(reply + "\n")
}

/// `load <name> <atoms|@file> --connect ADDR`.
fn cmd_load(args: &Args) -> Result<String, CliError> {
    let (name, text) = (&args.positional[0], &args.positional[1]);
    let text = match text.strip_prefix('@') {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| CliError::Workload(format!("cannot read {path}: {e}")))?,
        None => text.clone(),
    };
    let (data, _) = parse_structure(&text).map_err(|e| CliError::BadInput(e.to_string()))?;
    let mut client = connect_flag(args)?;
    let reply = ask(&mut client, &load_request(name, &data))?;
    Ok(reply + "\n")
}

/// `query <kind> <instance> <cq> --connect ADDR`.
fn cmd_query(args: &Args) -> Result<String, CliError> {
    let [kind, instance, cq_text] = &args.positional[..] else {
        unreachable!("the table declares three positionals")
    };
    let (cq, _) = parse_structure(cq_text).map_err(|e| CliError::BadInput(e.to_string()))?;
    let mut client = connect_flag(args)?;
    let reply = ask(&mut client, &query_request(kind, instance, &cq))?;
    Ok(reply + "\n")
}

/// `tail <instance> --connect ADDR [--count N]`: print pushed mutation
/// events until the daemon goes away (or N events arrived).
fn cmd_tail(args: &Args) -> Result<String, CliError> {
    let instance = &args.positional[0];
    let count: usize = args.get("count")?;
    let mut client = connect_flag(args)?;
    let ack = ask(&mut client, &format!("tail {instance}"))?;
    if !ack.starts_with("ok tail ") {
        return Err(CliError::Workload(ack));
    }
    println!("{ack}");
    let mut seen = 0usize;
    loop {
        match client.next_frame() {
            Ok(Some(event)) => {
                println!("{event}");
                seen += 1;
                if count > 0 && seen >= count {
                    return Ok(String::new());
                }
            }
            Ok(None) => return Ok(String::new()),
            Err(e) => return Err(CliError::Workload(format!("tail stream: {e}"))),
        }
    }
}

/// Fetch the `metrics` exposition body from a connected daemon.
fn scrape_metrics(client: &mut WireClient) -> Result<String, CliError> {
    let reply = ask(client, "metrics")?;
    match reply.strip_prefix("ok metrics\n") {
        Some(body) => Ok(body.to_owned()),
        None => Err(CliError::Workload(format!(
            "unexpected metrics reply: {reply}"
        ))),
    }
}

/// One `key="value"` label list of a Prometheus sample.
type Labels = Vec<(String, String)>;

/// Parse one Prometheus sample line into `(name, labels, value)`; comments
/// and blanks yield `None`. Label values are unescaped (`\\`, `\"`, `\n`).
fn parse_sample(line: &str) -> Option<(&str, Labels, u64)> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let (head, value) = line.rsplit_once(' ')?;
    let value: u64 = value.parse().ok()?;
    match head.split_once('{') {
        None => Some((head, Vec::new(), value)),
        Some((name, rest)) => Some((name, parse_labels(rest.strip_suffix('}')?), value)),
    }
}

/// Parse `k="v",k="v"` Prometheus labels (values may contain escaped
/// quotes, backslashes, and commas — program keys do).
fn parse_labels(s: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut chars = s.chars();
    'outer: loop {
        let mut key = String::new();
        loop {
            match chars.next() {
                Some('=') => break,
                Some(c) => key.push(c),
                None => break 'outer,
            }
        }
        if chars.next() != Some('"') {
            break;
        }
        let mut val = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('n') => val.push('\n'),
                    Some(c) => val.push(c),
                    None => break 'outer,
                },
                Some('"') => break,
                Some(c) => val.push(c),
                None => break 'outer,
            }
        }
        out.push((key, val));
        match chars.next() {
            Some(',') => continue,
            _ => break,
        }
    }
    out
}

/// Value of an **unlabelled** sample in an exposition body (0 if absent).
fn metric_value(body: &str, name: &str) -> u64 {
    body.lines()
        .filter_map(parse_sample)
        .find(|(n, labels, _)| *n == name && labels.is_empty())
        .map_or(0, |(_, _, v)| v)
}

/// The registry snapshot section shared by `stats` in file mode (values
/// from in-process handles) and wire mode (values scraped from the
/// `metrics` exposition) — one format, pinned by the stats test.
#[allow(clippy::too_many_arguments)]
fn registry_section(
    requests: u64,
    workers: u64,
    steals: u64,
    parks: u64,
    queue_max: u64,
    plan: (u64, u64),
    answer: (u64, u64),
    wal: Option<(u64, u64)>,
) -> String {
    let ratio = |(h, m): (u64, u64)| {
        let total = h + m;
        if total == 0 {
            0.0
        } else {
            h as f64 * 100.0 / total as f64
        }
    };
    let mut out = String::from("\ntelemetry registry:\n");
    writeln!(out, "  requests total : {requests}").unwrap();
    writeln!(
        out,
        "  scheduler      : {workers} worker(s) registered, {steals} steal(s), \
         {parks} park(s), max queue depth {queue_max}"
    )
    .unwrap();
    writeln!(
        out,
        "  plan cache     : {} hit(s) / {} miss(es) ({:.1}% hit rate)",
        plan.0,
        plan.1,
        ratio(plan)
    )
    .unwrap();
    writeln!(
        out,
        "  answer cache   : {} hit(s) / {} miss(es) ({:.1}% hit rate)",
        answer.0,
        answer.1,
        ratio(answer)
    )
    .unwrap();
    match wal {
        Some((epoch, bytes)) => {
            writeln!(out, "  wal            : epoch {epoch}, log {bytes} B").unwrap()
        }
        None => writeln!(out, "  wal            : (not durable)").unwrap(),
    }
    out
}

/// One row of the `top` table, accumulated from the `sirup_program_*`
/// families of a metrics exposition.
#[derive(Debug, Default, Clone)]
struct TopRow {
    requests: u64,
    cardinality: u64,
    p50_us: u64,
    p99_us: u64,
    strategies: Vec<(String, u64)>,
}

/// Render the live per-(program, instance) table from an exposition body.
fn render_top(body: &str) -> String {
    use std::collections::BTreeMap;
    let mut rows: BTreeMap<(String, String), TopRow> = BTreeMap::new();
    for line in body.lines() {
        let Some((name, labels, value)) = parse_sample(line) else {
            continue;
        };
        let label = |k: &str| {
            labels
                .iter()
                .find(|(lk, _)| lk == k)
                .map(|(_, v)| v.clone())
        };
        if !name.starts_with("sirup_program_") {
            continue;
        }
        let (Some(program), Some(instance)) = (label("program"), label("instance")) else {
            continue;
        };
        let row = rows.entry((program, instance)).or_default();
        match name {
            "sirup_program_requests_total" => {
                row.requests += value;
                if let Some(strategy) = label("strategy") {
                    row.strategies.push((strategy, value));
                }
            }
            "sirup_program_cardinality_total" => row.cardinality = value,
            "sirup_program_latency_p50_us" => row.p50_us = value,
            "sirup_program_latency_p99_us" => row.p99_us = value,
            _ => {}
        }
    }
    let mut sorted: Vec<((String, String), TopRow)> = rows.into_iter().collect();
    sorted.sort_by(|a, b| b.1.requests.cmp(&a.1.requests).then(a.0.cmp(&b.0)));
    let mut out = format!("top: {} live (program, instance) key(s)\n", sorted.len());
    writeln!(
        out,
        "{:>7} {:>8} {:>8} {:>8}  {:<28} PROGRAM @ INSTANCE",
        "REQS", "CARDS", "P50(µs)", "P99(µs)", "STRATEGIES"
    )
    .unwrap();
    for ((program, instance), row) in sorted {
        let mut strategies: Vec<String> = row
            .strategies
            .iter()
            .map(|(s, n)| format!("{s} {n}"))
            .collect();
        strategies.sort_unstable();
        writeln!(
            out,
            "{:>7} {:>8} {:>8} {:>8}  {:<28} {program} @ {instance}",
            row.requests,
            row.cardinality,
            row.p50_us,
            row.p99_us,
            strategies.join(", ")
        )
        .unwrap();
    }
    out
}

/// `top --connect ADDR [--count N] [--interval-ms N]`: poll the daemon's
/// `metrics` verb and print the per-(program, instance) request table.
fn cmd_top(args: &Args) -> Result<String, CliError> {
    let rounds = args.get::<usize>("count")?.max(1);
    let interval = args.get("interval-ms")?;
    let mut client = connect_flag(args)?;
    let mut out = String::new();
    for round in 0..rounds {
        if round > 0 {
            std::thread::sleep(std::time::Duration::from_millis(interval));
        }
        out.push_str(&render_top(&scrape_metrics(&mut client)?));
    }
    Ok(out)
}

/// One span line parsed back out of a `trace` reply.
struct SpanLine {
    id: u64,
    parent: u64,
    level: String,
    name: String,
    dur_us: u64,
    detail: String,
}

/// Parse a [`sirup_core::telemetry::SpanRecord::render`] line.
fn parse_span(line: &str) -> Option<SpanLine> {
    let rest = line.strip_prefix("span ")?;
    // `detail` is last and may contain spaces; split it off first.
    let (fields, detail) = rest.split_once(" detail=")?;
    let field = |key: &str| {
        fields
            .split_whitespace()
            .find_map(|f| f.strip_prefix(key)?.strip_prefix('=').map(str::to_owned))
    };
    Some(SpanLine {
        id: field("id")?.parse().ok()?,
        parent: field("parent")?.parse().ok()?,
        level: field("level")?,
        name: field("name")?,
        dur_us: field("dur_us")?.parse().ok()?,
        detail: detail.to_owned(),
    })
}

/// `trace --connect ADDR [--slow-ms N]`: fetch recent root spans at least
/// N ms long and print each one's child tree, indented by span depth.
fn cmd_trace(args: &Args) -> Result<String, CliError> {
    let slow_ms: u64 = args.get("slow-ms")?;
    let mut client = connect_flag(args)?;
    let reply = ask(&mut client, &format!("trace {}", slow_ms * 1000))?;
    let mut lines = reply.lines();
    let head = lines.next().unwrap_or("");
    let n: usize = head
        .strip_prefix("ok trace ")
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| CliError::Workload(format!("unexpected trace reply: {head}")))?;
    let mut out = format!("trace: {n} root span(s) with duration >= {slow_ms} ms\n");
    // The daemon sends each tree depth-first, so a parent always precedes
    // its children — one pass computes the indentation.
    let mut depth: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
    for line in lines {
        let Some(span) = parse_span(line) else {
            return Err(CliError::Workload(format!("unparsable span line: {line}")));
        };
        let d = depth.get(&span.parent).map_or(0, |d| d + 1);
        depth.insert(span.id, d);
        let warn = if span.level == "warn" { " [warn]" } else { "" };
        let detail = if span.detail == "-" {
            String::new()
        } else {
            format!("  ({})", span.detail)
        };
        writeln!(
            out,
            "{:indent$}{} {}us{warn}{detail}",
            "",
            span.name,
            span.dur_us,
            indent = d * 2
        )
        .unwrap();
    }
    Ok(out)
}

/// Spawn `sirupctl serve --listen 127.0.0.1:0 --data-dir <dir>` as a child
/// process and wait for its `listening <addr>` line.
fn spawn_durable_daemon(
    data_dir: &std::path::Path,
) -> Result<(std::process::Child, String), CliError> {
    use std::io::BufRead as _;
    let exe = std::env::current_exe()
        .map_err(|e| CliError::Workload(format!("cannot locate sirupctl: {e}")))?;
    let mut child = std::process::Command::new(exe)
        .args(["serve", "--listen", "127.0.0.1:0", "--data-dir"])
        .arg(data_dir)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .map_err(|e| CliError::Workload(format!("cannot spawn serve child: {e}")))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| CliError::Workload(format!("reading serve child stdout: {e}")))?;
    let addr = match line.trim().strip_prefix("listening ") {
        Some(addr) if !addr.is_empty() => addr.to_owned(),
        _ => {
            let _ = child.kill();
            let _ = child.wait();
            return Err(CliError::Workload(format!(
                "serve child did not report an address (got {line:?})"
            )));
        }
    };
    Ok((child, addr))
}

/// `crash-check <file> [--kill-after N]`: the durability acceptance check.
///
/// Starts a durable daemon as a child process, loads the workload's
/// instances, streams its mutation requests one ack at a time, fires one
/// more *without* waiting, then `SIGKILL`s the child mid-stream. A second
/// child on the same data directory must recover every instance to exactly
/// the workload prefix its recovered sequence number names — at least all
/// acknowledged mutations (ack ⇒ fsync'd), at most what was sent.
fn cmd_crash_check(args: &Args) -> Result<String, CliError> {
    let path = &args.positional[0];
    let spec = workload_arg(args)?;
    let mutations: Vec<(&str, &[sirup_core::FactOp])> = spec
        .requests
        .iter()
        .filter_map(|r| match &r.action {
            sirup_workloads::TrafficAction::Mutate { ops } => {
                Some((r.instance.as_str(), ops.as_slice()))
            }
            _ => None,
        })
        .collect();
    if mutations.is_empty() {
        return Err(CliError::Workload(format!(
            "{path} has no mutation requests — nothing to crash-check"
        )));
    }
    let kill_after = args.get::<usize>("kill-after")?.min(mutations.len());
    let data_dir = std::env::temp_dir().join(format!("sirup-crash-check-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    std::fs::create_dir_all(&data_dir)
        .map_err(|e| CliError::Workload(format!("cannot create {}: {e}", data_dir.display())))?;

    // Round 1: load, stream `kill_after` acknowledged mutations, leave one
    // in flight, kill -9.
    let (mut child, addr) = spawn_durable_daemon(&data_dir)?;
    let run = (|| -> Result<(), CliError> {
        let mut client = WireClient::connect_retry(&addr, std::time::Duration::from_secs(10))
            .map_err(|e| CliError::Workload(format!("cannot connect to child at {addr}: {e}")))?;
        for (name, data) in &spec.instances {
            let reply = ask(&mut client, &load_request(name, data))?;
            if !reply.starts_with("ok ") {
                return Err(CliError::Workload(format!("load {name} failed: {reply}")));
            }
        }
        for (inst, ops) in mutations.iter().take(kill_after) {
            let reply = ask(&mut client, &mutate_request(inst, ops))?;
            if !reply.starts_with("answer applied ") {
                return Err(CliError::Workload(format!("mutate {inst} failed: {reply}")));
            }
        }
        if let Some((inst, ops)) = mutations.get(kill_after) {
            // Mid-stream: this one is in flight, unacknowledged, when the
            // SIGKILL lands — recovery may or may not include it.
            let _ = client.send(&mutate_request(inst, ops));
        }
        Ok(())
    })();
    let _ = child.kill();
    let _ = child.wait();
    run?;

    // Round 2: restart on the same data directory and diff.
    let (mut child, addr) = spawn_durable_daemon(&data_dir)?;
    let verdict = (|| -> Result<String, CliError> {
        let mut client = WireClient::connect_retry(&addr, std::time::Duration::from_secs(10))
            .map_err(|e| CliError::Workload(format!("cannot reconnect at {addr}: {e}")))?;
        let mut out = String::new();
        for (name, start) in &spec.instances {
            let dump = ask(&mut client, &format!("dump {name}"))?;
            let (head, body) = dump.split_once('\n').ok_or_else(|| {
                CliError::Workload(format!("malformed dump reply for {name}: {dump:?}"))
            })?;
            let words: Vec<&str> = head.split_whitespace().collect();
            let seq: u64 = match words.as_slice() {
                ["ok", "dump", n, "nodes", _, "seq", s] if *n == name.as_str() => s
                    .parse()
                    .map_err(|_| CliError::Workload(format!("bad seq in dump reply: {head}")))?,
                _ => return Err(CliError::Workload(format!("dump {name} failed: {head}"))),
            };
            let acked = mutations
                .iter()
                .take(kill_after)
                .filter(|(i, _)| *i == name)
                .count() as u64;
            let sent = acked
                + mutations
                    .get(kill_after)
                    .map_or(0, |(i, _)| u64::from(*i == name));
            if seq < acked || seq > sent {
                return Err(CliError::Workload(format!(
                    "DURABILITY VIOLATION on {name}: recovered seq {seq}, but {acked} \
                     mutation(s) were acknowledged and {sent} sent"
                )));
            }
            // Fold exactly the first `seq` mutations of this instance —
            // the prefix the recovered sequence number names.
            let mut oracle = start.clone();
            let mut folded = 0u64;
            for (inst, ops) in &mutations {
                if *inst == name && folded < seq {
                    oracle.apply_all(ops);
                    folded += 1;
                }
            }
            let expected = oracle.to_string();
            if body != expected {
                return Err(CliError::Workload(format!(
                    "RECOVERY DIVERGED on {name} (seq {seq}):\n  recovered: {body}\n  \
                     oracle   : {expected}"
                )));
            }
            writeln!(
                out,
                "instance {name}: recovered seq {seq} (acked {acked}, sent {sent}) — exact match"
            )
            .unwrap();
        }
        Ok(out)
    })();
    let _ = child.kill();
    let _ = child.wait();
    let out = verdict?;
    let _ = std::fs::remove_dir_all(&data_dir);
    Ok(format!(
        "{out}crash-check PASS: killed -9 after {kill_after} acked mutation(s) \
         (+1 in flight), recovery matched the folded-ops oracle on all {} instance(s)\n",
        spec.instances.len()
    ))
}

fn cmd_zoo(_: &Args) -> Result<String, CliError> {
    use sirup_workloads::paper;
    let mut out = String::new();
    writeln!(
        out,
        "Example 1 zoo (paper's data-complexity classification in brackets):"
    )
    .unwrap();
    let entries: [(&str, Structure, &str); 5] = [
        ("q1", paper::q1(), "coNP-complete"),
        ("q2", paper::q2(), "P-complete"),
        ("q3", paper::q3(), "NL-complete"),
        ("q4", paper::q4(), "L-complete"),
        (
            "q5",
            paper::q5().structure().clone(),
            "in AC0 (FO-rewritable)",
        ),
    ];
    for (name, s, paper_class) in entries {
        writeln!(out, "\n{name} [{paper_class}]: {s}").unwrap();
        match DitreeCqAnalysis::new(&s) {
            Some(a) => {
                writeln!(
                    out,
                    "  Thm 7: {:?}; Cor 8: {:?}; Thm 11: {}",
                    nl_hardness_condition(&a),
                    classify_delta_plus(&a),
                    match classify_trichotomy(&s) {
                        Ok(c) => format!("{c:?}"),
                        Err(e) => format!("n/a ({e:?})"),
                    }
                )
                .unwrap();
            }
            None => writeln!(out, "  (outside the ditree/solitary-pair fragment of §4)").unwrap(),
        }
        if let Ok(q) = OneCq::new(s) {
            let v = lambda_fo_rewritable(&q);
            if v != LambdaVerdict::NotLambda {
                writeln!(out, "  Thm 9 (Λ): {v:?}").unwrap();
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;

    fn run_line(line: &[&str]) -> Result<String, CliError> {
        run(&parse_args(line.iter().copied()).unwrap())
    }

    #[test]
    fn help_lists_all_commands() {
        let h = run_line(&["help"]).unwrap();
        for c in [
            "parse",
            "classify",
            "plan",
            "bound",
            "rewrite",
            "cactus",
            "dot",
            "program",
            "schemaorg",
            "serve",
            "replay",
            "stats",
            "top",
            "trace",
            "zoo",
        ] {
            assert!(h.contains(c), "help missing {c}");
        }
    }

    /// A well-formed line selecting entry `c`: its mode flag (with a value
    /// unless Boolean) and a placeholder per positional.
    fn line_for(c: &Command) -> Vec<String> {
        let mut line = vec![c.name.to_owned()];
        if let Some(mode) = c.mode.and_then(|m| c.flag(m)) {
            line.push(format!("--{}", mode.name));
            if mode.kind != Bool {
                line.push("127.0.0.1:1".to_owned());
            }
        }
        line.extend(c.positionals.iter().map(|_| "x".to_owned()));
        line
    }

    /// Every flag entry `c` accepts: its own, then the shared ones.
    fn all_flags(c: &Command) -> Vec<&'static Flag> {
        let shared = if c.service { SERVICE } else { &[] };
        c.flags.iter().chain(shared).collect()
    }

    #[test]
    fn every_entry_rejects_unknown_flags_ill_typed_values_and_surplus_arguments() {
        for c in COMMANDS {
            let mut bogus = line_for(c);
            bogus.extend(["--bogus-flag".to_owned(), "7".to_owned()]);
            let err = parse_args(bogus).unwrap_err().to_string();
            assert!(err.contains("--bogus-flag"), "{}: {err}", c.title());
            for f in all_flags(c) {
                if !matches!(f.kind, Int | Float | List) {
                    continue;
                }
                let mut line = line_for(c);
                line.extend([format!("--{}", f.name), "x".to_owned()]);
                let args = parse_args(line).unwrap();
                let expects = format!("--{} expects", f.name);
                match run(&args) {
                    Err(CliError::BadFlag(m)) if m.contains(&expects) => {}
                    other => panic!("{} --{} x: {other:?}", c.title(), f.name),
                }
            }
            // A surplus positional, on every fixed-arity entry.
            if !c.positionals.last().is_some_and(|p| p.0.ends_with("...")) {
                let mut surplus = line_for(c);
                surplus.push("surplus".to_owned());
                let err = parse_args(surplus).unwrap_err().to_string();
                assert!(err.contains("\"surplus\""), "{}: {err}", c.title());
            }
        }
        let q4 = "F(x), R(y,x), R(y,z), T(z)";
        assert!(parse_args(["bound", q4, "--horizn", "9"]).is_err());
        assert!(parse_args(["bound", "F(x)", "T(y)"]).is_err());
    }

    #[test]
    fn help_names_every_entry_and_flag() {
        let h = run_line(&["help"]).unwrap();
        for c in COMMANDS {
            assert!(
                h.contains(&format!("  {}", c.title())),
                "help missing {}",
                c.title()
            );
            for f in all_flags(c) {
                assert!(
                    h.contains(&format!("--{} ", f.name)),
                    "help missing --{}",
                    f.name
                );
            }
        }
    }

    #[test]
    fn the_table_is_well_formed() {
        for c in COMMANDS {
            let base = COMMANDS
                .iter()
                .filter(|d| d.name == c.name && d.mode.is_none());
            assert_eq!(base.count(), 1, "{}: one entry without a mode", c.name);
            if let Some(mode) = c.mode {
                assert!(c.flags.iter().any(|f| f.name == mode), "{}", c.title());
            }
            let variadic = c.positionals.iter().position(|p| p.0.ends_with("..."));
            assert!(variadic.is_none_or(|i| i + 1 == c.positionals.len()));
            let flags = all_flags(c);
            for (i, f) in flags.iter().enumerate() {
                assert!(
                    flags[..i].iter().all(|g| g.name != f.name),
                    "--{} twice",
                    f.name
                );
                assert!(f.default.is_none_or(|d| f.kind.accepts(d)), "--{}", f.name);
                // The parser reads a flag's value before it knows the mode.
                for d in COMMANDS.iter().filter(|d| d.name == c.name) {
                    assert!(
                        d.flag(f.name).is_none_or(|g| g.kind == f.kind),
                        "--{}",
                        f.name
                    );
                }
            }
        }
    }

    #[test]
    fn service_flag_defaults_are_the_server_defaults() {
        let args = parse_args(["replay", "w"]).unwrap();
        assert_eq!(
            format!("{:?}", config_from_flags(&args).unwrap()),
            format!("{:?}", ServerConfig::default())
        );
        let daemon = parse_args(["serve", "--listen", ":0"]).unwrap();
        let snapshot_every: u64 = daemon.get("snapshot-every").unwrap();
        assert_eq!(snapshot_every, WireConfig::default().snapshot_every);
    }

    #[test]
    fn bound_sigma_reads_the_cq_as_a_positional() {
        let out = run_line(&["bound", "--sigma", "F(x), R(x,y), T(y)"]).unwrap();
        assert!(out.contains("(Σ_q, P)"), "{out}");
    }

    #[test]
    fn serve_generates_and_runs_mutation_traffic() {
        let out = run_line(&[
            "serve",
            "--requests",
            "40",
            "--instances",
            "2",
            "--mutation-ratio",
            "0.4",
            "--hot",
            "0.5",
            "--seed",
            "8",
            "--threads",
            "2",
        ])
        .unwrap();
        assert!(out.contains("mutations :"), "{out}");
        assert!(!out.contains("mutations : 0 request(s)"), "{out}");
        // Emitted mutation workloads round-trip through the file format.
        let emitted = run_line(&[
            "serve",
            "--requests",
            "40",
            "--instances",
            "2",
            "--mutation-ratio",
            "0.4",
            "--seed",
            "8",
            "--emit",
            "true",
        ])
        .unwrap();
        assert!(emitted.contains("request mutate"), "{emitted}");
        assert!(sirup_workloads::parse_workload(&emitted).is_ok());
        // Ratio validation.
        assert!(matches!(
            run_line(&["serve", "--mutation-ratio", "1.5"]),
            Err(CliError::BadFlag(_))
        ));
    }

    #[test]
    fn stats_reports_live_instances() {
        let dir = std::env::temp_dir().join("sirupctl-stats-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.sirupload");
        let text = "\
instance d = T(t), A(a), R(a,t)
request sigma d @0 = F(x), R(x,y), T(y)
request mutate d @10 = +A(b), +R(b,a)
request sigma d @20 = F(x), R(x,y), T(y)
";
        std::fs::write(&path, text).unwrap();
        // One worker: a closed batch resolves its snapshots up front, so
        // with more the mutation can carry the catalog forward before the
        // first `sigma` read attaches its materialisation, and the live
        // version then shows none.
        let out = run_line(&["stats", path.to_str().unwrap(), "--threads", "1"]).unwrap();
        assert!(out.contains("1 mutation(s)"), "{out}");
        assert!(out.contains("instance d: version"), "{out}");
        assert!(out.contains("materialisation ["), "{out}");
        // q = F(x),R(x,y),T(y) is unbounded ⇒ semi-naive ⇒ P extension shown.
        assert!(out.contains("P "), "{out}");
        // Registry section: both queries share one program key, so the
        // first resolve compiles the plan and the second hits it, and both
        // query answers are cold (the mutation bumps the version between
        // them).
        assert!(out.contains("telemetry registry:"), "{out}");
        assert!(
            out.contains("plan cache     : 1 hit(s) / 1 miss(es)"),
            "{out}"
        );
        assert!(
            out.contains("answer cache   : 0 hit(s) / 2 miss(es)"),
            "{out}"
        );
        assert!(out.contains("wal            : (not durable)"), "{out}");
        // Filtering works, and unknown filters are reported.
        let filtered = run_line(&[
            "stats",
            path.to_str().unwrap(),
            "--instance",
            "d",
            "--threads",
            "1",
        ])
        .unwrap();
        assert!(filtered.contains("instance d:"), "{filtered}");
        assert!(matches!(
            run_line(&["stats", path.to_str().unwrap(), "--instance", "nope"]),
            Err(CliError::Workload(_))
        ));
        assert!(matches!(
            run_line(&["stats"]),
            Err(CliError::MissingArgument(_))
        ));
    }

    #[test]
    fn stats_renders_instances_in_sorted_name_order() {
        // Two instances declared in reverse name order: both stats modes
        // must render their per-instance lines sorted by name, never in
        // catalog hash-map order.
        let text = "\
instance zeta = T(t), A(a), R(a,t)
instance alpha = T(t), A(a), R(a,t)
request sigma zeta @0 = F(x), R(x,y), T(y)
request sigma alpha @1 = F(x), R(x,y), T(y)
";
        let dir = std::env::temp_dir().join("sirupctl-stats-order-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.sirupload");
        std::fs::write(&path, text).unwrap();
        let out = run_line(&["stats", path.to_str().unwrap()]).unwrap();
        let a = out.find("instance alpha:").expect("alpha line");
        let z = out.find("instance zeta:").expect("zeta line");
        assert!(
            a < z,
            "file-mode per-instance lines must sort by name: {out}"
        );

        // Wire mode: the same pin against a live daemon.
        let wire = WireConfig {
            listen: "127.0.0.1:0".to_owned(),
            ..WireConfig::default()
        };
        let daemon = Daemon::start(
            std::sync::Arc::new(Server::new(ServerConfig::default())),
            wire,
        )
        .unwrap();
        let addr = daemon.addr().to_string();
        let spec = parse_workload(text).unwrap();
        replay_over_wire(&spec, &addr).unwrap();
        let stats = run_line(&["stats", "--connect", &addr]).unwrap();
        let a = stats.find("instance alpha:").expect("alpha line");
        let z = stats.find("instance zeta:").expect("zeta line");
        assert!(
            a < z,
            "wire-mode per-instance lines must sort by name: {stats}"
        );
    }

    #[test]
    fn prometheus_sample_parsing_handles_labels_and_escapes() {
        assert_eq!(
            parse_sample("sirup_requests_total 7"),
            Some(("sirup_requests_total", vec![], 7))
        );
        let (name, labels, v) = parse_sample(r#"x{program="a\"b\\c",instance="i"} 3"#).unwrap();
        assert_eq!(name, "x");
        assert_eq!(labels[0], ("program".to_owned(), "a\"b\\c".to_owned()));
        assert_eq!(labels[1], ("instance".to_owned(), "i".to_owned()));
        assert_eq!(v, 3);
        assert!(parse_sample("# TYPE x counter").is_none());
        assert!(parse_sample("").is_none());
        let body = "a 1\na{l=\"x\"} 9\nb 2\n";
        assert_eq!(metric_value(body, "a"), 1);
        assert_eq!(metric_value(body, "b"), 2);
        assert_eq!(metric_value(body, "c"), 0);
    }

    #[test]
    fn span_line_parsing_round_trips_the_render_format() {
        let s =
            parse_span("span id=4 parent=1 level=info name=dpll start_us=10 dur_us=25 detail=-")
                .unwrap();
        assert_eq!((s.id, s.parent, s.dur_us), (4, 1, 25));
        assert_eq!(s.name, "dpll");
        assert_eq!(s.level, "info");
        assert_eq!(s.detail, "-");
        let s = parse_span(
            "span id=9 parent=0 level=warn name=request start_us=0 dur_us=3 detail=pi @ d extra",
        )
        .unwrap();
        assert_eq!(s.detail, "pi @ d extra");
        assert!(parse_span("not a span line").is_none());
    }

    #[test]
    fn top_trace_and_stats_read_a_live_daemon() {
        let wire = WireConfig {
            listen: "127.0.0.1:0".to_owned(),
            ..WireConfig::default()
        };
        let daemon = Daemon::start(
            std::sync::Arc::new(Server::new(ServerConfig::default())),
            wire,
        )
        .unwrap();
        let addr = daemon.addr().to_string();
        let text = "\
instance cli_top = T(t), A(a), R(a,t)
request sigma cli_top @0 = F(x), R(x,y), T(y)
request sigma cli_top @1 = F(x), R(x,y), T(y)
request mutate cli_top @2 = +A(b)
";
        let spec = parse_workload(text).unwrap();
        replay_over_wire(&spec, &addr).unwrap();

        let top = run_line(&["top", "--connect", &addr]).unwrap();
        assert!(top.contains("REQS"), "{top}");
        assert!(top.contains("PROGRAM @ INSTANCE"), "{top}");
        assert!(top.contains("@ cli_top"), "{top}");

        let trace = run_line(&["trace", "--connect", &addr]).unwrap();
        assert!(
            trace.contains("root span(s) with duration >= 0 ms"),
            "{trace}"
        );
        assert!(trace.contains("request"), "{trace}");
        let none = run_line(&["trace", "--connect", &addr, "--slow-ms", "3600000"]).unwrap();
        assert!(none.starts_with("trace: 0 root span(s)"), "{none}");

        let stats = run_line(&["stats", "--connect", &addr]).unwrap();
        assert!(stats.contains("telemetry registry:"), "{stats}");
        assert!(stats.contains("requests total :"), "{stats}");
        assert!(stats.contains("plan cache"), "{stats}");
        assert!(stats.contains("wal            : (not durable)"), "{stats}");

        // The client subcommands all require --connect.
        for cmd in ["top", "trace"] {
            assert!(matches!(
                run_line(&[cmd]),
                Err(CliError::MissingArgument(_))
            ));
        }
    }

    #[test]
    fn obda_workload_is_pinned_to_its_generator() {
        let emitted = run_line(&["schemaorg", "--traffic", "true", "--emit", "true"]).unwrap();
        // The generated stream carries the Prop. 5 presentation.
        assert!(emitted.contains("Rprime("), "{emitted}");
        assert!(emitted.contains("request mutate obda"), "{emitted}");
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../workloads/obda.sirupload"
        );
        let checked_in = std::fs::read_to_string(path).unwrap();
        assert_eq!(
            emitted, checked_in,
            "workloads/obda.sirupload drifted from its generator; regenerate with \
             `sirupctl schemaorg --traffic --emit > workloads/obda.sirupload`"
        );
        // And the seed replays cleanly end to end.
        let out = run_line(&["replay", path, "--threads", "2"]).unwrap();
        assert!(out.contains("24 request(s)"), "{out}");
        assert!(!out.contains("mutations : 0"), "{out}");
    }

    #[test]
    fn replay_metrics_appends_the_exposition() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../workloads/smoke.sirupload"
        );
        let out = run_line(&["replay", path, "--metrics", "true"]).unwrap();
        assert!(out.contains("req/s"), "{out}");
        assert!(out.contains("# TYPE sirup_requests_total counter"), "{out}");
        assert!(out.contains("sirup_program_latency_us_bucket"), "{out}");
        assert!(out.contains("sirup_plan_cache_hits_total"), "{out}");
    }

    #[test]
    fn replay_smoke_workload_reports_latency() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../workloads/smoke.sirupload"
        );
        let out = run_line(&["replay", path, "--threads", "4"]).unwrap();
        assert!(out.contains("16 request(s)"), "{out}");
        assert!(out.contains("req/s"), "{out}");
        assert!(out.contains("p50"), "{out}");
        assert!(out.contains("p99"), "{out}");
        // All three strategy paths fire on the smoke workload.
        for s in ["rewriting", "semi-naive", "dpll"] {
            assert!(out.contains(s), "missing strategy {s}: {out}");
        }
        // Open-loop mode paces by the arrival offsets and still completes.
        let open = run_line(&["replay", path, "--open", "true"]).unwrap();
        assert!(open.contains("open-loop"), "{open}");
    }

    #[test]
    fn replay_threads_sweep_prints_speedup_table() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../workloads/smoke.sirupload"
        );
        let out = run_line(&["replay", path, "--threads-sweep", "1,2"]).unwrap();
        assert!(out.contains("threads-sweep over 16 request(s)"), "{out}");
        assert!(out.contains("req/s"), "{out}");
        assert!(out.contains("p95"), "{out}");
        assert!(out.contains("1.00x"), "{out}");
        // Malformed sweep lists are rejected.
        assert!(matches!(
            run_line(&["replay", path, "--threads-sweep", "1,x"]),
            Err(CliError::BadFlag(_))
        ));
    }

    #[test]
    fn phases_workload_is_pinned_to_its_generator() {
        let emitted = run_line(&["serve", "--phases", "true", "--emit", "true"]).unwrap();
        assert!(emitted.contains("instance hot ="), "{emitted}");
        assert!(emitted.contains("request mutate hot"), "{emitted}");
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../workloads/phases.sirupload"
        );
        let checked_in = std::fs::read_to_string(path).unwrap();
        assert_eq!(
            emitted, checked_in,
            "workloads/phases.sirupload drifted from its generator; regenerate with \
             `sirupctl serve --phases --emit > workloads/phases.sirupload`"
        );
        // And the seed replays cleanly end to end.
        let out = run_line(&["replay", path, "--threads", "2"]).unwrap();
        assert!(out.contains("72 request(s)"), "{out}");
    }

    #[test]
    fn retired_routing_flags_are_unknown() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../workloads/phases.sirupload"
        );
        for (flag, value) in [
            ("--adaptive", "true"),
            ("--promote-after", "2"),
            ("--demote-after", "1"),
        ] {
            let err = parse_args(["replay", path, flag, value])
                .unwrap_err()
                .to_string();
            assert!(err.contains(&format!("unknown flag {flag}")), "{err}");
        }
    }

    #[test]
    fn replay_dump_answers_is_deterministic() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../workloads/mutations.sirupload"
        );
        let line = [
            "replay",
            path,
            "--threads",
            "4",
            "--parallelism",
            "4",
            "--par-threshold",
            "2",
            "--dump-answers",
            "true",
        ];
        let a = run_line(&line).unwrap();
        let b = run_line(&line).unwrap();
        assert_eq!(a, b, "parallel replay answers must be deterministic");
        // Answers only: one `idx: Answer` line per request, no summary.
        assert!(a.lines().count() > 0);
        assert!(a.starts_with("0: "), "{a}");
        assert!(!a.contains("req/s"), "{a}");
    }

    #[test]
    fn serve_scaling_generates_the_large_workload_shape() {
        let emitted = run_line(&[
            "serve",
            "--scaling",
            "true",
            "--nodes",
            "32",
            "--requests",
            "8",
            "--emit",
            "true",
        ])
        .unwrap();
        assert!(emitted.contains("instance big ="), "{emitted}");
        assert_eq!(
            emitted.matches("request ").count(),
            8,
            "request count knob ignored: {emitted}"
        );
        let spec = sirup_workloads::parse_workload(&emitted).unwrap();
        assert!(spec.instances[0].1.node_count() >= 30);
        // And it runs through a parallel server.
        let ran = run_line(&[
            "serve",
            "--scaling",
            "true",
            "--nodes",
            "32",
            "--requests",
            "8",
            "--parallelism",
            "2",
        ])
        .unwrap();
        assert!(ran.contains("8 request(s)"), "{ran}");
    }

    #[test]
    fn replay_errors_are_reported() {
        assert!(matches!(
            run_line(&["replay", "/nonexistent/x.sirupload"]),
            Err(CliError::Workload(_))
        ));
        assert!(matches!(
            run_line(&["replay"]),
            Err(CliError::MissingArgument(_))
        ));
    }

    #[test]
    fn serve_emit_round_trips_and_runs() {
        let emitted = run_line(&[
            "serve",
            "--requests",
            "12",
            "--instances",
            "2",
            "--emit",
            "true",
            "--seed",
            "5",
        ])
        .unwrap();
        assert!(emitted.starts_with("# sirup workload v1"));
        assert!(emitted.contains("instance d1 ="));
        // The emitted text is a valid workload.
        assert!(sirup_workloads::parse_workload(&emitted).is_ok());
        let ran = run_line(&[
            "serve",
            "--requests",
            "12",
            "--instances",
            "2",
            "--seed",
            "5",
            "--threads",
            "2",
        ])
        .unwrap();
        assert!(ran.contains("12 request(s)"), "{ran}");
        assert!(ran.contains("plan cache"), "{ran}");
    }

    #[test]
    fn serve_flag_validation() {
        assert!(matches!(
            run_line(&["serve", "--requests", "abc"]),
            Err(CliError::BadFlag(_))
        ));
        assert!(matches!(
            run_line(&["serve", "--max-depth", "3", "--horizon", "2"]),
            Err(CliError::BadFlag(_))
        ));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(matches!(
            run_line(&["frobnicate"]),
            Err(CliError::UnknownCommand(_))
        ));
    }

    #[test]
    fn parse_reports_shape_and_span() {
        let out = run_line(&["parse", "F(x), R(y,x), R(y,z), T(z)"]).unwrap();
        assert!(out.contains("shape     : ditree"));
        assert!(out.contains("1-CQ      : yes (span 1)"));
        let out = run_line(&["parse", "R(x,y), R(y,x)"]).unwrap();
        assert!(out.contains("cyclic digraph"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            run_line(&["parse", "F(x,"]),
            Err(CliError::BadInput(_))
        ));
        assert!(matches!(
            run_line(&["parse"]),
            Err(CliError::MissingArgument(_))
        ));
    }

    #[test]
    fn classify_q4_is_l_complete() {
        let out = run_line(&["classify", "F(x), R(y,x), R(y,z), T(z)"]).unwrap();
        assert!(out.contains("quasi-symmetric    : true"));
        assert!(out.contains("LComplete"));
        assert!(out.contains("Theorem 9"));
    }

    #[test]
    fn plan_prints_order_and_fanout() {
        let out = run_line(&["plan", "F(x), R(y,x), R(y,z), T(z)"]).unwrap();
        assert!(out.contains("compiled plan"), "{out}");
        assert!(out.contains("fan-out"), "{out}");
        assert!(out.contains("adjacency-bounded"), "{out}");
        assert!(out.contains("rule-body plans of Π_q"), "{out}");
        let sig = run_line(&["plan", "F(x), R(y,x), R(y,z), T(z)", "--sigma"]).unwrap();
        assert!(sig.contains("rule-body plans of Σ_q"), "{sig}");
        // Non-1-CQ patterns still get their own plan, without rule plans.
        let d = run_line(&["plan", "F(x), F(y), R(x,y)"]).unwrap();
        assert!(d.contains("not a 1-CQ"), "{d}");
        assert!(matches!(
            run_line(&["plan"]),
            Err(CliError::MissingArgument(_))
        ));
    }

    #[test]
    fn bound_detects_unbounded_chain() {
        let out = run_line(&[
            "bound",
            "F(x), R(x,y), T(y)",
            "--max-d",
            "1",
            "--horizon",
            "3",
        ])
        .unwrap();
        assert!(out.contains("UNBOUNDED evidence"), "{out}");
    }

    #[test]
    fn bound_flag_validation() {
        assert!(matches!(
            run_line(&[
                "bound",
                "F(x), R(x,y), T(y)",
                "--max-d",
                "3",
                "--horizon",
                "2"
            ]),
            Err(CliError::BadFlag(_))
        ));
    }

    #[test]
    fn rewrite_formats() {
        let q = "T(b), F(c), T(c), F(e), R(a,b), R(a,c), R(b,d), R(c,e), R(d,g)";
        let ucq = run_line(&["rewrite", q, "--depth", "1"]).unwrap();
        assert!(ucq.contains("2 disjuncts"));
        let fo = run_line(&["rewrite", q, "--depth", "1", "--format", "fo"]).unwrap();
        assert!(fo.contains('∃'));
        let sql = run_line(&["rewrite", q, "--depth", "1", "--format", "sql"]).unwrap();
        assert!(sql.contains("EXISTS"));
        assert!(matches!(
            run_line(&["rewrite", q, "--depth", "1", "--format", "xml"]),
            Err(CliError::BadFlag(_))
        ));
    }

    #[test]
    fn rewrite_minimise_drops_redundant_disjuncts() {
        let q = "T(b), F(c), T(c), F(e), R(a,b), R(a,c), R(b,d), R(c,e), R(d,g)";
        let out = run_line(&["rewrite", q, "--depth", "2", "--minimise", "true"]).unwrap();
        assert!(out.contains("minimised:"), "{out}");
    }

    #[test]
    fn classify_reports_path_class_on_paths() {
        let out = run_line(&["classify", "T(a), R(a,b), F(b)"]).unwrap();
        assert!(out.contains("path classification: NlComplete"), "{out}");
    }

    #[test]
    fn cactus_counts_and_dot() {
        let q = "F(x), R(y,x), R(y,z), T(z)";
        let out = run_line(&["cactus", q, "--depth", "3"]).unwrap();
        assert!(out.contains("cactuses of depth ≤ 3: 4"));
        let span2 = "F(x), R(x,y1), T(y1), S(x,y2), T(y2)";
        let out = run_line(&["cactus", span2, "--depth", "3", "--cap", "600"]).unwrap();
        assert!(out.contains("676 shapes exceed the cap 600"), "{out}");
        let dot = run_line(&["cactus", q, "--depth", "2", "--dot", "true"]).unwrap();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("s0 -> s1"));
    }

    #[test]
    fn dot_command_renders() {
        let out = run_line(&["dot", "F(x), R(x,y), T(y)"]).unwrap();
        assert!(out.starts_with("digraph"));
    }

    #[test]
    fn schemaorg_renders_dl_lite() {
        let out = run_line(&["schemaorg", "T(x), R(x,y), F(y)"]).unwrap();
        assert!(out.contains("DL-Lite"));
    }

    #[test]
    fn program_prints_the_paper_rules() {
        let out = run_line(&["program", "F(x), R(y,x), R(y,z), T(z)"]).unwrap();
        assert!(out.contains("Π_q"));
        assert!(out.contains("Σ_q"));
        assert!(out.contains("P(x0) ← T(x0)"));
        assert!(out.contains("linearity of Σ_q: Linear"));
    }

    #[test]
    fn classify_reports_rewritability_bound() {
        let out = run_line(&["classify", "F(x), R(y,x), R(y,z), T(z)"]).unwrap();
        assert!(out.contains("[22] upper bound"), "{out}");
        assert!(out.contains("SymmetricLinearDatalog"));
    }

    #[test]
    fn zoo_covers_q1_to_q5() {
        let out = run_line(&["zoo"]).unwrap();
        for n in ["q1", "q2", "q3", "q4", "q5"] {
            assert!(out.contains(n), "zoo missing {n}");
        }
        assert!(out.contains("coNP-complete"));
    }
}
