//! End-to-end and per-layer benchmark of `sirup-server`.
//!
//! ```text
//! e2ebench --workload <read_only|write_read|cold_plans>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run is a few rounds. Each round runs the workload's main phase in a
//! fresh child process, then the complement phase (the request classes
//! the main stream does not carry) in another; a child sets up, drives its
//! stream through the server's public API with one closed-loop client,
//! checks the answers and reports its raw samples, with the times of a
//! calibration kernel taken between requests. Fresh processes spread
//! heap-layout luck over the rounds, and the rounds take turns on the CPUs
//! the run may use (each phase process pinned to one). End-to-end times
//! are reported at a nominal host pace set by the calibration kernel
//! (see `report.rs`). The run record goes to standard output as `#`
//! lines; the last line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics untraced, per-layer metrics
//! traced). A wrong answer exits 1. See `README.md`.

mod host;
mod report;
mod run;
mod stats;
mod trace;
mod workload;

use report::Out;
use run::{run_phase, setup_inproc, setup_wire, verify, Bench, Record};
use stats::median;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use trace::Tracer;
use workload::{sub_seed, Class, Workload};

/// Rounds per run; each runs both phases in fresh processes.
const ROUNDS: u64 = 8;
/// Set-ups per phase process; its set-up time is their median.
const SETUP_REPEATS: usize = 3;

const USAGE: &str = "usage: e2ebench --workload <read_only|write_read|cold_plans> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Main,
    Complement,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Main => "main",
            Phase::Complement => "complement",
        }
    }
}

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a phase process: which phase, which round, its directory.
    phase: Option<(Phase, u64, PathBuf)>,
    /// Set in a phase process: the CPU to pin it to.
    cpu: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or_else(|| format!("missing {flag}"));
    let name = need("--workload")?.to_owned();
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = need("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = need("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?}")),
    };
    let phase = match get("--phase") {
        None => None,
        Some(p) => {
            let phase = match p {
                "main" => Phase::Main,
                "complement" => Phase::Complement,
                other => return Err(format!("bad --phase {other:?}")),
            };
            let round = need("--round")?.parse().map_err(|_| "bad --round")?;
            Some((phase, round, PathBuf::from(need("--dir")?)))
        }
    };
    let cpu = match get("--cpu") {
        None => None,
        Some(c) => Some(c.parse().map_err(|_| "bad --cpu")?),
    };
    Ok(Args {
        name,
        workload,
        seed,
        seconds,
        trace,
        phase,
        cpu,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match &args.phase {
        Some((phase, round, dir)) => phase_process(&args, *phase, *round, dir).map(|()| true),
        None => {
            let dir = run::run_dir(&args.name, args.seed);
            let outcome = run_rounds(&args, &dir);
            let _ = std::fs::remove_dir_all(&dir);
            outcome
        }
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

/// Run every round's phases as child processes, then print the record.
fn run_rounds(args: &Args, dir: &Path) -> Result<bool, String> {
    println!(
        "# e2ebench workload={} seed={} seconds={} trace={} rounds={ROUNDS}",
        args.name, args.seed, args.seconds, args.trace as u8
    );
    println!("# host {}", host::fingerprint());
    let exe = std::env::current_exe().map_err(|e| format!("locating the binary: {e}"))?;
    let cpus = host::allowed_cpus();
    let round_secs = args.seconds / ROUNDS as f64;
    // Each phase gets time in proportion to the classes it carries.
    let (n_main, n_comp) = (
        args.workload.main_mix().classes().len(),
        args.workload.complement_mix().classes().len(),
    );
    let main_share = n_main as f64 / (n_main + n_comp) as f64;
    let mut rounds = Vec::with_capacity(ROUNDS as usize);
    for round in 0..ROUNDS {
        let cpu = (!cpus.is_empty()).then(|| cpus[round as usize % cpus.len()]);
        let mut pair = Vec::with_capacity(2);
        for (phase, share) in [
            (Phase::Main, main_share),
            (Phase::Complement, 1.0 - main_share),
        ] {
            let mut cmd = Command::new(&exe);
            if let Some(cpu) = cpu {
                cmd.args(["--cpu", &cpu.to_string()]);
            }
            let out = cmd
                .args(["--workload", &args.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &(round_secs * share).to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .args(["--phase", phase.name(), "--round", &round.to_string()])
                .arg("--dir")
                .arg(dir.join(format!("r{round}-{}", phase.name())))
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("starting a phase process: {e}"))?;
            if !out.status.success() {
                return Err(format!(
                    "round {round} {} phase failed ({})",
                    phase.name(),
                    out.status
                ));
            }
            pair.push(Out::parse(&String::from_utf8_lossy(&out.stdout)));
        }
        let comp = pair.pop().expect("two phases");
        let main = pair.pop().expect("two phases");
        rounds.push((main, comp));
    }
    let (correct, line) = report::report(args.workload, args.trace, &rounds);
    println!("{line}");
    Ok(correct)
}

/// Set up one phase's target.
fn setup(args: &Args, phase: Phase, dir: &Path) -> Result<Bench, String> {
    let classes = match phase {
        Phase::Main => args.workload.main_mix().classes(),
        // Over the wire only when traced: untraced, the durable daemon's
        // fsync and cross-thread wake-ups would set the run's spread.
        Phase::Complement if args.trace && args.workload.complement_over_wire() => {
            return setup_wire(dir)
        }
        Phase::Complement => args.workload.complement_mix().classes(),
    };
    Ok(setup_inproc(
        classes.iter().any(|&c| c != Class::Cold),
        classes.contains(&Class::Cold),
    ))
}

/// One phase in this process: set up (several times), run, check, and
/// print the raw samples for the parent as `key value...` lines.
fn phase_process(args: &Args, phase: Phase, round: u64, dir: &Path) -> Result<(), String> {
    // Pinning is best effort: a refused pin leaves the process unpinned.
    let pinned = args.cpu.is_some_and(host::pin_to);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut bench: Option<Bench> = None;
    for i in 0..SETUP_REPEATS {
        if let Some(old) = bench.take() {
            old.shutdown();
        }
        let t0 = Instant::now();
        let b = setup(args, phase, &dir.join(format!("setup-{i}")))?;
        setups.push(t0.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");
    if let Some(m) = &mut bench.model {
        m.solve_base();
    }
    let mix = match phase {
        Phase::Main => args.workload.main_mix(),
        Phase::Complement => args.workload.complement_mix(),
    };
    let mut tracer = args.trace.then(Tracer::new);
    let mut rec = Record::default();
    let seed = sub_seed(args.seed, 1 + round) ^ phase as u64;
    let wal_before = bench.server().wal_stats().map(|(_, bytes)| bytes);
    run_phase(
        &mut bench,
        mix,
        args.seconds,
        seed,
        tracer.as_mut(),
        &mut rec,
    );
    let wal_after = bench.server().wal_stats().map(|(_, bytes)| bytes);
    verify(&bench, &mut rec);
    let (plan_hits, plan_misses) = bench.server().plan_cache().stats();
    let (answer_hits, answer_misses) = bench.server().answer_cache_stats();
    bench.shutdown();

    let mut out = String::new();
    let mut line = |key: &str, values: &[f64]| {
        out.push_str(key);
        for v in values {
            let _ = write!(out, " {v}");
        }
        out.push('\n');
    };
    for c in Class::ALL {
        line(&format!("lat.{}", c.name()), &rec.lat[c.index()]);
    }
    line("busy_s", &[rec.busy_s]);
    line("setup_s", &[median(&setups)]);
    line("rss_mb", &[rec.rss_mb.unwrap_or_else(host::peak_rss_mb)]);
    line("attempted", &[rec.attempted as f64]);
    line("failed", &[rec.failed as f64]);
    line("calib", &rec.calib);
    line(
        "cpu",
        &[args.cpu.filter(|_| pinned).map_or(-1.0, |c| c as f64)],
    );
    if let Some(t) = &tracer {
        for (name, xs) in t.samples() {
            line(&format!("layer.{name}"), xs);
        }
        for (name, n) in t.counts() {
            line(&format!("count.{name}"), &[*n as f64]);
        }
        for c in Class::ALL {
            line(&format!("twall.{}", c.name()), &rec.traced_wall[c.index()]);
            line(&format!("tsum.{}", c.name()), &rec.traced_sum[c.index()]);
        }
        line("plan_cache", &[plan_hits as f64, plan_misses as f64]);
        line("answer_cache", &[answer_hits as f64, answer_misses as f64]);
        if let (Some(b), Some(a)) = (wal_before, wal_after) {
            line("wal", &[(a - b) as f64, rec.ops as f64]);
        }
        let path = Path::new(".bench_out").join(format!(
            "spans-{}-{}-r{round}-{}.tsv",
            args.name,
            args.seed,
            phase.name()
        ));
        std::fs::create_dir_all(".bench_out")
            .and_then(|()| t.write(&path))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    for e in &rec.errors {
        let _ = writeln!(out, "error {}", e.replace('\n', " "));
    }
    print!("{out}");
    Ok(())
}
