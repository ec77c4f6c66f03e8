//! Aggregate the rounds' raw samples into the run record and result line.
//!
//! The host this benchmark runs on is shared: neighbours slow memory- and
//! allocation-heavy code by up to half, in spells of seconds to hours, so
//! whole runs land in a fast or a slow mode and no statistic over one
//! run's rounds removes that. Every end-to-end time is therefore reported
//! at a fixed host pace: each phase process times the benchmark's own
//! calibration kernel every few milliseconds between requests, and its
//! times are scaled by [`CALIB_NOMINAL_US`] over that kernel's median in
//! the same process. The kernel shares no code or heap with the program,
//! so a change to the program moves the scaled times exactly as it moves
//! the measured ones; the record prints the measured ones beside them.
//! A median latency is then the mean over rounds of each round's median,
//! throughput is every main-phase request over their summed latency, and a
//! p99 is taken over the samples of every round.

use crate::stats::{mean, median, quantile, P99_MIN_SAMPLES};
use crate::workload::{Class, Workload};
use std::collections::BTreeMap;

/// The calibration kernel's time, in µs, at which measured times are
/// reported unscaled: about its median on the 2-core Xeon VM the bounds
/// were set on.
pub const CALIB_NOMINAL_US: f64 = 350.0;

/// What one phase process reported: `key value...` lines.
#[derive(Default)]
pub struct Out {
    values: BTreeMap<String, Vec<f64>>,
    errors: Vec<String>,
}

impl Out {
    pub fn parse(text: &str) -> Out {
        let mut out = Out::default();
        for line in text.lines() {
            if let Some(e) = line.strip_prefix("error ") {
                out.errors.push(e.to_owned());
                continue;
            }
            let mut words = line.split_whitespace();
            let Some(key) = words.next() else { continue };
            let values = words.filter_map(|w| w.parse().ok()).collect();
            out.values.insert(key.to_owned(), values);
        }
        out
    }

    fn get(&self, key: &str) -> &[f64] {
        self.values.get(key).map_or(&[], Vec::as_slice)
    }

    fn one(&self, key: &str) -> f64 {
        self.get(key).first().copied().unwrap_or(0.0)
    }

    /// The factor that takes this phase's measured times to the nominal
    /// host pace (1 when the phase timed no calibration).
    fn pace(&self) -> f64 {
        let calib = median(self.get("calib"));
        if calib > 0.0 {
            CALIB_NOMINAL_US / calib
        } else {
            1.0
        }
    }
}

/// One metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

/// The (main, complement) outputs of each round.
type Rounds = [(Out, Out)];

/// The phase output of `round` that carries class `c`.
fn carrier(workload: Workload, round: &(Out, Out), c: Class) -> &Out {
    if workload.main_mix().classes().contains(&c) {
        &round.0
    } else {
        &round.1
    }
}

fn pooled(rounds: &Rounds, pick: impl Fn(&(Out, Out)) -> Vec<&[f64]>) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| pick(r).into_iter().flatten().copied().collect::<Vec<_>>())
        .collect()
}

fn both(r: &(Out, Out)) -> [&Out; 2] {
    [&r.0, &r.1]
}

/// Print the record lines; return (correct, result line).
pub fn report(workload: Workload, trace: bool, rounds: &Rounds) -> (bool, String) {
    let total = |key: &str| -> u64 {
        rounds
            .iter()
            .flat_map(both)
            .map(|o| o.one(key) as u64)
            .sum()
    };
    let (attempted, failed) = (total("attempted"), total("failed"));
    for e in rounds.iter().flat_map(both).flat_map(|o| &o.errors) {
        println!("# error {e}");
    }
    for c in Class::ALL {
        let lat = pooled(rounds, |r| vec![carrier(workload, r, c).get(&lat_key(c))]);
        let per_round: Vec<String> = rounds
            .iter()
            .map(|r| format!("{:.1}", median(carrier(workload, r, c).get(&lat_key(c)))))
            .collect();
        let warn = if lat.len() < P99_MIN_SAMPLES {
            " (fewer samples than a p99 needs)"
        } else {
            ""
        };
        println!(
            "# class {} n={} measured p50_us_per_round=[{}] p99_us={}{warn}",
            c.name(),
            lat.len(),
            per_round.join(" "),
            quantile(&lat, 0.99).unwrap_or(0.0),
        );
    }
    let cpus: Vec<String> = rounds.iter().map(|r| r.0.one("cpu").to_string()).collect();
    println!("# cpu per round (-1 unpinned) [{}]", cpus.join(" "));
    let calib = pooled(rounds, |r| vec![r.0.get("calib"), r.1.get("calib")]);
    println!("# host.calib_us n={} p50={}", calib.len(), median(&calib));
    let paces: Vec<String> = rounds
        .iter()
        .map(|r| format!("{:.3}/{:.3}", r.0.pace(), r.1.pace()))
        .collect();
    println!(
        "# pace per round, main/complement (nominal {CALIB_NOMINAL_US} us over calib median) [{}]",
        paces.join(" ")
    );
    println!(
        "# failed_ratio {} ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    );
    let metrics = if trace {
        layer_metrics(workload, rounds, &calib)
    } else {
        end_to_end(workload, rounds)
    };
    let correct = failed == 0;
    (correct, result_json(correct, attempted, failed, &metrics))
}

fn lat_key(c: Class) -> String {
    format!("lat.{}", c.name())
}

fn end_to_end(workload: Workload, rounds: &Rounds) -> Vec<Metric> {
    let per_round = |f: &dyn Fn(&(Out, Out)) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let main_requests = |r: &(Out, Out)| -> f64 {
        Class::ALL
            .iter()
            .map(|&c| r.0.get(&lat_key(c)).len())
            .sum::<usize>() as f64
    };
    let busy = |r: &(Out, Out)| r.0.one("busy_s") * r.0.pace();
    let throughput = per_round(&|r| main_requests(r) / busy(r).max(1e-9));
    let setup = per_round(&|r| r.0.one("setup_s") * r.0.pace() + r.1.one("setup_s") * r.1.pace());
    let rss = per_round(&|r| r.0.one("rss_mb"));
    println!("# throughput_rps per round {throughput:?}");
    spread_line("throughput_rps", &throughput);
    println!("# setup_s per round {setup:?}");
    println!("# rss_mb per round {rss:?}");
    let mut m: Vec<Metric> = vec![(
        "throughput_rps".into(),
        per_round(&main_requests).iter().sum::<f64>()
            / per_round(&busy).iter().sum::<f64>().max(1e-9),
        "1/s",
    )];
    for c in Class::ALL {
        let lats: Vec<Vec<f64>> = rounds
            .iter()
            .map(|r| {
                let out = carrier(workload, r, c);
                let pace = out.pace();
                out.get(&lat_key(c)).iter().map(|l| l * pace).collect()
            })
            .collect();
        let p50s: Vec<f64> = lats.iter().map(|l| median(l)).collect();
        spread_line(&format!("{}_p50_us", c.name()), &p50s);
        m.push((format!("{}_p50_us", c.name()), mean(&p50s), "us"));
        m.push((
            format!("{}_p99_us", c.name()),
            quantile(&lats.concat(), 0.99).unwrap_or(0.0),
            "us",
        ));
    }
    m.push(("peak_rss_mb".into(), median(&rss), "MB"));
    m.push(("setup_s".into(), mean(&setup), "s"));
    m
}

/// Print a per-round metric's minimum, lower quartile, median and maximum
/// over the rounds: how the run's rounds split between the host's modes,
/// which the mean in the result line does not show.
fn spread_line(name: &str, per_round: &[f64]) {
    let q = |p: f64| quantile(per_round, p).unwrap_or(0.0);
    println!(
        "# {name} over rounds: min={} q1={} median={} max={}",
        q(0.0),
        q(0.25),
        q(0.5),
        q(1.0)
    );
}

/// Per-layer metrics of a traced run (p50 unless a count, ratio or
/// bytes), pooled over rounds and phases. A layer the workload never
/// calls reports 0.
fn layer_metrics(workload: Workload, rounds: &Rounds, calib: &[f64]) -> Vec<Metric> {
    let all = |key: &str| pooled(rounds, |r| vec![r.0.get(key), r.1.get(key)]);
    let sum = |key: &str, i: usize| -> f64 { all(key).chunks(2).map(|c| c[i]).sum::<f64>() };
    let ratio = |key: &str| sum(key, 0) / (sum(key, 0) + sum(key, 1)).max(1.0);
    let mut m: Vec<Metric> = Vec::new();
    let mut p50 = |name: &'static str, unit: &'static str| {
        let xs = all(&format!("layer.{name}"));
        println!("# layer {name} n={}", xs.len());
        m.push((name.into(), median(&xs), unit));
    };
    for name in [
        "catalog.mutate_us",
        "paged.apply_us",
        "index.apply_us",
        "incremental.carry_us",
    ] {
        p50(name, "us");
    }
    p50("catalog.shared_ratio", "ratio");
    p50("csr.freeze_us", "us");
    p50("csr.frozen_bytes", "bytes");
    for name in [
        "eval.rewriting_us",
        "eval.fixpoint_us",
        "eval.fixpoint_after_dpll_us",
        "eval.dpll_us",
        "plan.lookup_us",
        "plan.build_us",
        "hom.core_us",
        "classifier.trichotomy_us",
        "cactus.find_bound_us",
        "cactus.rewriting_us",
        "containment.minimise_us",
        "fo.render_us",
        "plan.compile_us",
        "wal.append_us",
        "wire.rtt_us",
        "wire.overhead_us",
        "frame.encode_us",
        "frame.decode_us",
    ] {
        p50(name, "us");
    }
    p50("wire.reply_bytes", "bytes");
    let freezes: f64 = all("count.csr.freezes").iter().sum();
    let reads: f64 = all("count.reads").iter().sum();
    m.push((
        "csr.freezes_per_read".into(),
        freezes / reads.max(1.0),
        "ratio",
    ));
    m.push(("plan_cache.hit_ratio".into(), ratio("plan_cache"), "ratio"));
    m.push((
        "answer_cache.hit_ratio".into(),
        ratio("answer_cache"),
        "ratio",
    ));
    m.push((
        "wal.bytes_per_op".into(),
        sum("wal", 0) / sum("wal", 1).max(1.0),
        "bytes",
    ));
    // Unattributed: untraced p50 minus the p50 of the traced layer sum.
    // Overhead: traced against untraced wall time, weighted by class.
    let (mut traced, mut untraced) = (0.0, 0.0);
    for c in Class::ALL {
        let pick = |key: String| pooled(rounds, |r| vec![carrier(workload, r, c).get(&key)]);
        let lat = pick(lat_key(c));
        let tsum = pick(format!("tsum.{}", c.name()));
        let twall = pick(format!("twall.{}", c.name()));
        let rest = if lat.is_empty() || tsum.is_empty() {
            0.0
        } else {
            median(&lat) - median(&tsum)
        };
        println!(
            "# unattributed {} untraced_n={} traced_n={} us={rest}",
            c.name(),
            lat.len(),
            tsum.len()
        );
        m.push((format!("server.unattributed_{}_us", c.name()), rest, "us"));
        traced += twall.len() as f64 * median(&twall);
        untraced += twall.len() as f64 * median(&lat);
    }
    m.push(("host.calib_us".into(), median(calib), "us"));
    m.push((
        "trace.overhead_ratio".into(),
        traced / untraced.max(1e-9),
        "ratio",
    ));
    m
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
