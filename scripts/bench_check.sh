#!/usr/bin/env bash
# Bench-regression smoke: run the criterion-shim benches in quick mode and
# gate on the checks below — every failure names the specific bar (and the
# baseline file it came from), never a bare exit code:
#
#  1. absolute: every *named hot-path point* must stay within
#     BENCH_CHECK_FACTOR (default 2.0) of the mean committed in the
#     corresponding BENCH_*.json (set the factor higher on noisy shared
#     runners, lower for local pre-commit runs);
#  2. relative (machine-independent): single-fact incremental maintenance
#     must stay ≥ 5x faster per op than from-scratch re-evaluation on the
#     fixpoint-shaped ladder — the acceptance bar of the incremental
#     subsystem, measured within the fresh run so it cannot be fooled by a
#     uniformly faster or slower machine;
#  3. parallel scaling (core-aware): on hosts with ≥ 4 CPUs, the
#     large-instance exists and fixpoint points must run ≥
#     BENCH_PARALLEL_MIN_SPEEDUP (default 2.0) x faster at 4 scheduler
#     workers than at 1 — the intra-request-parallelism acceptance bar.
#     On smaller hosts the bar cannot be measured here; it is then only
#     acceptable if the *committed* BENCH_parallel.json proves the bar was
#     demonstrated on capable hardware (meta.host_cores ≥ 4). A small host
#     checking against a small-host baseline means the ≥2x bar has never
#     been enforced anywhere — that is a hard failure, not a silent skip
#     (set BENCH_PARALLEL_ACCEPT_STALE=1 to downgrade it to a warning
#     while a multicore re-record is pending);
#  4. telemetry overhead (machine-independent): the warm 4-thread submit
#     with the metrics registry on must stay within
#     BENCH_TELEMETRY_MAX_OVERHEAD (default 1.25 in quick mode; the <5%
#     acceptance figure is demonstrated at long windows and recorded in
#     BENCH_server.json) of the registry-off point from the same run.
#  5. flat writes (machine-independent): the 32-op mutation batch against
#     a 100x-size instance must stay within BENCH_FLAT_WRITE_MAX (default
#     2.0) of the same batch against the 1x instance, measured within the
#     fresh run — the acceptance bar of the page-granular copy-on-write
#     snapshot path (a reintroduced O(instance) clone fails it instantly).
#  6. flat write-then-read (machine-independent): 16 mutations each followed
#     by a q5 read against the 100x instance must stay within the same
#     BENCH_FLAT_WRITE_MAX of the 1x run — the CSR read view is carried
#     across writes, so no read after a write re-freezes the instance.
#     Writes with a materialisation attached
#     (`server_mutation_scale/maintained`) get the same bar: the
#     materialisation carried by each write copies its base's page table
#     and one n-bit row per IDB predicate, and keeps no per-fact table.
#
# Usage: scripts/bench_check.sh
#   env: BENCH_CHECK_FACTOR=2.0  BENCH_PARALLEL_MIN_SPEEDUP=2.0
#        CRITERION_SHIM_MEASURE_MS=25  BENCH_PARALLEL_ACCEPT_STALE=1
#        BENCH_TELEMETRY_MAX_OVERHEAD=1.05  BENCH_FLAT_WRITE_MAX=2.0
set -euo pipefail
cd "$(dirname "$0")/.."

FACTOR="${BENCH_CHECK_FACTOR:-2.0}"
PAR_SPEEDUP="${BENCH_PARALLEL_MIN_SPEEDUP:-2.0}"
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

export CRITERION_SHIM_MEASURE_MS="${CRITERION_SHIM_MEASURE_MS:-25}"
export CRITERION_SHIM_JSON="$OUT"
export BENCH_PARALLEL_MIN_SPEEDUP="$PAR_SPEEDUP"

cargo bench -p sirup-bench \
  --bench hom_plan \
  --bench kernel_hot \
  --bench server_throughput \
  --bench engine_incremental \
  --bench server_mutation \
  --bench parallel_scaling

python3 - "$OUT" "$FACTOR" <<'EOF'
import json, os, sys

fresh_path, factor = sys.argv[1], float(sys.argv[2])
par_bar = float(os.environ.get("BENCH_PARALLEL_MIN_SPEEDUP", "2.0"))
fresh = {}
fresh_min = {}
for line in open(fresh_path):
    line = line.strip()
    if line:
        p = json.loads(line)
        fresh[p["id"]] = p["mean_ns"]
        fresh_min[p["id"]] = p["min_ns"]

# The named hot-path points, per committed baseline file.
WATCH = {
    "BENCH_hom.json": [
        "hom_plan/planned_exists/4",
        "hom_plan/planned_pinned_sweep",
        "hom_plan/planned_enumerate",
        "kernel_hot/intersect/16384",
        "kernel_hot/count_and/16384",
        "kernel_hot/csr_out_scan",
        "kernel_hot/freeze_4096",
    ],
    "BENCH_server.json": [
        "server/submit_warm_96req/4",
        "server/replay_closed_96req_4t",
    ],
    "BENCH_incremental.json": [
        "incremental/maintain_local_pair/24",
        "incremental/maintain_cascade_pair/24",
        "server_mutation/mutation_submit_32req/4",
        "server_mutation/replay_mixed_mutations_4t",
        "server_mutation_scale/32req/1x",
        "server_mutation_scale/32req/100x",
        "server_mutation_scale/write_read/1x",
        "server_mutation_scale/write_read/100x",
        "server_mutation_scale/maintained/1x",
        "server_mutation_scale/maintained/100x",
    ],
    "BENCH_parallel.json": [
        "parallel/seq_exists",
        "parallel/seq_fixpoint",
        "parallel/exists/4",
        "parallel/fixpoint/4",
    ],
}

# Every entry names the bar that failed and the baseline file it is
# checked against, so a red CI run points straight at the culprit.
failures = []
print(f"\nbench_check: factor {factor}x vs committed means")
for path, ids in WATCH.items():
    committed = {r["id"]: r["mean_ns"] for r in json.load(open(path))["results"]}
    for pid in ids:
        bar = f"[{path}] {pid}"
        if pid not in committed:
            failures.append(f"{bar}: baseline point missing from {path}")
            continue
        if pid not in fresh:
            failures.append(f"{bar}: not produced by this run")
            continue
        ratio = fresh[pid] / committed[pid]
        verdict = "ok" if ratio <= factor else "REGRESSION"
        print(f"  {verdict:>10}  {bar}: {fresh[pid]:,.0f} ns vs {committed[pid]:,.0f} ns ({ratio:.2f}x)")
        if ratio > factor:
            failures.append(f"{bar}: {ratio:.2f}x over the committed mean (allowed {factor}x)")

# Machine-independent acceptance bar of the CSR substrate: the same plan
# executions on live paged reads vs. on an attached FrozenStructure
# snapshot, within this run. The frozen points must be >= 1.3x faster on
# the exists and pinned-sweep shapes (the CSR-substrate PR's target).
csr_bar = 1.3
for live_id, frozen_id in (
    ("hom_plan/planned_exists_live/4", "hom_plan/planned_exists/4"),
    ("hom_plan/planned_pinned_sweep_live", "hom_plan/planned_pinned_sweep"),
):
    bar = f"[csr] {frozen_id} vs live reads"
    if live_id not in fresh or frozen_id not in fresh:
        failures.append(f"{bar}: points missing from this run")
        continue
    mean_speedup = fresh[live_id] / fresh[frozen_id]
    min_speedup = fresh_min[live_id] / fresh_min[frozen_id]
    speedup = max(mean_speedup, min_speedup)  # noisy-runner treatment as below
    verdict = "ok" if speedup >= csr_bar else "REGRESSION"
    print(f"  {verdict:>10}  {bar}: {speedup:.2f}x "
          f"(mean {mean_speedup:.2f}x, best-sample {min_speedup:.2f}x, bar: {csr_bar}x)")
    if speedup < csr_bar:
        failures.append(
            f"{bar}: only {speedup:.2f}x faster than live paged reads (bar: {csr_bar}x)")

# Machine-independent acceptance bar: per-op maintenance (the pair point
# holds two ops) at least 5x below from-scratch on the same run.
for layers in ("8", "24"):
    bar = f"[incremental] maintenance speedup @{layers} layers"
    scratch = fresh.get(f"incremental/from_scratch/{layers}")
    pair = fresh.get(f"incremental/maintain_local_pair/{layers}")
    if scratch is None or pair is None:
        failures.append(f"{bar}: points missing from this run")
        continue
    speedup = scratch / (pair / 2.0)
    verdict = "ok" if speedup >= 5.0 else "REGRESSION"
    print(f"  {verdict:>10}  {bar}: {speedup:.1f}x (bar: 5x)")
    if speedup < 5.0:
        failures.append(f"{bar}: only {speedup:.1f}x faster than from-scratch (bar: 5x)")

# Telemetry must be near-free on the warm path: the same 4-thread warm
# batch with the metrics registry on vs off, within this run. The spine's
# acceptance bar is <5% overhead (demonstrated in BENCH_server.json's
# meta.note at 150 ms windows); quick 25 ms windows on shared 1-core
# runners see ±15% scheduling noise on either point, so the gated figure
# is the *less noisy* of the mean ratio and the best-sample ratio (a real
# regression — e.g. a counter taking a lock — raises both; one-sided
# noise inflates only one), against a padded 1.25x default. Override
# with BENCH_TELEMETRY_MAX_OVERHEAD for a strict long-window local run.
tel_bar = float(os.environ.get("BENCH_TELEMETRY_MAX_OVERHEAD", "1.25"))
bar = "[telemetry] warm submit overhead (registry on vs off)"
on_id, off_id = "server/submit_warm_96req/4", "server/submit_warm_96req_telemetry_off/4"
if on_id not in fresh or off_id not in fresh:
    failures.append(f"{bar}: points missing from this run")
else:
    mean_ratio = fresh[on_id] / fresh[off_id]
    min_ratio = fresh_min[on_id] / fresh_min[off_id]
    ratio = min(mean_ratio, min_ratio)
    verdict = "ok" if ratio <= tel_bar else "REGRESSION"
    print(f"  {verdict:>10}  {bar}: {ratio:.3f}x "
          f"(mean {mean_ratio:.3f}x, best-sample {min_ratio:.3f}x, bar: {tel_bar}x)")
    if ratio > tel_bar:
        failures.append(f"{bar}: {ratio:.3f}x > {tel_bar}x over the telemetry-off run")

# Flat writes: identical 32-op mutation batches against 1x / 100x
# instances from the same run. With page-granular copy-on-write snapshots
# the per-op write cost is O(touched pages), so the ratio stays near 1;
# any reintroduced O(instance) work in the mutation path (a full clone, a
# per-mutation instance walk) blows straight through the 2x bar.
# The write-then-read sweep gets the same bar: a read after a write must
# not pay an O(instance) re-freeze of the CSR view. So do the writes that
# carry a maintained Σ_q4 materialisation forward.
flat_bar = float(os.environ.get("BENCH_FLAT_WRITE_MAX", "2.0"))
for shape, bar, cause in (
    ("32req", "[flat-writes] mutation batch 100x-vs-1x instance",
     "write latency is no longer flat in instance size "
     "(O(instance) work is back in the mutation path)"),
    ("write_read", "[flat-write-read] write-then-read 100x-vs-1x instance",
     "a read after a write is no longer flat in instance size "
     "(the CSR view is re-frozen instead of carried)"),
    ("maintained", "[flat-maintained] maintained writes 100x-vs-1x instance",
     "a write that carries a materialisation is no longer flat in instance "
     "size (the carry copies or walks O(instance) state)"),
):
    one_id = f"server_mutation_scale/{shape}/1x"
    hundred_id = f"server_mutation_scale/{shape}/100x"
    if one_id not in fresh or hundred_id not in fresh:
        failures.append(f"{bar}: points missing from this run")
        continue
    mean_ratio = fresh[hundred_id] / fresh[one_id]
    min_ratio = fresh_min[hundred_id] / fresh_min[one_id]
    ratio = min(mean_ratio, min_ratio)  # same noise treatment as telemetry
    verdict = "ok" if ratio <= flat_bar else "REGRESSION"
    print(f"  {verdict:>10}  {bar}: {ratio:.2f}x "
          f"(mean {mean_ratio:.2f}x, best-sample {min_ratio:.2f}x, bar: {flat_bar}x)")
    if ratio > flat_bar:
        failures.append(f"{bar}: {ratio:.2f}x > {flat_bar}x — {cause}")

# Intra-request parallel scaling: 4 scheduler workers vs 1 on the same
# run's large-instance points. Enforced directly on hosts with >= 4 CPUs.
# On smaller hosts the run itself cannot show wall-clock speedup, so the
# bar falls back to the committed baseline's provenance: if that was also
# recorded on a small host (meta.host_cores < 4), the >= par_bar claim has
# never been checked anywhere — fail loudly instead of skipping silently.
cores = os.cpu_count() or 1
baseline_cores = json.load(open("BENCH_parallel.json"))["meta"].get("host_cores", 0)
accept_stale = os.environ.get("BENCH_PARALLEL_ACCEPT_STALE", "") == "1"
for point in ("exists", "fixpoint"):
    bar = f"[parallel] {point} 4-vs-1-worker speedup"
    one = fresh.get(f"parallel/{point}/1")
    four = fresh.get(f"parallel/{point}/4")
    if one is None or four is None:
        failures.append(f"{bar}: points missing from this run")
        continue
    speedup = one / four
    if cores >= 4:
        verdict = "ok" if speedup >= par_bar else "REGRESSION"
        print(f"  {verdict:>10}  {bar}: {speedup:.2f}x (bar: {par_bar}x, {cores} cores)")
        if speedup < par_bar:
            failures.append(f"{bar}: {speedup:.2f}x < {par_bar}x on a {cores}-core host")
    elif baseline_cores >= 4:
        print(f"   WARNING  {bar}: SKIPPED on this host — host_cores {cores} < 4, so the "
              f">= {par_bar}x bar cannot be measured here; it stands on the committed "
              f"BENCH_parallel.json (meta.host_cores {baseline_cores}). This run's "
              f"(ungated) figure: {speedup:.2f}x")
    elif accept_stale:
        print(f"   WARNING  {bar}: UNENFORCED — this host has {cores} core(s) and the "
              f"committed BENCH_parallel.json was recorded on {baseline_cores} core(s); "
              f"accepted because BENCH_PARALLEL_ACCEPT_STALE=1")
    else:
        failures.append(
            f"{bar}: NEVER ENFORCED — this host has {cores} core(s) and the committed "
            f"BENCH_parallel.json was recorded on {baseline_cores} core(s), so the "
            f">= {par_bar}x bar has been checked nowhere. Re-record BENCH_parallel.json "
            f"on a >= 4-core machine (see its meta.note), or set "
            f"BENCH_PARALLEL_ACCEPT_STALE=1 to acknowledge the gap")

if failures:
    print("\nbench_check FAILED — the bars that regressed:")
    for f in failures:
        print(f"  - {f}")
    sys.exit(1)
print("\nbench_check passed")
EOF
