//! Process-wide telemetry: a metrics registry and a request-tracing facility.
//!
//! Two cooperating pieces, both global to the process so every layer
//! (scheduler, evaluators, catalog, WAL, wire) reports into one place:
//!
//! * **Metrics registry** — named [`Counter`]s (sharded atomics), [`Gauge`]s,
//!   and log2-bucketed latency [`Family`] histograms with fixed-size bucket
//!   arrays: recording is a handful of relaxed atomic adds, never an
//!   allocation, and per-worker shards merge at snapshot time. On top of the
//!   fixed families sits a per-`(program, instance)` table fed by the
//!   executor — strategy counts, a service-time histogram, and result
//!   cardinalities — which `sirupctl top` renders.
//! * **Tracing** — each request opens a root span (fresh id from a process
//!   counter); timed child spans wrap plan compile, the AC-3 prefilter,
//!   backtracking search, semi-naive rounds, DPLL checks, incremental
//!   cascades, cache lookups, mutation applies, WAL append/fsync, and frame
//!   encode/decode. Finished spans land in a fixed-capacity per-thread ring
//!   buffer; [`recent_spans`] merges the rings for the `trace` wire verb and
//!   the slow-query log.
//!
//! Both halves are independently switchable. Metrics default **on** (the
//!   registry is the product); tracing defaults **off** because child spans
//!   on the hot evaluation path cost two clock reads plus a ring push each —
//!   the daemon turns tracing on at startup, where per-request wire overhead
//!   dwarfs it. When a switch is off the corresponding record call is a
//!   single relaxed load and branch; a disabled [`SpanGuard`] holds no clock
//!   reading at all. `SIRUP_TELEMETRY=0` in the environment disables metrics
//!   at first use; `SIRUP_TRACE=1` force-enables tracing.
//!
//! The percentile convention everywhere is **nearest-rank** (see
//! [`nearest_rank`]): the p-th percentile of n samples is the value at
//! 1-based rank ⌈p/100·n⌉. Histogram quantiles apply the same rank to the
//! cumulative bucket counts and report the matched bucket's upper bound.
//!
//! ```
//! use sirup_core::telemetry::{self, Counter};
//! use std::time::Duration;
//!
//! // Counters are process-global and monotone; snapshots are consistent
//! // merges of the per-worker shards.
//! let before = telemetry::snapshot().counter("sirup_requests_total");
//! telemetry::record_request("F(x), R(x,y), T(y)", "doc", "semi-naive",
//!                           Duration::from_micros(30), Duration::from_micros(120), 1);
//! let snap = telemetry::snapshot();
//! assert_eq!(snap.counter("sirup_requests_total"), before + 1);
//! // The per-(program, instance) table feeds `sirupctl top`.
//! assert!(snap.keys.iter().any(|k| k.instance == "doc"));
//! // And the whole registry renders as a Prometheus exposition.
//! assert!(snap.to_prometheus().contains("# TYPE sirup_requests_total counter"));
//! ```

use crate::fx::FxHashMap;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Number of log2 buckets per histogram. Bucket `i > 0` holds values `v`
/// (microseconds) with `2^(i-1) <= v < 2^i`; bucket 0 holds `v == 0`. The
/// last bucket is open-ended, so 2^30 µs (≈ 18 minutes) saturates the scale.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Shards per counter — spreads hot counters (frames, rounds) across cache
/// lines so concurrent workers don't serialise on one atomic.
const COUNTER_SHARDS: usize = 8;

/// Shards for the per-(program, instance) table.
const KEY_SHARDS: usize = 8;

/// Most rows the per-(program, instance) table holds: past this, recording
/// a new key evicts the least recently recorded rows of its shard, so
/// cold-program traffic cannot grow the table without bound.
const MAX_KEYS: usize = 4096;

/// Capacity of each per-thread span ring.
const RING_CAPACITY: usize = 1024;

/// Child spans recorded per root request span before further children are
/// dropped (keeps a pathological search from flooding the rings).
const SPAN_BUDGET: u32 = 64;

// ---------------------------------------------------------------------------
// Names
// ---------------------------------------------------------------------------

/// Monotone event counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Requests completed by the executor or the inline wire path.
    RequestsTotal,
    /// Poisoned locks recovered by `core::sync` (a holder panicked).
    LockPoisonRecovered,
    /// WAL records appended.
    WalAppends,
    /// WAL compactions performed.
    WalCompactions,
    /// Frames encoded (wire replies + WAL records).
    FramesEncoded,
    /// Frames decoded from a stream.
    FramesDecoded,
    /// Semi-naive evaluation rounds across all fixpoints.
    SemiNaiveRounds,
    /// DPLL-style disjunctive certain-answer evaluations (one per `Δ_q`
    /// read, however deep its search goes).
    DpllChecks,
    /// DPLL branching nodes explored across all evaluations (exactly one
    /// for an evaluation that the root's bound checks settle).
    DpllBranches,
    /// Homomorphism checks (lower- and upper-bound) run by DPLL searches.
    DpllHomChecks,
    /// AC-3 prefilter runs.
    Ac3Runs,
    /// Backtracking homomorphism searches started.
    BacktrackSearches,
    /// Plan-execution domains seeded from a pin: the pinned variable's
    /// singleton, or the admissible neighbours of an already seeded
    /// neighbour's domain (a read of the pin's neighbourhood).
    HomAnchoredSeeds,
    /// Plan-execution domains seeded over the whole instance: bitmap-row
    /// intersection or a node scan.
    HomUniverseSeeds,
    /// Incremental fact cascades applied to live materialisations.
    IncrementalCascades,
    /// Query plans compiled (plan-cache misses).
    PlanCompiles,
    /// Cactuses built from a shape (Prop. 2 checks and rewriting
    /// enumerations inside plan builds).
    CactusBuilds,
    /// Cactus-into-cactus embedding checks run by Prop. 2 checks.
    CactusEmbeds,
    /// Mutation batches applied to the catalog.
    MutationsApplied,
    /// Scheduler steals (tasks taken from another worker's deque).
    SchedSteals,
    /// Scheduler worker parks (idle waits).
    SchedParks,
    /// Scheduler jobs spawned.
    SchedJobs,
    /// Storage pages copied on write (a shared page had to be cloned
    /// before mutation — the catalog's per-write allocation unit).
    PageCow,
    /// CSR overlay folds: a maintained read view merged the rows patched
    /// since its last fold back into fresh base arrays.
    CsrOverlayFolds,
    /// Per-(program, instance) telemetry rows evicted (least recently
    /// recorded first) to keep the table within its fixed capacity.
    TelemetryKeysEvicted,
}

const COUNTERS: &[(Counter, &str)] = &[
    (Counter::RequestsTotal, "sirup_requests_total"),
    (
        Counter::LockPoisonRecovered,
        "sirup_lock_poison_recovered_total",
    ),
    (Counter::WalAppends, "sirup_wal_appends_total"),
    (Counter::WalCompactions, "sirup_wal_compactions_total"),
    (Counter::FramesEncoded, "sirup_frames_encoded_total"),
    (Counter::FramesDecoded, "sirup_frames_decoded_total"),
    (Counter::SemiNaiveRounds, "sirup_seminaive_rounds_total"),
    (Counter::DpllChecks, "sirup_dpll_checks_total"),
    (Counter::DpllBranches, "sirup_dpll_branches_total"),
    (Counter::DpllHomChecks, "sirup_dpll_hom_checks_total"),
    (Counter::Ac3Runs, "sirup_ac3_runs_total"),
    (Counter::BacktrackSearches, "sirup_backtrack_searches_total"),
    (Counter::HomAnchoredSeeds, "sirup_hom_anchored_seeds_total"),
    (Counter::HomUniverseSeeds, "sirup_hom_universe_seeds_total"),
    (
        Counter::IncrementalCascades,
        "sirup_incremental_cascades_total",
    ),
    (Counter::PlanCompiles, "sirup_plan_compiles_total"),
    (Counter::CactusBuilds, "sirup_cactus_builds_total"),
    (Counter::CactusEmbeds, "sirup_cactus_embeds_total"),
    (Counter::MutationsApplied, "sirup_mutations_applied_total"),
    (Counter::SchedSteals, "sirup_scheduler_steals_total"),
    (Counter::SchedParks, "sirup_scheduler_parks_total"),
    (Counter::SchedJobs, "sirup_scheduler_jobs_total"),
    (Counter::PageCow, "sirup_catalog_page_cow_total"),
    (Counter::CsrOverlayFolds, "sirup_csr_overlay_folds_total"),
    (
        Counter::TelemetryKeysEvicted,
        "sirup_telemetry_keys_evicted_total",
    ),
];

/// Instantaneous values (set / add / monotone max).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gauge {
    /// Deepest per-worker queue observed by any scheduler.
    QueueDepthMax,
    /// Workers currently parked (idle) across all schedulers.
    WorkersParked,
    /// Worker threads started across all schedulers.
    WorkersTotal,
    /// Heap bytes retained across catalog snapshots that are physically
    /// shared between the live instance versions (structural sharing).
    CatalogBytesShared,
}

const GAUGES: &[(Gauge, &str)] = &[
    (Gauge::QueueDepthMax, "sirup_scheduler_queue_depth_max"),
    (Gauge::WorkersParked, "sirup_scheduler_workers_parked"),
    (Gauge::WorkersTotal, "sirup_scheduler_workers"),
    (Gauge::CatalogBytesShared, "sirup_catalog_bytes_shared"),
];

/// Latency histogram families (all in microseconds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// End-to-end request latency, queue wait + service (all programs and
    /// instances merged).
    RequestLatency,
    /// A request's time before its run step: for a batch job, from its
    /// enqueue; for an inline request (the wire), from arrival, i.e. its
    /// resolve step (plan lookup or build). A batch's writes and
    /// answer-cache hits run at their turn and record none.
    QueueWait,
    /// `Plan::build`: boundedness evidence + strategy compilation.
    PlanCompile,
    /// Plan/answer cache probes (including the build on a miss).
    CacheLookup,
    /// AC-3 prefilter.
    Ac3,
    /// Backtracking homomorphism search.
    Backtrack,
    /// Semi-naive fixpoint computation.
    SemiNaiveFixpoint,
    /// DPLL-style disjunctive check.
    Dpll,
    /// Incremental cascade over a live materialisation.
    IncrementalCascade,
    /// Catalog mutation apply (data clone + patch, view carry,
    /// materialisation carry, swap).
    MutationApply,
    /// Materialisation carry-forward during a mutation.
    MatCarry,
    /// WAL record append (write + frame encode, excluding fsync).
    WalAppend,
    /// WAL fsync (`sync_data`).
    WalFsync,
    /// WAL compaction (snapshot rewrite + log reset).
    WalCompact,
    /// Frame encode (header + checksum + payload write).
    FrameEncode,
    /// Frame decode (payload read + checksum verify, after the header).
    FrameDecode,
    /// CSR read-view freeze from scratch (an instance load or restore).
    CsrFreeze,
    /// CSR read-view carry across a mutation (clone +
    /// `FrozenStructure::apply_all`).
    CsrCarry,
}

const FAMILIES: &[(Family, &str)] = &[
    (Family::RequestLatency, "sirup_request_latency_us"),
    (Family::QueueWait, "sirup_queue_wait_us"),
    (Family::PlanCompile, "sirup_plan_compile_us"),
    (Family::CacheLookup, "sirup_cache_lookup_us"),
    (Family::Ac3, "sirup_ac3_us"),
    (Family::Backtrack, "sirup_backtrack_us"),
    (Family::SemiNaiveFixpoint, "sirup_seminaive_fixpoint_us"),
    (Family::Dpll, "sirup_dpll_us"),
    (Family::IncrementalCascade, "sirup_incremental_cascade_us"),
    (Family::MutationApply, "sirup_mutation_apply_us"),
    (Family::MatCarry, "sirup_materialisation_carry_us"),
    (Family::WalAppend, "sirup_wal_append_us"),
    (Family::WalFsync, "sirup_wal_fsync_us"),
    (Family::WalCompact, "sirup_wal_compact_us"),
    (Family::FrameEncode, "sirup_frame_encode_us"),
    (Family::FrameDecode, "sirup_frame_decode_us"),
    (Family::CsrFreeze, "sirup_csr_freeze_us"),
    (Family::CsrCarry, "sirup_csr_carry_us"),
];

impl Family {
    /// Trace-only families record (histogram and span) only while tracing
    /// is on: they time hot inner evaluation sites — AC-3, backtracking,
    /// fixpoints, DPLL, cascades — where even two clock reads per call
    /// would tax the warm metrics-only path. Each pairs with an always-on
    /// counter. [`timed`] reads this, and the exposition says it.
    pub(crate) const fn trace_only(self) -> bool {
        matches!(
            self,
            Family::Ac3
                | Family::Backtrack
                | Family::SemiNaiveFixpoint
                | Family::Dpll
                | Family::IncrementalCascade
        )
    }
}

/// Strategy labels tracked per (program, instance). Index 5 collects any
/// future strategy name not in the fixed set.
const STRATEGIES: [&str; 6] = [
    "rewriting",
    "semi-naive",
    "dpll",
    "mutation",
    "cached",
    "other",
];

fn strategy_slot(name: &str) -> usize {
    STRATEGIES
        .iter()
        .position(|s| *s == name)
        .unwrap_or(STRATEGIES.len() - 1)
}

// ---------------------------------------------------------------------------
// Percentiles (shared nearest-rank convention)
// ---------------------------------------------------------------------------

/// Nearest-rank percentile: the 1-based rank of the p-th percentile among
/// `n` sorted samples, `⌈p/100 · n⌉` clamped to `1..=n`. Returns 0 when
/// `n == 0`.
pub fn nearest_rank(n: u64, pct: f64) -> u64 {
    if n == 0 {
        return 0;
    }
    let rank = (pct / 100.0 * n as f64).ceil() as u64;
    rank.clamp(1, n)
}

// ---------------------------------------------------------------------------
// Switches
// ---------------------------------------------------------------------------

static METRICS_ON: AtomicBool = AtomicBool::new(true);
static TRACING_ON: AtomicBool = AtomicBool::new(false);
static ENV_READ: AtomicBool = AtomicBool::new(false);

fn read_env_once() {
    if ENV_READ.swap(true, Ordering::Relaxed) {
        return;
    }
    if let Ok(v) = std::env::var("SIRUP_TELEMETRY") {
        if v == "0" || v.eq_ignore_ascii_case("off") {
            METRICS_ON.store(false, Ordering::Relaxed);
        }
    }
    if let Ok(v) = std::env::var("SIRUP_TRACE") {
        if v == "1" || v.eq_ignore_ascii_case("on") {
            TRACING_ON.store(true, Ordering::Relaxed);
        }
    }
}

/// Is the metrics registry recording?
#[inline]
pub fn enabled() -> bool {
    METRICS_ON.load(Ordering::Relaxed)
}

/// Turn the metrics registry on or off (off = every record call is a load
/// and a branch).
pub fn set_enabled(on: bool) {
    read_env_once();
    METRICS_ON.store(on, Ordering::Relaxed);
}

/// Is span tracing recording?
#[inline]
pub fn tracing_enabled() -> bool {
    METRICS_ON.load(Ordering::Relaxed) && TRACING_ON.load(Ordering::Relaxed)
}

/// Turn span tracing on or off (independent of the registry switch; the
/// daemon enables it at startup).
pub fn set_tracing(on: bool) {
    read_env_once();
    TRACING_ON.store(on, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Registry internals
// ---------------------------------------------------------------------------

/// One cache line per shard so hot counters don't false-share.
#[repr(align(64))]
struct PaddedU64(AtomicU64);

struct ShardedCounter {
    shards: [PaddedU64; COUNTER_SHARDS],
}

impl ShardedCounter {
    fn new() -> Self {
        ShardedCounter {
            shards: std::array::from_fn(|_| PaddedU64(AtomicU64::new(0))),
        }
    }

    #[inline]
    fn add(&self, shard: usize, n: u64) {
        self.shards[shard % COUNTER_SHARDS]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    fn total(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A log2-bucketed histogram: fixed bucket array plus a sum, all relaxed
/// atomics. The count is the bucket total, computed at snapshot time.
struct Histo {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum_us: AtomicU64,
}

impl Histo {
    fn new() -> Self {
        Histo {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
        }
    }

    #[inline]
    fn observe_us(&self, us: u64) {
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    fn snapshot(&self, name: &'static str) -> HistogramSnapshot {
        let buckets: [u64; HISTOGRAM_BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        HistogramSnapshot {
            name,
            buckets,
            sum_us: self.sum_us.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum_us.store(0, Ordering::Relaxed);
    }
}

/// Bucket index for a microsecond value: 0 for 0, else `floor(log2 v) + 1`,
/// clamped to the last bucket.
#[inline]
pub fn bucket_index(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        ((64 - us.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the open tail).
pub fn bucket_bound(i: usize) -> u64 {
    if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else if i == 0 {
        0
    } else {
        (1u64 << i) - 1
    }
}

/// Per-(program, instance) observation cell: strategy counts, a latency
/// histogram, and the total result cardinality.
struct KeyStats {
    program: String,
    instance: String,
    strategies: [AtomicU64; STRATEGIES.len()],
    latency: Histo,
    cardinality: AtomicU64,
    /// Shard clock reading at the last record — the eviction order.
    last: AtomicU64,
}

/// One shard of the per-(program, instance) table.
struct KeyShard {
    map: RwLock<FxHashMap<String, Arc<KeyStats>>>,
    /// Recency clock, bumped by every record that lands in this shard.
    clock: AtomicU64,
}

/// The per-(program, instance) table: hash-sharded rows, each shard
/// bounded at `shard_cap` by evicting its least recently recorded rows.
struct KeyTable {
    shards: [KeyShard; KEY_SHARDS],
    shard_cap: usize,
}

impl KeyTable {
    fn new(cap: usize) -> KeyTable {
        KeyTable {
            shards: std::array::from_fn(|_| KeyShard {
                map: RwLock::new(FxHashMap::default()),
                clock: AtomicU64::new(0),
            }),
            shard_cap: cap.div_ceil(KEY_SHARDS).max(1),
        }
    }

    /// The row for `(program, instance)`, stamped as just recorded;
    /// created on first use, evicting the shard's least recently recorded
    /// row when the shard is full.
    fn row(&self, program: &str, instance: &str) -> Arc<KeyStats> {
        let key = format!("{program}\u{1f}{instance}");
        let shard = &self.shards[key_shard(&key)];
        let now = shard.clock.fetch_add(1, Ordering::Relaxed);
        let found = {
            let map = shard.map.read().unwrap_or_else(PoisonError::into_inner);
            map.get(&key).cloned()
        };
        let stats = match found {
            Some(s) => s,
            None => {
                let mut map = shard.map.write().unwrap_or_else(PoisonError::into_inner);
                if !map.contains_key(&key) && map.len() >= self.shard_cap {
                    // Evict the least recently recorded half in one pass,
                    // so a stream of new keys pays the scan once per
                    // `shard_cap / 2` inserts — well under 1% of them —
                    // rather than on every insert.
                    let batch = (self.shard_cap / 2).max(1);
                    let mut stamps: Vec<u64> = map
                        .values()
                        .map(|s| s.last.load(Ordering::Relaxed))
                        .collect();
                    let cut = *stamps.select_nth_unstable(batch - 1).1;
                    let before = map.len();
                    map.retain(|_, s| s.last.load(Ordering::Relaxed) > cut);
                    counter_add(Counter::TelemetryKeysEvicted, (before - map.len()) as u64);
                }
                Arc::clone(map.entry(key).or_insert_with(|| {
                    Arc::new(KeyStats {
                        program: program.to_string(),
                        instance: instance.to_string(),
                        strategies: std::array::from_fn(|_| AtomicU64::new(0)),
                        latency: Histo::new(),
                        cardinality: AtomicU64::new(0),
                        last: AtomicU64::new(now),
                    })
                }))
            }
        };
        stats.last.fetch_max(now, Ordering::Relaxed);
        stats
    }

    /// Number of rows held.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.map.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }
}

struct Registry {
    counters: Vec<ShardedCounter>,
    gauges: Vec<AtomicU64>,
    histos: Vec<Histo>,
    keys: KeyTable,
    rings: Mutex<Vec<Arc<Mutex<Ring>>>>,
    next_span: AtomicU64,
    epoch: Instant,
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

fn registry() -> &'static Registry {
    REGISTRY.get_or_init(|| {
        read_env_once();
        Registry {
            counters: (0..COUNTERS.len()).map(|_| ShardedCounter::new()).collect(),
            gauges: (0..GAUGES.len()).map(|_| AtomicU64::new(0)).collect(),
            histos: (0..FAMILIES.len()).map(|_| Histo::new()).collect(),
            keys: KeyTable::new(MAX_KEYS),
            rings: Mutex::new(Vec::new()),
            next_span: AtomicU64::new(1),
            epoch: Instant::now(),
        }
    })
}

// Telemetry sits below `core::sync` (which reports poison recoveries here),
// so it must take its own locks directly; recover from poison inline.
fn plock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// Thread-local state (counter shard + span ring + span stack)
// ---------------------------------------------------------------------------

struct Ring {
    buf: Vec<SpanRecord>,
    next: usize,
}

struct LocalState {
    shard: usize,
    ring: Arc<Mutex<Ring>>,
    /// Active span ids, innermost last.
    stack: Vec<u64>,
    /// Child spans recorded under the current root (budget enforcement).
    children: u32,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LOCAL: RefCell<LocalState> = {
        let ring = Arc::new(Mutex::new(Ring { buf: Vec::with_capacity(64), next: 0 }));
        let reg = registry();
        plock(&reg.rings).push(Arc::clone(&ring));
        RefCell::new(LocalState {
            shard: NEXT_THREAD.fetch_add(1, Ordering::Relaxed) as usize,
            ring,
            stack: Vec::new(),
            children: 0,
        })
    };
}

fn push_record(rec: SpanRecord) {
    LOCAL.with(|l| {
        let l = l.borrow();
        let mut ring = plock(&l.ring);
        if ring.buf.len() < RING_CAPACITY {
            ring.buf.push(rec);
        } else {
            let at = ring.next % RING_CAPACITY;
            ring.buf[at] = rec;
        }
        ring.next = (ring.next + 1) % RING_CAPACITY;
    });
}

// ---------------------------------------------------------------------------
// Recording API
// ---------------------------------------------------------------------------

/// Add `n` to a counter. A relaxed load + branch when metrics are off.
#[inline]
pub fn counter_add(c: Counter, n: u64) {
    if !enabled() {
        return;
    }
    let shard = LOCAL.with(|l| l.borrow().shard);
    registry().counters[c as usize].add(shard, n);
}

/// Set a gauge to `v`.
#[inline]
pub fn gauge_set(g: Gauge, v: u64) {
    if !enabled() {
        return;
    }
    registry().gauges[g as usize].store(v, Ordering::Relaxed);
}

/// Add `n` to a gauge.
#[inline]
pub fn gauge_add(g: Gauge, n: u64) {
    if !enabled() {
        return;
    }
    registry().gauges[g as usize].fetch_add(n, Ordering::Relaxed);
}

/// Subtract `n` from a gauge, saturating at zero (an add/sub pair can
/// straddle an enable/disable toggle, so the sub may arrive unmatched).
#[inline]
pub fn gauge_sub(g: Gauge, n: u64) {
    if !enabled() {
        return;
    }
    let _ = registry().gauges[g as usize].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_sub(n))
    });
}

/// Raise a gauge to at least `v` (monotone high-water mark).
#[inline]
pub fn gauge_max(g: Gauge, v: u64) {
    if !enabled() {
        return;
    }
    registry().gauges[g as usize].fetch_max(v, Ordering::Relaxed);
}

/// Record a duration into a histogram family.
#[inline]
pub fn observe(f: Family, d: Duration) {
    if !enabled() {
        return;
    }
    registry().histos[f as usize].observe_us(d.as_micros() as u64);
}

/// Record one completed request against its `(program, instance)` cell:
/// bumps `requests_total`, the strategy counter and the cardinality total,
/// observes `queued` in `sirup_queue_wait_us`, `queued + service` in
/// `sirup_request_latency_us`, and `service` alone in the cell's latency
/// histogram, so the per-key table reads service time, not queue position.
/// The table holds at most
/// `MAX_KEYS` (4096) cells; a new key past that evicts the least recently
/// recorded half of its shard, counted in
/// `sirup_telemetry_keys_evicted_total`.
pub fn record_request(
    program: &str,
    instance: &str,
    strategy: &str,
    queued: Duration,
    service: Duration,
    cardinality: u64,
) {
    if !enabled() {
        return;
    }
    let reg = registry();
    let queued_us = queued.as_micros() as u64;
    let service_us = service.as_micros() as u64;
    let shard_id = LOCAL.with(|l| l.borrow().shard);
    reg.counters[Counter::RequestsTotal as usize].add(shard_id, 1);
    reg.histos[Family::QueueWait as usize].observe_us(queued_us);
    reg.histos[Family::RequestLatency as usize].observe_us(queued_us + service_us);

    let stats = reg.keys.row(program, instance);
    stats.strategies[strategy_slot(strategy)].fetch_add(1, Ordering::Relaxed);
    stats.latency.observe_us(service_us);
    stats.cardinality.fetch_add(cardinality, Ordering::Relaxed);
}

fn key_shard(key: &str) -> usize {
    // FNV-1a over the key bytes; cheap and stable.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in key.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h as usize) % KEY_SHARDS
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Severity of a span record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// Normal-path span.
    Info,
    /// Something noteworthy happened inside the span (panic, shed, retry).
    Warn,
}

impl Level {
    /// The wire keyword (`info` / `warn`).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
        }
    }
}

/// One finished span, as stored in the per-thread rings.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Process-unique span id (ids start at 1; 0 means "no parent").
    pub id: u64,
    /// Enclosing span's id, 0 for roots.
    pub parent: u64,
    /// Static site name ("request", "dpll", "wal_fsync", …).
    pub name: &'static str,
    /// Optional per-span detail (e.g. `program @ instance` on a request).
    pub detail: Option<Arc<str>>,
    /// Start offset from the registry epoch, microseconds.
    pub start_us: u64,
    /// Duration, microseconds (0 for instantaneous event spans).
    pub dur_us: u64,
    /// Severity recorded when the span closed.
    pub level: Level,
}

impl SpanRecord {
    /// One-line wire rendering, parsed back by `sirupctl trace`.
    pub fn render(&self) -> String {
        let detail = self.detail.as_deref().unwrap_or("-");
        format!(
            "span id={} parent={} level={} name={} start_us={} dur_us={} detail={}",
            self.id,
            self.parent,
            self.level.as_str(),
            self.name,
            self.start_us,
            self.dur_us,
            detail
        )
    }
}

/// RAII timer: records a histogram observation and/or a trace span when
/// dropped. Inert (no clock read) when the relevant switches are off.
pub struct SpanGuard {
    start: Option<Instant>,
    hist: Option<Family>,
    /// `Some` only when this guard is writing a trace record on drop.
    trace: Option<TraceArm>,
}

struct TraceArm {
    id: u64,
    parent: u64,
    name: &'static str,
    detail: Option<Arc<str>>,
    root: bool,
}

impl SpanGuard {
    /// The span id, when tracing captured this guard (0 otherwise).
    pub fn id(&self) -> u64 {
        self.trace.as_ref().map_or(0, |t| t.id)
    }

    fn inert() -> SpanGuard {
        SpanGuard {
            start: None,
            hist: None,
            trace: None,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur = start.elapsed();
        if let Some(f) = self.hist {
            observe(f, dur);
        }
        if let Some(arm) = self.trace.take() {
            let reg = registry();
            let start_us = start.saturating_duration_since(reg.epoch).as_micros() as u64;
            LOCAL.with(|l| {
                let mut l = l.borrow_mut();
                // Pop this span (and anything pushed above it that leaked —
                // guards are strictly LIFO in practice).
                while let Some(top) = l.stack.pop() {
                    if top == arm.id {
                        break;
                    }
                }
                if arm.root {
                    l.children = 0;
                }
            });
            push_record(SpanRecord {
                id: arm.id,
                parent: arm.parent,
                name: arm.name,
                detail: arm.detail,
                start_us,
                dur_us: dur.as_micros() as u64,
                level: Level::Info,
            });
        }
    }
}

fn open_span(
    name: &'static str,
    detail: Option<Arc<str>>,
    hist: Option<Family>,
    root: bool,
) -> SpanGuard {
    let metrics = enabled();
    let tracing = tracing_enabled();
    if !metrics && !tracing {
        return SpanGuard::inert();
    }
    let trace = if tracing {
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            if !root && (l.stack.is_empty() || l.children >= SPAN_BUDGET) {
                // Free-floating child outside any request, or over budget:
                // keep the histogram, skip the trace record.
                return None;
            }
            let id = registry().next_span.fetch_add(1, Ordering::Relaxed);
            let parent = l.stack.last().copied().unwrap_or(0);
            if root {
                l.children = 0;
            } else {
                l.children += 1;
            }
            l.stack.push(id);
            Some(TraceArm {
                id,
                parent,
                name,
                detail,
                root,
            })
        })
    } else {
        None
    };
    if trace.is_none() && hist.is_none() {
        return SpanGuard::inert();
    }
    SpanGuard {
        start: Some(Instant::now()),
        hist: if metrics { hist } else { None },
        trace,
    }
}

/// Open a timed child span that also feeds histogram family `f`. A
/// trace-only family (AC-3, backtracking, fixpoints, DPLL, cascades)
/// records only while tracing is on; any other, while metrics are on.
/// Always inlined, so the family test folds away at every call site: the
/// trace-only sites sit in hot search loops.
#[inline(always)]
pub fn timed(f: Family, name: &'static str) -> SpanGuard {
    let on = if f.trace_only() {
        tracing_enabled()
    } else {
        enabled()
    };
    if !on {
        return SpanGuard::inert();
    }
    open_span(name, None, Some(f), false)
}

/// Open a root span for one request; `detail` conventionally reads
/// `program @ instance`.
pub fn request_span(detail: impl Into<String>) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard::inert();
    }
    open_span("request", Some(Arc::from(detail.into())), None, true)
}

/// Record an instantaneous warn-level event span (visible post-hoc even
/// with tracing off — warn events are rare and always kept).
pub fn warn_event(name: &'static str, detail: impl Into<String>) {
    if !enabled() {
        return;
    }
    let reg = registry();
    let id = reg.next_span.fetch_add(1, Ordering::Relaxed);
    let start_us = reg.epoch.elapsed().as_micros() as u64;
    let parent = LOCAL.with(|l| l.borrow().stack.last().copied().unwrap_or(0));
    push_record(SpanRecord {
        id,
        parent,
        name,
        detail: Some(Arc::from(detail.into())),
        start_us,
        dur_us: 0,
        level: Level::Warn,
    });
}

/// Count a poison recovery and leave a warn span behind (`core::sync`).
pub fn poison_recovered(site: &'static str) {
    counter_add(Counter::LockPoisonRecovered, 1);
    warn_event("lock_poison_recovered", site);
}

/// Merge every per-thread ring: all retained spans, oldest first.
pub fn recent_spans() -> Vec<SpanRecord> {
    let reg = registry();
    let rings: Vec<Arc<Mutex<Ring>>> = plock(&reg.rings).iter().map(Arc::clone).collect();
    let mut out = Vec::new();
    for ring in rings {
        let ring = plock(&ring);
        out.extend(ring.buf.iter().cloned());
    }
    out.sort_by_key(|r| (r.start_us, r.id));
    out
}

// ---------------------------------------------------------------------------
// Snapshot + Prometheus exposition
// ---------------------------------------------------------------------------

/// Frozen histogram state.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Family name (e.g. `sirup_request_latency_us`).
    pub name: &'static str,
    /// Per-bucket observation counts (exponential bounds, see
    /// [`bucket_bound`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all observed values, microseconds.
    pub sum_us: u64,
}

impl HistogramSnapshot {
    /// Total observation count.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Nearest-rank quantile estimate: the upper bound of the bucket holding
    /// the ranked observation ([`nearest_rank`] over cumulative counts).
    pub fn quantile_us(&self, pct: f64) -> u64 {
        let rank = nearest_rank(self.count(), pct);
        if rank == 0 {
            return 0;
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bound(i);
            }
        }
        bucket_bound(HISTOGRAM_BUCKETS - 1)
    }
}

/// One per-(program, instance) row.
#[derive(Clone, Debug)]
pub struct KeySnapshot {
    /// The program's cache key (its canonical CQ rendering).
    pub program: String,
    /// Target instance name.
    pub instance: String,
    /// `(strategy name, completed requests)`; zero entries skipped.
    pub strategies: Vec<(&'static str, u64)>,
    /// Latency distribution of this key's requests.
    pub latency: HistogramSnapshot,
    /// Sum of result cardinalities over all requests.
    pub cardinality: u64,
}

impl KeySnapshot {
    /// Completed requests across all strategies.
    pub fn requests(&self) -> u64 {
        self.strategies.iter().map(|(_, n)| n).sum()
    }
}

/// A frozen copy of the whole registry.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    /// `(name, value)` for every registered counter, in registry order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` for every registered gauge, in registry order.
    pub gauges: Vec<(&'static str, u64)>,
    /// Every global histogram family.
    pub histograms: Vec<HistogramSnapshot>,
    /// The per-(program, instance) request table, sorted by key.
    pub keys: Vec<KeySnapshot>,
}

impl TelemetrySnapshot {
    /// Value of the counter `name` (0 if unknown).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Value of the gauge `name` (0 if unknown).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The histogram family `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Prometheus text exposition (version 0.0.4 flavour): counters and
    /// gauges as single samples, histograms as cumulative `_bucket{le=…}`
    /// series plus `_sum`/`_count`, and the per-(program, instance) table as
    /// labelled families with nearest-rank p50/p99 convenience gauges.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for h in &self.histograms {
            let trace_only = FAMILIES
                .iter()
                .any(|(f, name)| *name == h.name && f.trace_only());
            if trace_only {
                out.push_str(&format!(
                    "# HELP {} records only while tracing is on; reads 0 in an untraced process\n",
                    h.name
                ));
            }
            render_histogram(&mut out, h.name, "", h);
        }
        if !self.keys.is_empty() {
            out.push_str("# TYPE sirup_program_requests_total counter\n");
            for k in &self.keys {
                for (strategy, n) in &k.strategies {
                    out.push_str(&format!(
                        "sirup_program_requests_total{{program=\"{}\",instance=\"{}\",strategy=\"{strategy}\"}} {n}\n",
                        escape_label(&k.program),
                        escape_label(&k.instance),
                    ));
                }
            }
            out.push_str("# TYPE sirup_program_cardinality_total counter\n");
            for k in &self.keys {
                out.push_str(&format!(
                    "sirup_program_cardinality_total{{program=\"{}\",instance=\"{}\"}} {}\n",
                    escape_label(&k.program),
                    escape_label(&k.instance),
                    k.cardinality,
                ));
            }
            out.push_str("# TYPE sirup_program_latency_us histogram\n");
            for k in &self.keys {
                let labels = format!(
                    "program=\"{}\",instance=\"{}\"",
                    escape_label(&k.program),
                    escape_label(&k.instance),
                );
                render_histogram(&mut out, "sirup_program_latency_us", &labels, &k.latency);
            }
            out.push_str("# TYPE sirup_program_latency_p50_us gauge\n");
            out.push_str("# TYPE sirup_program_latency_p99_us gauge\n");
            for k in &self.keys {
                let labels = format!(
                    "program=\"{}\",instance=\"{}\"",
                    escape_label(&k.program),
                    escape_label(&k.instance),
                );
                out.push_str(&format!(
                    "sirup_program_latency_p50_us{{{labels}}} {}\n",
                    k.latency.quantile_us(50.0)
                ));
                out.push_str(&format!(
                    "sirup_program_latency_p99_us{{{labels}}} {}\n",
                    k.latency.quantile_us(99.0)
                ));
            }
        }
        out
    }
}

fn render_histogram(out: &mut String, name: &str, labels: &str, h: &HistogramSnapshot) {
    if labels.is_empty() {
        out.push_str(&format!("# TYPE {name} histogram\n"));
    }
    let top = h
        .buckets
        .iter()
        .rposition(|&c| c > 0)
        .unwrap_or(0)
        .min(HISTOGRAM_BUCKETS - 2);
    let mut cum = 0u64;
    for (i, &c) in h.buckets.iter().enumerate().take(top + 1) {
        cum += c;
        let le = bucket_bound(i);
        if labels.is_empty() {
            out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
        } else {
            out.push_str(&format!("{name}_bucket{{{labels},le=\"{le}\"}} {cum}\n"));
        }
    }
    let count = h.count();
    if labels.is_empty() {
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {count}\n"));
        out.push_str(&format!("{name}_sum {}\n", h.sum_us));
        out.push_str(&format!("{name}_count {count}\n"));
    } else {
        out.push_str(&format!("{name}_bucket{{{labels},le=\"+Inf\"}} {count}\n"));
        out.push_str(&format!("{name}_sum{{{labels}}} {}\n", h.sum_us));
        out.push_str(&format!("{name}_count{{{labels}}} {count}\n"));
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Freeze the registry: counters, gauges, fixed histograms, and the
/// per-(program, instance) table (sorted by program then instance).
pub fn snapshot() -> TelemetrySnapshot {
    let reg = registry();
    let counters = COUNTERS
        .iter()
        .enumerate()
        .map(|(i, (_, name))| (*name, reg.counters[i].total()))
        .collect();
    let gauges = GAUGES
        .iter()
        .enumerate()
        .map(|(i, (_, name))| (*name, reg.gauges[i].load(Ordering::Relaxed)))
        .collect();
    let histograms = FAMILIES
        .iter()
        .enumerate()
        .map(|(i, (_, name))| reg.histos[i].snapshot(name))
        .collect();
    let mut keys = Vec::new();
    for shard in &reg.keys.shards {
        let map = shard.map.read().unwrap_or_else(PoisonError::into_inner);
        for stats in map.values() {
            let strategies = STRATEGIES
                .iter()
                .enumerate()
                .filter_map(|(i, name)| {
                    let n = stats.strategies[i].load(Ordering::Relaxed);
                    (n > 0).then_some((*name, n))
                })
                .collect();
            keys.push(KeySnapshot {
                program: stats.program.clone(),
                instance: stats.instance.clone(),
                strategies,
                latency: stats.latency.snapshot("sirup_program_latency_us"),
                cardinality: stats.cardinality.load(Ordering::Relaxed),
            });
        }
    }
    keys.sort_by(|a, b| {
        (a.program.as_str(), a.instance.as_str()).cmp(&(b.program.as_str(), b.instance.as_str()))
    });
    TelemetrySnapshot {
        counters,
        gauges,
        histograms,
        keys,
    }
}

/// Zero every counter, gauge, and histogram; drop all per-key rows and all
/// retained spans. For benchmarks and tests — live recording continues.
pub fn reset() {
    let reg = registry();
    for c in &reg.counters {
        c.reset();
    }
    for g in &reg.gauges {
        g.store(0, Ordering::Relaxed);
    }
    for h in &reg.histos {
        h.reset();
    }
    for shard in &reg.keys.shards {
        shard
            .map
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
    for ring in plock(&reg.rings).iter() {
        let mut ring = plock(ring);
        ring.buf.clear();
        ring.next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and the test harness runs tests
    // concurrently, so these tests only assert on state they alone touch
    // (unique keys, monotone counters, local histograms) — never on exact
    // global totals.

    #[test]
    fn bucket_index_and_bounds_partition_the_axis() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Every value's bucket bound is >= the value (so cumulative `le`
        // series are honest), and bounds are strictly increasing.
        for v in [0u64, 1, 2, 3, 7, 8, 100, 4095, 1 << 20] {
            assert!(bucket_bound(bucket_index(v)) >= v, "v={v}");
        }
        for i in 1..HISTOGRAM_BUCKETS {
            assert!(bucket_bound(i) > bucket_bound(i - 1));
        }
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(nearest_rank(0, 50.0), 0);
        assert_eq!(nearest_rank(1, 50.0), 1);
        assert_eq!(nearest_rank(100, 50.0), 50);
        assert_eq!(nearest_rank(100, 95.0), 95);
        assert_eq!(nearest_rank(100, 99.0), 99);
        assert_eq!(nearest_rank(100, 100.0), 100);
        assert_eq!(nearest_rank(3, 50.0), 2);
        // Never exceeds n, never below 1 for n > 0.
        for n in 1..=20u64 {
            for p in [0.1, 50.0, 95.0, 99.0, 100.0] {
                let r = nearest_rank(n, p);
                assert!((1..=n).contains(&r), "n={n} p={p} r={r}");
            }
        }
    }

    #[test]
    fn histogram_quantiles_are_monotone() {
        let h = Histo::new();
        for us in [1u64, 3, 3, 9, 20, 90, 400, 401, 5000, 5001] {
            h.observe_us(us);
        }
        let snap = h.snapshot("t");
        assert_eq!(snap.count(), 10);
        let p50 = snap.quantile_us(50.0);
        let p95 = snap.quantile_us(95.0);
        let p99 = snap.quantile_us(99.0);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // The p50 rank is 5 → value 20 → bucket bound 31.
        assert_eq!(p50, 31);
        assert!(p99 >= 5001);
    }

    #[test]
    fn per_key_table_records_strategies_latency_and_cardinality() {
        set_enabled(true);
        let prog = "telemetry-test-prog-q1";
        let queued = Duration::from_millis(50);
        record_request(prog, "inst-a", "dpll", queued, Duration::from_micros(10), 3);
        record_request(prog, "inst-a", "dpll", queued, Duration::from_micros(20), 2);
        record_request(
            prog,
            "inst-a",
            "cached",
            queued,
            Duration::from_micros(1),
            2,
        );
        record_request(
            prog,
            "inst-b",
            "semi-naive",
            queued,
            Duration::from_micros(100),
            7,
        );
        let snap = snapshot();
        let a = snap
            .keys
            .iter()
            .find(|k| k.program == prog && k.instance == "inst-a")
            .expect("key row for inst-a");
        assert_eq!(a.requests(), 3);
        assert_eq!(a.cardinality, 7);
        assert!(a.strategies.contains(&("dpll", 2)));
        assert!(a.strategies.contains(&("cached", 1)));
        assert_eq!(a.latency.count(), 3);
        // The per-key histogram holds service time: the 50 ms queue wait
        // is in no bucket at or below 31 µs, where all three land.
        assert_eq!(a.latency.quantile_us(100.0), 31);
        let b = snap
            .keys
            .iter()
            .find(|k| k.program == prog && k.instance == "inst-b")
            .expect("key row for inst-b");
        assert_eq!(b.strategies, vec![("semi-naive", 1)]);
        assert_eq!(b.cardinality, 7);
    }

    #[test]
    fn key_table_evicts_the_least_recently_recorded_rows() {
        set_enabled(true);
        // A private table (the global one is shared with concurrent tests)
        // of 16 rows per shard, evicted 8 at a time.
        let cap = 16 * KEY_SHARDS;
        let table = KeyTable::new(cap);
        let before = snapshot().counter("sirup_telemetry_keys_evicted_total");
        let recorded = 10 * cap;
        for i in 0..recorded {
            table.row(&format!("evict-prog-{i}"), "evict-inst");
            // Keep one hot key recent: it must survive every eviction.
            table.row("evict-hot", "evict-inst");
        }
        let held = table.len();
        assert!(held <= cap && held > cap / 2, "held {held}");
        let evicted = snapshot().counter("sirup_telemetry_keys_evicted_total") - before;
        assert_eq!(evicted as usize, recorded + 1 - held);
        let hot = "evict-hot\u{1f}evict-inst".to_string();
        let shard = &table.shards[key_shard(&hot)];
        assert!(shard.map.read().unwrap().contains_key(&hot));
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        set_enabled(true);
        record_request(
            "promq \"quoted\"",
            "inst\\x",
            "dpll",
            Duration::ZERO,
            Duration::from_micros(42),
            5,
        );
        counter_add(Counter::WalAppends, 1);
        observe(Family::WalFsync, Duration::from_micros(120));
        let text = snapshot().to_prometheus();
        assert!(text.contains("# TYPE sirup_requests_total counter"));
        assert!(text.contains("# TYPE sirup_wal_fsync_us histogram"));
        assert!(text.contains("sirup_wal_fsync_us_count"));
        assert!(text.contains("sirup_wal_fsync_us_bucket{le=\"+Inf\"}"));
        // Labels are escaped.
        assert!(text.contains("program=\"promq \\\"quoted\\\"\""));
        assert!(text.contains("instance=\"inst\\\\x\""));
        assert!(text.contains("sirup_program_cardinality_total"));
        assert!(text.contains("sirup_program_latency_us_bucket"));
        assert!(text.contains("sirup_program_latency_p50_us"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (head, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!head.is_empty());
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
        }
    }

    #[test]
    fn untraced_exposition_labels_the_trace_only_families() {
        set_enabled(true);
        let text = snapshot().to_prometheus();
        let help: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# HELP "))
            .filter_map(|l| l.split_once(' ').map(|(name, _)| name))
            .collect();
        assert_eq!(
            help,
            [
                "sirup_ac3_us",
                "sirup_backtrack_us",
                "sirup_seminaive_fixpoint_us",
                "sirup_dpll_us",
                "sirup_incremental_cascade_us"
            ]
        );
        for name in help {
            let note = format!("# HELP {name} records only while tracing is on");
            let at = text.find(&note).expect("help line");
            let kind = format!("# TYPE {name} histogram");
            assert_eq!(text[at..].lines().nth(1), Some(kind.as_str()));
        }
        assert!(text.contains("# TYPE sirup_queue_wait_us histogram"));
    }

    #[test]
    fn spans_nest_and_land_in_the_rings() {
        set_enabled(true);
        set_tracing(true);
        let (root_id, child_id);
        {
            let root = request_span("test-prog @ test-inst-span");
            root_id = root.id();
            assert_ne!(root_id, 0);
            {
                let child = timed(Family::Dpll, "dpll");
                child_id = child.id();
                assert_ne!(child_id, 0);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        set_tracing(false);
        let spans = recent_spans();
        let root = spans.iter().find(|s| s.id == root_id).expect("root span");
        assert_eq!(root.name, "request");
        assert_eq!(root.parent, 0);
        assert_eq!(root.detail.as_deref(), Some("test-prog @ test-inst-span"));
        let child = spans.iter().find(|s| s.id == child_id).expect("child span");
        assert_eq!(child.parent, root_id);
        assert!(child.dur_us >= 1000, "timed child ran >= 1ms");
        assert!(root.dur_us >= child.dur_us);
    }

    #[test]
    fn disabled_guards_are_inert_and_warn_events_survive_tracing_off() {
        set_enabled(true);
        set_tracing(false);
        // With tracing off, request spans don't allocate ids…
        let g = request_span("off @ off");
        assert_eq!(g.id(), 0);
        drop(g);
        // …but warn events are always retained.
        warn_event("lock_poison_recovered", "unit-test-site");
        let spans = recent_spans();
        assert!(spans
            .iter()
            .any(|s| s.level == Level::Warn && s.detail.as_deref() == Some("unit-test-site")));
    }

    #[test]
    fn counters_accumulate_across_shards() {
        set_enabled(true);
        let before = snapshot().counter("sirup_dpll_checks_total");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..100 {
                        counter_add(Counter::DpllChecks, 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let after = snapshot().counter("sirup_dpll_checks_total");
        assert!(after >= before + 400, "{before} -> {after}");
    }
}
