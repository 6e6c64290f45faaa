//! The streaming estimation loop each shard of
//! [`ShardedService`](crate::sharded::ShardedService) runs, and the
//! types the engine's surface speaks: [`Observation`], [`ServeConfig`],
//! [`LiveEstimate`], [`ServeStats`], [`SolveStats`] and [`TickReport`].
//!
//! Probe observations stream in, a sliding window of time slots is
//! maintained ([`probes::stream::StreamingTcm`]), each closed window is
//! completed with warm starts ([`crate::online::OnlineEstimator`]), and
//! the latest estimate is always available to queries — even when the
//! input is bad or a solve fails.
//!
//! The loop is robust **by design**, not by `catch_unwind`:
//!
//! * the ingest queue is bounded with an explicit [`Backpressure`]
//!   policy — overload drops reports (counted), it never grows without
//!   limit;
//! * admission rules classify every report: late reports are dropped and
//!   counted, exact re-deliveries are deduplicated last-write-wins,
//!   malformed reports (non-finite or negative speed, unknown segment)
//!   are rejected and counted — none of them can corrupt the window;
//! * a per-solve watchdog caps warm-start sweeps and measures wall
//!   clock; a failed or over-budget solve degrades gracefully to the
//!   last good estimate with [`LiveEstimate::stale`] set instead of
//!   taking the service down;
//! * warm-start factors checkpoint to a text format with exact
//!   (`f64::to_bits`) round-tripping, so a restarted process converges
//!   in a couple of sweeps instead of a cold start.
//!
//! Everything the loop swallows is visible: each shard keeps local
//! [`ServeStats`] and, when metrics are enabled, mirrors them into the
//! `serve.admitted` / `serve.dropped_late` / `serve.rejected` /
//! `serve.duplicates` / `serve.degraded` / `serve.solves` (plus
//! `serve.queue_dropped`) counters, emits `serve.tick` /
//! `serve.solve` spans, and samples per-tick and per-solve wall clock
//! into the `serve.tick_us` / `serve.solve_us` log₂ histograms through
//! the `telemetry` crate. [`TickReport`] carries the same timings per
//! tick for callers without a sink. Admission touches only
//! shard-local state: every metric handle is resolved once, the
//! admission counters are added from the [`TickReport`] deltas, so they
//! become visible once per tick, not per report, and `serve.e2e_us` is
//! merged in once per tick from a local scratch histogram. Each admitted
//! report's end-to-end sample runs from its enqueue instant to the
//! tick's single settle instant (one clock read per tick, taken once
//! the estimate is ready). The dedup table is pruned only when a slot
//! leaves the window; between evictions nothing in it can expire.
//!
//! # Causal tracing
//!
//! With [`ServeConfig::trace_sample`] non-zero and the global level at
//! `Trace`, every sampled report carries a deterministic trace ID —
//! [`report_trace_id`], the FNV-1a digest of
//! `(vehicle, timestamp_s, segment, ingest_seq)`, byte-identical at any
//! thread count — and the service emits `serve.trace` records (`trace`
//! kind) at each stage of the report's life: `ingest`, then one of
//! `queue_dropped` / `rejected` / `dropped_late`, or `duplicate` and/or
//! `admitted` (with its window slot), and finally a terminal `solved`,
//! `degraded`, or `checkpointed`. Sampling is by trace-ID modulus
//! (`trace_id % trace_sample == 0`), so a given report traces — or
//! doesn't — identically across runs. When a tick degrades and
//! [`ServeConfig::flight_dump`] is set, the installed
//! [`telemetry::flight`] recorder dumps the last-N records to that path
//! for post-mortem (`cs-traffic-cli inspect --dump`).

use crate::cs::CsConfig;
use crate::error::{ConfigError, Error};
use crate::online::OnlineEstimator;
use linalg::Matrix;
use probes::stream::StreamingTcm;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::{Counter, Histogram, Level};

/// A segment-resolved probe observation, the service's unit of ingest.
///
/// Map matching happens upstream (the CLI's `serve` command resolves raw
/// GPS positions exactly like `build-tcm` does); the core loop only sees
/// observations already tied to a segment column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Reporting vehicle — part of the deduplication key.
    pub vehicle: u64,
    /// Report timestamp (seconds on the service's absolute slot grid).
    pub timestamp_s: u64,
    /// Matched segment column.
    pub segment: usize,
    /// Instantaneous speed in km/h.
    pub speed_kmh: f64,
}

/// What to do when a report arrives and the ingest queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Refuse the incoming report (the producer sees `push() == false`).
    #[default]
    DropNewest,
    /// Evict the oldest queued report to make room — freshest data wins.
    DropOldest,
}

/// Streaming-service failures: checkpoint I/O and format problems.
///
/// Deliberately narrow — runtime trouble inside the loop (bad reports,
/// failed solves) *degrades* and increments counters instead of erroring,
/// so the only way the service API fails after construction is persisting
/// or restoring state.
#[derive(Debug)]
pub enum ServeError {
    /// Reading or writing a checkpoint file failed.
    Io(std::io::Error),
    /// A checkpoint's content was not valid (version mismatch, truncated
    /// matrix, malformed hex word, …).
    Checkpoint {
        /// 1-based line in the checkpoint text.
        line: usize,
        /// What was wrong.
        msg: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            ServeError::Checkpoint { line, msg } => {
                write!(f, "bad checkpoint (line {line}): {msg}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Checkpoint { .. } => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Configuration of a [`ShardedService`](crate::sharded::ShardedService).
///
/// Construct via [`ServeConfig::builder`] for validation, or as a struct
/// literal over [`ServeConfig::default`] (validated by
/// `ShardedService::new` anyway).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Absolute start of the slot grid, in seconds.
    pub start_s: u64,
    /// Slot length in seconds (the TCM granularity).
    pub slot_len_s: u64,
    /// Height of the sliding window, in slots.
    pub window_slots: usize,
    /// Number of road-segment columns.
    pub num_segments: usize,
    /// Algorithm-1 configuration for the window completions.
    pub cs: CsConfig,
    /// Ingest queue bound; pushes beyond it trigger `backpressure`.
    pub queue_capacity: usize,
    /// Policy when the ingest queue is full.
    pub backpressure: Backpressure,
    /// Sweep cap applied to solves after the first (warm starts need only
    /// a few sweeps); `None` leaves the full `cs.iterations` budget.
    pub warm_sweep_cap: Option<usize>,
    /// Wall-clock budget per solve; an over-budget solve is accepted but
    /// flagged stale and counted as degraded. `None` disables the check.
    pub solve_budget: Option<Duration>,
    /// Causal-trace sampling modulus: `0` disables tracing entirely,
    /// `1` traces every report, `n` traces reports whose
    /// [`report_trace_id`] is divisible by `n`. Tracing also requires
    /// the global telemetry level to be `Trace`.
    pub trace_sample: u64,
    /// Where to dump the flight recorder when a tick degrades (solve
    /// failure or watchdog overrun). `None` disables the dump; a dump
    /// additionally requires [`telemetry::flight::install`] to have run.
    pub flight_dump: Option<std::path::PathBuf>,
    /// Correction-pass period for the incremental solve path: after a
    /// full warm sweep, up to `full_sweep_every - 1` consecutive solves
    /// may take the O(delta) dirty-set path before the next full sweep
    /// is forced. `1` disables incremental solving entirely (every
    /// solve is a full sweep, the pre-incremental behaviour).
    pub full_sweep_every: u64,
    /// Dirty-fraction ceiling for the incremental path: a delta pass
    /// runs only while its estimated cost (dirty rows × segments +
    /// dirty columns × slots + shift × segments) stays below this
    /// fraction of the full `window_slots × num_segments` sweep cost.
    /// Past it, a full sweep is cheaper anyway.
    pub incremental_threshold: f64,
    /// Segment-range shard layout for
    /// [`ShardedService`](crate::sharded::ShardedService).
    pub shards: crate::sharded::ShardPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            start_s: 0,
            slot_len_s: 900,
            window_slots: 24,
            num_segments: 1,
            cs: CsConfig::default(),
            queue_capacity: 4096,
            backpressure: Backpressure::default(),
            warm_sweep_cap: Some(10),
            solve_budget: None,
            trace_sample: 0,
            flight_dump: None,
            full_sweep_every: 16,
            incremental_threshold: 0.5,
            shards: crate::sharded::ShardPlan::single(),
        }
    }
}

impl ServeConfig {
    /// Starts a validated builder (see [`ServeConfigBuilder`]).
    ///
    /// ```
    /// use traffic_cs::service::ServeConfig;
    ///
    /// let cfg = ServeConfig::builder().slot_len_s(60).window_slots(8).num_segments(5).build()?;
    /// assert_eq!(cfg.window_slots, 8);
    /// assert!(ServeConfig::builder().window_slots(0).build().is_err());
    /// # Ok::<(), traffic_cs::ConfigError>(())
    /// ```
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder { config: ServeConfig::default() }
    }

    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if self.slot_len_s == 0 {
            return Err(ConfigError::new("slot_len_s", "slot length must be positive"));
        }
        if self.window_slots == 0 {
            return Err(ConfigError::new("window_slots", "window must hold at least one slot"));
        }
        if self.num_segments == 0 {
            return Err(ConfigError::new("num_segments", "need at least one segment column"));
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::new("queue_capacity", "queue must hold at least one report"));
        }
        if self.warm_sweep_cap == Some(0) {
            return Err(ConfigError::new("warm_sweep_cap", "sweep cap must be at least 1"));
        }
        if self.full_sweep_every == 0 {
            return Err(ConfigError::new(
                "full_sweep_every",
                "correction-pass period must be at least 1 (1 disables incremental solving)",
            ));
        }
        if !self.incremental_threshold.is_finite() || self.incremental_threshold < 0.0 {
            return Err(ConfigError::new(
                "incremental_threshold",
                "dirty-fraction ceiling must be finite and non-negative",
            ));
        }
        self.shards.validate(self.num_segments)?;
        self.cs.validate()
    }
}

/// Validated builder for [`ServeConfig`].
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Sets the absolute grid start in seconds.
    pub fn start_s(mut self, v: u64) -> Self {
        self.config.start_s = v;
        self
    }

    /// Sets the slot length (granularity) in seconds.
    pub fn slot_len_s(mut self, v: u64) -> Self {
        self.config.slot_len_s = v;
        self
    }

    /// Sets the sliding-window height in slots.
    pub fn window_slots(mut self, v: usize) -> Self {
        self.config.window_slots = v;
        self
    }

    /// Sets the number of segment columns.
    pub fn num_segments(mut self, v: usize) -> Self {
        self.config.num_segments = v;
        self
    }

    /// Sets the Algorithm-1 configuration used per window.
    pub fn cs(mut self, v: CsConfig) -> Self {
        self.config.cs = v;
        self
    }

    /// Sets the ingest queue bound.
    pub fn queue_capacity(mut self, v: usize) -> Self {
        self.config.queue_capacity = v;
        self
    }

    /// Sets the policy applied when the ingest queue is full.
    pub fn backpressure(mut self, v: Backpressure) -> Self {
        self.config.backpressure = v;
        self
    }

    /// Caps sweeps on warm solves (`None` disables the cap).
    pub fn warm_sweep_cap(mut self, v: Option<usize>) -> Self {
        self.config.warm_sweep_cap = v;
        self
    }

    /// Sets the per-solve wall-clock budget (`None` disables the check).
    pub fn solve_budget(mut self, v: Option<Duration>) -> Self {
        self.config.solve_budget = v;
        self
    }

    /// Sets the causal-trace sampling modulus (`0` disables tracing).
    pub fn trace_sample(mut self, v: u64) -> Self {
        self.config.trace_sample = v;
        self
    }

    /// Sets the flight-recorder dump path for degraded ticks (`None`
    /// disables the dump).
    pub fn flight_dump(mut self, v: Option<std::path::PathBuf>) -> Self {
        self.config.flight_dump = v;
        self
    }

    /// Sets the correction-pass period for incremental solves (`1`
    /// disables the incremental path).
    pub fn full_sweep_every(mut self, v: u64) -> Self {
        self.config.full_sweep_every = v;
        self
    }

    /// Sets the segment-range shard plan (see
    /// [`crate::sharded::ShardedService`]).
    pub fn shards(mut self, v: crate::sharded::ShardPlan) -> Self {
        self.config.shards = v;
        self
    }

    /// Sets the dirty-fraction ceiling for the incremental path.
    pub fn incremental_threshold(mut self, v: f64) -> Self {
        self.config.incremental_threshold = v;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the offending field.
    pub fn build(self) -> Result<ServeConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// The service's current answer to "what is traffic like right now?".
#[derive(Debug, Clone)]
pub struct LiveEstimate {
    /// Completed window estimate, `window_slots × num_segments`.
    pub estimate: Matrix,
    /// Absolute slot index of the estimate's last row.
    pub head_slot: usize,
    /// Simulated clock (max timestamp ingested) when this was solved.
    pub solved_at_s: u64,
    /// `true` when the estimate is degraded: the solve that should have
    /// replaced it failed, or the producing solve blew its wall-clock
    /// budget.
    pub stale: bool,
    /// ALS sweeps the producing solve used.
    pub sweeps: usize,
    /// Final objective value of the producing solve.
    pub objective: f64,
}

impl LiveEstimate {
    /// The freshest estimated speeds (the last row), the live traffic
    /// map a query consumer typically wants.
    pub fn latest_row(&self) -> &[f64] {
        self.estimate.row(self.estimate.rows() - 1)
    }
}

/// Everything the loop counted — mirrors the telemetry counters so tests
/// and callers without a metrics sink can still observe behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Reports admitted into the window.
    pub admitted: u64,
    /// Malformed reports rejected (bad speed / unknown segment).
    pub rejected: u64,
    /// Reports dropped because their slot already left the window.
    pub dropped_late: u64,
    /// Exact re-deliveries deduplicated last-write-wins.
    pub duplicates: u64,
    /// Reports dropped by queue backpressure before admission.
    pub queue_dropped: u64,
    /// Solves completed successfully (including over-budget ones).
    pub solves: u64,
    /// Solve failures and budget overruns.
    pub degraded: u64,
}

/// How the solves of [`ServeStats::solves`] were actually serviced —
/// the solve-cache and incremental-path breakdown, mirroring the
/// `serve.solve_cache_hit` / `serve.solve_cache_miss` /
/// `serve.incremental_solves` / `serve.rows_resolved` counters. Kept
/// separate from [`ServeStats`] so existing accounting (and differential
/// mirrors of it) is untouched by how a solve was computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveStats {
    /// Dirty ticks answered from the solve cache: the window content
    /// hash matched the last solved content, so the previous estimate
    /// was reused without touching the solver.
    pub cache_hits: u64,
    /// Dirty ticks whose content hash missed the cache and went to the
    /// solver (incremental or full).
    pub cache_misses: u64,
    /// Solves serviced by the O(delta) dirty-set path.
    pub incremental_solves: u64,
    /// Solves serviced by a full warm sweep.
    pub full_solves: u64,
    /// Total factor units (rows + columns) re-solved by incremental
    /// passes — the actual work the dirty-set path did, comparable
    /// against `full_solves × (window_slots + num_segments)`.
    pub rows_resolved: u64,
}

/// Outcome of one engine tick (summed over shards).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TickReport {
    /// Reports admitted this tick.
    pub admitted: usize,
    /// Reports rejected as malformed this tick.
    pub rejected: usize,
    /// Reports dropped as late this tick.
    pub dropped_late: usize,
    /// Duplicates resolved last-write-wins this tick.
    pub duplicates: usize,
    /// Whether a solve ran (successfully) this tick.
    pub solved: bool,
    /// Whether this tick degraded (solve failed or blew its budget).
    pub degraded: bool,
    /// Wall-clock microseconds the whole tick took (drain + solve).
    pub tick_us: u64,
    /// Wall-clock microseconds of the solve attempt; `0` when the
    /// window was clean and no solve ran.
    pub solve_us: u64,
}

/// Every `serve.*` metric handle, resolved once (per registry epoch)
/// from the global registry so updating a metric is an `Arc` deref and
/// a relaxed atomic bump — no name lookup, no registry lock, no
/// allocation.
#[derive(Debug)]
struct ServeMetrics {
    epoch: u64,
    admitted: Arc<Counter>,
    rejected: Arc<Counter>,
    dropped_late: Arc<Counter>,
    duplicates: Arc<Counter>,
    queue_dropped: Arc<Counter>,
    solves: Arc<Counter>,
    degraded: Arc<Counter>,
    solve_cache_hit: Arc<Counter>,
    solve_cache_miss: Arc<Counter>,
    incremental_solves: Arc<Counter>,
    rows_resolved: Arc<Counter>,
    tick_us: Arc<Histogram>,
    solve_us: Arc<Histogram>,
    e2e_us: Arc<Histogram>,
}

impl ServeMetrics {
    /// The handles in `slot`, resolved on first use while metrics are
    /// enabled and again after the registry was cleared. Returns `None`
    /// (without touching the registry) when metrics are off. Takes the
    /// field, not the service, so callers keep borrowing the rest of the
    /// service alongside.
    fn get(slot: &mut Option<Self>) -> Option<&Self> {
        if !telemetry::metrics_enabled() {
            return None;
        }
        let epoch = telemetry::registry_epoch();
        if slot.as_ref().is_none_or(|m| m.epoch != epoch) {
            *slot = Some(Self::resolve(epoch));
        }
        slot.as_ref()
    }

    fn resolve(epoch: u64) -> Self {
        let c = telemetry::counter;
        let h = telemetry::histogram;
        Self {
            epoch,
            admitted: c("serve.admitted"),
            rejected: c("serve.rejected"),
            dropped_late: c("serve.dropped_late"),
            duplicates: c("serve.duplicates"),
            queue_dropped: c("serve.queue_dropped"),
            solves: c("serve.solves"),
            degraded: c("serve.degraded"),
            solve_cache_hit: c("serve.solve_cache_hit"),
            solve_cache_miss: c("serve.solve_cache_miss"),
            incremental_solves: c("serve.incremental_solves"),
            rows_resolved: c("serve.rows_resolved"),
            tick_us: h("serve.tick_us"),
            solve_us: h("serve.solve_us"),
            e2e_us: h("serve.e2e_us"),
        }
    }
}

/// The window cells changed since the last solve, as the rows and
/// columns the incremental path re-solves.
#[derive(Debug)]
struct DirtySet {
    /// Per ring row (`abs_slot % window_slots`): the absolute slot whose
    /// cells changed, or [`DirtySet::CLEAN`]. A tag naming a slot that
    /// has left the window is stale and ignored, so eviction needs no
    /// cleanup.
    slots: Vec<usize>,
    /// Per segment column: whether it changed, through an admitted
    /// report or a cell evicted with its slot.
    col_mark: Vec<bool>,
    /// The marked columns, in marking order.
    cols: Vec<u32>,
}

impl DirtySet {
    const CLEAN: usize = usize::MAX;

    fn new(window_slots: usize, num_segments: usize) -> Self {
        Self {
            slots: vec![Self::CLEAN; window_slots],
            col_mark: vec![false; num_segments],
            cols: Vec::new(),
        }
    }

    fn mark_cell(&mut self, abs_slot: usize, segment: usize) {
        let ring = abs_slot % self.slots.len();
        self.slots[ring] = abs_slot;
        self.mark_col(segment);
    }

    fn mark_col(&mut self, segment: usize) {
        if !self.col_mark[segment] {
            self.col_mark[segment] = true;
            self.cols.push(segment as u32);
        }
    }

    /// The dirty rows relative to the window `tail..=head` and the dirty
    /// columns, both ascending.
    fn rows_cols(&self, tail: usize, head: usize) -> (Vec<usize>, Vec<u32>) {
        let m = self.slots.len();
        let rows = (tail..=head).filter(|&s| self.slots[s % m] == s).map(|s| s - tail).collect();
        let mut cols = self.cols.clone();
        cols.sort_unstable();
        (rows, cols)
    }

    fn clear(&mut self) {
        self.slots.fill(Self::CLEAN);
        for &j in &self.cols {
            self.col_mark[j as usize] = false;
        }
        self.cols.clear();
    }
}

/// Deterministic trace ID of one probe report: the FNV-1a 64-bit digest
/// of `(vehicle, timestamp_s, segment, ingest_seq)`, each absorbed as a
/// little-endian `u64`. The ingest sequence number makes re-deliveries
/// of the same `(vehicle, ts, segment)` key distinguishable while
/// staying a pure function of arrival order — so the ID is
/// byte-identical at any thread count, like the chaos hashes.
pub fn report_trace_id(vehicle: u64, timestamp_s: u64, segment: usize, ingest_seq: u64) -> u64 {
    let mut h = telemetry::Fnv::new();
    h.write_u64(vehicle);
    h.write_u64(timestamp_s);
    h.write_u64(segment as u64);
    h.write_u64(ingest_seq);
    h.finish()
}

/// One queued report with its ingest-time trace context.
#[derive(Debug, Clone, Copy)]
struct Queued {
    obs: Observation,
    /// Sampled trace ID (`None` when tracing is off or unsampled).
    trace: Option<u64>,
    /// Enqueue instant, the start of the `serve.e2e_us` measurement.
    enqueued: Instant,
}

/// The streaming estimation loop of one shard. See the
/// [module docs](self).
///
/// The `pub(crate)` fields are plain counters the engine
/// ([`crate::sharded`]) reads directly; state that other fields must
/// stay consistent with is reached through methods.
#[derive(Debug)]
pub(crate) struct Service {
    config: ServeConfig,
    queue: VecDeque<Queued>,
    window: StreamingTcm,
    estimator: OnlineEstimator,
    /// Last admitted speed per (vehicle, timestamp, segment) key —
    /// the dedup table; pruned as slots leave the window.
    seen: HashMap<(u64, u64, usize), f64>,
    last_good: Option<LiveEstimate>,
    /// Simulated clock: the maximum timestamp ingested so far.
    clock_s: u64,
    /// Window content changed since the last successful solve.
    dirty: bool,
    pub(crate) stats: ServeStats,
    /// Lazily-resolved metric handles (`None` until the first use with
    /// metrics enabled).
    metrics: Option<ServeMetrics>,
    /// Reports pushed so far — the `ingest_seq` input of the next
    /// report's [`report_trace_id`].
    pub(crate) ingest_seq: u64,
    /// Reports admitted this tick, awaiting their estimate (terminal
    /// trace stage + e2e sample). Cleared in place each tick so the
    /// capacity amortizes.
    pending: Vec<(Option<u64>, Instant)>,
    /// Local end-to-end latency histogram (ingest-enqueue to
    /// estimate-ready), always on, so callers read it without a metrics
    /// sink.
    pub(crate) e2e: Histogram,
    /// This tick's e2e samples, merged into `e2e` (and `serve.e2e_us`)
    /// once per tick, then reset.
    e2e_tick: Histogram,
    /// XOR-fold of [`cell_hash`] over every observed window cell — an
    /// order-independent running digest of window content, maintained
    /// O(1) per admission and O(segments) per slot eviction. Keyed by
    /// absolute slot, so sliding the window does not disturb surviving
    /// cells' contributions.
    digest: u64,
    /// Content key of the window at the last successful solve; a dirty
    /// tick whose current key matches is a solve-cache hit.
    last_solve_key: Option<u64>,
    /// Cells whose content changed since the last solve — the work
    /// list the incremental path re-solves.
    dirty_set: DirtySet,
    /// Window tail at the last dedup prune; `seen` can only hold
    /// expired keys once the tail has moved past it.
    pruned_tail: usize,
    /// Solve-cache and incremental-path breakdown.
    pub(crate) solve_stats: SolveStats,
    /// Successful solves since the last full sweep — drives the
    /// [`ServeConfig::full_sweep_every`] correction pass.
    solves_since_full: u64,
}

/// FNV-1a digest of one observed window cell, keyed by absolute slot so
/// the contribution survives window slides unchanged. Hashing the raw
/// `(sum, count)` accumulator bits — not the snapshot's `sum / count` —
/// means windows whose accumulator states are bit-identical (hence whose
/// snapshots and solves are) always fold to the same digest. The
/// converse is not guaranteed: the window digest is a 64-bit XOR fold of
/// these values, so two different windows can collide, and a collision
/// would make the solve cache serve a stale estimate as fresh.
fn cell_hash(abs_slot: usize, segment: u32, sum: f64, count: f64) -> u64 {
    let mut h = telemetry::Fnv::new();
    h.write_u64(abs_slot as u64);
    h.write_u64(u64::from(segment));
    h.write_u64(sum.to_bits());
    h.write_u64(count.to_bits());
    h.finish()
}

impl Service {
    /// Builds the service, validating the configuration.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] on any invalid parameter — construction never
    /// panics on bad input.
    pub fn new(config: ServeConfig) -> Result<Self, Error> {
        config.validate()?;
        let window = StreamingTcm::new(
            config.start_s,
            config.slot_len_s,
            config.window_slots,
            config.num_segments,
        )
        .map_err(|e| ConfigError::new("window", e.to_string()))?;
        let estimator = OnlineEstimator::new(config.cs.clone(), config.window_slots)?;
        Ok(Self {
            clock_s: config.start_s,
            queue: VecDeque::new(),
            pruned_tail: window.tail_slot(),
            window,
            estimator,
            seen: HashMap::new(),
            last_good: None,
            dirty: false,
            stats: ServeStats::default(),
            metrics: None,
            ingest_seq: 0,
            pending: Vec::new(),
            e2e: Histogram::default(),
            e2e_tick: Histogram::default(),
            digest: 0,
            last_solve_key: None,
            dirty_set: DirtySet::new(config.window_slots, config.num_segments),
            solve_stats: SolveStats::default(),
            solves_since_full: 0,
            config,
        })
    }

    /// Content key of the current window: the FNV-1a fold of the cell
    /// digest with the window geometry and head slot — the solve-cache
    /// identity, exposed for differential harnesses. Windows holding
    /// bit-identical content in the same absolute position always share
    /// a key. The converse holds only up to 64-bit collisions of the
    /// XOR-folded digest: two different windows *can* share a key, and
    /// the solve cache would then serve the older estimate as fresh.
    pub fn window_key(&self) -> u64 {
        let mut h = telemetry::Fnv::new();
        h.write_u64(self.digest);
        h.write_u64(self.window.head_slot() as u64);
        h.write_u64(self.config.window_slots as u64);
        h.write_u64(self.config.num_segments as u64);
        h.finish()
    }

    /// The simulated clock: largest timestamp ingested so far.
    pub fn clock_s(&self) -> u64 {
        self.clock_s
    }

    /// Absolute slot index of the newest window row — the alignment
    /// anchor sharded merges stitch on.
    pub fn head_slot(&self) -> usize {
        self.window.head_slot()
    }

    /// Number of reports currently queued and not yet processed.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The current live estimate, if any window has been solved.
    pub fn latest(&self) -> Option<&LiveEstimate> {
        self.last_good.as_ref()
    }

    /// Materializes the current sliding window as a [`probes::Tcm`]
    /// (row 0 = oldest slot): the exact matrix the next solve would
    /// complete.
    pub fn window_snapshot(&self) -> probes::Tcm {
        self.window.snapshot()
    }

    /// Replaces the per-solve wall-clock budget at runtime (`None`
    /// disables the check).
    pub fn set_solve_budget(&mut self, budget: Option<Duration>) {
        self.config.solve_budget = budget;
    }

    /// Replaces the warm-sweep cap at runtime. A cap of `Some(0)` is
    /// clamped to `Some(1)` (the validated minimum). Lowering the cap
    /// is sticky on the estimator until [`Service::cold_restart`]: its
    /// iteration budget only ever shrinks while warm.
    pub fn set_warm_sweep_cap(&mut self, cap: Option<usize>) {
        self.config.warm_sweep_cap = cap.map(|c| c.max(1));
    }

    /// Discards all warm-start state: rebuilds the estimator from the
    /// originally configured [`CsConfig`], restoring the full cold
    /// iteration budget and forgetting cached factors. The next solve
    /// (e.g. via [`Service::refresh`]) is then bit-for-bit identical to
    /// running the offline pipeline on [`Service::window_snapshot`] —
    /// the property the differential oracle checks.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] only if the stored configuration became invalid
    /// (impossible through the public API; kept fallible rather than
    /// panicking).
    pub fn cold_restart(&mut self) -> Result<(), Error> {
        self.estimator = OnlineEstimator::new(self.config.cs.clone(), self.config.window_slots)?;
        // The cached estimate no longer describes what a solve would
        // produce (the cold estimator re-derives factors from scratch),
        // so the next dirty tick must actually solve.
        self.last_solve_key = None;
        Ok(())
    }

    /// Whether tracing is live right now (configured on, sampled, and
    /// the global level admits `Trace` records), and if so the report's
    /// trace ID. One relaxed atomic load plus four FNV rounds when
    /// configured; a single field compare when off.
    fn trace_id_for(&self, obs: &Observation, seq: u64) -> Option<u64> {
        let sample = self.config.trace_sample;
        if sample == 0 || !telemetry::enabled(Level::Trace) {
            return None;
        }
        let id = report_trace_id(obs.vehicle, obs.timestamp_s, obs.segment, seq);
        (id.is_multiple_of(sample)).then_some(id)
    }

    /// Emits one `serve.trace` stage record for a traced report.
    fn trace_stage(id: u64, stage: &str, obs: &Observation) {
        telemetry::trace_event(
            "serve.trace",
            vec![
                ("trace".into(), telemetry::Value::Str(format!("{id:016x}"))),
                ("stage".into(), telemetry::Value::Str(stage.to_string())),
                ("vehicle".into(), telemetry::Value::UInt(obs.vehicle)),
                ("ts".into(), telemetry::Value::UInt(obs.timestamp_s)),
                ("segment".into(), telemetry::Value::UInt(obs.segment as u64)),
            ],
        );
    }

    /// Emits a terminal `serve.trace` record (`solved` / `degraded` /
    /// `checkpointed`) — the stage every admitted trace must reach.
    fn trace_terminal(id: u64, stage: &str) {
        telemetry::trace_event(
            "serve.trace",
            vec![
                ("trace".into(), telemetry::Value::Str(format!("{id:016x}"))),
                ("stage".into(), telemetry::Value::Str(stage.to_string())),
            ],
        );
    }

    /// Enqueues a report. Returns `false` when backpressure refused it
    /// (counted in [`ServeStats::queue_dropped`]); under
    /// [`Backpressure::DropOldest`] the push itself always succeeds at
    /// the cost of the oldest queued report.
    pub fn push(&mut self, obs: Observation) -> bool {
        let seq = self.ingest_seq;
        self.ingest_seq += 1;
        let trace = self.trace_id_for(&obs, seq);
        if self.queue.len() >= self.config.queue_capacity {
            self.stats.queue_dropped += 1;
            if let Some(m) = ServeMetrics::get(&mut self.metrics) {
                m.queue_dropped.incr();
            }
            match self.config.backpressure {
                Backpressure::DropNewest => {
                    if let Some(id) = trace {
                        Self::trace_stage(id, "queue_dropped", &obs);
                    }
                    return false;
                }
                Backpressure::DropOldest => {
                    if let Some(old) = self.queue.pop_front() {
                        if let Some(id) = old.trace {
                            Self::trace_stage(id, "queue_dropped", &old.obs);
                        }
                    }
                }
            }
        }
        if let Some(id) = trace {
            Self::trace_stage(id, "ingest", &obs);
        }
        self.queue.push_back(Queued { obs, trace, enqueued: Instant::now() });
        true
    }

    /// Advances the simulated clock without data, closing (evicting)
    /// slots that fall out of the window. Does not solve.
    pub fn advance_clock(&mut self, now_s: u64) {
        if now_s <= self.clock_s {
            return;
        }
        self.clock_s = now_s;
        if let Some(slot) = self.window.slot_of(now_s) {
            if slot > self.window.head_slot() {
                self.advance_window(slot);
                self.prune_seen();
                self.dirty = true;
            }
        }
    }

    /// Advances the window head to `slot`, folding every evicted cell
    /// out of the content digest and recording its column as dirty for
    /// the next delta pass — eviction changes those columns' observed
    /// entries just as surely as a new report does.
    fn advance_window(&mut self, slot: usize) {
        while self.window.head_slot() < slot {
            let tail = self.window.tail_slot();
            let (sums, counts) = self.window.row_raw(0);
            for (j, (&s, &c)) in sums.iter().zip(counts).enumerate() {
                if c > 0.0 {
                    self.digest ^= cell_hash(tail, j as u32, s, c);
                    self.dirty_set.mark_col(j);
                }
            }
            self.window.advance_to_slot(tail + self.config.window_slots);
        }
        // Evicted cells are gone, not dirty: their row tags went stale
        // with the slot, and their change is carried by the column marks.
    }

    /// Drains the ingest queue through the admission rules, then — if
    /// the window changed — runs one watchdogged solve. Never fails:
    /// bad input and solve trouble become counters and staleness.
    pub fn tick(&mut self) -> TickReport {
        let mut span = telemetry::span(Level::Debug, "serve.tick");
        let t0 = Instant::now();
        let mut report = TickReport::default();
        while let Some(queued) = self.queue.pop_front() {
            self.admit(queued, &mut report);
        }
        self.prune_seen();
        if self.dirty {
            let (solved, degraded, solve_wall) = self.solve();
            report.solved = solved;
            report.degraded = degraded;
            report.solve_us = solve_wall.as_micros() as u64;
        }
        self.finish_pending(&report);
        report.tick_us = t0.elapsed().as_micros() as u64;
        if let Some(m) = ServeMetrics::get(&mut self.metrics) {
            m.admitted.add(report.admitted as u64);
            m.rejected.add(report.rejected as u64);
            m.dropped_late.add(report.dropped_late as u64);
            m.duplicates.add(report.duplicates as u64);
            m.tick_us.observe(report.tick_us as f64);
            // Every solve attempt ends solved, degraded, or both.
            if report.solved || report.degraded {
                m.solve_us.observe(report.solve_us as f64);
            }
        }
        if span.is_enabled() {
            span.record("admitted", report.admitted as u64);
            span.record("rejected", report.rejected as u64);
            span.record("late", report.dropped_late as u64);
            span.record("solved", if report.solved { 1u64 } else { 0 });
        }
        if report.degraded {
            self.dump_flight("solve_degraded");
        }
        report
    }

    /// Settles the reports admitted this tick: samples their end-to-end
    /// latency (enqueue instant to the settle instant, when the estimate
    /// became ready) and emits the terminal trace stage. An admitted
    /// report implies a dirty window, so the solve always ran this tick —
    /// the terminal is `solved`, or `degraded` when it failed or blew its
    /// budget.
    fn finish_pending(&mut self, report: &TickReport) {
        if self.pending.is_empty() {
            return;
        }
        let stage = if report.degraded { "degraded" } else { "solved" };
        // One clock read settles the whole tick: every pending report's
        // estimate became ready at the same instant.
        let settled = Instant::now();
        for &(trace, enqueued) in &self.pending {
            self.e2e_tick.observe(settled.saturating_duration_since(enqueued).as_micros() as f64);
            if let Some(id) = trace {
                Self::trace_terminal(id, stage);
            }
        }
        self.pending.clear();
        self.e2e.merge(&self.e2e_tick);
        if let Some(m) = ServeMetrics::get(&mut self.metrics) {
            m.e2e_us.merge(&self.e2e_tick);
        }
        self.e2e_tick.reset();
    }

    /// Dumps the installed flight recorder to the configured path
    /// (best-effort; a dump failure must not take the tick down).
    fn dump_flight(&self, trigger: &str) {
        if let Some(path) = &self.config.flight_dump {
            if let Some(recorder) = telemetry::flight::recorder() {
                if let Err(e) = recorder.dump_to_path(path, trigger) {
                    telemetry::tele_event!(
                        Level::Error,
                        "serve.flight_dump_failed",
                        "path" => path.display().to_string(),
                        "error" => e.to_string(),
                    );
                }
            }
        }
    }

    /// Runs one solve attempt on the current window even if nothing new
    /// arrived — the recovery path after degraded ticks, and the way to
    /// refresh after [`Service::advance_clock`].
    pub fn refresh(&mut self) -> TickReport {
        self.dirty = true;
        self.tick()
    }

    /// Applies the admission rules to one report.
    fn admit(&mut self, queued: Queued, report: &mut TickReport) {
        let Queued { obs, trace, enqueued } = queued;
        // Rule 1: malformed reports are rejected outright.
        if !obs.speed_kmh.is_finite()
            || obs.speed_kmh < 0.0
            || obs.segment >= self.config.num_segments
        {
            self.stats.rejected += 1;
            report.rejected += 1;
            if let Some(id) = trace {
                Self::trace_stage(id, "rejected", &obs);
            }
            return;
        }
        if obs.timestamp_s > self.clock_s {
            self.clock_s = obs.timestamp_s;
        }
        // Rule 2: late reports (slot already evicted, or before the grid
        // start) are dropped and counted.
        let slot = self.window.slot_of(obs.timestamp_s);
        let late = match slot {
            None => true,
            Some(s) => s < self.window.tail_slot(),
        };
        if late {
            self.stats.dropped_late += 1;
            report.dropped_late += 1;
            if let Some(id) = trace {
                Self::trace_stage(id, "dropped_late", &obs);
            }
            return;
        }
        // The slot is in range and not late; slide the window here (the
        // digest eviction path) rather than letting `observe` do it, so
        // every content change flows through the digest.
        let abs_slot = slot.expect("late check above rules out None");
        if abs_slot > self.window.head_slot() {
            self.advance_window(abs_slot);
        }
        let row = abs_slot - self.window.tail_slot();
        let (old_sum, old_count) = self.window.cell_raw(row, obs.segment);
        // Rule 3: exact re-delivery of an admitted key — last write wins.
        let key = (obs.vehicle, obs.timestamp_s, obs.segment);
        if let Some(&old_speed) = self.seen.get(&key) {
            self.stats.duplicates += 1;
            report.duplicates += 1;
            if let Some(id) = trace {
                Self::trace_stage(id, "duplicate", &obs);
            }
            // The old contribution is still in the window (we checked
            // lateness above); replace it.
            let _ = self.window.retract(obs.timestamp_s, obs.segment, old_speed);
        }
        self.window
            .observe(obs.timestamp_s, obs.segment, obs.speed_kmh)
            .expect("validated above: segment in range, speed finite and non-negative");
        // Fold the cell's accumulator transition into the content
        // digest and mark it dirty. A retract+observe that lands the
        // accumulators back on the exact old bits cancels out — the
        // digest (and so the solve cache) tracks actual content, not
        // traffic.
        let (new_sum, new_count) = self.window.cell_raw(row, obs.segment);
        if old_count > 0.0 {
            self.digest ^= cell_hash(abs_slot, obs.segment as u32, old_sum, old_count);
        }
        if new_count > 0.0 {
            self.digest ^= cell_hash(abs_slot, obs.segment as u32, new_sum, new_count);
        }
        self.dirty_set.mark_cell(abs_slot, obs.segment);
        self.seen.insert(key, obs.speed_kmh);
        self.stats.admitted += 1;
        report.admitted += 1;
        if let Some(id) = trace {
            // Window placement: the slot row this report's speed landed
            // in — `slot` is `Some` and in-window past the rules above.
            telemetry::trace_event(
                "serve.trace",
                vec![
                    ("trace".into(), telemetry::Value::Str(format!("{id:016x}"))),
                    ("stage".into(), telemetry::Value::Str("admitted".to_string())),
                    ("slot".into(), telemetry::Value::UInt(slot.unwrap_or(0) as u64)),
                    ("segment".into(), telemetry::Value::UInt(obs.segment as u64)),
                ],
            );
        }
        self.pending.push((trace, enqueued));
        self.dirty = true;
    }

    /// Drops dedup entries whose slot left the window. Keys are only
    /// inserted for in-window slots, so none can expire while the tail
    /// stands still: the scan runs once per slot eviction, not per tick.
    fn prune_seen(&mut self) {
        let tail = self.window.tail_slot();
        if tail == self.pruned_tail {
            return;
        }
        self.pruned_tail = tail;
        let start = self.config.start_s;
        let slot_len = self.config.slot_len_s;
        self.seen.retain(|&(_, ts, _), _| match ts.checked_sub(start) {
            Some(d) => (d / slot_len) as usize >= tail,
            None => false,
        });
    }

    /// Per-solve success bookkeeping shared by all three solve paths:
    /// the solves counter, the sweep-cap clamp, and the wall-clock half
    /// of the watchdog. Returns whether the solve blew its budget.
    fn settle_solved(&mut self, wall: Duration) -> bool {
        self.dirty = false;
        self.dirty_set.clear();
        self.stats.solves += 1;
        if let Some(m) = ServeMetrics::get(&mut self.metrics) {
            m.solves.incr();
        }
        // Watchdog, sweep half: after a successful (possibly cold)
        // solve, clamp subsequent warm solves.
        if let Some(cap) = self.config.warm_sweep_cap {
            self.estimator.limit_iterations(cap);
        }
        // Watchdog, wall-clock half: accept the estimate but flag it
        // stale when the solve blew its budget.
        let over_budget = self.config.solve_budget.is_some_and(|budget| wall > budget);
        if over_budget {
            self.stats.degraded += 1;
            if let Some(m) = ServeMetrics::get(&mut self.metrics) {
                m.degraded.incr();
            }
        }
        over_budget
    }

    /// Per-solve failure bookkeeping: degraded accounting plus cache
    /// invalidation. The window stays dirty so the next tick retries.
    fn settle_degraded(&mut self) {
        self.stats.degraded += 1;
        if let Some(m) = ServeMetrics::get(&mut self.metrics) {
            m.degraded.incr();
        }
        self.last_solve_key = None;
        if let Some(last) = &mut self.last_good {
            last.stale = true;
        }
    }

    /// The dirty-set work plan for an incremental solve — window-relative
    /// rows and segment columns touched since the last solve — or `None`
    /// when the incremental path must not run: disabled, unprimed, due
    /// for a correction pass, the window slid too far or may be empty,
    /// or the dirty fraction makes a full sweep cheaper.
    fn incremental_plan(&self) -> Option<(Vec<usize>, Vec<u32>)> {
        let (m, n) = (self.config.window_slots, self.config.num_segments);
        if self.config.full_sweep_every <= 1
            || self.solves_since_full + 1 >= self.config.full_sweep_every
            || self.last_good.is_none()
            || !self.estimator.incremental_primed()
            // A zero digest means the window is (almost surely) empty;
            // the full path owns the empty-window behaviour (a counted
            // degradation), and the delta pass must not shadow it.
            || self.digest == 0
        {
            return None;
        }
        let head = self.window.head_slot();
        let shift = head.checked_sub(self.estimator.incremental_head_slot()?)?;
        if shift >= m {
            return None;
        }
        let (rows, cols) = self.dirty_set.rows_cols(self.window.tail_slot(), head);
        // Unit-solve cost model: a dirty row costs O(n) to gather and
        // propagate, a dirty column O(m), and each shifted-in row O(n);
        // a full sweep costs O(m·n) per sweep.
        let cost = rows.len() * n + cols.len() * m + shift * n;
        if cost as f64 > self.config.incremental_threshold * (m * n) as f64 {
            return None;
        }
        Some((rows, cols))
    }

    /// One watchdogged solve. Returns `(solved, degraded, wall_clock)`.
    ///
    /// Cheapest path first: a solve-cache hit (window content
    /// bit-identical to the last solved content, by [`Service::window_key`])
    /// reuses the live estimate without touching the solver; a primed
    /// dirty set within budget takes the O(delta) incremental pass; and
    /// everything else — including every [`ServeConfig::full_sweep_every`]-th
    /// solve as a correction pass — runs the full warm sweep, which
    /// re-primes the incremental state from its factors.
    fn solve(&mut self) -> (bool, bool, Duration) {
        let key = self.window_key();
        let mut span = telemetry::span(Level::Debug, "serve.solve");
        let t0 = Instant::now();
        // Path 1: solve cache.
        if self.last_good.is_some() && self.last_solve_key == Some(key) {
            let wall = t0.elapsed();
            self.solve_stats.cache_hits += 1;
            if let Some(m) = ServeMetrics::get(&mut self.metrics) {
                m.solve_cache_hit.incr();
            }
            let over_budget = self.settle_solved(wall);
            if span.is_enabled() {
                span.record("path", "cache");
                span.record("over_budget", if over_budget { 1u64 } else { 0 });
            }
            let last = self.last_good.as_mut().expect("gated on is_some above");
            last.solved_at_s = self.clock_s;
            last.stale = over_budget;
            return (true, over_budget, wall);
        }
        self.solve_stats.cache_misses += 1;
        if let Some(m) = ServeMetrics::get(&mut self.metrics) {
            m.solve_cache_miss.incr();
        }
        // Path 2: incremental dirty-set pass.
        if let Some((rows, cols)) = self.incremental_plan() {
            let head = self.window.head_slot();
            let mut last = self.last_good.take().expect("plan requires a live estimate");
            let outcome = self.estimator.update_incremental(
                &self.window,
                head,
                &rows,
                &cols,
                &mut last.estimate,
            );
            let wall = t0.elapsed();
            match outcome {
                Ok(inc) => {
                    self.solve_stats.incremental_solves += 1;
                    self.solve_stats.rows_resolved += inc.rows_resolved as u64;
                    if let Some(m) = ServeMetrics::get(&mut self.metrics) {
                        m.incremental_solves.incr();
                        m.rows_resolved.add(inc.rows_resolved as u64);
                    }
                    let over_budget = self.settle_solved(wall);
                    if span.is_enabled() {
                        span.record("path", "incremental");
                        span.record("rows_resolved", inc.rows_resolved as u64);
                        span.record("objective", inc.objective);
                        span.record("over_budget", if over_budget { 1u64 } else { 0 });
                    }
                    last.head_slot = head;
                    last.solved_at_s = self.clock_s;
                    last.stale = over_budget;
                    last.sweeps = 1;
                    last.objective = inc.objective;
                    self.last_good = Some(last);
                    self.solves_since_full += 1;
                    self.last_solve_key = Some(key);
                    return (true, over_budget, wall);
                }
                Err(err) => {
                    // The estimator dropped its delta state, so the
                    // retry next tick takes the full path; the partially
                    // updated estimate is kept, explicitly stale.
                    self.last_good = Some(last);
                    self.settle_degraded();
                    if span.is_enabled() {
                        span.record("path", "incremental");
                        span.record("error", err.to_string());
                    }
                    return (false, true, wall);
                }
            }
        }
        // Path 3: full warm sweep.
        let snapshot = self.window.snapshot();
        let outcome = self.estimator.update_detailed(&snapshot);
        let wall = t0.elapsed();
        match outcome {
            Ok(result) => {
                // Re-prime the delta path from this solve's factors (its
                // L rows are exactly consistent with R, the property the
                // dirty-row skip relies on).
                if self.config.full_sweep_every > 1 {
                    let _ = self.estimator.prime_incremental(
                        &self.window,
                        self.window.head_slot(),
                        &result.factors.0,
                        &result.factors.1,
                    );
                }
                self.solve_stats.full_solves += 1;
                let over_budget = self.settle_solved(wall);
                if span.is_enabled() {
                    span.record("path", "full");
                    span.record("sweeps", result.sweeps as u64);
                    span.record("objective", result.objective);
                    span.record("over_budget", if over_budget { 1u64 } else { 0 });
                }
                self.last_good = Some(LiveEstimate {
                    estimate: result.estimate,
                    head_slot: self.window.head_slot(),
                    solved_at_s: self.clock_s,
                    stale: over_budget,
                    sweeps: result.sweeps,
                    objective: result.objective,
                });
                self.solves_since_full = 0;
                self.last_solve_key = Some(key);
                (true, over_budget, wall)
            }
            Err(err) => {
                // Degrade: keep answering from the last good estimate,
                // now explicitly stale. The window stays dirty so the
                // next tick retries.
                self.settle_degraded();
                if span.is_enabled() {
                    span.record("path", "full");
                    span.record("error", err.to_string());
                }
                (false, true, wall)
            }
        }
    }

    // ------------------------------------------------------------------
    // Checkpointing
    // ------------------------------------------------------------------

    /// Serializes the warm-start state to the versioned text format.
    ///
    /// Matrix entries are written as `f64::to_bits` hex words, so a
    /// restore reproduces the factors bit-for-bit and the restarted
    /// solver behaves exactly like the uninterrupted one.
    pub fn checkpoint(&self) -> String {
        // Reports still queued when the process checkpoints will reach
        // no solve in this life; `checkpointed` is their terminal trace
        // stage (the replayed stream re-ingests them after restore).
        for queued in &self.queue {
            if let Some(id) = queued.trace {
                Self::trace_terminal(id, "checkpointed");
            }
        }
        let mut out = String::from("cs-serve-checkpoint v1\n");
        out.push_str(&format!("clock {}\n", self.clock_s));
        out.push_str(&format!("head_slot {}\n", self.window.head_slot()));
        match self.estimator.warm_factors() {
            None => out.push_str("factors none\n"),
            Some(r) => {
                out.push_str(&format!("factors {} {}\n", r.rows(), r.cols()));
                for i in 0..r.rows() {
                    let words: Vec<String> =
                        r.row(i).iter().map(|v| format!("{:016x}", v.to_bits())).collect();
                    out.push_str(&words.join(" "));
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Restores warm-start state produced by [`Service::checkpoint`].
    ///
    /// Only the solver state is restored — the window refills from the
    /// replayed stream. The clock advances to the checkpointed value so
    /// slot eviction picks up where the previous process stopped.
    ///
    /// # Errors
    ///
    /// [`ServeError::Checkpoint`] (wrapped in the unified
    /// [`enum@Error`]) on version mismatch or malformed content;
    /// [`Error::Config`] when the factors do not fit this service's
    /// configured rank.
    pub fn restore(&mut self, text: &str) -> Result<(), Error> {
        let bad = |line: usize, msg: &str| -> Error {
            ServeError::Checkpoint { line, msg: msg.to_string() }.into()
        };
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or_else(|| bad(1, "empty checkpoint"))?;
        if header.trim() != "cs-serve-checkpoint v1" {
            return Err(bad(1, "not a cs-serve-checkpoint v1 file"));
        }
        let (_, clock_line) = lines.next().ok_or_else(|| bad(2, "missing clock line"))?;
        let clock = clock_line
            .strip_prefix("clock ")
            .and_then(|v| v.trim().parse::<u64>().ok())
            .ok_or_else(|| bad(2, "malformed clock line"))?;
        let (_, head_line) = lines.next().ok_or_else(|| bad(3, "missing head_slot line"))?;
        head_line
            .strip_prefix("head_slot ")
            .and_then(|v| v.trim().parse::<u64>().ok())
            .ok_or_else(|| bad(3, "malformed head_slot line"))?;
        let (_, factors_line) = lines.next().ok_or_else(|| bad(4, "missing factors line"))?;
        let spec = factors_line
            .strip_prefix("factors ")
            .ok_or_else(|| bad(4, "malformed factors line"))?
            .trim();
        if spec != "none" {
            let mut dims = spec.split_whitespace();
            let rows: usize = dims
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad(4, "malformed factor rows"))?;
            let cols: usize = dims
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| bad(4, "malformed factor cols"))?;
            // A corrupted dims line must not become a giant allocation:
            // real factor matrices are segments × rank, far below this.
            const MAX_FACTOR_CELLS: usize = 1 << 24;
            if rows == 0 || cols == 0 || rows.checked_mul(cols).is_none_or(|c| c > MAX_FACTOR_CELLS)
            {
                return Err(bad(4, "implausible factor dimensions"));
            }
            let mut r = Matrix::zeros(rows, cols);
            for i in 0..rows {
                let (line_no, row_line) =
                    lines.next().ok_or_else(|| bad(5 + i, "truncated factor matrix"))?;
                let mut words = row_line.split_whitespace();
                for j in 0..cols {
                    let word = words.next().ok_or_else(|| bad(line_no + 1, "short factor row"))?;
                    // Exactly 16 hex digits per word: a checkpoint cut
                    // mid-word must be detected, not silently restored
                    // as a different (shifted) bit pattern.
                    if word.len() != 16 {
                        return Err(bad(line_no + 1, "malformed hex word"));
                    }
                    let bits = u64::from_str_radix(word, 16)
                        .map_err(|_| bad(line_no + 1, "malformed hex word"))?;
                    r.set(i, j, f64::from_bits(bits));
                }
                if words.next().is_some() {
                    return Err(bad(line_no + 1, "trailing values in factor row"));
                }
            }
            self.estimator.set_warm_factors(r)?;
        }
        // Restored factors change what the next solve would produce;
        // any cached solve identity is void.
        self.last_solve_key = None;
        self.advance_clock(clock);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ServeConfig {
        ServeConfig::builder()
            .slot_len_s(60)
            .window_slots(4)
            .num_segments(3)
            .cs(CsConfig { rank: 2, lambda: 0.1, ..CsConfig::default() })
            .build()
            .unwrap()
    }

    fn obs(vehicle: u64, timestamp_s: u64, segment: usize, speed_kmh: f64) -> Observation {
        Observation { vehicle, timestamp_s, segment, speed_kmh }
    }

    #[test]
    fn builder_validates() {
        assert!(ServeConfig::builder().window_slots(0).build().is_err());
        assert!(ServeConfig::builder().slot_len_s(0).build().is_err());
        assert!(ServeConfig::builder().num_segments(0).build().is_err());
        assert!(ServeConfig::builder().queue_capacity(0).build().is_err());
        assert!(ServeConfig::builder().warm_sweep_cap(Some(0)).build().is_err());
        let bad_cs = CsConfig { rank: 0, ..CsConfig::default() };
        assert!(ServeConfig::builder().cs(bad_cs).build().is_err());
        // Service::new validates struct literals too.
        let cfg = ServeConfig { window_slots: 0, ..ServeConfig::default() };
        assert!(matches!(Service::new(cfg), Err(Error::Config(_))));
    }

    #[test]
    fn backpressure_policies() {
        let cfg = ServeConfig { queue_capacity: 2, ..small_cfg() };
        let mut s = Service::new(cfg).unwrap();
        assert!(s.push(obs(1, 0, 0, 30.0)));
        assert!(s.push(obs(2, 1, 0, 31.0)));
        assert!(!s.push(obs(3, 2, 0, 32.0)), "DropNewest refuses when full");
        assert_eq!(s.stats.queue_dropped, 1);
        assert_eq!(s.queue_len(), 2);

        let cfg = ServeConfig {
            queue_capacity: 2,
            backpressure: Backpressure::DropOldest,
            ..small_cfg()
        };
        let mut s = Service::new(cfg).unwrap();
        s.push(obs(1, 0, 0, 30.0));
        s.push(obs(2, 1, 0, 31.0));
        assert!(s.push(obs(3, 2, 0, 32.0)), "DropOldest admits the newest");
        assert_eq!(s.stats.queue_dropped, 1);
        let report = s.tick();
        // Vehicle 1's report was evicted before processing.
        assert_eq!(report.admitted, 2);
    }

    #[test]
    fn checkpoint_rejects_garbage() {
        let mut s = Service::new(small_cfg()).unwrap();
        for text in [
            "",
            "something else\n",
            "cs-serve-checkpoint v1\n",
            "cs-serve-checkpoint v1\nclock x\n",
            "cs-serve-checkpoint v1\nclock 5\nhead_slot 3\nfactors 2 2\ndeadbeef\n",
            "cs-serve-checkpoint v1\nclock 5\nhead_slot 3\nfactors 1 1\nnothex0000000000\n",
        ] {
            let err = s.restore(text).unwrap_err();
            assert!(matches!(err, Error::Serve(ServeError::Checkpoint { .. })), "{text:?}: {err}");
        }
        // Factors with the wrong rank surface as a config error.
        let text = "cs-serve-checkpoint v1\nclock 0\nhead_slot 3\nfactors 1 7\n\
                    0000000000000000 0000000000000000 0000000000000000 0000000000000000 \
                    0000000000000000 0000000000000000 0000000000000000\n";
        assert!(matches!(s.restore(text), Err(Error::Config(_))));
    }

    #[test]
    fn checkpoint_detects_truncated_hex_word() {
        // A word cut mid-way is still valid hex ("3ff00" parses), so
        // without a length check it would restore as a silently shifted
        // bit pattern. The format requires exactly 16 hex digits.
        let mut s = Service::new(small_cfg()).unwrap();
        let text = "cs-serve-checkpoint v1\nclock 0\nhead_slot 3\nfactors 1 2\n\
                    3ff0000000000000 3ff00\n";
        let err = s.restore(text).unwrap_err();
        assert!(matches!(err, Error::Serve(ServeError::Checkpoint { .. })), "{err}");
        // Over-long words are just as corrupt.
        let text = "cs-serve-checkpoint v1\nclock 0\nhead_slot 3\nfactors 1 1\n\
                    3ff00000000000000\n";
        assert!(s.restore(text).is_err());
    }

    #[test]
    fn checkpoint_rejects_implausible_dimensions() {
        // A bit-flipped dims line must error out, not allocate gigabytes.
        let mut s = Service::new(small_cfg()).unwrap();
        for dims in ["999999999 999999999", "0 2", "2 0", "18446744073709551615 2"] {
            let text = format!("cs-serve-checkpoint v1\nclock 0\nhead_slot 3\nfactors {dims}\n");
            let err = s.restore(&text).unwrap_err();
            assert!(matches!(err, Error::Serve(ServeError::Checkpoint { .. })), "{dims}: {err}");
        }
    }

    #[test]
    fn cold_restart_reproduces_offline_solve() {
        // Warm-started service vs offline completion of the same window:
        // after cold_restart + refresh the estimates agree bit for bit.
        let mut s = Service::new(small_cfg()).unwrap();
        for t in 0..12u64 {
            for seg in 0..3usize {
                s.push(obs(100 + t, t * 60 + 5, seg, 25.0 + t as f64 + seg as f64));
            }
            s.tick();
        }
        assert!(s.latest().is_some());
        s.cold_restart().unwrap();
        let report = s.refresh();
        assert!(report.solved);
        let live = s.latest().unwrap().estimate.clone();
        let offline = crate::cs::complete_matrix_detailed(&s.window_snapshot(), &s.config.cs)
            .unwrap()
            .estimate;
        assert_eq!(live.shape(), offline.shape());
        for (r, c, v) in live.iter() {
            assert_eq!(v.to_bits(), offline.get(r, c).to_bits(), "cell ({r},{c})");
        }
    }

    #[test]
    fn runtime_watchdog_setters() {
        let mut s = Service::new(small_cfg()).unwrap();
        s.set_warm_sweep_cap(Some(0));
        assert_eq!(s.config.warm_sweep_cap, Some(1), "zero cap clamps to the valid minimum");
        s.set_warm_sweep_cap(None);
        assert_eq!(s.config.warm_sweep_cap, None);
        // A zero wall-clock budget degrades every successful solve.
        s.set_solve_budget(Some(Duration::ZERO));
        s.push(obs(1, 30, 0, 40.0));
        let report = s.tick();
        assert!(report.solved && report.degraded);
        assert_eq!(s.stats.solves, 1);
        assert_eq!(s.stats.degraded, 1);
        assert!(s.latest().unwrap().stale);
        s.set_solve_budget(None);
        let report = s.refresh();
        assert!(report.solved && !report.degraded);
        assert!(!s.latest().unwrap().stale);
    }
}

/// Property tests of the `cs-serve-checkpoint v1` text format.
///
/// The checkpoint contract is stronger than "restore works": factor
/// entries are `f64::to_bits` hex words, so *any* bit pattern — values
/// the solver would never produce included — must survive
/// save → restore → save byte-for-byte, and any truncation of the text
/// must either be rejected outright or (when the cut only removes the
/// trailing newline) restore the complete state. These properties are
/// what the chaos harness's checkpoint faults lean on.
#[cfg(test)]
mod checkpoint_properties {
    use super::*;
    use proptest::prelude::*;

    const SLOT_LEN: u64 = 60;
    const WINDOW: usize = 4;
    const RANK: usize = 2;

    fn service() -> Service {
        let cfg = ServeConfig::builder()
            .slot_len_s(SLOT_LEN)
            .window_slots(WINDOW)
            .num_segments(3)
            .cs(CsConfig { rank: RANK, lambda: 0.1, ..CsConfig::default() })
            .build()
            .unwrap();
        Service::new(cfg).unwrap()
    }

    /// Builds checkpoint text exactly as `Service::checkpoint` would for the
    /// given clock and factor rows, so a restore → checkpoint round trip can
    /// be compared byte-for-byte. `head_slot` is derived the same way the
    /// service derives it: `max(window - 1, clock / slot_len)`.
    fn checkpoint_text(clock: u64, rows: &[[u64; RANK]]) -> String {
        let head = (WINDOW as u64 - 1).max(clock / SLOT_LEN);
        let mut out = format!("cs-serve-checkpoint v1\nclock {clock}\nhead_slot {head}\n");
        out.push_str(&format!("factors {} {RANK}\n", rows.len()));
        for row in rows {
            let words: Vec<String> = row.iter().map(|b| format!("{b:016x}")).collect();
            out.push_str(&words.join(" "));
            out.push('\n');
        }
        out
    }

    /// Strategy: one f64 bit pattern, biased toward the extremes the format
    /// must preserve exactly (subnormals, infinities, NaN payloads, -0.0,
    /// the largest finite value) but also covering arbitrary raw bits.
    fn bit_pattern() -> impl Strategy<Value = u64> {
        (0u64..u64::MAX, 0u8..8).prop_map(|(raw, tag)| match tag {
            0 => 0x0000_0000_0000_0001, // smallest positive subnormal
            1 => 0x000f_ffff_ffff_ffff, // largest subnormal
            2 => f64::INFINITY.to_bits(),
            3 => f64::NEG_INFINITY.to_bits(),
            4 => 0x7ff8_0000_0000_0000 | (raw & 0x0007_ffff_ffff_ffff), // NaN, arbitrary payload
            5 => (-0.0f64).to_bits(),
            6 => f64::MAX.to_bits(),
            _ => raw,
        })
    }

    fn factor_rows() -> impl Strategy<Value = Vec<[u64; RANK]>> {
        proptest::collection::vec(
            (bit_pattern(), bit_pattern()).prop_map(|(a, b)| [a, b]),
            1..8usize,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any factor bit patterns — subnormal, infinite, NaN with payload —
        /// survive restore → checkpoint byte-for-byte.
        #[test]
        fn round_trip_is_byte_identical(clock in 0u64..100_000, rows in factor_rows()) {
            let text = checkpoint_text(clock, &rows);
            let mut svc = service();
            svc.restore(&text).unwrap();
            prop_assert_eq!(svc.checkpoint(), text);
            prop_assert_eq!(svc.clock_s(), clock);
        }

        /// Truncation at any byte either fails loudly or restores the full
        /// state (only cutting the final newline leaves a valid prefix).
        #[test]
        fn truncation_is_detected_or_harmless(
            clock in 0u64..100_000,
            rows in factor_rows(),
            cut_frac in 0.0f64..1.0,
        ) {
            let text = checkpoint_text(clock, &rows);
            // Map the fraction onto a byte offset; the text is pure ASCII so
            // every offset is a char boundary.
            let cut = ((text.len() as f64) * cut_frac) as usize;
            let mut svc = service();
            match svc.restore(&text[..cut.min(text.len())]) {
                // The only prefixes allowed to restore are ones encoding the
                // complete state — re-checkpointing must reproduce the whole
                // original text, never a shifted or partial factor matrix.
                Ok(()) => prop_assert_eq!(svc.checkpoint(), text),
                Err(e) => {
                    let msg = e.to_string();
                    prop_assert!(msg.contains("checkpoint"), "unexpected error class: {}", msg);
                }
            }
        }
    }

    #[test]
    fn every_special_value_round_trips_and_the_service_stays_alive() {
        // One row per special, pinned explicitly (the property test above
        // reaches these probabilistically; this is the deterministic record).
        let specials = [
            [1.0f64.to_bits(), f64::MIN_POSITIVE.to_bits()],
            [0x0000_0000_0000_0001, 0x000f_ffff_ffff_ffff], // subnormal extremes
            [f64::INFINITY.to_bits(), f64::NEG_INFINITY.to_bits()],
            [0x7ff8_0000_0000_dead, 0xfff8_0000_0000_beef], // NaN payloads, both signs
            [(-0.0f64).to_bits(), f64::MAX.to_bits()],
        ];
        let text = checkpoint_text(120, &specials);
        let mut svc = service();
        svc.restore(&text).unwrap();
        assert_eq!(svc.checkpoint(), text);

        // Poisoned warm factors must degrade, never panic: the next tick
        // re-solves from them and the service keeps answering the API.
        for seg in 0..3 {
            svc.push(Observation {
                vehicle: seg as u64,
                timestamp_s: 130,
                segment: seg,
                speed_kmh: 30.0,
            });
        }
        svc.tick();
        let _ = svc.stats;
    }

    #[test]
    fn head_slot_is_derived_from_clock_not_trusted() {
        // A checkpoint claiming an inconsistent head_slot restores from its
        // clock: the re-checkpointed head is max(window-1, clock/slot_len).
        // Pinning this documents why crafted texts must use the derived head
        // to round-trip byte-identically.
        let mut text = checkpoint_text(600, &[[1.0f64.to_bits(), 2.0f64.to_bits()]]);
        text = text.replace("head_slot 10", "head_slot 999");
        let mut svc = service();
        svc.restore(&text).unwrap();
        assert!(svc.checkpoint().contains("head_slot 10\n"));
    }

    #[test]
    fn rank_mismatch_is_rejected_as_config_error() {
        // cols != configured rank: factors from another configuration must
        // not silently mis-seed the solver.
        let text = "cs-serve-checkpoint v1\nclock 0\nhead_slot 3\nfactors 2 3\n\
                    3ff0000000000000 3ff0000000000000 3ff0000000000000\n\
                    3ff0000000000000 3ff0000000000000 3ff0000000000000\n";
        let mut svc = service();
        let err = svc.restore(text).unwrap_err().to_string();
        assert!(err.contains("rank") || err.contains("warm_factors"), "got: {err}");
    }
}
