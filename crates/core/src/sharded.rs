//! The streaming estimation engine: [`ShardedService`].
//!
//! [`ShardedService`] is the one engine the serve daemon, the CSV
//! replayer, the chaos harness and the load generator all drive. A
//! validated [`ShardPlan`] splits the segment columns into contiguous
//! balanced ranges, each owned by an independent per-shard core (its
//! own `StreamingTcm` window, warm `OnlineEstimator`, bounded ingest
//! queue and counters — see the [`service`](crate::service) module for
//! the loop every shard runs), with a router mapping global segment
//! indices to shards and a merged query view stitching the per-shard
//! estimates back into one metro-wide matrix. The default plan
//! ([`ShardPlan::single`]) is one shard owning every column.
//!
//! # Determinism contract
//!
//! Shards never read each other's state, so per-shard results are
//! bit-for-bit identical at any thread count (shard ticks fan out over
//! [`workpool`]), and the merge only copies bits: with one shard the
//! merged estimate *is* that shard's estimate. The parity tests and the
//! chaos golden file pin both properties.
//!
//! # Merged view semantics
//!
//! After each tick the shards' stream clocks are synchronized to the
//! maximum (lagging windows slide forward and re-solve), so shards that
//! carry data agree on the head slot. The merged [`LiveEstimate`]
//! places each shard's window block into its global column range;
//! columns of shards that have produced no estimate yet read 0.0 and
//! flag the merge `stale`, as does any head-slot disagreement — a
//! merged estimate is only `!stale` when every shard contributed a
//! fresh, aligned block. The view is rebuilt in place, and only when
//! some shard's estimate changed (a solve or a degrade), so idle ticks
//! and solve-cache hits stay allocation-free.
//!
//! # Example
//!
//! ```
//! use traffic_cs::cs::CsConfig;
//! use traffic_cs::service::{Observation, ServeConfig};
//! use traffic_cs::sharded::ShardedService;
//!
//! let cfg = ServeConfig::builder()
//!     .slot_len_s(60)
//!     .window_slots(4)
//!     .num_segments(3)
//!     .cs(CsConfig { rank: 2, lambda: 0.1, ..CsConfig::default() })
//!     .build()?;
//! let mut service = ShardedService::new(cfg)?;
//! for t in 0..240 {
//!     service.push(Observation { vehicle: t, timestamp_s: t, segment: (t % 3) as usize, speed_kmh: 30.0 });
//! }
//! let report = service.tick();
//! assert_eq!(report.admitted, 240);
//! assert!(service.latest().is_some());
//! # Ok::<(), traffic_cs::Error>(())
//! ```

use std::io::Write as _;
use std::ops::Range;
use std::path::Path;

use linalg::Matrix;
use telemetry::Histogram;

use crate::error::{ConfigError, Error};
use crate::service::{
    LiveEstimate, Observation, ServeConfig, ServeError, ServeStats, Service, SolveStats, TickReport,
};

/// A validated segment-range shard layout.
///
/// `count` shards split `num_segments` columns into contiguous,
/// balanced ranges: the first `num_segments % count` shards own one
/// extra column. The plan is carried by [`ServeConfig::shards`] and
/// validated with the rest of the config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Number of shard workers; each owns one contiguous segment range.
    pub count: usize,
}

impl Default for ShardPlan {
    fn default() -> Self {
        Self::single()
    }
}

impl ShardPlan {
    /// The trivial plan: one shard owning every segment.
    pub fn single() -> Self {
        Self { count: 1 }
    }

    /// A plan with `count` shards.
    pub fn with_count(count: usize) -> Self {
        Self { count }
    }

    pub(crate) fn validate(&self, num_segments: usize) -> Result<(), ConfigError> {
        if self.count == 0 {
            return Err(ConfigError::new("shards", "shard plan needs at least one shard"));
        }
        if self.count > num_segments {
            return Err(ConfigError::new(
                "shards",
                format!("{} shards cannot each own a segment of {num_segments}", self.count),
            ));
        }
        Ok(())
    }

    /// The global segment range shard `shard` owns.
    pub fn range(&self, num_segments: usize, shard: usize) -> Range<usize> {
        debug_assert!(shard < self.count);
        let base = num_segments / self.count;
        let rem = num_segments % self.count;
        let start = shard * base + shard.min(rem);
        let width = base + usize::from(shard < rem);
        start..start + width
    }

    /// The shard owning global segment `segment` (which must be in
    /// range — the router sends out-of-range segments to the last
    /// shard, whose admission rules reject them).
    pub fn shard_of(&self, num_segments: usize, segment: usize) -> usize {
        debug_assert!(segment < num_segments);
        let base = num_segments / self.count;
        let rem = num_segments % self.count;
        let split = rem * (base + 1);
        if segment < split {
            segment / (base + 1)
        } else {
            rem + (segment - split) / base
        }
    }
}

/// One shard worker: an independent per-shard core over a local segment
/// range, plus its global range and the report of its last tick.
struct Shard {
    service: Service,
    range: Range<usize>,
    last: TickReport,
}

/// The streaming estimation engine: N segment-range shards behind one
/// surface.
///
/// See the [module docs](self) for the routing, clock-sync, and merge
/// semantics. Constructed from a [`ServeConfig`] whose
/// [`ServeConfig::shards`] plan says how to split the columns.
pub struct ShardedService {
    config: ServeConfig,
    shards: Vec<Shard>,
    merged: Option<LiveEstimate>,
}

fn add_stats(into: &mut ServeStats, s: ServeStats) {
    into.admitted += s.admitted;
    into.rejected += s.rejected;
    into.dropped_late += s.dropped_late;
    into.duplicates += s.duplicates;
    into.queue_dropped += s.queue_dropped;
    into.solves += s.solves;
    into.degraded += s.degraded;
}

fn add_solve_stats(into: &mut SolveStats, s: SolveStats) {
    into.cache_hits += s.cache_hits;
    into.cache_misses += s.cache_misses;
    into.incremental_solves += s.incremental_solves;
    into.full_solves += s.full_solves;
    into.rows_resolved += s.rows_resolved;
}

fn merge_tick(into: &mut TickReport, r: &TickReport) {
    into.admitted += r.admitted;
    into.rejected += r.rejected;
    into.dropped_late += r.dropped_late;
    into.duplicates += r.duplicates;
    into.solved |= r.solved;
    into.degraded |= r.degraded;
    into.tick_us = into.tick_us.max(r.tick_us);
    into.solve_us = into.solve_us.max(r.solve_us);
}

impl ShardedService {
    /// Builds the shard workers from `config` (whose `shards` plan is
    /// validated along with everything else).
    ///
    /// # Errors
    ///
    /// [`Error::Config`] when the config or shard plan is invalid.
    pub fn new(config: ServeConfig) -> Result<Self, Error> {
        config.validate()?;
        let plan = config.shards;
        let mut shards = Vec::with_capacity(plan.count);
        for i in 0..plan.count {
            let range = plan.range(config.num_segments, i);
            let shard_cfg = ServeConfig {
                num_segments: range.len(),
                shards: ShardPlan::single(),
                ..config.clone()
            };
            shards.push(Shard {
                service: Service::new(shard_cfg)?,
                range,
                last: TickReport::default(),
            });
        }
        Ok(Self { config, shards, merged: None })
    }

    /// The global configuration (including the shard plan).
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Number of shard workers.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The global segment range shard `shard` owns.
    pub fn shard_range(&self, shard: usize) -> Range<usize> {
        self.shards[shard].range.clone()
    }

    /// The shard index a report on `segment` routes to. Out-of-range
    /// segments route to the last shard, whose admission rules reject
    /// them — so counter totals are plan-independent.
    fn route(&self, segment: usize) -> usize {
        let n = self.config.num_segments;
        if segment < n {
            self.config.shards.shard_of(n, segment)
        } else {
            self.shards.len() - 1
        }
    }

    /// Routes a report to its shard and enqueues it there. Returns
    /// `false` when that shard's backpressure refused it (counted in
    /// [`ServeStats::queue_dropped`]).
    pub fn push(&mut self, obs: Observation) -> bool {
        let idx = self.route(obs.segment);
        let shard = &mut self.shards[idx];
        let local = Observation { segment: obs.segment - shard.range.start, ..obs };
        shard.service.push(local)
    }

    /// Drains the ingest queues through the admission rules and solves
    /// every shard whose window changed (fanned out over [`workpool`]),
    /// synchronizes the stream clocks to the fastest shard, re-solves
    /// any window that slid, and rebuilds the merged view. Never fails:
    /// bad input and solve trouble become counters and staleness.
    pub fn tick(&mut self) -> TickReport {
        workpool::try_parallel_for_each_mut(&mut self.shards, 0, |_, shard| {
            shard.last = shard.service.tick();
            Ok::<(), std::convert::Infallible>(())
        })
        .expect("shard ticks are infallible");
        self.settle()
    }

    /// Runs one solve attempt on every data-bearing shard even if
    /// nothing new arrived — the recovery path after degraded ticks,
    /// and the way to re-solve after [`ShardedService::advance_clock`]
    /// or [`ShardedService::cold_restart`]. An engine that holds no data
    /// at all attempts (and degrades) on every shard, like any solve of
    /// an empty window.
    pub fn refresh(&mut self) -> TickReport {
        let any_data = self.shards.iter().any(|s| s.service.stats.admitted > 0);
        for shard in &mut self.shards {
            shard.last = if any_data && shard.service.stats.admitted == 0 {
                TickReport::default()
            } else {
                shard.service.refresh()
            };
        }
        self.settle()
    }

    /// Second half of [`ShardedService::tick`] and
    /// [`ShardedService::refresh`], once every shard's `last` report is
    /// in: clock sync, the aggregate report, and the merged view.
    fn settle(&mut self) -> TickReport {
        self.sync_clocks();
        let mut agg = TickReport::default();
        for shard in &self.shards {
            merge_tick(&mut agg, &shard.last);
        }
        if agg.solved || agg.degraded {
            self.rebuild_merged();
        }
        agg
    }

    /// Slides lagging shards' windows up to the global stream clock and
    /// re-solves the ones whose content changed, so every data-bearing
    /// shard reports the same head slot.
    fn sync_clocks(&mut self) {
        let global = self.clock_s();
        for shard in &mut self.shards {
            let before = shard.service.head_slot();
            shard.service.advance_clock(global);
            // Only windows that actually slid and hold data are worth a
            // solve; an empty shard has nothing to re-estimate.
            if shard.service.head_slot() != before && shard.service.stats.admitted > 0 {
                let extra = shard.service.tick();
                merge_tick(&mut shard.last, &extra);
            }
        }
    }

    /// Advances every shard's simulated clock without data, closing
    /// (evicting) slots that fall out of the window. Does not solve.
    pub fn advance_clock(&mut self, now_s: u64) {
        for shard in &mut self.shards {
            shard.service.advance_clock(now_s);
        }
    }

    /// Discards every shard's warm-start state: the estimators restart
    /// from the configured `CsConfig` with the full cold iteration
    /// budget. Windows, counters and the live estimate persist; the next
    /// solve (e.g. via [`ShardedService::refresh`]) is then bit-for-bit
    /// the offline pipeline run on each shard's window — the property
    /// the differential oracle checks.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] if a shard's estimator cannot be rebuilt.
    pub fn cold_restart(&mut self) -> Result<(), Error> {
        for shard in &mut self.shards {
            shard.service.cold_restart()?;
        }
        Ok(())
    }

    /// The merged live estimate, or `None` before any shard has solved.
    /// The [`LiveEstimate::stale`] flag tells queries whether it is
    /// degraded or incomplete.
    pub fn latest(&self) -> Option<&LiveEstimate> {
        self.merged.as_ref()
    }

    /// Admission counters summed over shards.
    pub fn stats(&self) -> ServeStats {
        let mut total = ServeStats::default();
        for shard in &self.shards {
            add_stats(&mut total, shard.service.stats);
        }
        total
    }

    /// Per-shard admission counters, in shard order.
    pub fn stats_per_shard(&self) -> Vec<ServeStats> {
        self.shards.iter().map(|s| s.service.stats).collect()
    }

    /// Solve-path counters summed over shards.
    pub fn solve_stats(&self) -> SolveStats {
        let mut total = SolveStats::default();
        for shard in &self.shards {
            add_solve_stats(&mut total, shard.service.solve_stats);
        }
        total
    }

    /// Reports queued across all shards right now.
    pub fn queue_len(&self) -> usize {
        self.shards.iter().map(|s| s.service.queue_len()).sum()
    }

    /// The ingest sequence number the next report routed to `segment`'s
    /// shard will consume — the hook causal tracing uses to derive a
    /// trace ID ([`crate::service::report_trace_id`]) before pushing.
    pub fn ingest_seq_for(&self, segment: usize) -> u64 {
        self.shards[self.route(segment)].service.ingest_seq
    }

    /// The global stream clock: the fastest shard's clock.
    pub fn clock_s(&self) -> u64 {
        self.shards.iter().map(|s| s.service.clock_s()).max().unwrap_or(0)
    }

    /// Absolute slot index of the newest window row across shards — the
    /// row [`ShardedService::window_snapshot`] ends on.
    pub fn head_slot(&self) -> usize {
        self.shards.iter().map(|s| s.service.head_slot()).max().unwrap_or(0)
    }

    /// FNV-1a over the per-shard window keys: a 64-bit digest of the
    /// window content and head. Equal content always gives equal keys;
    /// different content gives different keys except on a digest
    /// collision, which the 64-bit fold does not rule out.
    pub fn window_key(&self) -> u64 {
        let mut fnv = telemetry::Fnv::new();
        for shard in &self.shards {
            fnv.write_u64(shard.service.window_key());
        }
        fnv.finish()
    }

    /// Replaces every shard's per-solve wall-clock budget at runtime
    /// (`None` disables the check). Fault-injection harnesses use this
    /// to sabotage a tick's solve and verify the degradation accounting.
    pub fn set_solve_budget(&mut self, budget: Option<std::time::Duration>) {
        for shard in &mut self.shards {
            shard.service.set_solve_budget(budget);
        }
    }

    /// Replaces every shard's warm-sweep cap at runtime. A cap of
    /// `Some(0)` is clamped to `Some(1)`. Lowering the cap is sticky on
    /// the estimators until [`ShardedService::cold_restart`].
    pub fn set_warm_sweep_cap(&mut self, cap: Option<usize>) {
        for shard in &mut self.shards {
            shard.service.set_warm_sweep_cap(cap);
        }
    }

    /// End-to-end latency (ingest-enqueue to estimate-ready, in
    /// microseconds) of every report settled so far, merged over shards.
    /// Always collected, independent of the global metrics switch.
    pub fn e2e_histogram(&self) -> Histogram {
        let merged = Histogram::default();
        for shard in &self.shards {
            merged.merge(&shard.service.e2e);
        }
        merged
    }

    /// Forgets every latency sample [`ShardedService::e2e_histogram`]
    /// holds — a measurement boundary, such as the end of a load
    /// generator's warm-up. The global `serve.e2e_us` metric is
    /// untouched.
    pub fn reset_e2e_histogram(&self) {
        for shard in &self.shards {
            shard.service.e2e.reset();
        }
    }

    /// A copy of the merged sliding window as a global-width [`Tcm`]
    /// (row 0 = oldest slot), aligned on the newest head slot across
    /// shards: the exact matrices the shards' next solves would
    /// complete, exposed so differential harnesses can compare window
    /// content bit for bit against an independent model.
    ///
    /// [`Tcm`]: probes::Tcm
    pub fn window_snapshot(&self) -> probes::Tcm {
        let slots = self.config.window_slots;
        let tail = (self.head_slot() + 1).saturating_sub(slots);
        let mut values = Matrix::zeros(slots, self.config.num_segments);
        let mut indicator = Matrix::zeros(slots, self.config.num_segments);
        for shard in &self.shards {
            let snap = shard.service.window_snapshot();
            let shard_tail = (shard.service.head_slot() + 1).saturating_sub(slots);
            for r in 0..slots {
                let Some(row) = (shard_tail + r).checked_sub(tail) else { continue };
                let cols = shard.range.clone();
                values.row_mut(row)[cols.clone()].copy_from_slice(snap.values().row(r));
                indicator.row_mut(row)[cols].copy_from_slice(snap.indicator().row(r));
            }
        }
        probes::Tcm::new(values, indicator).expect("matching dims by construction")
    }

    /// Rebuilds the merged estimate from the shards' latest solves, in
    /// place: once the buffer exists this allocates nothing.
    fn rebuild_merged(&mut self) {
        let slots = self.config.window_slots;
        let segments = self.config.num_segments;
        let Some(head_slot) =
            self.shards.iter().filter_map(|s| s.service.latest()).map(|e| e.head_slot).max()
        else {
            self.merged = None;
            return;
        };
        let tail = (head_slot + 1).saturating_sub(slots);
        let merged = self.merged.get_or_insert_with(|| LiveEstimate {
            estimate: Matrix::zeros(slots, segments),
            head_slot,
            solved_at_s: 0,
            stale: false,
            sweeps: 0,
            objective: 0.0,
        });
        merged.estimate.as_mut_slice().fill(0.0);
        merged.head_slot = head_slot;
        merged.stale = false;
        merged.solved_at_s = 0;
        merged.sweeps = 0;
        // -0.0 is the additive identity of every f64, so a single
        // shard's objective passes through bit for bit.
        merged.objective = -0.0;
        for shard in &self.shards {
            let Some(est) = shard.service.latest() else {
                // A shard with no estimate yet contributes zero columns:
                // the merge is incomplete, hence stale.
                merged.stale = true;
                continue;
            };
            merged.stale |= est.stale || est.head_slot != head_slot;
            merged.solved_at_s = merged.solved_at_s.max(est.solved_at_s);
            merged.sweeps = merged.sweeps.max(est.sweeps);
            merged.objective += est.objective;
            let shard_tail = (est.head_slot + 1).saturating_sub(slots);
            for r in 0..est.estimate.rows() {
                let Some(row) = (shard_tail + r).checked_sub(tail) else { continue };
                merged.estimate.row_mut(row)[shard.range.clone()]
                    .copy_from_slice(est.estimate.row(r));
            }
        }
    }

    /// Serializes every shard's warm-start state into one
    /// `cs-serve-shards v1` container. Matrix entries are written as
    /// `f64::to_bits` hex words, so a restore reproduces the factors bit
    /// for bit and the restarted solver behaves exactly like the
    /// uninterrupted one. Reports still queued reach their terminal
    /// `checkpointed` trace stage here.
    pub fn checkpoint(&self) -> String {
        let mut out = String::from("cs-serve-shards v1\n");
        out.push_str(&format!(
            "shards {} segments {}\n",
            self.shards.len(),
            self.config.num_segments
        ));
        for (i, shard) in self.shards.iter().enumerate() {
            let inner = shard.service.checkpoint();
            out.push_str(&format!("shard {i} {}\n", inner.len()));
            out.push_str(&inner);
        }
        out
    }

    /// Restores a `cs-serve-shards v1` container (or, for single-shard
    /// plans, a bare `cs-serve-checkpoint v1` written by the
    /// pre-sharding engine).
    ///
    /// Only solver state is restored — the windows refill from the
    /// replayed stream. Each shard's clock advances to its checkpointed
    /// value so slot eviction picks up where the previous process
    /// stopped.
    ///
    /// # Errors
    ///
    /// [`ServeError::Checkpoint`] (wrapped in [`enum@Error`]) on
    /// malformed containers, plan mismatches, or malformed shard
    /// bodies; [`Error::Config`] when a shard's factors do not fit the
    /// configured rank.
    pub fn restore(&mut self, text: &str) -> Result<(), Error> {
        let bad =
            |line: usize, msg: String| -> Error { ServeError::Checkpoint { line, msg }.into() };
        if text.starts_with("cs-serve-checkpoint") {
            if self.shards.len() != 1 {
                return Err(bad(
                    1,
                    format!(
                        "single-service checkpoint cannot restore a {}-shard plan",
                        self.shards.len()
                    ),
                ));
            }
            let result = self.shards[0].service.restore(text);
            self.rebuild_merged();
            return result;
        }
        let header_end = text.find('\n').ok_or_else(|| bad(1, "empty checkpoint".into()))?;
        if &text[..header_end] != "cs-serve-shards v1" {
            return Err(bad(1, "not a cs-serve-shards v1 container".into()));
        }
        let rest = &text[header_end + 1..];
        let plan_end = rest.find('\n').ok_or_else(|| bad(2, "missing shard-plan line".into()))?;
        let plan_line = &rest[..plan_end];
        let fields: Vec<&str> = plan_line.split_whitespace().collect();
        let (count, segments) = match fields.as_slice() {
            ["shards", c, "segments", n] => (
                c.parse::<usize>().map_err(|_| bad(2, "bad shard count".into()))?,
                n.parse::<usize>().map_err(|_| bad(2, "bad segment count".into()))?,
            ),
            _ => return Err(bad(2, format!("malformed shard-plan line '{plan_line}'"))),
        };
        if count != self.shards.len() || segments != self.config.num_segments {
            return Err(bad(
                2,
                format!(
                    "container is {count} shards over {segments} segments, this service is {} over {}",
                    self.shards.len(),
                    self.config.num_segments
                ),
            ));
        }
        let mut cursor = &rest[plan_end + 1..];
        let mut line = 3;
        for i in 0..count {
            let hdr_end =
                cursor.find('\n').ok_or_else(|| bad(line, format!("missing shard {i} header")))?;
            let hdr = &cursor[..hdr_end];
            let fields: Vec<&str> = hdr.split_whitespace().collect();
            let len = match fields.as_slice() {
                ["shard", idx, len] if idx.parse::<usize>() == Ok(i) => {
                    len.parse::<usize>().map_err(|_| bad(line, "bad shard byte length".into()))?
                }
                _ => return Err(bad(line, format!("malformed shard header '{hdr}'"))),
            };
            let body_start = hdr_end + 1;
            if cursor.len() < body_start + len {
                return Err(bad(line, format!("shard {i} body truncated")));
            }
            let body = &cursor[body_start..body_start + len];
            self.shards[i].service.restore(body)?;
            line += 1 + body.matches('\n').count();
            cursor = &cursor[body_start + len..];
        }
        if !cursor.is_empty() {
            return Err(bad(line, format!("{} trailing bytes after last shard", cursor.len())));
        }
        self.rebuild_merged();
        Ok(())
    }

    /// Writes [`ShardedService::checkpoint`] to `path` atomically: the
    /// text goes to a sibling `<name>.tmp` file, which is synced to disk
    /// and then renamed over `path`, and the directory is synced so the
    /// rename survives a power loss. A crash or a full disk mid-write
    /// leaves the previous checkpoint intact instead of a truncated one
    /// that the next start would refuse.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] wrapped in [`enum@Error`]. `path` is then
    /// unchanged, unless only the final directory sync failed: the new
    /// checkpoint is in place, but may not survive a power loss.
    pub fn save_checkpoint(&self, path: &Path) -> Result<(), Error> {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(".tmp");
        let tmp = path.with_file_name(name);
        let write = || -> std::io::Result<()> {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(self.checkpoint().as_bytes())?;
            file.sync_all()?;
            std::fs::rename(&tmp, path)?;
            let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
            std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
        };
        write().map_err(|e| {
            // Best effort: a temp file we created must not linger.
            if tmp.is_file() {
                let _ = std::fs::remove_file(&tmp);
            }
            Error::Serve(ServeError::Io(e))
        })
    }

    /// Reads and restores a checkpoint file.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on read failure, else whatever
    /// [`ShardedService::restore`] reports.
    pub fn load_checkpoint(&mut self, path: &Path) -> Result<(), Error> {
        let text = std::fs::read_to_string(path).map_err(|e| Error::Serve(ServeError::Io(e)))?;
        self.restore(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_ranges_are_balanced_and_cover() {
        for n in 1..40usize {
            for count in 1..=n {
                let plan = ShardPlan::with_count(count);
                plan.validate(n).unwrap();
                let mut next = 0;
                for shard in 0..count {
                    let range = plan.range(n, shard);
                    assert_eq!(range.start, next, "n={n} count={count} shard={shard}");
                    assert!(!range.is_empty());
                    for seg in range.clone() {
                        assert_eq!(plan.shard_of(n, seg), shard);
                    }
                    next = range.end;
                }
                assert_eq!(next, n);
                let widths: Vec<usize> = (0..count).map(|s| plan.range(n, s).len()).collect();
                let (min, max) = (widths.iter().min().unwrap(), widths.iter().max().unwrap());
                assert!(max - min <= 1, "unbalanced: {widths:?}");
            }
        }
    }

    #[test]
    fn e2e_histogram_is_the_bucketwise_sum_of_the_shards() {
        // Latency samples are wall-clock, so their buckets differ from
        // run to run; what must hold at every worker count is that the
        // merged histogram adds the shards' buckets exactly.
        let cfg = ServeConfig::builder()
            .slot_len_s(60)
            .window_slots(4)
            .num_segments(6)
            .cs(crate::cs::CsConfig { rank: 2, lambda: 0.1, ..Default::default() })
            .shards(ShardPlan::with_count(2))
            .build()
            .unwrap();
        let before = workpool::default_threads();
        for threads in [1, 8] {
            workpool::set_default_threads(threads);
            let mut engine = ShardedService::new(cfg.clone()).unwrap();
            for t in 0..48u64 {
                let segment = (t % 6) as usize;
                engine.push(Observation {
                    vehicle: t,
                    timestamp_s: t * 5,
                    segment,
                    speed_kmh: 30.0,
                });
                if t % 7 == 6 {
                    engine.tick();
                }
            }
            engine.tick();
            let merged = engine.e2e_histogram();
            assert_eq!(merged.count(), 48, "threads={threads}");
            for i in 0..telemetry::metrics::HISTOGRAM_BUCKETS {
                let sum: u64 = engine.shards.iter().map(|s| s.service.e2e.bucket_count(i)).sum();
                assert_eq!(merged.bucket_count(i), sum, "threads={threads} bucket {i}");
            }
        }
        workpool::set_default_threads(before);
    }

    #[test]
    fn plan_validation_rejects_degenerate_layouts() {
        assert!(ShardPlan::with_count(0).validate(4).is_err());
        assert!(ShardPlan::with_count(5).validate(4).is_err());
        assert!(ShardPlan::with_count(4).validate(4).is_ok());
    }
}
