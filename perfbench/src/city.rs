//! `city-lowrank`: an in-process 1-shard `ShardedService` over the whole
//! Shanghai-like city (5,928 segments), fed by `traffic-sim` ground
//! truth sampled at ~25 % cell coverage and replayed in timestamp order.
//!
//! A seeded, hash-chosen tenth of the covered cells is held out: their
//! reports are never pushed, and the estimate at those cells is scored
//! against truth once their slot has closed. The truth spans two days;
//! a run longer than that replays them again with shifted timestamps
//! and vehicle ids.

use crate::common::{
    flops_per_sweep, hash_words, mean_self_us, median, peak_rss_mb, rss_mb, traced_block, Digest,
    LoopClock, Outcome, RunArgs, Samples, Tracer, ROOT, SETUP_REPEATS,
};
use linalg::Matrix;
use probes::{Granularity, SlotGrid};
use std::time::Instant;
use traffic_cs::cs::CsConfig;
use traffic_cs::service::{Observation, ServeConfig};
use traffic_cs::sharded::{ShardPlan, ShardedService};
use traffic_sim::{sample_probe_stream, GroundTruthModel, ProbeSample, ProbeStreamConfig};

pub const SLOT_LEN_S: u64 = 900;
pub const WINDOW_SLOTS: usize = 12;
pub const TICKS_PER_SLOT: u64 = 6;
pub const TICK_S: u64 = SLOT_LEN_S / TICKS_PER_SLOT;
pub const RANK: usize = 4;
pub const LAMBDA: f64 = 10.0;
pub const SHARDS: usize = 1;
pub const THREADS: usize = 1;
pub const TRUTH_DAYS: u64 = 2;
/// Share of (slot, segment) cells that receive a probe report.
pub const COVERAGE: f64 = 0.28;
/// Held-out share of covered cells, per mille; the rest (~25 % of all
/// cells) is pushed.
pub const HOLDOUT_PER_1000: u64 = 100;
/// Warm-up fills the window once.
pub const WARMUP_TICKS: u64 = WINDOW_SLOTS as u64 * TICKS_PER_SLOT;
const QUEUE_CAPACITY: usize = 8_192;
/// Tracing toggles every slot.
const TRACE_BLOCK: u64 = TICKS_PER_SLOT;
/// `nmae` scores the first this many slots closed in the measured loop,
/// so it depends on the seed only, not on how many ticks a run fits.
pub const SCORED_SLOTS: u64 = 192;

/// The generated inputs: truth, the pushed stream (sorted by
/// timestamp), and the held-out cells per slot.
struct Inputs {
    truth: Matrix,
    stream: Vec<ProbeSample>,
    holdout: Vec<Vec<usize>>,
    hash: u64,
}

fn inputs(seed: u64) -> Inputs {
    let scenario = traffic_sim::ScenarioConfig::shanghai_like();
    let net = roadnet::generator::generate_grid_city(&scenario.city);
    let grid = SlotGrid::covering(0, TRUTH_DAYS * 86_400, Granularity::Min15);
    let model = GroundTruthModel::generate(&net, grid, &scenario.ground);
    let truth = model.speeds().clone();
    let samples = sample_probe_stream(
        &truth,
        &ProbeStreamConfig {
            start_s: 0,
            slot_len_s: SLOT_LEN_S,
            coverage: COVERAGE,
            probes_per_cell: 1,
            speed_jitter: 0.05,
            seed,
        },
    );
    let mut holdout = vec![Vec::new(); truth.rows()];
    let mut stream = Vec::with_capacity(samples.len());
    for s in samples {
        let slot = (s.timestamp_s / SLOT_LEN_S) as usize;
        if hash_words(&[seed, 0x401d, slot as u64, s.segment as u64]) % 1000 < HOLDOUT_PER_1000 {
            holdout[slot].push(s.segment);
        } else {
            stream.push(s);
        }
    }
    // The sampler emits slot-major, unsorted within a slot; a replay
    // must deliver reports in time order, not in clumps per segment.
    stream.sort_by_key(|s| (s.timestamp_s, s.vehicle));
    let mut hash = Digest::default();
    for s in &stream {
        hash.write_u64(s.vehicle);
        hash.write_u64(s.timestamp_s);
        hash.write_u64(s.segment as u64);
        hash.write_u64(s.speed_kmh.to_bits());
    }
    for (slot, segs) in holdout.iter().enumerate() {
        for &seg in segs {
            hash.write_u64(slot as u64);
            hash.write_u64(seg as u64);
        }
    }
    Inputs { truth, stream, holdout, hash: hash.finish() }
}

fn engine(segments: usize) -> Result<ShardedService, String> {
    let cfg = ServeConfig::builder()
        .slot_len_s(SLOT_LEN_S)
        .window_slots(WINDOW_SLOTS)
        .num_segments(segments)
        .queue_capacity(QUEUE_CAPACITY)
        .cs(CsConfig { rank: RANK, lambda: LAMBDA, num_threads: THREADS, ..CsConfig::default() })
        .shards(ShardPlan::with_count(SHARDS))
        .build()
        .map_err(|e| format!("serve config: {e}"))?;
    ShardedService::new(cfg).map_err(|e| format!("engine: {e}"))
}

/// Which solve path a tick took, from the engine's solve-path counters;
/// the value indexes the per-path tallies.
#[derive(Clone, Copy)]
enum Path {
    Cache = 0,
    Incremental = 1,
    Full = 2,
}

/// What one tick observed.
struct TickObs {
    freshness_us: f64,
    pushed: u64,
    admitted: u64,
    /// Pushed reports that did not reach a non-degraded estimate.
    failed: u64,
    solve_us: u64,
    path: Option<Path>,
    rows_resolved: u64,
    /// Sweeps of the tick's solve (1 on the incremental path).
    sweeps: usize,
    /// Observed cells of the solved window (traced full solves only).
    observed: usize,
}

/// Replay state: the engine, the stream cursor, and held-out scoring.
struct Replay {
    inputs: Inputs,
    svc: ShardedService,
    cursor: usize,
    abs_err: f64,
    abs_truth: f64,
    scored: u64,
    scored_slots: u64,
}

impl Replay {
    fn ticks_per_pass(&self) -> u64 {
        self.inputs.truth.rows() as u64 * TICKS_PER_SLOT
    }

    fn tick(&mut self, k: u64, tr: &mut Tracer, score: bool) -> Result<TickObs, String> {
        let pass = k / self.ticks_per_pass();
        if k.is_multiple_of(self.ticks_per_pass()) {
            self.cursor = 0;
        }
        let offset_s = pass * self.inputs.truth.rows() as u64 * SLOT_LEN_S;
        let vehicle_offset = pass * self.inputs.stream.len() as u64;
        let t_end = (k + 1) * TICK_S;
        let before = self.svc.stats();
        let solve_before = self.svc.solve_stats();

        let root = tr.begin(ROOT);
        let t0 = Instant::now();
        let s = tr.begin("service.push");
        let mut pushed = 0u64;
        while let Some(p) = self.inputs.stream.get(self.cursor) {
            if p.timestamp_s + offset_s >= t_end {
                break;
            }
            let obs = Observation {
                vehicle: p.vehicle + vehicle_offset,
                timestamp_s: p.timestamp_s + offset_s,
                segment: p.segment,
                speed_kmh: p.speed_kmh,
            };
            // A refused report shows as `queue_dropped` below.
            self.svc.push(obs);
            self.cursor += 1;
            pushed += 1;
        }
        tr.end(s);
        let s = tr.begin("service.advance");
        self.svc.advance_clock(t_end);
        tr.end(s);
        let s = tr.begin("service.tick");
        let report = self.svc.tick();
        tr.end(s);
        let s = tr.begin("service.query");
        let latest = self.svc.latest();
        let head = latest.map(|e| (e.head_slot, e.stale));
        let sweeps = latest.map_or(0, |e| e.sweeps);
        tr.end(s);
        let freshness_us = t0.elapsed().as_secs_f64() * 1e6;

        let s = tr.begin("bench.check");
        let after = self.svc.stats();
        let solve_after = self.svc.solve_stats();
        let admitted = after.admitted - before.admitted;
        let queue_dropped = after.queue_dropped - before.queue_dropped;
        // The stream is clean: every report is admitted or refused by
        // the queue, never rejected, late or a duplicate.
        let clean = after.rejected == before.rejected
            && after.dropped_late == before.dropped_late
            && after.duplicates == before.duplicates;
        if admitted + queue_dropped != pushed || !clean {
            return Err(format!(
                "tick {k}: pushed {pushed}, counters moved {before:?} -> {after:?}"
            ));
        }
        // The window starts out covering slots 0..WINDOW_SLOTS.
        let want_head = ((t_end / SLOT_LEN_S) as usize).max(WINDOW_SLOTS - 1);
        let Some((head, stale)) = head.filter(|&(h, _)| h == want_head) else {
            return Err(format!(
                "tick {k}: estimate (head, stale) = {head:?}, want head {want_head}"
            ));
        };
        // Reports of a degraded tick do not reach a fresh estimate.
        let reached = if stale || after.degraded > before.degraded { 0 } else { admitted };
        // The slot that just closed is scored once, on its held-out cells.
        if score && t_end.is_multiple_of(SLOT_LEN_S) && self.scored_slots < SCORED_SLOTS {
            self.scored_slots += 1;
            let est = &self.svc.latest().expect("checked above").estimate;
            let local = (head - 1) % self.inputs.truth.rows();
            let row = WINDOW_SLOTS - 2;
            for &seg in &self.inputs.holdout[local] {
                let v = est.get(row, seg);
                if !v.is_finite() {
                    return Err(format!("tick {k}: non-finite estimate at segment {seg}"));
                }
                let t = self.inputs.truth.get(local, seg);
                self.abs_err += (v - t).abs();
                self.abs_truth += t.abs();
                self.scored += 1;
            }
        }
        let path = if solve_after.incremental_solves > solve_before.incremental_solves {
            Some(Path::Incremental)
        } else if solve_after.full_solves > solve_before.full_solves {
            Some(Path::Full)
        } else if solve_after.cache_hits > solve_before.cache_hits {
            Some(Path::Cache)
        } else {
            None
        };
        // The FLOP count of a full solve needs the window's observed
        // cells; copying the window is only worth it in traced ticks.
        let observed = match path {
            Some(Path::Full) if tr.is_on() => self.svc.window_snapshot().observed_count(),
            _ => 0,
        };
        tr.end(s);
        tr.end(root);
        Ok(TickObs {
            freshness_us,
            pushed,
            admitted,
            failed: pushed - reached,
            solve_us: report.solve_us,
            path,
            rows_resolved: solve_after.rows_resolved - solve_before.rows_resolved,
            sweeps,
            observed,
        })
    }
}

fn setup(seed: u64) -> Result<Replay, String> {
    let inputs = inputs(seed);
    let svc = engine(inputs.truth.cols())?;
    let mut replay =
        Replay { inputs, svc, cursor: 0, abs_err: 0.0, abs_truth: 0.0, scored: 0, scored_slots: 0 };
    let mut off = Tracer::new();
    for k in 0..WARMUP_TICKS {
        replay.tick(k, &mut off, false)?;
    }
    Ok(replay)
}

pub fn run(args: RunArgs) -> Outcome {
    let mut out = Outcome::default();
    out.note("slot_len_s", SLOT_LEN_S);
    out.note("window_slots", WINDOW_SLOTS);
    out.note("ticks_per_slot", TICKS_PER_SLOT);
    out.note("rank", RANK);
    out.note("lambda", LAMBDA);
    out.note("shards", SHARDS);
    out.note("threads", THREADS);
    out.note("truth_days", TRUTH_DAYS);
    out.note("coverage", COVERAGE);
    out.note("holdout_per_1000", HOLDOUT_PER_1000);
    out.note("scored_slots", SCORED_SLOTS);
    if let Err(e) = measure(args, &mut out) {
        out.fail(e);
    }
    out
}

fn measure(args: RunArgs, out: &mut Outcome) -> Result<(), String> {
    telemetry::set_metrics_enabled(false);
    let mut setup_s = Vec::new();
    let mut hashes = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let replay = setup(args.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        hashes.push(replay.inputs.hash);
        kept = Some(replay);
    }
    // Set-up and warm-up fill every window-sized structure.
    let setup_rss_mb = rss_mb();
    let mut replay = kept.expect("SETUP_REPEATS is at least 1");
    out.note("segments", replay.inputs.truth.cols());
    out.note("truth_slots", replay.inputs.truth.rows());
    out.note("pushed_reports_per_pass", replay.inputs.stream.len());
    out.note("stream_hash", format!("{:016x}", replay.inputs.hash));

    let mut tr = Tracer::new();
    let (mut fresh, mut fresh_traced, mut solve) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut attempted, mut admitted, mut failed, mut busy_us) = (0u64, 0u64, 0u64, 0.0);
    let mut path_us = [0.0f64; 3];
    let mut path_n = [0u64; 3];
    let (mut rows_resolved, mut solve_traced_us, mut traced_ticks, mut ticks) =
        (0u64, 0.0, 0u64, 0u64);
    // Traced full solves: count, sweeps, µs, Σ FLOP/sweep, Σ FLOP.
    let mut full = (0u64, 0u64, 0.0f64, 0.0f64, 0.0f64);
    let stats_before = replay.svc.stats();
    let mut clock = LoopClock::new(args);
    let mut k = WARMUP_TICKS;
    while clock.running() {
        tr.set_on(traced_block(args, k - WARMUP_TICKS, TRACE_BLOCK));
        tr.set_tick(k);
        let traced = tr.is_on();
        let obs = replay.tick(k, &mut tr, true)?;
        if traced {
            fresh_traced.push(obs.freshness_us);
            solve_traced_us += obs.solve_us as f64;
            traced_ticks += 1;
            if let Some(Path::Full) = obs.path {
                let fps = flops_per_sweep(
                    WINDOW_SLOTS as f64,
                    replay.inputs.truth.cols() as f64,
                    obs.observed as f64,
                    RANK as f64,
                );
                full.0 += 1;
                full.1 += obs.sweeps as u64;
                full.2 += obs.solve_us as f64;
                full.3 += fps;
                full.4 += fps * obs.sweeps as f64;
            }
        } else {
            fresh.push(obs.freshness_us);
        }
        solve.push(obs.solve_us as f64);
        if let Some(p) = obs.path {
            path_us[p as usize] += obs.solve_us as f64;
            path_n[p as usize] += 1;
            if let Path::Incremental = p {
                rows_resolved += obs.rows_resolved;
            }
        }
        attempted += obs.pushed;
        admitted += obs.admitted;
        failed += obs.failed;
        busy_us += obs.freshness_us;
        ticks += 1;
        k += 1;
        if clock.setup_due() {
            let t = Instant::now();
            let spare = setup(args.seed)?;
            setup_s.push(t.elapsed().as_secs_f64());
            hashes.push(spare.inputs.hash);
            clock.resume();
        }
    }
    let stats = replay.svc.stats();
    out.note("measured_ticks", ticks);
    out.note("scored_cells", replay.scored);
    out.attempted = attempted;
    out.failed = failed;
    let nmae = if replay.abs_truth > 0.0 { replay.abs_err / replay.abs_truth } else { f64::NAN };
    out.check(replay.scored_slots == SCORED_SLOTS, || {
        format!("only {} of {SCORED_SLOTS} slots closed: run longer", replay.scored_slots)
    });

    if args.trace {
        let (totals, coverage) = tr.analyze();
        let n = traced_ticks;
        let us = |name| mean_self_us(&totals, name, n);
        out.set("service.push_us", us("service.push"));
        out.set("service.advance_us", us("service.advance"));
        out.set("service.tick_us", us("service.tick"));
        out.set("service.solve_us", solve_traced_us / n.max(1) as f64);
        out.set("service.drain_us", us("service.tick") - solve_traced_us / n.max(1) as f64);
        out.set("service.query_us", us("service.query"));
        out.set("service.admitted", (stats.admitted - stats_before.admitted) as f64);
        out.set("service.rejected", (stats.rejected - stats_before.rejected) as f64);
        out.set("service.duplicates", (stats.duplicates - stats_before.duplicates) as f64);
        out.set("service.dropped_late", (stats.dropped_late - stats_before.dropped_late) as f64);
        out.set("service.queue_dropped", (stats.queue_dropped - stats_before.queue_dropped) as f64);
        out.set("service.degraded", (stats.degraded - stats_before.degraded) as f64);
        let solves = path_n.iter().sum::<u64>().max(1) as f64;
        let mean = |p: Path| path_us[p as usize] / path_n[p as usize].max(1) as f64;
        let (inc, cache) = (Path::Incremental as usize, Path::Cache as usize);
        out.set("online.incremental_us", mean(Path::Incremental));
        out.set("online.full_us", mean(Path::Full));
        out.set("online.incremental_frac", path_n[inc] as f64 / solves);
        out.set("online.cache_hit_frac", path_n[cache] as f64 / solves);
        out.set("online.rows_resolved_per_solve", rows_resolved as f64 / path_n[inc].max(1) as f64);
        // The cs and linalg layers run inside full solves (the warm
        // sweeps); their time includes the window copy and re-priming.
        out.set("cs.sweeps", full.1 as f64 / full.0.max(1) as f64);
        out.set("cs.sweep_ms", full.2 / 1e3 / full.1.max(1) as f64);
        out.set("linalg.flops_per_sweep", full.3 / full.0.max(1) as f64);
        out.set("linalg.gflops", full.4 / (full.2 * 1e3).max(1e-9));
        out.set("trace.coverage", coverage);
        out.set("trace.overhead", fresh_traced.quantile(0.5).0 / fresh.quantile(0.5).0);
        crate::write_trace(&tr, "city-lowrank", args.seed, out);
        out.check(coverage >= 0.9, || {
            format!("layer spans cover {coverage:.3} of the loop (< 0.9)")
        });
    } else {
        out.note("setup_runs_s", format!("{setup_s:.3?}"));
        out.set("setup_s", median(setup_s));
        out.set("ingest_rps", admitted as f64 / (busy_us / 1e6));
        out.percentiles(&fresh, "freshness_p50_ms", "freshness_p90_ms", 1e-3);
        out.percentiles(&solve, "solve_p50_ms", "solve_p90_ms", 1e-3);
        out.set("nmae", nmae);
        out.set("ok_frac", 1.0 - failed as f64 / attempted.max(1) as f64);
        out.set("rss_mb", setup_rss_mb);
    }
    out.note("solves_cache_incremental_full", format!("{path_n:?}"));
    out.check(hashes.windows(2).all(|w| w[0] == w[1]), || {
        format!("stream hashes differ between set-ups: {hashes:x?}")
    });
    out.note("peak_rss_end_mb", peak_rss_mb());
    out.nmae = nmae;
    Ok(())
}
