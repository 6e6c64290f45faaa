//! `fleet-ingest`: a closed-loop client feeding a spawned 2-shard
//! `Daemon` over one loopback `proto::client::Client`, on the `loadgen`
//! quick geometry at 14,400 reports per tick.
//!
//! Each tick is `ReportBatch`, then `Sync`, then `QueryEstimate`. The
//! batch comes from a fleet of vehicles that report once per simulated
//! second from the segment they currently drive, at a rank-2 ground
//! truth speed plus jitter. Seeded faults ride along: malformed
//! reports, late reports into evicted slots and exact re-deliveries.
//! The generator counts what it injected, so every `Synced` answer is
//! checked against exact predicted counters.
//!
//! The report rate and geometry are the `loadgen` quick profile's; the
//! vehicle, fault and road models are assumptions of this benchmark,
//! listed in `catalogue.json`.

use crate::common::{
    hash_words, mean_self_us, median, peak_rss_mb, rss_mb, traced_block, Digest, LoopClock,
    Outcome, RunArgs, Samples, SplitMix64, Tracer, ROOT, SETUP_REPEATS,
};
use std::time::{Duration, Instant};
use traffic_cs::cs::CsConfig;
use traffic_cs::daemon::{Daemon, DaemonConfig, DaemonHandle};
use traffic_cs::proto::client::Client;
use traffic_cs::proto::msg::{Request, Response, WireReport, WireStats};
use traffic_cs::proto::net::BindAddr;
use traffic_cs::service::ServeConfig;
use traffic_cs::sharded::ShardPlan;

pub const SEGMENTS: usize = 64;
pub const WINDOW_SLOTS: usize = 8;
pub const SLOT_LEN_S: u64 = 12;
pub const TICK_S: u64 = 3;
/// Each vehicle reports once per simulated second: 4,800 × 3 s = 14,400
/// reports per tick, the ROADMAP baseline load.
pub const VEHICLES: u64 = 4_800;
pub const SHARDS: usize = 2;
/// Workers for the engine's shard fan-out (one per shard).
pub const THREADS: usize = 2;
pub const RANK: usize = 2;
pub const LAMBDA: f64 = 1.0;
/// Unmeasured ticks: the 8-slot window fills and slot 0 is evicted.
pub const WARMUP_TICKS: u64 = 36;
/// Warm-up ticks `0..BURST_TICKS` also send `BURST_PER_TICK` distinct
/// reports into slot 0, so each shard briefly holds ~520k dedup keys:
/// more than a 2^19-bucket table takes. Its table then grows to the
/// 2^20 buckets it keeps, instead of doubling at a random measured tick
/// (which moved median freshness by ~15 % mid-run). Slot 0 leaves the
/// window at tick 32, before the loop is measured.
const BURST_TICKS: u64 = 28;
const BURST_PER_TICK: u64 = 23_040;
const QUEUE_CAPACITY: usize = 32_768;
/// Seeded fault rates, per 10,000 reports.
const MALFORMED_PER_10K: u64 = 10;
const LATE_PER_10K: u64 = 20;
const REDELIVER_PER_10K: u64 = 50;
/// Uniform multiplicative speed jitter half-width.
const JITTER: f64 = 0.1;
/// Period of the shared congestion wave, in slots.
const WAVE_SLOTS: f64 = 40.0;
/// A vehicle stays on one segment this long before moving on.
const DWELL_S: u64 = 30;
/// Tracing toggles every this many ticks (two slots), so traced and
/// untraced ticks see every position within a slot equally often.
const TRACE_BLOCK: u64 = 8;
/// `nmae` scores the answers of the first this many measured ticks, so
/// it depends on the seed only, not on how many ticks a run fits.
pub const SCORED_TICKS: u64 = 400;
/// Ticks per replay in the registry on/off comparison.
const TAX_TICKS: u64 = 100;

/// Counter deltas the generator predicts for one batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Predicted {
    admitted: u64,
    rejected: u64,
    dropped_late: u64,
    duplicates: u64,
}

/// One tick's offered batch plus its exact predicted outcome.
struct Batch {
    reports: Vec<WireReport>,
    pred: Predicted,
}

/// Fleet model: per-segment free-flow speed and congestion depth under
/// one shared congestion wave, so the truth is rank 2. The road model
/// is fixed; the seed drives the vehicles, the jitter and the faults.
struct Fleet {
    seed: u64,
    base: Vec<f64>,
    depth: Vec<f64>,
}

/// Seed of the fixed road model.
const ROAD_SEED: u64 = 0x64_5e6d;

impl Fleet {
    fn new(seed: u64) -> Self {
        let frac =
            |tag: u64, j: usize| (hash_words(&[ROAD_SEED, tag, j as u64]) % 10_000) as f64 / 1e4;
        Self {
            seed,
            base: (0..SEGMENTS).map(|j| 30.0 + 50.0 * frac(1, j)).collect(),
            depth: (0..SEGMENTS).map(|j| 0.2 + 0.5 * frac(2, j)).collect(),
        }
    }

    /// Ground-truth speeds of every segment in `slot`.
    fn truth_row(&self, slot: u64) -> Vec<f64> {
        let wave = 0.5 + 0.5 * (std::f64::consts::TAU * slot as f64 / WAVE_SLOTS).sin();
        self.base.iter().zip(&self.depth).map(|(b, d)| b * (1.0 - d * wave)).collect()
    }

    /// The batch of tick `k`: a pure function of `(seed, k)`.
    fn batch(&self, k: u64) -> Batch {
        let mut rng = SplitMix64::new(hash_words(&[self.seed, 0xf1ee7, k]));
        let t0 = k * TICK_S;
        let slot = t0 / SLOT_LEN_S;
        let truth = self.truth_row(slot);
        let jittered = |rng: &mut SplitMix64, t: f64| t * (1.0 + JITTER * (2.0 * rng.unit() - 1.0));
        let mut pred = Predicted::default();
        let mut reports = Vec::with_capacity((VEHICLES * TICK_S) as usize * 101 / 100);
        for ts in t0..t0 + TICK_S {
            for v in 0..VEHICLES {
                let leg = (ts + v * 7) / DWELL_S;
                let seg = (hash_words(&[self.seed, v, leg]) % SEGMENTS as u64) as usize;
                let speed = jittered(&mut rng, truth[seg]);
                let report = if rng.below(10_000) < MALFORMED_PER_10K {
                    pred.rejected += 1;
                    match rng.below(3) {
                        0 => WireReport::new(v, ts, seg as u64, f64::NAN),
                        1 => WireReport::new(v, ts, seg as u64, -speed),
                        _ => WireReport::new(v, ts, (SEGMENTS as u64) + rng.below(1_000), speed),
                    }
                } else {
                    pred.admitted += 1;
                    WireReport::new(v, ts, seg as u64, speed)
                };
                reports.push(report);
            }
        }
        let originals = reports.len() as u64;
        // Exact re-deliveries of well-formed reports of this batch: each
        // is admitted again and counted as a duplicate (last write wins).
        let mean = originals * REDELIVER_PER_10K / 10_000;
        for _ in 0..rng.below(2 * mean + 1) {
            let r = reports[rng.below(originals) as usize];
            if r.speed_kmh().is_finite() && r.speed_kmh() >= 0.0 && r.segment < SEGMENTS as u64 {
                reports.push(r);
                pred.admitted += 1;
                pred.duplicates += 1;
            }
        }
        // Late reports: slots at least one full window behind the head,
        // so they are late whatever the shards' heads are.
        if slot >= WINDOW_SLOTS as u64 + 4 {
            let mean = originals * LATE_PER_10K / 10_000;
            for _ in 0..rng.below(2 * mean + 1) {
                let late_slot = slot - (WINDOW_SLOTS as u64 + 1 + rng.below(3));
                let seg = rng.below(SEGMENTS as u64) as usize;
                let ts = late_slot * SLOT_LEN_S + rng.below(SLOT_LEN_S);
                let speed = jittered(&mut rng, self.truth_row(late_slot)[seg]);
                reports.push(WireReport::new(rng.below(VEHICLES), ts, seg as u64, speed));
                pred.dropped_late += 1;
            }
        }
        if k < BURST_TICKS {
            let slot0 = self.truth_row(0);
            for j in 0..BURST_PER_TICK {
                // Segments round-robin, so both shards get half.
                let seg = j % SEGMENTS as u64;
                let speed = jittered(&mut rng, slot0[seg as usize]);
                let vehicle = VEHICLES + k * BURST_PER_TICK + j;
                reports.push(WireReport::new(vehicle, rng.below(SLOT_LEN_S), seg, speed));
                pred.admitted += 1;
            }
        }
        // Scatter the extras through the batch. Every admission outcome
        // is order-independent within a tick, so the prediction stands.
        for i in originals as usize..reports.len() {
            let j = rng.below(i as u64 + 1) as usize;
            reports.swap(i, j);
        }
        Batch { reports, pred }
    }
}

fn hash_batch(hash: &mut Digest, reports: &[WireReport]) {
    for r in reports {
        hash.write_u64(r.vehicle);
        hash.write_u64(r.timestamp_s);
        hash.write_u64(r.segment);
        hash.write_u64(r.speed_bits);
    }
}

/// A spawned daemon plus its one connected client.
struct Engine {
    handle: DaemonHandle,
    client: Client,
}

fn spawn_engine(metrics_on: bool) -> Result<Engine, String> {
    telemetry::set_metrics_enabled(metrics_on);
    workpool::set_default_threads(THREADS);
    let serve = ServeConfig::builder()
        .slot_len_s(SLOT_LEN_S)
        .window_slots(WINDOW_SLOTS)
        .num_segments(SEGMENTS)
        .queue_capacity(QUEUE_CAPACITY)
        .cs(CsConfig { rank: RANK, lambda: LAMBDA, num_threads: 1, ..CsConfig::default() })
        .shards(ShardPlan::with_count(SHARDS))
        .build()
        .map_err(|e| format!("serve config: {e}"))?;
    let bind = BindAddr::parse("tcp:127.0.0.1:0")?;
    let mut cfg = DaemonConfig::new(bind, serve);
    // The Sync barrier is the only tick feeder.
    cfg.tick_interval = Duration::from_secs(3600);
    cfg.frame_deadline = Duration::from_secs(30);
    let handle = Daemon::bind(cfg)
        .map_err(|e| format!("daemon bind: {e}"))?
        .spawn()
        .map_err(|e| format!("daemon spawn: {e}"))?;
    let client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    Ok(Engine { handle, client })
}

/// Shuts the daemon down and returns its protocol-error count after
/// checking the transport counters against what was sent.
fn shutdown(engine: Engine, sent_reports: u64, out: &mut Outcome) -> u64 {
    let Engine { handle, mut client } = engine;
    match client.request(&Request::Shutdown) {
        Ok(Response::Bye) => {}
        other => out.fail(format!("shutdown: expected Bye, got {other:?}")),
    }
    client.close();
    // Also covers a connection that broke before `Shutdown` got through.
    handle.stop();
    match handle.join() {
        Ok(stats) => {
            out.check(stats.reports == sent_reports, || {
                format!("daemon received {} reports, client sent {sent_reports}", stats.reports)
            });
            out.check(stats.protocol_errors == 0, || {
                format!("daemon counted {} protocol errors", stats.protocol_errors)
            });
            stats.protocol_errors
        }
        Err(e) => {
            out.fail(format!("daemon join: {e}"));
            0
        }
    }
}

/// What one closed-loop tick observed.
struct TickObs {
    freshness_us: f64,
    admitted: u64,
    /// Well-formed in-window reports offered.
    offered: u64,
    /// Offered reports that did not reach a non-degraded estimate.
    failed: u64,
    tick_us: u64,
    solve_us: u64,
    sync_us: f64,
    abs_err: f64,
    abs_truth: f64,
    /// Encoded frame bytes of the batch (traced ticks only).
    wire_bytes: u64,
    reports: u64,
}

/// Client-side state across ticks: the last `Synced` counters and the
/// running stream hash.
struct Feeder {
    fleet: Fleet,
    seen: WireStats,
    hash: Digest,
    sent: u64,
}

impl Feeder {
    fn new(seed: u64) -> Self {
        Self {
            fleet: Fleet::new(seed),
            seen: WireStats::default(),
            hash: Digest::default(),
            sent: 0,
        }
    }

    /// One closed-loop tick. Wire failures and counters that break the
    /// prediction are returned as errors: the run cannot continue past
    /// them. Queue drops and degraded ticks are counted as failed.
    fn tick(&mut self, engine: &mut Engine, k: u64, tr: &mut Tracer) -> Result<TickObs, String> {
        let root = tr.begin(ROOT);
        let s = tr.begin("bench.gen");
        let Batch { reports, pred } = self.fleet.batch(k);
        hash_batch(&mut self.hash, &reports);
        let n = reports.len() as u64;
        let req = Request::ReportBatch(reports);
        tr.end(s);

        let t0 = Instant::now();
        let s = tr.begin("proto.send");
        engine.client.send(&req).map_err(|e| format!("tick {k}: send batch: {e}"))?;
        tr.end(s);
        let s = tr.begin("daemon.sync");
        let sync_start = Instant::now();
        let synced = engine.client.request(&Request::Sync);
        let sync_us = sync_start.elapsed().as_secs_f64() * 1e6;
        tr.end(s);
        let s = tr.begin("daemon.query");
        let answer = engine.client.request(&Request::QueryEstimate);
        tr.end(s);
        let freshness_us = t0.elapsed().as_secs_f64() * 1e6;
        self.sent += n;

        let s = tr.begin("bench.check");
        let Ok(Response::Synced { pushed, tick_us, solve_us, stats }) = synced else {
            return Err(format!("tick {k}: Sync answered {synced:?}"));
        };
        if pushed != n {
            return Err(format!("tick {k}: daemon saw {pushed} pushed reports, client sent {n}"));
        }
        let d = WireStats {
            admitted: stats.admitted - self.seen.admitted,
            rejected: stats.rejected - self.seen.rejected,
            dropped_late: stats.dropped_late - self.seen.dropped_late,
            duplicates: stats.duplicates - self.seen.duplicates,
            queue_dropped: stats.queue_dropped - self.seen.queue_dropped,
            solves: 0,
            degraded: stats.degraded - self.seen.degraded,
        };
        self.seen = stats;
        // Every report is admitted, rejected, late or refused by the
        // queue; with no refusals the split is exactly the prediction.
        let settled = d.admitted + d.rejected + d.dropped_late + d.queue_dropped;
        let predicted = (pred.admitted, pred.rejected, pred.dropped_late, pred.duplicates);
        if settled != n
            || (d.queue_dropped == 0
                && (d.admitted, d.rejected, d.dropped_late, d.duplicates) != predicted)
        {
            return Err(format!(
                "tick {k}: {n} reports settled as {d:?}, predicted {pred:?} with no queue drops"
            ));
        }
        let Ok(Response::Estimate(Some(est))) = answer else {
            return Err(format!("tick {k}: QueryEstimate answered {answer:?}"));
        };
        // The window starts out covering slots 0..WINDOW_SLOTS.
        let head = ((k * TICK_S + TICK_S - 1) / SLOT_LEN_S).max(WINDOW_SLOTS as u64 - 1);
        let shape = (est.rows as usize, est.cols as usize, est.values_bits.len());
        if est.head_slot != head || shape != (WINDOW_SLOTS, SEGMENTS, WINDOW_SLOTS * SEGMENTS) {
            return Err(format!(
                "tick {k}: estimate head={} shape={shape:?} (want head {head}, {WINDOW_SLOTS}x{SEGMENTS})",
                est.head_slot
            ));
        }
        // Reports of a degraded tick do not reach a fresh estimate.
        let reached = if est.stale || d.degraded > 0 { 0 } else { d.admitted };
        let (mut abs_err, mut abs_truth) = (0.0, 0.0);
        for (row, cells) in est.values_bits.chunks(SEGMENTS).enumerate() {
            let slot = head + row as u64 + 1 - WINDOW_SLOTS as u64;
            for (seg, (&bits, t)) in cells.iter().zip(self.fleet.truth_row(slot)).enumerate() {
                let v = f64::from_bits(bits);
                if !v.is_finite() {
                    return Err(format!("tick {k}: non-finite estimate cell ({row}, {seg})"));
                }
                abs_err += (v - t).abs();
                abs_truth += t;
            }
        }
        tr.end(s);
        tr.end(root);

        let mut wire_bytes = 0;
        if tr.is_on() {
            // Codec cost of this tick's payload, outside the root span:
            // the client encoded it once already inside `send`.
            let s = tr.begin("proto.encode");
            let payload = req.encode();
            tr.end(s);
            let s = tr.begin("proto.decode");
            let decoded = Request::decode(&payload);
            tr.end(s);
            if decoded.as_ref() != Ok(&req) {
                return Err(format!("tick {k}: ReportBatch did not round-trip the codec"));
            }
            wire_bytes = payload.len() as u64 + 4;
        }
        Ok(TickObs {
            freshness_us,
            admitted: d.admitted,
            offered: pred.admitted,
            failed: pred.admitted.saturating_sub(reached),
            tick_us,
            solve_us,
            sync_us,
            abs_err,
            abs_truth,
            wire_bytes,
            reports: n,
        })
    }
}

/// Drives ticks `ticks` untraced, handing each observation to `each`;
/// on failure the daemon is shut down before the error is returned.
fn drive(
    engine: Engine,
    feeder: &mut Feeder,
    ticks: std::ops::Range<u64>,
    out: &mut Outcome,
    mut each: impl FnMut(TickObs),
) -> Result<Engine, String> {
    let mut engine = engine;
    let mut off = Tracer::new();
    for k in ticks {
        match feeder.tick(&mut engine, k, &mut off) {
            Ok(obs) => each(obs),
            Err(e) => {
                shutdown(engine, feeder.sent, out);
                return Err(e);
            }
        }
    }
    Ok(engine)
}

/// Spawns a daemon and drives the warm-up ticks: the timed set-up.
fn setup(seed: u64, metrics_on: bool, out: &mut Outcome) -> Result<(Engine, Feeder), String> {
    let mut feeder = Feeder::new(seed);
    let engine = drive(spawn_engine(metrics_on)?, &mut feeder, 0..WARMUP_TICKS, out, |_| {})?;
    Ok((engine, feeder))
}

/// Mean engine drain time (tick − solve) over `TAX_TICKS` ticks after
/// warm-up, on a fresh daemon with the telemetry registry on or off.
fn drain_replay(seed: u64, metrics_on: bool, out: &mut Outcome) -> Result<f64, String> {
    let (engine, mut feeder) = setup(seed, metrics_on, out)?;
    let mut drain = Samples::default();
    let ticks = WARMUP_TICKS..WARMUP_TICKS + TAX_TICKS;
    let engine = drive(engine, &mut feeder, ticks, out, |obs| {
        drain.push(obs.tick_us.saturating_sub(obs.solve_us) as f64)
    })?;
    shutdown(engine, feeder.sent, out);
    Ok(drain.mean())
}

pub fn run(args: RunArgs) -> Outcome {
    let mut out = Outcome::default();
    out.note("segments", SEGMENTS);
    out.note("window_slots", WINDOW_SLOTS);
    out.note("slot_len_s", SLOT_LEN_S);
    out.note("ticks_per_slot", SLOT_LEN_S / TICK_S);
    out.note("reports_per_tick", VEHICLES * TICK_S);
    out.note("vehicles", VEHICLES);
    out.note("shards", SHARDS);
    out.note("threads", THREADS);
    out.note("client_connections", 1);
    out.note("rank", RANK);
    out.note("lambda", LAMBDA);
    if let Err(e) = measure(args, &mut out) {
        out.fail(e);
    }
    out
}

fn measure(args: RunArgs, out: &mut Outcome) -> Result<(), String> {
    // Set-up: daemon + connection + warm-up, repeated; all but the last
    // engine are shut down, and every repeat must offer the same stream.
    let mut setup_s = Vec::new();
    let mut warm_hashes = Vec::new();
    let mut kept = None;
    for i in 0..SETUP_REPEATS {
        let t = Instant::now();
        let (engine, feeder) = setup(args.seed, true, out)?;
        setup_s.push(t.elapsed().as_secs_f64());
        warm_hashes.push(feeder.hash.finish());
        if i + 1 == SETUP_REPEATS {
            kept = Some((engine, feeder));
        } else {
            shutdown(engine, feeder.sent, out);
        }
    }
    // Set-up and warm-up fill every window-sized structure.
    let setup_rss_mb = rss_mb();
    let (mut engine, mut feeder) = kept.expect("SETUP_REPEATS is at least 1");

    let mut tr = Tracer::new();
    let (mut fresh, mut fresh_traced, mut solve) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut tick_us, mut solve_us, mut overhead_us) = (0.0, 0.0, 0.0);
    let (mut admitted, mut busy_us, mut abs_err, mut abs_truth) = (0u64, 0.0, 0.0, 0.0);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut traced_ticks, mut ticks) = (0u64, 0u64);
    let (mut wire_bytes, mut wire_reports) = (0u64, 0u64);
    let seen_before = feeder.seen;
    let mut clock = LoopClock::new(args);
    let mut k = WARMUP_TICKS;
    let mut looped = Ok(());
    while clock.running() {
        tr.set_on(traced_block(args, k - WARMUP_TICKS, TRACE_BLOCK));
        tr.set_tick(k);
        let traced = tr.is_on();
        let obs = match feeder.tick(&mut engine, k, &mut tr) {
            Ok(obs) => obs,
            Err(e) => {
                looped = Err(e);
                break;
            }
        };
        if traced {
            fresh_traced.push(obs.freshness_us);
            traced_ticks += 1;
            tick_us += obs.tick_us as f64;
            solve_us += obs.solve_us as f64;
            overhead_us += obs.sync_us - obs.tick_us as f64;
            wire_bytes += obs.wire_bytes;
            wire_reports += obs.reports;
        } else {
            fresh.push(obs.freshness_us);
        }
        solve.push(obs.solve_us as f64);
        admitted += obs.admitted;
        attempted += obs.offered;
        failed += obs.failed;
        busy_us += obs.freshness_us;
        if ticks < SCORED_TICKS {
            abs_err += obs.abs_err;
            abs_truth += obs.abs_truth;
        }
        ticks += 1;
        k += 1;
        if clock.setup_due() {
            let t = Instant::now();
            match setup(args.seed, true, out) {
                Ok((spare, warm)) => {
                    setup_s.push(t.elapsed().as_secs_f64());
                    warm_hashes.push(warm.hash.finish());
                    shutdown(spare, warm.sent, out);
                }
                Err(e) => {
                    looped = Err(e);
                    break;
                }
            }
            clock.resume();
        }
    }
    let protocol_errors = shutdown(engine, feeder.sent, out);
    looped?;

    // The stream must be a pure function of the seed: regenerate it.
    let fleet = Fleet::new(args.seed);
    let mut again = Digest::default();
    for j in 0..k {
        hash_batch(&mut again, &fleet.batch(j).reports);
    }
    out.check(again.finish() == feeder.hash.finish(), || {
        format!(
            "stream hash {:016x} differs on regeneration ({:016x})",
            feeder.hash.finish(),
            again.finish()
        )
    });
    out.note("stream_hash", format!("{:016x}", feeder.hash.finish()));
    out.note("measured_ticks", ticks);

    out.attempted = attempted;
    out.failed = failed;
    out.check(ticks >= SCORED_TICKS, || {
        format!("only {ticks} of {SCORED_TICKS} ticks scored: run longer")
    });
    let nmae = if abs_truth > 0.0 { abs_err / abs_truth } else { f64::NAN };
    out.note("scored_ticks", SCORED_TICKS);

    if args.trace {
        let (totals, coverage) = tr.analyze();
        let n = traced_ticks;
        let us = |name| mean_self_us(&totals, name, n);
        out.set("proto.encode_us", us("proto.encode"));
        out.set("proto.decode_us", us("proto.decode"));
        out.set("proto.send_us", us("proto.send"));
        out.set("proto.bytes_per_report", wire_bytes as f64 / wire_reports.max(1) as f64);
        out.set("daemon.sync_rtt_us", us("daemon.sync"));
        out.set("daemon.overhead_us", overhead_us / n.max(1) as f64);
        out.set("daemon.query_us", us("daemon.query"));
        out.set("daemon.protocol_errors", protocol_errors as f64);
        out.set("service.tick_us", tick_us / n.max(1) as f64);
        out.set("service.solve_us", solve_us / n.max(1) as f64);
        out.set("service.drain_us", (tick_us - solve_us) / n.max(1) as f64);
        // Measured-loop deltas of the Synced counters.
        let (e, b) = (feeder.seen, seen_before);
        out.set("service.admitted", (e.admitted - b.admitted) as f64);
        out.set("service.rejected", (e.rejected - b.rejected) as f64);
        out.set("service.duplicates", (e.duplicates - b.duplicates) as f64);
        out.set("service.dropped_late", (e.dropped_late - b.dropped_late) as f64);
        out.set("service.queue_dropped", (e.queue_dropped - b.queue_dropped) as f64);
        out.set("service.degraded", (e.degraded - b.degraded) as f64);
        out.set("trace.coverage", coverage);
        out.set("trace.overhead", fresh_traced.quantile(0.5).0 / fresh.quantile(0.5).0);
        // Registry tax: the same stream prefix through fresh daemons
        // with the registry on and off, in on/off/off/on order.
        let mut on = Vec::new();
        let mut off = Vec::new();
        for metrics_on in [true, false, false, true] {
            let d = drain_replay(args.seed, metrics_on, out)?;
            if metrics_on {
                on.push(d)
            } else {
                off.push(d)
            }
        }
        out.set("telemetry.metrics_tax", median(on) / median(off));
        telemetry::set_metrics_enabled(true);
        crate::write_trace(&tr, "fleet-ingest", args.seed, out);
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
        out.set("ok_frac", 1.0 - out.failed as f64 / attempted.max(1) as f64);
        out.set("rss_mb", setup_rss_mb);
    }
    out.check(warm_hashes.windows(2).all(|w| w[0] == w[1]), || {
        format!("warm-up stream hashes differ between set-ups: {warm_hashes:x?}")
    });
    out.note("peak_rss_end_mb", peak_rss_mb());
    out.nmae = nmae;
    Ok(())
}
