//! Integration tests for the streaming estimation service: deterministic
//! replay parity against the offline pipeline, thread-count invariance,
//! and fault injection that must degrade counters — never the process.

use probes::tcm::TcmBuilder;
use traffic_cs::cs::{complete_matrix_detailed, CsConfig};
use traffic_cs::service::{Backpressure, Observation, ServeConfig};
use traffic_cs::sharded::ShardedService;
use traffic_cs::Error;

const SLOT_LEN: u64 = 60;
const SEGMENTS: usize = 8;

fn cs_cfg(threads: usize) -> CsConfig {
    CsConfig { rank: 2, lambda: 0.1, num_threads: threads, ..CsConfig::default() }
}

/// Deterministic synthetic probe stream: low-rank "traffic" sampled by a
/// hash-scattered subset of (slot, segment, vehicle) triples. No RNG —
/// replays are bit-identical across runs and thread counts.
fn synth_observations(slots: usize) -> Vec<Observation> {
    let mut out = Vec::new();
    for slot in 0..slots {
        for seg in 0..SEGMENTS {
            for probe in 0..3u64 {
                // Scatter ~60% coverage deterministically.
                let h = (slot as u64)
                    .wrapping_mul(2654435761)
                    .wrapping_add(seg as u64 * 97 + probe * 131);
                if h % 10 < 6 {
                    let f = (2.0 * std::f64::consts::PI * slot as f64 / 24.0).sin();
                    let speed = 30.0 + 3.0 * (seg % 5) as f64 + 9.0 * f + 0.1 * probe as f64;
                    out.push(Observation {
                        vehicle: 100 * probe + seg as u64,
                        timestamp_s: slot as u64 * SLOT_LEN + 7 + probe,
                        segment: seg,
                        speed_kmh: speed,
                    });
                }
            }
        }
    }
    out
}

fn serve_cfg(window_slots: usize, threads: usize) -> ServeConfig {
    ServeConfig::builder()
        .slot_len_s(SLOT_LEN)
        .window_slots(window_slots)
        .num_segments(SEGMENTS)
        .cs(cs_cfg(threads))
        .queue_capacity(10_000)
        .build()
        .unwrap()
}

/// Replays observations through a service in chunks, ticking per chunk.
fn replay(cfg: ServeConfig, observations: &[Observation], chunk: usize) -> ShardedService {
    let mut service = ShardedService::new(cfg).unwrap();
    for batch in observations.chunks(chunk.max(1)) {
        for &o in batch {
            assert!(service.push(o));
        }
        service.tick();
    }
    service
}

#[test]
fn replay_matches_offline_estimate_bit_for_bit() {
    // With the window sized to the full replay, the service's final
    // window is the offline TCM and its solve is cold — so the streamed
    // pipeline must reproduce the offline `build-tcm | estimate` result
    // exactly, at any thread count and any chunking.
    let slots = 12;
    let observations = synth_observations(slots);

    // Offline reference: batch TCM + detailed completion.
    let mut builder = TcmBuilder::new(slots, SEGMENTS);
    for o in &observations {
        builder
            .add_observation((o.timestamp_s / SLOT_LEN) as usize, o.segment, o.speed_kmh)
            .unwrap();
    }
    let offline_tcm = builder.build();
    let offline = complete_matrix_detailed(&offline_tcm, &cs_cfg(0)).unwrap();

    // Single tick => the one solve is cold, exactly like the offline
    // pipeline; chunked replays warm-start between ticks, so they are
    // compared across thread counts instead (determinism), not against
    // the cold reference.
    for threads in [1usize, 4] {
        let service = replay(serve_cfg(slots, threads), &observations, observations.len());
        let live = service.latest().expect("replay produced an estimate");
        assert!(!live.stale);
        assert_eq!(
            live.estimate.as_slice(),
            offline.estimate.as_slice(),
            "threads={threads}: streamed estimate diverged from offline"
        );
        assert_eq!(service.stats().admitted, observations.len() as u64);
        assert_eq!(service.stats().rejected, 0);
        assert_eq!(service.stats().dropped_late, 0);
    }
    for chunk in [1usize, 17] {
        let a = replay(serve_cfg(slots, 1), &observations, chunk);
        let b = replay(serve_cfg(slots, 4), &observations, chunk);
        assert_eq!(
            a.latest().unwrap().estimate.as_slice(),
            b.latest().unwrap().estimate.as_slice(),
            "chunk={chunk}: incremental replay must be thread-invariant"
        );
    }
}

#[test]
fn multi_window_replay_is_thread_invariant_and_window_exact() {
    // Sliding window smaller than the replay: solves are warm-started,
    // so they differ from offline cold solves by design — but the final
    // *window content* must equal the offline TCM's last rows exactly,
    // and the estimate stream must be bit-identical across thread counts.
    let slots = 12;
    let window = 4;
    let observations = synth_observations(slots);

    let s1 = replay(serve_cfg(window, 1), &observations, 9);
    let s4 = replay(serve_cfg(window, 4), &observations, 9);
    let e1 = s1.latest().unwrap();
    let e4 = s4.latest().unwrap();
    assert_eq!(e1.estimate.as_slice(), e4.estimate.as_slice(), "thread parity violated");
    assert_eq!(e1.head_slot, slots - 1);

    // Window-content parity with the offline TCM.
    let mut builder = TcmBuilder::new(slots, SEGMENTS);
    for o in &observations {
        builder
            .add_observation((o.timestamp_s / SLOT_LEN) as usize, o.segment, o.speed_kmh)
            .unwrap();
    }
    let offline_window = builder.build().slot_range(slots - window, slots);
    // A single-tick replay cold-solves exactly the final window, so it
    // must agree bit-for-bit with the offline solve of those rows.
    let window_solver = replay(serve_cfg(window, 1), &observations, usize::MAX);
    assert_eq!(window_solver.latest().unwrap().estimate.shape(), (window, SEGMENTS));
    let offline_solve = complete_matrix_detailed(&offline_window, &cs_cfg(0)).unwrap();
    assert_eq!(
        window_solver.latest().unwrap().estimate.as_slice(),
        offline_solve.estimate.as_slice(),
        "single-tick replay over a sliding window must cold-solve the same final window"
    );
}

#[test]
fn fault_injection_degrades_counters_not_the_process() {
    let mut service = ShardedService::new(serve_cfg(4, 1)).unwrap();

    // Healthy traffic first.
    for &o in &synth_observations(4) {
        service.push(o);
    }
    let report = service.tick();
    assert!(report.solved);
    let baseline = service.latest().unwrap().estimate.clone();

    // Malformed: NaN / infinite / negative speeds, unknown segment.
    service.push(Observation { vehicle: 1, timestamp_s: 200, segment: 0, speed_kmh: f64::NAN });
    service.push(Observation {
        vehicle: 1,
        timestamp_s: 201,
        segment: 0,
        speed_kmh: f64::INFINITY,
    });
    service.push(Observation { vehicle: 1, timestamp_s: 202, segment: 0, speed_kmh: -3.0 });
    service.push(Observation { vehicle: 1, timestamp_s: 203, segment: 99, speed_kmh: 30.0 });
    let report = service.tick();
    assert_eq!(report.rejected, 4);
    assert_eq!(service.stats().rejected, 4);

    // Late: advance the clock far, then send an evicted-slot report.
    service.push(Observation {
        vehicle: 2,
        timestamp_s: 100 * SLOT_LEN,
        segment: 0,
        speed_kmh: 30.0,
    });
    service.push(Observation { vehicle: 2, timestamp_s: 0, segment: 0, speed_kmh: 30.0 });
    let report = service.tick();
    assert_eq!(report.dropped_late, 1);
    assert!(service.stats().dropped_late >= 1);

    // Duplicates: exact re-delivery resolves last-write-wins.
    let ts = 100 * SLOT_LEN + 5;
    service.push(Observation { vehicle: 3, timestamp_s: ts, segment: 1, speed_kmh: 50.0 });
    service.tick();
    service.push(Observation { vehicle: 3, timestamp_s: ts, segment: 1, speed_kmh: 40.0 });
    let report = service.tick();
    assert_eq!(report.duplicates, 1);
    assert_eq!(service.stats().duplicates, 1);

    // The service kept answering through all of it.
    assert!(service.latest().is_some());
    assert_ne!(baseline.as_slice(), service.latest().unwrap().estimate.as_slice());
}

#[test]
fn duplicate_redelivery_is_last_write_wins() {
    // One vehicle, one slot: the re-delivered speed fully replaces the
    // original contribution rather than averaging with it.
    let mut service = ShardedService::new(serve_cfg(2, 1)).unwrap();
    service.push(Observation { vehicle: 9, timestamp_s: 10, segment: 0, speed_kmh: 50.0 });
    service.push(Observation { vehicle: 9, timestamp_s: 10, segment: 0, speed_kmh: 30.0 });
    service.tick();
    let live = service.latest().unwrap();
    // Fully-observed single cell in row 0: the estimate there must track
    // the corrected 30, not the 40 average.
    assert!(
        (live.estimate.get(0, 0) - 30.0).abs() < 1.0,
        "expected last-write-wins near 30, got {}",
        live.estimate.get(0, 0)
    );
    assert_eq!(service.stats().duplicates, 1);
}

#[test]
fn solve_failure_keeps_last_good_estimate_with_staleness_flag() {
    let mut service = ShardedService::new(serve_cfg(4, 1)).unwrap();
    for &o in &synth_observations(4) {
        service.push(o);
    }
    assert!(service.tick().solved);
    assert!(!service.latest().unwrap().stale);

    // Force a solve failure: jump the clock so far that the window is
    // completely empty — Algorithm 1 has no observations to fit.
    service.advance_clock(10_000 * SLOT_LEN);
    let report = service.refresh();
    assert!(!report.solved);
    assert!(report.degraded);
    assert_eq!(service.stats().degraded, 1);

    // Still answering: last good estimate, now flagged stale.
    let live = service.latest().expect("service must keep answering");
    assert!(live.stale, "degraded estimate must carry the staleness flag");

    // Repeated failures keep degrading gracefully, never wedge.
    for _ in 0..3 {
        let r = service.refresh();
        assert!(r.degraded);
    }
    assert_eq!(service.stats().degraded, 4);

    // Recovery: fresh in-window data produces a fresh, non-stale answer.
    let base = 10_000 * SLOT_LEN;
    for seg in 0..SEGMENTS {
        for p in 0..3u64 {
            service.push(Observation {
                vehicle: p * 100 + seg as u64,
                timestamp_s: base + p,
                segment: seg,
                speed_kmh: 25.0 + seg as f64 + p as f64,
            });
        }
    }
    let report = service.tick();
    assert!(report.solved, "service must recover once valid data returns");
    assert!(!service.latest().unwrap().stale);
}

#[test]
fn unsolvable_configuration_never_wedges_the_loop() {
    // rank > min(window, segments): every solve fails. The service must
    // keep classifying input and counting degradations indefinitely.
    let cfg = ServeConfig::builder()
        .slot_len_s(SLOT_LEN)
        .window_slots(2)
        .num_segments(3)
        .cs(CsConfig { rank: 5, lambda: 0.1, ..CsConfig::default() })
        .build()
        .unwrap();
    let mut service = ShardedService::new(cfg).unwrap();
    for round in 0..5u64 {
        service.push(Observation {
            vehicle: round,
            timestamp_s: round * SLOT_LEN,
            segment: (round % 3) as usize,
            speed_kmh: 30.0,
        });
        let report = service.tick();
        assert!(!report.solved);
        assert!(report.degraded);
    }
    assert_eq!(service.stats().degraded, 5);
    assert_eq!(service.stats().admitted, 5);
    assert!(service.latest().is_none(), "no good estimate ever existed");
}

#[test]
fn zero_wall_clock_budget_flags_every_solve_stale() {
    let cfg = ServeConfig { solve_budget: Some(std::time::Duration::ZERO), ..serve_cfg(4, 1) };
    let mut service = ShardedService::new(cfg).unwrap();
    for &o in &synth_observations(4) {
        service.push(o);
    }
    let report = service.tick();
    // The solve succeeded — but blew the (impossible) budget.
    assert!(report.solved);
    assert!(report.degraded);
    let live = service.latest().unwrap();
    assert!(live.stale);
    assert_eq!(service.stats().degraded, 1);
    assert_eq!(service.stats().solves, 1);
}

#[test]
fn warm_sweep_cap_bounds_steady_state_latency() {
    let capped = ServeConfig { warm_sweep_cap: Some(2), ..serve_cfg(4, 1) };
    let mut service = ShardedService::new(capped).unwrap();
    let observations = synth_observations(12);
    let mut max_warm_sweeps = 0;
    let mut first = true;
    for batch in observations.chunks(24) {
        for &o in batch {
            service.push(o);
        }
        let report = service.tick();
        if report.solved && !first {
            max_warm_sweeps = max_warm_sweeps.max(service.latest().unwrap().sweeps);
        }
        first = false;
    }
    assert!(service.stats().solves >= 2, "need warm solves to exercise the cap");
    assert!(max_warm_sweeps <= 2, "sweep cap violated: {max_warm_sweeps}");
}

#[test]
fn checkpoint_restore_reproduces_the_uninterrupted_stream() {
    let observations = synth_observations(12);
    let (first_half, second_half) = observations.split_at(observations.len() / 2);

    // Disable the sweep cap so both runs solve with identical budgets
    // (the uninterrupted run has an extra successful solve behind it,
    // which would otherwise have armed the cap).
    let cfg = || ServeConfig { warm_sweep_cap: None, ..serve_cfg(4, 1) };

    // Uninterrupted service over the full stream.
    let mut uninterrupted = ShardedService::new(cfg()).unwrap();
    for &o in first_half {
        uninterrupted.push(o);
    }
    uninterrupted.tick();
    for &o in second_half {
        uninterrupted.push(o);
    }
    uninterrupted.tick();

    // Interrupted service: checkpoint after the first half, restore into
    // a fresh process, replay the full stream (the window refills; the
    // warm factors come from the checkpoint — bit-exact hex round trip).
    let mut before_crash = ShardedService::new(cfg()).unwrap();
    for &o in first_half {
        before_crash.push(o);
    }
    before_crash.tick();
    let snapshot = before_crash.checkpoint();

    let mut restarted = ShardedService::new(cfg()).unwrap();
    restarted.restore(&snapshot).unwrap();
    // Refill the window exactly as a restarted replay would.
    for &o in &observations {
        restarted.push(o);
    }
    restarted.tick();

    assert_eq!(
        uninterrupted.latest().unwrap().estimate.as_slice(),
        restarted.latest().unwrap().estimate.as_slice(),
        "restored warm start must reproduce the uninterrupted estimate bit-for-bit"
    );
}

#[test]
fn checkpoint_file_round_trip_and_io_errors() {
    let dir = std::env::temp_dir().join("cs-serve-ckpt-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve.ckpt");

    let mut service = ShardedService::new(serve_cfg(4, 1)).unwrap();
    for &o in &synth_observations(6) {
        service.push(o);
    }
    service.tick();
    service.save_checkpoint(&path).unwrap();

    let mut restored = ShardedService::new(serve_cfg(4, 1)).unwrap();
    restored.load_checkpoint(&path).unwrap();
    assert_eq!(restored.clock_s(), service.clock_s());

    // Missing file surfaces as a typed I/O error, not a panic.
    let missing = dir.join("does-not-exist.ckpt");
    let mut fresh = ShardedService::new(serve_cfg(4, 1)).unwrap();
    assert!(matches!(
        fresh.load_checkpoint(&missing),
        Err(Error::Serve(traffic_cs::ServeError::Io(_)))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_checkpoint_save_leaves_the_previous_file_intact() {
    // A save writes a sibling temp file and renames it over the target,
    // so a save that fails before the rename (here: a directory squats
    // on the temp path) must report `Io` and leave the previous
    // checkpoint byte-identical — never truncated.
    let dir = std::env::temp_dir().join(format!("cs-serve-ckpt-atomic-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve.ckpt");

    let mut service = ShardedService::new(serve_cfg(4, 1)).unwrap();
    for &o in &synth_observations(3) {
        service.push(o);
    }
    service.tick();
    service.save_checkpoint(&path).unwrap();
    let previous = std::fs::read(&path).unwrap();
    assert!(!dir.join("serve.ckpt.tmp").exists(), "a successful save leaves no temp file");

    for &o in &synth_observations(6) {
        service.push(o);
    }
    service.tick();
    assert_ne!(service.checkpoint().as_bytes(), previous.as_slice(), "state must have moved on");
    std::fs::create_dir(dir.join("serve.ckpt.tmp")).unwrap();
    assert!(matches!(
        service.save_checkpoint(&path),
        Err(Error::Serve(traffic_cs::ServeError::Io(_)))
    ));
    assert_eq!(std::fs::read(&path).unwrap(), previous, "failed save touched the checkpoint");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn queue_backpressure_under_burst_load() {
    let cfg = ServeConfig {
        queue_capacity: 16,
        backpressure: Backpressure::DropOldest,
        ..serve_cfg(4, 1)
    };
    let mut service = ShardedService::new(cfg).unwrap();
    let observations = synth_observations(4);
    let burst = observations.len();
    for &o in &observations {
        service.push(o);
    }
    assert_eq!(service.queue_len(), 16, "queue must stay bounded");
    assert_eq!(service.stats().queue_dropped as usize, burst - 16);
    let report = service.tick();
    assert_eq!(report.admitted, 16);
    assert!(service.latest().is_some());
}

/// One admission-table scenario: a fixed input batch pushed into a
/// fresh service under one backpressure policy, with the exact counter
/// deltas the rules must produce.
struct AdmissionCase {
    name: &'static str,
    backpressure: Backpressure,
    queue_capacity: usize,
    input: &'static [Observation],
    queue_dropped: u64,
    rejected: u64,
    dropped_late: u64,
    admitted: u64,
    duplicates: u64,
}

#[test]
fn admission_rules_table() {
    // The classification rules in `admit` (and the queue bound in
    // `push`) pinned as a table: (malformed, late, duplicate, full
    // queue) × both backpressure policies, with exact counter deltas.
    // `duplicates` is a sub-count of `admitted` (a duplicate retracts
    // the old value and is then admitted), so conservation is
    //   pushed == queue_dropped + rejected + dropped_late + admitted.
    const VALID: Observation =
        Observation { vehicle: 1, timestamp_s: 10, segment: 0, speed_kmh: 50.0 };
    const MALFORMED_NAN: Observation =
        Observation { vehicle: 2, timestamp_s: 11, segment: 0, speed_kmh: f64::NAN };
    const MALFORMED_NEG: Observation =
        Observation { vehicle: 2, timestamp_s: 12, segment: 0, speed_kmh: -1.0 };
    const MALFORMED_SEG: Observation =
        Observation { vehicle: 2, timestamp_s: 13, segment: 99, speed_kmh: 30.0 };
    // Slot 100 advances the clock so window 4 puts slot 0 below tail 97.
    const FRESH: Observation =
        Observation { vehicle: 3, timestamp_s: 100 * SLOT_LEN, segment: 0, speed_kmh: 40.0 };
    const STALE: Observation =
        Observation { vehicle: 3, timestamp_s: 0, segment: 1, speed_kmh: 40.0 };
    const DUP: Observation =
        Observation { vehicle: 1, timestamp_s: 10, segment: 0, speed_kmh: 30.0 };

    let cases = [
        AdmissionCase {
            name: "malformed/drop-newest",
            backpressure: Backpressure::DropNewest,
            queue_capacity: 8,
            input: &[MALFORMED_NAN, MALFORMED_NEG, MALFORMED_SEG, VALID],
            queue_dropped: 0,
            rejected: 3,
            dropped_late: 0,
            admitted: 1,
            duplicates: 0,
        },
        AdmissionCase {
            name: "malformed/drop-oldest",
            backpressure: Backpressure::DropOldest,
            queue_capacity: 8,
            input: &[MALFORMED_NAN, MALFORMED_NEG, MALFORMED_SEG, VALID],
            queue_dropped: 0,
            rejected: 3,
            dropped_late: 0,
            admitted: 1,
            duplicates: 0,
        },
        AdmissionCase {
            name: "late/drop-newest",
            backpressure: Backpressure::DropNewest,
            queue_capacity: 8,
            input: &[FRESH, STALE],
            queue_dropped: 0,
            rejected: 0,
            dropped_late: 1,
            admitted: 1,
            duplicates: 0,
        },
        AdmissionCase {
            name: "late/drop-oldest",
            backpressure: Backpressure::DropOldest,
            queue_capacity: 8,
            input: &[FRESH, STALE],
            queue_dropped: 0,
            rejected: 0,
            dropped_late: 1,
            admitted: 1,
            duplicates: 0,
        },
        AdmissionCase {
            name: "duplicate/drop-newest",
            backpressure: Backpressure::DropNewest,
            queue_capacity: 8,
            input: &[VALID, DUP],
            queue_dropped: 0,
            rejected: 0,
            dropped_late: 0,
            admitted: 2,
            duplicates: 1,
        },
        AdmissionCase {
            name: "duplicate/drop-oldest",
            backpressure: Backpressure::DropOldest,
            queue_capacity: 8,
            input: &[VALID, DUP],
            queue_dropped: 0,
            rejected: 0,
            dropped_late: 0,
            admitted: 2,
            duplicates: 1,
        },
        // Capacity 1 with [valid, malformed]: the policies disagree on
        // *which* report dies at the queue, and the survivor is counted
        // by classification — never twice, never zero times.
        AdmissionCase {
            name: "full-queue/drop-newest",
            backpressure: Backpressure::DropNewest,
            queue_capacity: 1,
            input: &[VALID, MALFORMED_NAN],
            queue_dropped: 1, // the malformed newcomer is refused unseen
            rejected: 0,
            dropped_late: 0,
            admitted: 1,
            duplicates: 0,
        },
        AdmissionCase {
            name: "full-queue/drop-oldest",
            backpressure: Backpressure::DropOldest,
            queue_capacity: 1,
            input: &[VALID, MALFORMED_NAN],
            queue_dropped: 1, // the valid report is evicted for the malformed one
            rejected: 1,
            dropped_late: 0,
            admitted: 0,
            duplicates: 0,
        },
    ];

    for case in &cases {
        let cfg = ServeConfig {
            queue_capacity: case.queue_capacity,
            backpressure: case.backpressure,
            ..serve_cfg(4, 1)
        };
        let mut service = ShardedService::new(cfg).unwrap();
        for &o in case.input {
            service.push(o);
        }
        service.tick();
        let s = service.stats();
        assert_eq!(s.queue_dropped, case.queue_dropped, "{}: queue_dropped", case.name);
        assert_eq!(s.rejected, case.rejected, "{}: rejected", case.name);
        assert_eq!(s.dropped_late, case.dropped_late, "{}: dropped_late", case.name);
        assert_eq!(s.admitted, case.admitted, "{}: admitted", case.name);
        assert_eq!(s.duplicates, case.duplicates, "{}: duplicates", case.name);
        assert_eq!(
            s.queue_dropped + s.rejected + s.dropped_late + s.admitted,
            case.input.len() as u64,
            "{}: every pushed report must be counted exactly once",
            case.name
        );
    }
}

#[test]
fn counters_conserve_every_report_exactly_once() {
    // Regression pin for the early-return paths in `admit`: a report
    // that trips one rule (malformed → late → duplicate, in that order)
    // bumps exactly one terminal counter. A mixed stream of all
    // classes, ticked in small chunks under a tight queue, must satisfy
    //   pushed == queue_dropped + rejected + dropped_late + admitted
    // with duplicates ≤ admitted (a sub-count, not a terminal state).
    let cfg = ServeConfig {
        queue_capacity: 8,
        backpressure: Backpressure::DropOldest,
        ..serve_cfg(4, 1)
    };
    let mut service = ShardedService::new(cfg).unwrap();
    let mut pushed = 0u64;
    for round in 0..40u64 {
        let ts = round * SLOT_LEN + 5;
        let batch = [
            Observation { vehicle: round, timestamp_s: ts, segment: 0, speed_kmh: 30.0 },
            // Same key re-delivered: duplicate.
            Observation { vehicle: round, timestamp_s: ts, segment: 0, speed_kmh: 31.0 },
            // Malformed in each of the three ways, alternating.
            Observation {
                vehicle: 500,
                timestamp_s: ts,
                segment: if round % 3 == 0 { 99 } else { 1 },
                speed_kmh: match round % 3 {
                    1 => f64::NAN,
                    2 => -5.0,
                    _ => 30.0,
                },
            },
            // Slot 0 is evicted once the clock passes the window.
            Observation { vehicle: 600, timestamp_s: 0, segment: 2, speed_kmh: 20.0 },
        ];
        for o in batch {
            service.push(o);
            pushed += 1;
        }
        if round % 2 == 0 {
            service.tick();
        }
    }
    service.tick();
    let s = service.stats();
    assert!(s.rejected > 0 && s.dropped_late > 0 && s.duplicates > 0, "stream must mix classes");
    assert_eq!(
        s.queue_dropped + s.rejected + s.dropped_late + s.admitted,
        pushed,
        "conservation violated: some report was double- or zero-counted {s:?}"
    );
    assert!(s.duplicates <= s.admitted, "duplicates is a sub-count of admitted");
}

#[test]
fn estimate_matches_window_average_where_fully_observed() {
    // Sanity: a fully observed window cell is reproduced closely by the
    // completion (the estimate is a low-rank fit, not interpolation, so
    // allow fit error).
    let mut service = ShardedService::new(serve_cfg(4, 1)).unwrap();
    for slot in 0..4u64 {
        for seg in 0..SEGMENTS {
            service.push(Observation {
                vehicle: seg as u64,
                timestamp_s: slot * SLOT_LEN,
                segment: seg,
                speed_kmh: 40.0,
            });
        }
    }
    service.tick();
    let live = service.latest().unwrap();
    for v in live.estimate.as_slice() {
        // λ-regularized least squares shrinks slightly below the data.
        assert!((v - 40.0).abs() < 0.05, "constant traffic must complete to itself: {v}");
    }
    assert_eq!(live.latest_row().len(), SEGMENTS);
}

#[test]
fn incremental_path_is_used_and_thread_invariant() {
    // The O(delta) dirty-set path must actually engage on small-chunk
    // replays, interleave with periodic full correction sweeps, and —
    // like every other solve path — produce bit-identical estimates at
    // any thread count (the delta pass is sequential by construction,
    // but the correction sweeps it feeds from are threaded).
    let observations = synth_observations(24);
    let mut baseline: Option<Vec<u64>> = None;
    for threads in [1usize, 2, 8] {
        let cfg =
            ServeConfig { window_slots: 12, incremental_threshold: 0.9, ..serve_cfg(12, threads) };
        let service = replay(cfg, &observations, 3);
        let st = service.solve_stats();
        assert!(st.incremental_solves > 0, "threads={threads}: delta path never engaged {st:?}");
        assert!(st.full_solves > 1, "threads={threads}: correction sweeps must recur {st:?}");
        assert!(st.rows_resolved > 0);
        let live = service.latest().expect("replay produced an estimate");
        let bits: Vec<u64> = live.estimate.as_slice().iter().map(|v| v.to_bits()).collect();
        match &baseline {
            None => baseline = Some(bits),
            Some(b) => assert_eq!(b, &bits, "threads={threads}: estimate diverged"),
        }
    }
}

#[test]
fn duplicate_content_hits_the_solve_cache() {
    // Exact re-delivery of every report lands the window's accumulator
    // bits back where the last solve saw them (single report per cell,
    // so the retract+observe arithmetic is exact), and the dirty tick is
    // answered from the solve cache without touching the solver.
    let mut service = ShardedService::new(serve_cfg(4, 1)).unwrap();
    let reports: Vec<Observation> = (0..8u64)
        .map(|k| Observation {
            vehicle: k,
            timestamp_s: (k % 4) * SLOT_LEN + 9,
            segment: (k as usize) % SEGMENTS,
            speed_kmh: 30.0 + k as f64,
        })
        .collect();
    for &o in &reports {
        assert!(service.push(o));
    }
    let first = service.tick();
    assert!(first.solved);
    assert_eq!(service.solve_stats().cache_hits, 0);
    let est1: Vec<u64> =
        service.latest().unwrap().estimate.as_slice().iter().map(|v| v.to_bits()).collect();
    for &o in &reports {
        assert!(service.push(o));
    }
    let second = service.tick();
    assert!(second.solved && !second.degraded);
    assert_eq!(second.duplicates, reports.len());
    assert_eq!(service.solve_stats().cache_hits, 1, "{:?}", service.solve_stats());
    assert_eq!(service.stats().solves, 2, "a cache hit still counts as a serviced solve");
    let est2: Vec<u64> =
        service.latest().unwrap().estimate.as_slice().iter().map(|v| v.to_bits()).collect();
    assert_eq!(est1, est2, "cache hit must return the identical estimate");
    // refresh() on untouched content is also a hit; a fresh report is
    // a miss again.
    service.refresh();
    assert_eq!(service.solve_stats().cache_hits, 2);
    service.push(Observation {
        vehicle: 99,
        timestamp_s: 3 * SLOT_LEN,
        segment: 0,
        speed_kmh: 55.0,
    });
    service.tick();
    assert_eq!(service.solve_stats().cache_hits, 2);
    assert!(service.solve_stats().cache_misses >= 2);
}

#[test]
fn solve_modes_agree_after_cold_restart_correction() {
    // A full-sweep-only service and an incremental one replaying the
    // same stream must hold bit-identical window content throughout
    // (same window_key), and converge to bit-identical estimates after
    // the cold_restart + refresh correction — the invariant the chaos
    // differential harness checks across modes.
    let observations = synth_observations(20);
    let full_only = ServeConfig { full_sweep_every: 1, ..serve_cfg(8, 1) };
    let incremental = ServeConfig { incremental_threshold: 0.9, ..serve_cfg(8, 1) };
    let mut a = replay(full_only, &observations, 2);
    let mut b = replay(incremental, &observations, 2);
    assert_eq!(a.solve_stats().incremental_solves, 0, "full_sweep_every=1 disables the delta path");
    assert!(b.solve_stats().incremental_solves > 0, "{:?}", b.solve_stats());
    assert_eq!(a.window_key(), b.window_key(), "window content must not depend on solve mode");
    let (wa, wb) = (a.window_snapshot(), b.window_snapshot());
    assert_eq!(wa.values().as_slice(), wb.values().as_slice());
    assert_eq!(
        wa.indicator().as_slice(),
        wb.indicator().as_slice(),
        "window cells must not depend on solve mode"
    );
    a.cold_restart().unwrap();
    b.cold_restart().unwrap();
    let ra = a.refresh();
    let rb = b.refresh();
    assert!(ra.solved && rb.solved);
    assert_eq!(
        a.latest().unwrap().estimate.as_slice(),
        b.latest().unwrap().estimate.as_slice(),
        "post-correction estimates must agree bit for bit"
    );
}

#[test]
fn incremental_config_is_validated() {
    assert!(ServeConfig::builder().full_sweep_every(0).build().is_err());
    assert!(ServeConfig::builder().incremental_threshold(-0.1).build().is_err());
    assert!(ServeConfig::builder().incremental_threshold(f64::NAN).build().is_err());
    assert!(ServeConfig::builder().full_sweep_every(1).incremental_threshold(0.0).build().is_ok());
}
