//! With metrics on, the `serve.*` registry counters must equal the
//! engine's own [`ServeStats`] after every tick, on a 1-shard and a
//! 2-shard engine. Admission only counts into service-local state and
//! adds the tick's deltas to the registry once per tick, so this pins
//! that flush: a report class the flush forgets, or counts twice, shows
//! up as a mismatch in the tick it happened. The engine's cached
//! handles must also follow the registry when it is cleared.
//!
//! Telemetry state is process-global, so this file holds exactly one
//! test — adding a second `#[test]` here would race it.

use traffic_cs::cs::CsConfig;
use traffic_cs::service::{Backpressure, Observation, ServeConfig, ServeStats};
use traffic_cs::sharded::{ShardPlan, ShardedService};

const SLOT_LEN: u64 = 60;
const COUNTERS: [&str; 6] =
    ["admitted", "rejected", "dropped_late", "duplicates", "queue_dropped", "solves"];

fn registry() -> [u64; 6] {
    COUNTERS.map(|name| telemetry::counter(&format!("serve.{name}")).get())
}

fn as_array(s: ServeStats) -> [u64; 6] {
    [s.admitted, s.rejected, s.dropped_late, s.duplicates, s.queue_dropped, s.solves]
}

/// One round's batch: regular reports, then (last, so they survive
/// `DropOldest`) a report and its re-delivery, the three malformed
/// kinds and a report for a slot that left the window.
fn batch(round: u64) -> Vec<Observation> {
    let ts = round * SLOT_LEN + 5;
    let obs = |vehicle, timestamp_s, segment, speed_kmh| Observation {
        vehicle,
        timestamp_s,
        segment,
        speed_kmh,
    };
    let mut out: Vec<Observation> =
        (0..12).map(|v| obs(round * 100 + v, ts, (v % 8) as usize, 30.0 + v as f64)).collect();
    out.extend([
        obs(7, ts, 0, 40.0),
        obs(7, ts, 0, 41.0),
        obs(8, ts, 1, f64::NAN),
        obs(9, ts, 2, -5.0),
        obs(10, ts, 99, 30.0),
        obs(11, 0, 3, 20.0),
    ]);
    out
}

#[test]
fn registry_counters_match_serve_stats_after_every_tick() {
    telemetry::reset_for_tests();
    telemetry::set_metrics_enabled(true);

    for shards in [1, 2] {
        let cfg = ServeConfig::builder()
            .slot_len_s(SLOT_LEN)
            .window_slots(4)
            .num_segments(8)
            .queue_capacity(8)
            .backpressure(Backpressure::DropOldest)
            .shards(ShardPlan::with_count(shards))
            .cs(CsConfig { rank: 2, lambda: 0.1, ..CsConfig::default() })
            .build()
            .unwrap();
        let mut engine = ShardedService::new(cfg).unwrap();
        let base = registry();
        for round in 0..12 {
            for o in batch(round) {
                engine.push(o);
            }
            engine.tick();
            let now = registry();
            let delta: [u64; 6] = std::array::from_fn(|i| now[i] - base[i]);
            assert_eq!(
                delta,
                as_array(engine.stats()),
                "shards={shards} round={round}: registry deltas {COUNTERS:?} differ from ServeStats"
            );
        }
        // A cleared registry gets fresh counters; the engine's cached
        // handles must follow it instead of bumping the orphaned ones.
        telemetry::reset_for_tests();
        telemetry::set_metrics_enabled(true);
        let before = as_array(engine.stats());
        for o in batch(12) {
            engine.push(o);
        }
        engine.tick();
        let after = as_array(engine.stats());
        let delta: [u64; 6] = std::array::from_fn(|i| after[i] - before[i]);
        assert_eq!(registry(), delta, "shards={shards}: counters lost after a registry reset");

        let s = engine.stats();
        assert!(
            s.admitted > 0
                && s.rejected > 0
                && s.dropped_late > 0
                && s.duplicates > 0
                && s.queue_dropped > 0
                && s.solves > 0,
            "shards={shards}: the batch must exercise every counter: {s:?}"
        );
    }

    telemetry::reset_for_tests();
}
