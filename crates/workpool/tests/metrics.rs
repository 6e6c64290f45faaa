//! Fan-out metrics come from handles cached across fan-outs; they must
//! still land in the live registry as the worker count grows and after
//! the registry is cleared.
//!
//! Telemetry state is process-global, so this file holds exactly one
//! test — adding a second `#[test]` here would race it.

use workpool::parallel_map_indexed;

fn claimed(w: usize) -> u64 {
    telemetry::counter(&format!("workpool.worker.{w}.items_claimed")).get()
}

#[test]
fn fanout_metrics_track_worker_growth_and_registry_resets() {
    telemetry::reset_for_tests();
    telemetry::set_metrics_enabled(true);

    for workers in [2usize, 4, 2] {
        parallel_map_indexed(64, workers, |i| i);
    }
    assert_eq!(telemetry::counter("workpool.fanouts").get(), 3);
    assert_eq!(telemetry::counter("workpool.items").get(), 3 * 64);
    assert_eq!(telemetry::histogram("workpool.fanout_us").count(), 3);
    let per_worker: u64 = (0..4).map(claimed).sum();
    assert_eq!(per_worker, 3 * 64, "every claimed item lands on a worker counter");

    // A cleared registry gets fresh counters; the cached handles must
    // follow it instead of bumping the orphaned ones.
    telemetry::reset_for_tests();
    telemetry::set_metrics_enabled(true);
    parallel_map_indexed(64, 3, |i| i);
    assert_eq!(telemetry::counter("workpool.fanouts").get(), 1);
    assert_eq!((0..3).map(claimed).sum::<u64>(), 64);

    telemetry::reset_for_tests();
}
