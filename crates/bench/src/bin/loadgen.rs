//! `loadgen` — closed-loop load generator for the streaming service.
//!
//! Drives a deterministic synthetic probe stream through the real
//! `traffic_cs::sharded::ShardedService`, binary-searches the maximum
//! sustainable throughput under the `results/SLO.toml` budget, and
//! writes `results/BENCH_serve.json` (schema
//! `cs-traffic-bench-serve/v3`) plus one summary line appended to
//! `results/BENCH_trajectory.jsonl` (schema
//! `cs-traffic-bench-trajectory/v1`), the tracked throughput history.
//!
//! ```text
//! loadgen [--profile quick|full|scale] [--seed N] [--rate R] [--threads N]
//!         [--max-legs N] [--transport in-process|socket] [--shards S]
//!         [--out PATH] [--slo PATH] [--trajectory PATH]
//!         [--flight-dump PATH]
//! ```
//!
//! * `--profile` — geometry preset (default `full`; CI passes `quick`,
//!   also selected by `CS_BENCH_QUICK=1`). `scale` runs the quick
//!   search and then the latency-vs-grid-size sweep
//!   (1,024 → 16,384 → 102,400 segments) at a fixed offered rate,
//!   recorded into the artifact's `scale` array.
//! * `--rate` — skip the search and run a single leg at this offered
//!   rate (reports per simulated second).
//! * `--transport socket` — after the in-process search, replay the
//!   best leg's offered stream through a live daemon over a loopback
//!   socket (`--shards` shard workers) and record the client-observed
//!   end-to-end quantiles into the artifact's `socket` section. The
//!   in-process leg stays the baseline the SLO gate reads.
//! * `--slo` — budget file (default `results/SLO.toml`); the budget
//!   defines "sustainable" for the search. The regression *gate* is a
//!   separate program (`slo-gate`), so measuring never fails CI — only
//!   comparing does.
//! * `--trajectory` — append-per-run history file (default
//!   `results/BENCH_trajectory.jsonl`; `none` disables).
//! * `--flight-dump` — install a 512-record flight recorder and dump
//!   it to this path when a solve degrades mid-leg (or the process
//!   panics), so a failed CI serve-load run leaves a
//!   `cs-traffic-flight/v1` artifact behind.
//!
//! Exit codes: 0 success, 2 usage, 70 socket-leg stream-hash
//! divergence (a determinism violation), 74 I/O.

use cs_bench::loadgen::{self, LoadConfig, SloBudget};
use cs_bench::slo;
use std::path::PathBuf;

fn fail_usage(msg: &str) -> ! {
    eprintln!("loadgen: {msg}");
    eprintln!(
        "usage: loadgen [--profile quick|full|scale] [--seed N] [--rate R] [--threads N] \
         [--max-legs N] [--transport in-process|socket] [--shards S] [--out PATH] [--slo PATH] \
         [--trajectory PATH] [--flight-dump PATH]"
    );
    std::process::exit(2);
}

struct Args {
    profile: String,
    seed: u64,
    rate: Option<f64>,
    threads: usize,
    max_legs: usize,
    transport: String,
    shards: usize,
    out: PathBuf,
    slo: PathBuf,
    trajectory: Option<PathBuf>,
    flight_dump: Option<PathBuf>,
}

fn parse_args() -> Args {
    let quick_env = std::env::var("CS_BENCH_QUICK").map(|v| v == "1").unwrap_or(false);
    let mut args = Args {
        profile: if quick_env { "quick".into() } else { "full".into() },
        seed: 42,
        rate: None,
        threads: 0,
        max_legs: 12,
        transport: "in-process".into(),
        shards: 2,
        out: PathBuf::from("results/BENCH_serve.json"),
        slo: PathBuf::from("results/SLO.toml"),
        trajectory: Some(PathBuf::from("results/BENCH_trajectory.jsonl")),
        flight_dump: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| fail_usage(&format!("{name} requires a value")))
        };
        match flag.as_str() {
            "--profile" => args.profile = val("--profile"),
            "--seed" => {
                args.seed = val("--seed").parse().unwrap_or_else(|_| fail_usage("bad --seed"))
            }
            "--rate" => {
                args.rate = Some(val("--rate").parse().unwrap_or_else(|_| fail_usage("bad --rate")))
            }
            "--threads" => {
                args.threads =
                    val("--threads").parse().unwrap_or_else(|_| fail_usage("bad --threads"))
            }
            "--max-legs" => {
                args.max_legs =
                    val("--max-legs").parse().unwrap_or_else(|_| fail_usage("bad --max-legs"))
            }
            "--transport" => args.transport = val("--transport"),
            "--shards" => {
                args.shards = val("--shards").parse().unwrap_or_else(|_| fail_usage("bad --shards"))
            }
            "--out" => args.out = PathBuf::from(val("--out")),
            "--slo" => args.slo = PathBuf::from(val("--slo")),
            "--trajectory" => {
                let v = val("--trajectory");
                args.trajectory = if v == "none" { None } else { Some(PathBuf::from(v)) };
            }
            "--flight-dump" => args.flight_dump = Some(PathBuf::from(val("--flight-dump"))),
            "--help" | "-h" => fail_usage("help"),
            other => fail_usage(&format!("unknown flag '{other}'")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    // `scale` searches on the quick geometry, then sweeps the grids.
    let mut cfg = match args.profile.as_str() {
        "quick" | "scale" => LoadConfig::quick(args.seed),
        "full" => LoadConfig::full(args.seed),
        other => fail_usage(&format!("unknown profile '{other}' (quick|full|scale)")),
    };
    cfg.num_threads = args.threads;
    cfg.flight_dump = args.flight_dump.clone();
    let quick = args.profile != "full";

    if let Some(path) = &args.flight_dump {
        // Ride the telemetry dispatch layer: raise the level so the
        // ring sees records, and flush it on panic too.
        telemetry::set_level(telemetry::Level::Trace);
        let recorder = telemetry::flight::install(512);
        recorder.set_dump_path(path.clone());
        recorder.set_meta("command", "loadgen");
        telemetry::install_panic_flush_hook();
    }

    let budget = match slo::load_slo(&args.slo) {
        Ok(s) => s.budget,
        Err(e) => {
            eprintln!("loadgen: {e}; falling back to built-in budget");
            SloBudget::default()
        }
    };

    let start_rate = args.rate.unwrap_or(if quick { 200.0 } else { 2_000.0 });
    let search = match args.rate {
        // Single-leg mode: measure exactly this rate, no search.
        Some(rate) => loadgen::search_max_rate(&cfg, &budget, rate, 1),
        None => loadgen::search_max_rate(&cfg, &budget, start_rate, args.max_legs),
    };
    let search = match search {
        Ok(s) => s,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(2);
        }
    };

    for leg in &search.legs {
        eprintln!(
            "  leg rate={:8.1}/s  tick_p99={:8.0}us  drop={:.4}  {}",
            leg.rate,
            leg.tick_p99_us,
            leg.drop_rate,
            if leg.passed { "pass" } else { "FAIL" }
        );
    }
    eprintln!(
        "loadgen: max sustainable {:.1} reports/s (best leg: offered {:.1}/s, achieved {:.1}/s, \
         tick p50/p99/p999 = {:.0}/{:.0}/{:.0} us, stream {:016x})",
        search.max_sustainable_rate,
        search.best.offered_rate,
        search.best.achieved_rate,
        search.best.tick_us.p50,
        search.best.tick_us.p99,
        search.best.tick_us.p999,
        search.best.stream_hash,
    );

    // The scale sweep runs at half the measured ceiling (floored at
    // 500/s) so every grid width sees the same comfortably-sustainable
    // offered stream and the curve isolates grid size.
    let scale = if args.profile == "scale" {
        let rate = (search.max_sustainable_rate / 2.0).max(500.0);
        match loadgen::run_scale_sweep(args.seed, args.threads, rate) {
            Ok(points) => {
                for p in &points {
                    eprintln!(
                        "  scale segments={:7}  tick p50/p99={:8.0}/{:8.0} us  solve \
                         p99={:8.0} us  incremental/full={}/{}",
                        p.segments,
                        p.leg.tick_us.p50,
                        p.leg.tick_us.p99,
                        p.leg.solve_us.p99,
                        p.leg.solve_stats.incremental_solves,
                        p.leg.solve_stats.full_solves,
                    );
                }
                points
            }
            Err(e) => {
                eprintln!("loadgen: scale sweep failed: {e}");
                std::process::exit(2);
            }
        }
    } else {
        Vec::new()
    };

    // The socket leg replays the best leg's offered rate through a live
    // daemon; the in-process search above remains the SLO baseline.
    let socket = match args.transport.as_str() {
        "in-process" => None,
        "socket" => {
            let rate = search.best.offered_rate;
            match loadgen::run_leg_socket(&cfg, rate, args.shards) {
                Ok(leg) => {
                    eprintln!(
                        "loadgen: socket leg ({} shard{}): offered {:.1}/s, achieved {:.1}/s, \
                         e2e p50/p99/p999 = {:.0}/{:.0}/{:.0} us, stream {:016x}{}",
                        leg.shards,
                        if leg.shards == 1 { "" } else { "s" },
                        leg.offered_rate,
                        leg.achieved_rate,
                        leg.e2e_us.p50,
                        leg.e2e_us.p99,
                        leg.e2e_us.p999,
                        leg.stream_hash,
                        if leg.stream_hash == search.best.stream_hash {
                            ""
                        } else {
                            "  (HASH MISMATCH vs in-process leg)"
                        },
                    );
                    // The socket leg replays the exact offered stream of
                    // the in-process search; a diverging witness hash
                    // means the wire path reordered, dropped, or mutated
                    // a report — a determinism violation, not noise.
                    if leg.stream_hash != search.best.stream_hash {
                        std::process::exit(70);
                    }
                    Some(leg)
                }
                Err(e) => {
                    eprintln!("loadgen: socket leg failed: {e}");
                    std::process::exit(74);
                }
            }
        }
        other => fail_usage(&format!("unknown transport '{other}' (in-process|socket)")),
    };

    match loadgen::write_bench_serve_json(&args.out, &cfg, &search, &scale, socket.as_ref(), quick)
    {
        Ok(path) => eprintln!("loadgen: wrote {}", path.display()),
        Err(e) => {
            eprintln!("loadgen: cannot write {}: {e}", args.out.display());
            std::process::exit(74);
        }
    }
    if let Some(traj) = &args.trajectory {
        match loadgen::append_bench_trajectory(traj, &cfg, &search, quick) {
            Ok(path) => eprintln!("loadgen: appended {}", path.display()),
            Err(e) => {
                eprintln!("loadgen: cannot append {}: {e}", traj.display());
                std::process::exit(74);
            }
        }
    }
}
