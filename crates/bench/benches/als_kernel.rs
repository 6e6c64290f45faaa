//! Head-to-head bench of the allocation-free Gram-kernel ALS sweep
//! against the pre-refactor allocating path, plus the machine-readable
//! `results/BENCH_als.json` artifact CI archives as the perf trajectory.
//!
//! The baseline reimplements the old inner loop faithfully: nested-`Vec`
//! observation index, a `Matrix::from_fn` design matrix and RHS
//! materialized per unit per sweep, `solve_normal_equations` (which
//! itself allocates the Gram product, Cholesky factor, and solution),
//! and `L·Rᵀ` through an explicit transpose. The kernel path is the
//! shipping `complete_matrix`. Both run the same sweep count at the same
//! thread count, so the ratio is pure per-sweep arithmetic + allocator
//! traffic.
//!
//! A counting global allocator measures allocation totals for the JSON
//! report; the ≥2× per-sweep speedup target of DESIGN.md is checked on
//! the full 512×1024 rank-8 configuration (`CS_BENCH_QUICK` shrinks the
//! matrix for CI smoke runs, where the ratio is still reported but small
//! problems are noisier).
//!
//! On top of the baseline-vs-kernel pair, every [`KernelVariant`] that
//! supports the bench rank is timed through `set_kernel_override` —
//! scalar reference, runtime-rank unrolled, and the monomorphized
//! fixed-rank kernel — and the per-variant numbers land in a `kernels`
//! section of the JSON (schema `cs-traffic-bench-als/v2`) plus one
//! appended line in the tracked `results/BENCH_als_trajectory.jsonl`.
//! With `CS_BENCH_ENFORCE` set the process exits 70 when the fixed-rank
//! kernel is slower than the scalar reference, so CI catches a
//! specialization regression as a red leg instead of a silent number.

use criterion::{black_box, Criterion};
use linalg::kernel::{set_kernel_override, KernelVariant};
use linalg::lstsq::solve_normal_equations;
use linalg::Matrix;
use probes::mask::random_mask;
use probes::Tcm;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use telemetry::json::Json;
use traffic_cs::cs::{complete_matrix, CsConfig};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The pre-refactor ALS loop: per-unit `from_fn` design + allocating
/// normal-equations solve over a nested-`Vec` index.
fn baseline_als(tcm: &Tcm, cfg: &CsConfig) -> Matrix {
    let (m, n) = tcm.values().shape();
    let r = cfg.rank;
    let mut col_obs: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    let mut row_obs: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
    for (i, j, v) in tcm.observed_entries() {
        col_obs[j].push((i, v));
        row_obs[i].push((j, v));
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    let mut l = Matrix::random_uniform(m, r, &mut rng, 0.0, 1.0);
    let mut rmat = Matrix::zeros(n, r);
    let solve = |design: &Matrix, obs: &[Vec<(usize, f64)>], out: &mut Matrix| {
        let mut rows: Vec<&mut [f64]> = out.as_mut_slice().chunks_mut(r).collect();
        let res: Result<(), ()> =
            workpool::try_parallel_for_each_mut(&mut rows, cfg.num_threads, |unit, row| {
                let entries = &obs[unit];
                if entries.is_empty() {
                    row.fill(0.0);
                    return Ok(());
                }
                let a = Matrix::from_fn(entries.len(), r, |i, k| design.get(entries[i].0, k));
                let b = Matrix::from_fn(entries.len(), 1, |i, _| entries[i].1);
                let sol = solve_normal_equations(&a, &b, cfg.lambda).expect("baseline solve");
                for (k, slot) in row.iter_mut().enumerate() {
                    *slot = sol.get(k, 0);
                }
                Ok(())
            });
        res.expect("baseline sweeps are infallible here");
    };
    let mut best: Option<(f64, Matrix, Matrix)> = None;
    for _ in 0..cfg.iterations {
        let design = l.clone();
        solve(&design, &col_obs, &mut rmat);
        let design = rmat.clone();
        solve(&design, &row_obs, &mut l);
        let fit: f64 = workpool::parallel_map_indexed(n, cfg.num_threads, |j| {
            let mut partial = 0.0;
            for &(i, v) in &col_obs[j] {
                let mut pred = 0.0;
                for k in 0..r {
                    pred += l.get(i, k) * rmat.get(j, k);
                }
                partial += (pred - v) * (pred - v);
            }
            partial
        })
        .into_iter()
        .sum();
        let v = fit + cfg.lambda * (l.frobenius_norm_sq() + rmat.frobenius_norm_sq());
        if best.as_ref().is_none_or(|(bv, _, _)| v < *bv) {
            best = Some((v, l.clone(), rmat.clone()));
        }
    }
    let (_, bl, br) = best.expect("at least one sweep");
    bl.matmul(&br.transpose()).expect("factor shapes agree")
}

/// The 512×1024 rank-8 problem at 20% integrity (80% missing — the
/// paper's headline regime); `CS_BENCH_QUICK` shrinks it for CI.
fn bench_problem() -> (Tcm, CsConfig, bool) {
    let quick = std::env::var_os("CS_BENCH_QUICK").is_some();
    let (slots, segments) = if quick { (64, 128) } else { (512, 1024) };
    let truth = Matrix::from_fn(slots, segments, |t, s| {
        let mut v = 30.0;
        for k in 0..8usize {
            let f = (2.0 * std::f64::consts::PI * (k + 1) as f64 * t as f64 / slots as f64).sin();
            let w = (((s + 1) * (k + 3) * 2654435761) % 1000) as f64 / 1000.0;
            v += 4.0 * f * w;
        }
        v
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mask = random_mask(slots, segments, 0.2, &mut rng);
    let tcm = Tcm::complete(truth).masked(&mask).expect("mask shape matches");
    let cfg = CsConfig {
        rank: 8,
        lambda: 0.5,
        iterations: if quick { 6 } else { 20 },
        tol: 0.0,
        num_threads: 1,
        ..CsConfig::default()
    };
    (tcm, cfg, quick)
}

/// One measured run: wall time and allocation count.
fn measure(f: impl FnOnce() -> Matrix) -> (f64, usize) {
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let start = Instant::now();
    black_box(f());
    let secs = start.elapsed().as_secs_f64();
    (secs, ALLOCATIONS.load(Ordering::Relaxed) - allocs_before)
}

fn bench_als_kernel(c: &mut Criterion) {
    let (tcm, cfg, _) = bench_problem();
    let mut group = c.benchmark_group("als_kernel");
    group.sample_size(10);
    group.bench_function("baseline_alloc_1_thread", |b| {
        b.iter(|| black_box(baseline_als(&tcm, &cfg)))
    });
    group.bench_function("gram_kernel_1_thread", |b| {
        b.iter(|| black_box(complete_matrix(&tcm, &cfg).unwrap()))
    });
    let all_cores = CsConfig { num_threads: 0, ..cfg.clone() };
    group.bench_function("gram_kernel_all_cores", |b| {
        b.iter(|| black_box(complete_matrix(&tcm, &all_cores).unwrap()))
    });
    for variant in KernelVariant::supported(cfg.rank) {
        set_kernel_override(Some(variant));
        group.bench_function(format!("gram_kernel_{}_1_thread", variant.name()), |b| {
            b.iter(|| black_box(complete_matrix(&tcm, &cfg).unwrap()))
        });
        set_kernel_override(None);
    }
    group.finish();
}

/// Times `complete_matrix` with the kernel pinned to `variant`,
/// restoring auto dispatch afterwards.
fn measure_variant(tcm: &Tcm, cfg: &CsConfig, variant: KernelVariant) -> (f64, usize) {
    set_kernel_override(Some(variant));
    let out = measure(|| complete_matrix(tcm, cfg).unwrap());
    set_kernel_override(None);
    out
}

/// JSON object for one measured run.
fn run_json(secs: f64, allocs: usize, sweeps: usize) -> Json {
    Json::Obj(vec![
        ("total_ms".into(), Json::Num(secs * 1e3)),
        ("per_sweep_ms".into(), Json::Num(secs * 1e3 / sweeps as f64)),
        ("allocations".into(), Json::Num(allocs as f64)),
        ("allocations_per_sweep".into(), Json::Num(allocs as f64 / sweeps as f64)),
    ])
}

/// Appends one line to the tracked per-variant trajectory
/// (`results/BENCH_als_trajectory.jsonl`, schema
/// `cs-traffic-als-trajectory/v1`), mirroring the serve-load
/// trajectory's role: `BENCH_als.json` is overwritten in place, the
/// jsonl keeps the per-sweep history across commits.
fn append_als_trajectory(
    dir: &std::path::Path,
    quick: bool,
    rank: usize,
    sweeps: usize,
    kernels: &[(KernelVariant, f64, usize)],
    baseline_secs: f64,
) -> std::io::Result<()> {
    let recorded_unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut fields = vec![
        ("schema".into(), Json::Str("cs-traffic-als-trajectory/v1".into())),
        ("recorded_unix_s".into(), Json::Num(recorded_unix_s as f64)),
        ("git_rev".into(), Json::Str(cs_bench::report::git_rev())),
        ("quick".into(), Json::Bool(quick)),
        ("rank".into(), Json::Num(rank as f64)),
        ("threads".into(), Json::Num(1.0)),
        ("sweeps".into(), Json::Num(sweeps as f64)),
        ("baseline_per_sweep_ms".into(), Json::Num(baseline_secs * 1e3 / sweeps as f64)),
    ];
    for (variant, secs, _) in kernels {
        fields.push((
            format!("{}_per_sweep_ms", variant.name()),
            Json::Num(secs * 1e3 / sweeps as f64),
        ));
    }
    std::fs::create_dir_all(dir)?;
    let path = dir.join("BENCH_als_trajectory.jsonl");
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(f, "{}", Json::Obj(fields).encode())
}

/// Writes `results/BENCH_als.json` (schema `cs-traffic-bench-als/v2`):
/// per-sweep wall time and allocation totals for the allocating
/// baseline, the shipping auto-dispatched kernel, and every kernel
/// variant that supports the bench rank, plus the resulting speedups.
/// One deliberate single-shot run per path (criterion's statistics live
/// in `target/criterion/als_kernel/`); the allocation counter doubles
/// as the peak-RSS proxy — the baseline's churn is the resident-set
/// pressure the kernel path removes.
///
/// Returns `false` when `CS_BENCH_ENFORCE` is set and the fixed-rank
/// kernel came out slower than the scalar reference.
fn write_bench_json() -> bool {
    let (tcm, cfg, quick) = bench_problem();
    let (m, n) = tcm.values().shape();
    let sweeps = cfg.iterations;

    // Warm-up: prime lazy globals and the page cache out of band.
    let _ = complete_matrix(&tcm, &cfg).unwrap();
    let (base_secs, base_allocs) = measure(|| baseline_als(&tcm, &cfg));
    let (kern_secs, kern_allocs) = measure(|| complete_matrix(&tcm, &cfg).unwrap());
    let speedup = base_secs / kern_secs;

    // Per-variant runs, the scalar reference first.
    let kernels: Vec<(KernelVariant, f64, usize)> = KernelVariant::supported(cfg.rank)
        .map(|v| {
            let (secs, allocs) = measure_variant(&tcm, &cfg, v);
            (v, secs, allocs)
        })
        .collect();
    let per_sweep = |secs: f64| secs * 1e3 / sweeps as f64;
    let scalar_secs = kernels
        .iter()
        .find(|(v, _, _)| *v == KernelVariant::Scalar)
        .map(|(_, s, _)| *s)
        .expect("scalar row is always measured");
    let fixed = kernels.iter().find(|(v, _, _)| {
        matches!(v, KernelVariant::Fixed4 | KernelVariant::Fixed8 | KernelVariant::Fixed16)
    });

    let mut fields = vec![
        ("schema".into(), Json::Str("cs-traffic-bench-als/v2".into())),
        ("bench".into(), Json::Str("als_kernel".into())),
        ("quick".into(), Json::Bool(quick)),
        ("slots".into(), Json::Num(m as f64)),
        ("segments".into(), Json::Num(n as f64)),
        ("rank".into(), Json::Num(cfg.rank as f64)),
        ("integrity".into(), Json::Num(0.2)),
        ("observed".into(), Json::Num(tcm.observed_count() as f64)),
        ("sweeps".into(), Json::Num(sweeps as f64)),
        ("threads".into(), Json::Num(1.0)),
        ("baseline".into(), run_json(base_secs, base_allocs, sweeps)),
        ("gram_kernel".into(), run_json(kern_secs, kern_allocs, sweeps)),
        (
            "kernels".into(),
            Json::Obj(
                kernels
                    .iter()
                    .map(|(v, secs, allocs)| (v.name().into(), run_json(*secs, *allocs, sweeps)))
                    .collect(),
            ),
        ),
        ("per_sweep_speedup".into(), Json::Num(speedup)),
    ];
    if let Some((fv, fsecs, _)) = fixed {
        fields.push(("fixed_variant".into(), Json::Str(fv.name().into())));
        fields.push(("fixed_vs_scalar_speedup".into(), Json::Num(scalar_secs / fsecs)));
    }
    let json = Json::Obj(fields).encode() + "\n";

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let write = || -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(&dir)?;
        let path = dir.join("BENCH_als.json");
        std::fs::File::create(&path)?.write_all(json.as_bytes())?;
        append_als_trajectory(&dir, quick, cfg.rank, sweeps, &kernels, base_secs)?;
        Ok(path)
    };
    match write() {
        Ok(path) => {
            println!(
                "\nals_kernel: {:.3} ms/sweep baseline vs {:.3} ms/sweep kernel \
                 ({speedup:.2}x, {base_allocs} vs {kern_allocs} allocations) -> {}",
                per_sweep(base_secs),
                per_sweep(kern_secs),
                path.display(),
            );
            for (v, secs, allocs) in &kernels {
                println!(
                    "als_kernel: {:>8} {:.3} ms/sweep ({allocs} allocations)",
                    v.name(),
                    per_sweep(*secs),
                );
            }
        }
        Err(e) => eprintln!("warning: could not write BENCH_als.json: {e}"),
    }

    // The perf gate: a fixed-rank kernel slower than the scalar
    // reference means the specialization regressed. Opt-in via
    // CS_BENCH_ENFORCE so local exploratory runs never exit non-zero.
    if std::env::var_os("CS_BENCH_ENFORCE").is_some() {
        if let Some((fv, fsecs, _)) = fixed {
            if *fsecs > scalar_secs {
                eprintln!(
                    "als_kernel: ENFORCE failure — {} {:.3} ms/sweep is slower than \
                     scalar {:.3} ms/sweep",
                    fv.name(),
                    per_sweep(*fsecs),
                    per_sweep(scalar_secs),
                );
                return false;
            }
        }
    }
    true
}

fn main() {
    let mut criterion = Criterion::default();
    bench_als_kernel(&mut criterion);
    criterion.final_summary();
    if !write_bench_json() {
        std::process::exit(70);
    }
}
