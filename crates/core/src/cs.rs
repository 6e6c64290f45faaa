//! Algorithm 1: compressive-sensing matrix completion.
//!
//! Estimates the complete traffic condition matrix as a low-rank product
//! `X̂ = L Rᵀ` (`L ∈ R^{m×r}`, `R ∈ R^{n×r}`) minimizing the Lagrangian
//! objective of Eq. 16:
//!
//! ```text
//! min  ‖B .× (L Rᵀ) − M‖_F²  +  λ (‖L‖_F² + ‖R‖_F²)
//! ```
//!
//! by alternating least squares: fix `L`, solve for `R`; fix `R`, solve
//! for `L`; repeat `t` times keeping the best iterate (exactly the loop
//! of the paper's Figure 9 pseudo-code, including the random
//! initialization of `L`).
//!
//! One deliberate refinement over the printed pseudo-code: the paper's
//! `inverse([L; √λ I], [M; 0])` notation solves all columns against the
//! full `M`, implicitly treating missing entries as observations of zero.
//! We restrict each least-squares subproblem to the *observed* entries of
//! its column/row, which is the objective (16) actually being minimized
//! (and what the SRMF reference \[37\] implements). With dense masks the
//! two coincide; with the paper's 80%-missing matrices the masked solve
//! is what makes the reported accuracy reachable.

use crate::error::ConfigError;
use crate::obs::{AxisView, ObsIndex};
use linalg::lstsq::{solve_qr, GramScratch, RidgeSolver};
use linalg::Matrix;
use probes::Tcm;
use rand::SeedableRng;
use telemetry::Level;

/// How `L` is initialized before the alternating sweeps — the `als_init`
/// ablation of DESIGN.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Initialization {
    /// Uniform random entries in `[0, 1)` — the paper's choice.
    #[default]
    Random,
    /// Every column of `L` starts as the per-row observed means; breaks
    /// ties with tiny index-dependent perturbations so columns are not
    /// collinear.
    RowMeans,
}

/// Parameters of Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct CsConfig {
    /// Rank bound `r` — the number of columns of `L` and `R` (Eq. 18).
    /// Paper's GA finds `r = 2` optimal for the evaluation matrices.
    pub rank: usize,
    /// Tradeoff coefficient `λ` between measurement fit and rank
    /// minimization (Eq. 16). Paper's GA finds `λ = 100`.
    pub lambda: f64,
    /// Iteration count `t`; the paper reports `t = 100` suffices at
    /// hundreds × hundreds.
    pub iterations: usize,
    /// Inner ridge solver (normal equations, as in the paper's `inverse`
    /// procedure, or QR) — the `als_solver` ablation.
    pub solver: RidgeSolver,
    /// Initialization of `L`.
    pub init: Initialization,
    /// Relative objective-improvement threshold for early stopping;
    /// `0.0` runs all iterations like the paper's fixed-count loop.
    pub tol: f64,
    /// Seed for the random initialization.
    pub seed: u64,
    /// Worker threads for the per-row ridge solves and the objective
    /// evaluation. `0` defers to [`workpool::set_default_threads`] (and
    /// then to all available cores); `1` forces the sequential path. The
    /// estimate is bit-for-bit identical for every thread count: work
    /// items are independent per row and results land in fixed slots.
    pub num_threads: usize,
}

impl Default for CsConfig {
    fn default() -> Self {
        Self {
            rank: 2,
            lambda: 100.0,
            iterations: 100,
            solver: RidgeSolver::NormalEquations,
            init: Initialization::Random,
            tol: 1e-10,
            seed: 42,
            num_threads: 0,
        }
    }
}

impl CsConfig {
    /// Validated construction: invalid parameters surface as
    /// [`ConfigError`] at build time instead of [`CsError`] at solve
    /// time. Struct-literal construction with [`CsConfig::default`]
    /// keeps working for call sites that prefer it.
    ///
    /// ```
    /// use traffic_cs::cs::CsConfig;
    ///
    /// let cfg = CsConfig::builder().rank(8).lambda(0.1).build()?;
    /// assert_eq!((cfg.rank, cfg.lambda), (8, 0.1));
    /// assert!(CsConfig::builder().rank(0).build().is_err());
    /// assert!(CsConfig::builder().lambda(f64::NAN).build().is_err());
    /// # Ok::<(), traffic_cs::ConfigError>(())
    /// ```
    pub fn builder() -> CsConfigBuilder {
        CsConfigBuilder { cfg: CsConfig::default() }
    }

    /// The matrix-independent validity checks shared by the builder and
    /// the solver entry points (rank bounds against the actual matrix
    /// are only checkable at solve time).
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if self.rank == 0 {
            return Err(ConfigError::new("rank", "must be at least 1"));
        }
        if !self.lambda.is_finite() || self.lambda < 0.0 {
            return Err(ConfigError::new(
                "lambda",
                format!("{} must be finite and non-negative", self.lambda),
            ));
        }
        if self.iterations == 0 {
            return Err(ConfigError::new("iterations", "must be at least 1"));
        }
        if !self.tol.is_finite() || self.tol < 0.0 {
            return Err(ConfigError::new(
                "tol",
                format!("{} must be finite and non-negative", self.tol),
            ));
        }
        Ok(())
    }
}

/// Builder for [`CsConfig`]; see [`CsConfig::builder`].
#[derive(Debug, Clone)]
pub struct CsConfigBuilder {
    cfg: CsConfig,
}

impl CsConfigBuilder {
    /// Rank bound `r` (must be ≥ 1).
    pub fn rank(mut self, rank: usize) -> Self {
        self.cfg.rank = rank;
        self
    }

    /// Tradeoff coefficient `λ` (must be finite and non-negative).
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.cfg.lambda = lambda;
        self
    }

    /// Sweep budget `t` (must be ≥ 1).
    pub fn iterations(mut self, iterations: usize) -> Self {
        self.cfg.iterations = iterations;
        self
    }

    /// Inner ridge solver backend.
    pub fn solver(mut self, solver: RidgeSolver) -> Self {
        self.cfg.solver = solver;
        self
    }

    /// Initialization of `L`.
    pub fn init(mut self, init: Initialization) -> Self {
        self.cfg.init = init;
        self
    }

    /// Early-stop tolerance (must be finite and non-negative; `0.0`
    /// disables early stopping).
    pub fn tol(mut self, tol: f64) -> Self {
        self.cfg.tol = tol;
        self
    }

    /// Seed for the random initialization.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Worker threads (`0` = pool default, `1` = sequential).
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.cfg.num_threads = num_threads;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the first offending field.
    pub fn build(self) -> Result<CsConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Which half of the alternation a failing ridge solve belonged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveAxis {
    /// The `L` step: one solve per time-slot row of the matrix.
    Row,
    /// The `R` step: one solve per road-segment column.
    Column,
}

impl std::fmt::Display for SolveAxis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SolveAxis::Row => "row",
            SolveAxis::Column => "column",
        })
    }
}

/// Error from Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub enum CsError {
    /// `rank` is zero or exceeds `min(m, n)`.
    InvalidRank {
        /// Requested rank.
        rank: usize,
        /// `min(m, n)` of the input.
        max: usize,
    },
    /// `λ` is negative or non-finite.
    InvalidLambda(f64),
    /// `iterations` is zero.
    NoIterations,
    /// The matrix has no observed entries at all.
    NoObservations,
    /// An inner least-squares solve failed (only possible with `λ = 0`
    /// and rank-deficient observed sub-blocks). Carries which unit
    /// failed so the offending row/column is actionable without a
    /// re-run under a debugger.
    Solve {
        /// Row sweep (`L` step) or column sweep (`R` step).
        axis: SolveAxis,
        /// Index of the failing row/column within its axis.
        index: usize,
        /// The underlying solver failure.
        detail: String,
    },
    /// Every candidate evaluated by the genetic search failed.
    AllCandidatesFailed,
}

impl std::fmt::Display for CsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsError::InvalidRank { rank, max } => {
                write!(f, "rank bound {rank} must be in 1..={max}")
            }
            CsError::InvalidLambda(l) => write!(f, "lambda {l} must be finite and non-negative"),
            CsError::NoIterations => write!(f, "iteration count must be positive"),
            CsError::NoObservations => write!(f, "measurement matrix has no observed entries"),
            CsError::Solve { axis, index, detail } => {
                write!(f, "inner least-squares solve failed at {axis} {index}: {detail}")
            }
            CsError::AllCandidatesFailed => {
                write!(f, "every parameter combination failed to complete the matrix")
            }
        }
    }
}

impl std::error::Error for CsError {}

/// Full output of Algorithm 1, including the convergence trace used by
/// the `convergence` ablation experiment.
#[derive(Debug, Clone)]
pub struct CompletionResult {
    /// The estimate `X̂ = L̂ R̂ᵀ` from the best-objective iterate.
    pub estimate: Matrix,
    /// Best objective value `v̂` reached (Eq. 16).
    pub objective: f64,
    /// Objective after each completed sweep.
    pub objective_trace: Vec<f64>,
    /// Number of sweeps actually executed (≤ `iterations` when the
    /// early-stop tolerance fires).
    pub sweeps: usize,
    /// The best-iterate factors `(L̂, R̂)`; feed `R̂` to
    /// [`complete_matrix_warm`] to warm-start the next window.
    pub factors: (Matrix, Matrix),
}

/// Runs Algorithm 1 and returns the estimated complete matrix.
///
/// # Errors
///
/// See [`CsError`] for the validation and solver failure modes.
pub fn complete_matrix(tcm: &Tcm, config: &CsConfig) -> Result<Matrix, CsError> {
    complete_matrix_detailed(tcm, config).map(|r| r.estimate)
}

/// Runs Algorithm 1 warm-started from a previous segment-factor matrix
/// `R` (`n × rank`): the first sweep solves `L` against the given `R`
/// instead of starting from random noise. This is the workhorse of the
/// [`crate::online`] streaming extension — consecutive windows share
/// most of their columns, so the previous window's `R` is already close
/// to optimal and far fewer sweeps are needed.
///
/// # Errors
///
/// All of [`CsError`]'s cases, plus [`CsError::InvalidRank`] when
/// `initial_r`'s shape does not match `(n, rank)`.
pub fn complete_matrix_warm(
    tcm: &Tcm,
    config: &CsConfig,
    initial_r: &Matrix,
) -> Result<CompletionResult, CsError> {
    if initial_r.shape() != (tcm.num_segments(), config.rank) {
        return Err(CsError::InvalidRank {
            rank: config.rank,
            max: tcm.num_segments().min(tcm.num_slots()),
        });
    }
    run_als(tcm, config, Some(initial_r))
}

/// Runs Algorithm 1 and returns the estimate plus convergence
/// diagnostics.
///
/// # Errors
///
/// See [`CsError`].
pub fn complete_matrix_detailed(tcm: &Tcm, config: &CsConfig) -> Result<CompletionResult, CsError> {
    run_als(tcm, config, None)
}

fn run_als(
    tcm: &Tcm,
    config: &CsConfig,
    warm_r: Option<&Matrix>,
) -> Result<CompletionResult, CsError> {
    let (m, n) = tcm.values().shape();
    let max_rank = m.min(n);
    if config.rank == 0 || config.rank > max_rank {
        return Err(CsError::InvalidRank { rank: config.rank, max: max_rank });
    }
    if !config.lambda.is_finite() || config.lambda < 0.0 {
        return Err(CsError::InvalidLambda(config.lambda));
    }
    if config.iterations == 0 {
        return Err(CsError::NoIterations);
    }
    if tcm.observed_count() == 0 {
        return Err(CsError::NoObservations);
    }
    let r = config.rank;

    // Index the observations once: contiguous CSR (per row) and CSC
    // (per column) arrays, iterated by every sweep. The totals the
    // thread gates need fall out of the build, so the per-sweep
    // re-summation of observation lengths is gone.
    let obs = ObsIndex::from_tcm(tcm);
    let plan = ThreadPlan::new(&obs, r, config);

    // Initialize L (m × r).
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let mut l = match config.init {
        Initialization::Random => Matrix::random_uniform(m, r, &mut rng, 0.0, 1.0),
        Initialization::RowMeans => Matrix::from_fn(m, r, |i, k| {
            let (_, vals) = obs.row(i);
            let mean =
                if vals.is_empty() { 0.0 } else { vals.iter().sum::<f64>() / vals.len() as f64 };
            // Tiny deterministic perturbation keeps columns independent.
            mean / (k + 1) as f64 + 1e-3 * ((i * r + k) % 17) as f64
        }),
    };
    let mut als_span = telemetry::span(Level::Info, "als.complete");
    if als_span.is_enabled() {
        als_span.record("m", m);
        als_span.record("n", n);
        als_span.record("rank", r);
        als_span.record("lambda", config.lambda);
        als_span.record("warm_start", warm_r.is_some());
        als_span.record("observed", obs.total_observed());
        // The thread decision is made once per completion, so record it
        // once: the worker counts each fan-out will actually use.
        als_span.record("threads_col_solve", workpool::resolve_threads(plan.col_solve).min(n));
        als_span.record("threads_row_solve", workpool::resolve_threads(plan.row_solve).min(m));
        als_span.record("threads_objective", workpool::resolve_threads(plan.objective).min(n));
    }
    // Wall-clock for the completion histogram, independent of whether
    // the Info-level span is collecting (metrics may be on alone).
    let metrics_timer = telemetry::metrics_enabled().then(std::time::Instant::now);

    let mut rmat = Matrix::zeros(n, r);
    if let Some(warm) = warm_r {
        // Warm start: adopt the previous window's segment factors and
        // fit L to them before the first regular sweep.
        rmat = warm.clone();
        solve_factor(&rmat, obs.rows_view(), config, plan.row_solve, SolveAxis::Row, &mut l)?;
    }

    let mut best: Option<(f64, Matrix, Matrix)> = None;
    let mut trace = Vec::with_capacity(config.iterations);
    let mut prev_v = f64::INFINITY;
    let mut sweeps = 0;
    let mut early_stopped = false;

    for _ in 0..config.iterations {
        sweeps += 1;
        let mut sweep_span = telemetry::span(Level::Debug, "als.sweep");
        let solve_start = sweep_span.is_enabled().then(std::time::Instant::now);
        // R step: for each column j, ridge-solve L_Ω r_j ≈ m_Ω.
        solve_factor(&l, obs.cols_view(), config, plan.col_solve, SolveAxis::Column, &mut rmat)?;
        // L step: symmetric, with R in the role of the design matrix.
        solve_factor(&rmat, obs.rows_view(), config, plan.row_solve, SolveAxis::Row, &mut l)?;
        let solve_ms = solve_start.map(|t| t.elapsed().as_secs_f64() * 1e3);

        // Objective (Eq. 16) on the observed entries, fused over the
        // column-major half of the index. Per-column partial sums
        // reduced in column order: the same association on the
        // sequential and parallel paths, so the value is bit-for-bit
        // independent of the thread count.
        let fit: f64 = workpool::parallel_map_indexed(n, plan.objective, |j| {
            let (row_ids, vals) = obs.col(j);
            let r_row = rmat.row(j);
            let mut partial = 0.0;
            for (&i, &v) in row_ids.iter().zip(vals) {
                let l_row = l.row(i as usize);
                let mut pred = 0.0;
                for k in 0..r {
                    pred += l_row[k] * r_row[k];
                }
                partial += (pred - v) * (pred - v);
            }
            partial
        })
        .into_iter()
        .sum();
        let v = fit + config.lambda * (l.frobenius_norm_sq() + rmat.frobenius_norm_sq());
        trace.push(v);
        if sweep_span.is_enabled() {
            sweep_span.record("sweep", sweeps);
            sweep_span.record("objective", v);
            sweep_span.record("delta", if prev_v.is_finite() { prev_v - v } else { 0.0 });
            if let Some(ms) = solve_ms {
                sweep_span.record("solve_ms", ms);
            }
        }
        if telemetry::metrics_enabled() {
            telemetry::counter("als.sweeps").incr();
        }
        if best.as_ref().is_none_or(|(bv, _, _)| v < *bv) {
            best = Some((v, l.clone(), rmat.clone()));
        }
        if config.tol > 0.0 && (prev_v - v).abs() <= config.tol * v.abs().max(1.0) {
            early_stopped = true;
            sweep_span.record("early_stop", true);
            break;
        }
        prev_v = v;
    }

    let (objective, bl, br) = best.expect("at least one sweep ran");
    if als_span.is_enabled() {
        als_span.record("sweeps", sweeps);
        als_span.record("objective", objective);
        als_span.record("early_stop", if early_stopped { "tol" } else { "max_iters" });
    }
    if telemetry::metrics_enabled() {
        telemetry::counter("als.completions").incr();
        // Metrics are decoupled from span level: `--metrics-out` without
        // `--log-level info` still captures completion timings via the
        // dedicated timer (the span is inert in that configuration).
        if let Some(s) = metrics_timer.map(|t| t.elapsed()).or_else(|| als_span.elapsed()) {
            telemetry::histogram("als.complete_us").observe(s.as_secs_f64() * 1e6);
        }
    }
    // Cache-blocked `L Rᵀ` without materializing the transpose.
    let estimate = bl.matmul_transpose_b(&br).expect("factor shapes agree");
    Ok(CompletionResult { estimate, objective, objective_trace: trace, sweeps, factors: (bl, br) })
}

/// Minimum solve-work estimate (see [`solve_work`]) below which a factor
/// solve stays sequential: fan-out over threads costs two thread spawns
/// plus a join per sweep, which only pays for itself once the per-sweep
/// arithmetic dwarfs it.
const PARALLEL_WORK_THRESHOLD: usize = 32_768;

/// Worker counts for every fan-out of one completion, decided once at
/// observation-index build time instead of re-derived (by re-summing all
/// observation lengths) on every sweep.
#[derive(Debug, Clone, Copy)]
struct ThreadPlan {
    /// `R` step (one ridge solve per column).
    col_solve: usize,
    /// `L` step (one ridge solve per row).
    row_solve: usize,
    /// Per-sweep objective evaluation.
    objective: usize,
}

impl ThreadPlan {
    /// Gates each fan-out so tiny problems (where spawn overhead
    /// dominates) stay sequential. A factor solve costs ≈ `r²` per
    /// observed entry (normal-equation build) plus `r³` per unit (dense
    /// solve); the objective costs only `r` per observed entry.
    fn new(obs: &ObsIndex, r: usize, config: &CsConfig) -> Self {
        let total = obs.total_observed();
        let solve_threads = |units: usize| {
            if total * r * r + units * r * r * r < PARALLEL_WORK_THRESHOLD {
                1
            } else {
                config.num_threads
            }
        };
        Self {
            col_solve: solve_threads(obs.num_cols()),
            row_solve: solve_threads(obs.num_rows()),
            objective: if total * r < PARALLEL_WORK_THRESHOLD { 1 } else { config.num_threads },
        }
    }
}

/// Solves one half of the alternation: given the fixed factor `design`
/// (rows indexed by the *other* dimension) and one traversal order of
/// the observation index, fills `out` (units × r) with the ridge
/// solutions.
///
/// Each unit's ridge problem is independent, so the rows of `out` fan
/// out over [`workpool::try_parallel_for_each_mut_with`]: every worker
/// writes only its claimed unit's row, and a failed solve surfaces as
/// the error of the smallest failing unit — both schedule-independent,
/// keeping the output identical across thread counts.
///
/// The normal-equations path runs the allocation-free Gram kernel: each
/// worker carries one [`GramScratch`] (`r×r` plus two `r`-vectors) for
/// the whole fan-out and accumulates `AᵀA + λI` / `Aᵀy` directly from
/// the design rows of the observed entries — no per-unit design matrix,
/// RHS, or Gram product is ever materialized. The QR path keeps its
/// allocating route (it exists for the `als_solver` ablation, not for
/// speed).
fn solve_factor(
    design: &Matrix,
    obs: AxisView<'_>,
    config: &CsConfig,
    threads: usize,
    axis: SolveAxis,
    out: &mut Matrix,
) -> Result<(), CsError> {
    let r = design.cols();
    let mut rows: Vec<&mut [f64]> = out.as_mut_slice().chunks_mut(r).collect();
    match config.solver {
        RidgeSolver::NormalEquations => workpool::try_parallel_for_each_mut_with(
            &mut rows,
            threads,
            || GramScratch::new(r),
            |unit, row, scratch| {
                let (indices, values) = obs.unit(unit);
                // `solve_ridge_rows` owns the empty-unit → zero rule and
                // the exact accumulation order; the incremental path in
                // `online` calls the same entry point, which is what
                // makes full and dirty-unit solves bit-identical.
                scratch
                    .solve_ridge_rows(design, indices, values, config.lambda, row)
                    .map_err(|e| CsError::Solve { axis, index: unit, detail: e.to_string() })
            },
        ),
        // Explicitly `solve_qr`, not a re-dispatch through
        // `config.solver.solve`: this arm exists only for the ablation,
        // and routing back through the enum would silently fall into the
        // allocating normal-equations path if the match arms ever
        // drifted apart. The dispatch decision is made exactly once, on
        // the match above.
        RidgeSolver::Qr => workpool::try_parallel_for_each_mut(&mut rows, threads, |unit, row| {
            let (indices, values) = obs.unit(unit);
            if indices.is_empty() {
                row.fill(0.0);
                return Ok(());
            }
            let a = Matrix::from_fn(indices.len(), r, |i, k| design.get(indices[i] as usize, k));
            let b = Matrix::from_fn(indices.len(), 1, |i, _| values[i]);
            let sol = solve_qr(&a, &b, config.lambda).map_err(|e| CsError::Solve {
                axis,
                index: unit,
                detail: e.to_string(),
            })?;
            for (k, slot) in row.iter_mut().enumerate() {
                *slot = sol.get(k, 0);
            }
            Ok(())
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::nmae_on_missing;
    use probes::mask::random_mask;
    use rand::RngExt;

    /// Rank-2 synthetic "traffic" matrix: daily pattern + per-segment
    /// offset.
    fn low_rank_truth(m: usize, n: usize) -> Matrix {
        Matrix::from_fn(m, n, |t, s| {
            let daily = (2.0 * std::f64::consts::PI * t as f64 / 24.0).sin();
            30.0 + 5.0 * (s % 7) as f64 + 10.0 * daily * (1.0 + 0.05 * s as f64)
        })
    }

    fn masked_tcm(truth: &Matrix, integrity: f64, seed: u64) -> Tcm {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mask = random_mask(truth.rows(), truth.cols(), integrity, &mut rng);
        Tcm::complete(truth.clone()).masked(&mask).unwrap()
    }

    #[test]
    fn recovers_low_rank_matrix_from_half_observations() {
        let truth = low_rank_truth(48, 30);
        let tcm = masked_tcm(&truth, 0.5, 1);
        let cfg = CsConfig { rank: 3, lambda: 0.1, ..CsConfig::default() };
        let est = complete_matrix(&tcm, &cfg).unwrap();
        let err = nmae_on_missing(&truth, &est, tcm.indicator());
        assert!(err < 0.03, "NMAE {err}");
    }

    #[test]
    fn recovers_even_at_twenty_percent_integrity() {
        // The paper's headline regime: >80% missing.
        let truth = low_rank_truth(96, 40);
        let tcm = masked_tcm(&truth, 0.2, 2);
        let cfg = CsConfig { rank: 3, lambda: 0.5, ..CsConfig::default() };
        let est = complete_matrix(&tcm, &cfg).unwrap();
        let err = nmae_on_missing(&truth, &est, tcm.indicator());
        assert!(err < 0.08, "NMAE {err}");
    }

    #[test]
    fn objective_trace_is_monotone_after_first_sweeps() {
        let truth = low_rank_truth(30, 20);
        let tcm = masked_tcm(&truth, 0.4, 3);
        let cfg = CsConfig { tol: 0.0, iterations: 40, ..CsConfig::default() };
        let result = complete_matrix_detailed(&tcm, &cfg).unwrap();
        assert_eq!(result.objective_trace.len(), 40);
        // ALS on this objective is a descent method.
        for w in result.objective_trace.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-9), "objective rose: {:?}", w);
        }
        assert!((result.objective - result.objective_trace.last().unwrap()).abs() < 1e-6);
    }

    #[test]
    fn early_stop_fires() {
        let truth = low_rank_truth(30, 20);
        let tcm = masked_tcm(&truth, 0.5, 4);
        let cfg = CsConfig { tol: 1e-6, iterations: 500, ..CsConfig::default() };
        let result = complete_matrix_detailed(&tcm, &cfg).unwrap();
        assert!(result.sweeps < 500, "never early-stopped");
    }

    #[test]
    fn deterministic_per_seed() {
        let truth = low_rank_truth(20, 15);
        let tcm = masked_tcm(&truth, 0.5, 5);
        let cfg = CsConfig::default();
        let a = complete_matrix(&tcm, &cfg).unwrap();
        let b = complete_matrix(&tcm, &cfg).unwrap();
        assert_eq!(a, b);
        let cfg2 = CsConfig { seed: 77, ..cfg };
        let c = complete_matrix(&tcm, &cfg2).unwrap();
        // Different random init converges to slightly different iterates.
        assert!(!a.approx_eq(&c, 1e-14));
    }

    #[test]
    fn solvers_agree() {
        let truth = low_rank_truth(25, 18);
        let tcm = masked_tcm(&truth, 0.6, 6);
        let ne = complete_matrix(
            &tcm,
            &CsConfig { solver: RidgeSolver::NormalEquations, ..CsConfig::default() },
        )
        .unwrap();
        let qr =
            complete_matrix(&tcm, &CsConfig { solver: RidgeSolver::Qr, ..CsConfig::default() })
                .unwrap();
        assert!(ne.approx_eq(&qr, 1e-5), "solver backends diverge");
    }

    #[test]
    fn row_means_init_also_converges() {
        let truth = low_rank_truth(30, 20);
        let tcm = masked_tcm(&truth, 0.4, 7);
        let cfg = CsConfig {
            init: Initialization::RowMeans,
            rank: 3,
            lambda: 0.1,
            ..CsConfig::default()
        };
        let est = complete_matrix(&tcm, &cfg).unwrap();
        let err = nmae_on_missing(&truth, &est, tcm.indicator());
        assert!(err < 0.05, "NMAE {err}");
    }

    #[test]
    fn unobserved_column_estimates_zero() {
        let truth = low_rank_truth(20, 10);
        let mut mask = Matrix::filled(20, 10, 1.0);
        for t in 0..20 {
            mask.set(t, 4, 0.0); // column 4 fully missing
        }
        let tcm = Tcm::complete(truth).masked(&mask).unwrap();
        let est = complete_matrix(&tcm, &CsConfig::default()).unwrap();
        for t in 0..20 {
            assert_eq!(est.get(t, 4), 0.0);
        }
    }

    #[test]
    fn large_lambda_shrinks_estimate() {
        let truth = low_rank_truth(20, 15);
        let tcm = masked_tcm(&truth, 0.5, 8);
        let small =
            complete_matrix(&tcm, &CsConfig { lambda: 0.01, ..CsConfig::default() }).unwrap();
        let large =
            complete_matrix(&tcm, &CsConfig { lambda: 1e6, ..CsConfig::default() }).unwrap();
        assert!(large.frobenius_norm() < 0.1 * small.frobenius_norm());
    }

    #[test]
    fn validation_errors() {
        let tcm = masked_tcm(&low_rank_truth(10, 8), 0.5, 9);
        assert!(matches!(
            complete_matrix(&tcm, &CsConfig { rank: 0, ..CsConfig::default() }),
            Err(CsError::InvalidRank { .. })
        ));
        assert!(matches!(
            complete_matrix(&tcm, &CsConfig { rank: 9, ..CsConfig::default() }),
            Err(CsError::InvalidRank { .. })
        ));
        assert!(matches!(
            complete_matrix(&tcm, &CsConfig { lambda: -1.0, ..CsConfig::default() }),
            Err(CsError::InvalidLambda(_))
        ));
        assert!(matches!(
            complete_matrix(&tcm, &CsConfig { iterations: 0, ..CsConfig::default() }),
            Err(CsError::NoIterations)
        ));
        let empty = Tcm::complete(low_rank_truth(10, 8)).masked(&Matrix::zeros(10, 8)).unwrap();
        assert!(matches!(
            complete_matrix(&empty, &CsConfig::default()),
            Err(CsError::NoObservations)
        ));
    }

    #[test]
    fn solve_failure_reports_axis_and_smallest_index() {
        // λ = 0 with an all-zero design column makes every unit's Gram
        // matrix exactly singular (the second Cholesky pivot is 0.0, no
        // rounding involved), so both units fail and the smallest index
        // must win regardless of scheduling.
        let design = Matrix::from_fn(4, 2, |i, k| if k == 0 { 1.0 + i as f64 } else { 0.0 });
        let offsets = [0usize, 2, 4];
        let indices = [0u32, 1, 2, 3];
        let values = [1.0, 2.0, 1.0, 2.0];
        let obs = AxisView::new(&offsets, &indices, &values);
        let cfg = CsConfig { rank: 2, lambda: 0.0, ..CsConfig::default() };
        let mut out = Matrix::zeros(2, 2);
        let err = solve_factor(&design, obs, &cfg, 1, SolveAxis::Column, &mut out).unwrap_err();
        match &err {
            CsError::Solve { axis, index, detail } => {
                assert_eq!(*axis, SolveAxis::Column);
                assert_eq!(*index, 0);
                assert!(detail.contains("positive definite"), "detail: {detail}");
            }
            other => panic!("expected CsError::Solve, got {other:?}"),
        }
        assert!(err.to_string().contains("column 0"), "display: {err}");
    }

    #[test]
    fn estimate_matches_observed_entries_closely_with_small_lambda() {
        let truth = low_rank_truth(30, 20);
        let tcm = masked_tcm(&truth, 0.5, 10);
        let cfg = CsConfig { rank: 4, lambda: 1e-3, ..CsConfig::default() };
        let est = complete_matrix(&tcm, &cfg).unwrap();
        let mut max_fit_err = 0.0_f64;
        for (i, j, v) in tcm.observed_entries() {
            max_fit_err = max_fit_err.max((est.get(i, j) - v).abs() / v.abs());
        }
        assert!(max_fit_err < 0.05, "observed-fit error {max_fit_err}");
    }

    #[test]
    fn noisy_matrix_regularization_helps() {
        // With noise, moderate lambda should beat (or match) tiny lambda
        // on held-out entries — the over-fit argument of Section 3.3.
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let clean = low_rank_truth(60, 30);
        let noisy = clean.map(|v| v + rng.random_range(-2.0..2.0));
        let mask = random_mask(60, 30, 0.3, &mut rng);
        let tcm = Tcm::complete(noisy).masked(&mask).unwrap();
        let err = |lambda: f64| {
            let est = complete_matrix(&tcm, &CsConfig { rank: 6, lambda, ..CsConfig::default() })
                .unwrap();
            nmae_on_missing(&clean, &est, tcm.indicator())
        };
        let tiny = err(1e-8);
        let moderate = err(5.0);
        assert!(moderate <= tiny * 1.05, "moderate {moderate} vs tiny {tiny}");
    }
}
