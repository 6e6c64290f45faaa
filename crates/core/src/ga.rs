//! Algorithm 2: genetic search for the rank bound `r` and tradeoff
//! coefficient `λ` (Section 3.4, Figure 10).
//!
//! The fitness of an individual `(r, λ)` is the estimate error of
//! Algorithm 1 run with those parameters — measured on a *validation
//! split*: a fraction of the observed entries is hidden from the solver
//! and used as ground truth, since the true missing entries are unknown
//! in deployment. Each generation is rebuilt as `[H, C, M]`: the elite
//! survivors, crossover offspring (roulette selection), and mutants
//! (one gene resampled uniformly in its domain), exactly the loop of the
//! paper's pseudo-code.
//!
//! Individual fitness evaluations are independent Algorithm-1 runs, so
//! they are fanned out over scoped threads.

use crate::cs::{complete_matrix, CsConfig, CsError};
use crate::error::ConfigError;
use crate::metrics::nmae_on_cells;
use linalg::Matrix;
use probes::Tcm;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Parameters of the genetic search.
#[derive(Debug, Clone, PartialEq)]
pub struct GaConfig {
    /// Population size.
    pub population: usize,
    /// Maximum number of generations. The paper adopts "a fixed number
    /// of iterations as the termination criterion"; see
    /// [`GaConfig::stall_generations`] for its alternative criterion.
    pub generations: usize,
    /// The pseudo-code's `while (!stall(fitness))` alternative: stop
    /// early when the best fitness has not improved for this many
    /// consecutive generations. `None` always runs all `generations`.
    pub stall_generations: Option<usize>,
    /// Elite survivors kept verbatim each generation.
    pub elite: usize,
    /// Search range for the rank bound `r` (lower bound 1 per the paper;
    /// upper bound from Eq. 18).
    pub rank_bounds: (usize, usize),
    /// Search range for `λ`; sampled log-uniformly ("it is not easy to
    /// determine the bounds of the tradeoff coefficient, we determine
    /// the bounds by experiments").
    pub lambda_bounds: (f64, f64),
    /// Fraction of observed entries held out as the validation set.
    pub validation_fraction: f64,
    /// Template for the inner Algorithm-1 runs (rank/lambda overridden).
    pub cs: CsConfig,
    /// Evaluate individuals on parallel threads.
    pub parallel: bool,
    /// Worker threads for the chromosome fan-out when [`parallel`] is
    /// set: `0` defers to [`workpool::set_default_threads`], `1` is
    /// equivalent to `parallel: false`. While the fan-out is active the
    /// inner Algorithm-1 runs are forced sequential so a population of
    /// `p` never occupies more than `num_threads` cores.
    ///
    /// [`parallel`]: GaConfig::parallel
    pub num_threads: usize,
    /// Seed for population initialization, splits, and GA operators.
    pub seed: u64,
}

impl Default for GaConfig {
    fn default() -> Self {
        Self {
            population: 16,
            generations: 10,
            stall_generations: None,
            elite: 4,
            rank_bounds: (1, 16),
            lambda_bounds: (1e-3, 2e3),
            validation_fraction: 0.25,
            cs: CsConfig { iterations: 30, ..CsConfig::default() },
            parallel: true,
            num_threads: 0,
            seed: 1,
        }
    }
}

impl GaConfig {
    /// Validated construction mirroring [`CsConfig::builder`]: every
    /// degenerate parameter combination is caught at build time.
    ///
    /// ```
    /// use traffic_cs::ga::GaConfig;
    ///
    /// let cfg = GaConfig::builder()
    ///     .population(8)
    ///     .generations(4)
    ///     .elite(2)
    ///     .lambda_bounds(1e-2, 1e2)
    ///     .build()?;
    /// assert_eq!(cfg.population, 8);
    /// assert!(GaConfig::builder().elite(99).build().is_err()); // elite > population
    /// # Ok::<(), traffic_cs::ConfigError>(())
    /// ```
    pub fn builder() -> GaConfigBuilder {
        GaConfigBuilder { cfg: GaConfig::default() }
    }
}

/// Builder for [`GaConfig`]; see [`GaConfig::builder`].
#[derive(Debug, Clone)]
pub struct GaConfigBuilder {
    cfg: GaConfig,
}

impl GaConfigBuilder {
    /// Population size (must be ≥ 1).
    pub fn population(mut self, population: usize) -> Self {
        self.cfg.population = population;
        self
    }

    /// Generation budget (must be ≥ 1).
    pub fn generations(mut self, generations: usize) -> Self {
        self.cfg.generations = generations;
        self
    }

    /// Early-stall criterion (generations without improvement).
    pub fn stall_generations(mut self, stall: Option<usize>) -> Self {
        self.cfg.stall_generations = stall;
        self
    }

    /// Elite survivors per generation (must be ≥ 1 and ≤ population).
    pub fn elite(mut self, elite: usize) -> Self {
        self.cfg.elite = elite;
        self
    }

    /// Search range for the rank bound (must satisfy `1 ≤ lo ≤ hi`).
    pub fn rank_bounds(mut self, lo: usize, hi: usize) -> Self {
        self.cfg.rank_bounds = (lo, hi);
        self
    }

    /// Search range for `λ` (must satisfy `0 < lo ≤ hi`, both finite).
    pub fn lambda_bounds(mut self, lo: f64, hi: f64) -> Self {
        self.cfg.lambda_bounds = (lo, hi);
        self
    }

    /// Fraction of observed entries held out for validation (must be in
    /// `(0, 1)`).
    pub fn validation_fraction(mut self, fraction: f64) -> Self {
        self.cfg.validation_fraction = fraction;
        self
    }

    /// Template for the inner Algorithm-1 runs (its rank/lambda are
    /// overridden per individual; the rest is validated like
    /// [`CsConfig::builder`]).
    pub fn cs(mut self, cs: CsConfig) -> Self {
        self.cfg.cs = cs;
        self
    }

    /// Evaluate individuals on parallel threads.
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.cfg.parallel = parallel;
        self
    }

    /// Worker threads for the chromosome fan-out.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.cfg.num_threads = num_threads;
        self
    }

    /// Seed for population initialization and GA operators.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the first offending field.
    pub fn build(self) -> Result<GaConfig, ConfigError> {
        let c = &self.cfg;
        if c.population == 0 {
            return Err(ConfigError::new("population", "must be at least 1"));
        }
        if c.generations == 0 {
            return Err(ConfigError::new("generations", "must be at least 1"));
        }
        if c.elite == 0 || c.elite > c.population {
            return Err(ConfigError::new(
                "elite",
                format!("{} must be in 1..={}", c.elite, c.population),
            ));
        }
        let (lo_r, hi_r) = c.rank_bounds;
        if lo_r == 0 || lo_r > hi_r {
            return Err(ConfigError::new(
                "rank_bounds",
                format!("({lo_r}, {hi_r}) must satisfy 1 <= lo <= hi"),
            ));
        }
        let (lo_l, hi_l) = c.lambda_bounds;
        if !(lo_l.is_finite() && hi_l.is_finite()) || lo_l <= 0.0 || lo_l > hi_l {
            return Err(ConfigError::new(
                "lambda_bounds",
                format!("({lo_l}, {hi_l}) must satisfy 0 < lo <= hi, both finite"),
            ));
        }
        if !c.validation_fraction.is_finite()
            || c.validation_fraction <= 0.0
            || c.validation_fraction >= 1.0
        {
            return Err(ConfigError::new(
                "validation_fraction",
                format!("{} must be strictly between 0 and 1", c.validation_fraction),
            ));
        }
        c.cs.validate()?;
        Ok(self.cfg)
    }
}

/// Result of the genetic search.
#[derive(Debug, Clone, PartialEq)]
pub struct GaResult {
    /// Best rank bound found.
    pub rank: usize,
    /// Best tradeoff coefficient found.
    pub lambda: f64,
    /// Validation NMAE of the best individual.
    pub fitness: f64,
    /// Best fitness after each generation (non-increasing).
    pub history: Vec<f64>,
}

#[derive(Debug, Clone, Copy)]
struct Individual {
    rank: usize,
    log_lambda: f64,
}

/// Runs Algorithm 2 on the measurement matrix.
///
/// # Errors
///
/// Returns [`CsError`] when the configuration is degenerate (empty
/// population/generations map to [`CsError::NoIterations`], an empty
/// measurement matrix to [`CsError::NoObservations`]) or when every
/// inner Algorithm-1 run fails.
pub fn optimize_parameters(tcm: &Tcm, config: &GaConfig) -> Result<GaResult, CsError> {
    if config.population == 0 || config.generations == 0 || config.elite == 0 {
        return Err(CsError::NoIterations);
    }
    if tcm.observed_count() < 4 {
        return Err(CsError::NoObservations);
    }
    let (lo_r, hi_r) = config.rank_bounds;
    let max_rank = tcm.num_slots().min(tcm.num_segments());
    let hi_r = hi_r.min(max_rank);
    let lo_r = lo_r.max(1).min(hi_r);
    let (lo_l, hi_l) = config.lambda_bounds;
    if !(lo_l > 0.0 && hi_l >= lo_l) {
        return Err(CsError::InvalidLambda(lo_l));
    }

    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);

    // Validation split: hide a fraction of observed cells from the
    // solver; they become the fitness ground truth.
    let mut observed: Vec<(usize, usize)> =
        tcm.observed_entries().map(|(r, c, _)| (r, c)).collect();
    observed.shuffle(&mut rng);
    let n_val = ((observed.len() as f64 * config.validation_fraction) as usize)
        .clamp(1, observed.len() - 1);
    let validation: Vec<(usize, usize)> = observed[..n_val].to_vec();
    let mut train_mask = Matrix::filled(tcm.num_slots(), tcm.num_segments(), 1.0);
    for &(r, c) in &validation {
        train_mask.set(r, c, 0.0);
    }
    let train_tcm = tcm.masked(&train_mask).expect("mask shape matches");
    let truth = tcm.values(); // validation cells hold real observations

    let sample_log_lambda =
        |rng: &mut rand::rngs::StdRng| -> f64 { rng.random_range(lo_l.ln()..=hi_l.ln()) };

    // 1) Initialization.
    let mut population: Vec<Individual> = (0..config.population)
        .map(|_| Individual {
            rank: rng.random_range(lo_r..=hi_r),
            log_lambda: sample_log_lambda(&mut rng),
        })
        .collect();

    // Chromosome-level fan-out: when more than one worker evaluates the
    // population, the inner Algorithm-1 runs go sequential so `p`
    // individuals never occupy more than `num_threads` cores. The inner
    // estimate is bit-for-bit independent of its thread count, so this
    // changes scheduling only, never fitness values.
    let eval_workers = if config.parallel {
        workpool::resolve_threads(config.num_threads).min(config.population)
    } else {
        1
    };
    let inner_threads = if eval_workers > 1 { 1 } else { config.cs.num_threads };
    let evaluate = |ind: &Individual| -> f64 {
        let cfg = CsConfig {
            rank: ind.rank,
            lambda: ind.log_lambda.exp(),
            num_threads: inner_threads,
            ..config.cs.clone()
        };
        match complete_matrix(&train_tcm, &cfg) {
            Ok(est) => nmae_on_cells(truth, &est, &validation),
            Err(_) => f64::INFINITY,
        }
    };

    let mut ga_span = telemetry::span(telemetry::Level::Info, "ga.optimize");
    if ga_span.is_enabled() {
        ga_span.record("population", config.population);
        ga_span.record("max_generations", config.generations);
        ga_span.record("rank_bounds", format!("{lo_r}..={hi_r}"));
    }

    let mut best: Option<(f64, Individual)> = None;
    let mut history = Vec::with_capacity(config.generations);
    let mut stalled = 0usize;

    for gen in 0..config.generations {
        let mut gen_span = telemetry::span(telemetry::Level::Debug, "ga.generation");
        // 2) Selection: evaluate fitness (parallel fan-out over the
        // worker pool; slot-indexed results keep the ordering identical
        // to the sequential loop) and sort.
        let fitness: Vec<f64> =
            workpool::parallel_map_indexed(population.len(), eval_workers, |i| {
                evaluate(&population[i])
            });

        let mut order: Vec<usize> = (0..population.len()).collect();
        order.sort_by(|&a, &b| fitness[a].partial_cmp(&fitness[b]).expect("finite or inf fitness"));
        let gen_best = order[0];
        let improved = best.as_ref().is_none_or(|(f, _)| fitness[gen_best] < *f);
        if improved {
            best = Some((fitness[gen_best], population[gen_best]));
            stalled = 0;
        } else {
            stalled += 1;
        }
        history.push(best.as_ref().expect("just set").0);
        if gen_span.is_enabled() {
            let finite: Vec<f64> = fitness.iter().copied().filter(|f| f.is_finite()).collect();
            let mean = if finite.is_empty() {
                f64::INFINITY
            } else {
                finite.iter().sum::<f64>() / finite.len() as f64
            };
            // Population diversity: how many distinct rank genes survive,
            // and how wide the λ genes are spread in log space.
            let mut ranks: Vec<usize> = population.iter().map(|p| p.rank).collect();
            ranks.sort_unstable();
            ranks.dedup();
            let (lo, hi) = population.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |acc, p| {
                (acc.0.min(p.log_lambda), acc.1.max(p.log_lambda))
            });
            gen_span.record("generation", gen);
            gen_span.record("best_fitness", fitness[gen_best]);
            gen_span.record("mean_fitness", mean);
            gen_span.record("distinct_ranks", ranks.len());
            gen_span.record("log_lambda_spread", hi - lo);
            gen_span.record("failed_individuals", fitness.len() - finite.len());
        }
        if telemetry::metrics_enabled() {
            telemetry::counter("ga.generations").incr();
        }
        if let Some(limit) = config.stall_generations {
            if stalled >= limit {
                break;
            }
        }

        // 3) Reproduction: next generation = [H, C, M].
        let elite_count = config.elite.min(population.len());
        let elites: Vec<Individual> = order[..elite_count].iter().map(|&i| population[i]).collect();
        // Roulette weights over inverse error (guarding inf/zero).
        let weights: Vec<f64> = order
            .iter()
            .map(|&i| if fitness[i].is_finite() { 1.0 / (fitness[i] + 1e-6) } else { 0.0 })
            .collect();
        let total_w: f64 = weights.iter().sum();
        let roulette = |rng: &mut rand::rngs::StdRng| -> Individual {
            if total_w <= 0.0 {
                return population[order[0]];
            }
            let mut pick = rng.random_range(0.0..total_w);
            for (k, &w) in weights.iter().enumerate() {
                pick -= w;
                if pick <= 0.0 {
                    return population[order[k]];
                }
            }
            population[order[order.len() - 1]]
        };

        let remaining = population.len() - elite_count;
        let n_cross = remaining / 2;
        let mut next = elites.clone();
        for _ in 0..n_cross {
            // Crossover: rank from one parent, λ the log-space midpoint.
            let a = roulette(&mut rng);
            let b = roulette(&mut rng);
            next.push(Individual {
                rank: if rng.random_range(0.0..1.0) < 0.5 { a.rank } else { b.rank },
                log_lambda: (a.log_lambda + b.log_lambda) / 2.0,
            });
        }
        while next.len() < population.len() {
            // Mutation: resample one gene uniformly within its domain.
            let mut m = roulette(&mut rng);
            if rng.random_range(0.0..1.0) < 0.5 {
                m.rank = rng.random_range(lo_r..=hi_r);
            } else {
                m.log_lambda = sample_log_lambda(&mut rng);
            }
            next.push(m);
        }
        population = next;
    }

    // 4) Termination: decode the best individual.
    let (fitness, ind) = best.expect("at least one generation evaluated");
    if !fitness.is_finite() {
        return Err(CsError::AllCandidatesFailed);
    }
    if ga_span.is_enabled() {
        ga_span.record("generations", history.len());
        ga_span.record("best_fitness", fitness);
        ga_span.record("best_rank", ind.rank);
        ga_span.record("best_lambda", ind.log_lambda.exp());
    }
    if telemetry::metrics_enabled() {
        if let Some(elapsed) = ga_span.elapsed() {
            telemetry::histogram("ga.optimize_us").observe(elapsed.as_nanos() as f64 / 1e3);
        }
    }
    Ok(GaResult { rank: ind.rank, lambda: ind.log_lambda.exp(), fitness, history })
}

#[cfg(test)]
mod tests {
    use super::*;
    use probes::mask::random_mask;

    /// Low-rank truth where small ranks clearly win.
    fn test_tcm(seed: u64) -> (Matrix, Tcm) {
        let truth = Matrix::from_fn(48, 24, |t, s| {
            let f = (2.0 * std::f64::consts::PI * t as f64 / 24.0).sin();
            35.0 + 7.0 * f * (1.0 + 0.08 * s as f64) + 0.3 * (s % 5) as f64
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mask = random_mask(48, 24, 0.4, &mut rng);
        let tcm = Tcm::complete(truth.clone()).masked(&mask).unwrap();
        (truth, tcm)
    }

    fn quick_cfg() -> GaConfig {
        GaConfig {
            population: 8,
            generations: 5,
            elite: 2,
            rank_bounds: (1, 8),
            cs: CsConfig { iterations: 15, ..CsConfig::default() },
            ..GaConfig::default()
        }
    }

    #[test]
    fn finds_low_rank_parameters() {
        let (_, tcm) = test_tcm(1);
        let result = optimize_parameters(&tcm, &quick_cfg()).unwrap();
        // The data is essentially rank 2; GA should not pick a huge rank.
        assert!(result.rank <= 5, "picked rank {}", result.rank);
        assert!(result.fitness < 0.1, "validation NMAE {}", result.fitness);
        assert!(result.lambda > 0.0);
    }

    #[test]
    fn history_is_monotone_non_increasing() {
        let (_, tcm) = test_tcm(2);
        let result = optimize_parameters(&tcm, &quick_cfg()).unwrap();
        assert_eq!(result.history.len(), 5);
        for w in result.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn parallel_and_serial_agree() {
        let (_, tcm) = test_tcm(3);
        let par = optimize_parameters(&tcm, &GaConfig { parallel: true, ..quick_cfg() }).unwrap();
        let ser = optimize_parameters(&tcm, &GaConfig { parallel: false, ..quick_cfg() }).unwrap();
        assert_eq!(par.rank, ser.rank);
        assert!((par.lambda - ser.lambda).abs() < 1e-9);
        assert!((par.fitness - ser.fitness).abs() < 1e-12);
    }

    #[test]
    fn deterministic_per_seed() {
        let (_, tcm) = test_tcm(4);
        let a = optimize_parameters(&tcm, &quick_cfg()).unwrap();
        let b = optimize_parameters(&tcm, &quick_cfg()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn chosen_parameters_generalize() {
        // Parameters picked on the validation split should do well on the
        // genuinely missing entries too — the property that justifies
        // running Algorithm 2 once per road-segment set (Section 3.4).
        let (truth, tcm) = test_tcm(5);
        let result = optimize_parameters(&tcm, &quick_cfg()).unwrap();
        let cfg = CsConfig { rank: result.rank, lambda: result.lambda, ..CsConfig::default() };
        let est = complete_matrix(&tcm, &cfg).unwrap();
        let err = crate::metrics::nmae_on_missing(&truth, &est, tcm.indicator());
        assert!(err < 0.08, "test NMAE {err}");
    }

    #[test]
    fn degenerate_configs_rejected() {
        let (_, tcm) = test_tcm(6);
        assert!(optimize_parameters(&tcm, &GaConfig { population: 0, ..quick_cfg() }).is_err());
        assert!(optimize_parameters(&tcm, &GaConfig { generations: 0, ..quick_cfg() }).is_err());
        assert!(optimize_parameters(&tcm, &GaConfig { elite: 0, ..quick_cfg() }).is_err());
        assert!(optimize_parameters(&tcm, &GaConfig { lambda_bounds: (-1.0, 1.0), ..quick_cfg() })
            .is_err());
        let empty = Tcm::complete(Matrix::filled(8, 8, 1.0)).masked(&Matrix::zeros(8, 8)).unwrap();
        assert!(optimize_parameters(&empty, &quick_cfg()).is_err());
    }

    #[test]
    fn stall_termination_stops_early() {
        let (_, tcm) = test_tcm(8);
        let full = optimize_parameters(
            &tcm,
            &GaConfig { generations: 12, stall_generations: None, ..quick_cfg() },
        )
        .unwrap();
        assert_eq!(full.history.len(), 12);
        let stalled = optimize_parameters(
            &tcm,
            &GaConfig { generations: 12, stall_generations: Some(2), ..quick_cfg() },
        )
        .unwrap();
        // Same search trajectory, so it must stop at or before the full
        // run's length — and strictly earlier unless fitness kept
        // improving every generation.
        assert!(stalled.history.len() <= 12);
        // The best it found is the best the shared prefix found.
        let k = stalled.history.len();
        assert_eq!(stalled.history[..], full.history[..k]);
    }

    #[test]
    fn rank_bounds_clamped_to_matrix() {
        let (_, tcm) = test_tcm(7);
        let cfg = GaConfig { rank_bounds: (1, 9999), ..quick_cfg() };
        let result = optimize_parameters(&tcm, &cfg).unwrap();
        assert!(result.rank <= 24);
    }
}
