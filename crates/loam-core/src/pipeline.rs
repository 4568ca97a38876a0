//! The end-to-end deployment pipeline (Figure 2): history building, model
//! training, candidate evaluation in the flighting environment, and steered
//! serving — the machinery behind every end-to-end experiment (Figures
//! 6–11).

use crate::error::LoamError;
use crate::explorer::{ExplorerConfig, PlanExplorer};
use crate::inference::{guarded_choice_traced, select_plan, EnvStrategy, DEFAULT_MARGIN};
use crate::predictor::baselines::CostModel;
use crate::predictor::train::{train, TrainConfig, TrainSample};
use crate::predictor::AdaptiveCostPredictor;
use crate::theory::deviance::{best_achievable_deviance, deviance_of_choice, Deviance};
use mcsim_catalog::{EnvMetrics, Project, ProjectId, ProjectProfile, QueryRepository, QuerySpec};
use mcsim_exec::{build_history, Flighting, HistoryOptions};
use mcsim_obs::trace::TraceContext;
use mcsim_optimizer::NativeOptimizer;
use mcsim_plan::PlanTree;
use serde::{Deserialize, Serialize};

/// Pipeline configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Days of history used for training (paper: 25).
    pub train_days: i64,
    /// Days of history used for testing (paper: 5).
    pub test_days: i64,
    /// Cap on training queries (paper: 10,000).
    pub max_train: usize,
    /// Cap on test queries.
    pub max_test: usize,
    /// Synchronized replay rounds per test query ("each candidate plan is
    /// executed multiple times, and the average cost is used").
    pub eval_rounds: usize,
    /// How many training queries to explore for unlabeled candidate plans
    /// feeding the domain classifier.
    pub da_queries: usize,
    /// Predictor training hyperparameters.
    pub train_cfg: TrainConfig,
    /// Plan-explorer configuration.
    pub explorer: ExplorerConfig,
    /// Master seed.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            train_days: 25,
            test_days: 5,
            max_train: 10_000,
            max_test: 200,
            eval_rounds: 5,
            da_queries: 60,
            train_cfg: TrainConfig::default(),
            explorer: ExplorerConfig::default(),
            seed: 0x50a0,
        }
    }
}

impl PipelineConfig {
    /// A reduced-scale configuration for laptop-speed experiments: volumes
    /// shrink by `scale` but the structure (25+5 days, top-5 candidates)
    /// stays faithful.
    pub fn reduced(scale: f64) -> PipelineConfig {
        let base = PipelineConfig::default();
        PipelineConfig {
            max_train: ((base.max_train as f64 * scale) as usize).max(200),
            max_test: ((base.max_test as f64 * scale.max(0.25)) as usize).max(30),
            eval_rounds: 3,
            da_queries: 40,
            ..base
        }
    }

    /// Starts a validated builder pre-loaded with the defaults.
    pub fn builder() -> PipelineConfigBuilder {
        PipelineConfigBuilder {
            config: PipelineConfig::default(),
        }
    }

    /// Checks every field the pipeline later relies on, so entry points can
    /// reject a bad configuration up front instead of panicking mid-run.
    pub fn validate(&self) -> Result<(), LoamError> {
        let err = |m: String| Err(LoamError::InvalidConfig(m));
        if self.train_days <= 0 {
            return err(format!("train_days must be > 0, got {}", self.train_days));
        }
        if self.test_days <= 0 {
            return err(format!("test_days must be > 0, got {}", self.test_days));
        }
        if self.max_train == 0 {
            return err("max_train must be >= 1".into());
        }
        if self.max_test == 0 {
            return err("max_test must be >= 1".into());
        }
        if self.eval_rounds == 0 {
            return err("eval_rounds must be >= 1".into());
        }
        if self.train_cfg.epochs == 0 {
            return err("train_cfg.epochs must be >= 1".into());
        }
        if self.train_cfg.batch_size == 0 {
            return err("train_cfg.batch_size must be >= 1".into());
        }
        if self.train_cfg.lr <= 0.0 || !self.train_cfg.lr.is_finite() {
            return err(format!(
                "train_cfg.lr must be a positive finite number, got {}",
                self.train_cfg.lr
            ));
        }
        if self.explorer.top_k == 0 {
            return err("explorer.top_k must be >= 1".into());
        }
        Ok(())
    }
}

/// Builder for [`PipelineConfig`] that validates at
/// [`build`](PipelineConfigBuilder::build) time and returns a typed
/// [`LoamError::InvalidConfig`] instead of panicking later.
#[derive(Debug, Clone)]
pub struct PipelineConfigBuilder {
    config: PipelineConfig,
}

impl PipelineConfigBuilder {
    /// Days of history used for training.
    pub fn train_days(mut self, d: i64) -> Self {
        self.config.train_days = d;
        self
    }

    /// Days of history used for testing.
    pub fn test_days(mut self, d: i64) -> Self {
        self.config.test_days = d;
        self
    }

    /// Cap on training queries.
    pub fn max_train(mut self, n: usize) -> Self {
        self.config.max_train = n;
        self
    }

    /// Cap on test queries.
    pub fn max_test(mut self, n: usize) -> Self {
        self.config.max_test = n;
        self
    }

    /// Synchronized replay rounds per test query.
    pub fn eval_rounds(mut self, n: usize) -> Self {
        self.config.eval_rounds = n;
        self
    }

    /// Training queries explored for unlabeled domain-adaptation candidates.
    pub fn da_queries(mut self, n: usize) -> Self {
        self.config.da_queries = n;
        self
    }

    /// Predictor training hyperparameters.
    pub fn train_cfg(mut self, cfg: TrainConfig) -> Self {
        self.config.train_cfg = cfg;
        self
    }

    /// Plan-explorer configuration.
    pub fn explorer(mut self, cfg: ExplorerConfig) -> Self {
        self.config.explorer = cfg;
        self
    }

    /// Master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<PipelineConfig, LoamError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// A project with its generated history and training data, ready for model
/// fitting and evaluation.
#[derive(Debug, Clone)]
pub struct PreparedProject {
    /// The synthesized project.
    pub project: Project,
    /// Its historical query repository (default plans, logged envs, costs).
    pub repo: QueryRepository,
    /// Labeled training samples extracted from the repository.
    pub train_samples: Vec<TrainSample>,
    /// Unlabeled candidate plans for the domain-adaptation objective.
    pub da_candidates: Vec<PlanTree>,
    /// Test queries (from the held-out days).
    pub test_queries: Vec<QuerySpec>,
    /// Mean historical stage environment (the representative instance e_r).
    pub mean_env: EnvMetrics,
}

/// Generates a project, simulates its history, and extracts train/test data.
///
/// # Errors
///
/// [`LoamError::InvalidConfig`] if `cfg` fails [`PipelineConfig::validate`];
/// [`LoamError::EmptyWorkload`] if the profile yields no historical
/// executions or no held-out test queries.
pub fn prepare_project(
    profile: &ProjectProfile,
    id: ProjectId,
    cfg: &PipelineConfig,
) -> Result<PreparedProject, LoamError> {
    cfg.validate()?;
    let _span = mcsim_obs::span("prepare");
    let project = profile.generate(id);
    let repo = {
        // History building replays the historical workload through the
        // executor: account it to the "execute" phase.
        let _s = mcsim_obs::span("execute");
        build_history(
            &project,
            &HistoryOptions {
                days: cfg.train_days,
                max_queries: cfg.max_train,
                seed: cfg.seed ^ id.0 as u64,
                ..HistoryOptions::default()
            },
        )
    };

    // Every logged execution is a training sample: recurring plans observed
    // under different environments are what teach the model to disentangle
    // environmental impact from plan-intrinsic cost (and average out the
    // execution noise).
    let train_samples: Vec<TrainSample> = repo
        .records()
        .iter()
        .map(|r| TrainSample {
            plan: r.plan.clone(),
            stage_envs: r.stage_envs.clone(),
            cost: r.cpu_cost,
        })
        .collect();

    // Unlabeled candidate plans from a sample of training queries.
    let optimizer = NativeOptimizer::new(&project.catalog);
    let explorer = PlanExplorer::new(cfg.explorer.clone());
    let mut da_candidates = Vec::new();
    let da_sample: Vec<QuerySpec> = project
        .workload_for_days(0, cfg.train_days.min(5))
        .into_iter()
        .take(cfg.da_queries)
        .collect();
    for q in &da_sample {
        let _s = mcsim_obs::span("optimize");
        let set = explorer.explore(&optimizer, q);
        for (i, c) in set.candidates.into_iter().enumerate() {
            if i != set.default_idx {
                da_candidates.push(c.plan);
            }
        }
    }

    // Test queries from the held-out days, deduplicated by spec identity.
    let mut test_queries: Vec<QuerySpec> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for day in cfg.train_days..cfg.train_days + cfg.test_days {
        for q in project.workload_for_day(day) {
            let key = (q.template, format!("{:?}", q.tables));
            if seen.insert(key) {
                test_queries.push(q);
            }
            if test_queries.len() >= cfg.max_test {
                break;
            }
        }
        if test_queries.len() >= cfg.max_test {
            break;
        }
    }

    if train_samples.is_empty() {
        return Err(LoamError::EmptyWorkload(format!(
            "project {} produced no historical executions over {} training days",
            id.0, cfg.train_days
        )));
    }
    if test_queries.is_empty() {
        return Err(LoamError::EmptyWorkload(format!(
            "project {} produced no test queries over {} held-out days",
            id.0, cfg.test_days
        )));
    }

    let mean_env = repo.mean_stage_env();
    Ok(PreparedProject {
        project,
        repo,
        train_samples,
        da_candidates,
        test_queries,
        mean_env,
    })
}

/// Trains LOAM's adaptive predictor on a prepared project.
///
/// # Errors
///
/// [`LoamError::InvalidConfig`] on bad hyperparameters,
/// [`LoamError::EmptyWorkload`] if `prepared` has no training samples, and
/// [`LoamError::TrainingDiverged`] if any epoch loss came out non-finite.
pub fn train_loam(
    prepared: &PreparedProject,
    cfg: &PipelineConfig,
) -> Result<AdaptiveCostPredictor, LoamError> {
    cfg.validate()?;
    if prepared.train_samples.is_empty() {
        return Err(LoamError::EmptyWorkload(
            "cannot train on zero samples".into(),
        ));
    }
    let mut predictor = AdaptiveCostPredictor::new(cfg.seed ^ 0x10a0, true);
    let report = train(
        &mut predictor,
        &prepared.train_samples,
        &prepared.da_candidates,
        prepared.mean_env,
        &cfg.train_cfg,
    );
    let diverged = report
        .cost_loss
        .iter()
        .chain(report.domain_loss.iter())
        .any(|l| !l.is_finite());
    if diverged {
        return Err(LoamError::TrainingDiverged(format!(
            "non-finite loss after {} epochs (cost_loss: {:?})",
            report.cost_loss.len(),
            report.cost_loss
        )));
    }
    Ok(predictor)
}

/// One test query's evaluated candidate set: plans, synchronized replay
/// costs, and the default-plan index.
#[derive(Debug, Clone)]
pub struct EvaluatedQuery {
    /// The query.
    pub query_id: u64,
    /// Candidate plans (index space of `costs` columns).
    pub plans: Vec<PlanTree>,
    /// Synchronized replay costs, `costs[round][plan]`.
    pub costs: Vec<Vec<f64>>,
    /// Index of the default plan.
    pub default_idx: usize,
}

impl EvaluatedQuery {
    /// Mean observed cost of candidate `idx`.
    pub fn mean_cost(&self, idx: usize) -> f64 {
        self.costs.iter().map(|r| r[idx]).sum::<f64>() / self.costs.len().max(1) as f64
    }

    /// Mean cost of the default plan.
    pub fn default_cost(&self) -> f64 {
        self.mean_cost(self.default_idx)
    }

    /// Mean per-round minimum (the oracle's expected cost).
    pub fn oracle_cost(&self) -> f64 {
        self.costs
            .iter()
            .map(|r| r.iter().cloned().fold(f64::MAX, f64::min))
            .sum::<f64>()
            / self.costs.len().max(1) as f64
    }
}

/// Explores and flighting-replays every test query's candidate set.
///
/// # Errors
///
/// [`LoamError::InvalidConfig`] on a bad configuration,
/// [`LoamError::EmptyWorkload`] if `prepared` holds no test queries, and
/// [`LoamError::PlanInvalid`] if a generated candidate fails structural
/// validation.
pub fn evaluate_candidates(
    prepared: &PreparedProject,
    cfg: &PipelineConfig,
) -> Result<Vec<EvaluatedQuery>, LoamError> {
    evaluate_candidates_traced(prepared, cfg, None)
}

/// Like [`evaluate_candidates`], but additionally records a per-query span
/// tree (`query` → `optimize`/`execute`, with query-id and candidate-count
/// attributes) into `trace` (when `Some`). Replay timelines are deliberately
/// *not* traced here — candidates × rounds × stages would swamp the trace;
/// [`mcsim_exec::Executor::run`] one representative query with a trace for
/// a machine-level timeline.
///
/// # Errors
///
/// Same as [`evaluate_candidates`].
pub fn evaluate_candidates_traced(
    prepared: &PreparedProject,
    cfg: &PipelineConfig,
    trace: Option<&TraceContext>,
) -> Result<Vec<EvaluatedQuery>, LoamError> {
    cfg.validate()?;
    if prepared.test_queries.is_empty() {
        return Err(LoamError::EmptyWorkload(
            "no test queries to evaluate".into(),
        ));
    }
    let optimizer = NativeOptimizer::new(&prepared.project.catalog);
    let explorer = PlanExplorer::new(cfg.explorer.clone());
    let mut flighting = Flighting::new(cfg.seed ^ 0xf1f1, prepared.project.profile.env_noise_sigma);
    prepared
        .test_queries
        .iter()
        .map(|q| {
            let q_span = trace.map(|t| {
                let s = t.span("query");
                s.attr("query_id", q.id);
                s
            });
            let set = {
                let _s = mcsim_obs::span("optimize");
                let _ts = trace.map(|t| t.span("optimize"));
                explorer.explore(&optimizer, q)
            };
            let plans: Vec<PlanTree> = set.candidates.iter().map(|c| c.plan.clone()).collect();
            if let Some(s) = &q_span {
                s.attr("candidates", plans.len());
            }
            for p in &plans {
                p.validate().map_err(|e| {
                    LoamError::PlanInvalid(format!("candidate for query {}: {e}", q.id))
                })?;
            }
            let refs: Vec<&PlanTree> = plans.iter().collect();
            let costs = {
                let _s = mcsim_obs::span("execute");
                let _ts = trace.map(|t| {
                    let s = t.span("execute");
                    s.attr("rounds", cfg.eval_rounds);
                    s
                });
                flighting.replay_synchronized(&refs, &prepared.project.catalog, cfg.eval_rounds)
            };
            Ok(EvaluatedQuery {
                query_id: q.id,
                plans,
                costs,
                default_idx: set.default_idx,
            })
        })
        .collect()
}

/// Summary of one model's plan selections over an evaluated workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelEvaluation {
    /// Display name.
    pub name: String,
    /// Average observed cost of the model's chosen plans.
    pub avg_cost: f64,
    /// Per-query (default cost, chosen cost) pairs.
    pub per_query: Vec<(f64, f64)>,
    /// Mean deviance statistics of the model's choices.
    pub deviance: Deviance,
    /// Average model inference time per query, seconds.
    pub inference_seconds: f64,
}

/// Evaluates a cost model on pre-replayed candidate sets: the model picks
/// per query, and its pick is scored against the same synchronized cost
/// matrices every other model sees.
///
/// Queries are scored independently, so selection fans out across the
/// global pool; the order-preserved results are folded serially, giving the
/// same evaluation as a serial loop.
pub fn evaluate_model<M: CostModel + Sync + ?Sized>(
    model: &M,
    strategy: &EnvStrategy,
    evaluated: &[EvaluatedQuery],
) -> Result<ModelEvaluation, LoamError> {
    evaluate_model_traced(model, strategy, evaluated, None)
}

/// Like [`evaluate_model`], but additionally records an `infer` span and a
/// full [plan-selection decision](mcsim_obs::trace::Decision::PlanSelection)
/// per query into `trace` (when `Some`). Selection still fans out across
/// the thread pool — worker spans land on their own trace tracks.
///
/// # Errors
///
/// Same as [`evaluate_model`].
pub fn evaluate_model_traced<M: CostModel + Sync + ?Sized>(
    model: &M,
    strategy: &EnvStrategy,
    evaluated: &[EvaluatedQuery],
    trace: Option<&TraceContext>,
) -> Result<ModelEvaluation, LoamError> {
    if evaluated.is_empty() {
        return Err(LoamError::EmptyWorkload(
            "need at least one evaluated query".into(),
        ));
    }
    let started = std::time::Instant::now();
    let choices: Vec<usize> = mcsim_par::ThreadPool::global().parallel_map(evaluated, |eq| {
        let refs: Vec<&PlanTree> = eq.plans.iter().collect();
        let _s = mcsim_obs::span("infer");
        let _ts = trace.map(|t| {
            let s = t.span("infer");
            s.attr("query_id", eq.query_id);
            s
        });
        let (best, costs) = select_plan(model, &refs, strategy);
        guarded_choice_traced(
            &refs,
            &costs,
            best,
            eq.default_idx,
            DEFAULT_MARGIN,
            trace,
            eq.query_id,
        )
    });
    let mut per_query = Vec::with_capacity(evaluated.len());
    let mut dev_sum = 0.0;
    let mut oracle_sum = 0.0;
    let mut total_cost = 0.0;
    for (eq, &choice) in evaluated.iter().zip(&choices) {
        let chosen_cost = eq.mean_cost(choice);
        total_cost += chosen_cost;
        per_query.push((eq.default_cost(), chosen_cost));
        let d = deviance_of_choice(&eq.costs, choice);
        dev_sum += d.expected;
        oracle_sum += d.oracle_cost;
    }
    let inference_seconds = started.elapsed().as_secs_f64() / evaluated.len() as f64;
    let n = evaluated.len() as f64;
    let expected = dev_sum / n;
    let oracle_cost = oracle_sum / n;
    Ok(ModelEvaluation {
        name: model.name().to_string(),
        avg_cost: total_cost / n,
        per_query,
        deviance: Deviance {
            expected,
            relative: if oracle_cost > 0.0 {
                expected / oracle_cost
            } else {
                0.0
            },
            oracle_cost,
        },
        inference_seconds,
    })
}

/// The native optimizer's performance (always picking the default plan).
///
/// # Errors
///
/// [`LoamError::EmptyWorkload`] if `evaluated` is empty.
pub fn evaluate_native(evaluated: &[EvaluatedQuery]) -> Result<ModelEvaluation, LoamError> {
    if evaluated.is_empty() {
        return Err(LoamError::EmptyWorkload(
            "need at least one evaluated query".into(),
        ));
    }
    let mut per_query = Vec::with_capacity(evaluated.len());
    let mut dev_sum = 0.0;
    let mut oracle_sum = 0.0;
    let mut total = 0.0;
    for eq in evaluated {
        let c = eq.default_cost();
        total += c;
        per_query.push((c, c));
        let d = deviance_of_choice(&eq.costs, eq.default_idx);
        dev_sum += d.expected;
        oracle_sum += d.oracle_cost;
    }
    let n = evaluated.len() as f64;
    let expected = dev_sum / n;
    let oracle_cost = oracle_sum / n;
    Ok(ModelEvaluation {
        name: "MaxCompute".to_string(),
        avg_cost: total / n,
        per_query,
        deviance: Deviance {
            expected,
            relative: if oracle_cost > 0.0 {
                expected / oracle_cost
            } else {
                0.0
            },
            oracle_cost,
        },
        inference_seconds: 0.0,
    })
}

/// The best-achievable model M_b (minimum expected cost per query) — the
/// dashed line of Figures 6 and 8.
///
/// # Errors
///
/// [`LoamError::EmptyWorkload`] if `evaluated` is empty.
pub fn evaluate_best_achievable(
    evaluated: &[EvaluatedQuery],
) -> Result<ModelEvaluation, LoamError> {
    if evaluated.is_empty() {
        return Err(LoamError::EmptyWorkload(
            "need at least one evaluated query".into(),
        ));
    }
    let mut per_query = Vec::with_capacity(evaluated.len());
    let mut dev_sum = 0.0;
    let mut oracle_sum = 0.0;
    let mut total = 0.0;
    for eq in evaluated {
        let d = best_achievable_deviance(&eq.costs);
        let choice_cost = d.expected + d.oracle_cost;
        total += choice_cost;
        per_query.push((eq.default_cost(), choice_cost));
        dev_sum += d.expected;
        oracle_sum += d.oracle_cost;
    }
    let n = evaluated.len() as f64;
    let expected = dev_sum / n;
    let oracle_cost = oracle_sum / n;
    Ok(ModelEvaluation {
        name: "Best-achievable".to_string(),
        avg_cost: total / n,
        per_query,
        deviance: Deviance {
            expected,
            relative: if oracle_cost > 0.0 {
                expected / oracle_cost
            } else {
                0.0
            },
            oracle_cost,
        },
        inference_seconds: 0.0,
    })
}

/// The exact improvement space `D(M_d)` of a project, relative form —
/// computed from evaluated candidate sets (Appendix E.1's role in
/// Section 7.1).
///
/// # Errors
///
/// [`LoamError::EmptyWorkload`] if `evaluated` is empty.
pub fn project_improvement_space(evaluated: &[EvaluatedQuery]) -> Result<f64, LoamError> {
    Ok(evaluate_native(evaluated)?.deviance.relative)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_profile() -> ProjectProfile {
        let mut prof = ProjectProfile::evaluation_project(2).unwrap();
        prof.n_tables = 18;
        prof.n_temp_tables = 2;
        prof.n_columns = 130;
        prof.n_templates = 10;
        prof.n_query_day0 = 15.0;
        prof
    }

    fn tiny_cfg() -> PipelineConfig {
        PipelineConfig {
            train_days: 3,
            test_days: 2,
            max_train: 40,
            max_test: 10,
            eval_rounds: 3,
            da_queries: 8,
            train_cfg: TrainConfig {
                epochs: 2,
                ..TrainConfig::default()
            },
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn prepare_produces_train_and_test_data() {
        let prepared = prepare_project(&tiny_profile(), ProjectId(9), &tiny_cfg()).unwrap();
        assert!(!prepared.train_samples.is_empty());
        assert!(!prepared.test_queries.is_empty());
        assert!(!prepared.da_candidates.is_empty());
        assert!(prepared.mean_env.cpu_idle > 0.0);
    }

    #[test]
    fn end_to_end_small_pipeline_runs() {
        let cfg = tiny_cfg();
        let prepared = prepare_project(&tiny_profile(), ProjectId(9), &cfg).unwrap();
        let evaluated = evaluate_candidates(&prepared, &cfg).unwrap();
        assert!(!evaluated.is_empty());
        for eq in &evaluated {
            assert_eq!(eq.costs.len(), cfg.eval_rounds);
            assert!(eq.default_idx < eq.plans.len());
            assert!(eq.oracle_cost() <= eq.default_cost() + 1e-9);
        }

        let native = evaluate_native(&evaluated).unwrap();
        let best = evaluate_best_achievable(&evaluated).unwrap();
        // Theorem 1 at workload level: best-achievable deviance ≤ native's.
        assert!(best.deviance.expected <= native.deviance.expected + 1e-9);
        assert!(best.avg_cost <= native.avg_cost + 1e-9);

        let predictor = train_loam(&prepared, &cfg).unwrap();
        let strategy = EnvStrategy::MeanHistorical(prepared.mean_env);
        let loam = evaluate_model(&predictor, &strategy, &evaluated).unwrap();
        assert!(loam.avg_cost.is_finite() && loam.avg_cost > 0.0);
        assert!(loam.deviance.expected >= best.deviance.expected - 1e-9);
        assert_eq!(loam.per_query.len(), evaluated.len());
    }

    /// History records and flighting replay costs are identical at pools
    /// of 1, 2 and 8 threads.
    #[test]
    fn history_and_flighting_are_identical_at_1_and_2_threads() {
        let cfg = tiny_cfg();
        let run = |threads| {
            mcsim_par::with_threads(threads, || {
                let prepared = prepare_project(&tiny_profile(), ProjectId(12), &cfg).unwrap();
                let evaluated = evaluate_candidates(&prepared, &cfg).unwrap();
                let costs: Vec<(u64, usize, Vec<u64>)> = evaluated
                    .iter()
                    .map(|eq| {
                        let bits = eq.costs.concat().iter().map(|c| c.to_bits()).collect();
                        (eq.query_id, eq.default_idx, bits)
                    })
                    .collect();
                (prepared.repo.records().to_vec(), costs)
            })
        };
        let (records, costs) = run(1);
        assert!(!records.is_empty() && !costs.is_empty());
        for threads in [2, 8] {
            let (records2, costs2) = run(threads);
            assert_eq!(
                records2, records,
                "history records differ at {threads} threads"
            );
            assert_eq!(costs2, costs, "replay costs differ at {threads} threads");
        }
    }

    #[test]
    fn improvement_space_is_nonnegative() {
        let cfg = tiny_cfg();
        let prepared = prepare_project(&tiny_profile(), ProjectId(10), &cfg).unwrap();
        let evaluated = evaluate_candidates(&prepared, &cfg).unwrap();
        let d = project_improvement_space(&evaluated).unwrap();
        assert!(d >= 0.0);
    }

    #[test]
    fn invalid_configs_are_rejected_up_front() {
        let bad = PipelineConfig {
            train_days: 0,
            ..tiny_cfg()
        };
        let err = prepare_project(&tiny_profile(), ProjectId(11), &bad).unwrap_err();
        assert!(matches!(err, super::LoamError::InvalidConfig(_)), "{err}");

        assert!(PipelineConfig::builder().eval_rounds(0).build().is_err());
        assert!(PipelineConfig::builder()
            .train_cfg(TrainConfig {
                lr: 0.0,
                ..TrainConfig::default()
            })
            .build()
            .is_err());
        let ok = PipelineConfig::builder()
            .train_days(3)
            .test_days(2)
            .max_train(40)
            .max_test(10)
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(ok.train_days, 3);
        assert_eq!(ok.seed, 7);
    }

    #[test]
    fn empty_evaluations_are_typed_errors_not_panics() {
        assert!(matches!(
            evaluate_native(&[]),
            Err(super::LoamError::EmptyWorkload(_))
        ));
        assert!(matches!(
            evaluate_best_achievable(&[]),
            Err(super::LoamError::EmptyWorkload(_))
        ));
    }
}
