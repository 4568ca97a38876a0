//! # loam
//!
//! A reproduction of *"Learned Query Optimizer in Alibaba MaxCompute:
//! Challenges, Analysis, and Solutions"*: the LOAM framework plus the full
//! simulated substrate it needs — a MaxCompute-like query optimizer, a
//! multi-tenant cluster with stochastic load, ground-truth cost physics, and
//! from-scratch neural-network / gradient-boosting libraries.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`mcsim_plan`] — physical plan algebra and stage decomposition;
//! * [`mcsim_catalog`] — projects, synthetic schemas/workloads, the
//!   historical query repository;
//! * [`mcsim_optimizer`] — the native cost-based optimizer with its six
//!   steering flags and cardinality-scaling knob;
//! * [`mcsim_exec`] — the execution simulator and flighting environment;
//! * [`tinynn`] / [`tinygbdt`] — the learning substrates;
//! * [`loam_core`] — LOAM itself: statistics-free featurization, the
//!   adaptive cost predictor with adversarial domain adaptation, inference
//!   strategies under invisible environments, deviance theory, and the
//!   project selector.
//!
//! ## Example
//!
//! ```
//! use loam::prelude::*;
//!
//! let mut profile = ProjectProfile::evaluation_project(1).unwrap();
//! profile.n_tables = 15; profile.n_temp_tables = 2;
//! profile.n_columns = 120; profile.n_templates = 8;
//! let project = profile.generate(ProjectId(1));
//! let optimizer = NativeOptimizer::new(&project.catalog);
//! let query = &project.workload_for_day(0)[0];
//! let plan = optimizer.optimize(query, &Knobs::default());
//! assert!(plan.validate().is_ok());
//! ```

pub use loam_core;
pub use mcsim_catalog;
pub use mcsim_exec;
pub use mcsim_obs;
pub use mcsim_optimizer;
pub use mcsim_plan;
pub use mcsim_serve;
pub use tinygbdt;
pub use tinynn;

/// The most commonly used types, re-exported flat.
///
/// Everything a pipeline driver needs — configuration builders, the
/// `Result`-based entry points with their [`LoamError`](loam_core::LoamError)
/// error type, the
/// deployment gate, persistence, and the observability recorder — is
/// reachable from here without `loam_core::...` paths.
pub mod prelude {
    pub use loam_core::error::LoamError;
    pub use loam_core::explorer::{Candidate, CandidateSet, ExplorerConfig, PlanExplorer};
    pub use loam_core::gate::{self, GateConfig, GateReport};
    pub use loam_core::inference::{select_plan, EnvStrategy, DEFAULT_MARGIN};
    pub use loam_core::persist::{
        load_predictor, load_ranker, save_predictor, save_ranker, PersistError,
    };
    pub use loam_core::pipeline::{
        evaluate_best_achievable, evaluate_candidates, evaluate_candidates_traced, evaluate_model,
        evaluate_model_traced, evaluate_native, prepare_project, project_improvement_space,
        train_loam, EvaluatedQuery, ModelEvaluation, PipelineConfig, PipelineConfigBuilder,
        PreparedProject,
    };
    pub use loam_core::predictor::baselines::CostModel;
    pub use loam_core::predictor::train::{train, TrainConfig, TrainReport, TrainSample};
    pub use loam_core::selector::{evaluate_filter, ranker_features, FilterConfig, Ranker};
    pub use loam_core::theory::{Deviance, KsTest, LogNormal};
    pub use loam_core::{AdaptiveCostPredictor, EnvSource, PlanFeaturizer};
    pub use mcsim_catalog::{
        Catalog, EnvMetrics, Project, ProjectId, ProjectProfile, QueryRepository, QuerySpec,
    };
    pub use mcsim_exec::{
        build_history, ChaosScenario, Cluster, ClusterConfig, ClusterConfigBuilder, EngineMode,
        EngineStats, ExecFailure, Executor, FaultConfig, FaultEvent, Flighting, HistoryOptions,
        InvalidClusterConfig, RetryPolicy,
    };
    pub use mcsim_obs::trace::{
        CandidateScore, Decision, Fallback, GateVerdict, PlanSelection, ProjectFilter,
        ProjectRanking, SelectionOutcome, StageExecEvent, TraceContext, TraceSpan,
    };
    pub use mcsim_obs::{InMemoryRecorder, MetricsSnapshot, NoopRecorder, Recorder};
    pub use mcsim_optimizer::{Knobs, NativeOptimizer, OptimizerFlags};
    pub use mcsim_plan::{Operator, PlanSignature, PlanTree};
    pub use mcsim_serve::{
        ArrivalProfile, DecisionCache, DecisionRecord, RequestOutcome, Resolution, ServeConfig,
        ServeReport, ServeSession, ShedPolicy,
    };
}
