//! # mcsim-exec
//!
//! The distributed execution simulator: a multi-tenant cluster whose machine
//! loads evolve stochastically with a diurnal cycle, a Fuxi-like allocator
//! that prefers idle machines, ground-truth cost physics built on exact
//! cardinalities, and a flighting environment for unbiased replays.
//!
//! This crate supplies the phenomena the LOAM paper's challenges are built
//! on: per-stage resource allocation and varying loads produce up-to-50 %
//! CPU-cost fluctuation for recurring queries (Figure 1), costs couple
//! roughly linearly to load metrics (Figure 5), and repeated executions are
//! log-normally distributed (Figure 15 / Appendix E.1).
//!
//! ## Example
//!
//! ```
//! use mcsim_catalog::{ProjectProfile, ProjectId};
//! use mcsim_exec::{Cluster, ClusterConfig, Executor};
//! use mcsim_optimizer::{NativeOptimizer, Knobs};
//!
//! let mut prof = ProjectProfile::evaluation_project(1).unwrap();
//! prof.n_tables = 12; prof.n_temp_tables = 2; prof.n_columns = 90; prof.n_templates = 6;
//! let project = prof.generate(ProjectId(1));
//! let opt = NativeOptimizer::new(&project.catalog);
//! let plan = opt.optimize(&project.workload_for_day(0)[0], &Knobs::default());
//!
//! let mut exec = Executor::new(1, Cluster::new(1, ClusterConfig::default()), 0.2);
//! let outcome = exec.execute(&plan, &project.catalog);
//! assert!(outcome.cpu_cost > 0.0);
//! ```

pub mod chaos;
pub mod cluster;
pub mod envmodel;
pub mod execute;
pub mod fault;
pub mod flighting;
pub mod history;
pub mod load;
pub mod machine;

pub use chaos::ChaosScenario;
pub use cluster::{
    Cluster, ClusterConfig, ClusterConfigBuilder, EngineMode, EngineStats, InvalidClusterConfig,
    TICKS_PER_DAY,
};
pub use envmodel::EnvModel;
pub use execute::{ExecPlan, ExecutionOutcome, Executor};
pub use fault::{ExecFailure, FaultConfig, FaultEvent, FaultState, RetryPolicy};
pub use flighting::Flighting;
pub use history::{build_history, execute_and_log, HistoryOptions};
pub use load::{seed_stream, splitmix64, LoadModel, OU_WINDOW};
pub use machine::{LoadDynamics, Machine};
