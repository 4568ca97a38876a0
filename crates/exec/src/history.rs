//! Building per-project historical query repositories.
//!
//! Runs a project's daily workloads through the native optimizer and the
//! execution simulator, logging every execution — the data foundation LOAM
//! trains from (Section 2.1, step 4).

use crate::cluster::{Cluster, ClusterConfig, TICKS_PER_DAY};
use crate::execute::{infallible, ExecPlan, Executor};
use mcsim_catalog::repository::{ExecutionRecord, QueryRepository};
use mcsim_catalog::{Project, QuerySpec};
use mcsim_optimizer::{Knobs, NativeOptimizer};
use mcsim_plan::PlanTree;

/// Options for history generation.
#[derive(Debug, Clone)]
pub struct HistoryOptions {
    /// Days to simulate (queries on days `0..days`).
    pub days: i64,
    /// Hard cap on total logged queries (the paper caps training sets at
    /// 10,000; experiments at reduced scale cap lower).
    pub max_queries: usize,
    /// Cluster configuration for the production pool.
    pub cluster: ClusterConfig,
    /// Seed for the production cluster and noise.
    pub seed: u64,
}

impl Default for HistoryOptions {
    fn default() -> Self {
        HistoryOptions {
            days: 30,
            max_queries: usize::MAX,
            cluster: ClusterConfig::default(),
            seed: 0x1157,
        }
    }
}

/// Executes `project`'s workload day by day with the native optimizer's
/// default plans and logs everything into a repository.
///
/// Between queries the cluster advances so consecutive queries see different
/// environments; between days it advances the remainder of the day, so the
/// diurnal cycle is honoured.
///
/// A default plan and its [`ExecPlan`] depend only on the query, the
/// catalog and the work model, so each day's plans (capped at the queries
/// still allowed) are built and compiled across the `mcsim_par` pool; they
/// then execute in order on the one shared cluster.
pub fn build_history(project: &Project, opts: &HistoryOptions) -> QueryRepository {
    let cluster = Cluster::new(opts.seed, opts.cluster.clone());
    let mut executor = Executor::new(opts.seed, cluster, project.profile.env_noise_sigma);
    executor.cluster.advance(200); // warm-up
    let optimizer = NativeOptimizer::new(&project.catalog);

    let mut repo = QueryRepository::new();
    'outer: for day in 0..opts.days {
        let remaining = opts.max_queries.saturating_sub(repo.len());
        if remaining == 0 {
            break;
        }
        let day_start_tick = executor.cluster.tick_count();
        let queries = project.workload_for_day(day);
        let per_query_gap = (TICKS_PER_DAY / (queries.len() as u64 + 1)).clamp(1, 120);
        let queries = &queries[..queries.len().min(remaining)];
        let plans = mcsim_par::ThreadPool::global().parallel_map(queries, |q| {
            let plan = optimizer.optimize(q, &Knobs::default());
            let compiled = executor.compile(&plan, &project.catalog);
            (plan, compiled)
        });
        for (q, (plan, compiled)) in queries.iter().zip(plans) {
            let record = execute_and_log(&mut executor, project, q, plan, &compiled, true);
            repo.push(record);
            if repo.len() >= opts.max_queries {
                break 'outer;
            }
            executor.cluster.advance(per_query_gap);
        }
        // Finish out the day.
        let elapsed = executor.cluster.tick_count() - day_start_tick;
        if elapsed < TICKS_PER_DAY {
            executor.cluster.advance(TICKS_PER_DAY - elapsed);
        }
    }
    repo
}

/// Executes `plan` through `compiled`, its [`Executor::compile`] under
/// `executor`'s work model, and produces its log record.
pub fn execute_and_log(
    executor: &mut Executor,
    project: &Project,
    query: &QuerySpec,
    plan: PlanTree,
    compiled: &ExecPlan,
    is_default: bool,
) -> ExecutionRecord {
    let outcome = infallible(executor.run(compiled, None, None));
    ExecutionRecord {
        query_id: query.id,
        template: query.template,
        project: project.id,
        day: query.day,
        signature: compiled.signature(),
        plan,
        stage_envs: outcome.stage_envs,
        cpu_cost: outcome.cpu_cost,
        latency: outcome.latency,
        is_default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim_catalog::{ProjectId, ProjectProfile};

    #[test]
    fn history_logs_every_query_up_to_cap() {
        let mut prof = ProjectProfile::evaluation_project(1).unwrap();
        prof.n_tables = 15;
        prof.n_temp_tables = 2;
        prof.n_columns = 120;
        prof.n_templates = 8;
        prof.n_query_day0 = 20.0;
        let project = prof.generate(ProjectId(1));
        let repo = build_history(
            &project,
            &HistoryOptions {
                days: 3,
                max_queries: 50,
                ..HistoryOptions::default()
            },
        );
        assert_eq!(repo.len(), 50);
        assert!(repo.records().iter().all(|r| r.cpu_cost > 0.0));
        assert!(repo.records().iter().all(|r| r.is_default));
        // Recurring templates appear multiple times.
        let groups = repo.recurring_groups(2);
        assert!(!groups.is_empty());
    }

    #[test]
    fn zero_query_cap_gives_an_empty_repository() {
        let mut prof = ProjectProfile::evaluation_project(1).unwrap();
        prof.n_tables = 12;
        prof.n_temp_tables = 2;
        prof.n_columns = 100;
        prof.n_templates = 6;
        let project = prof.generate(ProjectId(3));
        let repo = build_history(
            &project,
            &HistoryOptions {
                days: 2,
                max_queries: 0,
                ..HistoryOptions::default()
            },
        );
        assert_eq!(repo.len(), 0);
    }

    #[test]
    fn history_spans_requested_days() {
        let mut prof = ProjectProfile::evaluation_project(1).unwrap();
        prof.n_tables = 12;
        prof.n_temp_tables = 2;
        prof.n_columns = 100;
        prof.n_templates = 6;
        prof.n_query_day0 = 5.0;
        let project = prof.generate(ProjectId(2));
        let repo = build_history(
            &project,
            &HistoryOptions {
                days: 4,
                ..HistoryOptions::default()
            },
        );
        let days: std::collections::BTreeSet<i64> = repo.records().iter().map(|r| r.day).collect();
        assert_eq!(days.into_iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }
}
