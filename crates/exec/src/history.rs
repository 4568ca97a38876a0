//! Building per-project historical query repositories.
//!
//! Runs a project's daily workloads through the native optimizer and the
//! execution simulator, logging every execution — the data foundation LOAM
//! trains from (Section 2.1, step 4).
//!
//! Execution is split in two (see [`crate::execute`]): placing a query
//! touches the one shared cluster, so queries are placed in order, one day
//! after another, on one thread; measuring a placed query reads only its
//! placement, so it runs anywhere. History therefore runs as a pipeline
//! over days. While day `d` is placed, day `d − 1`'s finished, read-only
//! placements are measured in chunks on the rest of the `mcsim_par` pool,
//! and the placing thread joins the measuring once it is done. Records
//! are identical, at any pool size, to executing each query in order.

use crate::cluster::{Cluster, ClusterConfig, TICKS_PER_DAY};
use crate::execute::{infallible, measure, ExecPlan, ExecutionOutcome, Executor, Placement};
use mcsim_catalog::repository::{ExecutionRecord, QueryRepository};
use mcsim_catalog::{Project, QuerySpec};
use mcsim_optimizer::{Knobs, NativeOptimizer};
use mcsim_plan::PlanTree;

/// Queries per measuring job of the history pipeline. Chunks only
/// schedule the work: each query is measured alone, so results do not
/// depend on the chunking.
const MEASURE_CHUNK: usize = 16;

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

/// One day of history on its way through the pipeline: its (capped)
/// queries and the ticks between them, its default plans, and where they
/// were placed.
struct Day {
    queries: Vec<QuerySpec>,
    gap: u64,
    plans: Vec<(PlanTree, ExecPlan)>,
    placements: Vec<Placement>,
}

/// One job of a pipeline step.
enum Job<'a> {
    /// Place a day on the shared executor.
    Place(&'a mut Executor, &'a mut Day),
    /// Measure a chunk of a day's placements.
    Measure {
        plans: &'a [(PlanTree, ExecPlan)],
        placed: &'a [Placement],
        out: &'a mut [Option<ExecutionOutcome>],
    },
}

/// Executes `project`'s workload day by day with the native optimizer's
/// default plans and logs everything into a repository.
///
/// Between queries the cluster advances so consecutive queries see different
/// environments; between days it advances the remainder of the day, so the
/// diurnal cycle is honoured.
///
/// Every query yields one record, so the query cap fixes each day's
/// queries before any of them runs. A day's default plans and their
/// [`ExecPlan`]s depend only on the queries, the catalog and the work
/// model, so they are built and compiled across the `mcsim_par` pool.
/// The days then flow through the pipeline of the [module docs](self),
/// one `ThreadPool::for_each` per step: day `d` is placed on the shared
/// executor while day `d − 1` is measured in chunks on the rest of the
/// pool. A day's plans, placements and outcomes are logged or dropped
/// once it is measured, so at most two days' placements are alive at
/// once. At a pool of one thread the jobs run inline, in order.
pub fn build_history(project: &Project, opts: &HistoryOptions) -> QueryRepository {
    let cluster = Cluster::new(opts.seed, opts.cluster.clone());
    let mut executor = Executor::new(opts.seed, cluster, project.profile.env_noise_sigma);
    executor.cluster.advance(200); // warm-up
    let optimizer = NativeOptimizer::new(&project.catalog);
    let (params, physics) = (executor.params.clone(), executor.physics());
    let pool = mcsim_par::ThreadPool::global();

    let mut left = opts.max_queries;
    let mut days = (0..opts.days).map_while(|day| {
        (left > 0).then(|| {
            let mut queries = project.workload_for_day(day);
            let gap = (TICKS_PER_DAY / (queries.len() as u64 + 1)).clamp(1, 120);
            queries.truncate(left);
            left -= queries.len();
            let plans = pool.parallel_map(&queries, |query| {
                let plan = optimizer.optimize(query, &Knobs::default());
                let compiled = ExecPlan::new(&plan, &project.catalog, &params);
                (plan, compiled)
            });
            Day {
                queries,
                gap,
                plans,
                placements: Vec::new(),
            }
        })
    });

    let mut repo = QueryRepository::new();
    let (mut placing, mut measuring) = (days.next(), None::<Day>);
    while placing.is_some() || measuring.is_some() {
        let mut outcomes = vec![None; measuring.as_ref().map_or(0, |day| day.placements.len())];
        let mut jobs = Vec::new();
        if let Some(day) = &mut placing {
            jobs.push(Job::Place(&mut executor, day));
        }
        if let Some(day) = &measuring {
            jobs.extend(
                day.plans
                    .chunks(MEASURE_CHUNK)
                    .zip(day.placements.chunks(MEASURE_CHUNK))
                    .zip(outcomes.chunks_mut(MEASURE_CHUNK))
                    .map(|((plans, placed), out)| Job::Measure { plans, placed, out }),
            );
        }
        pool.for_each(jobs, |job| match job {
            Job::Place(executor, day) => place_day(executor, day),
            Job::Measure { plans, placed, out } => {
                for (((_, plan), placement), slot) in plans.iter().zip(placed).zip(out) {
                    *slot = Some(infallible(measure(plan, placement, physics, None)));
                }
            }
        });

        if let Some(day) = measuring.take() {
            let logged = day.queries.iter().zip(day.plans).zip(outcomes);
            for ((query, (plan, compiled)), outcome) in logged {
                let outcome = outcome.expect("every placement is measured");
                repo.push(ExecutionRecord {
                    query_id: query.id,
                    template: query.template,
                    project: project.id,
                    day: query.day,
                    signature: compiled.signature(),
                    plan,
                    stage_envs: outcome.stage_envs,
                    cpu_cost: outcome.cpu_cost,
                    latency: outcome.latency,
                    is_default: true,
                });
            }
        }
        measuring = placing.take();
        placing = days.next();
    }
    repo
}

/// Places a day's compiled plans on the shared executor, in order and
/// `gap` ticks apart; then runs the cluster out to the end of the day.
fn place_day(executor: &mut Executor, day: &mut Day) {
    let day_start_tick = executor.cluster.tick_count();
    for (_, plan) in &day.plans {
        day.placements.push(executor.place(plan, None));
        executor.cluster.advance(day.gap);
    }
    let elapsed = executor.cluster.tick_count() - day_start_tick;
    if elapsed < TICKS_PER_DAY {
        executor.cluster.advance(TICKS_PER_DAY - elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim_catalog::{ProjectId, ProjectProfile};

    /// The history loop before the day pipeline, kept as
    /// [`build_history`]'s oracle: each query runs through
    /// [`Executor::run`] in order on the one shared cluster, `gap` ticks
    /// apart, and each day runs out its ticks.
    fn serial_history(project: &Project, opts: &HistoryOptions) -> QueryRepository {
        let cluster = Cluster::new(opts.seed, opts.cluster.clone());
        let mut executor = Executor::new(opts.seed, cluster, project.profile.env_noise_sigma);
        executor.cluster.advance(200);
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
            for q in &queries[..queries.len().min(remaining)] {
                let plan = optimizer.optimize(q, &Knobs::default());
                let compiled = executor.compile(&plan, &project.catalog);
                let outcome = infallible(executor.run(&compiled, None, None));
                repo.push(ExecutionRecord {
                    query_id: q.id,
                    template: q.template,
                    project: project.id,
                    day: q.day,
                    signature: compiled.signature(),
                    plan,
                    stage_envs: outcome.stage_envs,
                    cpu_cost: outcome.cpu_cost,
                    latency: outcome.latency,
                    is_default: true,
                });
                if repo.len() >= opts.max_queries {
                    break 'outer;
                }
                executor.cluster.advance(per_query_gap);
            }
            let elapsed = executor.cluster.tick_count() - day_start_tick;
            if elapsed < TICKS_PER_DAY {
                executor.cluster.advance(TICKS_PER_DAY - elapsed);
            }
        }
        repo
    }

    /// The bits of everything a history record logs, cost and environment
    /// included.
    type RecordBits = (u64, u32, i64, u64, u64, u64, Vec<[u64; 4]>, bool);

    fn record_bits(repo: &QueryRepository) -> Vec<RecordBits> {
        repo.records()
            .iter()
            .map(|r| {
                let envs = r
                    .stage_envs
                    .iter()
                    .map(|e| [e.cpu_idle, e.io_wait, e.load5, e.mem_usage].map(f64::to_bits));
                (
                    r.query_id,
                    r.template,
                    r.day,
                    r.signature.0,
                    r.cpu_cost.to_bits(),
                    r.latency.to_bits(),
                    envs.collect(),
                    r.is_default,
                )
            })
            .collect()
    }

    /// The day pipeline logs the serial loop's records bit for bit at
    /// pools of 1, 2 and 8 threads with every fan-out forced on: through a
    /// cap that ends mid-day, a cap of 0, and a day with no queries.
    #[test]
    fn pipelined_history_equals_the_serial_loop_at_1_2_and_8_threads() {
        let profile = |day0: f64, volume_sigma: f64| {
            let mut prof = ProjectProfile::evaluation_project(1).unwrap();
            prof.n_tables = 12;
            prof.n_temp_tables = 2;
            prof.n_columns = 100;
            prof.n_templates = 6;
            prof.n_query_day0 = day0;
            prof.daily_volume_sigma = volume_sigma;
            prof.generate(ProjectId(4))
        };
        let busy = profile(20.0, 0.3);
        let sparse = profile(1.0, 1.2);
        let opts = |days, max_queries| HistoryOptions {
            days,
            max_queries,
            seed: 0x5e7a,
            ..HistoryOptions::default()
        };
        // The cases cover what they claim: a cap of 60 cuts the busy
        // project's day 2 short, and the sparse project's day 4 is empty
        // but day 5 is not.
        let day_sizes = |p: &Project, days| {
            (0..days)
                .map(|d| p.workload_for_day(d).len())
                .collect::<Vec<_>>()
        };
        let (busy_days, sparse_days) = (day_sizes(&busy, 3), day_sizes(&sparse, 6));
        assert!(
            busy_days[0] + busy_days[1] < 60 && 60 < busy_days.iter().sum::<usize>(),
            "{busy_days:?}"
        );
        assert!(sparse_days[4] == 0 && sparse_days[5] > 0, "{sparse_days:?}");
        let cases = [
            (&busy, opts(3, 60), 60),
            (&busy, opts(3, 0), 0),
            (&sparse, opts(6, usize::MAX), sparse_days.iter().sum()),
        ];

        let prev_gate = mcsim_par::set_min_parallel_work(1);
        for (project, opts, records) in &cases {
            let oracle = record_bits(&serial_history(project, opts));
            assert_eq!(oracle.len(), *records);
            for threads in [1, 2, 8] {
                let got = mcsim_par::with_threads(threads, || build_history(project, opts));
                assert_eq!(
                    record_bits(&got),
                    oracle,
                    "{threads} thread(s), cap {}",
                    opts.max_queries
                );
            }
        }
        mcsim_par::set_min_parallel_work(prev_gate);
    }

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
