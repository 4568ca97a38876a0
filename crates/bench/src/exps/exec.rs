//! The `experiments exec` subcommand: the simulation-core scaling
//! benchmark behind the event-driven rewrite.
//!
//! Sweeps the cluster size (1k / 5k / 10k machines) and runs the same
//! seeded query stream through both simulation cores — the dense per-tick
//! reference engine and the event-driven engine with lazy load evaluation
//! — then runs the headline session: 10,000 machines × 1,000,000 queries
//! on the event engine alone. Writes `BENCH_exec.json` with one leg per
//! engine and pool size (`dense_1k`, `event_1k`, ...) plus the `headline`
//! leg, each carrying its pool size, query count and engine counters.
//!
//! Machine-failure rates are normalized to the pool (`FaultConfig::chaos`
//! is calibrated for 200 machines), so every sweep level injects the same
//! absolute fault traffic and the comparison across pool sizes is a pure
//! simulation-core measurement.

use crate::report::{Leg, TimingReport};
use crate::scale::Scale;
use mcsim_exec::{ChaosScenario, ClusterConfig, EngineMode, EngineStats, Executor, FaultConfig};
use mcsim_optimizer::{Knobs, NativeOptimizer};
use mcsim_plan::PlanTree;

/// Seed of every leg: cluster trajectories, faults, and noise all derive
/// from it, so the dense and event legs replay the identical scenario.
const SEED: u64 = 0xe8ec;

/// Pool size `FaultConfig::chaos` rates are calibrated for.
const CHAOS_REFERENCE_POOL: f64 = 200.0;

/// The sweep's query template library: a small project's day-0 workload,
/// optimized once. The benchmark cycles through these plans — recurring
/// queries, exactly the paper's workload shape.
fn workload() -> (mcsim_catalog::Project, Vec<PlanTree>) {
    let mut prof = mcsim_catalog::ProjectProfile::evaluation_project(1).expect("profile 1");
    prof.n_tables = 16;
    prof.n_temp_tables = 2;
    prof.n_columns = 120;
    prof.n_templates = 8;
    let project = prof.generate(mcsim_catalog::ProjectId(1));
    let opt = NativeOptimizer::new(&project.catalog);
    let plans: Vec<PlanTree> = project
        .workload_for_day(0)
        .iter()
        .take(8)
        .map(|q| opt.optimize(q, &Knobs::default()))
        .collect();
    assert!(!plans.is_empty(), "day-0 workload must not be empty");
    (project, plans)
}

/// The fault configuration of a leg: chaos rates with the machine-failure
/// probability normalized to the pool size.
fn leg_faults(machines: usize) -> FaultConfig {
    let base = FaultConfig::chaos(SEED ^ 0xfa);
    FaultConfig {
        machine_fail_prob: base.machine_fail_prob * CHAOS_REFERENCE_POOL / machines as f64,
        ..base
    }
}

/// A fault-armed executor over a pool of `machines` running `engine`.
fn leg_executor(machines: usize, engine: EngineMode) -> Executor {
    let cfg = ClusterConfig::builder()
        .n_machines(machines)
        .engine(engine)
        .build()
        .expect("valid sweep config");
    ChaosScenario::new(SEED)
        .cluster(cfg)
        .fault(leg_faults(machines))
        .warmup_ticks(60)
        .build()
}

/// What one engine leg measured.
#[derive(Debug, Clone, Copy)]
pub struct LegResult {
    /// Wall-clock seconds for the whole query stream.
    pub wall_s: f64,
    /// Engine work counters at the end of the leg.
    pub stats: EngineStats,
    /// Sum of every completed query's CPU cost (the bit pattern is the
    /// cross-engine identity check).
    pub total_cost: f64,
    /// Queries that completed.
    pub completed: usize,
    /// Queries that exhausted their retry budget.
    pub failed: usize,
}

/// Runs `queries` executions round-robin over `plans` on one engine.
pub fn run_leg(
    machines: usize,
    queries: usize,
    engine: EngineMode,
    plans: &[PlanTree],
    catalog: &mcsim_catalog::Catalog,
) -> LegResult {
    let mut exec = leg_executor(machines, engine);
    let mut total_cost = 0.0f64;
    let (mut completed, mut failed) = (0usize, 0usize);
    let t = std::time::Instant::now();
    for i in 0..queries {
        match exec.try_execute(&plans[i % plans.len()], catalog) {
            Ok(out) => {
                total_cost += out.cpu_cost;
                completed += 1;
            }
            Err(_) => failed += 1,
        }
    }
    let wall_s = t.elapsed().as_secs_f64();
    // In dense mode the checksum proves the eager per-tick work ran.
    if engine == EngineMode::DenseTick {
        assert!(exec.cluster.dense_checksum() != 0.0);
    }
    LegResult {
        wall_s,
        stats: exec.cluster.engine_stats(),
        total_cost,
        completed,
        failed,
    }
}

/// One sweep level: the same scenario on both engines.
pub struct LevelOutcome {
    /// Machines in the pool.
    pub machines: usize,
    /// Queries per engine leg.
    pub queries: usize,
    /// The dense per-tick reference leg.
    pub dense: LegResult,
    /// The event-driven leg.
    pub event: LegResult,
}

/// The headline event-only session.
pub struct Headline {
    /// Machines in the pool.
    pub machines: usize,
    /// Queries executed.
    pub queries: usize,
    /// The event-engine leg.
    pub leg: LegResult,
}

/// A pool size as a leg-name suffix: `1k` for 1,000 machines.
fn pool_label(machines: usize) -> String {
    if machines.is_multiple_of(1000) {
        format!("{}k", machines / 1000)
    } else {
        machines.to_string()
    }
}

/// The timing leg of one engine run: a serial query loop on one thread.
fn exec_leg(name: impl Into<String>, machines: usize, queries: usize, r: &LegResult) -> Leg {
    let wall = r.wall_s.max(1e-9);
    Leg::new(name, 1, r.wall_s)
        .with("machines", machines as f64)
        .with("queries", queries as f64)
        .with("queries_per_s", queries as f64 / wall)
        .with("events", r.stats.events as f64)
        .with("events_per_s", r.stats.events as f64 / wall)
        .with("lazy_advances", r.stats.lazy_advances as f64)
        .with("heap_peak", r.stats.heap_peak as f64)
        .with("completed", r.completed as f64)
        .with("failed", r.failed as f64)
}

/// Runs the dense-vs-event sweep at every pool size. Returned for
/// inspection — the acceptance tests consume this directly.
pub fn run_levels(pool_sizes: &[usize], queries: usize) -> Vec<LevelOutcome> {
    let (project, plans) = workload();
    pool_sizes
        .iter()
        .map(|&machines| {
            eprintln!("  {machines} machines × {queries} queries, dense reference...");
            let dense = run_leg(
                machines,
                queries,
                EngineMode::DenseTick,
                &plans,
                &project.catalog,
            );
            eprintln!("  {machines} machines × {queries} queries, event engine...");
            let event = run_leg(
                machines,
                queries,
                EngineMode::EventDriven,
                &plans,
                &project.catalog,
            );
            assert_eq!(
                dense.total_cost.to_bits(),
                event.total_cost.to_bits(),
                "engines must replay bit-identically at {machines} machines"
            );
            assert_eq!(dense.completed, event.completed);
            assert_eq!(dense.failed, event.failed);
            LevelOutcome {
                machines,
                queries,
                dense,
                event,
            }
        })
        .collect()
}

/// Runs the event-only headline session.
pub fn run_headline(machines: usize, queries: usize) -> Headline {
    let (project, plans) = workload();
    eprintln!("  headline: {machines} machines × {queries} queries, event engine only...");
    let leg = run_leg(
        machines,
        queries,
        EngineMode::EventDriven,
        &plans,
        &project.catalog,
    );
    Headline {
        machines,
        queries,
        leg,
    }
}

/// Runs the benchmark and writes `BENCH_exec.json`. `quick` restricts the
/// sweep to the 1k pool and skips the headline (the CI smoke); the scale
/// flag sizes the sweep's query stream.
pub fn run(scale: Scale, quick: bool) {
    println!("Exec-core benchmark — dense per-tick reference vs event-driven engine");
    println!("load kernel: {}\n", mcsim_exec::load_kernel());
    let queries = if quick {
        60
    } else {
        ((400.0 * scale.fraction()) as usize).max(100)
    };
    let pool_sizes: &[usize] = if quick {
        &[1_000]
    } else {
        &[1_000, 5_000, 10_000]
    };
    let outcomes = run_levels(pool_sizes, queries);
    let headline = (!quick).then(|| run_headline(10_000, 1_000_000));
    let report = report(scale, &outcomes, headline.as_ref());
    println!("{}", report.table().render());
    report.write();
}

/// One `dense_<pool>` and one `event_<pool>` leg per sweep level, then the
/// `headline` leg when it ran.
fn report(scale: Scale, outcomes: &[LevelOutcome], headline: Option<&Headline>) -> TimingReport {
    let mut report = TimingReport::new("exec", scale);
    for o in outcomes {
        let pool = pool_label(o.machines);
        let leg = |engine: &str, r: &LegResult| {
            exec_leg(format!("{engine}_{pool}"), o.machines, o.queries, r)
        };
        report.legs.push(leg("dense", &o.dense));
        report.legs.push(leg("event", &o.event));
    }
    if let Some(h) = headline {
        report
            .legs
            .push(exec_leg("headline", h.machines, h.queries, &h.leg));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bench workload replays bit-identically on both engines — the
    /// assertion `run_levels` enforces at every sweep level, exercised at
    /// a test-sized pool.
    #[test]
    fn engines_agree_on_the_bench_workload() {
        let levels = run_levels(&[64], 12);
        assert_eq!(levels.len(), 1);
        let l = &levels[0];
        assert_eq!(l.dense.total_cost.to_bits(), l.event.total_cost.to_bits());
        assert_eq!(l.dense.completed + l.dense.failed, 12);
        assert!(
            l.event.stats.lazy_advances > 0,
            "the event leg must evaluate lazily"
        );
        assert!(
            l.event.stats.lazy_advances >= l.dense.stats.lazy_advances,
            "the event leg counts allocator reads plus lazy load evaluations; \
             the dense leg counts only allocator reads"
        );
    }

    /// Each level yields a dense and an event leg carrying the scaling
    /// facts, and the headline its own leg.
    #[test]
    fn timing_report_names_each_engine_leg() {
        let levels = run_levels(&[48], 8);
        let headline = Headline {
            machines: 48,
            queries: 8,
            leg: levels[0].event,
        };
        let r = report(Scale::Small, &levels, Some(&headline));
        assert_eq!(r.bench, "exec");
        let names: Vec<&str> = r.legs.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, ["dense_48", "event_48", "headline"]);
        let event = r.leg("event_48").expect("event leg");
        assert_eq!(event.fact("machines"), Some(48.0));
        assert_eq!(event.fact("queries"), Some(8.0));
        assert!(event.fact("events_per_s").is_some());
        assert!(r.legs.iter().all(|l| l.threads == 1 && l.wall_s > 0.0));
    }

    /// The checked-in repo-root report carries the full 1k/5k/10k sweep
    /// and documents the acceptance headline: ≥ 1M queries over 10k
    /// machines with the event engine ≥ 20× the dense reference at the
    /// largest pool.
    #[test]
    fn checked_in_bench_exec_report_parses() {
        let (r, _) = crate::report::checked_in("exec");
        let wall = |name: &str| {
            r.leg(name)
                .unwrap_or_else(|| panic!("the sweep must include `{name}`"))
                .wall_s
        };
        let ratio = wall("dense_10k") / wall("event_10k");
        assert!(
            ratio >= 20.0,
            "event engine must be >= 20x dense at 10k machines, got {ratio:.1}x"
        );
        let h = r.leg("headline").expect("the headline leg");
        assert!(h.fact("machines").unwrap_or(0.0) >= 10_000.0);
        assert!(h.fact("queries").unwrap_or(0.0) >= 1_000_000.0);
        assert!(h.fact("completed").unwrap_or(0.0) > 0.0);
    }
}
