//! The `experiments chaos` subcommand: graceful degradation under fault
//! injection.
//!
//! Trains a small LOAM pipeline once, then serves the default open-loop
//! trace over the evaluated test queries through [`ServeSession::run`] at
//! increasing fault rates: [`ServeConfig::fault_scale`] 0×, 1×, 2× and 4×
//! the default [`FaultConfig::chaos`](mcsim_exec::FaultConfig::chaos)
//! probabilities. Every level replays the same arrivals on the same
//! per-request executors, differing only in the armed faults. Writes one
//! leg per level to `BENCH_chaos.json`, carrying its completion rate,
//! degraded requests, retry counts, wasted work and total cost; the cost
//! overhead of a level is its `total_cost` over the `fault_x0` leg's.

use crate::report::{Leg, TimingReport};
use crate::scale::{scaled_eval_profile, Scale};
use loam_core::inference::EnvStrategy;
use loam_core::pipeline::{evaluate_candidates, prepare_project, train_loam, PipelineConfig};
use loam_core::TrainConfig;
use mcsim_catalog::ProjectId;
use mcsim_serve::{RequestOutcome, ServeConfig, ServeReport, ServeSession};

/// A pipeline configuration small enough that the full fault-rate sweep
/// (and the CI smoke built on it) finishes in seconds: the sweep's value is
/// the degradation behaviour, not its statistical power.
fn chaos_config(scale: Scale) -> PipelineConfig {
    let f = scale.fraction();
    PipelineConfig {
        train_days: 6,
        test_days: 2,
        max_train: ((1200.0 * f) as usize).max(120),
        max_test: ((60.0 * f) as usize).max(12),
        eval_rounds: 3,
        da_queries: 12,
        train_cfg: TrainConfig {
            epochs: 6,
            ..TrainConfig::default()
        },
        ..PipelineConfig::default()
    }
}

/// One fault-rate level's outcome.
pub struct LevelOutcome {
    /// Phase name (`fault_x0`, `fault_x1`, ...).
    pub name: String,
    /// Multiplier applied to the default chaos probabilities.
    pub fault_scale: f64,
    /// Wall-clock seconds of the level's whole serving run.
    pub wall_s: f64,
    /// The serving report.
    pub report: ServeReport,
}

/// Trains the pipeline once and serves the trace at every fault level.
/// Returned for inspection — the acceptance tests use this directly
/// instead of going through the filesystem.
pub fn run_levels(scale: Scale, levels: &[f64]) -> Vec<LevelOutcome> {
    let profile = scaled_eval_profile(1, scale);
    let cfg = chaos_config(scale);
    eprintln!("preparing + training the chaos pipeline...");
    let prepared =
        prepare_project(&profile, ProjectId(1), &cfg).expect("project preparation failed");
    let predictor = train_loam(&prepared, &cfg).expect("LOAM training failed");
    let evaluated = evaluate_candidates(&prepared, &cfg).expect("candidate evaluation failed");
    let strategy = EnvStrategy::MeanHistorical(prepared.mean_env);

    levels
        .iter()
        .map(|&lvl| {
            let serve = ServeConfig::builder()
                .strategy(strategy)
                .fault_scale(lvl)
                .build()
                .expect("fault levels are finite and non-negative");
            let t = std::time::Instant::now();
            let report = ServeSession::new(serve)
                .and_then(|s| s.run(&predictor, &evaluated, &prepared.project.catalog, None))
                .expect("serving must terminate with a report");
            LevelOutcome {
                name: format!("fault_x{}", lvl as u32),
                fault_scale: lvl,
                wall_s: t.elapsed().as_secs_f64(),
                report,
            }
        })
        .collect()
}

/// Runs the sweep and writes `BENCH_chaos.json`. `quick` restricts the
/// sweep to the 0× / 1× levels (the CI smoke).
pub fn run(scale: Scale, quick: bool) {
    println!("Chaos benchmark — robust serving under increasing fault rates\n");
    let levels: &[f64] = if quick {
        &[0.0, 1.0]
    } else {
        &[0.0, 1.0, 2.0, 4.0]
    };
    let report = report(scale, &run_levels(scale, levels));
    println!("{}", report.table().render());
    report.write();
}

/// One leg per fault level, run under the pool (scoring may fan out).
fn report(scale: Scale, outcomes: &[LevelOutcome]) -> TimingReport {
    let mut report = TimingReport::new("chaos", scale);
    for o in outcomes {
        let r = &o.report;
        let degraded = r
            .decision_log
            .iter()
            .filter(|d| {
                matches!(d.outcome, RequestOutcome::Served { resolution, .. }
                    if resolution.is_degraded())
            })
            .count();
        report.legs.push(
            Leg::new(o.name.clone(), mcsim_par::threads(), o.wall_s)
                .with("fault_scale", o.fault_scale)
                .with("requests", r.requests as f64)
                .with("completion_rate", r.completion_rate())
                .with("degraded", degraded as f64)
                .with("retries", f64::from(r.total_retries))
                .with("speculative", f64::from(r.total_speculative))
                .with("wasted_cost", r.total_wasted_cost)
                .with("total_cost", r.total_cost)
                .with("gate_deployed", f64::from(u8::from(r.gate_deployed))),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim_serve::Resolution;

    /// The acceptance criterion of the chaos harness: at the default fault
    /// rate the fallback ladder keeps ≥ 99% of requests completing, while
    /// the fault-free level stays a clean 100% with zero retries and zero
    /// wasted work.
    #[test]
    fn default_fault_rate_completes_at_least_99_percent() {
        let outcomes = run_levels(Scale::Small, &[0.0, 1.0]);
        let clean = &outcomes[0].report;
        assert!(
            (clean.completion_rate() - 1.0).abs() < 1e-12,
            "fault-free serving must complete everything"
        );
        assert_eq!(clean.total_retries, 0);
        assert_eq!(clean.total_wasted_cost, 0.0);
        assert_eq!(clean.resolution_count(Resolution::ExecFallback), 0);
        assert_eq!(clean.failed, 0);

        let chaotic = &outcomes[1].report;
        assert!(
            chaotic.completion_rate() >= 0.99,
            "completion rate {:.4} under default chaos must stay >= 0.99",
            chaotic.completion_rate()
        );
    }

    /// Every fault level becomes one leg with its completion rate.
    #[test]
    fn timing_report_has_one_leg_per_fault_level() {
        let r = report(Scale::Small, &run_levels(Scale::Small, &[0.0, 1.0]));
        assert_eq!(r.bench, "chaos");
        let names: Vec<&str> = r.legs.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, ["fault_x0", "fault_x1"]);
        assert_eq!(r.legs[1].fact("fault_scale"), Some(1.0));
        assert!(r.legs.iter().all(|l| l.wall_s > 0.0));
        assert!(r.legs.iter().all(|l| l.fact("completion_rate").is_some()));
    }

    /// The checked-in repo-root report holds fault levels only.
    #[test]
    fn checked_in_bench_chaos_report_parses() {
        let (r, _) = crate::report::checked_in("chaos");
        assert!(r.legs.iter().all(|l| l.name.starts_with("fault_x")));
    }
}
