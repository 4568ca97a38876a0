//! The `experiments serve` subcommand: serving throughput under traffic.
//!
//! Trains a small LOAM pipeline once, then drives the evaluated query
//! templates through a [`ServeSession`] under several serving
//! configurations at the *same* arrival seed:
//!
//! * `single`  — batch size 1, both caches off: the per-query baseline
//!   every request pays full featurization + inference;
//! * `batched` — batch size 32 with the sharded feature cache and the
//!   plan-signature decision cache: the production configuration;
//! * (full scale) `bursty` / `diurnal` — the batched configuration under
//!   the other arrival shapes, plus `shed`, an overloaded point with the
//!   queue-bound admission control armed.
//!
//! Because the arrival trace, the guarded selection, and the per-request
//! executors are all seeded, `single` and `batched` make bit-identical
//! decisions — the phases differ only in wall-clock, so the QPS ratio is
//! a pure measurement of batching + caching. Writes `BENCH_serve.json`
//! with one leg per phase carrying its QPS, latency percentiles, shed
//! rate and cache hit rates.

use crate::report::{Leg, TimingReport};
use crate::scale::{scaled_eval_profile, Scale};
use loam_core::inference::EnvStrategy;
use loam_core::pipeline::{evaluate_candidates, prepare_project, train_loam, PipelineConfig};
use loam_core::TrainConfig;
use mcsim_catalog::ProjectId;
use mcsim_serve::{ArrivalProfile, ServeConfig, ServeReport, ServeSession, ShedPolicy};

/// A pipeline configuration small enough that training is a footnote next
/// to the serving sweep itself.
fn serve_pipeline_config(scale: Scale) -> PipelineConfig {
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

/// Shared serving knobs: every phase serves the same trace against the
/// same small execution clusters, so inference-side batching/caching is
/// the only variable.
fn base_config(scale: Scale, requests: usize) -> mcsim_serve::ServeConfigBuilder {
    let _ = scale;
    ServeConfig::builder()
        .arrival(ArrivalProfile::Poisson { rate_qps: 64.0 })
        .tenants(8)
        .requests(requests)
        .machines(8)
        .warmup_ticks(2)
        .seed(0x5e12_7e55)
}

/// One serving configuration's outcome.
pub struct PhaseOutcome {
    /// Phase name (`single`, `batched`, ...).
    pub name: &'static str,
    /// The session report (carries its own wall-clock).
    pub report: ServeReport,
}

/// Trains the pipeline once and serves every phase. Returned directly for
/// the acceptance tests.
pub fn run_phases(scale: Scale, quick: bool) -> Vec<PhaseOutcome> {
    let profile = scaled_eval_profile(1, scale);
    let cfg = serve_pipeline_config(scale);
    eprintln!("preparing + training the serving pipeline...");
    let prepared =
        prepare_project(&profile, ProjectId(1), &cfg).expect("project preparation failed");
    let predictor = train_loam(&prepared, &cfg).expect("LOAM training failed");
    let evaluated = evaluate_candidates(&prepared, &cfg).expect("candidate evaluation failed");
    let strategy = EnvStrategy::MeanHistorical(prepared.mean_env);
    let catalog = &prepared.project.catalog;
    let requests = ((512.0 * scale.fraction()) as usize).max(192);

    let single = base_config(scale, requests)
        .batch_size(1)
        .feature_cache(false)
        .decision_cache(false)
        .strategy(strategy)
        .build()
        .expect("single-query config is valid");
    let batched = base_config(scale, requests)
        .batch_size(32)
        .strategy(strategy)
        .build()
        .expect("batched config is valid");

    let mut phases: Vec<(&'static str, ServeConfig)> =
        vec![("single", single), ("batched", batched.clone())];
    if !quick {
        // Decision cache off: recurring templates re-score every time, so
        // this phase isolates what the sharded feature cache contributes.
        phases.push((
            "feat_cache",
            ServeConfig {
                decision_cache: false,
                ..batched.clone()
            },
        ));
        phases.push((
            "bursty",
            ServeConfig {
                arrival: ArrivalProfile::Bursty {
                    rate_qps: 64.0,
                    burst_factor: 8.0,
                    burst_fraction: 0.25,
                },
                ..batched.clone()
            },
        ));
        phases.push((
            "diurnal",
            ServeConfig {
                arrival: ArrivalProfile::Diurnal {
                    rate_qps: 64.0,
                    amplitude: 0.6,
                    period_s: 4.0,
                },
                ..batched.clone()
            },
        ));
        phases.push((
            "shed",
            ServeConfig {
                arrival: ArrivalProfile::Poisson { rate_qps: 512.0 },
                shed: ShedPolicy::QueueBound {
                    capacity: 32,
                    drain_qps: 128.0,
                },
                ..batched
            },
        ));
    }

    phases
        .into_iter()
        .map(|(name, cfg)| {
            eprintln!("serving `{name}`...");
            let session = ServeSession::new(cfg).expect("serve config is valid");
            let report = session
                .run(&predictor, &evaluated, catalog, None)
                .expect("serving must terminate with a report");
            PhaseOutcome { name, report }
        })
        .collect()
}

/// Runs the sweep and writes `BENCH_serve.json`. `quick` restricts the
/// sweep to the `single` / `batched` pair (the CI smoke).
pub fn run(scale: Scale, quick: bool) {
    println!("Serving benchmark — batched + cached sessions vs single-query\n");
    let outcomes = run_phases(scale, quick);
    let report = report(scale, &outcomes);
    println!("{}", report.table().render());
    report.write();
}

/// One leg per phase, run on the whole pool.
fn report(scale: Scale, outcomes: &[PhaseOutcome]) -> TimingReport {
    let mut report = TimingReport::new("serve", scale);
    for o in outcomes {
        let r = &o.report;
        report.legs.push(
            Leg::new(o.name, mcsim_par::threads(), r.wall_s)
                .with("requests", r.requests as f64)
                .with("shed", r.shed as f64)
                .with("shed_rate", r.shed_rate())
                .with("completed", r.completed as f64)
                .with("failed", r.failed as f64)
                .with("batches", r.batches as f64)
                .with("qps", r.qps())
                .with("p50_ms", r.latency.p50() * 1e3)
                .with("p95_ms", r.latency.p95() * 1e3)
                .with("p99_ms", r.latency.p99() * 1e3)
                .with("feature_hit_rate", r.feature_hit_rate())
                .with("decision_hit_rate", r.decision_hit_rate())
                .with("gate_deployed", f64::from(u8::from(r.gate_deployed))),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline acceptance criterion: batching + caching at least
    /// doubles sustained QPS over the single-query baseline while making
    /// the *same decisions* on the same arrival trace.
    #[test]
    fn batched_cached_serving_at_least_doubles_qps() {
        let outcomes = run_phases(Scale::Small, true);
        let (single, batched) = (&outcomes[0].report, &outcomes[1].report);
        assert_eq!(single.requests, batched.requests);
        assert_eq!(single.decision_log.len(), batched.decision_log.len());
        for (s, b) in single.decision_log.iter().zip(&batched.decision_log) {
            assert!(
                s.same_decision(b),
                "phases must decide identically: {s:?} vs {b:?}"
            );
        }
        let ratio = batched.qps() / single.qps().max(1e-9);
        assert!(
            ratio >= 2.0,
            "batched+cached serving must at least double QPS, got {ratio:.2}x \
             ({:.0} vs {:.0})",
            batched.qps(),
            single.qps()
        );
        assert!(batched.decision_cache_hits > 0);
        assert!(batched.feature_cache_misses > 0);
    }

    /// Every phase becomes a leg on the pool with its QPS beside it.
    #[test]
    fn timing_report_has_one_leg_per_phase() {
        let outcomes = run_phases(Scale::Small, true);
        let r = report(Scale::Small, &outcomes);
        assert_eq!(r.bench, "serve");
        let names: Vec<&str> = r.legs.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, ["single", "batched"]);
        for (leg, o) in r.legs.iter().zip(&outcomes) {
            assert_eq!(leg.threads, mcsim_par::threads() as u64);
            assert!(leg.wall_s > 0.0);
            assert!(leg.fact("qps").is_some_and(|q| q > 0.0));
            assert_eq!(leg.fact("requests"), Some(o.report.requests as f64));
        }
    }

    /// The checked-in repo-root report shows batching + caching at least
    /// doubling throughput over the single-query phase.
    #[test]
    fn checked_in_bench_serve_report_parses() {
        let (r, _) = crate::report::checked_in("serve");
        assert_eq!(r.legs[0].name, "single");
        let batched = r.leg("batched").expect("a batched leg");
        let ratio = r.legs[0].wall_s / batched.wall_s;
        assert!(
            ratio >= 2.0,
            "checked-in report must show >= 2x QPS, got {ratio:.2}x"
        );
    }
}
