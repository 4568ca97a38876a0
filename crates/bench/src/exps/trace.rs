//! The `experiments trace` subcommand: one representative query, fully
//! audited.
//!
//! Runs a deliberately small end-to-end pipeline — project selection
//! (filter + ranker), history building, training, candidate evaluation,
//! the deployment gate — under a per-query [`TraceContext`], then steers
//! and executes one representative test query with a machine-level
//! scheduling timeline. Writes `trace.json` (Chrome trace-event format,
//! loadable in `chrome://tracing` / Perfetto) and `trace_report.txt` (the
//! text waterfall + decision audit), and prints the report.

use crate::scale::{scaled_eval_profile, Scale};
use loam_core::inference::{guarded_choice_traced, select_plan, EnvStrategy, DEFAULT_MARGIN};
use loam_core::pipeline::{
    evaluate_candidates_traced, prepare_project, train_loam, PipelineConfig,
};
use loam_core::selector::{evaluate_filter, ranker_features, FilterConfig, Ranker};
use loam_core::{gate, GateConfig, TrainConfig};
use mcsim_catalog::ProjectId;
use mcsim_exec::{Cluster, ClusterConfig, Executor};
use mcsim_obs::trace::TraceContext;
use mcsim_plan::PlanTree;

/// A pipeline configuration small enough that the traced run (and the CI
/// smoke built on it) finishes in seconds: the trace's value is the *shape*
/// of the run, not its statistical power.
fn trace_config(scale: Scale) -> PipelineConfig {
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

/// Runs the traced pipeline and writes `trace.json` + `trace_report.txt`.
pub fn run(scale: Scale) {
    let ctx = run_traced(scale);

    let json = ctx.to_chrome_json();
    let report = ctx.to_text_report();
    std::fs::write("trace.json", &json).expect("writing trace.json failed");
    std::fs::write("trace_report.txt", &report).expect("writing trace_report.txt failed");

    println!("{report}");
    println!(
        "wrote trace.json ({} bytes: {} spans, {} decisions, {} executor stage events)",
        json.len(),
        ctx.span_count(),
        ctx.decision_count(),
        ctx.timeline_len()
    );
    println!("wrote trace_report.txt ({} bytes)", report.len());
}

/// The traced end-to-end run, returned for inspection (tests use this
/// directly instead of going through the filesystem).
pub fn run_traced(scale: Scale) -> TraceContext {
    let profile = scaled_eval_profile(1, scale);
    let cfg = trace_config(scale);
    let ctx = TraceContext::new("experiments trace: evaluation project 1");

    // Phase 1 — project selection audit: the rule-based filter and the
    // learned ranker both leave decision records.
    let prepared = {
        let _s = ctx.span("prepare");
        prepare_project(&profile, ProjectId(1), &cfg).expect("project preparation failed")
    };
    {
        let s = ctx.span("project_selection");
        s.attr("project", 1u64);
        let filter_cfg = FilterConfig::scaled(scale.fraction());
        let report = evaluate_filter(
            &prepared.project,
            0,
            cfg.train_days.min(5),
            &filter_cfg,
            Some(&ctx),
        );
        s.attr("filter_selected", report.passes());
        // Rank this project against itself: the record shows the scoring
        // machinery even with a single candidate project.
        let feats: Vec<Vec<f64>> = prepared
            .repo
            .records()
            .iter()
            .take(200)
            .map(|r| ranker_features(&r.plan, &prepared.project.catalog, r.cpu_cost))
            .collect();
        let labels: Vec<f64> = prepared
            .repo
            .records()
            .iter()
            .take(200)
            .map(|r| r.cpu_cost.max(1.0).ln())
            .collect();
        let ranker = Ranker::fit(&feats, &labels, cfg.seed);
        let order = ranker.rank_projects(&[feats], Some(&ctx));
        s.attr("ranked_projects", order.len());
    }

    // Phase 2 — train and evaluate, with per-query optimize/execute spans.
    let predictor = {
        let s = ctx.span("train");
        s.attr("samples", prepared.train_samples.len());
        train_loam(&prepared, &cfg).expect("LOAM training failed")
    };
    let evaluated = {
        let s = ctx.span("evaluate");
        s.attr("test_queries", prepared.test_queries.len());
        evaluate_candidates_traced(&prepared, &cfg, Some(&ctx))
            .expect("candidate evaluation failed")
    };
    let strategy = EnvStrategy::MeanHistorical(prepared.mean_env);

    // Phase 3 — the deployment gate's verdict, with evidence.
    {
        let _s = ctx.span("gate");
        let report = gate::validate_traced(
            &predictor,
            &strategy,
            &evaluated,
            &GateConfig::default(),
            Some(&ctx),
        );
        println!(
            "gate: avg_ratio {:.4}, tail {:.3}, deploy = {}",
            report.avg_ratio,
            report.worst_tail_ratio,
            report.deploy()
        );
    }

    // Phase 4 — steer and execute one representative query (the one with
    // the richest candidate set) on a fresh cluster, capturing the
    // per-stage, per-machine scheduling timeline.
    {
        let rep = evaluated
            .iter()
            .max_by_key(|eq| eq.plans.len())
            .expect("at least one evaluated query");
        let s = ctx.span("representative_query");
        s.attr("query_id", rep.query_id);
        s.attr("candidates", rep.plans.len());
        let choice = {
            let _s = ctx.span("infer");
            let refs: Vec<&PlanTree> = rep.plans.iter().collect();
            let (best, costs) = select_plan(&predictor, &refs, &strategy);
            guarded_choice_traced(
                &refs,
                &costs,
                best,
                rep.default_idx,
                DEFAULT_MARGIN,
                Some(&ctx),
                rep.query_id,
            )
        };
        let _s = ctx.span("execute");
        let cluster = Cluster::new(cfg.seed ^ 0x7ace, ClusterConfig::default());
        let mut exec = Executor::new(cfg.seed ^ 0x7ace, cluster, profile.env_noise_sigma);
        exec.cluster.advance(150);
        let compiled = exec.compile(&rep.plans[choice], &prepared.project.catalog);
        let outcome = exec
            .run(&compiled, None, Some(&ctx))
            .expect("fault injection is off, so execution cannot fail");
        println!(
            "representative query {}: chose candidate #{choice} of {}, observed cost {:.1} \
             over {} stages",
            rep.query_id,
            rep.plans.len(),
            outcome.cpu_cost,
            outcome.stage_costs.len()
        );
    }

    ctx
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim_obs::trace::Decision;

    #[test]
    fn traced_run_covers_every_decision_class_and_the_timeline() {
        let ctx = run_traced(Scale::Small);
        assert!(ctx.span_count() > 5, "got {} spans", ctx.span_count());
        assert!(ctx.timeline_len() > 0, "executor timeline must be captured");
        let ds = ctx.decisions();
        let has = |f: fn(&Decision) -> bool| ds.iter().any(f);
        assert!(has(|d| matches!(d, Decision::ProjectFilter(_))));
        assert!(has(|d| matches!(d, Decision::ProjectRanking(_))));
        assert!(has(|d| matches!(d, Decision::PlanSelection(_))));
        assert!(has(|d| matches!(d, Decision::GateVerdict(_))));
        // The exports render without panicking and carry the decisions.
        let json = ctx.to_chrome_json();
        assert!(json.contains("decision.plan_selection"));
        assert!(json.contains("decision.gate_verdict"));
        let report = ctx.to_text_report();
        assert!(report.contains("-- executor timeline"));
    }
}
