//! Integration: a small end-to-end pipeline run, observed through an
//! installed [`InMemoryRecorder`], must produce the documented span tree
//! (prepare → optimize → execute → featurize → train → infer) and non-zero
//! counters from every instrumented layer.
//!
//! The recorder is process-global, so everything lives in one test function
//! — parallel test threads would otherwise interleave their metrics.

use loam::prelude::*;
use std::sync::{Arc, Mutex};

/// Serializes tests that touch the process-global recorder slot.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn tiny_profile() -> ProjectProfile {
    let mut prof = ProjectProfile::evaluation_project(2).expect("project 2");
    prof.n_tables = 20;
    prof.n_temp_tables = 2;
    prof.n_columns = 150;
    prof.n_templates = 10;
    prof.n_query_day0 = 12.0;
    prof
}

fn tiny_cfg() -> PipelineConfig {
    PipelineConfig {
        train_days: 4,
        test_days: 2,
        max_train: 60,
        max_test: 12,
        eval_rounds: 3,
        da_queries: 10,
        train_cfg: TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        },
        ..PipelineConfig::default()
    }
}

#[test]
fn pipeline_run_emits_span_tree_and_counters() {
    let _guard = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let recorder = Arc::new(InMemoryRecorder::new());
    mcsim_obs::install(recorder.clone());

    let cfg = tiny_cfg();
    let prepared = prepare_project(&tiny_profile(), ProjectId(77), &cfg).unwrap();
    let predictor = train_loam(&prepared, &cfg).unwrap();
    let evaluated = evaluate_candidates(&prepared, &cfg).unwrap();
    let strategy = EnvStrategy::MeanHistorical(prepared.mean_env);
    let eval = evaluate_model(&predictor, &strategy, &evaluated).unwrap();
    assert!(eval.avg_cost > 0.0);

    mcsim_obs::uninstall();
    let snap = recorder.snapshot();

    // The phase span tree: prepare nests its history build (execute) and DA
    // exploration (optimize); training nests featurization and per-epoch
    // spans; candidate evaluation emits root-level optimize/execute spans;
    // guarded selection runs under infer.
    for path in [
        "prepare",
        "prepare/execute",
        "prepare/optimize",
        "featurize",
        "train",
        "train/epoch",
        "optimize",
        "execute",
        "infer",
    ] {
        let stat = snap.span(path);
        assert!(stat.is_some(), "missing span `{path}`");
        assert!(stat.unwrap().count > 0, "span `{path}` never completed");
        assert!(
            snap.span_total_seconds(path) > 0.0,
            "span `{path}` has zero duration"
        );
    }
    assert_eq!(
        snap.span("train/epoch").unwrap().count as usize,
        cfg.train_cfg.epochs
    );

    // Counters from every instrumented layer must be non-zero.
    for name in [
        "optimizer.plans_built",
        "exec.queries_executed",
        "exec.stages_executed",
        "exec.flighting.replays",
        "exec.flighting.synchronized_rounds",
        "explorer.plans_explored",
        "explorer.candidates_kept",
        "loam.featurize.calls",
        "loam.featurize.cache_hits",
        "loam.train.epochs",
        "loam.train.steps",
    ] {
        assert!(snap.counter(name) > 0, "counter `{name}` is zero");
    }
    assert_eq!(
        snap.counter("loam.train.epochs") as usize,
        cfg.train_cfg.epochs
    );

    // Guarded selection classifies every test query exactly once.
    let selects = snap.counter("loam.select.accepted")
        + snap.counter("loam.select.rejected")
        + snap.counter("loam.select.default_best");
    assert_eq!(selects as usize, evaluated.len());

    // Distributions and gauges observed along the way.
    assert!(snap.histogram("optimizer.dp_seconds").is_some());
    assert!(snap.histogram("exec.stage.cost").is_some());
    assert!(snap.histogram("loam.train.cost_loss").is_some());
    let lambda = snap.gauge("loam.train.grl_lambda").expect("GRL λ gauge");
    assert!(
        (0.0..=0.15).contains(&lambda),
        "λ out of schedule range: {lambda}"
    );

    // The JSON rendering carries the whole snapshot.
    let json = snap.to_json();
    for needle in [
        "\"counters\"",
        "\"gauges\"",
        "\"histograms\"",
        "\"spans\"",
        "optimizer.plans_built",
        "loam.train.epochs",
        "train/epoch",
    ] {
        assert!(json.contains(needle), "JSON snapshot missing `{needle}`");
    }
}

#[test]
fn traced_pipeline_captures_spans_decisions_and_the_chrome_export() {
    // Tracing is independent of the recorder slot: no install/uninstall
    // needed, the context is an explicit handle.
    let cfg = tiny_cfg();
    let prepared = prepare_project(&tiny_profile(), ProjectId(79), &cfg).unwrap();
    let predictor = train_loam(&prepared, &cfg).unwrap();
    let ctx = TraceContext::new("integration");
    let evaluated = evaluate_candidates_traced(&prepared, &cfg, Some(&ctx)).unwrap();
    let strategy = EnvStrategy::MeanHistorical(prepared.mean_env);
    let eval = evaluate_model_traced(&predictor, &strategy, &evaluated, Some(&ctx)).unwrap();
    assert!(eval.avg_cost > 0.0);
    gate::validate_traced(
        &predictor,
        &strategy,
        &evaluated,
        &GateConfig::default(),
        Some(&ctx),
    );

    // Every steered query left a typed plan-selection record carrying all
    // candidate scores; the gate left its verdict.
    let decisions = ctx.decisions();
    let selections: Vec<&PlanSelection> = decisions
        .iter()
        .filter_map(|d| match d {
            Decision::PlanSelection(s) => Some(s),
            _ => None,
        })
        .collect();
    assert_eq!(selections.len(), evaluated.len());
    for s in &selections {
        assert!(!s.candidates.is_empty());
        assert!(s.chosen_idx < s.candidates.len());
        assert!(s.candidates.iter().any(|c| c.is_default));
    }
    assert!(decisions
        .iter()
        .any(|d| matches!(d, Decision::GateVerdict(_))));

    // The chrome export renders and names both decision classes.
    let json = ctx.to_chrome_json();
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("decision.plan_selection"));
    assert!(json.contains("decision.gate_verdict"));
    assert!(ctx.span_count() > 0);
}

#[test]
fn disabled_recorder_means_inert_instrumentation() {
    // With no recorder installed the pipeline still runs, and the free
    // functions / spans are no-ops (this is the <5% overhead design).
    let _guard = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    mcsim_obs::uninstall();
    assert!(!mcsim_obs::enabled());
    let cfg = tiny_cfg();
    let prepared = prepare_project(&tiny_profile(), ProjectId(78), &cfg).unwrap();
    assert!(!prepared.train_samples.is_empty());
}

/// A broken predictor: every score is NaN, so every query must take the
/// predictor-error rung of the fallback ladder.
struct NanModel;
impl CostModel for NanModel {
    fn name(&self) -> &'static str {
        "nan"
    }
    fn predict(&self, _plan: &PlanTree, _env: EnvSource<'_>) -> f64 {
        f64::NAN
    }
    fn size_bytes(&self) -> usize {
        0
    }
}

#[test]
fn chaos_serving_emits_fault_retry_and_fallback_counters() {
    let _guard = RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let recorder = Arc::new(InMemoryRecorder::new());
    mcsim_obs::install(recorder.clone());

    let cfg = tiny_cfg();
    let prepared = prepare_project(&tiny_profile(), ProjectId(81), &cfg).unwrap();
    let evaluated = evaluate_candidates(&prepared, &cfg).unwrap();
    // Faults at 5x the default rates (stage kills at 0.15, machine failures
    // at 1e-3 per machine and tick) so every fault counter actually fires,
    // and a permissive gate so serving reaches execution.
    let serve_cfg = ServeConfig::builder()
        .requests(64)
        .strategy(EnvStrategy::MeanHistorical(prepared.mean_env))
        .gate(GateConfig {
            max_avg_ratio: 1e9,
            max_tail_ratio: 1e9,
            max_regression_fraction: 1.0,
        })
        .fault_scale(5.0)
        .build()
        .unwrap();
    let report = ServeSession::new(serve_cfg)
        .unwrap()
        .run(&NanModel, &evaluated, &prepared.project.catalog, None)
        .expect("serving terminates");

    mcsim_obs::uninstall();
    let snap = recorder.snapshot();

    // The fault-injection layer's counters.
    for name in [
        "exec.fault.machine_failures",
        "exec.fault.stage_kills",
        "exec.retry.attempts",
    ] {
        assert!(snap.counter(name) > 0, "counter `{name}` is zero");
    }
    // Retries observed by the serving report and by the recorder agree on
    // having happened.
    assert!(report.total_retries > 0 || snap.counter("exec.retry.attempts") > 0);
    // Every scoring degraded on the NaN predictor, and the counter says so.
    // With the decision cache on, the session scores each template once:
    // at its first arrival.
    let mut scored: Vec<u32> = report.decision_log.iter().map(|d| d.template).collect();
    scored.sort_unstable();
    scored.dedup();
    assert_eq!(
        snap.counter("loam.fallback.predictor_error") as usize,
        scored.len()
    );
    assert!(snap.histogram("exec.fault.wasted_cost").is_some());
}

/// The per-event shape of the Chrome export (see
/// `crates/obs/tests/trace_roundtrip.rs` for the full round-trip suite).
#[derive(Debug, serde::Deserialize)]
struct ChromeEvent {
    name: String,
    cat: String,
    ts: u64,
    dur: u64,
    tid: u64,
}

#[derive(Debug, serde::Deserialize)]
#[allow(non_snake_case)]
struct ChromeTrace {
    traceEvents: Vec<ChromeEvent>,
}

/// Any two intervals on one track must nest or be disjoint (ties count as
/// containment) — Chrome draws garbage for partially overlapping X events.
fn assert_properly_nested(mut spans: Vec<(u64, u64)>) {
    spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
    let mut stack: Vec<(u64, u64)> = Vec::new();
    for &(start, end) in &spans {
        while let Some(&(_, top_end)) = stack.last() {
            if start >= top_end {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&(top_start, top_end)) = stack.last() {
            assert!(
                top_start <= start && end <= top_end,
                "partial overlap: ({start},{end}) vs open ({top_start},{top_end})"
            );
        }
        stack.push((start, end));
    }
}

#[test]
fn chrome_export_stays_well_nested_when_stages_are_killed_mid_flight() {
    // Execute under heavy stage kills with tracing on: the export must keep
    // the killed attempts and their retries from interleaving on any track.
    let cfg = tiny_cfg();
    let prepared = prepare_project(&tiny_profile(), ProjectId(82), &cfg).unwrap();
    let mut exec = ChaosScenario::new(0xdead_0f10)
        .fault(FaultConfig {
            stage_kill_prob: 0.30,
            ..FaultConfig::chaos(0xdead_0f10)
        })
        .build();
    let ctx = TraceContext::new("kill-nesting");
    let mut killed_seen = false;
    for rec in prepared.repo.records().iter().take(12) {
        let compiled = exec.compile(&rec.plan, &prepared.project.catalog);
        let _ = exec.run(&compiled, None, Some(&ctx));
    }
    for ev in ctx.timeline() {
        killed_seen |= ev.killed;
    }
    assert!(killed_seen, "the kill probability must actually fire");

    let json = ctx.to_chrome_json();
    assert!(json.contains("(killed)"), "killed stages must be labelled");
    assert!(json.contains("\"killed\":true"));

    let trace: ChromeTrace = serde_json::from_str(&json).expect("export must stay parseable");
    let mut tids: Vec<u64> = trace
        .traceEvents
        .iter()
        .filter(|e| e.cat == "executor")
        .map(|e| e.tid)
        .collect();
    tids.sort_unstable();
    tids.dedup();
    assert!(!tids.is_empty());
    for tid in tids {
        let intervals: Vec<(u64, u64)> = trace
            .traceEvents
            .iter()
            .filter(|e| e.cat == "executor" && e.tid == tid)
            .map(|e| (e.ts, e.ts + e.dur))
            .collect();
        assert_properly_nested(intervals);
    }
    // Killed events carry the marker in their name; live ones never do.
    assert!(trace
        .traceEvents
        .iter()
        .any(|e| e.cat == "executor" && e.name.ends_with("(killed)")));
}
