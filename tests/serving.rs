//! Integration: the high-throughput serving session must be
//! *reproducible* — the decision log is a pure function of the seed and
//! the semantic configuration. Thread count, batching width, and cache
//! configuration may change wall-clock behavior but never the decisions;
//! a model update must invalidate every cached decision.

use loam::prelude::*;

fn tiny_profile(id: u32) -> ProjectProfile {
    // Only five evaluation profiles exist; the ProjectId varies the data.
    let mut prof =
        ProjectProfile::evaluation_project((id as usize - 1) % 5 + 1).expect("evaluation project");
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
        ..PipelineConfig::default()
    }
}

/// Prepared project + evaluated candidate sets, without training: the
/// serving scenarios inject a deterministic stand-in predictor.
fn evaluated_fixture(id: u32) -> (PreparedProject, Vec<EvaluatedQuery>) {
    let cfg = tiny_cfg();
    let prepared = prepare_project(&tiny_profile(id), ProjectId(id), &cfg).expect("prepare");
    let evaluated = evaluate_candidates(&prepared, &cfg).expect("evaluate");
    (prepared, evaluated)
}

/// Deterministic stand-in predictor: charges per plan node.
struct NodeCountModel;
impl CostModel for NodeCountModel {
    fn name(&self) -> &'static str {
        "node-count"
    }
    fn predict(&self, plan: &PlanTree, _env: EnvSource<'_>) -> f64 {
        plan.len() as f64 * 100.0
    }
    fn size_bytes(&self) -> usize {
        0
    }
}

/// A gate that always deploys (these scenarios exercise serving, not the
/// gate rung).
fn permissive_gate() -> GateConfig {
    GateConfig {
        max_avg_ratio: 1e9,
        max_tail_ratio: 1e9,
        max_regression_fraction: 1.0,
    }
}

fn serve_cfg(seed: u64) -> ServeConfig {
    ServeConfig::builder()
        .arrival(ArrivalProfile::Poisson { rate_qps: 64.0 })
        .tenants(4)
        .requests(96)
        .batch_size(16)
        .machines(8)
        .warmup_ticks(4)
        .fault_scale(1.0)
        .gate(permissive_gate())
        .seed(seed)
        .build()
        .expect("valid config")
}

/// Everything a serving run reports that must not depend on the thread
/// count: the decision log, the outcome counts, the exact cost and retry
/// totals, the batch count and the number of latency samples.
fn thread_invariant_summary(r: &ServeReport) -> impl PartialEq + std::fmt::Debug {
    (
        r.decision_log.clone(),
        (r.admitted, r.shed, r.completed, r.failed, r.batches),
        (r.total_cost.to_bits(), r.total_wasted_cost.to_bits()),
        r.total_retries,
        r.latency.count,
    )
}

/// The execution phase fans every admitted request of a run out across the
/// pool; at 1, 2 and 8 threads the reports must agree bit for bit — also
/// when admission control sheds requests between served ones.
#[test]
fn decision_log_is_bit_identical_across_thread_counts() {
    let (prepared, evaluated) = evaluated_fixture(11);
    let shedding = ServeConfig::builder()
        .arrival(ArrivalProfile::Poisson { rate_qps: 160.0 })
        .tenants(4)
        .requests(96)
        .batch_size(16)
        .shed(ShedPolicy::QueueBound {
            capacity: 8,
            drain_qps: 40.0,
        })
        .machines(8)
        .warmup_ticks(4)
        .fault_scale(1.0)
        .gate(permissive_gate())
        .seed(9)
        .build()
        .expect("valid config");
    for cfg in [serve_cfg(7), shedding] {
        let serve = |threads| {
            let prev = mcsim_par::set_threads(threads);
            // Fresh session (cold caches) so cache flags match across runs.
            let report = ServeSession::new(cfg.clone())
                .expect("session")
                .run(&NodeCountModel, &evaluated, &prepared.project.catalog, None)
                .expect("serve");
            mcsim_par::set_threads(prev);
            report
        };
        let baseline = serve(1);
        assert_eq!(baseline.decision_log.len(), baseline.requests);
        assert_eq!(baseline.latency.count, baseline.admitted as u64);
        assert!(baseline.completed > 0, "some requests must complete");
        if cfg.shed != ShedPolicy::None {
            let log = &baseline.decision_log;
            let first_shed = log
                .iter()
                .position(|d| d.outcome == RequestOutcome::Shed)
                .expect("the queue bound must shed");
            assert!(
                log[first_shed..]
                    .iter()
                    .any(|d| d.outcome != RequestOutcome::Shed),
                "shed records must interleave with served ones"
            );
        }
        for threads in [2, 8] {
            assert_eq!(
                thread_invariant_summary(&serve(threads)),
                thread_invariant_summary(&baseline),
                "serving must be bit-identical at {threads} threads ({:?})",
                cfg.shed
            );
        }
    }
}

/// The simulation core is not a semantic knob: serving the same trace on
/// the event-driven engine and on the dense per-tick reference engine
/// yields bit-identical decision logs, even with faults armed and
/// arrival-time cluster offsets in play.
#[test]
fn decision_log_is_bit_identical_across_engines() {
    let (prepared, evaluated) = evaluated_fixture(14);
    let catalog = &prepared.project.catalog;
    let cfg = |engine| {
        ServeConfig::builder()
            .tenants(4)
            .requests(48)
            .batch_size(16)
            .machines(8)
            .warmup_ticks(4)
            .fault_scale(2.0)
            .gate(permissive_gate())
            .engine(engine)
            .seed(31)
            .build()
            .expect("valid config")
    };
    let event = ServeSession::new(cfg(EngineMode::EventDriven))
        .unwrap()
        .run(&NodeCountModel, &evaluated, catalog, None)
        .unwrap();
    let dense = ServeSession::new(cfg(EngineMode::DenseTick))
        .unwrap()
        .run(&NodeCountModel, &evaluated, catalog, None)
        .unwrap();
    assert_eq!(event.decision_log, dense.decision_log);
    assert_eq!(event.completed, dense.completed);
    assert_eq!(event.failed, dense.failed);
    assert_eq!(event.total_cost.to_bits(), dense.total_cost.to_bits());
    assert_eq!(event.total_retries, dense.total_retries);
}

#[test]
fn batched_cached_serving_decides_like_single_query() {
    let (prepared, evaluated) = evaluated_fixture(12);
    let single_cfg = ServeConfig::builder()
        .tenants(4)
        .requests(64)
        .batch_size(1)
        .feature_cache(false)
        .decision_cache(false)
        .machines(8)
        .warmup_ticks(4)
        .gate(permissive_gate())
        .seed(13)
        .build()
        .unwrap();
    let batched_cfg = ServeConfig::builder()
        .tenants(4)
        .requests(64)
        .batch_size(32)
        .machines(8)
        .warmup_ticks(4)
        .gate(permissive_gate())
        .seed(13)
        .build()
        .unwrap();
    let catalog = &prepared.project.catalog;
    let single = ServeSession::new(single_cfg)
        .unwrap()
        .run(&NodeCountModel, &evaluated, catalog, None)
        .unwrap();
    let batched = ServeSession::new(batched_cfg)
        .unwrap()
        .run(&NodeCountModel, &evaluated, catalog, None)
        .unwrap();
    assert_eq!(single.decision_log.len(), batched.decision_log.len());
    for (s, b) in single.decision_log.iter().zip(&batched.decision_log) {
        assert!(
            s.same_decision(b),
            "decisions must agree modulo the cache flag: {s:?} vs {b:?}"
        );
    }
    assert!(
        batched.decision_cache_hits > 0,
        "recurring templates must hit the decision cache"
    );
    assert!(batched.batches < single.batches, "batching must amortize");
}

#[test]
fn model_update_invalidates_cached_decisions() {
    let (prepared, evaluated) = evaluated_fixture(13);
    let session = ServeSession::new(serve_cfg(21)).expect("session");
    let catalog = &prepared.project.catalog;

    let cold = session
        .run(&NodeCountModel, &evaluated, catalog, None)
        .unwrap();
    assert!(cold.decision_cache_misses > 0, "cold run must miss");

    let warm = session
        .run(&NodeCountModel, &evaluated, catalog, None)
        .unwrap();
    assert_eq!(
        warm.decision_cache_misses, 0,
        "second run must be fully cached"
    );
    assert!(warm.decision_cache_hits > 0);

    session.notify_model_updated();
    let after_update = session
        .run(&NodeCountModel, &evaluated, catalog, None)
        .unwrap();
    assert!(
        after_update.decision_cache_misses > 0,
        "a model update must invalidate every cached decision"
    );
    // Same model ⇒ same decisions even across the invalidation.
    for (w, a) in warm.decision_log.iter().zip(&after_update.decision_log) {
        assert!(w.same_decision(a));
    }
}

#[test]
fn shed_rate_is_monotone_in_arrival_rate() {
    let (prepared, evaluated) = evaluated_fixture(14);
    let catalog = &prepared.project.catalog;
    let mut last = -1.0f64;
    for rate in [20.0, 80.0, 320.0] {
        let cfg = ServeConfig::builder()
            .arrival(ArrivalProfile::Poisson { rate_qps: rate })
            .tenants(4)
            .requests(96)
            .batch_size(16)
            .shed(ShedPolicy::QueueBound {
                capacity: 8,
                drain_qps: 40.0,
            })
            .machines(8)
            .warmup_ticks(4)
            .gate(permissive_gate())
            .seed(5)
            .build()
            .unwrap();
        let report = ServeSession::new(cfg)
            .unwrap()
            .run(&NodeCountModel, &evaluated, catalog, None)
            .unwrap();
        assert_eq!(report.shed + report.admitted, report.requests);
        assert!(
            report.shed_rate() >= last,
            "shed rate must not drop as the arrival rate rises: {} < {last} at {rate} qps",
            report.shed_rate()
        );
        last = report.shed_rate();
    }
    assert!(last > 0.0, "the overloaded point must shed something");
}

#[test]
fn gate_hold_serves_defaults_for_every_admitted_request() {
    let (prepared, evaluated) = evaluated_fixture(15);
    // An impossible gate: any steered/native ratio above 0 is a hold.
    let cfg = ServeConfig::builder()
        .tenants(4)
        .requests(48)
        .batch_size(8)
        .machines(8)
        .warmup_ticks(4)
        .gate(GateConfig {
            max_avg_ratio: 0.0,
            ..GateConfig::default()
        })
        .seed(3)
        .build()
        .unwrap();
    let report = ServeSession::new(cfg)
        .unwrap()
        .run(&NodeCountModel, &evaluated, &prepared.project.catalog, None)
        .unwrap();
    assert!(!report.gate_deployed);
    assert_eq!(
        report.resolution_count(Resolution::GateFallback) + report.failed,
        report.admitted,
        "every admitted request must ride the gate-fallback rung"
    );
    for d in &report.decision_log {
        if let RequestOutcome::Served { choice, .. } = d.outcome {
            let eq = evaluated
                .iter()
                .find(|eq| eq.query_id == d.query_id)
                .expect("template");
            assert_eq!(choice, eq.default_idx, "gate hold must serve the default");
        }
    }
}

#[test]
fn serving_spans_reach_the_chrome_trace_export() {
    let (prepared, evaluated) = evaluated_fixture(16);
    let cfg = ServeConfig::builder()
        .tenants(4)
        .requests(32)
        .batch_size(8)
        .machines(8)
        .warmup_ticks(4)
        .gate(permissive_gate())
        .seed(17)
        .build()
        .unwrap();
    let ctx = TraceContext::new("serve");
    let traced = ServeSession::new(cfg.clone())
        .unwrap()
        .run(
            &NodeCountModel,
            &evaluated,
            &prepared.project.catalog,
            Some(&ctx),
        )
        .unwrap();
    // Tracing must not change a single decision.
    let untraced = ServeSession::new(cfg)
        .unwrap()
        .run(&NodeCountModel, &evaluated, &prepared.project.catalog, None)
        .unwrap();
    assert_eq!(traced.decision_log, untraced.decision_log);

    let names: Vec<String> = ctx.spans().iter().map(|s| s.name.clone()).collect();
    assert!(names.iter().any(|n| n == "serve.batch_infer"));
    assert_eq!(
        names.iter().filter(|n| *n == "serve.request").count(),
        traced.admitted,
        "one serve.request span per admitted request"
    );
    assert!(
        !ctx.timeline().is_empty(),
        "per-stage executor events must nest under the serving run"
    );
    let chrome = ctx.to_chrome_json();
    for needle in ["serve.request", "serve.batch_infer"] {
        assert!(
            chrome.contains(needle),
            "chrome export must carry {needle} events"
        );
    }
}
