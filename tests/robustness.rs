//! Integration: the serving session under fault injection, a broken
//! predictor or a held gate must degrade gracefully — it always
//! terminates, never panics, and every degraded request leaves a typed
//! [`Decision::Fallback`] provenance record whose `query_id` matches the
//! query it degraded. Configurations at the edges either serve every
//! arrival or fail with a typed error.

use loam::prelude::*;

fn tiny_profile(id: u32) -> ProjectProfile {
    let mut prof = ProjectProfile::evaluation_project(id as usize).expect("evaluation project");
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
/// robustness scenarios inject their own (mis)behaving models.
fn evaluated_fixture(id: u32) -> (PreparedProject, Vec<EvaluatedQuery>) {
    let cfg = tiny_cfg();
    let prepared = prepare_project(&tiny_profile(id), ProjectId(id), &cfg).expect("prepare");
    let evaluated = evaluate_candidates(&prepared, &cfg).expect("evaluate");
    (prepared, evaluated)
}

/// A deterministic stand-in predictor: charges per plan node.
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

/// A broken predictor: every score is NaN.
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

/// A gate that always deploys (the chaos scenarios want to exercise the
/// steered execution path, not the gate rung).
fn permissive_gate() -> GateConfig {
    GateConfig {
        max_avg_ratio: 1e9,
        max_tail_ratio: 1e9,
        max_regression_fraction: 1.0,
    }
}

/// Collects the query ids carrying a [`Decision::Fallback`] record.
fn fallback_ids(ctx: &TraceContext) -> Vec<u64> {
    ctx.decisions()
        .iter()
        .filter_map(|d| match d {
            Decision::Fallback(f) => Some(f.query_id),
            _ => None,
        })
        .collect()
}

/// A session at `cfg`, run over `evaluated` with `model`.
fn serve<M: CostModel + Sync>(
    cfg: ServeConfig,
    model: &M,
    prepared: &PreparedProject,
    evaluated: &[EvaluatedQuery],
    trace: Option<&TraceContext>,
) -> Result<ServeReport, LoamError> {
    ServeSession::new(cfg)?.run(model, evaluated, &prepared.project.catalog, trace)
}

/// The resolution of every served request, with its query id and cost.
fn served(report: &ServeReport) -> Vec<(u64, Resolution, f64)> {
    report
        .decision_log
        .iter()
        .filter_map(|d| match d.outcome {
            RequestOutcome::Served {
                resolution,
                cost_bits,
                ..
            } => Some((d.query_id, resolution, f64::from_bits(cost_bits))),
            RequestOutcome::Shed => None,
        })
        .collect()
}

#[test]
fn aggressive_chaos_terminates_and_records_fallback_provenance() {
    let (prepared, evaluated) = evaluated_fixture(3);
    // 20x the default fault rates, to push requests down to the lowest
    // rungs of the ladder.
    let cfg = ServeConfig::builder()
        .requests(32)
        .strategy(EnvStrategy::MeanHistorical(prepared.mean_env))
        .gate(permissive_gate())
        .fault_scale(20.0)
        .build()
        .expect("valid config");
    let ctx = TraceContext::new("robustness");
    let report = serve(cfg, &NodeCountModel, &prepared, &evaluated, Some(&ctx))
        .expect("serving must terminate with a report, never panic");

    // Every request landed on some rung of the ladder, the lowest two
    // included.
    assert_eq!(report.decision_log.len(), 32);
    assert_eq!(report.completed + report.failed, report.admitted);
    assert!(report.completion_rate() > 0.0);
    assert!(
        report.resolution_count(Resolution::ExecFallback) > 0,
        "no request replayed its default plan"
    );
    assert!(report.resolution_count(Resolution::Failed) > 0);
    // Failed requests carry no cost; completed ones do.
    let ids = fallback_ids(&ctx);
    for (query_id, resolution, cost) in served(&report) {
        if resolution == Resolution::Failed {
            assert_eq!(cost, 0.0);
        } else {
            assert!(cost > 0.0, "completed query {query_id} with zero cost");
        }
        // Every degraded request left a Fallback record naming its query.
        if resolution.is_degraded() {
            assert!(
                ids.contains(&query_id),
                "degraded query {query_id} ({resolution:?}) has no Fallback provenance record"
            );
        }
    }
    // The executors actually injected faults at this rate.
    assert!(
        report.total_retries > 0,
        "aggressive chaos must force retries"
    );
}

#[test]
fn nan_predictor_degrades_every_query_to_the_default_plan() {
    let (prepared, evaluated) = evaluated_fixture(4);
    let cfg = ServeConfig::builder()
        .requests(32)
        .strategy(EnvStrategy::MeanHistorical(prepared.mean_env))
        .gate(permissive_gate())
        .build()
        .expect("valid config");
    let ctx = TraceContext::new("nan-predictor");
    let report = serve(cfg, &NanModel, &prepared, &evaluated, Some(&ctx))
        .expect("a broken predictor must degrade, not fail the run");

    assert!((report.completion_rate() - 1.0).abs() < 1e-12);
    let ids = fallback_ids(&ctx);
    for (query_id, resolution, _) in served(&report) {
        assert_eq!(
            resolution,
            Resolution::PredictorFallback,
            "query {query_id} should have fallen back on the NaN prediction"
        );
        assert!(ids.contains(&query_id));
    }
}

#[test]
fn gate_hold_serves_every_query_with_the_default_plan() {
    let (prepared, evaluated) = evaluated_fixture(5);
    // An impossible gate: avg ratio must be <= 0.
    let held = || {
        ServeConfig::builder()
            .requests(32)
            .strategy(EnvStrategy::MeanHistorical(prepared.mean_env))
            .gate(GateConfig {
                max_avg_ratio: 0.0,
                ..GateConfig::default()
            })
    };
    let ctx = TraceContext::new("gate-hold");
    let report = serve(
        held().build().expect("valid config"),
        &NodeCountModel,
        &prepared,
        &evaluated,
        Some(&ctx),
    )
    .expect("gate hold must degrade, not fail the run");

    assert!(!report.gate_deployed);
    assert!((report.completion_rate() - 1.0).abs() < 1e-12);
    let ids = fallback_ids(&ctx);
    for (query_id, resolution, _) in served(&report) {
        assert_eq!(resolution, Resolution::GateFallback);
        assert!(ids.contains(&query_id));
    }

    // With the ladder disarmed, the same hold is ignored: requests serve
    // through normal guarded selection instead.
    let disarmed = held()
        .fallback_enabled(false)
        .build()
        .expect("valid config");
    let report2 = serve(disarmed, &NodeCountModel, &prepared, &evaluated, None)
        .expect("disarmed ladder without faults still completes");
    assert!(served(&report2).iter().all(|r| !r.1.is_degraded()));
}

/// A query without plans, or whose default index is past its last plan,
/// is a typed error from the serving loop — never a panic.
#[test]
fn malformed_candidate_sets_are_rejected_before_serving() {
    let mut plan = PlanTree::new();
    let scan = plan.leaf(Operator::table_scan(0, 1, 1, vec![0]));
    plan.set_root(scan);
    let no_plans = EvaluatedQuery {
        query_id: 1,
        plans: Vec::new(),
        costs: Vec::new(),
        default_idx: 0,
    };
    let default_past_end = EvaluatedQuery {
        query_id: 2,
        plans: vec![plan],
        costs: vec![vec![1.0]],
        default_idx: 1,
    };
    let catalog = Catalog::new();
    let session = ServeSession::new(ServeConfig::builder().requests(4).build().unwrap()).unwrap();
    for malformed in [no_plans, default_past_end] {
        let run = session.run(&NodeCountModel, &[malformed], &catalog, None);
        assert!(
            matches!(run, Err(LoamError::InvalidConfig(_))),
            "ServeSession::run: {run:?}"
        );
    }
}

/// Configurations at the edges of what `ServeConfig` accepts: every one
/// serves, and accounts for, each arrival exactly once.
#[test]
fn serve_config_edges_account_for_every_arrival() {
    let (prepared, evaluated) = evaluated_fixture(2);
    let base = || {
        ServeConfig::builder()
            .tenants(4)
            .requests(24)
            .batch_size(8)
            .machines(8)
            .warmup_ticks(4)
            .fault_scale(1.0)
            .gate(permissive_gate())
    };
    let cases = [
        ("one machine", base().machines(1)),
        ("one request", base().requests(1)),
        (
            "1e12 qps",
            base().arrival(ArrivalProfile::Poisson { rate_qps: 1e12 }),
        ),
        ("batch wider than the trace", base().batch_size(64)),
        (
            "queue bound of capacity 1",
            base().shed(ShedPolicy::QueueBound {
                capacity: 1,
                drain_qps: 1.0,
            }),
        ),
    ];
    for (name, builder) in cases {
        let cfg = builder.build().expect(name);
        let requests = cfg.requests;
        let report = serve(cfg, &NodeCountModel, &prepared, &evaluated, None)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.requests, requests, "{name}");
        assert_eq!(report.shed + report.admitted, requests, "{name}");
        assert_eq!(report.completed + report.failed, report.admitted, "{name}");
        let seqs: Vec<u64> = report.decision_log.iter().map(|d| d.seq).collect();
        assert_eq!(
            seqs,
            (0..requests as u64).collect::<Vec<_>>(),
            "{name}: one record per arrival"
        );
    }
}

/// A trace whose executors would start past the cluster clock's bound is a
/// typed error, in debug and release builds alike, before anything is
/// scored.
#[test]
fn start_tick_overflow_is_a_typed_error() {
    let (prepared, evaluated) = evaluated_fixture(2);
    let cases = [
        (
            "1e-30 qps",
            ServeConfig::builder().arrival(ArrivalProfile::Poisson { rate_qps: 1e-30 }),
        ),
        (
            "u64::MAX warm-up",
            ServeConfig::builder().warmup_ticks(u64::MAX),
        ),
    ];
    for (name, builder) in cases {
        let served = builder
            .requests(4)
            .build()
            .and_then(|cfg| serve(cfg, &NodeCountModel, &prepared, &evaluated, None));
        assert!(
            matches!(served, Err(LoamError::InvalidConfig(_))),
            "{name}: {served:?}"
        );
    }
}
