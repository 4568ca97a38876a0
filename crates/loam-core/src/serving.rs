//! The unified per-query serving engine: [`RobustServer`].
//!
//! [`RobustServer`] binds an [`EnvStrategy`] and a validated
//! [`RobustConfig`] once and exposes the fallback ladder of [`Resolution`]
//! as methods, so no caller threads the margin, fallback and gate
//! configuration through its own parameter lists.
//!
//! `RobustServer` is the *per-query* engine: select under the margin guard,
//! degrade on non-finite predictions, execute with default-plan replay.
//! The *throughput* layer — open-loop arrivals, batching, admission
//! control, decision caching — lives in the `mcsim-serve` crate, whose
//! `ServeSession` drives a `RobustServer` under the hood.

use crate::error::LoamError;
use crate::featurize::FeatureCache;
use crate::gate::validate_traced;
use crate::inference::{guarded_choice_traced, EnvStrategy};
use crate::pipeline::{check_servable, EvaluatedQuery};
use crate::predictor::baselines::CostModel;
use crate::predictor::InferWs;
use crate::robust::{Resolution, RobustConfig, RobustQueryResult, RobustRunReport};
use mcsim_catalog::Catalog;
use mcsim_exec::{ExecPlan, ExecutionOutcome, Executor};
use mcsim_obs::trace::{Decision, Fallback, TraceContext};
use mcsim_plan::PlanTree;

/// Per-query serving engine: plan selection under the margin guard plus the
/// graceful-degradation ladder of [`Resolution`], bound to one environment
/// strategy and one validated configuration.
#[derive(Debug, Clone)]
pub struct RobustServer {
    strategy: EnvStrategy,
    cfg: RobustConfig,
}

impl RobustServer {
    /// Binds `strategy` and `cfg`. Fails with
    /// [`LoamError::InvalidConfig`] unless `0 ≤ margin < 1` — a margin of
    /// 1 or more can never accept a steered plan (costs are positive), and
    /// a negative or non-finite margin makes the guard vacuous.
    pub fn new(strategy: EnvStrategy, cfg: RobustConfig) -> Result<RobustServer, LoamError> {
        if !cfg.margin.is_finite() || !(0.0..1.0).contains(&cfg.margin) {
            return Err(LoamError::InvalidConfig(format!(
                "guard margin must be in [0, 1), got {}",
                cfg.margin
            )));
        }
        Ok(RobustServer { strategy, cfg })
    }

    /// The bound environment strategy.
    pub fn strategy(&self) -> &EnvStrategy {
        &self.strategy
    }

    /// The bound configuration.
    pub fn config(&self) -> &RobustConfig {
        &self.cfg
    }

    /// Scores every candidate with one batched forward (through `cache`
    /// when provided) into caller-owned buffers: `out` receives one cost
    /// per candidate (cleared first). Bit-identical to scoring each plan
    /// alone. With a warm workspace and feature cache, a steady-state
    /// scoring batch performs zero heap allocations.
    pub fn score_batch_into<M: CostModel + Sync + ?Sized>(
        &self,
        model: &M,
        plans: &[&PlanTree],
        cache: Option<&FeatureCache>,
        ws: &mut InferWs,
        out: &mut Vec<f64>,
    ) {
        model.predict_batch_into(plans, self.strategy.env_source(), cache, ws, out);
    }

    /// The margin guard plus predictor-degradation rung over an
    /// already-scored candidate set: a non-finite cost degrades to the
    /// default plan with a [`Decision::Fallback`] record and a reason,
    /// otherwise the guard decides. This is the method batched callers use
    /// after [`score_batch_into`](Self::score_batch_into).
    pub fn resolve_scored(
        &self,
        plans: &[&PlanTree],
        costs: &[f64],
        default_idx: usize,
        trace: Option<&TraceContext>,
        query_id: u64,
    ) -> (usize, Option<String>) {
        assert!(!plans.is_empty(), "candidate set must be non-empty");
        assert_eq!(plans.len(), costs.len(), "one cost per candidate");
        if let Some((i, c)) = costs.iter().enumerate().find(|(_, c)| !c.is_finite()) {
            let reason = format!(
                "predictor returned non-finite cost {c} for candidate #{i}; serving default"
            );
            mcsim_obs::counter("loam.fallback.predictor_error", 1);
            if let Some(t) = trace {
                t.decision(Decision::Fallback(Fallback {
                    query_id,
                    reason: reason.clone(),
                }));
            }
            return (default_idx, Some(reason));
        }
        let best = costs
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(default_idx);
        let chosen = guarded_choice_traced(
            plans,
            costs,
            best,
            default_idx,
            self.cfg.margin,
            trace,
            query_id,
        );
        (chosen, None)
    }

    /// Robust selection: scores the candidates with one batched forward
    /// through the calling thread's warm inference workspace and runs
    /// [`resolve_scored`](Self::resolve_scored). The returned reason is
    /// `Some` exactly when the predictor misbehaved.
    pub fn select_robust<M: CostModel + Sync + ?Sized>(
        &self,
        model: &M,
        plans: &[&PlanTree],
        default_idx: usize,
        trace: Option<&TraceContext>,
        query_id: u64,
    ) -> (usize, Option<String>) {
        assert!(!plans.is_empty(), "candidate set must be non-empty");
        let mut costs = Vec::with_capacity(plans.len());
        crate::predictor::with_thread_infer_ws(|ws| {
            model.predict_batch_into(plans, self.strategy.env_source(), None, ws, &mut costs);
        });
        self.resolve_scored(plans, &costs, default_idx, trace, query_id)
    }

    /// Executes the compiled `steered` plan, and on failure replays the
    /// compiled `default_plan` (recording a [`Decision::Fallback`]).
    /// Returns the outcome and whether the fallback fired; errs only if the
    /// default plan failed too.
    pub fn execute_with_fallback(
        &self,
        exec: &mut Executor,
        steered: &ExecPlan,
        default_plan: &ExecPlan,
        trace: Option<&TraceContext>,
        query_id: u64,
    ) -> Result<(ExecutionOutcome, bool), LoamError> {
        match exec.run(steered, None, trace) {
            Ok(out) => Ok((out, false)),
            Err(e) => {
                mcsim_obs::counter("loam.fallback.exec_failed", 1);
                if let Some(t) = trace {
                    t.decision(Decision::Fallback(Fallback {
                        query_id,
                        reason: format!("steered execution failed ({e}); replaying default plan"),
                    }));
                }
                match exec.run(default_plan, None, trace) {
                    Ok(out) => Ok((out, true)),
                    Err(e2) => {
                        mcsim_obs::counter("loam.robust.queries_failed", 1);
                        Err(LoamError::ExecutionFailed(format!(
                            "default plan failed too ({e2}) after steered failure ({e})"
                        )))
                    }
                }
            }
        }
    }

    /// Serves one already-selected query down the execution rungs of the
    /// ladder: with fallback enabled a failure of the compiled `steered`
    /// plan replays the compiled `default_plan`, without it the failure is
    /// terminal. `base` is the resolution the selection stage decided on.
    pub fn execute_resolved(
        &self,
        exec: &mut Executor,
        steered: &ExecPlan,
        default_plan: &ExecPlan,
        base: Resolution,
        trace: Option<&TraceContext>,
        query_id: u64,
    ) -> RobustQueryResult {
        let resolved = if self.cfg.fallback_enabled {
            match self.execute_with_fallback(exec, steered, default_plan, trace, query_id) {
                Ok((out, fell_back)) => Some((
                    out,
                    if fell_back {
                        Resolution::ExecFallback
                    } else {
                        base
                    },
                )),
                Err(_) => None,
            }
        } else {
            match exec.run(steered, None, trace) {
                Ok(out) => Some((out, base)),
                Err(_) => {
                    mcsim_obs::counter("loam.robust.queries_failed", 1);
                    None
                }
            }
        };
        match resolved {
            Some((out, resolution)) => {
                mcsim_obs::counter("loam.robust.queries_completed", 1);
                RobustQueryResult {
                    query_id,
                    resolution,
                    cost: out.cpu_cost,
                    retries: out.retries,
                    wasted_cost: out.wasted_cost,
                    speculative_launches: out.speculative_launches,
                }
            }
            None => RobustQueryResult {
                query_id,
                resolution: Resolution::Failed,
                cost: 0.0,
                retries: 0,
                wasted_cost: 0.0,
                speculative_launches: 0,
            },
        }
    }

    /// Whether the gate-hold rung applies: the deployment gate held the
    /// model (`gate_deployed` is false) and the fallback ladder is armed.
    /// Every query then serves its default plan unscored.
    pub fn gate_holds(&self, gate_deployed: bool) -> bool {
        !gate_deployed && self.cfg.fallback_enabled
    }

    /// Records one query served under the gate hold: bumps
    /// `loam.fallback.gate_hold` and leaves a [`Decision::Fallback`] record
    /// in `trace`.
    pub fn record_gate_hold(&self, query_id: u64, trace: Option<&TraceContext>) {
        mcsim_obs::counter("loam.fallback.gate_hold", 1);
        if let Some(t) = trace {
            t.decision(Decision::Fallback(Fallback {
                query_id,
                reason: "deployment gate held the model; serving default plan".into(),
            }));
        }
    }

    /// Selection stage for one evaluated query: gate hold → default plan;
    /// otherwise robust selection. Returns the chosen index and the
    /// resolution the execution stage starts from.
    pub fn select_for<M: CostModel + Sync + ?Sized>(
        &self,
        model: &M,
        eq: &EvaluatedQuery,
        gate_deployed: bool,
        trace: Option<&TraceContext>,
    ) -> (usize, Resolution) {
        if self.gate_holds(gate_deployed) {
            self.record_gate_hold(eq.query_id, trace);
            return (eq.default_idx, Resolution::GateFallback);
        }
        let refs: Vec<&PlanTree> = eq.plans.iter().collect();
        let (choice, predictor_error) =
            self.select_robust(model, &refs, eq.default_idx, trace, eq.query_id);
        let base = Resolution::of_selection(choice, eq.default_idx, predictor_error.is_some());
        (choice, base)
    }

    /// The full robust serving loop: gate the model once, then select and
    /// execute every evaluated query down the fallback ladder. Never panics
    /// and always terminates — every query lands on some [`Resolution`],
    /// and every degraded query carries a [`Decision::Fallback`] record in
    /// `trace`. Input that [`check_servable`] rejects is returned as its
    /// typed error before anything is scored.
    pub fn serve_all<M: CostModel + Sync + ?Sized>(
        &self,
        model: &M,
        evaluated: &[EvaluatedQuery],
        exec: &mut Executor,
        catalog: &Catalog,
        trace: Option<&TraceContext>,
    ) -> Result<RobustRunReport, LoamError> {
        check_servable(evaluated)?;
        let gate = validate_traced(model, &self.strategy, evaluated, &self.cfg.gate, trace);
        let gate_deployed = gate.deploy();
        let mut results = Vec::with_capacity(evaluated.len());
        for eq in evaluated {
            let (choice, base) = self.select_for(model, eq, gate_deployed, trace);
            let steered = exec.compile(&eq.plans[choice], catalog);
            let default_plan = (choice != eq.default_idx)
                .then(|| exec.compile(&eq.plans[eq.default_idx], catalog));
            results.push(self.execute_resolved(
                exec,
                &steered,
                default_plan.as_ref().unwrap_or(&steered),
                base,
                trace,
                eq.query_id,
            ));
        }
        Ok(RobustRunReport {
            gate_deployed,
            results,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurize::EnvSource;
    use crate::gate::GateConfig;
    use crate::inference::DEFAULT_MARGIN;
    use mcsim_plan::Operator;

    /// Charges per node; optionally returns NaN for every non-trivial plan.
    struct FakeModel {
        nan_for_big: bool,
    }
    impl CostModel for FakeModel {
        fn name(&self) -> &'static str {
            "fake"
        }
        fn predict(&self, plan: &PlanTree, _env: EnvSource<'_>) -> f64 {
            if self.nan_for_big && plan.len() > 2 {
                f64::NAN
            } else {
                plan.len() as f64
            }
        }
        fn size_bytes(&self) -> usize {
            0
        }
    }

    fn chain(n: usize) -> PlanTree {
        let mut t = PlanTree::new();
        let mut cur = t.leaf(Operator::table_scan(0, 1, 1, vec![0]));
        for _ in 0..n {
            cur = t.unary(Operator::Limit { n: 1 }, cur);
        }
        t.set_root(cur);
        t
    }

    fn server(margin: f64) -> RobustServer {
        RobustServer::new(
            EnvStrategy::NoEnv,
            RobustConfig {
                margin,
                ..RobustConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn builder_rejects_degenerate_margins() {
        for bad in [-0.1, 1.0, 1.5, f64::NAN, f64::INFINITY] {
            let err = RobustServer::new(
                EnvStrategy::NoEnv,
                RobustConfig {
                    margin: bad,
                    ..RobustConfig::default()
                },
            )
            .unwrap_err();
            assert!(
                matches!(err, LoamError::InvalidConfig(_)),
                "margin {bad} must be rejected, got {err:?}"
            );
        }
        assert!(server(0.0).config().margin == 0.0);
    }

    #[test]
    fn non_finite_predictions_fall_back_to_default_with_provenance() {
        let model = FakeModel { nan_for_big: true };
        let small = chain(1);
        let big = chain(9);
        let ctx = TraceContext::new("robust");
        let (choice, reason) =
            server(0.1).select_robust(&model, &[&small, &big], 0, Some(&ctx), 42);
        assert_eq!(choice, 0);
        assert!(reason.is_some(), "NaN prediction must surface a reason");
        let ds = ctx.decisions();
        assert!(
            matches!(&ds[0], Decision::Fallback(f) if f.query_id == 42),
            "fallback record expected, got {ds:?}"
        );
    }

    #[test]
    fn finite_predictions_delegate_to_the_margin_guard() {
        let model = FakeModel { nan_for_big: false };
        let small = chain(1);
        let big = chain(9);
        // Winner far cheaper than default ⇒ steered, no reason.
        let (choice, reason) = server(0.4).select_robust(&model, &[&big, &small], 0, None, 1);
        assert_eq!(choice, 1);
        assert!(reason.is_none());
    }

    #[test]
    fn resolve_scored_matches_select_robust_on_the_same_costs() {
        let model = FakeModel { nan_for_big: false };
        let plans = [chain(9), chain(1), chain(5)];
        let refs: Vec<&PlanTree> = plans.iter().collect();
        let s = server(DEFAULT_MARGIN);
        let mut costs = Vec::new();
        s.score_batch_into(&model, &refs, None, &mut InferWs::new(), &mut costs);
        let (from_scored, r1) = s.resolve_scored(&refs, &costs, 0, None, 3);
        let (from_select, r2) = s.select_robust(&model, &refs, 0, None, 3);
        assert_eq!(from_scored, from_select);
        assert_eq!(r1, r2);
    }

    #[test]
    fn guarded_selection_keeps_near_ties_on_the_default() {
        let model = FakeModel { nan_for_big: false };
        let big = chain(9);
        let near = chain(8);
        let s = server(DEFAULT_MARGIN);
        let refs = [&big, &near];
        let mut costs = Vec::new();
        s.score_batch_into(&model, &refs, None, &mut InferWs::new(), &mut costs);
        let (choice, _) = s.resolve_scored(&refs, &costs, 0, None, 8);
        assert_eq!(choice, 0, "margin guard must keep the default");
        assert_eq!(costs.len(), 2);
    }

    #[test]
    fn gate_hold_serves_every_query_default() {
        // An impossible gate (max_avg_ratio = 0) always holds the model.
        let s = RobustServer::new(
            EnvStrategy::NoEnv,
            RobustConfig {
                margin: DEFAULT_MARGIN,
                fallback_enabled: true,
                gate: GateConfig {
                    max_avg_ratio: 0.0,
                    ..GateConfig::default()
                },
            },
        )
        .unwrap();
        let eq = EvaluatedQuery {
            query_id: 9,
            plans: vec![chain(3), chain(1)],
            costs: vec![vec![30.0], vec![10.0]],
            default_idx: 0,
        };
        let (choice, base) = s.select_for(&FakeModel { nan_for_big: false }, &eq, false, None);
        assert_eq!(choice, 0);
        assert_eq!(base, Resolution::GateFallback);
    }
}
