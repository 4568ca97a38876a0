//! Graceful degradation: the fallback ladder that keeps queries completing
//! when the predictor, the deployment gate, or the cluster itself misbehaves.
//!
//! Production steering is only shippable if every failure mode degrades to
//! the native optimizer's default plan instead of taking the query down
//! (what Microsoft's steering deployment and Bao both insist on). The ladder
//! here, from least to most degraded:
//!
//! 1. **Steered** — the model's choice survives the margin guard and
//!    executes (possibly with fault-injected retries along the way).
//! 2. **Predictor fallback** — a candidate scored non-finite: serve the
//!    default plan, record a
//!    [`Decision::Fallback`](mcsim_obs::trace::Decision::Fallback).
//! 3. **Gate fallback** — the deployment gate held the model: every query
//!    serves the default plan, each with a fallback record.
//! 4. **Execution fallback** — the steered plan exhausted its retry budget
//!    or deadline: replay the default plan.
//! 5. **Failed** — even the default plan failed; the query is counted
//!    against the completion rate and surfaces a
//!    [`LoamError::ExecutionFailed`]-equivalent result entry.
//!
//! Every degradation leaves a typed
//! [`Decision::Fallback`](mcsim_obs::trace::Decision::Fallback) provenance record
//! in the trace and bumps a `loam.fallback.*` counter.

use crate::error::LoamError;
use crate::gate::GateConfig;
use crate::inference::{EnvStrategy, DEFAULT_MARGIN};
use crate::pipeline::EvaluatedQuery;
use crate::predictor::baselines::CostModel;
use crate::serving::RobustServer;
use mcsim_catalog::Catalog;
use mcsim_exec::{ExecutionOutcome, Executor};
use mcsim_obs::trace::TraceContext;
use mcsim_plan::PlanTree;

/// Configuration of the robust serving loop.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustConfig {
    /// Margin of the guarded selection (see
    /// [`DEFAULT_MARGIN`]).
    pub margin: f64,
    /// Whether the fallback ladder is armed. With it off, gate holds are
    /// ignored and execution failures are terminal — the configuration the
    /// chaos benchmark contrasts against.
    pub fallback_enabled: bool,
    /// Deployment-gate thresholds.
    pub gate: GateConfig,
}

impl Default for RobustConfig {
    fn default() -> Self {
        RobustConfig {
            margin: DEFAULT_MARGIN,
            fallback_enabled: true,
            gate: GateConfig::default(),
        }
    }
}

/// How a query was ultimately resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// The steered (non-default) plan executed successfully.
    Steered,
    /// The model or margin guard itself preferred the default plan — the
    /// normal conservative outcome, not a degradation.
    Default,
    /// Non-finite prediction ⇒ default plan.
    PredictorFallback,
    /// Deployment gate held the model ⇒ default plan.
    GateFallback,
    /// Steered execution failed ⇒ default plan replayed.
    ExecFallback,
    /// Both steered and default execution failed.
    Failed,
}

impl Resolution {
    /// True for the degraded rungs of the ladder (everything below a clean
    /// steered/default serve).
    pub fn is_degraded(&self) -> bool {
        matches!(
            self,
            Resolution::PredictorFallback
                | Resolution::GateFallback
                | Resolution::ExecFallback
                | Resolution::Failed
        )
    }
}

/// Per-query outcome of the robust serving loop.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustQueryResult {
    /// The query.
    pub query_id: u64,
    /// How the query was resolved.
    pub resolution: Resolution,
    /// Observed CPU cost (0 for failed queries).
    pub cost: f64,
    /// Fault-injected retries the execution survived.
    pub retries: u32,
    /// CPU cost burnt by killed attempts.
    pub wasted_cost: f64,
    /// Speculative backups launched.
    pub speculative_launches: u32,
}

/// The robust serving loop's report.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustRunReport {
    /// Whether the gate deployed the model.
    pub gate_deployed: bool,
    /// One entry per evaluated query, in input order.
    pub results: Vec<RobustQueryResult>,
}

impl RobustRunReport {
    /// Fraction of queries that completed (any rung above `Failed`).
    pub fn completion_rate(&self) -> f64 {
        if self.results.is_empty() {
            return 1.0;
        }
        let ok = self
            .results
            .iter()
            .filter(|r| r.resolution != Resolution::Failed)
            .count();
        ok as f64 / self.results.len() as f64
    }

    /// How many queries took any degraded rung of the ladder.
    pub fn degraded_count(&self) -> usize {
        self.results
            .iter()
            .filter(|r| r.resolution.is_degraded())
            .count()
    }

    /// Total fault-injected retries across all queries.
    pub fn total_retries(&self) -> u32 {
        self.results.iter().map(|r| r.retries).sum()
    }

    /// Total observed CPU cost of completed queries.
    pub fn total_cost(&self) -> f64 {
        self.results.iter().map(|r| r.cost).sum()
    }

    /// Total CPU cost burnt by killed attempts.
    pub fn total_wasted_cost(&self) -> f64 {
        self.results.iter().map(|r| r.wasted_cost).sum()
    }
}

/// Robust plan selection.
#[deprecated(note = "use `serving::RobustServer::select_robust` instead")]
pub fn select_plan_robust<M: CostModel + Sync + ?Sized>(
    model: &M,
    plans: &[&PlanTree],
    strategy: &EnvStrategy,
    default_idx: usize,
    margin: f64,
    trace: Option<&TraceContext>,
    query_id: u64,
) -> (usize, Option<String>) {
    let cfg = RobustConfig {
        margin,
        ..RobustConfig::default()
    };
    RobustServer::unchecked(*strategy, cfg).select_robust(
        model,
        plans,
        default_idx,
        trace,
        query_id,
    )
}

/// Executes `steered`, replaying `default_plan` on failure.
#[deprecated(note = "use `serving::RobustServer::execute_with_fallback` instead")]
pub fn execute_with_fallback(
    exec: &mut Executor,
    steered: &PlanTree,
    default_plan: &PlanTree,
    catalog: &Catalog,
    trace: Option<&TraceContext>,
    query_id: u64,
) -> Result<(ExecutionOutcome, bool), LoamError> {
    let steered = exec.compile(steered, catalog);
    let default_plan = exec.compile(default_plan, catalog);
    RobustServer::unchecked(EnvStrategy::NoEnv, RobustConfig::default()).execute_with_fallback(
        exec,
        &steered,
        &default_plan,
        trace,
        query_id,
    )
}

/// The robust serving loop.
#[deprecated(note = "use `serving::RobustServer::serve_all` instead")]
pub fn run_robust_serving<M: CostModel + Sync + ?Sized>(
    model: &M,
    strategy: &EnvStrategy,
    evaluated: &[EvaluatedQuery],
    exec: &mut Executor,
    catalog: &Catalog,
    cfg: &RobustConfig,
    trace: Option<&TraceContext>,
) -> Result<RobustRunReport, LoamError> {
    RobustServer::unchecked(*strategy, cfg.clone())
        .serve_all(model, evaluated, exec, catalog, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurize::EnvSource;
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

    #[test]
    #[allow(deprecated)]
    fn deprecated_shims_delegate_to_the_session_engine() {
        let model = FakeModel { nan_for_big: true };
        let small = chain(1);
        let big = chain(9);
        let strat = EnvStrategy::NoEnv;
        // NaN candidate ⇒ default, with a reason — same ladder as the new API.
        let (choice, reason) =
            select_plan_robust(&model, &[&small, &big], &strat, 0, 0.1, None, 42);
        let (new_choice, new_reason) = RobustServer::unchecked(
            strat,
            RobustConfig {
                margin: 0.1,
                ..RobustConfig::default()
            },
        )
        .select_robust(&model, &[&small, &big], 0, None, 42);
        assert_eq!(choice, new_choice);
        assert_eq!(reason.is_some(), new_reason.is_some());
        // Finite candidates ⇒ margin guard, same winner.
        let ok = FakeModel { nan_for_big: false };
        let (c1, r1) = select_plan_robust(&ok, &[&big, &small], &strat, 0, 0.4, None, 1);
        assert_eq!(c1, 1);
        assert!(r1.is_none());
    }

    #[test]
    fn resolution_degradation_classes_are_consistent() {
        assert!(!Resolution::Steered.is_degraded());
        assert!(!Resolution::Default.is_degraded());
        assert!(Resolution::PredictorFallback.is_degraded());
        assert!(Resolution::GateFallback.is_degraded());
        assert!(Resolution::ExecFallback.is_degraded());
        assert!(Resolution::Failed.is_degraded());
    }

    #[test]
    fn report_rates_are_computed_over_all_queries() {
        let mk = |resolution, cost| RobustQueryResult {
            query_id: 0,
            resolution,
            cost,
            retries: 1,
            wasted_cost: 0.5,
            speculative_launches: 0,
        };
        let report = RobustRunReport {
            gate_deployed: true,
            results: vec![
                mk(Resolution::Steered, 10.0),
                mk(Resolution::ExecFallback, 20.0),
                mk(Resolution::Failed, 0.0),
                mk(Resolution::Default, 5.0),
            ],
        };
        assert!((report.completion_rate() - 0.75).abs() < 1e-12);
        assert_eq!(report.degraded_count(), 2);
        assert_eq!(report.total_retries(), 4);
        assert!((report.total_cost() - 35.0).abs() < 1e-12);
        assert!((report.total_wasted_cost() - 2.0).abs() < 1e-12);
    }
}
