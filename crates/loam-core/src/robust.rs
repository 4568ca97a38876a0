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
//!    [`LoamError::ExecutionFailed`](crate::LoamError::ExecutionFailed)-equivalent
//!    result entry.
//!
//! Every degradation leaves a typed
//! [`Decision::Fallback`](mcsim_obs::trace::Decision::Fallback) provenance record
//! in the trace and bumps a `loam.fallback.*` counter.

use crate::gate::GateConfig;
use crate::inference::DEFAULT_MARGIN;

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
    /// The rung a plan selection reaches before execution: a misbehaving
    /// predictor ⇒ [`PredictorFallback`](Resolution::PredictorFallback),
    /// otherwise [`Default`](Resolution::Default) when `choice` is the
    /// default plan and [`Steered`](Resolution::Steered) when it is not.
    pub fn of_selection(choice: usize, default_idx: usize, predictor_failed: bool) -> Resolution {
        if predictor_failed {
            Resolution::PredictorFallback
        } else if choice == default_idx {
            Resolution::Default
        } else {
            Resolution::Steered
        }
    }

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

#[cfg(test)]
mod tests {
    use super::*;

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
