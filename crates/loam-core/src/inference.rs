//! Plan cost inference under invisible environments (Section 5).
//!
//! At optimization time the execution environment of an online query is
//! unknown. LOAM sets every environmental feature to its empirical mean over
//! historical *per-stage, machine-level* observations (the representative
//! instance `e_r`), which Section 7.2.5 shows beats the cluster-wide
//! alternatives. The ablation variants evaluated there are all here:
//!
//! * **LOAM** — [`EnvStrategy::MeanHistorical`]: mean of logged stage envs.
//! * **LOAM-CE** — [`EnvStrategy::ClusterExpected`]: expectation of a
//!   distribution fitted to cluster-wide metrics over the past 24 h.
//! * **LOAM-CB** — [`EnvStrategy::ClusterCurrent`]: the cluster-wide
//!   snapshot at the moment of optimization.
//! * **LOAM-NL** — [`EnvStrategy::NoEnv`]: no environment features at all
//!   (must be paired with a predictor trained with `use_env = false`).

use crate::featurize::EnvSource;
use crate::predictor::baselines::CostModel;
use mcsim_catalog::{EnvMetrics, QueryRepository};
use mcsim_exec::Cluster;
use mcsim_obs::trace::{
    CandidateScore, Decision, Fallback, PlanSelection, SelectionOutcome, TraceContext,
};
use mcsim_plan::{PlanSignature, PlanTree};
use serde::{Deserialize, Serialize};

/// How the environment block is instantiated at inference time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EnvStrategy {
    /// Representative instance `e_r`: empirical mean of historical
    /// machine-level stage environments (LOAM's choice).
    MeanHistorical(EnvMetrics),
    /// Expected cluster-wide environment over the trailing window (LOAM-CE).
    ClusterExpected(EnvMetrics),
    /// Instantaneous cluster-wide environment (LOAM-CB).
    ClusterCurrent(EnvMetrics),
    /// No environment features (LOAM-NL).
    NoEnv,
}

impl EnvStrategy {
    /// Builds LOAM's strategy from a historical repository.
    pub fn mean_historical(repo: &QueryRepository) -> EnvStrategy {
        EnvStrategy::MeanHistorical(repo.mean_stage_env())
    }

    /// Builds LOAM-CE from the cluster's retained history.
    pub fn cluster_expected(cluster: &Cluster) -> EnvStrategy {
        EnvStrategy::ClusterExpected(cluster.history_mean())
    }

    /// Builds LOAM-CB from the cluster's current snapshot.
    pub fn cluster_current(cluster: &Cluster) -> EnvStrategy {
        EnvStrategy::ClusterCurrent(cluster.cluster_mean())
    }

    /// The [`EnvSource`] to featurize candidate plans with.
    pub fn env_source(&self) -> EnvSource<'static> {
        match self {
            EnvStrategy::MeanHistorical(e)
            | EnvStrategy::ClusterExpected(e)
            | EnvStrategy::ClusterCurrent(e) => EnvSource::Uniform(*e),
            EnvStrategy::NoEnv => EnvSource::None,
        }
    }

    /// Display name matching the paper's variant labels.
    pub fn name(&self) -> &'static str {
        match self {
            EnvStrategy::MeanHistorical(_) => "LOAM",
            EnvStrategy::ClusterExpected(_) => "LOAM-CE",
            EnvStrategy::ClusterCurrent(_) => "LOAM-CB",
            EnvStrategy::NoEnv => "LOAM-NL",
        }
    }
}

/// Default confidence margin used by the guarded selection: a steered plan
/// must be predicted at least this much cheaper than the default plan to be
/// chosen over it.
pub const DEFAULT_MARGIN: f64 = 0.4;

/// Selects the candidate plan with the lowest estimated cost under the
/// given environment strategy. Returns `(index, predicted_costs)`.
///
/// The whole candidate set is scored with one batched forward through the
/// calling thread's warm inference workspace (models without a batched
/// forward fall back to a per-plan loop via the trait default); inner
/// kernels still fan out row blocks across the global pool above the work
/// gate, so the cost vector is bit-identical at any thread count.
pub fn select_plan<M: CostModel + Sync + ?Sized>(
    model: &M,
    plans: &[&PlanTree],
    strategy: &EnvStrategy,
) -> (usize, Vec<f64>) {
    assert!(!plans.is_empty(), "candidate set must be non-empty");
    let mut costs = Vec::with_capacity(plans.len());
    crate::predictor::with_thread_infer_ws(|ws| {
        model.predict_batch_into(plans, strategy.env_source(), None, ws, &mut costs);
    });
    let best = costs
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0);
    (best, costs)
}

/// The margin guard over an already-scored candidate set: picks between the
/// model's favourite `best` and `default_idx`, keeping the default plan
/// unless `best` is predicted at least `margin` cheaper than it. Production
/// steering is asymmetric — a missed improvement costs little, a
/// confident-but-wrong switch is a regression a multi-tenant system cannot
/// afford — so deviations from the native optimizer require a confidence
/// margin.
///
/// Records a [`Decision::PlanSelection`] (every candidate's signature and
/// predicted cost, the model's favourite, and the guarded choice) — plus a
/// [`Decision::Fallback`] when the margin guard overrides the model — into
/// `trace` (when `Some`); `query_id` labels the records. Returns the
/// guarded choice. Callers score the candidates first (e.g. with
/// [`select_plan`]), so that the serving session (`mcsim_serve`) can check
/// the costs for non-finite values before the guard sees them.
pub fn guarded_choice_traced(
    plans: &[&PlanTree],
    costs: &[f64],
    best: usize,
    default_idx: usize,
    margin: f64,
    trace: Option<&TraceContext>,
    query_id: u64,
) -> usize {
    let (chosen, outcome) = if best == default_idx {
        mcsim_obs::counter("loam.select.default_best", 1);
        (best, SelectionOutcome::DefaultBest)
    } else if costs[best] > costs[default_idx] * (1.0 - margin) {
        mcsim_obs::counter("loam.select.rejected", 1);
        (default_idx, SelectionOutcome::RejectedFallback)
    } else {
        mcsim_obs::counter("loam.select.accepted", 1);
        (best, SelectionOutcome::Accepted)
    };
    if let Some(t) = trace {
        let candidates: Vec<CandidateScore> = plans
            .iter()
            .zip(costs)
            .enumerate()
            .map(|(i, (p, &c))| CandidateScore {
                signature: PlanSignature::of(p).0,
                predicted_cost: c,
                is_default: i == default_idx,
            })
            .collect();
        t.decision(Decision::PlanSelection(PlanSelection {
            query_id,
            candidates,
            default_idx,
            best_idx: best,
            chosen_idx: chosen,
            margin,
            outcome,
        }));
        if outcome == SelectionOutcome::RejectedFallback {
            t.decision(Decision::Fallback(Fallback {
                query_id,
                reason: format!(
                    "steered candidate #{best} predicted {:.3} vs default {:.3}: \
                     not {:.0}% cheaper, keeping default plan",
                    costs[best],
                    costs[default_idx],
                    margin * 100.0
                ),
            }));
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim_plan::Operator;

    /// A fake model that charges per node and per unit of busy fraction.
    struct FakeModel;
    impl CostModel for FakeModel {
        fn name(&self) -> &'static str {
            "fake"
        }
        fn predict(&self, plan: &PlanTree, env: EnvSource<'_>) -> f64 {
            let env_term = match env {
                EnvSource::Uniform(e) => 1.0 + (1.0 - e.cpu_idle),
                _ => 1.0,
            };
            plan.len() as f64 * env_term
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
    fn select_plan_picks_minimum() {
        let a = chain(5);
        let b = chain(2);
        let c = chain(8);
        let strat = EnvStrategy::MeanHistorical(EnvMetrics::new(0.5, 0.05, 4.0, 0.5));
        let (idx, costs) = select_plan(&FakeModel, &[&a, &b, &c], &strat);
        assert_eq!(idx, 1);
        assert_eq!(costs.len(), 3);
    }

    /// Scores the candidates and runs the margin guard over them.
    fn score_and_guard(
        plans: &[&PlanTree],
        trace: Option<&TraceContext>,
        query_id: u64,
    ) -> (usize, Vec<f64>) {
        let (best, costs) = select_plan(&FakeModel, plans, &EnvStrategy::NoEnv);
        let chosen = guarded_choice_traced(plans, &costs, best, 0, DEFAULT_MARGIN, trace, query_id);
        (chosen, costs)
    }

    #[test]
    fn guarded_selection_records_decision_provenance() {
        let small = chain(1); // cheapest under FakeModel
        let big = chain(9); // the "default" plan
        let ctx = TraceContext::new("select");
        // Winner is far cheaper than the default: accepted.
        let (choice, costs) = score_and_guard(&[&big, &small], Some(&ctx), 7);
        assert_eq!(choice, 1);
        let ds = ctx.decisions();
        assert_eq!(ds.len(), 1);
        let Decision::PlanSelection(sel) = &ds[0] else {
            panic!("expected a plan-selection record, got {:?}", ds[0]);
        };
        assert_eq!(sel.query_id, 7);
        assert_eq!(sel.candidates.len(), 2);
        assert_eq!(sel.default_idx, 0);
        assert_eq!(sel.chosen_idx, 1);
        assert_eq!(sel.outcome, SelectionOutcome::Accepted);
        assert!(sel.candidates[0].is_default);
        assert_eq!(sel.candidates[0].predicted_cost, costs[0]);
        assert_ne!(sel.candidates[0].signature, sel.candidates[1].signature);

        // Near-tied candidates: the margin guard falls back and says why.
        let near = chain(8);
        let ctx2 = TraceContext::new("fallback");
        let (choice2, _) = score_and_guard(&[&big, &near], Some(&ctx2), 8);
        assert_eq!(choice2, 0, "margin guard must keep the default");
        let ds2 = ctx2.decisions();
        assert_eq!(ds2.len(), 2, "selection + fallback");
        assert!(matches!(&ds2[1], Decision::Fallback(f) if f.query_id == 8));
    }

    #[test]
    fn strategy_names_match_paper_variants() {
        let e = EnvMetrics::default();
        assert_eq!(EnvStrategy::MeanHistorical(e).name(), "LOAM");
        assert_eq!(EnvStrategy::ClusterExpected(e).name(), "LOAM-CE");
        assert_eq!(EnvStrategy::ClusterCurrent(e).name(), "LOAM-CB");
        assert_eq!(EnvStrategy::NoEnv.name(), "LOAM-NL");
    }

    #[test]
    fn no_env_strategy_yields_none_source() {
        assert!(matches!(EnvStrategy::NoEnv.env_source(), EnvSource::None));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_candidate_set_panics() {
        let strat = EnvStrategy::NoEnv;
        let _ = select_plan(&FakeModel, &[], &strat);
    }
}
