//! The learned project Ranker (Section 6, Appendix D.2).
//!
//! Estimates the improvement space `D(M_d)` of a query from *generic*
//! observable properties of its default plan — parent/child operator
//! patterns, the sizes of the largest input tables, and the plan's execution
//! cost — using a lightweight GBDT. Because the features carry no
//! project-specific identifiers, the Ranker trains across projects and
//! transfers to unseen ones.

use mcsim_catalog::Catalog;
use mcsim_obs::trace::{Decision, ProjectRanking, TraceContext};
use mcsim_plan::op::OpType;
use mcsim_plan::{Operator, PlanTree};
use serde::{Deserialize, Serialize};
use tinygbdt::{Gbdt, GbdtConfig};

/// Width of the hashed parent/child-pattern block.
pub const PATTERN_DIM: usize = 64;
/// Total Ranker feature width: structure summary (op count, scan count,
/// join count, depth) + patterns + 3 top table sizes + cost + the
/// cost-per-data-volume residual (the "unusually high execution cost" cue
/// of Section 6).
pub const RANKER_FEATURE_DIM: usize = 4 + PATTERN_DIM + 3 + 2;

/// Encodes a default plan into the Ranker's feature vector.
///
/// Pattern counts use `⟨parent, child⟩` operator-type pairs hashed into
/// [`PATTERN_DIM`] buckets — e.g. `#⟨HA, MJ⟩ = 1` can suggest a reversible
/// aggregate-over-join, which plain operator counts cannot express
/// (Appendix D.2).
pub fn ranker_features(plan: &PlanTree, catalog: &Catalog, cost: f64) -> Vec<f64> {
    let mut out = vec![0.0; RANKER_FEATURE_DIM];
    out[0] = (plan.len() as f64).ln_1p();
    out[1] = plan.count_ops(|o| matches!(o, Operator::TableScan { .. })) as f64;
    out[2] = plan.count_ops(|o| matches!(o, Operator::Join { .. })) as f64;
    out[3] = plan.depth() as f64;

    // Parent/child pattern counts.
    for (id, node) in plan.iter() {
        let p: OpType = node.op.op_type();
        for c in node.children() {
            let ct = plan.op(c).op_type();
            let bucket = (p.index() * 31 + ct.index() * 7) % PATTERN_DIM;
            out[4 + bucket] += 1.0;
        }
        let _ = id;
    }

    // Top-3 input table sizes (log10) and the total data volume.
    let mut sizes: Vec<f64> = Vec::new();
    let mut volume = 0.0f64;
    for (_, n) in plan.iter() {
        if let Operator::TableScan { table, .. } = &n.op {
            if let Some(t) = catalog.table(*table) {
                sizes.push((t.rows as f64).log10());
                volume += t.rows as f64;
            }
        }
    }
    sizes.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    for (i, s) in sizes.iter().take(3).enumerate() {
        out[4 + PATTERN_DIM + i] = *s;
    }

    // Plan cost (log) and its residual against the data volume — a plan
    // that is expensive *for its inputs* suggests a poor join order.
    out[4 + PATTERN_DIM + 3] = cost.max(1.0).ln();
    out[4 + PATTERN_DIM + 4] = cost.max(1.0).ln() - volume.max(1.0).ln();
    out
}

/// The trained Ranker.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ranker {
    model: Gbdt,
}

impl Ranker {
    /// Fits the Ranker on `(features, D(M_d))` pairs pooled from multiple
    /// projects.
    ///
    /// # Panics
    ///
    /// Panics if the training set is empty.
    pub fn fit(features: &[Vec<f64>], labels: &[f64], seed: u64) -> Ranker {
        let config = GbdtConfig {
            n_trees: 80,
            ..GbdtConfig::default()
        };
        Ranker {
            model: Gbdt::fit(features, labels, config, seed),
        }
    }

    /// Estimated improvement space of one query's default plan.
    pub fn predict(&self, features: &[f64]) -> f64 {
        self.model.predict(features)
    }

    /// A project's score: the mean estimated improvement space over its
    /// sampled workload's default plans.
    pub fn score_project(&self, features: &[Vec<f64>]) -> f64 {
        if features.is_empty() {
            return 0.0;
        }
        features.iter().map(|f| self.predict(f)).sum::<f64>() / features.len() as f64
    }

    /// Ranks projects by descending score; returns indices into `projects`
    /// and records a [`Decision::ProjectRanking`] — every project's score
    /// in ranked order — into `trace` (when `Some`).
    pub fn rank_projects(
        &self,
        projects: &[Vec<Vec<f64>>],
        trace: Option<&TraceContext>,
    ) -> Vec<usize> {
        let mut scored: Vec<(usize, f64)> = projects
            .iter()
            .enumerate()
            .map(|(i, feats)| (i, self.score_project(feats)))
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        if let Some(t) = trace {
            t.decision(Decision::ProjectRanking(ProjectRanking {
                scores: scored.iter().map(|&(i, s)| (i as u64, s)).collect(),
            }));
        }
        scored.into_iter().map(|(i, _)| i).collect()
    }

    /// Approximate model size (bytes).
    pub fn size_bytes(&self) -> usize {
        self.model.approx_size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim_catalog::{ProjectId, ProjectProfile};
    use mcsim_optimizer::{Knobs, NativeOptimizer};

    fn project() -> mcsim_catalog::Project {
        let mut prof = ProjectProfile::evaluation_project(3).unwrap();
        prof.n_tables = 20;
        prof.n_temp_tables = 2;
        prof.n_columns = 150;
        prof.n_templates = 12;
        prof.generate(ProjectId(3))
    }

    #[test]
    fn features_have_fixed_width_and_capture_structure() {
        let p = project();
        let opt = NativeOptimizer::new(&p.catalog);
        let queries = p.workload_for_day(0);
        let f1 = ranker_features(
            &opt.optimize(&queries[0], &Knobs::default()),
            &p.catalog,
            100.0,
        );
        assert_eq!(f1.len(), RANKER_FEATURE_DIM);
        // Pattern block must be populated.
        let pattern_sum: f64 = f1[4..4 + PATTERN_DIM].iter().sum();
        assert!(pattern_sum > 0.0);
    }

    #[test]
    fn cost_feature_reflects_input() {
        let p = project();
        let opt = NativeOptimizer::new(&p.catalog);
        let plan = opt.optimize(&p.workload_for_day(0)[0], &Knobs::default());
        let lo = ranker_features(&plan, &p.catalog, 10.0);
        let hi = ranker_features(&plan, &p.catalog, 1.0e6);
        assert!(hi[RANKER_FEATURE_DIM - 1] > lo[RANKER_FEATURE_DIM - 1]);
    }

    #[test]
    fn ranker_learns_a_cost_linked_signal() {
        // Synthetic: improvement space proportional to the cost feature.
        let p = project();
        let opt = NativeOptimizer::new(&p.catalog);
        let queries = p.workload_for_days(0, 3);
        let feats: Vec<Vec<f64>> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                ranker_features(
                    &opt.optimize(q, &Knobs::default()),
                    &p.catalog,
                    100.0 * (i + 1) as f64,
                )
            })
            .collect();
        let labels: Vec<f64> = feats
            .iter()
            .map(|f| 0.1 * f[RANKER_FEATURE_DIM - 1])
            .collect();
        let ranker = Ranker::fit(&feats, &labels, 1);
        // Predictions must correlate with labels (Spearman-ish check).
        let preds: Vec<f64> = feats.iter().map(|f| ranker.predict(f)).collect();
        let n = preds.len();
        let mut concordant = 0;
        let mut total = 0;
        for i in 0..n {
            for j in i + 1..n {
                if labels[i] != labels[j] {
                    total += 1;
                    if (preds[i] - preds[j]) * (labels[i] - labels[j]) > 0.0 {
                        concordant += 1;
                    }
                }
            }
        }
        let tau = concordant as f64 / total as f64;
        assert!(tau > 0.8, "concordance {tau}");
    }

    #[test]
    fn rank_projects_orders_by_score() {
        let feats_low = vec![vec![0.0; RANKER_FEATURE_DIM]; 3];
        let mut feats_high = vec![vec![0.0; RANKER_FEATURE_DIM]; 3];
        for f in &mut feats_high {
            f[RANKER_FEATURE_DIM - 1] = 10.0;
        }
        // Train a trivial model where label = last feature.
        let all: Vec<Vec<f64>> = feats_low.iter().chain(&feats_high).cloned().collect();
        let labels: Vec<f64> = all.iter().map(|f| f[RANKER_FEATURE_DIM - 1]).collect();
        let ranker = Ranker::fit(&all, &labels, 2);
        let order = ranker.rank_projects(&[feats_low, feats_high], None);
        assert_eq!(order[0], 1, "high-score project must rank first");
    }

    #[test]
    fn empty_project_scores_zero() {
        let ranker = Ranker::fit(&[vec![0.0; RANKER_FEATURE_DIM]], &[0.5], 3);
        assert_eq!(ranker.score_project(&[]), 0.0);
    }
}
