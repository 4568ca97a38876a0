//! Synthetic project populations for the project-selection experiments
//! (Figures 12, 16 and Section 7.3).

use crate::scale::Scale;
use loam_core::explorer::PlanExplorer;
use loam_core::selector::filter::{evaluate as evaluate_filter, FilterConfig, FilterReport};
use loam_core::selector::ranker::ranker_features;
use loam_core::theory::deviance::deviance_of_choice;
use mcsim_catalog::{Project, ProjectId, ProjectProfile};
use mcsim_exec::Flighting;
use mcsim_optimizer::NativeOptimizer;
use mcsim_plan::PlanTree;

/// One population project with its filter verdict and (optionally) its
/// ground-truth improvement space and Ranker features.
pub struct PopulationProject {
    /// Generation seed (identity).
    pub seed: u64,
    /// The generated project.
    pub project: Project,
    /// Rule-based filter outcome.
    pub filter: FilterReport,
    /// Per-query Ranker features of sampled default plans.
    pub query_features: Vec<Vec<f64>>,
    /// Per-query improvement space `D(M_d)` (relative), parallel to
    /// `query_features`.
    pub query_improvement: Vec<f64>,
}

impl PopulationProject {
    /// Mean improvement space of the sampled workload.
    pub fn improvement(&self) -> f64 {
        if self.query_improvement.is_empty() {
            0.0
        } else {
            self.query_improvement.iter().sum::<f64>() / self.query_improvement.len() as f64
        }
    }
}

/// The filter thresholds used at a given harness scale.
pub fn filter_config(scale: Scale) -> FilterConfig {
    FilterConfig::scaled(scale.fraction() * 0.05)
}

/// Builds a labeled 28-project population once per process (Figures 12 and
/// 16 share it; labeling is the expensive part).
pub fn labeled_28(scale: Scale) -> &'static Vec<PopulationProject> {
    use std::sync::OnceLock;
    static CACHE: OnceLock<Vec<PopulationProject>> = OnceLock::new();
    CACHE.get_or_init(|| build(28, scale, true, 0x1234))
}

/// Builds a population of `n` random projects. When `with_labels` is set,
/// each project's sampled workload is explored and flighting-replayed to
/// compute exact per-query improvement space (expensive; used by the Ranker
/// experiments).
pub fn build(n: usize, scale: Scale, with_labels: bool, seed0: u64) -> Vec<PopulationProject> {
    let cfg = filter_config(scale);
    // Each project is generated and labeled from its own seed, so the
    // population fans out across the pool; parallel_map preserves order.
    let indices: Vec<usize> = (0..n).collect();
    mcsim_par::ThreadPool::global().parallel_map(&indices, |&i| {
        let seed = seed0 + i as u64;
        let profile = ProjectProfile::random(seed);
        let project = profile.generate(ProjectId(1000 + i as u32));
        let filter = evaluate_filter(&project, 0, 5, &cfg, None);
        let (query_features, query_improvement) = if with_labels {
            label_project(&project, seed)
        } else {
            (Vec::new(), Vec::new())
        };
        PopulationProject {
            seed,
            project,
            filter,
            query_features,
            query_improvement,
        }
    })
}

/// Samples a small workload, explores candidates, and measures per-query
/// improvement space via synchronized flighting replay (Appendix E.1's
/// practical estimation).
fn label_project(project: &Project, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let optimizer = NativeOptimizer::new(&project.catalog);
    let explorer = PlanExplorer::default();
    let mut flighting = Flighting::new(seed ^ 0xd00d, project.profile.env_noise_sigma);
    let queries: Vec<_> = project
        .workload_for_days(0, 5)
        .into_iter()
        .take(25)
        .collect();
    let mut features = Vec::with_capacity(queries.len());
    let mut improvements = Vec::with_capacity(queries.len());
    for q in &queries {
        let set = explorer.explore(&optimizer, q);
        let plans: Vec<&PlanTree> = set.candidates.iter().map(|c| &c.plan).collect();
        let costs = flighting.replay_synchronized(&plans, &project.catalog, 6);
        let d = deviance_of_choice(&costs, set.default_idx);
        let default_cost = d.oracle_cost + d.expected;
        features.push(ranker_features(
            &set.candidates[set.default_idx].plan,
            &project.catalog,
            default_cost,
        ));
        improvements.push(d.relative);
    }
    (features, improvements)
}
