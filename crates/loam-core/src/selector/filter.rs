//! The rule-based project filter (Section 6, Appendix D.1).
//!
//! Three rules exclude projects likely to pose training challenges:
//!
//! * **R1** `n_query(Q) ≥ N₀` — enough queries per day;
//! * **R2** `query_inc_ratio(Q) ≥ r` — stable or growing volume, with `r`
//!   the minimum ratio such that `N₀ · r³⁰ ≥` the target training-set size;
//! * **R3** `stable_table_ratio(Q) ≥ θ` — enough queries touch only
//!   long-lived tables (lifespan > `n` days), so distribution knowledge
//!   learned from history transfers to future queries.

use mcsim_catalog::Project;
use mcsim_obs::trace::{Decision, ProjectFilter, TraceContext};
use serde::{Deserialize, Serialize};

/// Thresholds of the three rules.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FilterConfig {
    /// R1: minimum average queries per day (paper: 2,000).
    pub n0: f64,
    /// R2: minimum daily growth ratio (paper: min `r` with
    /// `N₀ · r³⁰ ≥ 10,000`).
    pub r: f64,
    /// R3: lifespan threshold in days (paper: 30).
    pub lifespan_days: i64,
    /// R3: minimum stable-table ratio θ (paper: 0.2).
    pub theta: f64,
}

impl FilterConfig {
    /// The paper's production thresholds.
    pub fn paper() -> FilterConfig {
        let n0 = 2000.0;
        let target = 10_000.0;
        FilterConfig {
            n0,
            r: (target / n0).powf(1.0 / 30.0),
            lifespan_days: 30,
            theta: 0.2,
        }
    }

    /// Thresholds scaled down for reduced-volume simulations: `n0` shrinks
    /// by `scale`, the growth rule keeps the same functional form.
    pub fn scaled(scale: f64) -> FilterConfig {
        let paper = Self::paper();
        let n0 = (paper.n0 * scale).max(1.0);
        let target = (10_000.0 * scale).max(5.0 * n0.min(2.0 * n0));
        FilterConfig {
            n0,
            r: (target / n0).powf(1.0 / 30.0).max(1.0),
            ..paper
        }
    }
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig::paper()
    }
}

/// The computed metrics and per-rule outcomes for one project.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FilterReport {
    /// Average queries per day over the sampled window.
    pub n_query: f64,
    /// Mean day-over-day query-count ratio.
    pub query_inc_ratio: f64,
    /// Fraction of queries touching only long-lived tables.
    pub stable_table_ratio: f64,
    /// R1 outcome.
    pub passes_r1: bool,
    /// R2 outcome.
    pub passes_r2: bool,
    /// R3 outcome.
    pub passes_r3: bool,
}

impl FilterReport {
    /// True if every rule passes.
    pub fn passes(&self) -> bool {
        self.passes_r1 && self.passes_r2 && self.passes_r3
    }
}

/// Evaluates the filter on `project` using the workload of days
/// `[from, to)` as the sampled workload `Q`, and records a
/// [`Decision::ProjectFilter`] (the three measured metrics, each rule's
/// verdict, and the conjunction) into `trace` (when `Some`).
///
/// # Panics
///
/// Panics if the day range is empty.
pub fn evaluate(
    project: &Project,
    from: i64,
    to: i64,
    cfg: &FilterConfig,
    trace: Option<&TraceContext>,
) -> FilterReport {
    assert!(to > from, "day range must be non-empty");
    let d = (to - from) as f64;
    let mut daily_counts = Vec::with_capacity((to - from) as usize);
    let mut total = 0usize;
    let mut stable = 0usize;
    for day in from..to {
        let queries = project.workload_for_day(day);
        daily_counts.push(queries.len() as f64);
        for q in &queries {
            total += 1;
            if project.query_uses_only_stable_tables(q, cfg.lifespan_days) {
                stable += 1;
            }
        }
    }
    let n_query = daily_counts.iter().sum::<f64>() / d;
    let query_inc_ratio = if daily_counts.len() < 2 {
        1.0
    } else {
        let ratios: Vec<f64> = daily_counts
            .windows(2)
            .map(|w| if w[0] > 0.0 { w[1] / w[0] } else { 1.0 })
            .collect();
        ratios.iter().sum::<f64>() / ratios.len() as f64
    };
    let stable_table_ratio = if total == 0 {
        0.0
    } else {
        stable as f64 / total as f64
    };
    let report = FilterReport {
        n_query,
        query_inc_ratio,
        stable_table_ratio,
        passes_r1: n_query >= cfg.n0,
        passes_r2: query_inc_ratio >= cfg.r,
        passes_r3: stable_table_ratio >= cfg.theta,
    };
    if let Some(t) = trace {
        t.decision(Decision::ProjectFilter(ProjectFilter {
            project: project.id.0 as u64,
            n_query: report.n_query,
            query_inc_ratio: report.query_inc_ratio,
            stable_table_ratio: report.stable_table_ratio,
            passes_r1: report.passes_r1,
            passes_r2: report.passes_r2,
            passes_r3: report.passes_r3,
            selected: report.passes(),
        }));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim_catalog::{ProjectId, ProjectProfile};

    fn project(n_query_day0: f64, growth: f64, temp_ratio: f64) -> Project {
        let mut prof = ProjectProfile::evaluation_project(1).unwrap();
        prof.n_tables = 20;
        prof.n_temp_tables = 6;
        prof.n_columns = 140;
        prof.n_templates = 15;
        prof.n_query_day0 = n_query_day0;
        prof.daily_growth = growth;
        prof.temp_query_ratio = temp_ratio;
        // These tests exercise the rule logic, not volume noise: with σ = 0
        // the day-over-day ratio equals `growth` exactly, so the R1/R2
        // verdicts below hold for any RNG stream.
        prof.daily_volume_sigma = 0.0;
        prof.generate(ProjectId(0))
    }

    #[test]
    fn paper_thresholds_follow_the_formula() {
        let cfg = FilterConfig::paper();
        assert_eq!(cfg.n0, 2000.0);
        // 2000 * r^30 >= 10000 → r = 5^(1/30)
        assert!((cfg.n0 * cfg.r.powi(30) - 10_000.0).abs() < 1.0);
    }

    #[test]
    fn high_volume_stable_project_passes() {
        let p = project(120.0, 1.06, 0.05);
        let cfg = FilterConfig {
            n0: 100.0,
            r: 1.05,
            lifespan_days: 30,
            theta: 0.2,
        };
        let report = evaluate(&p, 0, 5, &cfg, None);
        assert!(report.passes_r1, "{report:?}");
        assert!(report.passes_r2, "{report:?}");
        assert!(report.passes_r3, "{report:?}");
        assert!(report.passes());
    }

    #[test]
    fn low_volume_project_fails_r1() {
        let p = project(10.0, 1.0, 0.05);
        let cfg = FilterConfig {
            n0: 100.0,
            r: 1.0,
            lifespan_days: 30,
            theta: 0.2,
        };
        let report = evaluate(&p, 0, 5, &cfg, None);
        assert!(!report.passes_r1);
        assert!(!report.passes());
    }

    #[test]
    fn shrinking_project_fails_r2() {
        let p = project(200.0, 0.8, 0.05);
        let cfg = FilterConfig {
            n0: 50.0,
            r: 1.0,
            lifespan_days: 30,
            theta: 0.2,
        };
        let report = evaluate(&p, 0, 6, &cfg, None);
        assert!(report.query_inc_ratio < 1.0);
        assert!(!report.passes_r2);
    }

    #[test]
    fn churny_project_fails_r3() {
        let p = project(100.0, 1.0, 0.95);
        let cfg = FilterConfig {
            n0: 50.0,
            r: 0.9,
            lifespan_days: 30,
            theta: 0.5,
        };
        let report = evaluate(&p, 0, 4, &cfg, None);
        assert!(report.stable_table_ratio < 0.5, "{report:?}");
        assert!(!report.passes_r3);
    }

    #[test]
    fn scaled_config_shrinks_n0() {
        let cfg = FilterConfig::scaled(0.05);
        assert!(cfg.n0 < FilterConfig::paper().n0);
        assert!(cfg.r >= 1.0);
    }
}
