//! Figure 7: per-query execution cost of LOAM vs. MaxCompute — queries
//! sorted by cost delta (slowdown → speedup), with improvement/regression
//! counts and magnitudes.

use crate::exps::common::ProjectRun;
use loam_core::pipeline::evaluate_model;

/// Prints the per-query analysis for one project.
pub fn print_project(run: &ProjectRun) {
    let loam =
        evaluate_model(&run.loam, &run.strategy, &run.evaluated).expect("model evaluation failed");
    // (default − chosen): positive = speedup.
    let mut deltas: Vec<(f64, f64, f64)> = loam
        .per_query
        .iter()
        .map(|&(def, chosen)| (def - chosen, def, chosen))
        .collect();
    deltas.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

    let slowdowns = deltas
        .iter()
        .filter(|d| d.0 < -1e-9 && d.2 > d.1 * 1.02)
        .count();
    let speedups = deltas
        .iter()
        .filter(|d| d.0 > 1e-9 && d.2 < d.1 * 0.98)
        .count();
    let worst = deltas.first().map(|d| -d.0).unwrap_or(0.0).max(0.0);
    let best = deltas.last().map(|d| d.0).unwrap_or(0.0).max(0.0);
    let n = deltas.len();

    // Relative improvements among improved queries.
    let mut rel_gains: Vec<f64> = deltas
        .iter()
        .filter(|d| d.0 > 0.0 && d.1 > 0.0)
        .map(|d| d.0 / d.1)
        .collect();
    rel_gains.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let median_gain = rel_gains.get(rel_gains.len() / 2).copied().unwrap_or(0.0);

    println!(
        "Project {}: {} test queries — {} slowdowns ({:.0}%), {} speedups ({:.0}%)",
        run.n,
        n,
        slowdowns,
        100.0 * slowdowns as f64 / n.max(1) as f64,
        speedups,
        100.0 * speedups as f64 / n.max(1) as f64,
    );
    println!(
        "  worst regression {:.0}, best improvement {:.0} ({}), median relative gain among improved {:.0}%",
        worst,
        best,
        ratio_label(best, worst, slowdowns),
        median_gain * 100.0
    );

    // Compact sorted-delta sparkline (16 buckets).
    let buckets = 16usize.min(n.max(1));
    let mut line = String::from("  sorted Δ(default−chosen): ");
    for b in 0..buckets {
        let idx = b * n / buckets;
        let d = deltas[idx].0;
        line.push(if d < -1e-9 {
            '▼'
        } else if d > 1e-9 {
            '▲'
        } else {
            '·'
        });
    }
    println!("{line}");
}

/// Prints the analysis for all projects.
pub fn print(runs: &[ProjectRun]) {
    println!("Figure 7 — per-query cost of LOAM vs MaxCompute (sorted slowdown→speedup)");
    println!("(paper: improvements far outnumber and outweigh regressions on P1/P2/P5)\n");
    for run in runs {
        print_project(run);
    }
}

/// The best-improvement to worst-regression ratio, printed only when a
/// counted slowdown exists: without one the worst "regression" is a
/// rounding-size delta (or none at all), and the ratio says nothing.
fn ratio_label(best: f64, worst: f64, slowdowns: usize) -> String {
    if slowdowns == 0 {
        "no regression".to_string()
    } else {
        format!("ratio best/worst = {:.1}x", best / worst)
    }
}

#[cfg(test)]
mod tests {
    use super::ratio_label;

    #[test]
    fn ratio_needs_a_counted_slowdown() {
        assert_eq!(ratio_label(2948.1, 1e-8, 0), "no regression");
        assert_eq!(ratio_label(0.0, 0.0, 0), "no regression");
        assert_eq!(ratio_label(300.0, 120.0, 2), "ratio best/worst = 2.5x");
    }
}
