//! Project selection: run the rule-based Filter over a heterogeneous
//! population of projects, train the learned Ranker on ground-truth
//! improvement-space labels, and check that it prioritizes high-benefit
//! projects (Section 6 of the paper).
//!
//! ```bash
//! cargo run --release --example project_selection
//! ```

use loam::prelude::*;
use loam_core::explorer::PlanExplorer;
use loam_core::selector::metrics::{expected_random_recall, recall_at};
use loam_core::theory::deviance::deviance_of_choice;

fn main() {
    // A small population of random projects.
    let n_projects = 14;
    println!("generating {n_projects} random projects...");
    let projects: Vec<Project> = (0..n_projects)
        .map(|i| ProjectProfile::random(100 + i as u64).generate(ProjectId(i as u32)))
        .collect();

    // --- Stage 1: the rule-based Filter. ---
    let cfg = FilterConfig::scaled(0.01);
    println!(
        "\nFilter thresholds: n_query ≥ {:.0}/day, growth ≥ {:.3}, stable-table ratio ≥ {:.2}",
        cfg.n0, cfg.r, cfg.theta
    );
    let mut passing = Vec::new();
    for p in &projects {
        let report = evaluate_filter(p, 0, 4, &cfg, None);
        println!(
            "  {}: n_query {:.0}/day, growth {:.3}, stable {:.2} → {}",
            p.id,
            report.n_query,
            report.query_inc_ratio,
            report.stable_table_ratio,
            if report.passes() {
                "PASS"
            } else {
                "filtered out"
            }
        );
        if report.passes() {
            passing.push(p);
        }
    }
    println!(
        "{} of {} projects pass the filter",
        passing.len(),
        projects.len()
    );

    // --- Stage 2: the learned Ranker. ---
    // Label a sampled workload of each passing project with its true
    // improvement space via flighting replay.
    println!("\nlabeling improvement space of passing projects (flighting replay)...");
    let explorer = PlanExplorer::default();
    let mut per_project: Vec<(Vec<Vec<f64>>, Vec<f64>)> = Vec::new();
    for p in &passing {
        let optimizer = NativeOptimizer::new(&p.catalog);
        let mut flighting = Flighting::new(p.id.0 as u64, p.profile.env_noise_sigma);
        let mut feats = Vec::new();
        let mut labels = Vec::new();
        for q in p.workload_for_day(0).iter().take(10) {
            let set = explorer.explore(&optimizer, q);
            let plans: Vec<&PlanTree> = set.candidates.iter().map(|c| &c.plan).collect();
            let costs = flighting.replay_synchronized(&plans, &p.catalog, 3);
            let d = deviance_of_choice(&costs, set.default_idx);
            feats.push(ranker_features(
                &set.candidates[set.default_idx].plan,
                &p.catalog,
                d.oracle_cost + d.expected,
            ));
            labels.push(d.relative);
        }
        per_project.push((feats, labels));
    }

    // Leave-half-out: train the Ranker on half the projects, rank the rest.
    let half = per_project.len() / 2;
    let mut train_x = Vec::new();
    let mut train_y = Vec::new();
    for (f, l) in per_project.iter().take(half) {
        train_x.extend(f.iter().cloned());
        train_y.extend(l.iter().copied());
    }
    let ranker = Ranker::fit(&train_x, &train_y, 42);

    let test: Vec<&(Vec<Vec<f64>>, Vec<f64>)> = per_project.iter().skip(half).collect();
    let test_feats: Vec<Vec<Vec<f64>>> = test.iter().map(|(f, _)| f.clone()).collect();
    let predicted = ranker.rank_projects(&test_feats, None);
    let truth_scores: Vec<f64> = test
        .iter()
        .map(|(_, l)| l.iter().sum::<f64>() / l.len().max(1) as f64)
        .collect();
    let mut truth: Vec<usize> = (0..test.len()).collect();
    truth.sort_by(|&a, &b| truth_scores[b].partial_cmp(&truth_scores[a]).unwrap());

    println!("\nRanker ordering of held-out projects (best improvement space first):");
    println!("  predicted: {predicted:?}");
    println!("  truth:     {truth:?}");
    let k = 2.min(test.len());
    println!(
        "Recall@({k},{k}) = {:.2} (random baseline {:.2})",
        recall_at(&predicted, &truth, k, k),
        expected_random_recall(k, test.len())
    );
}
