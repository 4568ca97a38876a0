//! Figure 12: Ranker performance — Recall@(k, n) and NDCG@k against a
//! uniform random ranking, cross-validated over splits of 28 projects
//! (13 train / 15 test, as in Section 7.2.6).

use crate::exps::population::{labeled_28, PopulationProject};
use crate::report::Table;
use crate::scale::Scale;
use loam_core::selector::metrics::{
    expected_random_ndcg, expected_random_recall, ndcg_at, recall_at,
};
use loam_core::selector::Ranker;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Result of the cross-validated evaluation.
pub struct RankerEval {
    /// Mean Recall@(k, k) per k (1-based index k−1).
    pub recall: Vec<f64>,
    /// Mean NDCG@k per k.
    pub ndcg: Vec<f64>,
    /// Expected random Recall@(k, k).
    pub random_recall: Vec<f64>,
    /// Expected random NDCG@k.
    pub random_ndcg: Vec<f64>,
}

/// Trains on `train` projects' per-query pairs, ranks `test` projects, and
/// scores against the ground-truth improvement ordering.
pub fn evaluate_split(
    train: &[&PopulationProject],
    test: &[&PopulationProject],
    ks: &[usize],
    seed: u64,
) -> (Vec<f64>, Vec<f64>) {
    let mut feats: Vec<Vec<f64>> = Vec::new();
    let mut labels: Vec<f64> = Vec::new();
    for p in train {
        feats.extend(p.query_features.iter().cloned());
        labels.extend(p.query_improvement.iter().copied());
    }
    let ranker = Ranker::fit(&feats, &labels, seed);

    let project_feats: Vec<Vec<Vec<f64>>> = test.iter().map(|p| p.query_features.clone()).collect();
    let predicted = ranker.rank_projects(&project_feats, None);
    let relevance: Vec<f64> = test.iter().map(|p| p.improvement()).collect();
    let mut truth: Vec<usize> = (0..test.len()).collect();
    truth.sort_by(|&a, &b| {
        relevance[b]
            .partial_cmp(&relevance[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let recalls = ks
        .iter()
        .map(|&k| recall_at(&predicted, &truth, k, k))
        .collect();
    let ndcgs = ks
        .iter()
        .map(|&k| ndcg_at(&predicted, &relevance, k))
        .collect();
    (recalls, ndcgs)
}

/// Cross-validates the Ranker over `n_splits` random splits.
pub fn cross_validate(
    population: &[PopulationProject],
    train_size: usize,
    n_splits: usize,
    ks: &[usize],
    seed: u64,
) -> RankerEval {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut recall_sum = vec![0.0; ks.len()];
    let mut ndcg_sum = vec![0.0; ks.len()];
    let mut random_ndcg_sum = vec![0.0; ks.len()];
    let mut idx: Vec<usize> = (0..population.len()).collect();
    let test_size = population.len() - train_size;
    for split in 0..n_splits {
        idx.shuffle(&mut rng);
        let train: Vec<&PopulationProject> =
            idx[..train_size].iter().map(|&i| &population[i]).collect();
        let test: Vec<&PopulationProject> =
            idx[train_size..].iter().map(|&i| &population[i]).collect();
        let (r, n) = evaluate_split(&train, &test, ks, seed ^ split as u64);
        for (i, v) in r.into_iter().enumerate() {
            recall_sum[i] += v;
        }
        for (i, v) in n.into_iter().enumerate() {
            ndcg_sum[i] += v;
        }
        let rel: Vec<f64> = test.iter().map(|p| p.improvement()).collect();
        for (i, &k) in ks.iter().enumerate() {
            random_ndcg_sum[i] += expected_random_ndcg(&rel, k);
        }
    }
    let s = n_splits as f64;
    RankerEval {
        recall: recall_sum.iter().map(|v| v / s).collect(),
        ndcg: ndcg_sum.iter().map(|v| v / s).collect(),
        random_recall: ks
            .iter()
            .map(|&k| expected_random_recall(k, test_size))
            .collect(),
        random_ndcg: random_ndcg_sum.iter().map(|v| v / s).collect(),
    }
}

/// Runs the full experiment and prints both metric curves.
pub fn run(scale: Scale) {
    println!("Figure 12 — Ranker vs Random (28 projects, 13 train / 15 test, cross-validated)\n");
    let population = labeled_28(scale);
    let ks = [1usize, 2, 3, 4, 5, 6, 7, 8];
    let eval = cross_validate(population, 13, 6, &ks, 0xabc);

    let mut t = Table::new([
        "k",
        "Recall@(k,k)",
        "Random recall",
        "NDCG@k",
        "Random NDCG",
    ]);
    for (i, &k) in ks.iter().enumerate() {
        t.row([
            format!("{k}"),
            format!("{:.3}", eval.recall[i]),
            format!("{:.3}", eval.random_recall[i]),
            format!("{:.3}", eval.ndcg[i]),
            format!("{:.3}", eval.random_ndcg[i]),
        ]);
    }
    println!("{}", t.render());
    println!("(paper: Ranker consistently and substantially above Random on both metrics)");
}
