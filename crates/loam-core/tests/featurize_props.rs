//! Property tests on the statistics-free featurization over real generated
//! plans, and on the predictor's numerical hygiene.

use loam_core::featurize::{EnvSource, FeatureCache, PlanFeaturizer, ENV_OFF, FEATURE_DIM};
use loam_core::AdaptiveCostPredictor;
use mcsim_catalog::{EnvMetrics, ProjectId, ProjectProfile};
use mcsim_optimizer::{Knobs, NativeOptimizer, OptimizerFlags};
use proptest::prelude::*;
use tinynn::SparseRows;

fn plans_for_seed(seed: u64) -> Vec<mcsim_plan::PlanTree> {
    let mut prof = ProjectProfile::random(seed);
    prof.n_tables = prof.n_tables.min(30);
    prof.n_templates = prof.n_templates.min(12);
    let p = prof.generate(ProjectId(0));
    let optimizer = NativeOptimizer::new(&p.catalog);
    let mut plans = Vec::new();
    for q in p.workload_for_day(0).iter().take(4) {
        for i in 0..OptimizerFlags::COUNT {
            plans.push(optimizer.optimize(
                q,
                &Knobs {
                    flags: OptimizerFlags::default().toggled(i),
                    card_scale: 1.0,
                },
            ));
        }
    }
    plans
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn features_are_bounded_and_finite(seed in 0u64..3000) {
        let featurizer = PlanFeaturizer::default();
        let env = EnvMetrics::new(0.5, 0.05, 6.0, 0.5);
        for plan in plans_for_seed(seed) {
            let (x, tree) = featurizer.featurize(&plan, EnvSource::Uniform(env));
            prop_assert_eq!(x.rows, plan.len());
            prop_assert_eq!(x.cols, FEATURE_DIM);
            prop_assert_eq!(tree.len(), plan.len());
            for v in &x.data {
                prop_assert!(v.is_finite());
                prop_assert!((0.0..=1.0).contains(v), "feature out of range: {v}");
            }
        }
    }

    #[test]
    fn featurization_is_deterministic(seed in 0u64..3000) {
        let featurizer = PlanFeaturizer::default();
        for plan in plans_for_seed(seed).into_iter().take(3) {
            let a = featurizer.featurize(&plan, EnvSource::None);
            let b = featurizer.featurize(&plan, EnvSource::None);
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(a.1, b.1);
        }
    }

    #[test]
    fn env_block_reflects_the_override(seed in 0u64..1000, idle in 0.05f64..0.95) {
        let featurizer = PlanFeaturizer::default();
        let env = EnvMetrics::new(idle, 0.05, 6.0, 0.5);
        if let Some(plan) = plans_for_seed(seed).into_iter().next() {
            let (x, _) = featurizer.featurize(&plan, EnvSource::Uniform(env));
            for r in 0..x.rows {
                prop_assert!((x.row(r)[ENV_OFF] as f64 - idle).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn cached_featurization_equals_fresh(seed in 0u64..2000, idle in 0.05f64..0.95) {
        let featurizer = PlanFeaturizer::default();
        let cache = FeatureCache::new();
        let env = EnvMetrics::new(idle, 0.05, 6.0, 0.5);
        let plans = plans_for_seed(seed);
        for plan in plans.iter().take(4) {
            for source in [EnvSource::None, EnvSource::Uniform(env)] {
                let fresh = featurizer.featurize(plan, source.clone());
                // First lookup populates the cache, second must hit; both
                // return the index of exactly what a fresh featurization
                // would.
                let miss = cache.featurize(&featurizer, plan, source.clone());
                let hit = cache.featurize(&featurizer, plan, source);
                prop_assert_eq!(&SparseRows::from_dense(&fresh.0), &miss.0);
                prop_assert_eq!(&miss.0.to_dense(), &fresh.0);
                prop_assert_eq!(&fresh.1, &miss.1);
                prop_assert!(std::sync::Arc::ptr_eq(&miss, &hit), "second lookup must hit");
            }
        }
        // Distinct env sources for the same plan occupy distinct entries.
        prop_assert!(cache.len() >= 2);
    }

    #[test]
    fn untrained_predictions_are_positive_and_finite(seed in 0u64..1000) {
        let model = AdaptiveCostPredictor::new(seed, true);
        for plan in plans_for_seed(seed).into_iter().take(4) {
            let c = model.predict(&plan, EnvSource::None);
            prop_assert!(c.is_finite() && c > 0.0);
        }
    }
}

#[test]
fn flag_variants_of_the_same_query_get_distinct_features() {
    // The featurizer must distinguish candidate plans, otherwise steering is
    // impossible by construction.
    let featurizer = PlanFeaturizer::default();
    let plans = plans_for_seed(11);
    let mut distinct = std::collections::HashSet::new();
    for plan in plans.iter().take(6) {
        let (x, _) = featurizer.featurize(plan, EnvSource::None);
        let key: Vec<u32> = x.data.iter().map(|v| v.to_bits()).collect();
        distinct.insert(key);
    }
    assert!(
        distinct.len() >= 2,
        "feature collisions across flag variants"
    );
}
