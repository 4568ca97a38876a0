//! Bit-identity properties of the vectorized inference path: batched
//! forest scoring must equal plan-at-a-time scoring to the exact f64 bit
//! pattern, the SIMD kernels must equal the scalar reference kernels, and
//! the structure-of-arrays batch featurization must reproduce per-plan
//! featurization row for row. Every property is checked at 1, 2, and 8 pool
//! threads — the row-blocked kernels partition work across the pool, and
//! bit-identity must survive any partitioning.

use loam::prelude::*;
use loam_core::featurize::{EnvSource, FeatureCache, PlanFeaturizer};
use loam_core::predictor::InferWs;
use loam_core::AdaptiveCostPredictor;
use mcsim_catalog::EnvMetrics;
use mcsim_plan::PlanTree;
use proptest::prelude::*;
use std::sync::Mutex;
use tinynn::{kernel_mode, set_kernel_mode, KernelMode, TreeStructure};

/// Serializes tests that mutate process-wide state (pool thread count,
/// kernel mode) so the harness's parallel test threads can't interleave.
static GLOBAL_STATE: Mutex<()> = Mutex::new(());

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn project_from_seed(seed: u64) -> Project {
    let mut prof = ProjectProfile::random(seed);
    prof.n_tables = prof.n_tables.min(30);
    prof.n_columns = prof.n_columns.min(300);
    prof.n_templates = prof.n_templates.min(12);
    prof.generate(ProjectId((seed % 1000) as u32))
}

/// Up to `n` optimized plans from the project's day-0 workload.
fn plans_from_seed(seed: u64, n: usize) -> Vec<PlanTree> {
    let project = project_from_seed(seed);
    let optimizer = NativeOptimizer::new(&project.catalog);
    project
        .workload_for_day(0)
        .iter()
        .take(n)
        .map(|q| optimizer.optimize(q, &Knobs::default()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Batched scoring — cached or uncached features, warm or cold
    /// workspace — returns the exact bits of plan-at-a-time scoring, at
    /// every pool width.
    #[test]
    fn batched_predictions_equal_single_plan_bitwise(
        seed in 0u64..2000,
        batch in 1usize..12,
        busy in 0.0f64..1.0,
        net in 0.01f64..0.2,
    ) {
        let _guard = GLOBAL_STATE.lock().unwrap();
        let plans = plans_from_seed(seed, batch);
        let refs: Vec<&PlanTree> = plans.iter().collect();
        let predictor = AdaptiveCostPredictor::new(seed ^ 0x5eed, true);
        let env = EnvMetrics::new(busy, net, 8.0, 0.55);
        let cache = FeatureCache::new();
        let mut ws = InferWs::new();
        let mut out = Vec::new();
        for threads in THREAD_COUNTS {
            let prev = mcsim_par::set_threads(threads);
            let single: Vec<f64> = refs
                .iter()
                .map(|p| predictor.predict(p, EnvSource::Uniform(env)))
                .collect();
            for (pass, use_cache) in [(0, false), (1, true), (2, true)] {
                let c = if use_cache { Some(&cache) } else { None };
                predictor.predict_batch_into(
                    &refs,
                    EnvSource::Uniform(env),
                    c,
                    &mut ws,
                    &mut out,
                );
                prop_assert_eq!(out.len(), refs.len());
                for (i, (&b, &s)) in out.iter().zip(&single).enumerate() {
                    prop_assert_eq!(
                        b.to_bits(), s.to_bits(),
                        "plan {} pass {} threads {}: batched {} != single {}",
                        i, pass, threads, b, s
                    );
                }
            }
            // The allocating convenience wrapper agrees too.
            let batched = predictor.predict_batch(&refs, EnvSource::Uniform(env), Some(&cache));
            for (&b, &s) in batched.iter().zip(&single) {
                prop_assert_eq!(b.to_bits(), s.to_bits());
            }
            mcsim_par::set_threads(prev);
        }
    }

    /// The SIMD kernel tier produces the scalar reference tier's exact
    /// bits, for single-plan and batched scoring, at every pool width.
    #[test]
    fn simd_kernels_equal_scalar_bitwise(
        seed in 0u64..2000,
        batch in 1usize..10,
    ) {
        let _guard = GLOBAL_STATE.lock().unwrap();
        let plans = plans_from_seed(seed, batch);
        let refs: Vec<&PlanTree> = plans.iter().collect();
        let predictor = AdaptiveCostPredictor::new(seed ^ 0xb17, true);
        let env = EnvMetrics::new(0.4, 0.05, 8.0, 0.5);
        let entry_mode = kernel_mode();
        for threads in THREAD_COUNTS {
            let prev = mcsim_par::set_threads(threads);
            set_kernel_mode(KernelMode::Scalar);
            let scalar_single: Vec<f64> = refs
                .iter()
                .map(|p| predictor.predict(p, EnvSource::Uniform(env)))
                .collect();
            let scalar_batch = predictor.predict_batch(&refs, EnvSource::Uniform(env), None);
            set_kernel_mode(KernelMode::Simd);
            let simd_single: Vec<f64> = refs
                .iter()
                .map(|p| predictor.predict(p, EnvSource::Uniform(env)))
                .collect();
            let simd_batch = predictor.predict_batch(&refs, EnvSource::Uniform(env), None);
            set_kernel_mode(entry_mode);
            for i in 0..refs.len() {
                prop_assert_eq!(
                    simd_single[i].to_bits(), scalar_single[i].to_bits(),
                    "plan {} threads {}: single simd {} != scalar {}",
                    i, threads, simd_single[i], scalar_single[i]
                );
                prop_assert_eq!(
                    simd_batch[i].to_bits(), scalar_batch[i].to_bits(),
                    "plan {} threads {}: batched simd {} != scalar {}",
                    i, threads, simd_batch[i], scalar_batch[i]
                );
            }
            mcsim_par::set_threads(prev);
        }
    }

    /// The structure-of-arrays forest featurization is the per-plan (AoS)
    /// featurization relocated: identical row bits at the plan's node
    /// offset, child links shifted by exactly that offset, and `bounds`
    /// the prefix sum of plan sizes.
    #[test]
    fn soa_forest_featurization_matches_aos(
        seed in 0u64..2000,
        batch in 1usize..10,
        env_bit in 0u8..2,
    ) {
        let plans = plans_from_seed(seed, batch);
        let refs: Vec<&PlanTree> = plans.iter().collect();
        let featurizer = PlanFeaturizer {
            use_env: env_bit == 1,
        };
        let env = EnvMetrics::new(0.6, 0.08, 8.0, 0.45);
        let mut x = tinynn::Mat::default();
        let mut tree = TreeStructure::default();
        let mut bounds = Vec::new();
        featurizer.featurize_forest_into(
            &refs,
            EnvSource::Uniform(env),
            &mut x,
            &mut tree,
            &mut bounds,
        );
        let total: usize = refs.iter().map(|p| p.len()).sum();
        prop_assert_eq!(x.rows, total);
        prop_assert_eq!(bounds.len(), refs.len() + 1);
        prop_assert_eq!(*bounds.last().unwrap(), total);
        for (b, plan) in refs.iter().enumerate() {
            let off = bounds[b];
            prop_assert_eq!(bounds[b + 1] - off, plan.len());
            let (px, ptree) = featurizer.featurize(plan, EnvSource::Uniform(env));
            for i in 0..plan.len() {
                let stacked = x.row(off + i);
                let alone = px.row(i);
                for (c, (&sv, &av)) in stacked.iter().zip(alone).enumerate() {
                    prop_assert_eq!(
                        sv.to_bits(), av.to_bits(),
                        "plan {} node {} col {}: stacked {} != alone {}",
                        b, i, c, sv, av
                    );
                }
                prop_assert_eq!(tree.left[off + i], ptree.left[i].map(|j| j + off));
                prop_assert_eq!(tree.right[off + i], ptree.right[i].map(|j| j + off));
            }
        }
    }
}
