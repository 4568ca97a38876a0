//! The adaptive cost predictor (Section 4): PlanEmb (tree convolution) +
//! CostPred, with a DomClf domain classifier attached through a gradient
//! reversal layer during training.

pub mod baselines;
pub mod train;

use crate::featurize::{CachedFeatures, EnvSource, FeatureCache, PlanFeaturizer};
use mcsim_plan::PlanTree;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use tinynn::{ForestWs, Mat, Mlp, MlpWs, Tcn};

/// Width of the intermediate plan embedding `e_P`.
pub const EMB_DIM: usize = 32;

/// Caller-owned workspace for batched inference: the cached-feature refs,
/// the uncached path's dense feature scratch, the stacked forest buffers,
/// and the cost-head activations. One warm instance per scoring thread;
/// after the largest batch shape has been seen, scoring a batch performs
/// zero heap allocations (given warm feature-cache hits).
#[derive(Debug, Default)]
pub struct InferWs {
    feats: Vec<CachedFeatures>,
    /// An uncached batch's feature rows, featurized densely in place and
    /// then indexed once into the forest's CSR stack.
    x: Mat,
    forest: ForestWs,
    head: MlpWs,
}

impl InferWs {
    /// An empty workspace; its buffers grow to the largest batch scored.
    pub fn new() -> Self {
        InferWs::default()
    }

    /// Bytes held by the reusable buffers.
    pub fn bytes(&self) -> usize {
        self.forest.bytes()
            + self.head.bytes()
            + self.x.data.capacity() * std::mem::size_of::<f32>()
            + self.feats.capacity() * std::mem::size_of::<CachedFeatures>()
    }
}

thread_local! {
    static THREAD_INFER_WS: RefCell<InferWs> = RefCell::new(InferWs::new());
}

/// Runs `f` with this thread's long-lived [`InferWs`], so per-thread scoring
/// paths (e.g. a parallel evaluation worker calling `select_plan` per query)
/// reuse one warm workspace across queries instead of allocating per batch.
pub fn with_thread_infer_ws<R>(f: impl FnOnce(&mut InferWs) -> R) -> R {
    THREAD_INFER_WS.with(|ws| f(&mut ws.borrow_mut()))
}

/// LOAM's adaptive cost predictor.
///
/// `PlanEmb` is a two-layer tree convolutional network with dynamic max
/// pooling and a fully connected projection; `CostPred` and `DomClf` are
/// small fully connected heads. Costs are modeled in standardized log space
/// (production CPU costs span 10³–10⁷).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptiveCostPredictor {
    /// The statistics-free featurizer.
    pub featurizer: PlanFeaturizer,
    /// PlanEmb: tree-convolutional encoder.
    pub plan_emb: Tcn,
    /// CostPred: embedding → scalar (standardized log cost).
    pub cost_head: Mlp,
    /// DomClf: embedding → 2 logits (default vs. candidate plan).
    pub dom_head: Mlp,
    /// Mean of `ln(cost)` over the training set.
    pub label_mean: f32,
    /// Std-dev of `ln(cost)` over the training set.
    pub label_std: f32,
}

impl AdaptiveCostPredictor {
    /// Fresh, untrained predictor. `use_env = false` builds the LOAM-NL
    /// ablation that ignores environment features entirely.
    pub fn new(seed: u64, use_env: bool) -> Self {
        Self::with_dims(seed, use_env, 128, 64, EMB_DIM)
    }

    /// Fresh predictor with explicit tree-conv widths and embedding size.
    pub fn with_dims(seed: u64, use_env: bool, hidden1: usize, hidden2: usize, emb: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        AdaptiveCostPredictor {
            featurizer: PlanFeaturizer { use_env },
            plan_emb: Tcn::new(
                crate::featurize::FEATURE_DIM,
                hidden1,
                hidden2,
                emb,
                &mut rng,
            ),
            cost_head: Mlp::new(&[emb, 16, 1], &mut rng),
            dom_head: Mlp::new(&[emb, 16, 2], &mut rng),
            label_mean: 0.0,
            label_std: 1.0,
        }
    }

    /// Embeds a plan.
    pub fn embed(&self, plan: &PlanTree, env: EnvSource<'_>) -> Mat {
        let (x, tree) = self.featurizer.featurize(plan, env);
        self.plan_emb.infer(&x, &tree)
    }

    /// Predicts the CPU cost of `plan` under the given environment source.
    pub fn predict(&self, plan: &PlanTree, env: EnvSource<'_>) -> f64 {
        let emb = self.embed(plan, env);
        let out = self.cost_head.infer(&emb);
        self.denormalize(out.data[0])
    }

    /// Predicts the costs of a whole batch of plans with one forest
    /// forward: all trees are stacked into a single node matrix, the two
    /// convolution layers and the cost head each run once, and every output
    /// row is bit-identical to what [`predict`](Self::predict) returns for
    /// that plan alone. With a [`FeatureCache`], featurization of recurring
    /// plans collapses to a lookup, which is where serving throughput comes
    /// from.
    pub fn predict_batch(
        &self,
        plans: &[&PlanTree],
        env: EnvSource<'_>,
        cache: Option<&FeatureCache>,
    ) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_batch_into(plans, env, cache, &mut InferWs::new(), &mut out);
        out
    }

    /// [`predict_batch`](Self::predict_batch) into caller-owned buffers:
    /// `out` receives one cost per plan (cleared first). Either way the
    /// batch ends up as one CSR index that conv1 reads directly. With a
    /// cache, the plans' cached indexes are appended into it: no dense batch
    /// matrix is copied and no index is rebuilt. Without one, plans are
    /// featurized directly into one stacked (structure-of-arrays) dense
    /// matrix, which is indexed once, so no per-plan feature matrices exist
    /// either way. With a warm [`InferWs`] and a warm [`FeatureCache`], a
    /// steady-state scoring batch performs zero heap allocations.
    pub fn predict_batch_into(
        &self,
        plans: &[&PlanTree],
        env: EnvSource<'_>,
        cache: Option<&FeatureCache>,
        ws: &mut InferWs,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        if plans.is_empty() {
            return;
        }
        let InferWs {
            feats,
            x,
            forest,
            head,
        } = ws;
        match cache {
            Some(c) => {
                feats.clear();
                feats.extend(
                    plans
                        .iter()
                        .map(|p| c.featurize(&self.featurizer, p, env.clone())),
                );
                forest.stack_sparse(feats.iter().map(|f| (&f.0, &f.1)));
            }
            None => {
                let (sx, tree, bounds) = forest.stacked_parts_mut();
                self.featurizer
                    .featurize_forest_into(plans, env, x, tree, bounds);
                sx.assign_from_dense(x);
            }
        }
        self.plan_emb.forward_forest_ws(forest);
        let y = self.cost_head.infer_ws(forest.emb(), head);
        debug_assert_eq!(y.rows, plans.len());
        debug_assert_eq!(y.cols, 1);
        out.extend(y.data.iter().map(|&s| self.denormalize(s)));
    }

    /// Converts a raw head output back to a cost.
    pub fn denormalize(&self, standardized: f32) -> f64 {
        ((standardized * self.label_std + self.label_mean) as f64).exp()
    }

    /// Converts a cost to the standardized log-space label.
    pub fn normalize(&self, cost: f64) -> f32 {
        ((cost.max(1e-9).ln() as f32) - self.label_mean) / self.label_std
    }

    /// Scalar parameter count of the predictive module (PlanEmb + CostPred;
    /// DomClf is a training-time auxiliary).
    pub fn param_count(&self) -> usize {
        self.plan_emb.param_count() + self.cost_head.param_count()
    }

    /// Approximate serialized model size in bytes (f32 parameters).
    pub fn size_bytes(&self) -> usize {
        self.param_count() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim_plan::Operator;

    fn tiny_plan(table: u32) -> PlanTree {
        let mut t = PlanTree::new();
        let s = t.leaf(Operator::table_scan(table, 1, 1, vec![0]));
        let k = t.unary(Operator::Sink, s);
        t.set_root(k);
        t
    }

    #[test]
    fn untrained_predictor_produces_finite_costs() {
        let p = AdaptiveCostPredictor::new(1, true);
        let cost = p.predict(&tiny_plan(0), EnvSource::None);
        assert!(cost.is_finite() && cost > 0.0);
    }

    #[test]
    fn normalization_round_trips() {
        let mut p = AdaptiveCostPredictor::new(1, true);
        p.label_mean = 5.0;
        p.label_std = 2.0;
        for &c in &[1.0, 100.0, 1.0e6] {
            let n = p.normalize(c);
            let back = p.denormalize(n);
            assert!((back - c).abs() / c < 1e-4, "{c} → {n} → {back}");
        }
    }

    #[test]
    fn different_plans_embed_differently() {
        let p = AdaptiveCostPredictor::new(2, true);
        let e1 = p.embed(&tiny_plan(1), EnvSource::None);
        let e2 = p.embed(&tiny_plan(2), EnvSource::None);
        assert_ne!(e1.data, e2.data);
    }

    #[test]
    fn batched_prediction_is_bitwise_equal_to_single() {
        use mcsim_catalog::EnvMetrics;
        let p = AdaptiveCostPredictor::new(7, true);
        let mut chain = PlanTree::new();
        let mut cur = chain.leaf(Operator::table_scan(3, 1, 1, vec![0]));
        for _ in 0..4 {
            cur = chain.unary(Operator::Limit { n: 5 }, cur);
        }
        let s = chain.unary(Operator::Sink, cur);
        chain.set_root(s);
        let plans = [tiny_plan(1), tiny_plan(2), chain, tiny_plan(1)];
        let refs: Vec<&PlanTree> = plans.iter().collect();
        let env = EnvMetrics::new(0.6, 0.05, 4.0, 0.5);
        for cache in [None, Some(crate::featurize::FeatureCache::new())] {
            let batch = p.predict_batch(&refs, EnvSource::Uniform(env), cache.as_ref());
            assert_eq!(batch.len(), refs.len());
            for (b, plan) in refs.iter().enumerate() {
                let single = p.predict(plan, EnvSource::Uniform(env));
                assert_eq!(
                    batch[b].to_bits(),
                    single.to_bits(),
                    "plan {b} diverges (cache: {})",
                    cache.is_some()
                );
            }
        }
        assert!(p
            .predict_batch(&[], EnvSource::Uniform(env), None)
            .is_empty());

        // The workspace entry point matches too, with warm reuse across
        // batches that shrink, keep their shape with other plans (two
        // 2-node plans alone), and grow again: each uncached batch must be
        // re-indexed over the previous batch's buffers.
        let mut ws = InferWs::new();
        let mut out = Vec::new();
        let want = p.predict_batch(&refs, EnvSource::Uniform(env), None);
        for range in [0..4, 0..2, 0..1, 1..2, 0..4] {
            let slice = &refs[range.clone()];
            p.predict_batch_into(slice, EnvSource::Uniform(env), None, &mut ws, &mut out);
            assert_eq!(out.len(), slice.len());
            for (b, (got, want)) in out.iter().zip(&want[range.clone()]).enumerate() {
                assert_eq!(got.to_bits(), want.to_bits(), "plans {range:?}, plan {b}");
            }
        }
        // And through the cached path into the same warm workspace.
        let cache = crate::featurize::FeatureCache::new();
        p.predict_batch_into(
            &refs,
            EnvSource::Uniform(env),
            Some(&cache),
            &mut ws,
            &mut out,
        );
        for (got, want) in out.iter().zip(&want) {
            assert_eq!(got.to_bits(), want.to_bits(), "cached ws path diverges");
        }
    }

    #[test]
    fn model_size_is_reported() {
        let p = AdaptiveCostPredictor::new(3, true);
        assert!(p.size_bytes() > 10_000);
    }
}
