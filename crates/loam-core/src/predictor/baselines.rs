//! Baseline learned cost models (Section 7.1).
//!
//! The evaluation compares LOAM's TCN-based predictor against learned
//! optimizer variants that swap in other representative cost models:
//! a plan **Transformer** (after QueryFormer), a **GCN** (after zero-shot
//! cost models), and **XGBoost** (after PerfGuard). All reuse LOAM's plan
//! explorer and featurization; none uses adaptive training — which is
//! exactly why they suffer from the default→candidate distribution shift.

use super::train::{TrainConfig, TrainSample};
use super::{AdaptiveCostPredictor, InferWs};
use crate::featurize::{EnvSource, FeatureCache, PlanFeaturizer, FEATURE_DIM};
use mcsim_plan::PlanTree;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tinygbdt::{Gbdt, GbdtConfig};
use tinynn::gcn::Graph;
use tinynn::{mse, AdamConfig, Gcn, Mat, Mlp, Transformer};

/// Common interface of every cost model in the evaluation harness.
pub trait CostModel: Send + Sync {
    /// Short display name ("LOAM", "Transformer", …).
    fn name(&self) -> &'static str;
    /// Predicted CPU cost of `plan` with the environment block filled from
    /// `env`.
    fn predict(&self, plan: &PlanTree, env: EnvSource<'_>) -> f64;
    /// Predicted costs for a batch of plans under one environment. The
    /// default is a per-plan [`predict`](Self::predict) loop (the `cache`
    /// is a featurization hint models may ignore); models with a batched
    /// forward override this so one forward amortizes over the whole batch.
    /// Implementations must return bit-identical values to per-plan
    /// `predict`.
    fn predict_batch(
        &self,
        plans: &[&PlanTree],
        env: EnvSource<'_>,
        _cache: Option<&FeatureCache>,
    ) -> Vec<f64> {
        plans.iter().map(|p| self.predict(p, env.clone())).collect()
    }
    /// [`predict_batch`](Self::predict_batch) into caller-owned buffers so
    /// serving loops can reuse one warm workspace across scoring batches.
    /// `out` receives one cost per plan (cleared first). The default ignores
    /// the workspace and delegates to `predict_batch`; models with a
    /// workspace-based forward override this to score with zero steady-state
    /// allocations. Implementations must be bit-identical to `predict_batch`.
    fn predict_batch_into(
        &self,
        plans: &[&PlanTree],
        env: EnvSource<'_>,
        cache: Option<&FeatureCache>,
        _ws: &mut InferWs,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.extend(self.predict_batch(plans, env, cache));
    }
    /// Approximate model size in bytes.
    fn size_bytes(&self) -> usize;
}

impl CostModel for AdaptiveCostPredictor {
    fn name(&self) -> &'static str {
        "LOAM"
    }
    fn predict(&self, plan: &PlanTree, env: EnvSource<'_>) -> f64 {
        AdaptiveCostPredictor::predict(self, plan, env)
    }
    fn predict_batch(
        &self,
        plans: &[&PlanTree],
        env: EnvSource<'_>,
        cache: Option<&FeatureCache>,
    ) -> Vec<f64> {
        AdaptiveCostPredictor::predict_batch(self, plans, env, cache)
    }
    fn predict_batch_into(
        &self,
        plans: &[&PlanTree],
        env: EnvSource<'_>,
        cache: Option<&FeatureCache>,
        ws: &mut InferWs,
        out: &mut Vec<f64>,
    ) {
        AdaptiveCostPredictor::predict_batch_into(self, plans, env, cache, ws, out)
    }
    fn size_bytes(&self) -> usize {
        AdaptiveCostPredictor::size_bytes(self)
    }
}

/// Label statistics shared by the supervised baselines.
#[derive(Debug, Clone, Copy)]
struct LabelStats {
    mean: f32,
    std: f32,
}

impl LabelStats {
    fn fit(samples: &[TrainSample]) -> LabelStats {
        let logs: Vec<f32> = samples
            .iter()
            .map(|s| s.cost.max(1e-9).ln() as f32)
            .collect();
        let mean = logs.iter().sum::<f32>() / logs.len().max(1) as f32;
        let var = logs.iter().map(|l| (l - mean).powi(2)).sum::<f32>() / logs.len().max(1) as f32;
        LabelStats {
            mean,
            std: var.sqrt().max(1e-3),
        }
    }
    fn normalize(&self, cost: f64) -> f32 {
        (cost.max(1e-9).ln() as f32 - self.mean) / self.std
    }
    fn denormalize(&self, v: f32) -> f64 {
        ((v * self.std + self.mean) as f64).exp()
    }
}

/// Transformer-based cost model.
#[derive(Debug, Clone)]
pub struct TransformerPredictor {
    featurizer: PlanFeaturizer,
    encoder: Transformer,
    head: Mlp,
    stats: LabelStats,
}

impl TransformerPredictor {
    /// Trains on default plans only (no domain adaptation).
    pub fn fit(samples: &[TrainSample], cfg: &TrainConfig) -> TransformerPredictor {
        assert!(!samples.is_empty());
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7f);
        let featurizer = PlanFeaturizer::default();
        let mut encoder = Transformer::new(FEATURE_DIM, 32, 24, &mut rng);
        let mut head = Mlp::new(&[24, 16, 1], &mut rng);
        let stats = LabelStats::fit(samples);
        let feats: Vec<Mat> = samples
            .iter()
            .map(|s| {
                featurizer
                    .featurize(&s.plan, EnvSource::PerStage(&s.stage_envs))
                    .0
            })
            .collect();
        let labels: Vec<f32> = samples.iter().map(|s| stats.normalize(s.cost)).collect();
        let adam = AdamConfig::default();
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut t = 0;
        for epoch in 0..cfg.epochs {
            order.shuffle(&mut rng);
            let lr = cfg.lr * cfg.lr_decay.powi(epoch as i32);
            for batch in order.chunks(cfg.batch_size) {
                encoder.zero_grad();
                head.zero_grad();
                let inv = 1.0 / batch.len() as f32;
                for &i in batch {
                    let (emb, cache) = encoder.forward(&feats[i]);
                    let (pred, hcache) = head.forward(&emb);
                    let (_, mut grad) = mse(&pred, &Mat::from_vec(1, 1, vec![labels[i]]));
                    grad.scale(inv);
                    let gemb = head.backward(&hcache, &grad);
                    encoder.backward(&cache, &gemb);
                }
                t += 1;
                encoder.adam_step(lr, t, &adam);
                head.adam_step(lr, t, &adam);
            }
        }
        TransformerPredictor {
            featurizer,
            encoder,
            head,
            stats,
        }
    }
}

impl CostModel for TransformerPredictor {
    fn name(&self) -> &'static str {
        "Transformer"
    }
    fn predict(&self, plan: &PlanTree, env: EnvSource<'_>) -> f64 {
        let (x, _) = self.featurizer.featurize(plan, env);
        let emb = self.encoder.infer(&x);
        self.stats.denormalize(self.head.infer(&emb).data[0])
    }
    fn size_bytes(&self) -> usize {
        (self.encoder.param_count() + self.head.param_count()) * 4
    }
}

/// GCN-based cost model.
#[derive(Debug, Clone)]
pub struct GcnPredictor {
    featurizer: PlanFeaturizer,
    encoder: Gcn,
    head: Mlp,
    stats: LabelStats,
}

impl GcnPredictor {
    /// Trains on default plans only.
    pub fn fit(samples: &[TrainSample], cfg: &TrainConfig) -> GcnPredictor {
        assert!(!samples.is_empty());
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9c);
        let featurizer = PlanFeaturizer::default();
        let mut encoder = Gcn::new(FEATURE_DIM, 48, 24, 24, &mut rng);
        let mut head = Mlp::new(&[24, 16, 1], &mut rng);
        let stats = LabelStats::fit(samples);
        let feats: Vec<(Mat, Graph)> = samples
            .iter()
            .map(|s| {
                let (x, tree) = featurizer.featurize(&s.plan, EnvSource::PerStage(&s.stage_envs));
                let g = Graph::from_tree(&tree);
                (x, g)
            })
            .collect();
        let labels: Vec<f32> = samples.iter().map(|s| stats.normalize(s.cost)).collect();
        let adam = AdamConfig::default();
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut t = 0;
        for epoch in 0..cfg.epochs {
            order.shuffle(&mut rng);
            let lr = cfg.lr * cfg.lr_decay.powi(epoch as i32);
            for batch in order.chunks(cfg.batch_size) {
                encoder.zero_grad();
                head.zero_grad();
                let inv = 1.0 / batch.len() as f32;
                for &i in batch {
                    let (x, g) = &feats[i];
                    let (emb, cache) = encoder.forward(x, g);
                    let (pred, hcache) = head.forward(&emb);
                    let (_, mut grad) = mse(&pred, &Mat::from_vec(1, 1, vec![labels[i]]));
                    grad.scale(inv);
                    let gemb = head.backward(&hcache, &grad);
                    encoder.backward(&cache, g, &gemb);
                }
                t += 1;
                encoder.adam_step(lr, t, &adam);
                head.adam_step(lr, t, &adam);
            }
        }
        GcnPredictor {
            featurizer,
            encoder,
            head,
            stats,
        }
    }
}

impl CostModel for GcnPredictor {
    fn name(&self) -> &'static str {
        "GCN"
    }
    fn predict(&self, plan: &PlanTree, env: EnvSource<'_>) -> f64 {
        let (x, tree) = self.featurizer.featurize(plan, env);
        let g = Graph::from_tree(&tree);
        let emb = self.encoder.infer(&x, &g);
        self.stats.denormalize(self.head.infer(&emb).data[0])
    }
    fn size_bytes(&self) -> usize {
        (self.encoder.param_count() + self.head.param_count()) * 4
    }
}

/// XGBoost-style cost model over pooled plan features.
#[derive(Debug, Clone)]
pub struct XgbPredictor {
    featurizer: PlanFeaturizer,
    model: Gbdt,
    stats: LabelStats,
}

/// Pools a node-feature matrix into a fixed vector: per-dimension mean and
/// max plus the node count.
pub fn pool_features(x: &Mat) -> Vec<f64> {
    let mut out = Vec::with_capacity(2 * x.cols + 1);
    for c in 0..x.cols {
        let mut sum = 0.0f64;
        let mut max = f64::MIN;
        for r in 0..x.rows {
            let v = x.get(r, c) as f64;
            sum += v;
            max = max.max(v);
        }
        out.push(sum / x.rows.max(1) as f64);
        out.push(if x.rows == 0 { 0.0 } else { max });
    }
    out.push(x.rows as f64);
    out
}

impl XgbPredictor {
    /// Trains on default plans only (standard library defaults, per the
    /// paper's methodology of avoiding hyperparameter tuning).
    pub fn fit(samples: &[TrainSample], seed: u64) -> XgbPredictor {
        assert!(!samples.is_empty());
        let featurizer = PlanFeaturizer::default();
        let stats = LabelStats::fit(samples);
        let x: Vec<Vec<f64>> = samples
            .iter()
            .map(|s| {
                pool_features(
                    &featurizer
                        .featurize(&s.plan, EnvSource::PerStage(&s.stage_envs))
                        .0,
                )
            })
            .collect();
        let y: Vec<f64> = samples
            .iter()
            .map(|s| stats.normalize(s.cost) as f64)
            .collect();
        let model = Gbdt::fit(&x, &y, GbdtConfig::default(), seed);
        XgbPredictor {
            featurizer,
            model,
            stats,
        }
    }
}

impl CostModel for XgbPredictor {
    fn name(&self) -> &'static str {
        "XGBoost"
    }
    fn predict(&self, plan: &PlanTree, env: EnvSource<'_>) -> f64 {
        let (x, _) = self.featurizer.featurize(plan, env);
        let v = self.model.predict(&pool_features(&x));
        self.stats.denormalize(v as f32)
    }
    fn size_bytes(&self) -> usize {
        self.model.approx_size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim_catalog::EnvMetrics;
    use mcsim_plan::Operator;

    fn make_samples(n: usize) -> Vec<TrainSample> {
        (0..n)
            .map(|i| {
                let chain = 2 + (i % 4);
                let mut plan = PlanTree::new();
                let mut cur = plan.leaf(Operator::table_scan((i % 5) as u32, 1, 1, vec![0]));
                for _ in 0..chain {
                    cur = plan.unary(Operator::Limit { n: 10 }, cur);
                }
                let s = plan.unary(Operator::Sink, cur);
                plan.set_root(s);
                TrainSample {
                    plan,
                    stage_envs: vec![EnvMetrics::new(0.5, 0.05, 4.0, 0.5)],
                    cost: 50.0 * (chain as f64 + 1.0),
                }
            })
            .collect()
    }

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 6,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn transformer_baseline_learns_ordering() {
        let samples = make_samples(60);
        let m = TransformerPredictor::fit(&samples, &quick_cfg());
        let env = EnvSource::Uniform(EnvMetrics::new(0.5, 0.05, 4.0, 0.5));
        let small = m.predict(&samples[0].plan, env.clone()); // chain 2
        let big = m.predict(&samples[2].plan, env); // chain 4
        assert!(big > small, "{big} vs {small}");
        assert!(m.size_bytes() > 1000);
        assert_eq!(m.name(), "Transformer");
    }

    #[test]
    fn gcn_baseline_learns_ordering() {
        let samples = make_samples(60);
        let m = GcnPredictor::fit(&samples, &quick_cfg());
        let env = EnvSource::Uniform(EnvMetrics::new(0.5, 0.05, 4.0, 0.5));
        let small = m.predict(&samples[0].plan, env.clone());
        let big = m.predict(&samples[2].plan, env);
        assert!(big > small, "{big} vs {small}");
    }

    #[test]
    fn xgb_baseline_learns_ordering() {
        let samples = make_samples(80);
        let m = XgbPredictor::fit(&samples, 7);
        let env = EnvSource::Uniform(EnvMetrics::new(0.5, 0.05, 4.0, 0.5));
        let small = m.predict(&samples[0].plan, env.clone());
        let big = m.predict(&samples[2].plan, env);
        assert!(big > small, "{big} vs {small}");
    }

    #[test]
    fn pooled_features_have_fixed_width() {
        let f = PlanFeaturizer::default();
        let samples = make_samples(2);
        let a = pool_features(&f.featurize(&samples[0].plan, EnvSource::None).0);
        let b = pool_features(&f.featurize(&samples[1].plan, EnvSource::None).0);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), 2 * FEATURE_DIM + 1);
    }
}
