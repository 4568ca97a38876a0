//! The adaptive training paradigm (Section 4, Equation 1).
//!
//! Jointly optimizes: (1) PlanEmb + CostPred on historical *default* plans
//! with observed per-stage environments and costs; and (2) PlanEmb vs.
//! DomClf adversarially (through a gradient reversal layer) on the mix of
//! default and (unexecuted, unlabeled) *candidate* plans, so PlanEmb learns
//! domain-invariant representations and CostPred generalizes to candidate
//! plans without conventional refinement. Loss weights `w_c`, `w_d` are
//! re-balanced automatically from the running loss magnitudes.
//!
//! ## Hot path
//!
//! Each optimizer step splits its minibatch into eight fixed-boundary
//! *microbatch slots*. Every slot owns a reusable
//! `SlotState` — gradient buffers, layer workspaces, and scratch — so the
//! per-sample forward/backward work runs through tinynn's allocation-free
//! `_ws` kernels and performs zero heap allocation after the first step.
//! Plan-feature rows are ~90% zeros, and the feature cache `prepare`
//! featurizes through stores each plan as a CSR nonzero index
//! (`tinynn::SparseRows`). Each sample's index is stacked into the slot's
//! `tinynn::ForestWs` as a forest of one tree and runs the encoder's one
//! forward, the one scoring batches run, so the first conv layer — the
//! dominant share of a step's multiply-accumulates — reads only the stored
//! nonzeros. The second conv layer's forward and backward skip the exact
//! zeros ReLU leaves in its input and its gradient. All of it is
//! bit-identical to the dense kernels.
//!
//! The tree-conv weight gradients stay input-major (`in × out`, the layout
//! of each layer's weight transposes) from the per-tree kernel through the
//! slot buffers to the fold, so a tree adds only the rows its gathered
//! inputs store, each contiguously, and the transpose into the parameters'
//! own layout happens once per layer per step.
//!
//! One engine runs at every pool size. Each step is two pool fan-outs. The
//! first runs the populated slots, one slot per job: the calling thread and
//! the pool's parked helpers claim slots as they free up, and each slot
//! keeps its own buffers, so they stay warm whichever thread takes it. The
//! second folds and steps, one parameter per job (`tinynn::SlotFold`):
//! each element sums the slots in slot-index order, then takes its Adam
//! update, and each tree-conv weight refills its layer's transposes. So
//! the final weights are bit-identical at any pool size — and identical to
//! [`train_reference`], the legacy allocating path kept as a cross-check. A
//! panic in any slot fails `train`: the pool re-raises it on the calling
//! thread once no other thread is still working the step.

use super::AdaptiveCostPredictor;
use crate::featurize::{CachedFeatures, EnvSource, FeatureCache};
use mcsim_catalog::EnvMetrics;
use mcsim_plan::PlanTree;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use tinynn::workspace::alloc_probe;
use tinynn::{
    cross_entropy_logits, cross_entropy_logits_into, lambda_schedule, mse, mse_into,
    reverse_gradient, AdamConfig, AdamStep, ForestWs, GradSet, Mat, MlpWs, SlotFold, Workspace,
};

/// One labeled training sample: a historical default plan, its logged
/// per-stage environments, and its observed CPU cost.
#[derive(Debug, Clone)]
pub struct TrainSample {
    /// The executed plan.
    pub plan: PlanTree,
    /// Observed per-stage environment metrics.
    pub stage_envs: Vec<EnvMetrics>,
    /// Observed end-to-end CPU cost.
    pub cost: f64,
}

/// Training hyperparameters. The microbatch split of each step is fixed
/// (see the module docs), so the pool size never moves a trained bit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size (trees per optimizer step).
    pub batch_size: usize,
    /// Initial learning rate (paper: 0.01).
    pub lr: f32,
    /// Exponential decay per epoch (paper: 0.99).
    pub lr_decay: f32,
    /// Enable the adversarial domain-adaptation objective. `false` builds
    /// the LOAM-NA ablation of Section 7.2.3.
    pub adaptive: bool,
    /// RNG seed for shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 12,
            batch_size: 16,
            lr: 0.004,
            lr_decay: 0.99,
            adaptive: true,
            seed: 0x10a0,
        }
    }
}

/// Microbatch slots per optimizer step; slot boundaries depend only on the
/// batch length and this constant.
const MICROBATCHES: usize = 8;

/// The predictor's parameters, in the order of each slot's gradients:
/// PlanEmb 0..10, CostPred 10..14, DomClf from [`DOM_HEAD`].
const PARAMS: usize = 18;

/// Index of DomClf's first parameter.
const DOM_HEAD: usize = 14;

/// Per-epoch training statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean cost loss `L_c` per epoch.
    pub cost_loss: Vec<f64>,
    /// Mean domain loss `L_d` per epoch (empty when `adaptive` is off).
    pub domain_loss: Vec<f64>,
    /// Wall-clock training time in seconds.
    pub seconds: f64,
    /// Wall-clock seconds per epoch.
    pub epoch_seconds: Vec<f64>,
    /// Heap allocations performed inside the optimizer steps of each epoch
    /// (0 without the counting allocator installed; with it, warmup
    /// allocations land in the first epoch and steady-state epochs are 0).
    pub epoch_allocs: Vec<u64>,
    /// Total optimizer steps taken.
    pub steps: u64,
}

impl TrainReport {
    fn with_capacity(epochs: usize) -> TrainReport {
        TrainReport {
            cost_loss: Vec::with_capacity(epochs),
            domain_loss: Vec::with_capacity(epochs),
            seconds: 0.0,
            epoch_seconds: Vec::with_capacity(epochs),
            epoch_allocs: Vec::with_capacity(epochs),
            steps: 0,
        }
    }
}

/// Immutable per-call context shared by every engine.
struct Ctx<'a> {
    /// The samples' cached features: each a CSR nonzero index plus the tree
    /// (static across epochs), which conv1 consumes directly.
    feats: &'a [CachedFeatures],
    labels: &'a [f32],
    /// The candidates' cached features, same layout.
    cand_feats: &'a [CachedFeatures],
    /// Adversarial objective active (adaptive AND candidates present).
    dann: bool,
}

/// Reusable per-slot buffers: layer workspaces and generic scratch. One
/// per microbatch slot, with the slot's gradient accumulators beside it (a
/// [`GradSet`] in the layout of [`slot_grads`]); a step's fan-out hands
/// each populated slot to exactly one thread.
struct SlotState {
    tcn_ws: ForestWs,
    cost_ws: MlpWs,
    dom_ws: MlpWs,
    scratch: Workspace,
    target: Mat,
    gc: Mat,
    gd: Mat,
    gdom: Mat,
    gemb: Mat,
    lc: f32,
    ld: f32,
}

/// A slot's zeroed gradient accumulators, in the modules' gradient
/// layouts (PlanEmb's conv weights input-major), in [`PARAMS`] order.
fn slot_grads(p: &AdaptiveCostPredictor) -> GradSet {
    let mut shapes = p.plan_emb.grad_shapes();
    shapes.extend(p.cost_head.grad_shapes());
    shapes.extend(p.dom_head.grad_shapes());
    assert_eq!(shapes.len(), PARAMS, "predictor parameter count");
    GradSet::from_shapes(&shapes)
}

impl SlotState {
    fn new() -> SlotState {
        SlotState {
            tcn_ws: ForestWs::default(),
            cost_ws: MlpWs::default(),
            dom_ws: MlpWs::default(),
            scratch: Workspace::new(),
            target: Mat::default(),
            gc: Mat::default(),
            gd: Mat::default(),
            gdom: Mat::default(),
            gemb: Mat::default(),
            lc: 0.0,
            ld: 0.0,
        }
    }

    /// Steady-state bytes held by this slot's buffers.
    fn bytes(&self) -> usize {
        self.tcn_ws.bytes()
            + self.cost_ws.bytes()
            + self.dom_ws.bytes()
            + self.scratch.bytes()
            + [&self.target, &self.gc, &self.gd, &self.gdom, &self.gemb]
                .iter()
                .map(|m| m.data.capacity() * std::mem::size_of::<f32>())
                .sum::<usize>()
    }
}

/// One optimizer step's minibatch, as every slot reads it.
struct Step<'a> {
    /// Sample indices of this minibatch.
    batch: &'a [usize],
    /// Pre-drawn candidate index per batch position (empty when the
    /// adversarial objective is off). Drawing on the driver thread in sample
    /// order keeps the RNG stream identical at any thread count.
    cand: &'a [usize],
    lambda: f64,
    w_d: f32,
    inv: f32,
    /// Samples per slot ([`slot_len`] of the batch length).
    chunk: usize,
}

/// Samples per slot of a `len`-sample minibatch: the one rule for slot
/// boundaries, which [`train_reference`] stages its gradients by too.
fn slot_len(len: usize) -> usize {
    len.div_ceil(MICROBATCHES).max(1)
}

/// Runs one microbatch slot: per-sample forward/backward through the
/// allocation-free kernels, gradients accumulated into the slot's `grads`.
fn process_slot(
    p: &AdaptiveCostPredictor,
    ctx: &Ctx<'_>,
    desc: &Step<'_>,
    s: usize,
    slot: &mut SlotState,
    grads: &mut GradSet,
) {
    let start = s * desc.chunk;
    let end = (start + desc.chunk).min(desc.batch.len());
    grads.zero();
    slot.lc = 0.0;
    slot.ld = 0.0;
    let SlotState {
        tcn_ws,
        cost_ws,
        dom_ws,
        scratch,
        target,
        gc,
        gd,
        gdom,
        gemb,
        lc,
        ld,
    } = slot;
    let (pe, rest) = grads.mats.split_at_mut(10);
    let (ch, dh) = rest.split_at_mut(DOM_HEAD - 10);
    let lam = -(desc.lambda as f32);
    for pos in start..end {
        let i = desc.batch[pos];
        let (nz, tree) = &*ctx.feats[i];
        tcn_ws.stack_sparse([(nz, tree)]);
        p.plan_emb.forward_forest_ws(tcn_ws);

        // Cost objective on the default plan.
        p.cost_head.forward_ws(tcn_ws.emb(), cost_ws);
        target.resize_in_place(1, 1);
        target.data[0] = ctx.labels[i];
        *lc += mse_into(cost_ws.out(), target, gc);
        gc.scale(desc.inv);
        p.cost_head
            .backward_ws(tcn_ws.emb(), cost_ws, gc, ch, Some(gemb), scratch);

        if ctx.dann {
            // Domain objective: this is a default plan (label 0).
            p.dom_head.forward_ws(tcn_ws.emb(), dom_ws);
            *ld += cross_entropy_logits_into(dom_ws.out(), &[0], gd);
            gd.scale(desc.w_d * desc.inv);
            p.dom_head
                .backward_ws(tcn_ws.emb(), dom_ws, gd, dh, Some(gdom), scratch);
            // GRL: reversed gradient into PlanEmb.
            gemb.add_scaled(gdom, lam);
        }

        p.plan_emb.backward_ws_sparse(tcn_ws, gemb, pe, scratch);

        if ctx.dann {
            // One candidate plan per default plan (label 1).
            let (cnz, ctree) = &*ctx.cand_feats[desc.cand[pos]];
            tcn_ws.stack_sparse([(cnz, ctree)]);
            p.plan_emb.forward_forest_ws(tcn_ws);
            p.dom_head.forward_ws(tcn_ws.emb(), dom_ws);
            *ld += cross_entropy_logits_into(dom_ws.out(), &[1], gd);
            gd.scale(desc.w_d * desc.inv);
            p.dom_head
                .backward_ws(tcn_ws.emb(), dom_ws, gd, dh, Some(gdom), scratch);
            gemb.copy_scaled_from(gdom, lam);
            p.plan_emb.backward_ws_sparse(tcn_ws, gemb, pe, scratch);
        }
    }
}

/// Folds the populated slots' gradients into the model and applies Adam,
/// as one pool fan-out with one job per parameter ([`SlotFold::run`]):
/// each element sums the slots in slot-index order, then takes its update;
/// DomClf is updated only under the adaptive objective. Allocates nothing.
fn fold_and_step(
    p: &mut AdaptiveCostPredictor,
    grads: &[GradSet],
    step: &AdamStep,
    adaptive: bool,
) {
    let reduce_started = std::time::Instant::now();
    let mut folds = p
        .plan_emb
        .slot_folds()
        .into_iter()
        .chain(p.cost_head.slot_folds())
        .chain(p.dom_head.slot_folds());
    let jobs: [SlotFold<'_>; PARAMS] =
        std::array::from_fn(|_| folds.next().expect("predictor parameter count"));
    debug_assert!(folds.next().is_none(), "predictor parameter count");
    mcsim_par::ThreadPool::global().for_each(jobs.into_iter().enumerate(), |(k, fold)| {
        fold.run(grads, k, (adaptive || k < DOM_HEAD).then_some(step));
    });
    mcsim_obs::observe(
        "train.reduce_ns",
        reduce_started.elapsed().as_nanos() as f64,
    );
}

/// The epoch/batch schedule shared by every engine: shuffling, learning-rate
/// decay, the λ ramp, `w_d` re-balancing, candidate pre-draws, and all
/// bookkeeping. `do_step` runs one optimizer step — arguments are the batch
/// indices, pre-drawn candidate indices, λ, `w_d`, `1/|B|`, the decayed
/// learning rate, and the (1-based) Adam timestep — and returns the step's
/// summed `(L_c, L_d)`.
#[allow(clippy::too_many_arguments)]
fn drive(
    cfg: &TrainConfig,
    nsamples: usize,
    cand_len: usize,
    dann: bool,
    feat_count: u64,
    report: &mut TrainReport,
    mut do_step: impl FnMut(&[usize], &[usize], f64, f32, f32, f32, u64) -> (f32, f32),
) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut t_step: u64 = 0;
    // Automatic loss balancing: w_d tracks the magnitude ratio of the two
    // losses (w_c fixed to 1).
    let mut w_d: f32 = 0.1;
    let total_steps = (cfg.epochs * nsamples.div_ceil(cfg.batch_size)).max(1);

    let _train_span = mcsim_obs::span("train");
    let mut order: Vec<usize> = (0..nsamples).collect();
    let mut cand_buf: Vec<usize> = Vec::with_capacity(cfg.batch_size);
    for epoch in 0..cfg.epochs {
        let epoch_started = std::time::Instant::now();
        let mut epoch_allocs: u64 = 0;
        let _epoch_span = mcsim_obs::span("epoch");
        mcsim_obs::counter("loam.train.epochs", 1);
        // Epochs after the first reuse the pre-featurized vectors: count the
        // reuse so the snapshot shows how much featurization work the cache
        // saved.
        if epoch > 0 {
            mcsim_obs::counter("loam.featurize.cache_hits", feat_count);
        }
        order.shuffle(&mut rng);
        let lr = cfg.lr * cfg.lr_decay.powi(epoch as i32);
        let mut epoch_lc = 0.0;
        let mut epoch_ld = 0.0;
        let mut n_batches = 0.0;

        for batch in order.chunks(cfg.batch_size) {
            let progress = t_step as f64 / total_steps as f64;
            // The full DANN schedule saturates at 1; with a compact encoder
            // that destabilizes the regression head, so the reversal
            // strength is capped.
            let lambda = 0.15 * lambda_schedule(progress);
            mcsim_obs::gauge("loam.train.grl_lambda", lambda);
            let inv = 1.0 / batch.len() as f32;
            cand_buf.clear();
            if dann {
                for _ in 0..batch.len() {
                    cand_buf.push(rand::Rng::gen_range(&mut rng, 0..cand_len));
                }
            }

            let step_started = std::time::Instant::now();
            let allocs_before = alloc_probe::allocation_count();
            let (batch_lc, batch_ld) = do_step(batch, &cand_buf, lambda, w_d, inv, lr, t_step + 1);
            epoch_allocs += alloc_probe::allocation_count() - allocs_before;
            mcsim_obs::observe("train.step_ns", step_started.elapsed().as_nanos() as f64);

            t_step += 1;
            mcsim_obs::counter("loam.train.steps", 1);
            epoch_lc += (batch_lc / batch.len() as f32) as f64;
            epoch_ld += (batch_ld / (2 * batch.len()) as f32) as f64;
            n_batches += 1.0;
        }

        let lc_avg = epoch_lc / n_batches;
        let ld_avg = epoch_ld / n_batches;
        mcsim_obs::observe("loam.train.cost_loss", lc_avg);
        report.cost_loss.push(lc_avg);
        if cfg.adaptive {
            mcsim_obs::observe("loam.train.domain_loss", ld_avg);
            report.domain_loss.push(ld_avg);
            // Rebalance so the domain term stays a fraction of the cost term.
            if ld_avg > 1e-9 {
                w_d = (0.2 * lc_avg / ld_avg).clamp(0.02, 0.3) as f32;
            }
        }
        report
            .epoch_seconds
            .push(epoch_started.elapsed().as_secs_f64());
        report.epoch_allocs.push(epoch_allocs);
    }
    report.steps = t_step;
}

/// Computes label statistics and pre-featurizes samples and candidates.
fn prepare(
    predictor: &mut AdaptiveCostPredictor,
    samples: &[TrainSample],
    candidates: &[PlanTree],
    mean_env: EnvMetrics,
) -> (Vec<CachedFeatures>, Vec<f32>, Vec<CachedFeatures>) {
    assert!(!samples.is_empty(), "training set must be non-empty");

    // Label statistics in log space.
    let logs: Vec<f32> = samples
        .iter()
        .map(|s| s.cost.max(1e-9).ln() as f32)
        .collect();
    let mean = logs.iter().sum::<f32>() / logs.len() as f32;
    let var = logs.iter().map(|l| (l - mean).powi(2)).sum::<f32>() / logs.len() as f32;
    predictor.label_mean = mean;
    predictor.label_std = var.sqrt().max(1e-3);

    // Pre-featurize everything once, in parallel, through the identity-keyed
    // cache: duplicate plans (within samples, or between samples and
    // candidates under the same environment) share one entry, and the
    // per-plan work fans out across the pool. Two workers that miss on the
    // same plan at once both featurize it; the first insert wins, the other
    // result is dropped, and that lookup counts as a hit.
    let _span = mcsim_obs::span("featurize");
    let cache = FeatureCache::new();
    let featurizer = predictor.featurizer;
    let pool = mcsim_par::ThreadPool::global();
    let feats: Vec<_> = pool.parallel_map(samples, |s| {
        cache.featurize(&featurizer, &s.plan, EnvSource::PerStage(&s.stage_envs))
    });
    let labels: Vec<f32> = samples
        .iter()
        .map(|s| predictor.normalize(s.cost))
        .collect();
    let cand_feats: Vec<_> = pool.parallel_map(candidates, |p| {
        cache.featurize(&featurizer, p, EnvSource::Uniform(mean_env))
    });
    (feats, labels, cand_feats)
}

/// Trains `predictor` in place.
///
/// `candidates` are knob-steered plans generated by the plan explorer for a
/// sample of queries; they are *never executed* — only their features feed
/// the domain classifier (the paper stresses their generation overhead is
/// negligible).
///
/// One engine runs at every pool size (see the module docs), and the
/// weights are bit-identical at any of them (see the `train_determinism`
/// integration test).
///
/// # Panics
///
/// Panics if `samples` is empty, and re-raises the first panic of any
/// slot's forward or backward.
pub fn train(
    predictor: &mut AdaptiveCostPredictor,
    samples: &[TrainSample],
    candidates: &[PlanTree],
    mean_env: EnvMetrics,
    cfg: &TrainConfig,
) -> TrainReport {
    let started = std::time::Instant::now();
    let (feats, labels, cand_feats) = prepare(predictor, samples, candidates, mean_env);
    let ctx = Ctx {
        feats: &feats,
        labels: &labels,
        cand_feats: &cand_feats,
        dann: cfg.adaptive && !cand_feats.is_empty(),
    };
    let adam = AdamConfig {
        weight_decay: 1e-4,
        ..AdamConfig::default()
    };
    let mut report = TrainReport::with_capacity(cfg.epochs);

    let max_slots = MICROBATCHES.min(cfg.batch_size.max(1));
    let mut slots: Vec<SlotState> = (0..max_slots).map(|_| SlotState::new()).collect();
    let mut grads: Vec<GradSet> = (0..max_slots).map(|_| slot_grads(predictor)).collect();
    let pool = mcsim_par::ThreadPool::global();
    let feat_count = (samples.len() + candidates.len()) as u64;

    drive(
        cfg,
        samples.len(),
        cand_feats.len(),
        ctx.dann,
        feat_count,
        &mut report,
        |batch, cand, lambda, w_d, inv, lr, t| {
            let chunk = slot_len(batch.len());
            let step = Step {
                batch,
                cand,
                lambda,
                w_d,
                inv,
                chunk,
            };
            let used = batch.len().div_ceil(chunk);
            let (slots, grads) = (&mut slots[..used], &mut grads[..used]);
            let p = &*predictor;
            let jobs = slots.iter_mut().zip(grads.iter_mut()).enumerate();
            pool.for_each(jobs, |(s, (slot, grads))| {
                process_slot(p, &ctx, &step, s, slot, grads);
            });
            fold_and_step(predictor, grads, &AdamStep::new(lr, t, &adam), cfg.adaptive);
            slots
                .iter()
                .fold((0.0, 0.0), |(lc, ld), slot| (lc + slot.lc, ld + slot.ld))
        },
    );

    let ws_bytes: usize = slots.iter().map(SlotState::bytes).sum::<usize>()
        + grads.iter().map(GradSet::bytes).sum::<usize>();
    mcsim_obs::gauge("train.ws_bytes", ws_bytes as f64);

    report.seconds = started.elapsed().as_secs_f64();
    report
}

/// The legacy allocating training path, kept as a bit-exact cross-check and
/// benchmark baseline: every sample runs through the allocating wrapper
/// APIs (`forward`/`backward` with per-call caches and temporaries) over
/// dense feature matrices (each cached index densified per use), with the
/// same microbatch fold staging and RNG schedule as [`train`], so its final
/// weights are bit-identical to the workspace engine's.
pub fn train_reference(
    predictor: &mut AdaptiveCostPredictor,
    samples: &[TrainSample],
    candidates: &[PlanTree],
    mean_env: EnvMetrics,
    cfg: &TrainConfig,
) -> TrainReport {
    let started = std::time::Instant::now();
    let (feats, labels, cand_feats) = prepare(predictor, samples, candidates, mean_env);
    let dann = cfg.adaptive && !cand_feats.is_empty();
    let adam = AdamConfig {
        weight_decay: 1e-4,
        ..AdamConfig::default()
    };
    let mut report = TrainReport::with_capacity(cfg.epochs);
    let feat_count = (samples.len() + candidates.len()) as u64;

    drive(
        cfg,
        samples.len(),
        cand_feats.len(),
        dann,
        feat_count,
        &mut report,
        |batch, cand, lambda, w_d, inv, lr, t| {
            let chunk = slot_len(batch.len());
            let mut lc = 0.0f32;
            let mut ld = 0.0f32;
            // Stage per-slot gradients through the parameter accumulators:
            // compute each slot with zeroed grads, snapshot, then fold the
            // snapshots in slot order — the same reduction as `train`.
            let mut staged: Vec<Vec<Mat>> = Vec::new();
            for (s, slot_batch) in batch.chunks(chunk).enumerate() {
                predictor.plan_emb.zero_grad();
                predictor.cost_head.zero_grad();
                predictor.dom_head.zero_grad();
                // Stage losses per slot as well: the workspace engine folds
                // slot-local sums, and f32 addition is order-sensitive.
                let mut slot_lc = 0.0f32;
                let mut slot_ld = 0.0f32;
                for (k, &i) in slot_batch.iter().enumerate() {
                    let pos = s * chunk + k;
                    let (nz, tree) = &*feats[i];
                    let (emb, cache) = predictor.plan_emb.forward(&nz.to_dense(), tree);

                    // Cost objective on the default plan.
                    let (pred, cost_cache) = predictor.cost_head.forward(&emb);
                    let target = Mat::from_vec(1, 1, vec![labels[i]]);
                    let (sample_lc, mut gc) = mse(&pred, &target);
                    slot_lc += sample_lc;
                    gc.scale(inv);
                    let mut grad_emb = predictor.cost_head.backward(&cost_cache, &gc);

                    if dann {
                        // Domain objective: default plan (label 0).
                        let (logits, dom_cache) = predictor.dom_head.forward(&emb);
                        let (sample_ld, mut gd) = cross_entropy_logits(&logits, &[0]);
                        slot_ld += sample_ld;
                        gd.scale(w_d * inv);
                        let gdom = predictor.dom_head.backward(&dom_cache, &gd);
                        grad_emb.add_assign(&reverse_gradient(&gdom, lambda));
                    }

                    predictor.plan_emb.backward(&cache, tree, &grad_emb);

                    if dann {
                        // One candidate plan per default plan (label 1).
                        let (cnz, ctree) = &*cand_feats[cand[pos]];
                        let (cemb, ccache) = predictor.plan_emb.forward(&cnz.to_dense(), ctree);
                        let (logits, dom_cache) = predictor.dom_head.forward(&cemb);
                        let (sample_ld, mut gd) = cross_entropy_logits(&logits, &[1]);
                        slot_ld += sample_ld;
                        gd.scale(w_d * inv);
                        let gdom = predictor.dom_head.backward(&dom_cache, &gd);
                        let grad_cemb = reverse_gradient(&gdom, lambda);
                        predictor.plan_emb.backward(&ccache, ctree, &grad_cemb);
                    }
                }
                lc += slot_lc;
                ld += slot_ld;
                let snapshot: Vec<Mat> = predictor
                    .plan_emb
                    .params()
                    .into_iter()
                    .chain(predictor.cost_head.params())
                    .chain(predictor.dom_head.params())
                    .map(|p| p.grad.clone())
                    .collect();
                staged.push(snapshot);
            }
            predictor.plan_emb.zero_grad();
            predictor.cost_head.zero_grad();
            predictor.dom_head.zero_grad();
            // The snapshots hold each gradient in its parameter's own
            // layout, so they fold straight into the accumulators.
            for snapshot in &staged {
                for (prm, g) in predictor
                    .plan_emb
                    .params_mut()
                    .into_iter()
                    .zip(&snapshot[0..10])
                {
                    prm.grad.add_assign(g);
                }
                predictor.cost_head.add_grads(&snapshot[10..14]);
                predictor.dom_head.add_grads(&snapshot[14..18]);
            }
            predictor.plan_emb.adam_step(lr, t, &adam);
            predictor.cost_head.adam_step(lr, t, &adam);
            if cfg.adaptive {
                predictor.dom_head.adam_step(lr, t, &adam);
            }
            (lc, ld)
        },
    );

    report.seconds = started.elapsed().as_secs_f64();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim_plan::Operator;

    /// Synthetic task: cost = 100 × (#nodes) × env multiplier; the model must
    /// learn both the structural and the environmental dependence.
    fn make_samples(n: usize, seed: u64) -> Vec<TrainSample> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let chain = 2 + (i % 5);
                let mut plan = PlanTree::new();
                let mut cur = plan.leaf(Operator::table_scan((i % 7) as u32, 1, 1, vec![0]));
                for _ in 0..chain {
                    cur = plan.unary(Operator::Limit { n: 10 }, cur);
                }
                let s = plan.unary(Operator::Sink, cur);
                plan.set_root(s);
                let idle: f64 = rand::Rng::gen_range(&mut rng, 0.1..0.9);
                let env = EnvMetrics::new(idle, 0.05, 4.0, 0.5);
                let mult = 1.0 + 1.5 * (1.0 - idle);
                TrainSample {
                    plan,
                    stage_envs: vec![env],
                    cost: 100.0 * (chain + 2) as f64 * mult,
                }
            })
            .collect()
    }

    #[test]
    fn training_reduces_cost_loss() {
        let mut p = AdaptiveCostPredictor::new(1, true);
        let samples = make_samples(80, 2);
        let cfg = TrainConfig {
            epochs: 40,
            lr: 0.01,
            adaptive: false,
            ..TrainConfig::default()
        };
        let report = train(&mut p, &samples, &[], EnvMetrics::default(), &cfg);
        assert!(report.cost_loss.first().unwrap() > report.cost_loss.last().unwrap());
        assert!(*report.cost_loss.last().unwrap() < 0.5);
        assert_eq!(report.epoch_seconds.len(), 40);
        assert_eq!(report.steps, 40 * 80_u64.div_ceil(16));
    }

    #[test]
    fn trained_model_ranks_big_plans_above_small() {
        let mut p = AdaptiveCostPredictor::new(3, true);
        let samples = make_samples(120, 4);
        let cfg = TrainConfig {
            epochs: 10,
            adaptive: false,
            ..TrainConfig::default()
        };
        train(&mut p, &samples, &[], EnvMetrics::default(), &cfg);
        let env = EnvMetrics::new(0.5, 0.05, 4.0, 0.5);
        let small = &samples.iter().find(|s| s.plan.len() == 4).unwrap().plan;
        let big = &samples.iter().find(|s| s.plan.len() == 8).unwrap().plan;
        let cs = p.predict(small, EnvSource::Uniform(env));
        let cb = p.predict(big, EnvSource::Uniform(env));
        assert!(
            cb > cs,
            "bigger plan should predict higher cost: {cb} vs {cs}"
        );
    }

    #[test]
    fn env_features_shift_predictions() {
        let mut p = AdaptiveCostPredictor::new(5, true);
        let samples = make_samples(150, 6);
        let cfg = TrainConfig {
            epochs: 12,
            adaptive: false,
            ..TrainConfig::default()
        };
        train(&mut p, &samples, &[], EnvMetrics::default(), &cfg);
        let plan = &samples[0].plan;
        let idle = p.predict(
            plan,
            EnvSource::Uniform(EnvMetrics::new(0.9, 0.05, 4.0, 0.5)),
        );
        let busy = p.predict(
            plan,
            EnvSource::Uniform(EnvMetrics::new(0.1, 0.05, 4.0, 0.5)),
        );
        assert!(
            busy > idle,
            "busy environment should predict higher cost: {busy} vs idle {idle}"
        );
    }

    #[test]
    fn adaptive_training_runs_and_reports_domain_loss() {
        let mut p = AdaptiveCostPredictor::new(7, true);
        let samples = make_samples(40, 8);
        let candidates: Vec<PlanTree> = make_samples(10, 9).into_iter().map(|s| s.plan).collect();
        let cfg = TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        };
        let report = train(&mut p, &samples, &candidates, EnvMetrics::default(), &cfg);
        assert_eq!(report.domain_loss.len(), 4);
        assert!(report.domain_loss.iter().all(|&l| l.is_finite()));
        assert!(report.seconds > 0.0);
    }

    #[test]
    fn reference_path_produces_identical_weights_and_losses() {
        let samples = make_samples(48, 11);
        let candidates: Vec<PlanTree> = make_samples(12, 12).into_iter().map(|s| s.plan).collect();
        let cfg = TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        };
        let mut a = AdaptiveCostPredictor::new(21, true);
        let mut b = AdaptiveCostPredictor::new(21, true);
        let ra = train(&mut a, &samples, &candidates, EnvMetrics::default(), &cfg);
        let rb = train_reference(&mut b, &samples, &candidates, EnvMetrics::default(), &cfg);
        assert_eq!(ra.cost_loss, rb.cost_loss);
        assert_eq!(ra.domain_loss, rb.domain_loss);
        for (pa, pb) in a.plan_emb.params().iter().zip(b.plan_emb.params()) {
            assert_eq!(pa.value.data, pb.value.data, "plan_emb weights diverged");
        }
    }

    /// Random gradients for `n` slots: exact zeros, `-0.0`, and magnitudes
    /// spread over six decades, so a sum taken in another order shows.
    fn random_slot_grads(p: &AdaptiveCostPredictor, n: usize, rng: &mut StdRng) -> Vec<GradSet> {
        (0..n)
            .map(|_| {
                let mut g = slot_grads(p);
                for v in g.mats.iter_mut().flat_map(|m| m.data.iter_mut()) {
                    *v = match rand::Rng::gen_range(rng, 0..8) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => {
                            let e = rand::Rng::gen_range(rng, -3..3);
                            rand::Rng::gen_range(rng, -1.0..1.0f32) * 10f32.powi(e)
                        }
                    };
                }
                g
            })
            .collect()
    }

    /// Every number of a serialized value, as bits, in document order.
    fn value_bits(v: &serde::Value, out: &mut Vec<u64>) {
        match v {
            serde::Value::F64(x) => out.push(x.to_bits()),
            serde::Value::Seq(items) => items.iter().for_each(|i| value_bits(i, out)),
            serde::Value::Map(fields) => fields.iter().for_each(|(_, i)| value_bits(i, out)),
            _ => {}
        }
    }

    /// The fused fold plus Adam equals the serial sequence it replaced:
    /// `zero_grad`, one `add_grads` per slot in slot order, then
    /// `adam_step`, DomClf's only under the adaptive objective. Checked bit
    /// for bit at pools 1, 2 and 8 with every fan-out forced open, over
    /// steps of eight and of fewer slots: the weights, gradients and Adam
    /// moments (through serde), and the weight transposes both refill,
    /// read through a SIMD forest forward against a deserialized copy that
    /// builds its transposes afresh.
    #[test]
    fn fused_fold_matches_the_serial_fold_and_adam_step() {
        let samples = make_samples(6, 31);
        let featurizer = AdaptiveCostPredictor::new(32, true).featurizer;
        let cache = FeatureCache::new();
        let feats: Vec<CachedFeatures> = samples
            .iter()
            .map(|s| cache.featurize(&featurizer, &s.plan, EnvSource::PerStage(&s.stage_envs)))
            .collect();
        let forward = |p: &AdaptiveCostPredictor| -> Vec<u32> {
            let mut ws = ForestWs::default();
            ws.stack_sparse(feats.iter().map(|f| (&f.0, &f.1)));
            p.plan_emb.forward_forest_ws(&mut ws);
            ws.emb().data.iter().map(|v| v.to_bits()).collect()
        };
        let bits = |p: &AdaptiveCostPredictor| {
            let mut out = Vec::new();
            value_bits(&serde::Serialize::to_value(p), &mut out);
            out
        };
        let adam = AdamConfig {
            weight_decay: 1e-4,
            ..AdamConfig::default()
        };
        let prev_work = mcsim_par::set_min_parallel_work(1);
        for threads in [1usize, 2, 8] {
            let mut rng = StdRng::seed_from_u64(33);
            let mut fused = AdaptiveCostPredictor::new(32, true);
            forward(&fused);
            let mut serial = fused.clone();
            let steps = [(8, true), (3, false), (8, false), (5, true)];
            for (t, (nslots, adaptive)) in (1u64..).zip(steps) {
                let grads = random_slot_grads(&fused, nslots, &mut rng);
                let step = AdamStep::new(0.01, t, &adam);
                mcsim_par::with_threads(threads, || {
                    fold_and_step(&mut fused, &grads, &step, adaptive)
                });
                serial.plan_emb.zero_grad();
                serial.cost_head.zero_grad();
                serial.dom_head.zero_grad();
                for g in &grads {
                    serial.plan_emb.add_grads(&g.mats[..10]);
                    serial.cost_head.add_grads(&g.mats[10..DOM_HEAD]);
                    serial.dom_head.add_grads(&g.mats[DOM_HEAD..]);
                }
                serial.plan_emb.adam_step(0.01, t, &adam);
                serial.cost_head.adam_step(0.01, t, &adam);
                if adaptive {
                    serial.dom_head.adam_step(0.01, t, &adam);
                }
                let what = format!("pool {threads}, step {t}");
                assert_eq!(
                    bits(&fused),
                    bits(&serial),
                    "{what}: weights, gradients, moments"
                );
                let fresh: AdaptiveCostPredictor =
                    serde::Deserialize::from_value(&serde::Serialize::to_value(&fused))
                        .expect("round trip");
                let refilled = forward(&fused);
                assert_eq!(
                    refilled,
                    forward(&fresh),
                    "{what}: the fused fold's transposes"
                );
                assert_eq!(refilled, forward(&serial), "{what}: adam_step's transposes");
            }
        }
        mcsim_par::set_min_parallel_work(prev_work);
    }

    /// A cost head one input wider than the embedding makes every slot's
    /// forward panic. At one thread, two and four, `train` must re-raise that
    /// panic on its caller instead of leaving the workers waiting on each
    /// other, and a second `train` at the same pool must then finish: no
    /// pool helper may stay wedged by the first one's panic.
    #[test]
    fn a_slot_panic_fails_training_instead_of_hanging() {
        for threads in [1usize, 2, 4] {
            let (tx, rx) = std::sync::mpsc::channel();
            // Detached, so that a hung `train` fails this test instead of
            // hanging the test run.
            std::thread::spawn(move || {
                let cfg = TrainConfig {
                    epochs: 1,
                    adaptive: false,
                    ..TrainConfig::default()
                };
                let samples = make_samples(32, 15);
                let outcome = std::panic::catch_unwind(|| {
                    mcsim_par::with_threads(threads, || {
                        let mut p = AdaptiveCostPredictor::new(13, true);
                        let mut rng = StdRng::seed_from_u64(14);
                        p.cost_head =
                            tinynn::Mlp::new(&[crate::predictor::EMB_DIM + 1, 16, 1], &mut rng);
                        train(&mut p, &samples, &[], EnvMetrics::default(), &cfg);
                    })
                });
                let message = match outcome {
                    Ok(()) => "training returned".to_string(),
                    Err(payload) => payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_default(),
                };
                let _ = tx.send(message);
                let report = mcsim_par::with_threads(threads, || {
                    let mut p = AdaptiveCostPredictor::new(13, true);
                    train(&mut p, &samples, &[], EnvMetrics::default(), &cfg)
                });
                let _ = tx.send(format!("retrained in {} steps", report.steps));
            });
            let wait = || {
                rx.recv_timeout(std::time::Duration::from_secs(60))
                    .unwrap_or_else(|_| panic!("training hung at {threads} thread(s)"))
            };
            let message = wait();
            assert!(
                message.contains("matmul_nt shape mismatch"),
                "at {threads} thread(s): {message}"
            );
            assert_eq!(wait(), "retrained in 2 steps", "at {threads} thread(s)");
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_training_set_panics() {
        let mut p = AdaptiveCostPredictor::new(1, true);
        train(
            &mut p,
            &[],
            &[],
            EnvMetrics::default(),
            &TrainConfig::default(),
        );
    }
}
