//! The inference hot-path benchmark: scores the fig7 project's candidate
//! sets four ways — the legacy single-plan allocating path (scalar and SIMD
//! kernels), the workspace-batched CSR forest forward on uncached features,
//! and the same forward on a warm feature cache — asserts every leg is
//! bit-identical to the baseline, reports plans-predicted/sec per leg plus
//! steady-state allocations per scoring pass (via the counting allocator
//! installed by the `experiments` binary), and writes each leg to
//! `BENCH_infer.json`.
//!
//! The model is freshly initialized rather than trained: forward-pass cost
//! does not depend on the weight values, and skipping training keeps the
//! benchmark focused on the inference path itself.

use crate::report::{Leg, TimingReport};
use crate::scale::{scaled_eval_profile, scaled_pipeline_config, Scale};
use loam_core::pipeline::prepare_project;
use loam_core::{AdaptiveCostPredictor, EnvStrategy, FeatureCache, InferWs, PlanExplorer};
use mcsim_catalog::ProjectId;
use mcsim_optimizer::NativeOptimizer;
use mcsim_plan::PlanTree;
use tinynn::workspace::alloc_probe::allocation_count;
use tinynn::{set_kernel_mode, KernelMode};

/// Timed scoring passes per leg (after one untimed warm-up pass).
const REPS: usize = 20;
/// Timed passes per leg under `--quick`.
const QUICK_REPS: usize = 3;
/// Candidate sets kept under `--quick`.
const QUICK_QUERIES: usize = 12;
/// The leg the warm allocation probe re-runs.
const CACHED: &str = "batched_sparse_simd_cached";

/// The scoring workload: per-query candidate sets plus the environment
/// strategy the serving path would use.
struct Workload {
    /// Candidate plans, one inner vec per test query.
    sets: Vec<Vec<PlanTree>>,
    /// Mean-historical environment strategy (the representative instance).
    env: EnvStrategy,
}

impl Workload {
    fn queries(&self) -> usize {
        self.sets.len()
    }

    fn plans(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// One measured leg of the benchmark.
struct Timed {
    name: &'static str,
    /// Wall-clock seconds per scoring pass over the whole workload.
    seconds: f64,
    /// Bit patterns of every predicted cost from one pass, in workload
    /// order, for exact cross-leg comparisons.
    bits: Vec<u64>,
}

impl Timed {
    fn plans_per_s(&self, plans: usize) -> f64 {
        plans as f64 / self.seconds.max(1e-12)
    }
}

/// One pass of the legacy path: every plan scored by its own
/// [`AdaptiveCostPredictor::predict`] call (fresh workspaces each time).
fn pass_single(model: &AdaptiveCostPredictor, w: &Workload, bits: &mut Vec<u64>) {
    bits.clear();
    for set in &w.sets {
        for plan in set {
            bits.push(model.predict(plan, w.env.env_source()).to_bits());
        }
    }
}

/// One pass of the batched path: each candidate set scored by a single
/// [`AdaptiveCostPredictor::predict_batch_into`] call on a warm workspace.
fn pass_batched(
    model: &AdaptiveCostPredictor,
    w: &Workload,
    ref_sets: &[Vec<&PlanTree>],
    cache: Option<&FeatureCache>,
    ws: &mut InferWs,
    out: &mut Vec<f64>,
    bits: &mut Vec<u64>,
) {
    bits.clear();
    for refs in ref_sets {
        model.predict_batch_into(refs, w.env.env_source(), cache, ws, out);
        bits.extend(out.iter().map(|c| c.to_bits()));
    }
}

/// Times `reps` passes of `pass` (after one warm-up pass that also captures
/// the leg's prediction bits).
fn time_leg(
    name: &'static str,
    mode: KernelMode,
    reps: usize,
    mut pass: impl FnMut(&mut Vec<u64>),
) -> Timed {
    eprintln!("{name}...");
    let prev = set_kernel_mode(mode);
    let mut bits = Vec::new();
    pass(&mut bits); // warm-up: grows every buffer to its steady size
    let kept = bits.clone();
    let t = std::time::Instant::now();
    for _ in 0..reps {
        pass(&mut bits);
    }
    let seconds = t.elapsed().as_secs_f64() / reps.max(1) as f64;
    set_kernel_mode(prev);
    assert_eq!(kept, bits, "{name}: predictions changed between passes");
    Timed {
        name,
        seconds,
        bits,
    }
}

/// Builds the fig7 candidate-set workload (prepare + explore, no replay —
/// the costs are irrelevant to inference throughput).
fn build_workload(scale: Scale, quick: bool) -> Workload {
    let profile = scaled_eval_profile(1, scale);
    let cfg = scaled_pipeline_config(scale);
    eprintln!("preparing the fig7 evaluation project...");
    let prepared =
        prepare_project(&profile, ProjectId(1), &cfg).expect("project preparation failed");
    let optimizer = NativeOptimizer::new(&prepared.project.catalog);
    let explorer = PlanExplorer::new(cfg.explorer.clone());
    let mut sets: Vec<Vec<PlanTree>> = prepared
        .test_queries
        .iter()
        .map(|q| {
            let set = explorer.explore(&optimizer, q);
            set.candidates.into_iter().map(|c| c.plan).collect()
        })
        .collect();
    if quick {
        sets.truncate(QUICK_QUERIES);
    }
    Workload {
        sets,
        env: EnvStrategy::MeanHistorical(prepared.mean_env),
    }
}

/// Runs the benchmark and writes `BENCH_infer.json` into the current
/// directory. `quick` shrinks the workload and repetition count for CI
/// smoke runs.
pub fn run(scale: Scale, quick: bool) {
    println!("Inference hot-path benchmark — fig7 candidate sets, single vs batched");
    println!("conv kernel: {}\n", tinynn::conv_kernel());
    let reps = if quick { QUICK_REPS } else { REPS };
    let w = build_workload(scale, quick);
    let (queries, plans) = (w.queries(), w.plans());
    eprintln!("workload: {queries} queries, {plans} candidate plans, {reps} passes/leg");

    let cfg = scaled_pipeline_config(scale);
    let model = AdaptiveCostPredictor::new(cfg.seed ^ 0x1f3a, true);
    let ref_sets: Vec<Vec<&PlanTree>> = w.sets.iter().map(|s| s.iter().collect()).collect();
    let mut ws = InferWs::new();
    let mut out = Vec::new();
    let cache = FeatureCache::new();

    let single_scalar = time_leg("single_scalar", KernelMode::Scalar, reps, |b| {
        pass_single(&model, &w, b)
    });
    let single_simd = time_leg("single_simd", KernelMode::Simd, reps, |b| {
        pass_single(&model, &w, b)
    });
    let batched_sparse_simd = time_leg("batched_sparse_simd", KernelMode::Simd, reps, |b| {
        pass_batched(&model, &w, &ref_sets, None, &mut ws, &mut out, b)
    });
    let batched_cached = time_leg(CACHED, KernelMode::Simd, reps, |b| {
        pass_batched(&model, &w, &ref_sets, Some(&cache), &mut ws, &mut out, b)
    });

    // Every optimized leg must reproduce the legacy path bit for bit.
    let legs = [
        single_scalar,
        single_simd,
        batched_sparse_simd,
        batched_cached,
    ];
    for leg in &legs[1..] {
        assert_eq!(
            legs[0].bits, leg.bits,
            "`{}` predictions diverged from the single-scalar baseline",
            leg.name
        );
    }
    println!(
        "predictions bit-identical across all {} legs ✓\n",
        legs.len()
    );

    // Steady-state allocations of one warm cached scoring pass. The cache
    // and every workspace buffer are already at their high-water marks, so
    // the pass must not touch the allocator at all (the probe reads 0 when
    // the counting allocator is not installed — skip the assertion then).
    let prev = set_kernel_mode(KernelMode::Simd);
    let mut bits = Vec::with_capacity(plans);
    pass_batched(
        &model,
        &w,
        &ref_sets,
        Some(&cache),
        &mut ws,
        &mut out,
        &mut bits,
    );
    let before = allocation_count();
    pass_batched(
        &model,
        &w,
        &ref_sets,
        Some(&cache),
        &mut ws,
        &mut out,
        &mut bits,
    );
    let allocs_per_pass = allocation_count() - before;
    set_kernel_mode(prev);
    if allocation_count() > 0 {
        assert_eq!(
            allocs_per_pass, 0,
            "warm cached scoring pass must not allocate"
        );
        println!("warm cached scoring pass: 0 heap allocations ✓\n");
    }

    let report = report(scale, queries, plans, reps, allocs_per_pass, &legs);
    println!("{}", report.table().render());
    report.write();
}

/// One leg per scoring path, timed per pass over the whole workload on the
/// pool (the nn kernels fan out above the work gate); the cached leg also
/// carries the warm pass's allocations.
fn report(
    scale: Scale,
    queries: usize,
    plans: usize,
    reps: usize,
    allocs_per_pass_warm: u64,
    legs: &[Timed],
) -> TimingReport {
    let mut report = TimingReport::new("infer", scale);
    for t in legs {
        let leg = Leg::new(t.name, mcsim_par::threads(), t.seconds)
            .with("plans_per_s", t.plans_per_s(plans))
            .with("queries", queries as f64)
            .with("plans", plans as f64)
            .with("reps", reps as f64);
        report.legs.push(if t.name == CACHED {
            leg.with("allocs_per_pass_warm", allocs_per_pass_warm as f64)
        } else {
            leg
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timed(name: &'static str, seconds: f64) -> Timed {
        Timed {
            name,
            seconds,
            bits: Vec::new(),
        }
    }

    #[test]
    fn timing_report_has_one_leg_per_scoring_path() {
        let legs = [
            timed("single_scalar", 1.0),
            timed("single_simd", 0.8),
            timed(CACHED, 0.1),
        ];
        let r = report(Scale::Small, 10, 200, 5, 0, &legs);
        assert_eq!((r.bench.as_str(), r.scale.as_str()), ("infer", "small"));
        let names: Vec<&str> = r.legs.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, ["single_scalar", "single_simd", CACHED]);
        let simd = r.leg("single_simd").expect("simd leg");
        assert_eq!(simd.threads, mcsim_par::threads() as u64);
        assert_eq!(simd.wall_s, 0.8);
        assert_eq!(simd.fact("plans_per_s"), Some(250.0));
        assert_eq!(simd.fact("plans"), Some(200.0));
        assert_eq!(simd.fact("allocs_per_pass_warm"), None);
        assert_eq!(r.legs[2].fact("allocs_per_pass_warm"), Some(0.0));
    }

    #[test]
    fn checked_in_infer_report_parses_and_hits_the_speedup_target() {
        let (r, _) = crate::report::checked_in("infer");
        assert!(r.leg("batched_sparse_simd").is_some());
        let baseline = r.leg("single_scalar").expect("the single-scalar leg");
        let best = r.leg(CACHED).expect("the cached batched leg");
        assert_eq!(
            best.fact("allocs_per_pass_warm"),
            Some(0.0),
            "warm cached scoring must be allocation-free"
        );
        // The headline: batched+SIMD inference at least 5x the legacy
        // single-plan scalar path.
        let speedup = baseline.wall_s / best.wall_s;
        assert!(
            speedup >= 5.0,
            "batched+SIMD+cached speedup {speedup:.2}x is below the 5x target"
        );
    }
}
