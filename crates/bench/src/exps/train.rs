//! The training hot-path benchmark: times the fig7 project's DANN training
//! phase three ways — the legacy allocating path serially, the workspace
//! engine serially, and the workspace engine on a multi-thread pool — and
//! records each as a leg of `BENCH_train.json` with its allocations per
//! optimizer step (via the counting allocator installed by the
//! `experiments` binary), after checking the three legs' weights are
//! bit-identical and, with that allocator installed, that both workspace
//! legs' last epoch allocated nothing.

use crate::report::{Leg, TimingReport};
use crate::scale::{scaled_eval_profile, scaled_pipeline_config, Scale};
use loam_core::pipeline::prepare_project;
use loam_core::{train, train_reference, AdaptiveCostPredictor, TrainReport};
use mcsim_catalog::ProjectId;
use tinynn::workspace::alloc_probe::allocation_count;

/// Minimum thread count for the parallel leg: the benchmark forces at least
/// four threads so the microbatch fan-out is actually exercised even on
/// small machines (determinism makes the results identical either way).
const MIN_PARALLEL_THREADS: usize = 4;

/// Allocations per optimizer step once warm (the last epoch, which has no
/// warmup allocations left).
fn steady_allocs_per_step(r: &TrainReport) -> f64 {
    let epochs = r.epoch_allocs.len().max(1) as u64;
    let steps_per_epoch = (r.steps / epochs).max(1);
    match r.epoch_allocs.last() {
        Some(&a) => a as f64 / steps_per_epoch as f64,
        None => 0.0,
    }
}

/// All model weights as bit patterns, for exact comparisons.
fn weight_bits(p: &AdaptiveCostPredictor) -> Vec<u32> {
    p.plan_emb
        .params()
        .into_iter()
        .chain(p.cost_head.params())
        .chain(p.dom_head.params())
        .flat_map(|prm| prm.value.data.iter().map(|v| v.to_bits()))
        .collect()
}

/// The timing leg of one training run, with its allocation counts.
fn train_leg(name: &str, threads: usize, r: &TrainReport) -> Leg {
    let allocs = |a: Option<&u64>| a.copied().unwrap_or(0) as f64;
    Leg::new(name, threads, r.seconds)
        .with("epochs", r.epoch_seconds.len() as f64)
        .with("steps", r.steps as f64)
        .with("allocs_per_step_warm", steady_allocs_per_step(r))
        .with("first_epoch_allocs", allocs(r.epoch_allocs.first()))
        .with("last_epoch_allocs", allocs(r.epoch_allocs.last()))
}

/// Runs the benchmark and writes `BENCH_train.json` into the current
/// directory.
pub fn run(scale: Scale) {
    println!("Training hot-path benchmark — fig7 project, legacy vs workspace engine\n");
    let configured = mcsim_par::threads();
    let parallel_threads = configured.max(MIN_PARALLEL_THREADS);
    if configured < MIN_PARALLEL_THREADS {
        eprintln!(
            "note: pool configured with {configured} thread(s); \
             parallel leg forced to {parallel_threads}"
        );
    }

    let profile = scaled_eval_profile(1, scale);
    let cfg = scaled_pipeline_config(scale);
    eprintln!("preparing the fig7 evaluation project...");
    let prepared =
        prepare_project(&profile, ProjectId(1), &cfg).expect("project preparation failed");
    eprintln!(
        "training set: {} samples, {} DA candidates, {} epochs",
        prepared.train_samples.len(),
        prepared.da_candidates.len(),
        cfg.train_cfg.epochs
    );

    // Each leg trains a fresh predictor from the same seed (mirroring
    // `train_loam`) under its own thread count, and returns its weights.
    let train_run = |name: &str, threads: usize, reference: bool| -> (Leg, Vec<u32>) {
        eprintln!("{name} ({threads} thread(s))...");
        let prev = mcsim_par::set_threads(threads);
        let mut p = AdaptiveCostPredictor::new(cfg.seed ^ 0x10a0, true);
        let f = if reference { train_reference } else { train };
        let report = f(
            &mut p,
            &prepared.train_samples,
            &prepared.da_candidates,
            prepared.mean_env,
            &cfg.train_cfg,
        );
        mcsim_par::set_threads(prev);
        (train_leg(name, threads, &report), weight_bits(&p))
    };

    let (legacy, legacy_weights) = train_run("fig7_train_legacy", 1, true);
    let (serial, serial_weights) = train_run("fig7_train", 1, false);
    let (pool, pool_weights) = train_run("fig7_train", parallel_threads, false);

    // Determinism: the workspace engine must be bit-identical at any thread
    // count AND bit-identical to the legacy allocating path.
    assert_eq!(
        serial_weights, pool_weights,
        "serial and parallel workspace weights diverged"
    );
    assert_eq!(
        legacy_weights, serial_weights,
        "legacy and workspace weights diverged"
    );
    println!("weights bit-identical across legacy / serial ws / {parallel_threads}-thread ws ✓\n");

    // Steady state: every buffer of the workspace engine reached its
    // high-water mark in the earlier epochs, so its last epoch must not
    // touch the allocator at either pool size (the probe reads 0 when the
    // counting allocator is not installed — skip the assertion then).
    if allocation_count() > 0 {
        for leg in [&serial, &pool] {
            assert_eq!(
                leg.fact("last_epoch_allocs"),
                Some(0.0),
                "{} at {} thread(s): the last epoch allocated",
                leg.name,
                leg.threads
            );
        }
        println!(
            "workspace engine's last epoch: 0 heap allocations at 1 and \
             {parallel_threads} thread(s) ✓\n"
        );
    }

    let mut report = TimingReport::new("train", scale);
    report.legs = vec![legacy, serial, pool];
    println!("{}", report.table().render());
    report.write();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train_report(secs: f64) -> TrainReport {
        TrainReport {
            cost_loss: vec![0.5, 0.4],
            domain_loss: vec![0.7, 0.6],
            seconds: secs,
            epoch_seconds: vec![secs / 2.0, secs / 2.0],
            epoch_allocs: vec![100, 0],
            steps: 20,
        }
    }

    #[test]
    fn train_leg_carries_steps_and_allocations() {
        let l = train_leg("fig7_train", 4, &train_report(1.5));
        assert_eq!(
            (l.name.as_str(), l.threads, l.wall_s),
            ("fig7_train", 4, 1.5)
        );
        assert_eq!(l.fact("epochs"), Some(2.0));
        assert_eq!(l.fact("steps"), Some(20.0));
        assert_eq!(l.fact("allocs_per_step_warm"), Some(0.0));
        assert_eq!(l.fact("first_epoch_allocs"), Some(100.0));
        assert_eq!(l.fact("last_epoch_allocs"), Some(0.0));
    }

    #[test]
    fn steady_allocs_use_the_last_epoch() {
        // 2 epochs, 20 steps → 10 steps/epoch; last epoch had 0 allocs.
        assert_eq!(steady_allocs_per_step(&train_report(1.0)), 0.0);
    }

    /// The checked-in report has the legacy leg and the workspace engine
    /// at one thread and at the forced pool size, and both workspace legs
    /// read zero allocations once warm.
    #[test]
    fn checked_in_train_report_parses_against_itself() {
        let (r, _) = crate::report::checked_in("train");
        let has = |name: &str, threads: fn(u64) -> bool| {
            r.legs.iter().any(|l| l.name == name && threads(l.threads))
        };
        assert!(has("fig7_train_legacy", |t| t == 1));
        assert!(has("fig7_train", |t| t == 1));
        assert!(has("fig7_train", |t| t >= MIN_PARALLEL_THREADS as u64));
        for leg in r.legs.iter().filter(|l| l.name == "fig7_train") {
            for fact in ["allocs_per_step_warm", "last_epoch_allocs"] {
                assert_eq!(
                    leg.fact(fact),
                    Some(0.0),
                    "{fact} at {} thread(s): the warm workspace engine must not allocate",
                    leg.threads
                );
            }
        }
    }
}
