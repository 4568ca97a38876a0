//! The parallel-compute benchmark: runs the fig5+fig7 experiment subset
//! once pinned to a single thread and once on the pool, and writes every
//! phase at each thread count as a named leg of `BENCH_parallel.json`.

use crate::exps::{common, fig5};
use crate::report::{Leg, TimingReport};
use crate::scale::Scale;
use loam_core::pipeline::evaluate_model;

/// Runs the fig5 load sweep, the fig7 project context (prepare + train +
/// replay), and the fig7 model evaluation at `threads` pool threads, one
/// leg per phase.
fn run_phases(scale: Scale, threads: usize) -> Vec<Leg> {
    let prev = mcsim_par::set_threads(threads);
    let mut legs = Vec::new();

    let t = std::time::Instant::now();
    let sweep = fig5::sweep(scale);
    legs.push(Leg::new("fig5_sweep", threads, t.elapsed().as_secs_f64()));
    // Consume the sweep so the work cannot be considered dead.
    assert!(sweep.iter().map(|s| s.3).sum::<f64>().is_finite());

    let t = std::time::Instant::now();
    let run = common::run_project(1, scale);
    legs.push(Leg::new("fig7_context", threads, t.elapsed().as_secs_f64()));

    let t = std::time::Instant::now();
    let report =
        evaluate_model(&run.loam, &run.strategy, &run.evaluated).expect("model evaluation failed");
    legs.push(Leg::new("fig7_eval", threads, t.elapsed().as_secs_f64()));
    assert_eq!(report.per_query.len(), run.evaluated.len());

    mcsim_par::set_threads(prev);
    legs
}

/// The thread counts to run at: 1, then the pool size if it is larger.
/// A pool configured at one thread falls back to the machine's available
/// parallelism, so an unconfigured run still exercises the pool.
fn thread_counts(configured: usize, available: usize) -> Vec<usize> {
    let pool = if configured > 1 {
        configured
    } else {
        available
    };
    if pool > 1 {
        vec![1, pool]
    } else {
        vec![1]
    }
}

/// Runs the benchmark and writes `BENCH_parallel.json` into the current
/// directory.
pub fn run(scale: Scale) {
    println!("Parallel-compute benchmark — fig5+fig7 subset, one thread vs the pool\n");
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let counts = thread_counts(mcsim_par::threads(), available);
    if counts.len() == 1 {
        eprintln!("note: one core and a one-thread pool: running the 1-thread legs only");
    }
    let mut report = TimingReport::new("parallel", scale);
    for &threads in &counts {
        eprintln!("{threads} thread(s)...");
        report.legs.extend(run_phases(scale, threads));
    }
    println!("{}", report.table().render());
    report.write();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-thread legs always run; the pool legs only at a distinct count.
    #[test]
    fn thread_counts_skip_a_second_one_thread_pass() {
        assert_eq!(thread_counts(8, 2), vec![1, 8]);
        assert_eq!(thread_counts(1, 4), vec![1, 4]);
        assert_eq!(thread_counts(1, 1), vec![1]);
    }
}
