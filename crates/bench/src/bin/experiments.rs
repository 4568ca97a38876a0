//! The experiment harness: regenerates every table and figure of the LOAM
//! paper's evaluation.
//!
//! ```text
//! experiments <id|all> [--scale small|medium|full] [--threads N]
//!
//!   fig1   cost variance of recurring queries
//!   fig5   cost vs machine load
//!   tab1   evaluation-project statistics
//!   fig6   end-to-end comparison (LOAM vs baselines vs MaxCompute)
//!   fig7   per-query improvements/regressions
//!   fig8   performance vs training-set size
//!   fig9   training time / model size / inference time
//!   fig10  cost-inference strategies (LOAM vs CE/CB/NL)
//!   fig11  adaptive-training ablation (LOAM vs LOAM-NA)
//!   fig12  Ranker vs Random
//!   fig15  log-normal cost distributions
//!   fig16  Ranker vs number of training projects
//!   sec73  population-wide benefit estimate
//!   thm1   Theorem 1 ordering checks
//!
//!   parallel  one-thread-vs-pool wall-clock benchmark over the fig5+fig7
//!             subset; writes BENCH_parallel.json
//!   train     training hot-path benchmark (legacy allocating vs the
//!             workspace engine, serial vs microbatch pool, allocations
//!             per step); writes BENCH_train.json
//!   trace     one representative query end-to-end under a per-query
//!             TraceContext; writes trace.json (chrome://tracing) and
//!             trace_report.txt
//!   chaos     robust serving under fault injection at increasing fault
//!             rates (completion rate, retries, wasted work, cost
//!             overhead); `--quick` restricts to the 0x/1x levels; writes
//!             BENCH_chaos.json
//!   serve     high-throughput serving sessions: batched + cached vs
//!             single-query QPS on the same seeded arrival trace, with
//!             latency percentiles, shed rate, and cache hit rates;
//!             `--quick` restricts to the single/batched pair; writes
//!             BENCH_serve.json
//!   exec      simulation-core scaling: dense per-tick reference vs the
//!             event-driven engine over 1k/5k/10k-machine pools, plus the
//!             10k-machine × 1M-query headline session; `--quick`
//!             restricts to the 1k pool and skips the headline; writes
//!             BENCH_exec.json
//!   infer     inference hot path: legacy single-plan scoring vs the
//!             workspace-batched SIMD forward (dense/sparse, cold/warm
//!             feature cache) over the fig7 candidate sets, with a
//!             bit-identity check and steady-state allocation probe;
//!             `--quick` shrinks the workload; writes BENCH_infer.json
//!   sweep     deterministic scenario matrix: a declarative spec (grid or
//!             seeded Latin hypercube) over {machines × tenants ×
//!             fault_scale × arrival × threads}, every cell a seeded
//!             serve pass over the once-trained pipeline; `--quick` runs
//!             the embedded 16-cell grid, `--spec FILE` a custom spec;
//!             writes canonical-JSON BENCH_sweep.json (bit-identical
//!             across reruns and thread counts)
//!
//! experiments compare <old.json> <new.json> [--threshold <pct>]
//!
//!   diff two BENCH_*.json reports. Timing reports (BENCH_parallel.json
//!   and friends) match legs by name and thread count and gate each
//!   matched leg's wall_s; BENCH_sweep.json reports diff cell-by-cell on
//!   deterministic metrics. Exit codes: 0 ok, 1 regression past the
//!   threshold (default 25%), 2 on parse errors, 3 when the reports are
//!   structurally incomparable (mixed kinds, missing sweep cells, or no
//!   leg in common)
//!
//! `--threads N` overrides the mcsim-par pool size for the whole run
//! (equivalent to MCSIM_PAR_THREADS=N). An unknown id or flag, or a flag
//! value that does not parse, prints this usage and exits 2 before any
//! work starts.
//! ```

use loam_bench::exps;
use loam_bench::exps::common::{run_all_projects, ProjectRun};
use loam_bench::Scale;
use std::sync::Arc;

// Count every heap allocation so `experiments train` can prove the workspace
// engine's steady state allocates nothing per optimizer step. The probe is a
// relaxed atomic increment around the system allocator — noise-level
// overhead for every other experiment.
#[global_allocator]
static ALLOC: tinynn::workspace::alloc_probe::CountingAllocator =
    tinynn::workspace::alloc_probe::CountingAllocator;

/// Prints the harness-wide metrics snapshot as a single JSON line.
fn emit_metrics(id: &str, scale: Scale, recorder: &mcsim_obs::InMemoryRecorder) {
    let scale_name = format!("{scale:?}").to_lowercase();
    println!("\n=== metrics (JSON) ===");
    println!(
        "{}",
        loam_bench::metrics_json(id, &scale_name, &recorder.snapshot())
    );
}

const USAGE: &str = "usage: experiments <id|all> [--scale small|medium|full] [--threads N] \
                     [--quick] [--spec FILE]\n       \
                     experiments compare <old.json> <new.json> [--threshold <pct>]";

/// Every id `main` dispatches on.
const IDS: [&str; 24] = [
    "all", "compare", "fig1", "fig5", "tab1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12", "fig15", "fig16", "sec73", "thm1", "parallel", "train", "trace", "chaos", "serve",
    "exec", "infer", "sweep",
];

/// The checked command line.
struct Args {
    id: String,
    /// `compare`'s two report paths.
    paths: Vec<String>,
    scale: Scale,
    threads: Option<usize>,
    threshold: f64,
    quick: bool,
    spec: Option<String>,
}

/// Parses the arguments after the program name, rejecting an unknown id,
/// flag or stray argument and any flag value that does not parse.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let id = args.first().map_or("all", String::as_str);
    if !IDS.contains(&id) {
        return Err(format!("unknown experiment id `{id}`"));
    }
    let mut a = Args {
        id: id.to_string(),
        paths: Vec::new(),
        scale: Scale::Small,
        threads: None,
        threshold: 25.0,
        quick: false,
        spec: None,
    };
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        let mut value = || rest.next().ok_or_else(|| format!("`{arg}` needs a value"));
        match arg.as_str() {
            "--scale" => {
                let v = value()?;
                a.scale = Scale::parse(v).ok_or_else(|| format!("unknown scale `{v}`"))?;
            }
            "--threads" => {
                let v = value()?;
                a.threads = Some(v.parse().map_err(|_| format!("bad thread count `{v}`"))?);
            }
            "--threshold" => {
                let v = value()?;
                a.threshold = v.parse().map_err(|_| format!("bad threshold `{v}`"))?;
            }
            "--spec" => a.spec = Some(value()?.clone()),
            "--quick" => a.quick = true,
            p if a.id == "compare" && !p.starts_with("--") && a.paths.len() < 2 => {
                a.paths.push(p.to_string());
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if a.id == "compare" && a.paths.len() != 2 {
        return Err("compare needs two report paths".to_string());
    }
    Ok(a)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        id,
        paths,
        scale,
        threads,
        threshold,
        quick,
        spec,
    } = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("experiments: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let id = id.as_str();

    // `compare` is a pure file diff: no project context, no recorder.
    if id == "compare" {
        std::process::exit(exps::compare::run(&paths[0], &paths[1], threshold));
    }
    if let Some(n) = threads {
        mcsim_par::set_threads(n);
        eprintln!("pool size overridden: {n} thread(s)");
    }

    // Collect pipeline metrics (phase timings, counters, histograms) for the
    // whole run; dumped as JSON at the end.
    let recorder = Arc::new(mcsim_obs::InMemoryRecorder::new());
    mcsim_obs::install(recorder.clone());

    let started = std::time::Instant::now();
    eprintln!("running `{id}` at {scale:?} scale");

    // `chaos`, `serve`, `exec`, `infer`, and `sweep` are context-free too,
    // but take the extra `--quick` flag (`sweep` also `--spec FILE`).
    if id == "chaos" || id == "serve" || id == "exec" || id == "infer" || id == "sweep" {
        match id {
            "chaos" => exps::chaos::run(scale, quick),
            "serve" => exps::serve::run(scale, quick),
            "exec" => exps::exec::run(scale, quick),
            "sweep" => exps::sweep::run(scale, quick, spec.as_deref()),
            _ => exps::infer::run(scale, quick),
        }
        emit_metrics(id, scale, &recorder);
        return;
    }

    // Experiments that do not need the five evaluation-project runs.
    let context_free: Option<fn(Scale)> = match id {
        "fig1" => Some(exps::fig1::run),
        "fig5" => Some(exps::fig5::run),
        "fig12" => Some(exps::fig12::run),
        "fig15" => Some(exps::fig15::run),
        "fig16" => Some(exps::fig16::run),
        "sec73" => Some(exps::sec73::run),
        "thm1" => Some(exps::thm1::run),
        "parallel" => Some(exps::parallel::run),
        "trace" => Some(exps::trace::run),
        "train" => Some(exps::train::run),
        _ => None,
    };
    if let Some(run) = context_free {
        run(scale);
        emit_metrics(id, scale, &recorder);
        return;
    }

    // Everything else shares the prepared/trained/evaluated project context.
    eprintln!("preparing the five evaluation projects (history, training, replay)...");
    let runs: Vec<ProjectRun> = run_all_projects(scale);
    eprintln!(
        "context ready in {:.0}s; running experiments",
        started.elapsed().as_secs_f64()
    );

    let with_context = |id: &str, runs: &[ProjectRun]| match id {
        "tab1" => exps::tab1::print(runs),
        "fig6" | "fig9" => {
            let rows: Vec<_> = runs.iter().map(exps::fig6::evaluate_run).collect();
            if id == "fig6" {
                exps::fig6::print(&rows);
            } else {
                exps::fig9::print(runs, &rows);
            }
        }
        "fig7" => exps::fig7::print(runs),
        "fig8" => exps::fig8::print(runs),
        "fig10" => {
            let rows: Vec<_> = runs.iter().map(exps::fig10::evaluate_run).collect();
            exps::fig10::print(&rows);
        }
        "fig11" => {
            let rows: Vec<_> = runs.iter().map(exps::fig11::evaluate_run).collect();
            exps::fig11::print(&rows);
        }
        other => unreachable!("`{other}` was checked against IDS"),
    };

    if id == "all" {
        // Context-free experiments first.
        for free in ["fig1", "fig5", "fig15", "thm1", "fig12", "fig16"] {
            println!("\n════════════════════════════════════════════════════════════");
            match free {
                "fig1" => exps::fig1::run(scale),
                "fig5" => exps::fig5::run(scale),
                "fig15" => exps::fig15::run(scale),
                "thm1" => exps::thm1::run(scale),
                "fig12" => exps::fig12::run(scale),
                "fig16" => exps::fig16::run(scale),
                _ => unreachable!(),
            }
        }
        // Shared-context experiments: compute Figure 6 rows once.
        println!("\n════════════════════════════════════════════════════════════");
        exps::tab1::print(&runs);
        let rows: Vec<_> = runs.iter().map(exps::fig6::evaluate_run).collect();
        println!("\n════════════════════════════════════════════════════════════");
        exps::fig6::print(&rows);
        println!("\n════════════════════════════════════════════════════════════");
        exps::fig7::print(&runs);
        println!("\n════════════════════════════════════════════════════════════");
        exps::fig9::print(&runs, &rows);
        println!("\n════════════════════════════════════════════════════════════");
        let rows10: Vec<_> = runs.iter().map(exps::fig10::evaluate_run).collect();
        exps::fig10::print(&rows10);
        println!("\n════════════════════════════════════════════════════════════");
        let rows11: Vec<_> = runs.iter().map(exps::fig11::evaluate_run).collect();
        exps::fig11::print(&rows11);
        println!("\n════════════════════════════════════════════════════════════");
        exps::fig8::print(&runs);
        // Section 7.3 re-stated with the measured Figure 6 gains (the
        // paper's own estimation procedure).
        println!("\n════════════════════════════════════════════════════════════");
        let gains: Vec<f64> = rows
            .iter()
            .map(|r| 1.0 - r.loam.avg_cost / r.native.avg_cost)
            .collect();
        exps::sec73::run_with_gains(scale, &gains);
    } else {
        with_context(id, &runs);
    }

    emit_metrics(id, scale, &recorder);
    eprintln!("\ntotal wall time: {:.0}s", started.elapsed().as_secs_f64());
}
