//! `benchmark` — the repository benchmark: four workloads, each bound by a
//! different layer, with end-to-end and per-layer metrics.
//!
//! ```text
//! benchmark [--workload NAME] [--seed S] [--seconds N] [--trace 0|1]
//! ```
//!
//! Without `--workload` every workload runs, each in a child process of its
//! own so set-up, allocator state and peak RSS do not leak between them.
//! A run with `--trace 0` sets up several times, then repeats the workload
//! for `--seconds` and prints the end-to-end metrics, read as seconds on a
//! reference host (see [`measure::scaled`]); `--trace 1` installs
//! an in-memory recorder, sets up and runs one rep traced, runs one more
//! untraced, and prints the per-layer metrics. The last line of standard
//! output is the result object; the line before it is the provenance block.
//! See README.md next to this file for the workloads and metrics.

mod measure;
mod workloads;

use mcsim_obs::{InMemoryRecorder, MetricsSnapshot};
use measure::{calibration_block, mean, median, peak_rss_mb, ratio, scaled};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::Instant;
use workloads::{rep, setup, Clock, Ctx, Rep, Spec, Values, Workload};

/// An untraced run sets up at least [`SETUP_REPS`] times and for at least
/// [`SETUP_MIN_S`] seconds; `setup_s` is the median. The floor in seconds
/// gives the cheap set-ups (milliseconds) enough samples for a steady
/// median.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;

/// Measured seconds per run when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

/// Fingerprints of each workload at the default seeds.
const PINS: &str = include_str!("pins.txt");

/// `(name, unit, better)` of a metric, exactly as `BENCHMARK.json` lists it.
type Metric = (&'static str, &'static str, &'static str);

/// Printed by every `--trace 0` run.
const END_TO_END: [Metric; 2] = [("wall_s", "s", "lower"), ("setup_s", "s", "lower")];

/// Printed by every `--trace 1` run; 0 where the workload does not run the
/// layer.
const PER_LAYER: [Metric; 39] = [
    ("pipeline.prepare_s", "s", "lower"),
    ("pipeline.train_s", "s", "lower"),
    ("pipeline.evaluate_s", "s", "lower"),
    ("predictor.score_s", "s", "lower"),
    ("gate.validate_s", "s", "lower"),
    ("serve.run_s", "s", "lower"),
    ("train.epoch_s", "s", "lower"),
    ("train.step_p50_ms", "ms", "lower"),
    ("train.samples_per_s", "1/s", "higher"),
    ("train.cores_busy", "cores", "higher"),
    ("par.cores_busy", "cores", "higher"),
    ("catalog.generate_s", "s", "lower"),
    ("exec.history_s", "s", "lower"),
    ("exec.replay_s", "s", "lower"),
    ("exec.replay_us_per_replay", "us", "lower"),
    ("optimizer.explore_s", "s", "lower"),
    ("optimizer.explore_us_per_plan", "us", "lower"),
    ("serve.request_s", "s", "lower"),
    ("serve.exec_us_per_request", "us", "lower"),
    ("exec.lazy_advances", "count", "lower"),
    ("exec.wasted_frac", "ratio", "lower"),
    ("serve.batch_infer_s", "s", "lower"),
    ("serve.batch_infer_ms_per_batch", "ms", "lower"),
    ("serve.batch_fill", "ratio", "higher"),
    ("serve.plans_scored_per_s", "1/s", "higher"),
    ("featurize.hit_rate", "ratio", "higher"),
    ("serve.feature_hit_rate", "ratio", "higher"),
    ("serve.decision_hit_rate", "ratio", "higher"),
    ("serve.qps", "1/s", "higher"),
    ("serve.latency_p50_ms", "ms", "lower"),
    ("serve.latency_p99_ms", "ms", "lower"),
    ("select.steered_frac", "ratio", "higher"),
    ("select.cost_ratio", "ratio", "lower"),
    ("trace_overhead", "ratio", "lower"),
    ("mem.peak_rss_mb", "MB", "lower"),
    ("share.train", "ratio", "lower"),
    ("share.exec", "ratio", "lower"),
    ("share.serve_request", "ratio", "lower"),
    ("share.serve_batch_infer", "ratio", "lower"),
];

struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: None,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                out.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                out.seed = Some(parsed.map_err(|_| format!("bad seed `{value}`"))?);
            }
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                out.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(out)
}

/// What one run measured and checked.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Failed correctness checks; empty when the run is correct.
    errors: Vec<String>,
    metrics: Values,
    /// Raw wall seconds of each set-up and rep.
    setup_s: Vec<f64>,
    rep_s: Vec<f64>,
    /// Mean calibration block of each phase: the set-ups and the reps, or
    /// the traced and the untraced rep.
    block_s: Vec<f64>,
    /// Work a traced pass did; empty for an untraced run.
    volumes: Values,
    fingerprint: u64,
}

impl Outcome {
    /// Counts the reps and checks that they all fingerprint alike.
    fn add_reps(&mut self, reps: &[Rep]) {
        self.fingerprint = reps[0].fingerprint;
        for r in reps {
            self.attempted += r.items;
            self.failed += r.failed;
            self.rep_s.push(r.clock.busy_s);
            if r.fingerprint != self.fingerprint {
                self.errors.push(format!(
                    "rep fingerprints differ: {:016x} vs {:016x}",
                    r.fingerprint, self.fingerprint
                ));
            }
        }
    }
}

/// Sets up once, timed as wall seconds less the calibration blocks taken
/// inside it, then takes one more block, so that every set-up has one.
fn timed_setup(spec: &Spec) -> Result<(Ctx, f64, Clock), String> {
    let mut clock = Clock::default();
    let t = Instant::now();
    let ctx = setup(spec, &mut clock).map_err(|e| e.to_string())?;
    let seconds = t.elapsed().as_secs_f64() - clock.blocks_wall_s;
    clock.blocks.push(calibration_block());
    Ok((ctx, seconds, clock))
}

/// Sets up repeatedly (see [`SETUP_REPS`]), then repeats the workload until
/// the next rep would end past `seconds` (at least one rep). Each set-up
/// and rep is read as reference-host seconds by the calibration blocks
/// taken in and right after it. `setup_s` is the median set-up; `wall_s`
/// is the mean rep, which holds steadier than the median when the host's
/// speed changes for seconds at a time (README.md, End-to-end metrics).
fn run_timed(spec: &Spec, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut setup_ref_s, mut setup_blocks) = (Vec::new(), Vec::new());
    let mut ctx = None;
    let setup_started = Instant::now();
    while out.setup_s.len() < SETUP_REPS || setup_started.elapsed().as_secs_f64() < SETUP_MIN_S {
        drop(ctx.take());
        let (c, setup_s, clock) = timed_setup(spec)?;
        ctx = Some(c);
        out.setup_s.push(setup_s);
        setup_ref_s.push(scaled(setup_s, &clock.blocks));
        setup_blocks.extend(clock.blocks);
    }
    let ctx = ctx.expect("at least one set-up");

    let started = Instant::now();
    let mut reps = Vec::new();
    loop {
        let r = rep(spec, &ctx)?;
        let next_ends_at = started.elapsed().as_secs_f64() + r.clock.busy_s;
        reps.push(r);
        if next_ends_at > seconds {
            break;
        }
    }
    out.add_reps(&reps);
    let rep_ref_s: Vec<f64> = reps
        .iter()
        .map(|r| scaled(r.clock.busy_s, &r.clock.blocks))
        .collect();
    let rep_blocks: Vec<f64> = reps.iter().flat_map(|r| r.clock.blocks.clone()).collect();
    out.block_s = vec![mean(&setup_blocks), mean(&rep_blocks)];
    out.metrics = Values::from([
        ("wall_s", mean(&rep_ref_s)),
        ("setup_s", median(&setup_ref_s)),
    ]);
    Ok(out)
}

/// Sets up and runs one rep under an in-memory recorder, then one rep
/// without it. The per-layer metrics describe the traced pass (set-up plus
/// the traced rep); the untraced rep gives the tracing overhead.
fn run_traced(spec: &Spec) -> Result<Outcome, String> {
    let rec = Arc::new(InMemoryRecorder::new());
    mcsim_obs::install(rec.clone());
    let traced = timed_setup(spec)
        .and_then(|(ctx, setup_s, clock)| Ok((rep(spec, &ctx)?, ctx, setup_s, clock)));
    mcsim_obs::uninstall();
    let (traced, ctx, setup_s, mut pass) = traced?;
    let untraced = rep(spec, &ctx)?;

    for (&k, v) in &traced.clock.values {
        *pass.values.entry(k).or_default() += v;
    }
    let at_reference = |r: &Rep| scaled(r.clock.busy_s, &r.clock.blocks);
    let timing = Pass {
        wall_s: setup_s + traced.clock.busy_s,
        rep_s: traced.clock.busy_s,
        rep_cpu_s: traced.clock.cpu_s,
        overhead: at_reference(&traced) / at_reference(&untraced) - 1.0,
    };
    let snap = rec.snapshot();
    let mut out = Outcome {
        setup_s: vec![setup_s],
        block_s: vec![mean(&traced.clock.blocks), mean(&untraced.clock.blocks)],
        metrics: per_layer(&snap, &pass.values, &timing),
        volumes: volumes(&snap, &pass.values),
        ..Outcome::default()
    };
    out.add_reps(&[traced, untraced]);
    Ok(out)
}

/// Wall-clock facts of a traced run.
struct Pass {
    /// Set-up plus the traced rep.
    wall_s: f64,
    rep_s: f64,
    rep_cpu_s: f64,
    /// Traced over untraced rep time, less one, both read as
    /// reference-host seconds.
    overhead: f64,
}

/// Every per-layer metric, from the recorder's spans and counters and the
/// call timers of the traced pass.
fn per_layer(snap: &MetricsSnapshot, v: &Values, pass: &Pass) -> Values {
    let span = |path: &str| snap.span(path).map_or(0.0, |s| s.total_s);
    let count = |name: &str| snap.counter(name) as f64;
    let get = |name: &str| v.get(name).copied().unwrap_or(0.0);
    let epochs = snap.span("train/epoch");
    let history = span("prepare/execute");
    let replay = span("execute");
    let explore = span("prepare/optimize");
    let explore_all = explore + span("optimize");
    let request = span("serve.request");
    let requests = snap.span("serve.request").map_or(0, |s| s.count);
    let infer = span("serve.batch_infer");
    let feat_hits = count("loam.featurize.cache_hits");
    let feat_lookups = feat_hits + count("loam.featurize.cache_misses");
    let train_s = get("pipeline.train_s");
    Values::from([
        ("pipeline.prepare_s", get("pipeline.prepare_s")),
        ("pipeline.train_s", train_s),
        ("pipeline.evaluate_s", get("pipeline.evaluate_s")),
        ("predictor.score_s", get("predictor.score_s")),
        ("gate.validate_s", get("gate.validate_s")),
        ("serve.run_s", get("serve.run_s")),
        (
            "train.epoch_s",
            epochs.map_or(0.0, |s| ratio(s.total_s, s.count as f64)),
        ),
        (
            "train.step_p50_ms",
            snap.histogram("train.step_ns")
                .map_or(0.0, |h| h.p50() / 1e6),
        ),
        ("train.samples_per_s", ratio(get("train.samples"), train_s)),
        ("train.cores_busy", ratio(get("train.cpu_s"), train_s)),
        ("par.cores_busy", ratio(pass.rep_cpu_s, pass.rep_s)),
        ("catalog.generate_s", span("prepare") - history - explore),
        ("exec.history_s", history),
        ("exec.replay_s", replay),
        (
            "exec.replay_us_per_replay",
            ratio(replay * 1e6, count("exec.flighting.replays")),
        ),
        ("optimizer.explore_s", explore_all),
        (
            "optimizer.explore_us_per_plan",
            ratio(explore_all * 1e6, count("explorer.plans_explored")),
        ),
        ("serve.request_s", request),
        (
            "serve.exec_us_per_request",
            ratio(request * 1e6, requests as f64),
        ),
        ("exec.lazy_advances", count("exec.lazy_advances")),
        ("exec.wasted_frac", get("exec.wasted_frac")),
        ("serve.batch_infer_s", infer),
        (
            "serve.batch_infer_ms_per_batch",
            ratio(infer * 1e3, get("serve.batches")),
        ),
        ("serve.batch_fill", get("serve.batch_fill")),
        (
            "serve.plans_scored_per_s",
            ratio(get("serve.plans_scored"), infer),
        ),
        ("featurize.hit_rate", ratio(feat_hits, feat_lookups)),
        ("serve.feature_hit_rate", get("serve.feature_hit_rate")),
        ("serve.decision_hit_rate", get("serve.decision_hit_rate")),
        ("serve.qps", get("serve.qps")),
        ("serve.latency_p50_ms", get("serve.latency_p50_ms")),
        ("serve.latency_p99_ms", get("serve.latency_p99_ms")),
        ("select.steered_frac", get("select.steered_frac")),
        ("select.cost_ratio", get("select.cost_ratio")),
        ("trace_overhead", pass.overhead),
        ("mem.peak_rss_mb", peak_rss_mb()),
        ("share.train", ratio(train_s, pass.wall_s)),
        ("share.exec", ratio(history + replay, pass.wall_s)),
        ("share.serve_request", ratio(request, request + infer)),
        ("share.serve_batch_infer", ratio(infer, request + infer)),
    ])
}

/// Work the traced pass did. The workload and its seed fix these counts,
/// so fewer of them is no gain: they go in the provenance block, and the
/// per-layer metrics divide layer time by some of them instead. The serve
/// fingerprint holds the retry and wasted-cost totals the fault counts
/// come from.
fn volumes(snap: &MetricsSnapshot, v: &Values) -> Values {
    let count = |name: &str| snap.counter(name) as f64;
    Values::from([
        ("train.steps", count("loam.train.steps")),
        ("exec.queries_executed", count("exec.queries_executed")),
        ("exec.flighting.replays", count("exec.flighting.replays")),
        ("explorer.plans_explored", count("explorer.plans_explored")),
        (
            "explorer.candidates_kept",
            count("explorer.candidates_kept"),
        ),
        ("featurize.calls", count("loam.featurize.calls")),
        ("exec.events", count("exec.events")),
        ("exec.retry.attempts", count("exec.retry.attempts")),
        (
            "exec.retry.speculative_launches",
            count("exec.retry.speculative_launches"),
        ),
        ("exec.fault.stage_kills", count("exec.fault.stage_kills")),
        (
            "serve.batches",
            v.get("serve.batches").copied().unwrap_or(0.0),
        ),
    ])
}

/// The pinned fingerprint of `workload` at the default seeds, if any.
fn pinned(workload: Workload) -> Option<u64> {
    PINS.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| match l.split_once(' ') {
            Some((name, hex)) if name == workload.name() => {
                u64::from_str_radix(hex.trim(), 16).ok()
            }
            _ => None,
        })
}

/// Runs one workload and prints its provenance and result lines.
fn run_workload(workload: Workload, args: &Args) -> ExitCode {
    let spec = Spec::new(workload, args.seed);
    let measured = if args.trace {
        run_traced(&spec)
    } else {
        run_timed(&spec, args.seconds)
    };
    let mut out = measured.unwrap_or_else(|e| Outcome {
        errors: vec![e],
        ..Outcome::default()
    });
    let pin = pinned(workload).filter(|_| args.seed.is_none());
    if let Some(pin) = pin.filter(|&p| out.errors.is_empty() && p != out.fingerprint) {
        out.errors.push(format!(
            "fingerprint {:016x} differs from the pinned {pin:016x}",
            out.fingerprint
        ));
    }
    let correct = out.errors.is_empty();
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    if !correct {
        out.attempted = out.attempted.max(1);
        out.failed = out.attempted;
    }

    let list = |v: &[f64]| {
        let items: Vec<String> = v.iter().map(|x| format!("{x:?}")).collect();
        format!("[{}]", items.join(", "))
    };
    let volumes: Vec<String> = out
        .volumes
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \
         \"host_cores\": {}, \"pool_threads\": {}, \"kernel_mode\": \"{:?}\", \
         \"sizes\": \"{}\", \"volumes\": {{{}}}, \"setup_s\": {}, \"rep_s\": {}, \"block_s\": {}, \
         \"fingerprint\": \"{:016x}\", \"pinned\": {}}}}}",
        workload.name(),
        args.seed.map_or("null".into(), |s| s.to_string()),
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        mcsim_par::threads(),
        tinynn::kernel_mode(),
        spec.sizes(),
        volumes.join(", "),
        list(&out.setup_s),
        list(&out.rep_s),
        list(&out.block_s),
        out.fingerprint,
        pin.map_or("null".into(), |p| format!("\"{p:016x}\"")),
    );

    let table: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .filter_map(|(name, unit, _)| {
            let v = out.metrics.get(name)?;
            Some(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a child process of its own, passing the
/// remaining flags through.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(args)
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "{e}\nusage: benchmark [--workload NAME] [--seed S] [--seconds N] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_workload(w, &args),
        None => run_all(&raw),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loam_core::pipeline::PipelineConfig;
    use loam_core::{GateConfig, TrainConfig};
    use mcsim_catalog::{ProjectId, ProjectProfile};
    use serde::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        match v {
            Value::Map(m) => &m.iter().find(|(k, _)| k == key).expect(key).1,
            other => panic!("expected an object holding `{key}`, got {other:?}"),
        }
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn list(v: &Value) -> &[Value] {
        match v {
            Value::Seq(s) => s,
            other => panic!("expected a list, got {other:?}"),
        }
    }

    fn number(v: &Value) -> f64 {
        match *v {
            Value::F64(x) => x,
            Value::U64(x) => x as f64,
            Value::I64(x) => x as f64,
            ref other => panic!("expected a number, got {other:?}"),
        }
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// `(name, unit, better)` of each metric listed under `key`.
    fn metric_table<'a>(json: &'a Value, key: &str) -> Vec<(&'a str, &'a str, &'a str)> {
        list(field(json, key))
            .iter()
            .map(|m| {
                let s = |k: &str| text(field(m, k));
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_binary() {
        // The manifest is loam-bench's or this directory's, depending on
        // which build runs the test; BENCHMARK.json is above both.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .map(|dir| dir.join("BENCHMARK.json"))
            .find(|p| p.is_file())
            .expect("BENCHMARK.json at the repository root");
        let json: Value =
            serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json reads"))
                .expect("BENCHMARK.json parses");

        let workloads: Vec<&str> = list(field(&json, "workloads"))
            .iter()
            .map(|w| text(field(w, "name")))
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
        assert_eq!(metric_table(&json, "end_to_end"), END_TO_END);
        assert_eq!(metric_table(&json, "per_layer"), PER_LAYER);
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);

        let mut names: Vec<&str> = workloads.clone();
        names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0));
        for name in &names {
            assert!(valid_name(name), "bad metric or workload name `{name}`");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            4 + END_TO_END.len() + PER_LAYER.len(),
            "names repeat"
        );

        let bounds: Vec<(&str, f64)> = list(field(&json, "end_to_end"))
            .iter()
            .map(|m| (text(field(m, "name")), number(field(m, "bound"))))
            .collect();
        let setup = bounds.iter().find(|b| b.0 == "setup_s").expect("setup_s").1;
        for (name, bound) in &bounds {
            assert!(
                *bound > 0.0 && *bound <= setup && setup <= 0.25,
                "{name}: {bound}"
            );
        }
        let paths: Vec<&str> = list(field(&json, "paths")).iter().map(text).collect();
        assert_eq!(paths, ["crates/bench/src/bin/benchmark"]);
    }

    #[test]
    fn every_workload_has_a_pinned_fingerprint() {
        for w in Workload::ALL {
            assert!(pinned(w).is_some(), "no pin for {}", w.name());
        }
    }

    #[test]
    fn flags_parse_and_bad_ones_are_refused() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&args(
            "--workload serve_rescore --seed 0x10 --seconds 3 --trace 1",
        ))
        .expect("valid flags");
        assert_eq!(a.workload, Some(Workload::ServeRescore));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(16), 3.0, true));
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed",
            "--frobnicate 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "`{bad}` must be refused");
        }
    }

    /// The workload shrunk to a tiny project and a short trace, with a gate
    /// that always deploys so the serve workloads still score requests.
    fn shrunken(workload: Workload) -> Spec {
        let mut spec = Spec::new(workload, Some(7));
        let mut profile = ProjectProfile::evaluation_project(2).expect("project 2");
        profile.n_tables = 18;
        profile.n_temp_tables = 2;
        profile.n_columns = 130;
        profile.n_templates = 10;
        profile.n_query_day0 = 15.0;
        spec.projects = vec![(profile, ProjectId(9))];
        spec.pipeline = PipelineConfig {
            train_days: 3,
            test_days: 2,
            max_train: 40,
            max_test: 10,
            eval_rounds: 3,
            da_queries: 8,
            train_cfg: TrainConfig {
                epochs: 2,
                ..TrainConfig::default()
            },
            ..spec.pipeline
        };
        if let Some(serve) = &mut spec.serve {
            serve.requests = 300;
            serve.gate = GateConfig {
                max_avg_ratio: f64::INFINITY,
                max_tail_ratio: f64::INFINITY,
                max_regression_fraction: 1.0,
            };
        }
        spec
    }

    /// The only test that touches the process-global recorder and pool size.
    #[test]
    fn shrunken_workloads_fingerprint_alike_traced_untraced_and_at_one_and_two_threads() {
        let sorted = |table: &[Metric]| {
            let mut names: Vec<&str> = table.iter().map(|m| m.0).collect();
            names.sort_unstable();
            names
        };
        for w in Workload::ALL {
            let spec = shrunken(w);
            let timed = mcsim_par::with_threads(1, || run_timed(&spec, 0.0)).expect("timed run");
            let prev_gate = mcsim_par::set_min_parallel_work(1);
            let traced = mcsim_par::with_threads(2, || run_traced(&spec));
            mcsim_par::set_min_parallel_work(prev_gate);
            let traced = traced.expect("traced run");

            assert!(timed.errors.is_empty(), "{}: {:?}", w.name(), timed.errors);
            assert!(
                traced.errors.is_empty(),
                "{}: {:?}",
                w.name(),
                traced.errors
            );
            assert_eq!(timed.fingerprint, traced.fingerprint, "{}", w.name());
            assert!(timed.attempted > 0 && timed.failed == 0, "{}", w.name());

            let keys = |o: &Outcome| o.metrics.keys().copied().collect::<Vec<_>>();
            assert_eq!(keys(&timed), sorted(&END_TO_END));
            assert_eq!(keys(&traced), sorted(&PER_LAYER));
            assert!(
                timed.metrics.values().all(|&v| v > 0.0),
                "{:?}",
                timed.metrics
            );
            assert!(traced.metrics.values().all(|v| v.is_finite()));
        }
    }
}
