//! `loamctl` — a small CLI over the LOAM reproduction.
//!
//! ```text
//! loamctl inspect  --project <1..5> [--scale <0..1>]     project statistics
//! loamctl optimize --project <1..5> [--query <i>] [--all-knobs]
//! loamctl train    --project <1..5> --out <model.json> [--scale <0..1>]
//! loamctl serve    --project <1..5> --model <model.json> [--queries <n>]
//!                  [--requests <n>] [--batch <n>] [--rate <qps>]
//! ```
//!
//! `train` runs the full offline pipeline (history → adaptive training →
//! flighting validation gate) and refuses to write a model that fails the
//! gate. `serve` loads a saved model and drives seeded open-loop traffic
//! over a day's query templates through a `ServeSession` (batched
//! inference, feature + decision caches, graceful degradation).

use loam::prelude::*;
use loam_core::gate::{validate as validate_gate, GateConfig};
use loam_core::persist::{load_predictor, save_predictor};
use std::path::PathBuf;

fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn scaled_profile(n: usize, scale: f64) -> ProjectProfile {
    let mut prof = ProjectProfile::evaluation_project(n).unwrap_or_else(|| {
        eprintln!("project must be 1..=5");
        std::process::exit(2);
    });
    if scale < 1.0 {
        let shrink = scale.sqrt().max(0.2);
        prof.n_tables = ((prof.n_tables as f64 * shrink) as usize).max(15);
        prof.n_columns = ((prof.n_columns as f64 * shrink) as usize).max(100);
        prof.n_templates = ((prof.n_templates as f64 * shrink) as usize).max(10);
        prof.n_query_day0 = (prof.n_query_day0 * scale).max(8.0);
    }
    prof
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let project_n: usize = arg_value(&args, "--project")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let scale: f64 = arg_value(&args, "--scale")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.08);

    match cmd {
        "inspect" => inspect(project_n, scale),
        "optimize" => optimize(project_n, scale, &args),
        "train" => train_cmd(project_n, scale, &args),
        "serve" => serve(project_n, scale, &args),
        _ => {
            eprintln!(
                "usage: loamctl <inspect|optimize|train|serve> --project <1..5> [--scale <0..1>] \
                 [--query <i>] [--all-knobs] [--out <file>] [--model <file>] [--queries <n>]"
            );
            std::process::exit(2);
        }
    }
}

fn inspect(project_n: usize, scale: f64) {
    let project = scaled_profile(project_n, scale).generate(ProjectId(project_n as u32));
    println!("{} ({})", project.profile.name, project.id);
    println!("  tables:    {}", project.catalog.table_count());
    println!("  columns:   {}", project.catalog.column_count());
    println!("  templates: {}", project.templates.len());
    println!("  queries/day: {:.0}", project.profile.n_query_day0);
    let stats = mcsim_catalog::stats::summarize_project(&project, 0, 3);
    println!(
        "  avg joined tables: {:.1} (max {})",
        stats.avg_joined_tables, stats.max_joined_tables
    );
    println!(
        "  aggregating: {:.0}%, filtered: {:.0}%, distinct templates: {}, top-template share: {:.0}%",
        stats.aggregation_fraction * 100.0,
        stats.filtered_fraction * 100.0,
        stats.distinct_templates,
        stats.top_template_share * 100.0
    );
    let cfg = FilterConfig::scaled(scale * 0.05);
    let report = evaluate_filter(&project, 0, 5, &cfg, None);
    println!(
        "  filter: n_query {:.0}/day, growth {:.3}, stable {:.2} → {}",
        report.n_query,
        report.query_inc_ratio,
        report.stable_table_ratio,
        if report.passes() { "PASS" } else { "FILTERED" }
    );
}

fn optimize(project_n: usize, scale: f64, args: &[String]) {
    let project = scaled_profile(project_n, scale).generate(ProjectId(project_n as u32));
    let idx: usize = arg_value(args, "--query")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let queries = project.workload_for_day(0);
    let Some(query) = queries.get(idx) else {
        eprintln!(
            "query index {idx} out of range (day 0 has {})",
            queries.len()
        );
        std::process::exit(2);
    };
    let optimizer = NativeOptimizer::new(&project.catalog);
    if args.iter().any(|a| a == "--all-knobs") {
        let explorer = PlanExplorer::default();
        let set = explorer.explore(&optimizer, query);
        println!("{} candidates (default = #{})", set.len(), set.default_idx);
        for (i, c) in set.candidates.iter().enumerate() {
            println!(
                "\n# candidate {i} (rough cost {:.0}, knobs {:?}, card×{})",
                c.rough_cost, c.knobs.flags, c.knobs.card_scale
            );
            print!("{}", mcsim_plan::display::render(&c.plan));
        }
    } else {
        let plan = optimizer.optimize(query, &Knobs::default());
        print!("{}", mcsim_plan::display::render(&plan));
    }
}

fn train_cmd(project_n: usize, scale: f64, args: &[String]) {
    let out = PathBuf::from(
        arg_value(args, "--out").unwrap_or_else(|| format!("loam-p{project_n}.json")),
    );
    let profile = scaled_profile(project_n, scale);
    let cfg = PipelineConfig::reduced(scale);
    eprintln!("building history ({} days)...", cfg.train_days);
    let fail = |e: LoamError| -> ! {
        eprintln!("pipeline error: {e}");
        std::process::exit(1);
    };
    let prepared =
        prepare_project(&profile, ProjectId(project_n as u32), &cfg).unwrap_or_else(|e| fail(e));
    eprintln!(
        "training on {} executions ({} DA candidates)...",
        prepared.train_samples.len(),
        prepared.da_candidates.len()
    );
    let model = train_loam(&prepared, &cfg).unwrap_or_else(|e| fail(e));
    eprintln!("validating in the flighting environment...");
    let evaluated = evaluate_candidates(&prepared, &cfg).unwrap_or_else(|e| fail(e));
    let strategy = EnvStrategy::MeanHistorical(prepared.mean_env);
    let report = validate_gate(&model, &strategy, &evaluated, &GateConfig::default());
    println!(
        "gate: avg ratio {:.3}, worst tail {:.2}, regressions {:.0}% → {}",
        report.avg_ratio,
        report.worst_tail_ratio,
        report.regression_fraction * 100.0,
        if report.deploy() { "DEPLOY" } else { "REJECT" }
    );
    if report.deploy() {
        save_predictor(&model, &out).unwrap_or_else(|e| {
            eprintln!("failed to save model: {e}");
            std::process::exit(1);
        });
        println!("model written to {}", out.display());
    } else {
        eprintln!("model rejected by the deployment gate; not saving");
        std::process::exit(1);
    }
}

fn serve(project_n: usize, scale: f64, args: &[String]) {
    let model_path = PathBuf::from(
        arg_value(args, "--model").unwrap_or_else(|| format!("loam-p{project_n}.json")),
    );
    let n_queries: usize = arg_value(args, "--queries")
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let requests: usize = arg_value(args, "--requests")
        .and_then(|s| s.parse().ok())
        .unwrap_or(128);
    let batch: usize = arg_value(args, "--batch")
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let rate: f64 = arg_value(args, "--rate")
        .and_then(|s| s.parse().ok())
        .unwrap_or(64.0);
    let model = load_predictor(&model_path).unwrap_or_else(|e| {
        eprintln!("cannot load model {}: {e}", model_path.display());
        std::process::exit(1);
    });
    let project = scaled_profile(project_n, scale).generate(ProjectId(project_n as u32));
    let optimizer = NativeOptimizer::new(&project.catalog);
    let explorer = PlanExplorer::default();
    let mut flighting = Flighting::new(99, project.profile.env_noise_sigma);

    // The template library: candidate sets for "online" queries from a
    // held-out day, with replayed costs so the deployment gate has
    // something to validate against.
    let queries = project.workload_for_day(26);
    let templates: Vec<EvaluatedQuery> = queries
        .iter()
        .take(n_queries)
        .map(|q| {
            let set = explorer.explore(&optimizer, q);
            let plans: Vec<PlanTree> = set.candidates.iter().map(|c| c.plan.clone()).collect();
            let refs: Vec<&PlanTree> = plans.iter().collect();
            let costs = flighting.replay_synchronized(&refs, &project.catalog, 3);
            EvaluatedQuery {
                query_id: q.id,
                plans,
                costs,
                default_idx: set.default_idx,
            }
        })
        .collect();
    if templates.is_empty() {
        eprintln!("the held-out day has no queries at this scale");
        std::process::exit(1);
    }

    let strategy = EnvStrategy::MeanHistorical(EnvMetrics::new(0.55, 0.05, 8.0, 0.55));
    let cfg = ServeConfig::builder()
        .arrival(ArrivalProfile::Poisson { rate_qps: rate })
        .requests(requests)
        .batch_size(batch)
        .strategy(strategy)
        .build()
        .unwrap_or_else(|e| {
            eprintln!("invalid serving configuration: {e}");
            std::process::exit(2);
        });
    let session = ServeSession::new(cfg).unwrap_or_else(|e| {
        eprintln!("invalid serving configuration: {e}");
        std::process::exit(2);
    });
    let report = session
        .run(&model, &templates, &project.catalog, None)
        .unwrap_or_else(|e| {
            eprintln!("serving failed: {e}");
            std::process::exit(1);
        });

    println!(
        "gate: {} | {} requests over {} templates ({} tenants)",
        if report.gate_deployed {
            "DEPLOY"
        } else {
            "HOLD (serving defaults)"
        },
        report.requests,
        templates.len(),
        session.config().tenants,
    );
    println!(
        "throughput: {:.0} qps in {} batches; latency p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms",
        report.qps(),
        report.batches,
        report.latency.p50() * 1e3,
        report.latency.p95() * 1e3,
        report.latency.p99() * 1e3,
    );
    println!(
        "outcomes: {} completed, {} failed, {} shed ({:.1}%)",
        report.completed,
        report.failed,
        report.shed,
        report.shed_rate() * 100.0
    );
    println!(
        "steering: {} steered, {} kept default, {} degraded",
        report.resolution_count(Resolution::Steered),
        report.resolution_count(Resolution::Default),
        report
            .decision_log
            .iter()
            .filter(|d| matches!(
                d.outcome,
                RequestOutcome::Served { resolution, .. } if resolution.is_degraded()
            ))
            .count(),
    );
    println!(
        "caches: feature {:.0}% hit, decision {:.0}% hit",
        report.feature_hit_rate() * 100.0,
        report.decision_hit_rate() * 100.0
    );
}
