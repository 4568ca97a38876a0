//! The four workloads: what each sets up, what one rep runs through the
//! public entry points, and the fingerprint that checks its output.
//!
//! Every layer is timed from outside, around the call into it, by a
//! [`Clock`]; the values land under the per-layer metric names.

use crate::measure::{calibration_block, cpu_seconds, ratio, Fnv};
use loam_bench::scale::{scaled_eval_profile, scaled_pipeline_config, Scale};
use loam_core::gate::{self, GateConfig};
use loam_core::inference::{guarded_choice_traced, select_plan, EnvStrategy, DEFAULT_MARGIN};
use loam_core::pipeline::{
    evaluate_candidates, evaluate_model, evaluate_native, prepare_project, train_loam,
    EvaluatedQuery, PipelineConfig, PreparedProject,
};
use loam_core::{AdaptiveCostPredictor, LoamError, TrainConfig};
use mcsim_catalog::{ProjectId, ProjectProfile};
use mcsim_serve::{ArrivalProfile, ServeConfig, ServeSession};
use std::collections::BTreeMap;
use std::time::Instant;

/// Named measurements of one set-up or rep, keyed by metric name.
pub type Values = BTreeMap<&'static str, f64>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ProjectP1,
    CollectFull,
    ServeRecurring,
    ServeRescore,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ProjectP1,
        Workload::CollectFull,
        Workload::ServeRecurring,
        Workload::ServeRescore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ProjectP1 => "project_p1",
            Workload::CollectFull => "collect_full",
            Workload::ServeRecurring => "serve_recurring",
            Workload::ServeRescore => "serve_rescore",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything one workload runs. [`Spec::new`] gives the benchmark size;
/// tests shrink the fields.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: Workload,
    /// Projects prepared in every rep (collect_full) or once in set-up
    /// (project_p1; the serve workloads use the first).
    pub projects: Vec<(ProjectProfile, ProjectId)>,
    pub pipeline: PipelineConfig,
    /// Serving traffic (serve workloads only). Set-up fills in the strategy.
    pub serve: Option<ServeConfig>,
}

fn eval_project(n: usize, scale: Scale) -> (ProjectProfile, ProjectId) {
    (scaled_eval_profile(n, scale), ProjectId(n as u32))
}

impl Spec {
    /// The workload at benchmark size. `seed` replaces the pipeline seed of
    /// the offline workloads and the traffic seed of the serve workloads;
    /// `None` keeps the defaults. The serve context always trains with the
    /// default pipeline seed, so its deployment verdict cannot flip.
    pub fn new(workload: Workload, seed: Option<u64>) -> Spec {
        let offline = |scale: Scale, projects: Vec<usize>| Spec {
            workload,
            projects: projects
                .into_iter()
                .map(|n| eval_project(n, scale))
                .collect(),
            pipeline: PipelineConfig {
                seed: seed.unwrap_or(PipelineConfig::default().seed),
                ..scaled_pipeline_config(scale)
            },
            serve: None,
        };
        match workload {
            Workload::ProjectP1 => {
                // The small scale's 900 samples, but 2 of its 24 epochs, so
                // a run holds several reps with host-speed samples between.
                let mut spec = offline(Scale::Small, vec![1]);
                spec.pipeline.train_cfg.epochs = 2;
                spec
            }
            Workload::CollectFull => offline(Scale::Full, (1..=5).collect()),
            Workload::ServeRecurring | Workload::ServeRescore => {
                let recurring = workload == Workload::ServeRecurring;
                let serve = ServeConfig::builder()
                    .arrival(ArrivalProfile::Poisson { rate_qps: 64.0 })
                    .tenants(8)
                    .machines(8)
                    .warmup_ticks(2)
                    .batch_size(32)
                    .requests(if recurring { 25_000 } else { 10_000 })
                    .decision_cache(recurring)
                    .fault_scale(if recurring { 1.0 } else { 0.0 })
                    .seed(seed.unwrap_or(ServeConfig::default().seed))
                    .build()
                    .expect("the serve workload configuration is valid");
                Spec {
                    workload,
                    projects: vec![eval_project(1, Scale::Small)],
                    // Checked to deploy through the gate: smaller contexts
                    // hold it, and then no request is ever scored.
                    pipeline: PipelineConfig {
                        train_days: 10,
                        test_days: 2,
                        max_train: 300,
                        max_test: 60,
                        eval_rounds: 3,
                        da_queries: 12,
                        train_cfg: TrainConfig {
                            epochs: 12,
                            ..TrainConfig::default()
                        },
                        ..PipelineConfig::default()
                    },
                    serve: Some(serve),
                }
            }
        }
    }

    /// The sizes that define the workload, for the provenance block.
    pub fn sizes(&self) -> String {
        let p = &self.pipeline;
        let mut s = format!(
            "projects={} max_train={} max_test={} eval_rounds={} da_queries={} epochs={}",
            self.projects.len(),
            p.max_train,
            p.max_test,
            p.eval_rounds,
            p.da_queries,
            p.train_cfg.epochs
        );
        if let Some(c) = &self.serve {
            s += &format!(
                " requests={} batch={} tenants={} machines={} fault_scale={} decision_cache={}",
                c.requests, c.batch_size, c.tenants, c.machines, c.fault_scale, c.decision_cache
            );
        }
        s
    }
}

/// What set-up leaves for the reps.
pub enum Ctx {
    /// collect_full prepares its projects inside every rep.
    Collect,
    /// project_p1 trains on the history prepared in set-up.
    Project(Vec<PreparedProject>),
    Serve(Box<ServeCtx>),
}

/// The trained model and template library every serve rep replays.
pub struct ServeCtx {
    prepared: PreparedProject,
    predictor: AdaptiveCostPredictor,
    templates: Vec<EvaluatedQuery>,
    cfg: ServeConfig,
}

/// Times layer calls from outside the program. After each call it also
/// times one calibration block, so the host's speed is sampled next to
/// every stretch of work.
#[derive(Default)]
pub struct Clock {
    /// Layer call timers and facts read off the outputs, by metric name.
    pub values: Values,
    /// Wall seconds inside timed calls.
    pub busy_s: f64,
    /// Process CPU seconds inside timed calls, all threads.
    pub cpu_s: f64,
    /// Seconds of each calibration block, as [`calibration_block`] reads it.
    pub blocks: Vec<f64>,
    /// Wall seconds the calibration blocks took, which set-up time leaves
    /// out.
    pub blocks_wall_s: f64,
}

impl Clock {
    /// Times `f` into `values[name]`, then takes a calibration block.
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (t, cpu0) = (Instant::now(), cpu_seconds());
        let r = f();
        let wall = t.elapsed().as_secs_f64();
        self.add(name, wall);
        self.busy_s += wall;
        self.cpu_s += cpu_seconds() - cpu0;
        let t = Instant::now();
        self.blocks.push(calibration_block());
        self.blocks_wall_s += t.elapsed().as_secs_f64();
        r
    }

    fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_default() += v;
    }
}

/// One measured rep. Its wall time is `clock.busy_s`.
pub struct Rep {
    /// Operations attempted: test queries evaluated, or requests served.
    pub items: u64,
    /// Operations that failed or were shed.
    pub failed: u64,
    pub fingerprint: u64,
    pub clock: Clock,
}

/// Trains through `train_loam`, recording its wall and CPU time and the
/// samples it processed.
fn train(
    clock: &mut Clock,
    prepared: &PreparedProject,
    cfg: &PipelineConfig,
) -> Result<AdaptiveCostPredictor, LoamError> {
    let cpu0 = clock.cpu_s;
    let predictor = clock.time("pipeline.train_s", || train_loam(prepared, cfg))?;
    clock.add("train.cpu_s", clock.cpu_s - cpu0);
    clock.add(
        "train.samples",
        (prepared.train_samples.len() * cfg.train_cfg.epochs) as f64,
    );
    Ok(predictor)
}

fn prepare(
    clock: &mut Clock,
    (profile, id): &(ProjectProfile, ProjectId),
    cfg: &PipelineConfig,
) -> Result<PreparedProject, LoamError> {
    clock.time("pipeline.prepare_s", || prepare_project(profile, *id, cfg))
}

/// Builds what the reps need: the projects' query history for project_p1,
/// the trained serving context for the serve workloads. collect_full only
/// generates its projects here, which checks the inputs; its reps build
/// the history.
pub fn setup(spec: &Spec, clock: &mut Clock) -> Result<Ctx, LoamError> {
    let cfg = &spec.pipeline;
    cfg.validate()?;
    let Some(serve) = &spec.serve else {
        if spec.workload == Workload::ProjectP1 {
            let prepared = spec.projects.iter().map(|p| prepare(clock, p, cfg));
            return Ok(Ctx::Project(prepared.collect::<Result<_, _>>()?));
        }
        for (profile, id) in &spec.projects {
            if profile.generate(*id).templates.is_empty() {
                return Err(LoamError::EmptyWorkload(format!(
                    "project {} has no query templates",
                    id.0
                )));
            }
        }
        return Ok(Ctx::Collect);
    };
    let prepared = prepare(clock, &spec.projects[0], cfg)?;
    let predictor = train(clock, &prepared, cfg)?;
    let templates = clock.time("pipeline.evaluate_s", || {
        evaluate_candidates(&prepared, cfg)
    })?;
    let cfg = ServeConfig {
        strategy: EnvStrategy::MeanHistorical(prepared.mean_env),
        ..serve.clone()
    };
    Ok(Ctx::Serve(Box::new(ServeCtx {
        prepared,
        predictor,
        templates,
        cfg,
    })))
}

/// Runs one rep of the workload.
pub fn rep(spec: &Spec, ctx: &Ctx) -> Result<Rep, String> {
    let result = match ctx {
        Ctx::Serve(s) => serve_rep(s),
        Ctx::Project(prepared) => project_rep(&spec.pipeline, prepared),
        Ctx::Collect => collect_rep(spec),
    };
    result.map_err(|e| format!("{}: {e}", spec.workload.name()))
}

/// train → evaluate → score → gate for each prepared project.
fn project_rep(cfg: &PipelineConfig, projects: &[PreparedProject]) -> Result<Rep, LoamError> {
    let mut clock = Clock::default();
    let mut fp = Fnv::new();
    let mut items = 0;
    let (mut steered, mut loam_cost, mut native_cost) = (0, 0.0, 0.0);
    for prepared in projects {
        let predictor = train(&mut clock, prepared, cfg)?;
        let evaluated = clock.time("pipeline.evaluate_s", || evaluate_candidates(prepared, cfg))?;
        let strategy = EnvStrategy::MeanHistorical(prepared.mean_env);
        let (loam, native) = clock.time("predictor.score_s", || {
            Ok::<_, LoamError>((
                evaluate_model(&predictor, &strategy, &evaluated)?,
                evaluate_native(&evaluated)?,
            ))
        })?;
        let verdict = clock.time("gate.validate_s", || {
            gate::validate(&predictor, &strategy, &evaluated, &GateConfig::default())
        });
        items += evaluated.len() as u64;

        // Every candidate's predicted cost, the guarded choice per query,
        // and the verdict. Re-scoring stays off the recorder so a traced
        // rep's counters describe only the pipeline.
        without_recorder(|| {
            for eq in &evaluated {
                let refs: Vec<_> = eq.plans.iter().collect();
                let (best, costs) = select_plan(&predictor, &refs, &strategy);
                let choice = guarded_choice_traced(
                    &refs,
                    &costs,
                    best,
                    eq.default_idx,
                    DEFAULT_MARGIN,
                    None,
                    eq.query_id,
                );
                costs.iter().for_each(|&c| fp.eat_f64(c));
                fp.eat(choice as u64);
                steered += usize::from(choice != eq.default_idx);
            }
        });
        fp.eat_f64(loam.avg_cost);
        fp.eat(u64::from(verdict.deploy()));
        fp.eat_f64(verdict.avg_ratio);
        loam_cost += loam.avg_cost;
        native_cost += native.avg_cost;
    }
    clock.add("select.steered_frac", ratio(steered as f64, items as f64));
    clock.add("select.cost_ratio", ratio(loam_cost, native_cost));
    Ok(Rep {
        items,
        failed: 0,
        fingerprint: fp.finish(),
        clock,
    })
}

/// The data-collection half: history, exploration and flighting replay.
fn collect_rep(spec: &Spec) -> Result<Rep, LoamError> {
    let cfg = &spec.pipeline;
    let mut clock = Clock::default();
    let mut fp = Fnv::new();
    let mut items = 0;
    for project in &spec.projects {
        let prepared = prepare(&mut clock, project, cfg)?;
        let evaluated = clock.time("pipeline.evaluate_s", || {
            evaluate_candidates(&prepared, cfg)
        })?;
        items += evaluated.len() as u64;

        fp.eat(prepared.repo.len() as u64);
        fp.eat(prepared.train_samples.len() as u64);
        fp.eat(prepared.da_candidates.len() as u64);
        fp.eat(evaluated.len() as u64);
        for eq in &evaluated {
            fp.eat(eq.query_id);
            fp.eat(eq.default_idx as u64);
            eq.costs.iter().flatten().for_each(|&c| fp.eat_f64(c));
        }
    }
    Ok(Rep {
        items,
        failed: 0,
        fingerprint: fp.finish(),
        clock,
    })
}

/// One pass over the arrival trace with a fresh session (fresh caches).
fn serve_rep(ctx: &ServeCtx) -> Result<Rep, LoamError> {
    let mut clock = Clock::default();
    let report = clock.time("serve.run_s", || {
        ServeSession::new(ctx.cfg.clone())?.run(
            &ctx.predictor,
            &ctx.templates,
            &ctx.prepared.project.catalog,
            None,
        )
    })?;
    if !report.gate_deployed {
        return Err(LoamError::InvalidConfig(
            "the deployment gate held the model, so no request was scored".into(),
        ));
    }
    if report.completed + report.failed + report.shed != report.requests {
        return Err(LoamError::InvalidConfig(format!(
            "{} completed + {} failed + {} shed != {} requests",
            report.completed, report.failed, report.shed, report.requests
        )));
    }
    let plans_scored = (report.feature_cache_hits + report.feature_cache_misses) as f64;
    let facts = [
        ("serve.batches", report.batches as f64),
        (
            "serve.batch_fill",
            ratio(
                report.admitted as f64,
                (report.batches * ctx.cfg.batch_size) as f64,
            ),
        ),
        ("serve.plans_scored", plans_scored),
        ("serve.feature_hit_rate", report.feature_hit_rate()),
        ("serve.decision_hit_rate", report.decision_hit_rate()),
        ("serve.qps", report.qps()),
        ("serve.latency_p50_ms", report.latency.p50() * 1e3),
        ("serve.latency_p99_ms", report.latency.p99() * 1e3),
        (
            "exec.wasted_frac",
            ratio(
                report.total_wasted_cost,
                report.total_cost + report.total_wasted_cost,
            ),
        ),
    ];
    clock.values.extend(facts);

    // The decision log (each request's choice and cost bits), then the
    // execution totals it does not hold: retries and wasted cost.
    let mut fp = Fnv::new();
    fp.eat(report.decision_digest());
    for n in [report.completed, report.failed, report.shed, report.batches] {
        fp.eat(n as u64);
    }
    fp.eat(u64::from(report.total_retries));
    fp.eat_f64(report.total_cost);
    fp.eat_f64(report.total_wasted_cost);
    Ok(Rep {
        items: report.requests as u64,
        failed: (report.failed + report.shed) as u64,
        fingerprint: fp.finish(),
        clock,
    })
}

/// Runs `f` with the global recorder removed, then puts it back.
fn without_recorder<R>(f: impl FnOnce() -> R) -> R {
    let prev = mcsim_obs::uninstall();
    let r = f();
    if let Some(rec) = prev {
        mcsim_obs::install(rec);
    }
    r
}
