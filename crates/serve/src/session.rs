//! The serving session: configuration, admission control, batched
//! inference, and the deterministic decision log.
//!
//! [`ServeSession`] is the unified front end: one validated
//! [`ServeConfig`] describes the traffic (arrival profile, tenants,
//! request count), the batching and caching policy, and the robustness
//! knobs (margin, fallback ladder, deployment gate), and
//! [`ServeSession::run`] drives the whole optimize → gate → execute path
//! over a template library.
//!
//! ## Determinism
//!
//! The decision log of a run is a pure function of the seed and the
//! configuration's *semantic* knobs: arrivals are drawn up front in
//! virtual time, shedding is decided by a deterministic backlog
//! simulation, batched inference is bit-identical to single-plan scoring,
//! and every request executes on its own executor seeded from the request
//! sequence number — with its cluster clock advanced to the arrival's
//! virtual time, so each request sees the diurnal phase and fault
//! timeline of its own moment. Thread count, wall-clock speed and tracing
//! cannot change any [`DecisionRecord`].
//!
//! ## The fallback ladder
//!
//! Steering is only shippable if every failure degrades to the native
//! optimizer's default plan instead of taking the query down. Every
//! admitted request therefore ends on one [`Resolution`] rung, from least
//! to most degraded:
//!
//! 1. **Steered** or **Default** — the margin guard picks between the
//!    cheapest candidate and the default plan, and the pick executes
//!    (possibly after fault-injected retries).
//! 2. **Predictor fallback** — a candidate scored non-finite: the default
//!    plan is served.
//! 3. **Gate fallback** — the deployment gate held the model: every
//!    request serves its default plan unscored.
//! 4. **Execution fallback** — the chosen plan exhausted its retry budget
//!    or deadline: the default plan is replayed.
//! 5. **Failed** — the default plan failed too: the request counts
//!    against the completion rate, with cost 0.
//!
//! Each degradation bumps a `loam.fallback.*` counter and leaves a
//! [`Decision::Fallback`] record naming the query in the trace. With
//! [`ServeConfig::fallback_enabled`] off, gate holds are ignored and a
//! failed execution is terminal.

use crate::arrival::{generate_arrivals, Arrival, ArrivalProfile};
use crate::cache::{CachedDecision, DecisionCache};
use loam_core::featurize::FeatureCache;
use loam_core::gate::{validate_traced, GateConfig};
use loam_core::inference::{guarded_choice_traced, EnvStrategy, DEFAULT_MARGIN};
use loam_core::pipeline::EvaluatedQuery;
use loam_core::predictor::baselines::CostModel;
use loam_core::LoamError;
use mcsim_catalog::workmodel::WorkParams;
use mcsim_catalog::Catalog;
use mcsim_exec::{ChaosScenario, ClusterConfig, ExecPlan, Executor};
use mcsim_obs::trace::{Decision, Fallback, TraceContext};
use mcsim_obs::Histogram;
use mcsim_plan::{PlanSignature, PlanTree};
use std::collections::HashMap;
use std::ops::Range;

/// Admission-control policy applied to the arrival trace.
#[derive(Debug, Clone, PartialEq)]
pub enum ShedPolicy {
    /// Admit everything.
    None,
    /// Deterministic queue bound: a virtual backlog drains at `drain_qps`;
    /// an arrival that finds the backlog at `capacity` is shed. Because
    /// the backlog is simulated in virtual time over the arrival trace,
    /// the shed set is independent of threads and wall-clock speed.
    QueueBound {
        /// Backlog size at which arrivals are shed (> 0).
        capacity: usize,
        /// Virtual drain rate in queries per second (> 0).
        drain_qps: f64,
    },
}

/// Validated serving configuration; construct via [`ServeConfig::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Open-loop arrival process.
    pub arrival: ArrivalProfile,
    /// Number of tenants the trace is drawn over (≥ 1).
    pub tenants: usize,
    /// Length of the arrival trace (≥ 1).
    pub requests: usize,
    /// Maximum requests scored per batched forward (≥ 1); 1 reproduces
    /// the single-query baseline.
    pub batch_size: usize,
    /// Admission control.
    pub shed: ShedPolicy,
    /// Cache featurizations across requests.
    pub feature_cache: bool,
    /// Cache guarded decisions per candidate-set signature.
    pub decision_cache: bool,
    /// Margin of the guarded selection, in `[0, 1)`: a margin of 1 or more
    /// never accepts a steered plan (costs are positive), and a negative
    /// one makes the guard vacuous.
    pub margin: f64,
    /// Arm the graceful-degradation ladder.
    pub fallback_enabled: bool,
    /// Deployment-gate thresholds.
    pub gate: GateConfig,
    /// Environment strategy for inference.
    pub strategy: EnvStrategy,
    /// Fault-injection scale of the per-request executors (0 = fault-free).
    pub fault_scale: f64,
    /// Machines in each per-request execution cluster (≥ 1).
    pub machines: usize,
    /// Cluster warm-up ticks before each request executes (on top of the
    /// arrival's own virtual-time offset), at most 2^32.
    pub warmup_ticks: u64,
    /// Master seed: arrivals, shedding, and executors derive from it.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            arrival: ArrivalProfile::Poisson { rate_qps: 64.0 },
            tenants: 8,
            requests: 256,
            batch_size: 32,
            shed: ShedPolicy::None,
            feature_cache: true,
            decision_cache: true,
            margin: DEFAULT_MARGIN,
            fallback_enabled: true,
            gate: GateConfig::default(),
            strategy: EnvStrategy::NoEnv,
            fault_scale: 0.0,
            machines: 24,
            warmup_ticks: 24,
            seed: 0x5e12_7e55,
        }
    }
}

impl ServeConfig {
    /// Starts a builder pre-loaded with the defaults.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: ServeConfig::default(),
        }
    }

    fn validate(&self) -> Result<(), LoamError> {
        let bad = |msg: String| Err(LoamError::InvalidConfig(msg));
        if let Err(e) = self.arrival.validate() {
            return bad(e);
        }
        if self.tenants == 0 {
            return bad("tenants must be ≥ 1".into());
        }
        if self.requests == 0 {
            return bad("requests must be ≥ 1".into());
        }
        if self.batch_size == 0 {
            return bad("batch_size must be ≥ 1".into());
        }
        if self.machines == 0 {
            return bad("machines must be ≥ 1".into());
        }
        if !self.fault_scale.is_finite() || self.fault_scale < 0.0 {
            return bad(format!("fault_scale must be ≥ 0, got {}", self.fault_scale));
        }
        if !(0.0..1.0).contains(&self.margin) {
            return bad(format!(
                "guard margin must be in [0, 1), got {}",
                self.margin
            ));
        }
        if self.warmup_ticks > MAX_START_TICK {
            return bad(format!(
                "warmup_ticks must be ≤ {MAX_START_TICK}, got {}",
                self.warmup_ticks
            ));
        }
        if let ShedPolicy::QueueBound {
            capacity,
            drain_qps,
        } = &self.shed
        {
            if *capacity == 0 {
                return bad("shed capacity must be ≥ 1".into());
            }
            if !drain_qps.is_finite() || *drain_qps <= 0.0 {
                return bad(format!("drain_qps must be positive, got {drain_qps}"));
            }
        }
        Ok(())
    }
}

/// Builder for [`ServeConfig`]; [`build`](Self::build) validates every
/// knob and names the offending one on failure.
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl ServeConfigBuilder {
    /// Open-loop arrival process.
    pub fn arrival(mut self, p: ArrivalProfile) -> Self {
        self.cfg.arrival = p;
        self
    }
    /// Number of tenants.
    pub fn tenants(mut self, n: usize) -> Self {
        self.cfg.tenants = n;
        self
    }
    /// Length of the arrival trace.
    pub fn requests(mut self, n: usize) -> Self {
        self.cfg.requests = n;
        self
    }
    /// Batched-inference width (1 = single-query baseline).
    pub fn batch_size(mut self, n: usize) -> Self {
        self.cfg.batch_size = n;
        self
    }
    /// Admission-control policy.
    pub fn shed(mut self, p: ShedPolicy) -> Self {
        self.cfg.shed = p;
        self
    }
    /// Toggle the featurization cache.
    pub fn feature_cache(mut self, on: bool) -> Self {
        self.cfg.feature_cache = on;
        self
    }
    /// Toggle the plan-signature decision cache.
    pub fn decision_cache(mut self, on: bool) -> Self {
        self.cfg.decision_cache = on;
        self
    }
    /// Margin of the guarded selection.
    pub fn margin(mut self, m: f64) -> Self {
        self.cfg.margin = m;
        self
    }
    /// Arm or disarm the fallback ladder.
    pub fn fallback_enabled(mut self, on: bool) -> Self {
        self.cfg.fallback_enabled = on;
        self
    }
    /// Deployment-gate thresholds.
    pub fn gate(mut self, g: GateConfig) -> Self {
        self.cfg.gate = g;
        self
    }
    /// Environment strategy.
    pub fn strategy(mut self, s: EnvStrategy) -> Self {
        self.cfg.strategy = s;
        self
    }
    /// Fault-injection scale of the per-request executors.
    pub fn fault_scale(mut self, f: f64) -> Self {
        self.cfg.fault_scale = f;
        self
    }
    /// Machines per per-request execution cluster.
    pub fn machines(mut self, n: usize) -> Self {
        self.cfg.machines = n;
        self
    }
    /// Warm-up ticks per request executor.
    pub fn warmup_ticks(mut self, t: u64) -> Self {
        self.cfg.warmup_ticks = t;
        self
    }
    /// Master seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.cfg.seed = s;
        self
    }
    /// Validates and returns the configuration.
    pub fn build(self) -> Result<ServeConfig, LoamError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// The rung of the fallback ladder (see the module docs) an admitted
/// request ended on. [`ServeReport::decision_digest`] hashes a rung as its
/// discriminant, so the variant order is part of every pinned digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// The steered (non-default) plan executed successfully.
    Steered,
    /// The model or margin guard itself preferred the default plan — the
    /// normal conservative outcome, not a degradation.
    Default,
    /// Non-finite prediction ⇒ default plan.
    PredictorFallback,
    /// Deployment gate held the model ⇒ default plan.
    GateFallback,
    /// Steered execution failed ⇒ default plan replayed.
    ExecFallback,
    /// Both steered and default execution failed.
    Failed,
}

impl Resolution {
    /// The rung a plan selection reaches before execution: a misbehaving
    /// predictor ⇒ [`PredictorFallback`](Resolution::PredictorFallback),
    /// otherwise [`Default`](Resolution::Default) when `choice` is the
    /// default plan and [`Steered`](Resolution::Steered) when it is not.
    fn of_selection(choice: usize, default_idx: usize, predictor_failed: bool) -> Resolution {
        if predictor_failed {
            Resolution::PredictorFallback
        } else if choice == default_idx {
            Resolution::Default
        } else {
            Resolution::Steered
        }
    }

    /// True for the degraded rungs of the ladder (everything below a clean
    /// steered/default serve).
    pub fn is_degraded(&self) -> bool {
        matches!(
            self,
            Resolution::PredictorFallback
                | Resolution::GateFallback
                | Resolution::ExecFallback
                | Resolution::Failed
        )
    }
}

/// How one arrival ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Admission control dropped the request before selection.
    Shed,
    /// The request was admitted and ran the full ladder.
    Served {
        /// Chosen candidate index.
        choice: usize,
        /// Final rung of the ladder.
        resolution: Resolution,
        /// Bit pattern of the predicted cost of the chosen candidate
        /// (`f64::to_bits`; 0 when the request skipped scoring, e.g. under
        /// a gate hold). Stored as bits so records are `Eq` and the
        /// determinism contract is exact.
        predicted_bits: u64,
        /// Bit pattern of the observed CPU cost (0.0 for failed queries).
        cost_bits: u64,
        /// Whether the decision came from the decision cache.
        decision_cached: bool,
    },
}

/// One line of the deterministic decision log, in arrival order.
///
/// Equality is exact: two runs with the same seed and semantic
/// configuration produce `==` logs at any thread count. When comparing
/// *across* caching/batching configurations, compare everything except
/// `decision_cached` (see [`DecisionRecord::same_decision`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionRecord {
    /// Arrival sequence number.
    pub seq: u64,
    /// Submitting tenant.
    pub tenant: u32,
    /// Template index.
    pub template: u32,
    /// Query id of the template.
    pub query_id: u64,
    /// Outcome.
    pub outcome: RequestOutcome,
}

impl DecisionRecord {
    /// True when two records carry the same decision, ignoring whether it
    /// was served from the decision cache — the invariant that holds
    /// across batch sizes and cache configurations at equal seed.
    pub fn same_decision(&self, other: &DecisionRecord) -> bool {
        let strip = |r: &DecisionRecord| match r.outcome {
            RequestOutcome::Shed => None,
            RequestOutcome::Served {
                choice,
                resolution,
                predicted_bits,
                cost_bits,
                ..
            } => Some((choice, resolution, predicted_bits, cost_bits)),
        };
        (
            self.seq,
            self.tenant,
            self.template,
            self.query_id,
            strip(self),
        ) == (
            other.seq,
            other.tenant,
            other.template,
            other.query_id,
            strip(other),
        )
    }
}

/// Report of one [`ServeSession::run`].
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Whether the deployment gate deployed the model.
    pub gate_deployed: bool,
    /// Arrivals in the trace.
    pub requests: usize,
    /// Requests dropped by admission control.
    pub shed: usize,
    /// Requests admitted past admission control.
    pub admitted: usize,
    /// Admitted requests that completed (any rung above `Failed`).
    pub completed: usize,
    /// Admitted requests whose default plan failed too.
    pub failed: usize,
    /// Batched forwards issued.
    pub batches: usize,
    /// Wall-clock seconds of the serving loop (scoring + execution).
    pub wall_s: f64,
    /// Virtual timespan of the arrival trace in seconds.
    pub virtual_makespan_s: f64,
    /// Per-request latency (inference share + execution), seconds.
    pub latency: Histogram,
    /// Feature-cache hits during this run.
    pub feature_cache_hits: u64,
    /// Feature-cache misses during this run.
    pub feature_cache_misses: u64,
    /// Decision-cache hits during this run.
    pub decision_cache_hits: u64,
    /// Decision-cache misses during this run.
    pub decision_cache_misses: u64,
    /// Total observed CPU cost of completed requests.
    pub total_cost: f64,
    /// CPU cost burnt by killed attempts.
    pub total_wasted_cost: f64,
    /// Fault-injected retries survived.
    pub total_retries: u32,
    /// Speculative backups launched against stragglers.
    pub total_speculative: u32,
    /// One record per arrival, in sequence order.
    pub decision_log: Vec<DecisionRecord>,
}

impl ServeReport {
    /// A 64-bit FNV-1a digest of the decision log — the session's
    /// deterministic-replay fingerprint.
    ///
    /// Every field of every [`DecisionRecord`] (including exact cost and
    /// prediction bit patterns) feeds the hash in arrival order, so two
    /// runs digest equal **iff** they made identical decisions with
    /// identical outcomes. Because the log is a pure function of the seed
    /// and the semantic configuration, the digest is bit-stable across
    /// thread counts, reruns, and machines — which is what lets the sweep
    /// harness pin a whole scenario cell to one hex string.
    pub fn decision_digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        for r in &self.decision_log {
            eat(&r.seq.to_le_bytes());
            eat(&r.tenant.to_le_bytes());
            eat(&r.template.to_le_bytes());
            eat(&r.query_id.to_le_bytes());
            match r.outcome {
                RequestOutcome::Shed => eat(&[0u8]),
                RequestOutcome::Served {
                    choice,
                    resolution,
                    predicted_bits,
                    cost_bits,
                    decision_cached,
                } => {
                    eat(&[1u8, resolution as u8, u8::from(decision_cached)]);
                    eat(&(choice as u64).to_le_bytes());
                    eat(&predicted_bits.to_le_bytes());
                    eat(&cost_bits.to_le_bytes());
                }
            }
        }
        h
    }

    /// Completed requests per wall-clock second.
    pub fn qps(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.completed as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Fraction of arrivals dropped by admission control.
    pub fn shed_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.shed as f64 / self.requests as f64
        }
    }

    /// Fraction of admitted requests that completed.
    pub fn completion_rate(&self) -> f64 {
        if self.admitted == 0 {
            1.0
        } else {
            self.completed as f64 / self.admitted as f64
        }
    }

    /// Feature-cache hit rate of this run.
    pub fn feature_hit_rate(&self) -> f64 {
        rate(self.feature_cache_hits, self.feature_cache_misses)
    }

    /// Decision-cache hit rate of this run.
    pub fn decision_hit_rate(&self) -> f64 {
        rate(self.decision_cache_hits, self.decision_cache_misses)
    }

    /// Served requests that ended on the given rung.
    pub fn resolution_count(&self, r: Resolution) -> usize {
        self.decision_log
            .iter()
            .filter(
                |d| matches!(d.outcome, RequestOutcome::Served { resolution, .. } if resolution == r),
            )
            .count()
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// What the select phase of [`ServeSession::run`] leaves for the
/// execution phase about one admitted request.
struct Admitted<'a> {
    arrival: &'a Arrival,
    decision: CachedDecision,
    /// The rung selection reached (execution may degrade it further).
    base: Resolution,
    /// Whether the decision came from the decision cache.
    cached: bool,
    /// The request's share of its batch's inference wall time, seconds.
    infer_share: f64,
}

/// What the execution phase hands the fold about one admitted request: its
/// final rung and what the run that completed reported. A failed request
/// ran no plan to the end, so it counts no cost, waste, retries or
/// backups.
struct Executed {
    resolution: Resolution,
    cost: f64,
    wasted_cost: f64,
    retries: u32,
    speculative: u32,
}

/// The high-throughput serving session. See the module docs.
#[derive(Debug)]
pub struct ServeSession {
    cfg: ServeConfig,
    cluster: ClusterConfig,
    features: Option<FeatureCache>,
    decisions: Option<DecisionCache>,
}

/// Rough multiply-adds per plan-tree node of one forward of the default
/// predictor (both tree convolutions), in the units of the pool's work
/// gate. It only decides whether a batch is worth a fan-out, never what the
/// batch computes.
const NODE_WORK: usize = 1 << 16;

impl ServeSession {
    /// Builds a session from a validated configuration.
    pub fn new(cfg: ServeConfig) -> Result<ServeSession, LoamError> {
        cfg.validate()?;
        let cluster = ClusterConfig::builder()
            .n_machines(cfg.machines)
            .build()
            .map_err(|e| LoamError::InvalidConfig(e.to_string()))?;
        let features = cfg.feature_cache.then(FeatureCache::new);
        let decisions = cfg.decision_cache.then(DecisionCache::new);
        Ok(ServeSession {
            cfg,
            cluster,
            features,
            decisions,
        })
    }

    /// The session's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The featurization cache, when enabled. Persists across runs.
    pub fn feature_cache(&self) -> Option<&FeatureCache> {
        self.features.as_ref()
    }

    /// The decision cache, when enabled. Persists across runs.
    pub fn decision_cache(&self) -> Option<&DecisionCache> {
        self.decisions.as_ref()
    }

    /// Invalidates every cached decision; call after swapping in a
    /// retrained model. Featurizations stay valid — they do not depend on
    /// model parameters.
    pub fn notify_model_updated(&self) {
        if let Some(d) = &self.decisions {
            d.bump_model_version();
        }
    }

    /// Serves the whole arrival trace against `templates` (the library of
    /// recurring queries with their explored candidate sets) and returns
    /// the report. `model` is gated once up front and every candidate is
    /// compiled once for execution ([`ExecPlan`]); the run then has two
    /// phases:
    ///
    /// 1. **Select**, in arrival order on the calling thread: admission
    ///    control, batching, per-batch dedupe, decision-cache lookups and
    ///    inserts, and the margin guard. Each batch's candidates are scored
    ///    in one fan-out of up to one batched forward per pool thread, over
    ///    contiguous runs of templates balanced by plan-tree nodes; the
    ///    costs come back in template order.
    /// 2. **Execute**: one order-preserving fan-out over every admitted
    ///    request, each on its own per-request executor, down the fallback
    ///    ladder. The outcomes are folded into the report in sequence
    ///    order.
    ///
    /// # Errors
    ///
    /// Before anything is scored: [`LoamError::EmptyWorkload`] for no
    /// templates, [`LoamError::InvalidConfig`] for a template without a
    /// plan at its `default_idx`, or for a trace whose last request would
    /// start its cluster clock past tick 2^32 (arrival tick plus
    /// `warmup_ticks`).
    pub fn run<M: CostModel + Sync + ?Sized>(
        &self,
        model: &M,
        templates: &[EvaluatedQuery],
        catalog: &Catalog,
        trace: Option<&TraceContext>,
    ) -> Result<ServeReport, LoamError> {
        check_servable(templates)?;

        let arrivals = generate_arrivals(
            &self.cfg.arrival,
            self.cfg.requests,
            self.cfg.tenants,
            templates.len(),
            self.cfg.seed,
        );
        // Arrival times only grow, so the last request starts latest.
        let last_tick = arrivals.last().map_or(0, |a| arrival_tick(a.t_s));
        if last_tick.saturating_add(self.cfg.warmup_ticks) > MAX_START_TICK {
            return Err(LoamError::InvalidConfig(format!(
                "the last arrival lands on tick {last_tick}; with {} warm-up ticks its \
                 executor would start past tick {MAX_START_TICK}",
                self.cfg.warmup_ticks
            )));
        }
        let shed = shed_mask(&arrivals, &self.cfg.shed);
        let digests = self.template_digests(templates);
        mcsim_obs::counter("loam.serve.requests", arrivals.len() as u64);

        let gate = validate_traced(model, &self.cfg.strategy, templates, &self.cfg.gate, trace);
        let gate_deployed = gate.deploy();

        let feat0 = self
            .features
            .as_ref()
            .map_or((0, 0), |c| (c.hits(), c.misses()));
        let dec0 = self
            .decisions
            .as_ref()
            .map_or((0, 0), |c| (c.hits(), c.misses()));

        let mut report = ServeReport {
            gate_deployed,
            requests: arrivals.len(),
            shed: 0,
            admitted: 0,
            completed: 0,
            failed: 0,
            batches: 0,
            wall_s: 0.0,
            virtual_makespan_s: arrivals.last().map_or(0.0, |a| a.t_s),
            latency: Histogram::default(),
            feature_cache_hits: 0,
            feature_cache_misses: 0,
            decision_cache_hits: 0,
            decision_cache_misses: 0,
            total_cost: 0.0,
            total_wasted_cost: 0.0,
            total_retries: 0,
            total_speculative: 0,
            decision_log: Vec::with_capacity(arrivals.len()),
        };

        let t_run = std::time::Instant::now();
        // Every candidate compiled once for the whole run, under the work
        // model of the per-request executors `ChaosScenario::build` makes
        // (`Executor::run` asserts the two agree).
        let params = WorkParams::default();
        let compiled: Vec<Vec<ExecPlan>> =
            mcsim_par::ThreadPool::global().parallel_map(templates, |eq| {
                eq.plans
                    .iter()
                    .map(|plan| ExecPlan::new(plan, catalog, &params))
                    .collect()
            });

        // --- select phase: admission, batching and selection, in order,
        // on this thread.
        let mut admitted: Vec<Admitted> = Vec::with_capacity(arrivals.len());
        let mut batch: Vec<&Arrival> = Vec::with_capacity(self.cfg.batch_size);
        for (a, &is_shed) in arrivals.iter().zip(&shed) {
            if is_shed {
                // A shed arrival closes the open batch.
                self.select_batch(
                    model,
                    templates,
                    &digests,
                    &mut batch,
                    &mut report,
                    &mut admitted,
                    trace,
                );
                mcsim_obs::counter("loam.serve.shed", 1);
                report.shed += 1;
                continue;
            }
            batch.push(a);
            if batch.len() == self.cfg.batch_size {
                self.select_batch(
                    model,
                    templates,
                    &digests,
                    &mut batch,
                    &mut report,
                    &mut admitted,
                    trace,
                );
            }
        }
        self.select_batch(
            model,
            templates,
            &digests,
            &mut batch,
            &mut report,
            &mut admitted,
            trace,
        );

        // --- execution phase: every admitted request on its own executor,
        // in one order-preserving fan-out.
        let outcomes: Vec<(Executed, f64)> =
            mcsim_par::ThreadPool::global().parallel_map(&admitted, |req| {
                let a = req.arrival;
                let eq = &templates[a.template as usize];
                let plans = &compiled[a.template as usize];
                let _s = mcsim_obs::span("serve.request");
                let _ts = trace.map(|t| {
                    let s = t.span("serve.request");
                    s.attr("seq", a.seq);
                    s.attr("tenant", a.tenant as u64);
                    s.attr("query_id", eq.query_id);
                    s
                });
                let t_exec = std::time::Instant::now();
                let mut exec = ChaosScenario::new(request_seed(self.cfg.seed, a.seq))
                    .cluster(self.cluster.clone())
                    .fault_scale(self.cfg.fault_scale)
                    .warmup_ticks(self.cfg.warmup_ticks + arrival_tick(a.t_s))
                    .build();
                let executed = self.execute(
                    &mut exec,
                    &plans[req.decision.choice],
                    &plans[eq.default_idx],
                    req.base,
                    trace,
                    eq.query_id,
                );
                (executed, t_exec.elapsed().as_secs_f64())
            });

        // --- fold, in sequence order: shed records keep their places.
        let mut served = admitted.iter().zip(&outcomes);
        for (a, &is_shed) in arrivals.iter().zip(&shed) {
            let outcome = if is_shed {
                RequestOutcome::Shed
            } else {
                let (req, (ex, exec_s)) = served.next().expect("one outcome per admitted request");
                let latency = req.infer_share + exec_s;
                report.latency.record(latency);
                mcsim_obs::observe("loam.serve.latency_s", latency);
                if ex.resolution == Resolution::Failed {
                    report.failed += 1;
                } else {
                    report.completed += 1;
                }
                report.total_cost += ex.cost;
                report.total_wasted_cost += ex.wasted_cost;
                report.total_retries += ex.retries;
                report.total_speculative += ex.speculative;
                RequestOutcome::Served {
                    choice: req.decision.choice,
                    resolution: ex.resolution,
                    predicted_bits: req.decision.predicted.to_bits(),
                    cost_bits: ex.cost.to_bits(),
                    decision_cached: req.cached,
                }
            };
            report.decision_log.push(DecisionRecord {
                seq: a.seq,
                tenant: a.tenant,
                template: a.template,
                query_id: templates[a.template as usize].query_id,
                outcome,
            });
        }
        report.wall_s = t_run.elapsed().as_secs_f64();

        let feat1 = self
            .features
            .as_ref()
            .map_or((0, 0), |c| (c.hits(), c.misses()));
        let dec1 = self
            .decisions
            .as_ref()
            .map_or((0, 0), |c| (c.hits(), c.misses()));
        report.feature_cache_hits = feat1.0 - feat0.0;
        report.feature_cache_misses = feat1.1 - feat0.1;
        report.decision_cache_hits = dec1.0 - dec0.0;
        report.decision_cache_misses = dec1.1 - dec0.1;
        Ok(report)
    }

    /// Selects a plan for every arrival of one batch — deduped per
    /// template, through the decision cache and one batched forward — and
    /// appends them to `admitted` in order. Clears `batch`.
    #[allow(clippy::too_many_arguments)]
    fn select_batch<'a, M: CostModel + Sync + ?Sized>(
        &self,
        model: &M,
        templates: &[EvaluatedQuery],
        digests: &[u64],
        batch: &mut Vec<&'a Arrival>,
        report: &mut ServeReport,
        admitted: &mut Vec<Admitted<'a>>,
        trace: Option<&TraceContext>,
    ) {
        if batch.is_empty() {
            return;
        }
        mcsim_obs::counter("loam.serve.batches", 1);
        mcsim_obs::counter("loam.serve.admitted", batch.len() as u64);
        report.batches += 1;
        report.admitted += batch.len();

        // One decision per distinct template in the batch.
        let mut decided: HashMap<u32, (CachedDecision, Resolution, bool)> = HashMap::new();
        let mut infer_s = 0.0f64;
        if !report.gate_deployed && self.cfg.fallback_enabled {
            // Gate hold: every request serves its default plan unscored.
            for a in batch.iter() {
                let eq = &templates[a.template as usize];
                record_gate_hold(eq.query_id, trace);
                decided.entry(a.template).or_insert((
                    CachedDecision {
                        choice: eq.default_idx,
                        predicted: 0.0,
                        degraded: false,
                    },
                    Resolution::GateFallback,
                    false,
                ));
            }
        } else {
            let mut to_score: Vec<u32> = Vec::new();
            for a in batch.iter() {
                if decided.contains_key(&a.template) || to_score.contains(&a.template) {
                    continue;
                }
                let cached = self
                    .decisions
                    .as_ref()
                    .and_then(|c| c.get(digests[a.template as usize]));
                match cached {
                    Some(d) => {
                        let default_idx = templates[a.template as usize].default_idx;
                        let base = Resolution::of_selection(d.choice, default_idx, d.degraded);
                        decided.insert(a.template, (d, base, true));
                    }
                    None => to_score.push(a.template),
                }
            }
            if !to_score.is_empty() {
                let t_infer = std::time::Instant::now();
                let _s = mcsim_obs::span("serve.batch_infer");
                let _ts = trace.map(|t| {
                    let s = t.span("serve.batch_infer");
                    s.attr("templates", to_score.len());
                    s.attr("requests", batch.len());
                    s
                });
                // Every candidate of every to-be-scored template, split into
                // contiguous runs of templates balanced by node count: one
                // forest forward per run, in one fan-out, each on its
                // thread's inference workspace (the pool's helpers persist,
                // so theirs stay warm across batches). A plan's cost does not
                // depend on the batch it is scored in, so the split never
                // changes a bit. A batch below the pool's work gate is one
                // run, scored inline.
                let mut refs: Vec<&PlanTree> = Vec::new();
                let mut bounds = Vec::with_capacity(to_score.len() + 1);
                let mut nodes = Vec::with_capacity(to_score.len());
                bounds.push(0);
                for &t in &to_score {
                    let plans = &templates[t as usize].plans;
                    refs.extend(plans.iter());
                    bounds.push(refs.len());
                    nodes.push(plans.iter().map(PlanTree::len).sum::<usize>());
                }
                let pool = mcsim_par::ThreadPool::global();
                let work = nodes.iter().sum::<usize>().saturating_mul(NODE_WORK);
                let k = if work < mcsim_par::min_parallel_work() {
                    1
                } else {
                    pool.threads()
                };
                // The runs' costs back to back are in template order, like
                // `refs`; resolve serially in that order.
                let costs = pool
                    .parallel_map(&balanced_runs(&nodes, k), |run| {
                        let plans = &refs[bounds[run.start]..bounds[run.end]];
                        let mut costs = Vec::with_capacity(plans.len());
                        loam_core::predictor::with_thread_infer_ws(|ws| {
                            model.predict_batch_into(
                                plans,
                                self.cfg.strategy.env_source(),
                                self.features.as_ref(),
                                ws,
                                &mut costs,
                            )
                        });
                        costs
                    })
                    .concat();
                for (i, &t) in to_score.iter().enumerate() {
                    let eq = &templates[t as usize];
                    let slice_refs = &refs[bounds[i]..bounds[i + 1]];
                    let slice_costs = &costs[bounds[i]..bounds[i + 1]];
                    let d =
                        self.resolve(slice_refs, slice_costs, eq.default_idx, trace, eq.query_id);
                    let base = Resolution::of_selection(d.choice, eq.default_idx, d.degraded);
                    if let Some(c) = &self.decisions {
                        c.insert(digests[t as usize], d);
                    }
                    decided.insert(t, (d, base, false));
                }
                infer_s = t_infer.elapsed().as_secs_f64();
            }
        }
        let infer_share = infer_s / batch.len() as f64;
        admitted.extend(batch.drain(..).map(|a| {
            let (decision, base, cached) = decided[&a.template];
            Admitted {
                arrival: a,
                decision,
                base,
                cached,
                infer_share,
            }
        }));
    }

    /// The selection rungs of the ladder over one template's scored
    /// candidates: a non-finite cost degrades to the default plan with a
    /// [`Decision::Fallback`] record naming `query_id`; otherwise the
    /// margin guard picks between the cheapest candidate and the default.
    fn resolve(
        &self,
        plans: &[&PlanTree],
        costs: &[f64],
        default_idx: usize,
        trace: Option<&TraceContext>,
        query_id: u64,
    ) -> CachedDecision {
        if let Some((i, c)) = costs.iter().enumerate().find(|(_, c)| !c.is_finite()) {
            mcsim_obs::counter("loam.fallback.predictor_error", 1);
            if let Some(t) = trace {
                t.decision(Decision::Fallback(Fallback {
                    query_id,
                    reason: format!(
                        "predictor returned non-finite cost {c} for candidate #{i}; serving default"
                    ),
                }));
            }
            return CachedDecision {
                choice: default_idx,
                predicted: costs[default_idx],
                degraded: true,
            };
        }
        let best = costs
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map_or(default_idx, |(i, _)| i);
        let choice = guarded_choice_traced(
            plans,
            costs,
            best,
            default_idx,
            self.cfg.margin,
            trace,
            query_id,
        );
        CachedDecision {
            choice,
            predicted: costs[choice],
            degraded: false,
        }
    }

    /// The execution rungs of the ladder for one request, on its own
    /// executor: the chosen `steered` plan runs and keeps the rung `base`
    /// that selection reached. If it fails and the ladder is armed, the
    /// `default_plan` replays ([`Resolution::ExecFallback`]). If that fails
    /// too, or the ladder is disarmed, the request is
    /// [`Resolution::Failed`].
    fn execute(
        &self,
        exec: &mut Executor,
        steered: &ExecPlan,
        default_plan: &ExecPlan,
        base: Resolution,
        trace: Option<&TraceContext>,
        query_id: u64,
    ) -> Executed {
        let served = match exec.run(steered, None, trace) {
            Ok(out) => Some((base, out)),
            Err(e) if self.cfg.fallback_enabled => {
                mcsim_obs::counter("loam.fallback.exec_failed", 1);
                if let Some(t) = trace {
                    t.decision(Decision::Fallback(Fallback {
                        query_id,
                        reason: format!("steered execution failed ({e}); replaying default plan"),
                    }));
                }
                let replay = exec.run(default_plan, None, trace);
                replay.ok().map(|out| (Resolution::ExecFallback, out))
            }
            Err(_) => None,
        };
        match served {
            Some((resolution, out)) => {
                mcsim_obs::counter("loam.robust.queries_completed", 1);
                Executed {
                    resolution,
                    cost: out.cpu_cost,
                    wasted_cost: out.wasted_cost,
                    retries: out.retries,
                    speculative: out.speculative_launches,
                }
            }
            None => {
                mcsim_obs::counter("loam.robust.queries_failed", 1);
                Executed {
                    resolution: Resolution::Failed,
                    cost: 0.0,
                    wasted_cost: 0.0,
                    retries: 0,
                    speculative: 0,
                }
            }
        }
    }

    /// 64-bit digest per template: every candidate signature, the default
    /// index, and the environment fingerprint folded FNV-style. Any change
    /// to the candidate set or the serving environment changes the key.
    fn template_digests(&self, templates: &[EvaluatedQuery]) -> Vec<u64> {
        let env_fp = strategy_fingerprint(&self.cfg.strategy);
        templates
            .iter()
            .map(|eq| {
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                let mut mix = |v: u64| {
                    for b in v.to_le_bytes() {
                        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                    }
                };
                for p in &eq.plans {
                    mix(PlanSignature::of(p).0);
                }
                mix(eq.default_idx as u64);
                mix(env_fp);
                h
            })
            .collect()
    }
}

/// Checks that `templates` can be served: at least one template, each with
/// a candidate plan at its `default_idx`.
fn check_servable(templates: &[EvaluatedQuery]) -> Result<(), LoamError> {
    if templates.is_empty() {
        return Err(LoamError::EmptyWorkload(
            "serving needs at least one query".into(),
        ));
    }
    for (i, eq) in templates.iter().enumerate() {
        if eq.default_idx >= eq.plans.len() {
            return Err(LoamError::InvalidConfig(format!(
                "query #{i} has {} plans with default_idx {}",
                eq.plans.len(),
                eq.default_idx
            )));
        }
    }
    Ok(())
}

/// The gate-hold rung for one request: bumps `loam.fallback.gate_hold`
/// and leaves a [`Decision::Fallback`] record naming `query_id`.
fn record_gate_hold(query_id: u64, trace: Option<&TraceContext>) {
    mcsim_obs::counter("loam.fallback.gate_hold", 1);
    if let Some(t) = trace {
        t.decision(Decision::Fallback(Fallback {
            query_id,
            reason: "deployment gate held the model; serving default plan".into(),
        }));
    }
}

/// Splits items of the given `weights` into at most `k` (≥ 1) contiguous,
/// non-empty runs of roughly equal total weight: each item joins the
/// `k`-th of the total its weight's midpoint falls in, so every run
/// boundary lies within half an item of its even share.
fn balanced_runs(weights: &[usize], k: usize) -> Vec<Range<usize>> {
    let total = weights.iter().sum::<usize>().max(1);
    let mut runs: Vec<Range<usize>> = Vec::with_capacity(k);
    let (mut before, mut last) = (0, usize::MAX);
    for (i, &w) in weights.iter().enumerate() {
        let share = ((2 * before + w) * k / (2 * total)).min(k - 1);
        match runs.last_mut() {
            Some(run) if share == last => run.end = i + 1,
            _ => runs.push(i..i + 1),
        }
        last = share;
        before += w;
    }
    runs
}

/// Which arrivals admission control drops, simulated deterministically in
/// virtual time.
fn shed_mask(arrivals: &[Arrival], policy: &ShedPolicy) -> Vec<bool> {
    match policy {
        ShedPolicy::None => vec![false; arrivals.len()],
        ShedPolicy::QueueBound {
            capacity,
            drain_qps,
        } => {
            let mut backlog = 0.0f64;
            let mut last_t = 0.0f64;
            arrivals
                .iter()
                .map(|a| {
                    backlog = (backlog - (a.t_s - last_t) * drain_qps).max(0.0);
                    last_t = a.t_s;
                    if backlog >= *capacity as f64 {
                        true
                    } else {
                        backlog += 1.0;
                        false
                    }
                })
                .collect()
        }
    }
}

/// Bit-exact fingerprint of the environment strategy.
fn strategy_fingerprint(s: &EnvStrategy) -> u64 {
    let (tag, e) = match s {
        EnvStrategy::MeanHistorical(e) => (1u64, Some(e)),
        EnvStrategy::ClusterExpected(e) => (2, Some(e)),
        EnvStrategy::ClusterCurrent(e) => (3, Some(e)),
        EnvStrategy::NoEnv => (0, None),
    };
    let mut h = tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    if let Some(e) = e {
        for f in [e.cpu_idle, e.io_wait, e.load5, e.mem_usage] {
            h = (h ^ f.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Seconds of virtual time per cluster tick (production samples loads
/// every 20 seconds).
const SECONDS_PER_TICK: f64 = 20.0;

/// The latest cluster tick a request's executor may start at: its
/// arrival's tick plus [`ServeConfig::warmup_ticks`]. 2^32 ticks are about
/// 2,700 years of virtual time, and the bound leaves the `u64` cluster
/// clock room for every stage window and retry backoff after the start.
const MAX_START_TICK: u64 = 1 << 32;

/// The cluster tick an arrival lands on. Feeding this offset into the
/// per-request cluster clock means a request arriving mid-trace executes
/// against the diurnal phase and fault timeline of *its* moment rather
/// than the cluster epoch — affordable because the event engine's advance
/// drains `O(events)`, not `O(machines × ticks)`.
fn arrival_tick(t_s: f64) -> u64 {
    (t_s.max(0.0) / SECONDS_PER_TICK) as u64
}

/// Per-request executor seed: splitmix of the master seed and the arrival
/// sequence number, so every request replays identically at any thread
/// count or batch size.
fn request_seed(seed: u64, seq: u64) -> u64 {
    let mut z = seed ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim_plan::Operator;

    fn chain(n: usize) -> PlanTree {
        let mut t = PlanTree::new();
        let mut cur = t.leaf(Operator::table_scan(0, 1, 1, vec![0]));
        for _ in 0..n {
            cur = t.unary(Operator::Limit { n: 1 }, cur);
        }
        t.set_root(cur);
        t
    }

    fn session(margin: f64) -> ServeSession {
        ServeSession::new(ServeConfig::builder().margin(margin).build().unwrap()).unwrap()
    }

    #[test]
    fn non_finite_predictions_fall_back_to_default_with_provenance() {
        let (small, big) = (chain(1), chain(9));
        let ctx = TraceContext::new("robust");
        let d = session(0.1).resolve(&[&small, &big], &[2.0, f64::NAN], 0, Some(&ctx), 42);
        assert_eq!(d.choice, 0);
        assert!(d.degraded, "a NaN prediction must degrade the decision");
        let ds = ctx.decisions();
        assert!(
            matches!(&ds[0], Decision::Fallback(f) if f.query_id == 42),
            "fallback record expected, got {ds:?}"
        );
    }

    #[test]
    fn finite_predictions_delegate_to_the_margin_guard() {
        // Winner far cheaper than the default ⇒ steered, not degraded.
        let (small, big) = (chain(1), chain(9));
        let d = session(0.4).resolve(&[&big, &small], &[10.0, 2.0], 0, None, 1);
        assert_eq!(d.choice, 1);
        assert_eq!(d.predicted, 2.0);
        assert!(!d.degraded);
    }

    #[test]
    fn guarded_selection_keeps_near_ties_on_the_default() {
        let (big, near) = (chain(9), chain(8));
        let d = session(DEFAULT_MARGIN).resolve(&[&big, &near], &[10.0, 9.0], 0, None, 8);
        assert_eq!(d.choice, 0, "margin guard must keep the default");
        assert!(!d.degraded);
    }

    #[test]
    fn resolution_degradation_classes_are_consistent() {
        assert!(!Resolution::Steered.is_degraded());
        assert!(!Resolution::Default.is_degraded());
        assert!(Resolution::PredictorFallback.is_degraded());
        assert!(Resolution::GateFallback.is_degraded());
        assert!(Resolution::ExecFallback.is_degraded());
        assert!(Resolution::Failed.is_degraded());
    }

    #[test]
    fn balanced_runs_are_contiguous_and_balanced() {
        let weights = [30, 10, 25, 5, 40, 20, 15, 35];
        for k in 1..=10 {
            let runs = balanced_runs(&weights, k);
            assert!(!runs.is_empty() && runs.len() <= k, "k={k}: {runs:?}");
            assert_eq!(runs[0].start, 0);
            assert_eq!(runs.last().unwrap().end, weights.len());
            for pair in runs.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "k={k}: {runs:?}");
            }
            assert!(runs.iter().all(|r| !r.is_empty()), "k={k}: {runs:?}");
        }
        let sums = |k| -> Vec<usize> {
            balanced_runs(&weights, k)
                .into_iter()
                .map(|r| weights[r].iter().sum())
                .collect()
        };
        assert_eq!(sums(1), [180]);
        assert_eq!(sums(2), [70, 110]);
        assert_eq!(sums(4), [40, 30, 60, 50]);
        // All weights zero: one run.
        assert_eq!(balanced_runs(&[0, 0, 0], 2), vec![0..3]);
        // More runs than items: one item per run.
        assert_eq!(balanced_runs(&[3, 4], 8), [0..1, 1..2]);
        assert!(balanced_runs(&[], 4).is_empty());
    }

    #[test]
    fn decision_digest_fingerprints_the_log_exactly() {
        let mut report = ServeReport {
            gate_deployed: true,
            requests: 2,
            shed: 1,
            admitted: 1,
            completed: 1,
            failed: 0,
            batches: 1,
            wall_s: 0.0,
            virtual_makespan_s: 0.0,
            latency: Histogram::default(),
            feature_cache_hits: 0,
            feature_cache_misses: 0,
            decision_cache_hits: 0,
            decision_cache_misses: 0,
            total_cost: 0.0,
            total_wasted_cost: 0.0,
            total_retries: 0,
            total_speculative: 0,
            decision_log: vec![
                DecisionRecord {
                    seq: 0,
                    tenant: 1,
                    template: 2,
                    query_id: 3,
                    outcome: RequestOutcome::Served {
                        choice: 1,
                        resolution: Resolution::Steered,
                        predicted_bits: 1.5f64.to_bits(),
                        cost_bits: 2.5f64.to_bits(),
                        decision_cached: false,
                    },
                },
                DecisionRecord {
                    seq: 1,
                    tenant: 0,
                    template: 0,
                    query_id: 9,
                    outcome: RequestOutcome::Shed,
                },
            ],
        };
        let base = report.decision_digest();
        // A pure function of the log: wall-clock and counters don't feed it.
        report.wall_s = 42.0;
        report.feature_cache_hits = 99;
        assert_eq!(report.decision_digest(), base);
        // Any semantic change to any record moves the digest.
        let mut drifted = report.decision_log.clone();
        if let RequestOutcome::Served { ref mut choice, .. } = drifted[0].outcome {
            *choice += 1;
        }
        report.decision_log = drifted;
        assert_ne!(report.decision_digest(), base);
    }

    #[test]
    fn builder_validates_every_knob() {
        assert!(ServeConfig::builder().build().is_ok());
        let cases: Vec<ServeConfigBuilder> = vec![
            ServeConfig::builder().tenants(0),
            ServeConfig::builder().requests(0),
            ServeConfig::builder().batch_size(0),
            ServeConfig::builder().machines(0),
            ServeConfig::builder().fault_scale(-1.0),
            ServeConfig::builder().arrival(ArrivalProfile::Poisson { rate_qps: -3.0 }),
            ServeConfig::builder().shed(ShedPolicy::QueueBound {
                capacity: 0,
                drain_qps: 10.0,
            }),
            ServeConfig::builder().shed(ShedPolicy::QueueBound {
                capacity: 4,
                drain_qps: 0.0,
            }),
            ServeConfig::builder().warmup_ticks(MAX_START_TICK + 1),
            ServeConfig::builder().warmup_ticks(u64::MAX),
        ];
        for (i, b) in cases.into_iter().enumerate() {
            let err = b.build();
            assert!(
                matches!(err, Err(LoamError::InvalidConfig(_))),
                "case {i} must be rejected, got {err:?}"
            );
        }
        assert!(ServeConfig::builder()
            .warmup_ticks(MAX_START_TICK)
            .build()
            .is_ok());
    }

    #[test]
    fn builder_rejects_degenerate_margins() {
        for bad in [-0.1, 1.0, 1.5, f64::NAN, f64::INFINITY] {
            let err = ServeConfig::builder().margin(bad).build();
            assert!(
                matches!(err, Err(LoamError::InvalidConfig(_))),
                "margin {bad} must be rejected, got {err:?}"
            );
        }
        assert_eq!(session(0.0).config().margin, 0.0);
        // A literal configuration skips the builder; the session validates
        // it again.
        let literal = ServeConfig {
            margin: 1.5,
            ..ServeConfig::default()
        };
        assert!(matches!(
            ServeSession::new(literal),
            Err(LoamError::InvalidConfig(_))
        ));
    }

    #[test]
    fn shed_mask_is_deterministic_and_bounded() {
        let arrivals =
            generate_arrivals(&ArrivalProfile::Poisson { rate_qps: 100.0 }, 500, 4, 8, 9);
        let policy = ShedPolicy::QueueBound {
            capacity: 8,
            drain_qps: 20.0,
        };
        let a = shed_mask(&arrivals, &policy);
        assert_eq!(a, shed_mask(&arrivals, &policy));
        let shed = a.iter().filter(|&&s| s).count();
        assert!(shed > 0, "an overloaded queue must shed");
        assert!(shed < arrivals.len(), "some requests must be admitted");
        assert!(shed_mask(&arrivals, &ShedPolicy::None).iter().all(|s| !s));
    }

    #[test]
    fn decision_records_compare_modulo_cache_flag() {
        let served = |cached| DecisionRecord {
            seq: 3,
            tenant: 1,
            template: 2,
            query_id: 77,
            outcome: RequestOutcome::Served {
                choice: 1,
                resolution: Resolution::Steered,
                predicted_bits: 1.5f64.to_bits(),
                cost_bits: 9.0f64.to_bits(),
                decision_cached: cached,
            },
        };
        assert_ne!(served(true), served(false));
        assert!(served(true).same_decision(&served(false)));
        let shed = DecisionRecord {
            outcome: RequestOutcome::Shed,
            ..served(true)
        };
        assert!(!shed.same_decision(&served(true)));
    }
}
