//! Stage-by-stage plan execution with ground-truth cost physics.
//!
//! A plan's observed CPU cost is
//! `Σ_stages intrinsic_work(stage) × env_multiplier(stage) × noise`, where
//! the intrinsic work comes from exact cardinalities and the shared
//! [`mcsim_catalog::workmodel`], the environment multiplier from the loads of
//! the machines Fuxi allocated to the stage, and the noise is log-normal —
//! reproducing the up-to-50 % cost fluctuation of recurring queries
//! (Figure 1) and the log-normal fit of Appendix E.1 (Figure 15).
//!
//! An execution has two halves. *Placing* it (`Executor::place`) is
//! everything that touches the shared cluster or the fault streams, in
//! stage order: the noise seed, each attempt's allocation, straggler and
//! kill draws, the cluster stepping through the attempt's window, backoff,
//! retries and the deadline. Its `Placement` records per attempt where and
//! when it ran and the work placed on each of its machines at each window
//! tick — captured then, because later allocations prune the cluster's
//! occupancy. *Measuring* it (`measure`) is pure: the loads each window
//! observed (a function of virtual time and that placed work), the
//! environment multiplier, the noise draws, and the cost, queue and latency
//! they make. Only placing feeds back — a query's allocations change what
//! the next query sees — so a caller may place queries in order on one
//! cluster and measure them anywhere, in any order, and get the same bits.
//! [`Executor::run`] is the one stage loop: placing followed by measuring.

use crate::cluster::Cluster;
use crate::envmodel::EnvModel;
use crate::fault::{ExecFailure, RetryPolicy};
use crate::load::LoadModel;
use crate::machine::std_normal;
use mcsim_catalog::workmodel::{operator_work, WorkContext, WorkParams};
use mcsim_catalog::{CardinalityModel, Catalog, EnvMetrics};
use mcsim_obs::trace::{StageExecEvent, TraceContext};
use mcsim_plan::op::{JoinAlgo, Operator};
use mcsim_plan::stage::{decompose, StageGraph};
use mcsim_plan::{NodeId, PlanSignature, PlanTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of one simulated execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionOutcome {
    /// End-to-end CPU cost (the metric LOAM models).
    pub cpu_cost: f64,
    /// End-to-end latency (noisier than CPU cost, as the paper observes).
    pub latency: f64,
    /// Per-stage observed environment (metrics averaged over the stage's
    /// machines and execution window), indexed like the stage graph.
    pub stage_envs: Vec<EnvMetrics>,
    /// Per-stage CPU cost contribution (including wasted work from killed
    /// attempts, which the cluster still paid for).
    pub stage_costs: Vec<f64>,
    /// Total intrinsic work (cost before environment and noise).
    pub intrinsic_work: f64,
    /// How many stage retries the fault injector forced (0 when disabled).
    pub retries: u32,
    /// CPU cost burnt by killed attempts (0 when fault injection is off).
    pub wasted_cost: f64,
    /// Speculative backups launched against stragglers (0 when off).
    pub speculative_launches: u32,
}

/// A plan compiled for execution: everything the stage loop reads that
/// depends only on the plan, the catalog and the [`WorkParams`] — the
/// plan's signature, its stage count, and per stage in execution order the
/// intrinsic work and what Fuxi derives from it. Build it with
/// [`Executor::compile`] (or [`ExecPlan::new`]) once per plan and hand it
/// to [`Executor::run`] for every execution: cardinalities, stages, skew
/// and per-stage work are then derived once, not on every run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecPlan {
    signature: PlanSignature,
    stage_count: usize,
    stages: Vec<CompiledStage>,
    params: WorkParams,
}

/// One stage of an [`ExecPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct CompiledStage {
    /// Index into the plan's stage graph.
    index: usize,
    /// Intrinsic work of the stage's operators.
    work: f64,
    /// Parallel instances: Fuxi scales them with the work volume.
    instances: usize,
    /// A spool in the stage dampens its environment coupling.
    spool: bool,
    /// Occupancy window in ticks before any straggler slowdown.
    base_duration: u64,
}

impl ExecPlan {
    /// Compiles `plan` over `catalog` under the work model `params`. Only
    /// an executor with equal [`Executor::params`] may run the result.
    pub fn new(plan: &PlanTree, catalog: &Catalog, params: &WorkParams) -> ExecPlan {
        let cards = CardinalityModel::new(catalog).annotate(plan);
        let graph = decompose(plan);
        let skewed = detect_skew(plan, &graph, catalog);
        let stages = graph
            .execution_order()
            .into_iter()
            .map(|s| {
                let nodes = &graph.stages[s].nodes;
                let work: f64 = nodes
                    .iter()
                    .map(|&id| {
                        let n = plan.node(id);
                        let children: Vec<_> = n.children().map(|c| cards[c]).collect();
                        operator_work(
                            &n.op,
                            &cards[id],
                            &children,
                            WorkContext {
                                skewed_inputs: skewed[id],
                            },
                            params,
                        )
                    })
                    .sum();
                CompiledStage {
                    index: s,
                    work,
                    instances: ((work / 1.0e6).ceil() as usize).clamp(1, 256),
                    spool: nodes
                        .iter()
                        .any(|&id| matches!(plan.op(id), Operator::Spool { .. })),
                    base_duration: (((work.max(1.0)).log10() - 3.0).ceil() as u64).clamp(1, 6),
                }
            })
            .collect();
        ExecPlan {
            signature: PlanSignature::of(plan),
            stage_count: graph.len(),
            stages,
            params: params.clone(),
        }
    }

    /// The compiled plan's structural signature ([`PlanSignature::of`]).
    pub fn signature(&self) -> PlanSignature {
        self.signature
    }
}

/// Unwraps an execution that cannot fail unless fault injection is armed.
pub(crate) fn infallible(outcome: Result<ExecutionOutcome, ExecFailure>) -> ExecutionOutcome {
    outcome.unwrap_or_else(|e| {
        panic!("execution failed under fault injection ({e}); use try_execute or run")
    })
}

/// Where and when one execution of an [`ExecPlan`] ran on the cluster:
/// what `Executor::place` decided, and all that `measure` reads of the
/// cluster. Read-only once built, so placements of queries placed in order
/// on one cluster can be measured on any thread.
#[derive(Debug, Clone)]
pub(crate) struct Placement {
    /// Signature of the plan placed, so it is measured against that plan.
    signature: PlanSignature,
    /// Seed of the execution's log-normal noise.
    noise_seed: u64,
    /// Every stage attempt, in the order they ran.
    attempts: Vec<PlacedAttempt>,
    /// Why the execution gave up after its last attempt, if it did.
    failure: Option<ExecFailure>,
}

/// One stage attempt of a [`Placement`].
#[derive(Debug, Clone)]
struct PlacedAttempt {
    /// Position of the stage in the plan's execution order.
    stage: usize,
    /// Attempt number (0 = first run, ≥ 1 = retry after a kill).
    attempt: u32,
    /// The machines Fuxi allocated, as allocation indices.
    machines: Vec<usize>,
    /// Tick the attempt started; it held its machines until
    /// `start_tick + duration`.
    start_tick: u64,
    /// Window length in ticks, stretched by any straggler slowdown.
    duration: u64,
    /// Effective straggler slowdown (1 when the attempt did not straggle).
    straggle: f64,
    /// A speculative backup ran beside the attempt.
    speculative: bool,
    /// Fraction of its work the attempt had done when it was killed.
    kill: Option<f64>,
    /// The work placed on each machine at each window tick: machine-major,
    /// `duration + 1` ticks per machine.
    assigned: Vec<f64>,
}

/// Everything `measure` reads besides the plan and its placement: a
/// `Copy` view of the executor's cost physics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Physics {
    /// The cluster's machine-load model.
    load: LoadModel,
    /// Environment → cost coupling.
    env: EnvModel,
    /// Work units → CPU-cost units ([`WorkParams::work_to_cost`]).
    work_to_cost: f64,
    /// Log-normal execution-noise σ.
    noise_sigma: f64,
    /// Extra CPU-cost fraction a speculative backup burns
    /// ([`RetryPolicy::speculative_overhead`]).
    speculative_overhead: f64,
}

/// The execution simulator: owns the cluster and the physics constants.
#[derive(Debug, Clone)]
pub struct Executor {
    /// The shared multi-tenant cluster.
    pub cluster: Cluster,
    /// Environment → cost coupling.
    pub env_model: EnvModel,
    /// Work-model constants (must match the ones the optimizer reasons
    /// with, so the native optimizer is wrong only through its inputs).
    pub params: WorkParams,
    /// Log-normal execution-noise σ (per-project, from the profile).
    pub noise_sigma: f64,
    /// Retry, speculation, and deadline policy (inert while the cluster's
    /// fault injection is disabled and no deadline is set).
    pub retry: RetryPolicy,
    rng: StdRng,
}

impl Executor {
    /// Creates an executor over a fresh cluster.
    pub fn new(seed: u64, cluster: Cluster, noise_sigma: f64) -> Self {
        Executor {
            cluster,
            env_model: EnvModel::default(),
            params: WorkParams::default(),
            noise_sigma,
            retry: RetryPolicy::default(),
            rng: StdRng::seed_from_u64(seed ^ 0xeeee_aaaa),
        }
    }

    /// Compiles `plan` for execution under this executor's work model: see
    /// [`ExecPlan`]. Compile a plan once and [`run`](Executor::run) it as
    /// often as needed.
    pub fn compile(&self, plan: &PlanTree, catalog: &Catalog) -> ExecPlan {
        ExecPlan::new(plan, catalog, &self.params)
    }

    /// Executes `plan` once, advancing the shared cluster, with a fresh
    /// random noise seed: [`compile`](Executor::compile) plus
    /// [`run`](Executor::run).
    ///
    /// Panics if fault injection makes the execution fail (impossible while
    /// it is disabled, which it is by default) — fault-armed callers should
    /// use [`Executor::try_execute`] instead.
    pub fn execute(&mut self, plan: &PlanTree, catalog: &Catalog) -> ExecutionOutcome {
        infallible(self.try_execute(plan, catalog))
    }

    /// Fallible execution: like [`Executor::execute`] but surfaces retry
    /// exhaustion and deadline overruns as [`ExecFailure`] values instead of
    /// panicking. While fault injection is disabled this never fails.
    pub fn try_execute(
        &mut self,
        plan: &PlanTree,
        catalog: &Catalog,
    ) -> Result<ExecutionOutcome, ExecFailure> {
        let compiled = self.compile(plan, catalog);
        self.run(&compiled, None, None)
    }

    /// The core of execution: places a compiled plan on the shared cluster
    /// stage by stage and measures it through the cost physics, plus — when
    /// the cluster's fault injection is armed — straggler slowdowns,
    /// speculative backups, mid-flight kills with exponential-backoff
    /// retries under a per-stage budget, and an optional per-query
    /// deadline. With faults disabled and no deadline there are no extra
    /// RNG draws and a single attempt per stage.
    ///
    /// `noise_seed` fixes the log-normal noise, so that the cost under a
    /// fixed environment instance is deterministic per (environment, plan)
    /// — the `C_e(P)` of Section 5; `None` draws it from the executor's
    /// RNG, as [`Executor::execute`] does. When `trace` is `Some` it
    /// receives a per-stage, per-machine scheduling timeline: which
    /// machines Fuxi placed each attempt on, over which cluster-tick
    /// window, with the attempt's queueing factor and cost — also the
    /// attempts of an execution that then fails. Tracing does not perturb
    /// the simulation — costs are bit-identical with and without it.
    ///
    /// Inside, placing (the cluster's half) and measuring (the pure half)
    /// are separate steps: see the [module docs](crate::execute).
    ///
    /// Panics if `plan` was compiled under other [`WorkParams`] than this
    /// executor's: its stage work would silently belong to another model.
    pub fn run(
        &mut self,
        plan: &ExecPlan,
        noise_seed: Option<u64>,
        trace: Option<&TraceContext>,
    ) -> Result<ExecutionOutcome, ExecFailure> {
        let placement = self.place(plan, noise_seed);
        measure(plan, &placement, self.physics(), trace)
    }

    /// The cost physics `measure` applies to this executor's placements.
    pub(crate) fn physics(&self) -> Physics {
        Physics {
            load: self.cluster.load_model(),
            env: self.env_model,
            work_to_cost: self.params.work_to_cost,
            noise_sigma: self.noise_sigma,
            speculative_overhead: self.retry.speculative_overhead,
        }
    }

    /// Places a compiled plan on the shared cluster: everything
    /// [`run`](Executor::run) does that touches the cluster or the fault
    /// streams, in the same order. It draws the noise seed (unless given);
    /// per stage attempt it allocates machines, samples a straggler and a
    /// speculative backup, steps the cluster across the attempt's window
    /// and samples a kill; then it backs off and retries, or checks the
    /// deadline. It emits the counters that need no environment. The
    /// returned [`Placement`] is what [`measure`] turns into costs.
    ///
    /// Panics if `plan` was compiled under other [`WorkParams`] than this
    /// executor's.
    pub(crate) fn place(&mut self, plan: &ExecPlan, noise_seed: Option<u64>) -> Placement {
        assert!(
            plan.params == self.params,
            "ExecPlan was compiled under different WorkParams than this executor's"
        );
        let noise_seed = noise_seed.unwrap_or_else(|| self.rng.gen::<u64>());
        mcsim_obs::counter("exec.queries_executed", 1);
        mcsim_obs::counter("exec.stages_executed", plan.stage_count as u64);

        let mut placement = Placement {
            signature: plan.signature,
            noise_seed,
            attempts: Vec::with_capacity(plan.stages.len()),
            failure: None,
        };
        let faults_on = self.cluster.faults_enabled();
        let query_start_tick = self.cluster.tick_count();

        for (stage, compiled) in plan.stages.iter().enumerate() {
            let CompiledStage {
                index: s,
                instances,
                base_duration,
                ..
            } = *compiled;

            let mut attempt = 0u32;
            loop {
                // Each instance claims a modest slot share on its machines
                // for the stage's occupancy window.
                let machines = self.cluster.allocate(instances, 0.06);
                mcsim_obs::observe("exec.alloc.instances", instances as f64);

                // The stage runs for a work-dependent number of 20 s ticks.
                // A straggling attempt holds its slots longer (the
                // simulated instances crawl) — unless a speculative backup
                // caps the slowdown at the policy threshold, for an extra
                // share of duplicated CPU work.
                let mut straggle = 1.0;
                let mut speculative = false;
                if faults_on {
                    if let Some(mut factor) = self.cluster.sample_straggler(s, attempt) {
                        if self.retry.speculative && factor > self.retry.speculative_threshold {
                            self.cluster.record_speculative(s, attempt);
                            speculative = true;
                            mcsim_obs::counter("exec.retry.speculative_launches", 1);
                            factor = self.retry.speculative_threshold;
                        }
                        mcsim_obs::counter("exec.fault.stragglers", 1);
                        mcsim_obs::observe("exec.fault.straggle_factor", factor);
                        straggle = factor;
                    }
                }
                let duration = if straggle > 1.0 {
                    ((base_duration as f64 * straggle).ceil() as u64).clamp(1, 24)
                } else {
                    base_duration
                };

                let start_tick = self.cluster.tick_count();
                let assigned = self.cluster.step_window(&machines, duration);

                // Mid-flight kill: the attempt dies part-way through, its
                // partial work is burnt, and the stage retries after an
                // exponential backoff — until the retry budget runs out.
                let kill = if faults_on {
                    self.cluster.sample_stage_kill(s, attempt)
                } else {
                    None
                };
                placement.attempts.push(PlacedAttempt {
                    stage,
                    attempt,
                    machines,
                    start_tick,
                    duration,
                    straggle,
                    speculative,
                    kill,
                    assigned,
                });
                if kill.is_none() {
                    break;
                }
                mcsim_obs::counter("exec.fault.stage_kills", 1);
                if attempt >= self.retry.max_retries {
                    mcsim_obs::counter("exec.fault.stage_failures", 1);
                    placement.failure = Some(ExecFailure::StageFailed {
                        stage: s,
                        attempts: attempt + 1,
                    });
                    return placement;
                }
                let backoff = self.retry.backoff_ticks(attempt);
                self.cluster.record_retry(s, attempt + 1, backoff);
                self.cluster.advance(backoff);
                mcsim_obs::counter("exec.retry.attempts", 1);
                attempt += 1;
            }

            if let Some(deadline) = self.retry.deadline_ticks {
                let elapsed = self.cluster.tick_count() - query_start_tick;
                if elapsed > deadline {
                    mcsim_obs::counter("exec.deadline.exceeded", 1);
                    placement.failure = Some(ExecFailure::DeadlineExceeded {
                        deadline_ticks: deadline,
                        elapsed_ticks: elapsed,
                    });
                    return placement;
                }
            }
        }
        if mcsim_obs::enabled() {
            // The estimate is exact at small pools and a fixed-size machine
            // sample at fleet scale — the gauge must not re-introduce an
            // O(machines) cost on every query.
            mcsim_obs::gauge(
                "exec.cluster.utilization",
                self.cluster.utilization_estimate(),
            );
        }
        placement
    }

    /// The intrinsic (environment-free, noise-free) cost of a plan: the
    /// quantity an oracle with a neutral environment would pay. Useful for
    /// calibration and diagnostics.
    pub fn intrinsic_cost(&self, plan: &PlanTree, catalog: &Catalog) -> f64 {
        let cards = CardinalityModel::new(catalog).annotate(plan);
        let stages = decompose(plan);
        let skewed = detect_skew(plan, &stages, catalog);
        mcsim_catalog::workmodel::plan_work(
            plan,
            &cards,
            |id| WorkContext {
                skewed_inputs: skewed[id],
            },
            &self.params,
        ) * self.params.work_to_cost
    }
}

/// Measures a placed execution of `plan`: the pure half of
/// [`Executor::run`]. Per attempt, in placement order, it reads the loads
/// the attempt's machines carried over its window, turns them into the
/// environment multiplier, draws the noise and the queueing jitter from
/// the placement's noise seed, and adds up cost, wasted cost and latency,
/// emitting the environment-dependent observations and, when `trace` is
/// `Some`, one stage event per attempt. A placement that failed yields the
/// events of every attempt it placed, then its [`ExecFailure`].
///
/// Reads nothing but its arguments, so any thread may measure any
/// placement: the result is the same bits.
pub(crate) fn measure(
    plan: &ExecPlan,
    placement: &Placement,
    physics: Physics,
    trace: Option<&TraceContext>,
) -> Result<ExecutionOutcome, ExecFailure> {
    assert!(
        placement.signature == plan.signature,
        "a placement is measured against the plan it placed"
    );
    let mut noise_rng = StdRng::seed_from_u64(placement.noise_seed ^ plan.signature.0);
    let mut stage_envs = vec![EnvMetrics::default(); plan.stage_count];
    let mut stage_costs = vec![0.0; plan.stage_count];
    let mut latency = 0.0;
    let mut retries = 0u32;
    let mut wasted_cost = 0.0;
    let mut speculative_launches = 0u32;

    for a in &placement.attempts {
        let CompiledStage {
            index: s,
            work,
            instances,
            spool: has_spool,
            ..
        } = plan.stages[a.stage];
        // The observed environment is the average over machines and
        // window; a spooled stage is dampened.
        let env = physics
            .load
            .window_env(&a.machines, a.start_tick, a.duration, &a.assigned);
        let (mult, sigma) = if has_spool {
            (
                physics.env.spooled_multiplier(&env),
                physics.noise_sigma * 0.85,
            )
        } else {
            (physics.env.multiplier(&env), physics.noise_sigma)
        };
        let noise = (sigma * std_normal(&mut noise_rng) - 0.5 * sigma * sigma).exp();

        let mut cost = work * mult * noise * physics.work_to_cost;
        if a.speculative {
            speculative_launches += 1;
            cost *= 1.0 + physics.speculative_overhead;
        }
        let queue = (0.5 * std_normal(&mut noise_rng)).exp();

        // A killed attempt's partial work is burnt; a surviving one is the
        // stage's environment and cost.
        let (cost, killed) = match a.kill {
            Some(progress) => {
                let wasted = cost * progress;
                wasted_cost += wasted;
                stage_costs[s] += wasted;
                latency += wasted / instances as f64 * 1.2;
                // A finished execution retried every killed attempt.
                retries += 1;
                mcsim_obs::observe("exec.fault.wasted_cost", wasted);
                (wasted, true)
            }
            None => {
                stage_envs[s] = env;
                stage_costs[s] += cost;
                // Latency: stage wall time (stretched by any straggler)
                // plus queueing jitter.
                latency += cost / instances as f64 * 1.2 * queue * a.straggle;
                // Stage-granular observability (never per machine-tick):
                // the utilization of the machines this stage actually ran
                // on, and the queueing multiplier it suffered.
                mcsim_obs::observe("exec.stage.machine_busy", 1.0 - env.cpu_idle);
                mcsim_obs::observe("exec.stage.queue_wait_factor", queue);
                mcsim_obs::observe("exec.stage.cost", cost);
                (cost, false)
            }
        };
        if let Some(t) = trace {
            t.stage_event(StageExecEvent {
                stage: s,
                // A machine's allocation index is its stable id.
                machines: a.machines.iter().map(|&i| i as u32).collect(),
                start_tick: a.start_tick,
                end_tick: a.start_tick + a.duration,
                instances,
                queue_wait_factor: queue,
                cost,
                busy: 1.0 - env.cpu_idle,
                attempt: a.attempt,
                killed,
            });
        }
    }
    if let Some(failure) = &placement.failure {
        return Err(failure.clone());
    }

    Ok(ExecutionOutcome {
        cpu_cost: stage_costs.iter().sum(),
        latency,
        stage_envs,
        stage_costs,
        intrinsic_work: plan.stages.iter().fold(0.0, |total, s| total + s.work),
        retries,
        wasted_cost,
        speculative_launches,
    })
}

/// Detects joins whose shuffle was aggressively removed over a
/// mis-partitioned input: a hash/merge join child living in the *same* stage
/// (no exchange below it) whose join key on that side is not the primary key
/// of the underlying scan table suffers skew.
fn detect_skew(plan: &PlanTree, stages: &StageGraph, catalog: &Catalog) -> Vec<bool> {
    let mut skewed = vec![false; plan.len()];
    for (id, n) in plan.iter() {
        let Operator::Join {
            algo,
            left_keys,
            right_keys,
            ..
        } = &n.op
        else {
            continue;
        };
        if matches!(algo, JoinAlgo::Broadcast | JoinAlgo::NestedLoop) {
            continue; // broadcast reads the probe side in place by design
        }
        let sides = [(n.left, left_keys), (n.right, right_keys)];
        for (child, keys) in sides {
            let Some(child) = child else { continue };
            // An exchange (possibly under a spool) feeds this side: fine.
            if feeds_through_exchange(plan, child) {
                continue;
            }
            // Same stage means the shuffle was removed; check alignment.
            if stages.stage_of_node[child] == stages.stage_of_node[id] {
                let aligned = keys.iter().all(|&k| {
                    catalog
                        .column(k)
                        .and_then(|c| catalog.table(c.table).map(|t| c.ndv == t.rows))
                        .unwrap_or(false)
                });
                if !aligned {
                    skewed[id] = true;
                }
            }
        }
    }
    skewed
}

fn feeds_through_exchange(plan: &PlanTree, mut node: NodeId) -> bool {
    loop {
        match plan.op(node) {
            Operator::Exchange { .. } => return true,
            Operator::Spool { .. } => match plan.node(node).left {
                Some(c) => node = c,
                None => return false,
            },
            _ => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use mcsim_catalog::{ProjectId, ProjectProfile};
    use mcsim_optimizer::{Knobs, NativeOptimizer, OptimizerFlags};

    fn setup() -> (mcsim_catalog::Project, Executor) {
        let mut prof = ProjectProfile::evaluation_project(1).unwrap();
        prof.n_tables = 25;
        prof.n_temp_tables = 3;
        prof.n_columns = 200;
        prof.n_templates = 15;
        let project = prof.generate(ProjectId(1));
        let cluster = Cluster::new(99, ClusterConfig::default());
        let exec = Executor::new(99, cluster, 0.2);
        (project, exec)
    }

    #[test]
    fn execution_produces_positive_costs_and_envs() {
        let (p, mut exec) = setup();
        let opt = NativeOptimizer::new(&p.catalog);
        for q in p.workload_for_day(0).iter().take(10) {
            let plan = opt.optimize(q, &Knobs::default());
            let out = exec.execute(&plan, &p.catalog);
            assert!(out.cpu_cost > 0.0);
            assert!(out.latency > 0.0);
            assert!(!out.stage_envs.is_empty());
            assert!((out.cpu_cost - out.stage_costs.iter().sum::<f64>()).abs() < 1e-9);
        }
    }

    #[test]
    fn recurring_query_costs_fluctuate() {
        let (p, mut exec) = setup();
        let opt = NativeOptimizer::new(&p.catalog);
        let q = &p.workload_for_day(0)[0];
        let plan = opt.optimize(q, &Knobs::default());
        let costs: Vec<f64> = (0..30)
            .map(|_| {
                exec.cluster.advance(20);
                exec.execute(&plan, &p.catalog).cpu_cost
            })
            .collect();
        let mean = costs.iter().sum::<f64>() / costs.len() as f64;
        let var = costs.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / costs.len() as f64;
        let rsd = var.sqrt() / mean;
        assert!(rsd > 0.05, "costs should fluctuate, rsd={rsd}");
        assert!(rsd < 0.9, "but not absurdly, rsd={rsd}");
    }

    #[test]
    fn same_env_same_noise_seed_is_deterministic() {
        let (p, exec) = setup();
        let opt = NativeOptimizer::new(&p.catalog);
        let q = &p.workload_for_day(0)[0];
        let plan = opt.optimize(q, &Knobs::default());
        let mut e1 = exec.clone();
        let mut e2 = exec.clone();
        let compiled = exec.compile(&plan, &p.catalog);
        let a = e1.run(&compiled, Some(42), None).unwrap();
        let b = e2.run(&compiled, Some(42), None).unwrap();
        assert_eq!(a.cpu_cost, b.cpu_cost);
    }

    #[test]
    fn traced_execution_is_bit_identical_and_emits_timeline() {
        let (p, exec) = setup();
        let opt = NativeOptimizer::new(&p.catalog);
        let q = &p.workload_for_day(0)[0];
        let plan = opt.optimize(q, &Knobs::default());
        let mut plain = exec.clone();
        let mut traced = exec.clone();
        let ctx = TraceContext::new("exec test");
        let compiled = exec.compile(&plan, &p.catalog);
        let a = plain.run(&compiled, Some(42), None).unwrap();
        let b = traced.run(&compiled, Some(42), Some(&ctx)).unwrap();
        assert_eq!(a.cpu_cost, b.cpu_cost, "tracing must not perturb costs");
        let timeline = ctx.timeline();
        assert_eq!(timeline.len(), a.stage_costs.len(), "one event per stage");
        for ev in &timeline {
            assert!(!ev.machines.is_empty());
            assert!(ev.end_tick > ev.start_tick, "stages advance the cluster");
            assert!(ev.instances >= 1);
            assert!((ev.cost - a.stage_costs[ev.stage]).abs() < 1e-12);
        }
    }

    #[test]
    fn busier_cluster_costs_more_in_expectation() {
        let (p, _) = setup();
        let opt = NativeOptimizer::new(&p.catalog);
        let q = &p.workload_for_day(0)[0];
        let plan = opt.optimize(q, &Knobs::default());
        let run = |base_busy: f64| {
            let cluster = Cluster::new(
                7,
                ClusterConfig {
                    base_busy,
                    diurnal_amplitude: 0.0,
                    ..ClusterConfig::default()
                },
            );
            let mut exec = Executor::new(7, cluster, 0.1);
            exec.cluster.advance(50);
            let costs: Vec<f64> = (0..15)
                .map(|_| exec.execute(&plan, &p.catalog).cpu_cost)
                .collect();
            costs.iter().sum::<f64>() / costs.len() as f64
        };
        let quiet = run(0.15);
        let busy = run(0.85);
        assert!(busy > quiet * 1.15, "busy {busy} vs quiet {quiet}");
    }

    #[test]
    fn removed_shuffle_on_non_pk_key_is_penalized() {
        let (p, exec) = setup();
        let opt = NativeOptimizer::new(&p.catalog);
        // Find a join query where shuffle removal actually removes exchanges.
        let knobs_removed = Knobs {
            flags: OptimizerFlags {
                aggressive_shuffle_removal: true,
                ..OptimizerFlags::default()
            },
            card_scale: 1.0,
        };
        let queries = p.workload_for_days(0, 3);
        let mut found_penalty = false;
        for q in queries.iter().filter(|q| q.table_count() >= 2).take(40) {
            let removed = opt.optimize(q, &knobs_removed);
            let skews = detect_skew(&removed, &decompose(&removed), &p.catalog);
            if skews.iter().any(|&s| s) {
                // Intrinsic cost with skew must exceed the default plan's
                // shuffle-free-but-aligned treatment of the same join.
                let default = opt.optimize(q, &Knobs::default());
                let c_removed = exec.intrinsic_cost(&removed, &p.catalog);
                let c_default = exec.intrinsic_cost(&default, &p.catalog);
                // Not always more expensive end-to-end (it saves exchanges),
                // but the skew flag must be wired through.
                found_penalty = true;
                let _ = (c_removed, c_default);
                break;
            }
        }
        assert!(found_penalty, "skew detection should fire on some queries");
    }

    #[test]
    fn intrinsic_cost_is_noise_free_lower_level_of_execute() {
        let (p, mut exec) = setup();
        let opt = NativeOptimizer::new(&p.catalog);
        let q = &p.workload_for_day(0)[0];
        let plan = opt.optimize(q, &Knobs::default());
        let intr = exec.intrinsic_cost(&plan, &p.catalog);
        let out = exec.execute(&plan, &p.catalog);
        // Executed cost = intrinsic × multiplier × noise ⇒ strictly above
        // intrinsic for multipliers > 1 and mild noise.
        assert!(out.cpu_cost > intr * 0.8);
        assert!((out.intrinsic_work * exec.params.work_to_cost - intr).abs() / intr < 1e-9);
    }
}
