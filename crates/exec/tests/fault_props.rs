//! Property tests on the fault-injection layer: scenario replayability,
//! bit-identity of the disabled path, and the retry budget; and a digest
//! pin of the whole fault path of `Executor::run`.

use mcsim_exec::{ChaosScenario, Cluster, ClusterConfig, Executor, FaultConfig, RetryPolicy};
use mcsim_obs::trace::TraceContext;
use mcsim_optimizer::{Knobs, NativeOptimizer};
use proptest::prelude::*;

fn project(seed: u64) -> mcsim_catalog::Project {
    let mut prof = mcsim_catalog::ProjectProfile::random(seed);
    prof.n_tables = prof.n_tables.clamp(8, 18);
    prof.n_temp_tables = prof.n_temp_tables.min(2);
    prof.n_columns = prof.n_columns.clamp(60, 140);
    prof.n_templates = prof.n_templates.clamp(4, 8);
    prof.generate(mcsim_catalog::ProjectId(1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seed + same FaultConfig ⇒ identical execution outcomes AND an
    /// identical (byte-for-byte) fault log, query after query.
    #[test]
    fn same_seed_same_config_replays_identically(seed in 0u64..1000, scale_x10 in 5u64..40) {
        let p = project(seed);
        let opt = NativeOptimizer::new(&p.catalog);
        let plan = opt.optimize(&p.workload_for_day(0)[0], &Knobs::default());
        let scenario = ChaosScenario::new(seed ^ 0xc4a0)
            .fault_scale(scale_x10 as f64 / 10.0);
        let mut a = scenario.build();
        let mut b = scenario.build();
        for _ in 0..6 {
            let ra = a.try_execute(&plan, &p.catalog);
            let rb = b.try_execute(&plan, &p.catalog);
            prop_assert_eq!(ra, rb);
        }
        prop_assert_eq!(a.cluster.fault_log(), b.cluster.fault_log());
        prop_assert_eq!(a.cluster.tick_count(), b.cluster.tick_count());
    }

    /// Fault rate 0 ⇒ bit-identical costs to the fault-free path: arming the
    /// injector with all-zero probabilities draws nothing and changes
    /// nothing, down to the last bit of every cost and latency.
    #[test]
    fn zero_fault_rate_is_bit_identical_to_fault_free(seed in 0u64..1000) {
        let p = project(seed);
        let opt = NativeOptimizer::new(&p.catalog);
        let plan = opt.optimize(&p.workload_for_day(0)[0], &Knobs::default());

        let cluster = Cluster::new(seed, ClusterConfig::default());
        let mut plain = Executor::new(seed, cluster, 0.2);
        plain.cluster.advance(60);

        let mut armed_zero = plain.clone();
        armed_zero.cluster.set_fault_config(FaultConfig::chaos(seed).scaled(0.0));

        let compiled = plain.compile(&plan, &p.catalog);
        for _ in 0..4 {
            let a = plain.run(&compiled, Some(seed ^ 7), None).unwrap();
            let b = armed_zero.run(&compiled, Some(seed ^ 7), None).unwrap();
            prop_assert_eq!(a.cpu_cost.to_bits(), b.cpu_cost.to_bits());
            prop_assert_eq!(a.latency.to_bits(), b.latency.to_bits());
            prop_assert_eq!(&a.stage_costs, &b.stage_costs);
            prop_assert_eq!(a.retries, 0);
            prop_assert_eq!(a.wasted_cost, 0.0);
            prop_assert_eq!(a.speculative_launches, 0);
        }
        prop_assert!(armed_zero.cluster.fault_log().is_empty());
    }

    /// Retries never exceed the configured budget: per-query retries are
    /// bounded by `max_retries × stages`, and no traced attempt index ever
    /// exceeds `max_retries`.
    #[test]
    fn retries_never_exceed_budget(seed in 0u64..500, max_retries in 0u32..4) {
        let p = project(seed);
        let opt = NativeOptimizer::new(&p.catalog);
        let plan = opt.optimize(&p.workload_for_day(0)[0], &Knobs::default());
        let mut exec = ChaosScenario::new(seed)
            .fault(FaultConfig {
                stage_kill_prob: 0.35, // aggressive, to actually exercise the budget
                ..FaultConfig::chaos(seed)
            })
            .retry(RetryPolicy {
                max_retries,
                ..RetryPolicy::default()
            })
            .build();
        let compiled = exec.compile(&plan, &p.catalog);
        for _ in 0..5 {
            let ctx = TraceContext::new("budget");
            match exec.run(&compiled, None, Some(&ctx)) {
                Ok(out) => {
                    let stages = out.stage_costs.len() as u32;
                    prop_assert!(out.retries <= max_retries * stages,
                        "retries {} > budget {} x {} stages", out.retries, max_retries, stages);
                }
                Err(e) => {
                    prop_assert!(
                        matches!(e, mcsim_exec::ExecFailure::StageFailed { attempts, .. }
                            if attempts == max_retries + 1),
                        "failure must come exactly at budget exhaustion: {e}"
                    );
                }
            }
            for ev in ctx.timeline() {
                prop_assert!(ev.attempt <= max_retries,
                    "attempt {} exceeds budget {}", ev.attempt, max_retries);
            }
        }
    }
}

/// FNV-1a over 64-bit words: the fault-path digest below folds every
/// value bit for bit.
struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn eat_f64(&mut self, x: f64) {
        self.eat(x.to_bits());
    }

    fn eat_str(&mut self, s: &str) {
        self.eat(s.len() as u64);
        s.bytes().for_each(|b| self.eat(u64::from(b)));
    }
}

/// What `fault_path_outcomes_timelines_and_logs_are_pinned` folds to,
/// recorded from the one-pass stage loop that `Executor::run` had before
/// it became placing followed by measuring.
const FAULT_PATH_DIGEST: u64 = 0xd5ad_0f07_df4f_bec9;

/// Pins the whole fault path of `Executor::run`: stage kills, stragglers
/// with speculative backups, a tight retry budget and a deadline, on both
/// engines. Every result is folded into one digest: `Ok` outcomes bit for
/// bit (stage environments, stage costs, retries, wasted cost, speculative
/// launches), the `StageFailed` and `DeadlineExceeded` values, every stage
/// event of each run's trace timeline (failed runs included), and each
/// executor's final tick and fault log.
#[test]
fn fault_path_outcomes_timelines_and_logs_are_pinned() {
    use mcsim_exec::{EngineMode, ExecFailure};

    let p = project(0xfa01);
    let opt = NativeOptimizer::new(&p.catalog);
    let plans: Vec<_> = p
        .workload_for_day(0)
        .iter()
        .take(4)
        .map(|q| opt.optimize(q, &Knobs::default()))
        .collect();
    let scenarios = [
        (
            0x51u64,
            FaultConfig {
                stage_kill_prob: 0.3,
                straggler_prob: 0.35,
                ..FaultConfig::chaos(0x51)
            },
            RetryPolicy {
                max_retries: 1,
                backoff_base_ticks: 2,
                deadline_ticks: Some(14),
                ..RetryPolicy::default()
            },
        ),
        (
            0x52,
            FaultConfig {
                stage_kill_prob: 0.45,
                straggler_prob: 0.2,
                ..FaultConfig::chaos(0x52)
            },
            RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            },
        ),
        (
            0x53,
            FaultConfig {
                machine_fail_prob: 0.01,
                machine_downtime_ticks: 12,
                ..FaultConfig::chaos(0x53).scaled(3.0)
            },
            RetryPolicy {
                max_retries: 2,
                speculative_threshold: 1.4,
                deadline_ticks: Some(30),
                ..RetryPolicy::default()
            },
        ),
    ];
    let mut fp = Fnv(0xcbf2_9ce4_8422_2325);
    let (mut ok_retried, mut stage_failed, mut deadline, mut speculative) = (0, 0, 0, 0);
    for engine in [EngineMode::EventDriven, EngineMode::DenseTick] {
        for (seed, fault, retry) in &scenarios {
            let mut exec = ChaosScenario::new(*seed)
                .fault(fault.clone())
                .retry(retry.clone())
                .engine(engine)
                .build();
            for (k, plan) in plans.iter().enumerate() {
                let compiled = exec.compile(plan, &p.catalog);
                for round in 0..3u64 {
                    let ctx = TraceContext::new("fault path");
                    let noise = (round % 2 == 1).then_some(seed ^ round);
                    match exec.run(&compiled, noise, Some(&ctx)) {
                        Ok(out) => {
                            fp.eat(0);
                            fp.eat_f64(out.cpu_cost);
                            fp.eat_f64(out.latency);
                            for env in &out.stage_envs {
                                for x in [env.cpu_idle, env.io_wait, env.load5, env.mem_usage] {
                                    fp.eat_f64(x);
                                }
                            }
                            out.stage_costs.iter().for_each(|&c| fp.eat_f64(c));
                            fp.eat_f64(out.intrinsic_work);
                            fp.eat(u64::from(out.retries));
                            fp.eat_f64(out.wasted_cost);
                            fp.eat(u64::from(out.speculative_launches));
                            ok_retried += usize::from(out.retries > 0);
                            speculative += out.speculative_launches as usize;
                        }
                        Err(ExecFailure::StageFailed { stage, attempts }) => {
                            fp.eat(1);
                            fp.eat(stage as u64);
                            fp.eat(u64::from(attempts));
                            stage_failed += 1;
                        }
                        Err(ExecFailure::DeadlineExceeded {
                            deadline_ticks,
                            elapsed_ticks,
                        }) => {
                            fp.eat(2);
                            fp.eat(deadline_ticks);
                            fp.eat(elapsed_ticks);
                            deadline += 1;
                        }
                    }
                    let timeline = ctx.timeline();
                    fp.eat(timeline.len() as u64);
                    for ev in &timeline {
                        fp.eat(ev.stage as u64);
                        fp.eat(ev.machines.len() as u64);
                        ev.machines.iter().for_each(|&m| fp.eat(u64::from(m)));
                        fp.eat(ev.start_tick);
                        fp.eat(ev.end_tick);
                        fp.eat(ev.instances as u64);
                        fp.eat_f64(ev.queue_wait_factor);
                        fp.eat_f64(ev.cost);
                        fp.eat_f64(ev.busy);
                        fp.eat(u64::from(ev.attempt));
                        fp.eat(u64::from(ev.killed));
                    }
                    exec.cluster.advance(3 + k as u64);
                }
            }
            fp.eat(exec.cluster.tick_count());
            fp.eat_str(&format!("{:?}", exec.cluster.fault_log()));
        }
    }
    assert!(
        ok_retried > 0 && stage_failed > 0 && deadline > 0 && speculative > 0,
        "every fault class must be exercised: {ok_retried} retried, {stage_failed} \
         stage failures, {deadline} deadlines, {speculative} speculative launches"
    );
    assert_eq!(fp.0, FAULT_PATH_DIGEST, "digest {:#018x}", fp.0);
}
