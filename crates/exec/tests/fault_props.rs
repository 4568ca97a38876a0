//! Property tests on the fault-injection layer: scenario replayability,
//! bit-identity of the disabled path, and the retry budget.

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
