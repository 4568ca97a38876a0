//! Property tests of the discrete-event simulation core: the event-driven
//! engine is bit-identical to the dense per-tick reference engine, the
//! event queue never pops out of time order, and lazy evaluation at a
//! jumped-to tick equals step-by-step ticking to exact f64 equality.
//!
//! These are the guarantees that let the event engine replace the dense
//! loop as the default: anything the dense engine would have computed —
//! loads, allocation choices, fault schedules, execution outcomes — the
//! event engine computes identically, while doing `O(events)` work per
//! advance instead of `O(machines × ticks)`. The windowed stage read
//! (`LoadModel::load_window`, `Cluster::window_env`) is held to the
//! per-tick reads it replaced the same way, and a reused compiled plan
//! (`ExecPlan`) to a fresh compile per run.

use mcsim_catalog::EnvMetrics;
use mcsim_exec::{
    ChaosScenario, Cluster, ClusterConfig, EngineMode, FaultConfig, FaultEvent, LoadDynamics,
    LoadModel, OU_WINDOW,
};
use mcsim_plan::{PlanSignature, PlanTree};
use proptest::prelude::*;

fn project(seed: u64) -> mcsim_catalog::Project {
    let mut prof = mcsim_catalog::ProjectProfile::random(seed);
    prof.n_tables = prof.n_tables.clamp(8, 18);
    prof.n_temp_tables = prof.n_temp_tables.min(2);
    prof.n_columns = prof.n_columns.clamp(60, 140);
    prof.n_templates = prof.n_templates.clamp(4, 8);
    prof.generate(mcsim_catalog::ProjectId(1))
}

/// A small cluster in the requested engine mode, optionally fault-armed.
fn cluster(
    seed: u64,
    n_machines: usize,
    engine: EngineMode,
    fault: Option<FaultConfig>,
) -> Cluster {
    let mut c = Cluster::new(
        seed,
        ClusterConfig {
            n_machines,
            engine,
            ..ClusterConfig::default()
        },
    );
    if let Some(f) = fault {
        c.set_fault_config(f);
    }
    c
}

/// The stage-window read `Cluster::window_env` replaced, kept as its
/// oracle: the mean load over `machines` before and after each of
/// `duration` steps, then the mean over those ticks.
fn window_oracle(c: &mut Cluster, machines: &[usize], duration: u64) -> EnvMetrics {
    let mut window = Vec::with_capacity(duration as usize + 1);
    window.push(c.mean_load_of(machines));
    for _ in 0..duration {
        c.step();
        window.push(c.mean_load_of(machines));
    }
    EnvMetrics::mean(window.iter())
}

/// The raw bits of every metric, so equality means bit identity.
fn bits(e: &EnvMetrics) -> [u64; 4] {
    [e.cpu_idle, e.io_wait, e.load5, e.mem_usage].map(f64::to_bits)
}

/// Every time-stamped entry of a fault log, in log order.
fn log_ticks(log: &[FaultEvent]) -> Vec<u64> {
    log.iter()
        .filter_map(|ev| match ev {
            FaultEvent::MachineDown { tick, .. } | FaultEvent::MachineUp { tick, .. } => {
                Some(*tick)
            }
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Tentpole guarantee, cluster level: over random seeds, pool sizes,
    /// and fault configurations, an interleaved sequence of advances,
    /// allocations, and reads leaves the event-driven and dense-tick
    /// engines in bit-identical states.
    #[test]
    fn engines_are_bit_identical_across_random_scenarios(
        seed in 0u64..10_000,
        n_machines in 2usize..48,
        fail_prob_x1e4 in 0u64..200,   // 0 .. 0.02 per machine-tick
        downtime in 2u64..60,
        advance in 1u64..40,
        rounds in 1usize..10,
    ) {
        let fault = FaultConfig {
            machine_fail_prob: fail_prob_x1e4 as f64 / 1.0e4,
            machine_downtime_ticks: downtime,
            ..FaultConfig::chaos(seed ^ 0xfa)
        };
        let mut e = cluster(seed, n_machines, EngineMode::EventDriven, Some(fault.clone()));
        let mut d = cluster(seed, n_machines, EngineMode::DenseTick, Some(fault));
        for round in 0..rounds {
            e.advance(advance);
            d.advance(advance);
            let want = 1 + round % 5;
            let a = e.allocate(want, 0.15);
            let b = d.allocate(want, 0.15);
            prop_assert_eq!(&a, &b, "allocation choices diverged");
            prop_assert_eq!(e.mean_load_of(&a), d.mean_load_of(&b));
            prop_assert_eq!(e.down_count(), d.down_count());
            let probe = (seed as usize + round) % n_machines;
            let (me, md) = (e.machine(probe), d.machine(probe));
            prop_assert_eq!(me.load, md.load);
            prop_assert_eq!(me.assigned_busy.to_bits(), md.assigned_busy.to_bits());
        }
        prop_assert_eq!(e.fault_log(), d.fault_log());
        prop_assert_eq!(e.tick_count(), d.tick_count());
        prop_assert_eq!(e.cluster_mean(), d.cluster_mean());
        prop_assert_eq!(e.history_mean(), d.history_mean());
    }

    /// Tentpole guarantee, executor level: a full chaos scenario — warm-up,
    /// fault injection, retries, speculative launches, log-normal noise —
    /// produces bit-identical execution outcomes on both engines.
    #[test]
    fn executors_on_both_engines_produce_identical_outcomes(
        seed in 0u64..2_000,
        scale_x10 in 0u64..30,
    ) {
        let p = project(seed);
        let opt = mcsim_optimizer::NativeOptimizer::new(&p.catalog);
        let plan = opt.optimize(
            &p.workload_for_day(0)[0],
            &mcsim_optimizer::Knobs::default(),
        );
        let base = ChaosScenario::new(seed ^ 0xe7e0).fault_scale(scale_x10 as f64 / 10.0);
        let mut ev = base.clone().engine(EngineMode::EventDriven).build();
        let mut dn = base.engine(EngineMode::DenseTick).build();
        for _ in 0..4 {
            let a = ev.try_execute(&plan, &p.catalog);
            let b = dn.try_execute(&plan, &p.catalog);
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(ev.cluster.fault_log(), dn.cluster.fault_log());
        prop_assert_eq!(ev.cluster.tick_count(), dn.cluster.tick_count());
    }

    /// The event queue never pops out of time order: the fault log — which
    /// is appended to exclusively by popped events — is non-decreasing in
    /// tick, no logged event is in the simulated future, and every
    /// recovery lands exactly at its failure's `until`.
    #[test]
    fn heap_never_pops_out_of_time_order(
        seed in 0u64..10_000,
        n_machines in 1usize..32,
        downtime in 2u64..40,
        jumps in proptest::collection::vec(1u64..200, 1..12),
    ) {
        let fault = FaultConfig {
            machine_fail_prob: 0.02, // hot enough to queue many overlapping timers
            machine_downtime_ticks: downtime,
            ..FaultConfig::chaos(seed ^ 0x0dd)
        };
        let mut c = cluster(seed, n_machines, EngineMode::EventDriven, Some(fault));
        for n in jumps {
            c.advance(n);
            let ticks = log_ticks(c.fault_log());
            prop_assert!(
                ticks.windows(2).all(|w| w[0] <= w[1]),
                "fault log out of time order: {ticks:?}"
            );
            prop_assert!(
                ticks.last().is_none_or(|&t| t <= c.tick_count()),
                "logged event in the future"
            );
        }
        // Pair up each machine's downs and ups: recovery tick == `until`.
        let mut pending: std::collections::HashMap<u32, u64> = Default::default();
        for ev in c.fault_log() {
            match *ev {
                FaultEvent::MachineDown { machine, until, .. } => {
                    prop_assert!(pending.insert(machine, until).is_none(),
                        "machine {machine} failed while already down");
                }
                FaultEvent::MachineUp { machine, tick } => {
                    prop_assert_eq!(pending.remove(&machine), Some(tick),
                        "recovery must land exactly at the scheduled `until`");
                }
                _ => {}
            }
        }
    }

    /// Lazy advance equals step-by-step ticking to exact f64 equality: an
    /// event-mode cluster advanced in one jump is bit-identical to the same
    /// cluster advanced one tick at a time — loads, fault log, counters.
    #[test]
    fn one_jump_equals_tick_by_tick_to_the_bit(
        seed in 0u64..10_000,
        n_machines in 1usize..32,
        span in 1u64..400,
        fail_prob_x1e4 in 0u64..100,
    ) {
        let fault = FaultConfig {
            machine_fail_prob: fail_prob_x1e4 as f64 / 1.0e4,
            machine_downtime_ticks: 13,
            ..FaultConfig::chaos(seed ^ 0x1a2)
        };
        let mut jump = cluster(seed, n_machines, EngineMode::EventDriven, Some(fault.clone()));
        let mut ticked = cluster(seed, n_machines, EngineMode::EventDriven, Some(fault));
        jump.advance(span);
        for _ in 0..span {
            ticked.step();
        }
        prop_assert_eq!(jump.tick_count(), ticked.tick_count());
        prop_assert_eq!(jump.fault_log(), ticked.fault_log());
        prop_assert_eq!(jump.down_count(), ticked.down_count());
        for m in 0..n_machines {
            prop_assert_eq!(jump.machine(m).load, ticked.machine(m).load);
        }
        prop_assert_eq!(jump.cluster_mean(), ticked.cluster_mean());
        prop_assert_eq!(jump.history_mean(), ticked.history_mean());
        // Both drained the same events; the jump did no extra work.
        prop_assert_eq!(jump.engine_stats().events, ticked.engine_stats().events);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `load_window` is per-tick `load_at` to the bit: over random seeds,
    /// machines, mean-reversion rates and placed work, for windows of 1 to
    /// 25 ticks (the 24-tick straggler ceiling plus one) starting both
    /// inside the first `OU_WINDOW − 1` ticks, where every chain is
    /// truncated, and far past them.
    #[test]
    fn load_window_equals_per_tick_load_at(
        seed in 0u64..u64::MAX,
        machine in 0u64..20_000,
        theta in 0.01f64..0.5,
        early in 0u64..OU_WINDOW,
        late in OU_WINDOW..1_000_000,
        assigned in proptest::collection::vec(0.0f64..1.2, 1..=25),
    ) {
        let model = LoadModel {
            seed,
            base_busy: 0.45,
            diurnal_amplitude: 0.18,
            dynamics: LoadDynamics {
                theta,
                ..LoadDynamics::default()
            },
        };
        for start in [0, early, late] {
            let window = model.load_window(machine, start, &assigned);
            prop_assert_eq!(window.len(), assigned.len());
            for ((tick, &a), got) in (start..).zip(&assigned).zip(&window) {
                let want = model.load_at(machine, tick, a);
                prop_assert_eq!(
                    bits(got),
                    bits(&want),
                    "machine {} tick {} (window from {})", machine, tick, start
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `window_env` equals the per-tick window loop it replaced, on both
    /// engines with faults armed: the same environment bits, ticks, fault
    /// log, engine counters (one lazy advance per machine per tick read in
    /// event mode) and dense-engine eager work, through stacked
    /// allocations read in allocation order and reversed.
    #[test]
    fn window_env_equals_the_per_tick_window_loop(
        seed in 0u64..10_000,
        n_machines in 1usize..48,
        fail_prob_x1e4 in 0u64..200,
        stages in proptest::collection::vec((0u64..12, 1u64..=24), 1..10),
    ) {
        for engine in [EngineMode::EventDriven, EngineMode::DenseTick] {
            let fault = FaultConfig {
                machine_fail_prob: fail_prob_x1e4 as f64 / 1.0e4,
                machine_downtime_ticks: 9,
                ..FaultConfig::chaos(seed ^ 0x3d)
            };
            let mut fast = cluster(seed, n_machines, engine, Some(fault.clone()));
            let mut oracle = cluster(seed, n_machines, engine, Some(fault));
            for (k, &(gap, duration)) in stages.iter().enumerate() {
                fast.advance(gap);
                oracle.advance(gap);
                let mut machines = fast.allocate(1 + k % 6, 0.3);
                prop_assert_eq!(&machines, &oracle.allocate(1 + k % 6, 0.3));
                if k % 2 == 1 {
                    machines.reverse();
                }
                let got = fast.window_env(&machines, duration);
                let want = window_oracle(&mut oracle, &machines, duration);
                prop_assert_eq!(bits(&got), bits(&want), "{:?} stage {}", engine, k);
                prop_assert_eq!(fast.tick_count(), oracle.tick_count());
                prop_assert_eq!(fast.engine_stats(), oracle.engine_stats());
                prop_assert_eq!(
                    fast.dense_checksum().to_bits(),
                    oracle.dense_checksum().to_bits()
                );
            }
            prop_assert_eq!(fast.fault_log(), oracle.fault_log());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A compiled plan carries no state between runs: one `ExecPlan` run
    /// on N clones of a fault-armed snapshot (each clone advanced a little
    /// further) equals, clone by clone, compiling the plan afresh through
    /// the `try_execute*` entry points — outcome, fault log, tick and
    /// engine counters, on both engines, with drawn and fixed noise seeds.
    #[test]
    fn one_exec_plan_runs_like_a_fresh_compile_on_every_clone(
        seed in 0u64..5_000,
        scale_x10 in 0u64..30,
        clones in 1usize..5,
    ) {
        let p = project(seed);
        let opt = mcsim_optimizer::NativeOptimizer::new(&p.catalog);
        let plans: Vec<PlanTree> = p
            .workload_for_day(0)
            .iter()
            .take(3)
            .map(|q| opt.optimize(q, &mcsim_optimizer::Knobs::default()))
            .collect();
        for engine in [EngineMode::EventDriven, EngineMode::DenseTick] {
            let snapshot = ChaosScenario::new(seed ^ 0xc0de)
                .fault_scale(scale_x10 as f64 / 10.0)
                .engine(engine)
                .build();
            for plan in &plans {
                let compiled = snapshot.compile(plan, &p.catalog);
                prop_assert_eq!(compiled.signature(), PlanSignature::of(plan));
                for k in 0..clones {
                    let mut reused = snapshot.clone();
                    reused.cluster.advance(7 * k as u64);
                    let mut fresh = reused.clone();
                    let noise = (k % 2 == 1).then_some(seed ^ k as u64);
                    let a = reused.run(&compiled, noise, None);
                    let b = match noise {
                        Some(_) => fresh.run(&fresh.compile(plan, &p.catalog), noise, None),
                        None => fresh.try_execute(plan, &p.catalog),
                    };
                    prop_assert_eq!(a, b, "{:?} clone {}", engine, k);
                    prop_assert_eq!(reused.cluster.fault_log(), fresh.cluster.fault_log());
                    prop_assert_eq!(reused.cluster.tick_count(), fresh.cluster.tick_count());
                    prop_assert_eq!(reused.cluster.engine_stats(), fresh.cluster.engine_stats());
                }
            }
        }
    }
}

/// A plan compiled under one work model must not run under another: its
/// stage work would silently belong to the wrong model.
#[test]
#[should_panic(expected = "different WorkParams")]
fn running_a_plan_compiled_under_other_work_params_panics() {
    let p = project(0x9a7);
    let opt = mcsim_optimizer::NativeOptimizer::new(&p.catalog);
    let plan = opt.optimize(
        &p.workload_for_day(0)[0],
        &mcsim_optimizer::Knobs::default(),
    );
    let mut exec = ChaosScenario::new(0x9a7).build();
    let compiled = exec.compile(&plan, &p.catalog);
    exec.params.spill_penalty *= 2.0;
    let _ = exec.run(&compiled, None, None);
}

/// Determinism is thread-count independent: replaying the same scenario on
/// worker pools of 1, 2, and 8 threads yields byte-identical outcome
/// streams. (Each replay owns its executor — the engine shares no hidden
/// global state — so parallelism cannot reorder any RNG stream.)
#[test]
fn bit_identity_holds_on_1_2_and_8_threads() {
    let p = project(0x7ead);
    let opt = mcsim_optimizer::NativeOptimizer::new(&p.catalog);
    let plan = opt.optimize(
        &p.workload_for_day(0)[0],
        &mcsim_optimizer::Knobs::default(),
    );
    let scenario = ChaosScenario::new(0x7ead).fault_scale(2.0);
    let replay = |engine: EngineMode| {
        let mut exec = scenario.clone().engine(engine).build();
        (0..6)
            .map(|_| exec.try_execute(&plan, &p.catalog))
            .collect::<Vec<_>>()
    };
    let mut runs = Vec::new();
    for threads in [1usize, 2, 8] {
        let pool = mcsim_par::ThreadPool::new(threads);
        let both = pool.parallel_map(
            &[EngineMode::EventDriven, EngineMode::DenseTick],
            |&engine| replay(engine),
        );
        assert_eq!(
            both[0], both[1],
            "engines diverged on a {threads}-thread pool"
        );
        runs.push(both[0].clone());
    }
    assert_eq!(runs[0], runs[1], "1-thread vs 2-thread replay diverged");
    assert_eq!(runs[1], runs[2], "2-thread vs 8-thread replay diverged");
}
