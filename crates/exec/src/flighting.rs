//! The flighting environment: replaying plans for unbiased measurement.
//!
//! MaxCompute's flighting environment "can replay user query plans without
//! compromising privacy or disrupting the normal service of the user's
//! project" (Section 3). The simulator's version clones the executor so
//! replays never disturb the production cluster state, and offers a
//! *synchronized* mode that executes a whole candidate set under the same
//! environment instance — the `C_e(P_i)` samples needed to estimate the
//! deviance quantities of Section 5 and Appendix E.1.

use crate::cluster::{Cluster, ClusterConfig};
use crate::execute::{infallible, ExecPlan, ExecutionOutcome, Executor};
use mcsim_catalog::Catalog;
use mcsim_plan::PlanTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A flighting environment with its own isolated cluster.
#[derive(Debug, Clone)]
pub struct Flighting {
    executor: Executor,
    rng: StdRng,
}

impl Flighting {
    /// Creates a flighting environment.
    pub fn new(seed: u64, noise_sigma: f64) -> Self {
        let cluster = Cluster::new(seed ^ 0xf11c, ClusterConfig::default());
        let mut executor = Executor::new(seed ^ 0xf22c, cluster, noise_sigma);
        // Warm the cluster so history buffers and loads are realistic.
        executor.cluster.advance(120);
        Flighting {
            executor,
            rng: StdRng::seed_from_u64(seed ^ 0xf33c),
        }
    }

    /// Creates a flighting environment with a custom cluster configuration.
    pub fn with_cluster(seed: u64, noise_sigma: f64, config: ClusterConfig) -> Self {
        let cluster = Cluster::new(seed ^ 0xf11c, config);
        let mut executor = Executor::new(seed ^ 0xf22c, cluster, noise_sigma);
        executor.cluster.advance(120);
        Flighting {
            executor,
            rng: StdRng::seed_from_u64(seed ^ 0xf33c),
        }
    }

    /// Access to the underlying executor (read-only diagnostics).
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// Replays `plan` `rounds` times under independently evolving
    /// environments, returning each outcome. The shared cluster advances a
    /// random interval between rounds so environments decorrelate; the plan
    /// is compiled once for all rounds.
    pub fn replay(
        &mut self,
        plan: &PlanTree,
        catalog: &Catalog,
        rounds: usize,
    ) -> Vec<ExecutionOutcome> {
        mcsim_obs::counter("exec.flighting.replays", rounds as u64);
        let compiled = self.executor.compile(plan, catalog);
        (0..rounds)
            .map(|_| {
                self.executor.cluster.advance(self.rng.gen_range(5..60));
                infallible(self.executor.run(&compiled, None, None))
            })
            .collect()
    }

    /// Replays every plan of a candidate set under the *same* sequence of
    /// environment instances: for each round the cluster state is snapshotted
    /// and every plan executes from that snapshot, with a per-(round, plan)
    /// deterministic noise seed. Returns `costs[round][plan]`.
    ///
    /// Only the flighting RNG and the shared cluster evolve: each round's
    /// advance and noise seed are drawn serially up front, each plan is
    /// compiled once for all rounds, and a replay runs on a clone of its
    /// round's snapshot and never writes back. All
    /// `rounds × plans` replays therefore fan out across the `mcsim_par`
    /// pool, with costs identical at any thread count. For one replay's
    /// machine timeline, [`Executor::run`] it with a trace on a clone of
    /// [`Flighting::executor`].
    pub fn replay_synchronized(
        &mut self,
        plans: &[&PlanTree],
        catalog: &Catalog,
        rounds: usize,
    ) -> Vec<Vec<f64>> {
        mcsim_obs::counter("exec.flighting.synchronized_rounds", rounds as u64);
        mcsim_obs::counter("exec.flighting.replays", (rounds * plans.len()) as u64);
        let snapshots: Vec<(Executor, u64)> = (0..rounds)
            .map(|_| {
                self.executor.cluster.advance(self.rng.gen_range(10..80));
                let round_seed: u64 = self.rng.gen();
                (self.executor.clone(), round_seed)
            })
            .collect();
        if plans.is_empty() {
            return vec![Vec::new(); rounds];
        }
        let compiled: Vec<ExecPlan> = plans
            .iter()
            .map(|plan| self.executor.compile(plan, catalog))
            .collect();
        let replays: Vec<(usize, usize)> = (0..rounds)
            .flat_map(|round| (0..plans.len()).map(move |plan| (round, plan)))
            .collect();
        let costs = mcsim_par::ThreadPool::global().parallel_map(&replays, |&(round, plan)| {
            // Same environment (a clone of the round's snapshot), per-plan
            // noise deterministic in (round, plan).
            let (snapshot, round_seed) = &snapshots[round];
            let plan = &compiled[plan];
            let seed = round_seed ^ plan.signature().0.rotate_left(17);
            infallible(snapshot.clone().run(plan, Some(seed), None)).cpu_cost
        });
        costs.chunks(plans.len()).map(<[f64]>::to_vec).collect()
    }

    /// Average cost of `plan` over `rounds` replays (convenience for
    /// evaluation: "each candidate plan is executed multiple times, and the
    /// average cost is used", Section 7.1).
    pub fn average_cost(&mut self, plan: &PlanTree, catalog: &Catalog, rounds: usize) -> f64 {
        let outs = self.replay(plan, catalog, rounds);
        outs.iter().map(|o| o.cpu_cost).sum::<f64>() / rounds.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim_catalog::{ProjectId, ProjectProfile};
    use mcsim_optimizer::{Knobs, NativeOptimizer};

    /// The shared optimize-and-replay fixture: a small project, a flighting
    /// environment, and the default plan of the project's first query —
    /// everything the replay tests previously set up by hand, each slightly
    /// differently.
    fn fixture() -> (mcsim_catalog::Project, Flighting, PlanTree) {
        let mut prof = ProjectProfile::evaluation_project(1).unwrap();
        prof.n_tables = 20;
        prof.n_temp_tables = 2;
        prof.n_columns = 160;
        prof.n_templates = 10;
        let project = prof.generate(ProjectId(1));
        let opt = NativeOptimizer::new(&project.catalog);
        let plan = opt.optimize(&project.workload_for_day(0)[0], &Knobs::default());
        (project, Flighting::new(5, 0.2), plan)
    }

    #[test]
    fn replay_returns_requested_rounds() {
        let (p, mut fl, plan) = fixture();
        let outs = fl.replay(&plan, &p.catalog, 7);
        assert_eq!(outs.len(), 7);
        // Environments vary between rounds.
        let costs: Vec<f64> = outs.iter().map(|o| o.cpu_cost).collect();
        let all_same = costs.windows(2).all(|w| w[0] == w[1]);
        assert!(!all_same);
    }

    #[test]
    fn synchronized_replay_shares_environment_within_round() {
        let (p, mut fl, plan) = fixture();
        // Same plan listed twice must yield the exact same cost each round
        // (same environment snapshot + same deterministic noise seed).
        let costs = fl.replay_synchronized(&[&plan, &plan], &p.catalog, 5);
        for row in &costs {
            assert_eq!(row[0], row[1]);
        }
    }

    #[test]
    fn replays_do_not_disturb_each_other_across_plans() {
        let (p, mut fl, plan_a) = fixture();
        let opt = NativeOptimizer::new(&p.catalog);
        let plan_b = opt.optimize(&p.workload_for_day(0)[1], &Knobs::default());
        let rows = fl.replay_synchronized(&[&plan_a, &plan_b], &p.catalog, 3);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.len() == 2));
        assert!(rows.iter().flatten().all(|&c| c > 0.0));
    }

    #[test]
    fn synchronized_replay_is_identical_at_1_2_and_8_threads() {
        let (p, fl, plan_a) = fixture();
        let opt = NativeOptimizer::new(&p.catalog);
        let plan_b = opt.optimize(&p.workload_for_day(0)[1], &Knobs::default());
        let plans = [&plan_a, &plan_b, &plan_a];
        let replay = |threads| {
            let mut fl = fl.clone();
            let costs =
                mcsim_par::with_threads(threads, || fl.replay_synchronized(&plans, &p.catalog, 6));
            (costs, fl.executor().cluster.tick_count())
        };
        let bits =
            |c: &[Vec<f64>]| -> Vec<u64> { c.concat().iter().map(|x| x.to_bits()).collect() };
        let (reference, ticks) = replay(1);
        assert_eq!(reference.len(), 6);
        assert!(reference.iter().all(|row| row.len() == plans.len()));
        for threads in [2, 8] {
            let (costs, t) = replay(threads);
            assert_eq!(bits(&costs), bits(&reference), "{threads} threads");
            assert_eq!(t, ticks, "{threads} threads");
        }
    }

    #[test]
    fn synchronized_replay_of_no_plans_keeps_one_empty_row_per_round() {
        let (p, mut fl, plan) = fixture();
        let mut twin = fl.clone();
        assert_eq!(
            fl.replay_synchronized(&[], &p.catalog, 4),
            vec![Vec::new(); 4]
        );
        // The rounds still advance the cluster, exactly as with plans.
        twin.replay_synchronized(&[&plan], &p.catalog, 4);
        assert_eq!(
            fl.executor().cluster.tick_count(),
            twin.executor().cluster.tick_count()
        );
    }

    #[test]
    fn average_cost_is_between_min_and_max() {
        let (p, mut fl, plan) = fixture();
        let mut fl2 = fl.clone();
        let avg = fl.average_cost(&plan, &p.catalog, 9);
        let outs = fl2.replay(&plan, &p.catalog, 9);
        let min = outs.iter().map(|o| o.cpu_cost).fold(f64::MAX, f64::min);
        let max = outs.iter().map(|o| o.cpu_cost).fold(f64::MIN, f64::max);
        assert!(avg >= min && avg <= max);
    }

    #[test]
    fn replay_leaves_history_repository_unmutated() {
        use crate::history::{build_history, HistoryOptions};
        let (p, mut fl, _plan) = fixture();
        let repo = build_history(
            &p,
            &HistoryOptions {
                days: 1,
                max_queries: 8,
                ..HistoryOptions::default()
            },
        );
        let snapshot: Vec<(u64, f64, f64)> = repo
            .records()
            .iter()
            .map(|r| (r.signature.0, r.cpu_cost, r.latency))
            .collect();
        // Replay every logged plan through flighting, both modes.
        for r in repo.records() {
            let _ = fl.replay(&r.plan, &p.catalog, 2);
        }
        let plans: Vec<&PlanTree> = repo.records().iter().map(|r| &r.plan).collect();
        let _ = fl.replay_synchronized(&plans, &p.catalog, 2);
        let after: Vec<(u64, f64, f64)> = repo
            .records()
            .iter()
            .map(|r| (r.signature.0, r.cpu_cost, r.latency))
            .collect();
        assert_eq!(snapshot, after, "flighting must never rewrite history");
    }

    #[test]
    fn synchronized_replay_does_not_mutate_shared_executor_state_across_clones() {
        // The snapshot-per-plan discipline means two flighting clones that
        // replay the same candidate set stay in lockstep — no hidden state
        // leaks from one plan's execution into the next.
        let (p, fl, plan_a) = fixture();
        let opt = NativeOptimizer::new(&p.catalog);
        let plan_b = opt.optimize(&p.workload_for_day(0)[1], &Knobs::default());
        let mut fl1 = fl.clone();
        let mut fl2 = fl.clone();
        let rows1 = fl1.replay_synchronized(&[&plan_a, &plan_b], &p.catalog, 4);
        let rows2 = fl2.replay_synchronized(&[&plan_a, &plan_b], &p.catalog, 4);
        assert_eq!(rows1, rows2);
        assert_eq!(
            fl1.executor().cluster.tick_count(),
            fl2.executor().cluster.tick_count()
        );
    }
}
