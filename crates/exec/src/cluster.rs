//! The shared multi-tenant cluster, its Fuxi-like allocator, and the
//! discrete-event simulation core.
//!
//! MaxCompute allocates resources "from cluster-wide pools averaging over
//! 5,000 machines with varying loads" (Challenge 1). Reaching that fleet
//! size in simulation rules out the classic dense loop (advance every
//! machine every 20-second tick): its wall-clock cost is `machines × ticks`
//! regardless of how many machines queries actually touch. The cluster
//! therefore runs one of two engines behind [`ClusterConfig::engine`]:
//!
//! * [`EngineMode::EventDriven`] (the default) — virtual time is a plain
//!   counter plus a binary-heap event queue (machine failures, recoveries;
//!   retry/backoff timers and stage windows are just `advance` calls over
//!   this queue). Machine loads are **pure functions of virtual time**
//!   ([`LoadModel`]), evaluated lazily only for the machines a query
//!   touches, and the cluster-history average is computed analytically at
//!   query time. Advancing `n` ticks costs `O(events in the interval)`, not
//!   `O(n × machines)`.
//! * [`EngineMode::DenseTick`] — the reference engine: the same event queue
//!   and the same load model, but every machine is eagerly evaluated every
//!   tick (folded into a checksum so the work cannot be optimized away).
//!
//! Because both engines evaluate the *same* pure load function, drain the
//! *same* event queue, and draw allocation candidates from the *same*
//! counter-based stream, they are bit-identical by construction — the
//! property suite in `tests/event_props.rs` proves it over random seeds,
//! pool sizes, and fault configurations.
//!
//! The allocator itself is rebuilt for scale: instead of sorting the whole
//! pool by idleness (`O(N log N)` per stage), it rejection-samples a
//! power-of-d-choices candidate set from a dedicated RNG stream and picks
//! the `n` most idle candidates — preserving the idle-preference bias that
//! makes cluster-wide averages a poor predictor of per-query environments
//! (Section 7.2.5) at `O(n)` cost.

use crate::fault::{FaultConfig, FaultEvent, FaultState};
pub use crate::load::TICKS_PER_DAY;
use crate::load::{stream_uniform, LoadModel};
use crate::machine::{LoadDynamics, Machine};
use mcsim_catalog::EnvMetrics;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How long one allocation occupies its machines, in ticks. Stages hold
/// their slots for a handful of 20-second samples; overlapping stages on
/// the same machine stack (capped at 0.9 extra busy inside the load model).
const ASSIGN_HOLD_TICKS: u64 = 8;

/// Machines sampled by [`Cluster::utilization_estimate`] at fleet scale.
/// 64 evenly-spaced machines estimate the pool-wide busy fraction to
/// within ~1 % of the OU spread while keeping the per-query gauge cost
/// constant in the pool size.
const UTILIZATION_SAMPLE: usize = 64;

/// Stream id of the allocator's candidate draws (machine index 0 by
/// convention; the counter is the cluster-wide draw counter).
const STREAM_ALLOC: u64 = 0x05;

/// Stream id of [`Cluster::fork_rng`] derivations.
const STREAM_FORK: u64 = 0x06;

/// Which simulation core a [`Cluster`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Discrete-event loop with lazy load evaluation (the default).
    #[default]
    EventDriven,
    /// The dense per-tick reference engine: identical event queue and load
    /// model, but every machine is eagerly evaluated every tick.
    DenseTick,
}

/// Engine-side work counters, exposed for benchmarks and the obs layer
/// (`exec.events`, `exec.lazy_advances`, `exec.heap_peak`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events popped from the queue (fault arrivals/recoveries).
    pub events: u64,
    /// Lazy per-machine load evaluations (allocator ranking + stage reads).
    pub lazy_advances: u64,
    /// High-water mark of the event queue.
    pub heap_peak: usize,
}

/// Cluster configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of machines in the pool.
    pub n_machines: usize,
    /// Mean multi-tenant busy fraction.
    pub base_busy: f64,
    /// Amplitude of the diurnal load cycle.
    pub diurnal_amplitude: f64,
    /// Per-machine load dynamics.
    pub dynamics: LoadDynamics,
    /// Window length, in ticks, of the cluster-history average (for the
    /// LOAM-CE baseline, which fits a distribution over the past 24 hours).
    pub history_len: usize,
    /// Which simulation core to run.
    pub engine: EngineMode,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            n_machines: 200,
            base_busy: 0.45,
            diurnal_amplitude: 0.18,
            dynamics: LoadDynamics::default(),
            history_len: TICKS_PER_DAY as usize,
            engine: EngineMode::default(),
        }
    }
}

impl ClusterConfig {
    /// Starts a validated builder pre-loaded with the default configuration.
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder {
            config: ClusterConfig::default(),
        }
    }
}

/// Error produced when a [`ClusterConfigBuilder`] is given values the
/// simulator cannot run with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidClusterConfig(pub String);

impl std::fmt::Display for InvalidClusterConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid cluster config: {}", self.0)
    }
}

impl std::error::Error for InvalidClusterConfig {}

/// Builder for [`ClusterConfig`] that validates at
/// [`build`](ClusterConfigBuilder::build) instead of panicking deep inside
/// the simulator.
#[derive(Debug, Clone)]
pub struct ClusterConfigBuilder {
    config: ClusterConfig,
}

impl ClusterConfigBuilder {
    /// Number of machines in the pool (≥ 1).
    pub fn n_machines(mut self, n: usize) -> Self {
        self.config.n_machines = n;
        self
    }

    /// Mean multi-tenant busy fraction, in `[0, 1)`.
    pub fn base_busy(mut self, b: f64) -> Self {
        self.config.base_busy = b;
        self
    }

    /// Amplitude of the diurnal load cycle (≥ 0).
    pub fn diurnal_amplitude(mut self, a: f64) -> Self {
        self.config.diurnal_amplitude = a;
        self
    }

    /// Per-machine load dynamics.
    pub fn dynamics(mut self, d: LoadDynamics) -> Self {
        self.config.dynamics = d;
        self
    }

    /// Window length of the cluster-history average, in ticks (≥ 1).
    pub fn history_len(mut self, n: usize) -> Self {
        self.config.history_len = n;
        self
    }

    /// Which simulation core to run.
    pub fn engine(mut self, mode: EngineMode) -> Self {
        self.config.engine = mode;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<ClusterConfig, InvalidClusterConfig> {
        let c = self.config;
        if c.n_machines == 0 {
            return Err(InvalidClusterConfig("n_machines must be >= 1".into()));
        }
        if !(0.0..1.0).contains(&c.base_busy) || !c.base_busy.is_finite() {
            return Err(InvalidClusterConfig(format!(
                "base_busy must be in [0, 1), got {}",
                c.base_busy
            )));
        }
        if !c.diurnal_amplitude.is_finite() || c.diurnal_amplitude < 0.0 {
            return Err(InvalidClusterConfig(format!(
                "diurnal_amplitude must be >= 0, got {}",
                c.diurnal_amplitude
            )));
        }
        if c.history_len == 0 {
            return Err(InvalidClusterConfig("history_len must be >= 1".into()));
        }
        Ok(c)
    }
}

/// One occupancy interval: work this simulator placed on a machine. Active
/// for ticks `t` with `start < t <= end`, which makes the assigned load a
/// pure function of virtual time — an allocation at tick `t` is visible
/// from `t + 1`, matching the legacy one-tick ramp-in.
#[derive(Debug, Clone, Copy)]
struct Slot {
    start: u64,
    end: u64,
    weight: f64,
}

/// The total assigned weight active on a machine at `tick`.
#[inline]
fn assigned_weight(slots: &[Slot], tick: u64) -> f64 {
    slots
        .iter()
        .filter(|s| s.start < tick && tick <= s.end)
        .map(|s| s.weight)
        .sum()
}

/// What a queued event does when its time comes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// A machine fails and is blacklisted.
    MachineFail(u32),
    /// A blacklisted machine recovers and rejoins the pool.
    MachineRecover(u32),
}

/// A queued event. Ordered by `(tick, seq)` — `seq` is a monotone push
/// counter, so heap pops are a total, deterministic order even among
/// events scheduled for the same tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    tick: u64,
    seq: u64,
    kind: EventKind,
}

/// The simulated cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    config: ClusterConfig,
    model: LoadModel,
    tick: u64,
    /// Per-machine occupancy intervals (work this simulator placed).
    occupancy: Vec<Vec<Slot>>,
    /// The event queue (min-heap over `(tick, seq)`).
    events: BinaryHeap<Reverse<Event>>,
    event_seq: u64,
    faults: FaultState,
    /// Dense-engine load cache, refreshed every tick (empty in event mode).
    loads: Vec<EnvMetrics>,
    /// Fold of the dense engine's eager evaluations, so the reference
    /// engine's per-tick work cannot be optimized away.
    dense_checksum: f64,
    fork_counter: u64,
    alloc_counter: u64,
    stats: EngineStats,
    /// Generation-marked scratch for allocation dedup (no per-call allocs).
    scratch_mark: Vec<u32>,
    scratch_gen: u32,
}

impl Cluster {
    /// Creates a cluster; every load trajectory derives from `seed`.
    pub fn new(seed: u64, config: ClusterConfig) -> Self {
        let n = config.n_machines;
        let model = LoadModel {
            seed,
            base_busy: config.base_busy,
            diurnal_amplitude: config.diurnal_amplitude,
            dynamics: config.dynamics,
        };
        let mut c = Cluster {
            model,
            tick: 0,
            occupancy: vec![Vec::new(); n],
            events: BinaryHeap::new(),
            event_seq: 0,
            faults: FaultState::new(FaultConfig::disabled(), n),
            loads: Vec::new(),
            dense_checksum: 0.0,
            fork_counter: 0,
            alloc_counter: 0,
            stats: EngineStats::default(),
            scratch_mark: vec![0; n],
            scratch_gen: 0,
            config,
        };
        if c.config.engine == EngineMode::DenseTick {
            c.loads = vec![EnvMetrics::default(); n];
            c.eval_all_dense();
        }
        c
    }

    /// Arms (or disarms) fault injection. Resets the fault state — the
    /// per-machine fault streams, blacklist, and event log all restart from
    /// `config.seed`, so a given (cluster, fault) seed pair replays
    /// identically. Pending fault timers in the queue are discarded (every
    /// queued event is a fault timer) and the first failure of each machine
    /// is scheduled from its dedicated stream.
    pub fn set_fault_config(&mut self, config: FaultConfig) {
        self.events.clear();
        self.faults = FaultState::new(config, self.config.n_machines);
        if self.faults.config().machine_fail_prob > 0.0 {
            for m in 0..self.config.n_machines {
                if let Some(gap) = self.faults.next_failure_gap(m) {
                    self.push_event(self.tick + gap, EventKind::MachineFail(m as u32));
                }
            }
        }
    }

    /// True if any fault class can fire.
    pub fn faults_enabled(&self) -> bool {
        self.faults.enabled()
    }

    /// The live fault-injection state (blacklist, config).
    pub fn fault_state(&self) -> &FaultState {
        &self.faults
    }

    /// The replayable fault log, in injection order.
    pub fn fault_log(&self) -> &[FaultEvent] {
        self.faults.log()
    }

    /// How many machines are blacklisted right now.
    pub fn down_count(&self) -> usize {
        self.faults.down_count(self.tick)
    }

    /// Engine-side work counters (events drained, lazy evaluations, event
    /// queue high-water mark).
    pub fn engine_stats(&self) -> EngineStats {
        self.stats
    }

    /// The active engine.
    pub fn engine(&self) -> EngineMode {
        self.config.engine
    }

    /// Fold of the dense engine's eager per-tick evaluations (0 in event
    /// mode). Benchmarks read it so the reference loop is never dead code.
    pub fn dense_checksum(&self) -> f64 {
        self.dense_checksum
    }

    /// Samples whether a stage attempt straggles (fault path only).
    pub(crate) fn sample_straggler(&mut self, stage: usize, attempt: u32) -> Option<f64> {
        self.faults.sample_straggler(stage, attempt)
    }

    /// Samples whether a stage attempt is killed (fault path only).
    pub(crate) fn sample_stage_kill(&mut self, stage: usize, attempt: u32) -> Option<f64> {
        let tick = self.tick;
        self.faults.sample_stage_kill(stage, attempt, tick)
    }

    /// Records a speculative backup launch in the fault log.
    pub(crate) fn record_speculative(&mut self, stage: usize, attempt: u32) {
        let tick = self.tick;
        self.faults.record_speculative(stage, attempt, tick);
    }

    /// Records a scheduled retry in the fault log.
    pub(crate) fn record_retry(&mut self, stage: usize, attempt: u32, backoff_ticks: u64) {
        self.faults.record_retry(stage, attempt, backoff_ticks);
    }

    /// Current tick (each tick is 20 simulated seconds).
    pub fn tick_count(&self) -> u64 {
        self.tick
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.config.n_machines
    }

    /// True if the pool is empty (never, for valid configs).
    pub fn is_empty(&self) -> bool {
        self.config.n_machines == 0
    }

    /// The diurnal multi-tenant baseline busy fraction at the current tick.
    pub fn baseline_busy(&self) -> f64 {
        self.model.baseline_busy(self.tick)
    }

    /// Advances the whole cluster by one 20-second tick.
    pub fn step(&mut self) {
        self.advance(1);
    }

    /// Advances `n` ticks. In event mode this drains the queued events of
    /// the interval and moves the clock — `O(events)`, independent of the
    /// pool size. The dense engine additionally evaluates every machine at
    /// every intermediate tick (the reference cost).
    pub fn advance(&mut self, n: u64) {
        match self.config.engine {
            EngineMode::EventDriven => {
                let target = self.tick + n;
                self.drain_events(target);
                self.tick = target;
            }
            EngineMode::DenseTick => {
                for _ in 0..n {
                    let t = self.tick + 1;
                    self.drain_events(t);
                    self.tick = t;
                    self.eval_all_dense();
                }
            }
        }
        if mcsim_obs::enabled() {
            mcsim_obs::gauge("exec.heap_peak", self.stats.heap_peak as f64);
        }
    }

    /// Schedules an event; `tick` must be strictly in the future (every
    /// producer draws gaps/durations ≥ 1, which keeps the "all events ≤ now
    /// are processed" invariant maintainable by `advance` alone).
    fn push_event(&mut self, tick: u64, kind: EventKind) {
        debug_assert!(tick > self.tick, "events must be scheduled in the future");
        let seq = self.event_seq;
        self.event_seq += 1;
        self.events.push(Reverse(Event { tick, seq, kind }));
        self.stats.heap_peak = self.stats.heap_peak.max(self.events.len());
    }

    /// Pops and applies every event with `tick <= up_to`, in (tick, seq)
    /// order — the single mechanism both engines share, so fault schedules
    /// and logs are identical whether time advances in one jump or
    /// tick-by-tick.
    fn drain_events(&mut self, up_to: u64) {
        while let Some(&Reverse(ev)) = self.events.peek() {
            if ev.tick > up_to {
                break;
            }
            self.events.pop();
            self.stats.events += 1;
            mcsim_obs::counter("exec.events", 1);
            match ev.kind {
                EventKind::MachineFail(m) => {
                    let m = m as usize;
                    if self.faults.is_down(m, ev.tick) {
                        continue; // cannot happen under the scheduling discipline
                    }
                    let until = ev.tick + self.faults.downtime_ticks(m);
                    self.faults.mark_down(m, ev.tick, until);
                    self.push_event(until, EventKind::MachineRecover(m as u32));
                }
                EventKind::MachineRecover(m) => {
                    let mi = m as usize;
                    self.faults.mark_up(mi, ev.tick);
                    if let Some(gap) = self.faults.next_failure_gap(mi) {
                        self.push_event(ev.tick + gap, EventKind::MachineFail(m));
                    }
                }
            }
        }
    }

    /// The dense engine's per-tick reference work: eagerly evaluate every
    /// machine at the current tick and refresh the load cache. The fold
    /// into `dense_checksum` keeps the loop honest under optimization.
    fn eval_all_dense(&mut self) {
        let t = self.tick;
        let mut sum = 0.0;
        for i in 0..self.config.n_machines {
            self.occupancy[i].retain(|s| s.end >= t);
            let e = self
                .model
                .load_at(i as u64, t, assigned_weight(&self.occupancy[i], t));
            sum += e.cpu_idle;
            self.loads[i] = e;
        }
        self.dense_checksum += sum;
    }

    /// One machine's load snapshot at the current tick (cache in dense
    /// mode, lazy evaluation in event mode — same value either way).
    fn load_of(&self, i: usize) -> EnvMetrics {
        match self.config.engine {
            EngineMode::DenseTick => self.loads[i],
            EngineMode::EventDriven => self.model.load_at(
                i as u64,
                self.tick,
                assigned_weight(&self.occupancy[i], self.tick),
            ),
        }
    }

    /// The cluster-wide average environment right now (what the LOAM-CB
    /// inference variant reads at optimization time). `O(machines)` — call
    /// sparingly at fleet scale; the executor gates it behind obs.
    pub fn cluster_mean(&self) -> EnvMetrics {
        match self.config.engine {
            EngineMode::DenseTick => EnvMetrics::mean(self.loads.iter()),
            EngineMode::EventDriven => {
                let snaps: Vec<EnvMetrics> = (0..self.config.n_machines)
                    .map(|i| self.load_of(i))
                    .collect();
                EnvMetrics::mean(snaps.iter())
            }
        }
    }

    /// A bounded-cost estimate of the cluster-wide busy fraction, for
    /// observability gauges on the per-query hot path: the exact mean at
    /// small pools, a deterministic evenly-spaced sample of 64 machines
    /// (`UTILIZATION_SAMPLE`) at fleet scale (otherwise the gauge
    /// alone re-introduces the `O(machines)` per-query cost the event
    /// engine exists to remove). Reads the same per-machine loads in both
    /// engines, mutates nothing, and draws no RNG state — so it can never
    /// perturb replay and reports the same value on either engine.
    pub fn utilization_estimate(&self) -> f64 {
        let n = self.config.n_machines;
        if n <= UTILIZATION_SAMPLE {
            return 1.0 - self.cluster_mean().cpu_idle;
        }
        let stride = n / UTILIZATION_SAMPLE;
        let snaps: Vec<EnvMetrics> = (0..UTILIZATION_SAMPLE)
            .map(|k| self.load_of(k * stride))
            .collect();
        1.0 - EnvMetrics::mean(snaps.iter()).cpu_idle
    }

    /// The expected cluster environment over the trailing
    /// [`ClusterConfig::history_len`] window (what LOAM-CE's fitted
    /// distribution reduces to in expectation). Computed analytically from
    /// the diurnal baseline — the OU deviations, tenant jitter, and placed
    /// work are zero-mean or negligible in a day-long average — so no
    /// per-tick history buffer needs maintaining in either engine.
    pub fn history_mean(&self) -> EnvMetrics {
        self.model
            .analytic_window_mean(self.tick, self.config.history_len as u64)
    }

    /// Fuxi-like allocation at fleet scale: rejection-sample a
    /// power-of-d-choices candidate set (4× oversampling) from the
    /// dedicated allocation stream, skip blacklisted machines, and take the
    /// `n` most idle candidates. Registers the placed work as an occupancy
    /// interval so the chosen machines' load rises while the stage runs.
    /// If the whole pool is down, allocation degrades to the full pool
    /// rather than deadlocking the simulation.
    pub fn allocate(&mut self, n: usize, work_intensity: f64) -> Vec<usize> {
        let pool = self.config.n_machines;
        let t = self.tick;
        let faults_on = self.faults.enabled();
        let want = n.clamp(1, pool);
        let target = (want * 4).max(want + 8).min(pool);

        self.scratch_gen = self.scratch_gen.wrapping_add(1);
        if self.scratch_gen == 0 {
            self.scratch_mark.fill(0);
            self.scratch_gen = 1;
        }
        let gen = self.scratch_gen;

        let mut candidates: Vec<usize> = Vec::with_capacity(target);
        let max_attempts = 16 * target + 64;
        let mut attempts = 0;
        while candidates.len() < target && attempts < max_attempts {
            attempts += 1;
            let u = stream_uniform(self.model.seed, STREAM_ALLOC, 0, self.alloc_counter);
            self.alloc_counter += 1;
            let i = ((u * pool as f64) as usize).min(pool - 1);
            if self.scratch_mark[i] == gen {
                continue;
            }
            self.scratch_mark[i] = gen;
            if faults_on && self.faults.is_down(i, t) {
                continue;
            }
            candidates.push(i);
        }
        if candidates.len() < target {
            // Rejection sampling starved (tiny pool or mass blacklisting):
            // finish deterministically by linear scan.
            for i in 0..pool {
                if candidates.len() >= target {
                    break;
                }
                if self.scratch_mark[i] == gen {
                    continue;
                }
                self.scratch_mark[i] = gen;
                if faults_on && self.faults.is_down(i, t) {
                    continue;
                }
                candidates.push(i);
            }
        }
        if candidates.is_empty() {
            // The whole pool is blacklisted: degrade to everyone.
            candidates = (0..pool).collect();
        }

        // Rank by the busy fraction (the busy lane of the load model alone
        // — bit-identical to `1 − cpu_idle`), ties broken by index.
        let shared = self.model.shared_busy(t);
        let mut ranked: Vec<(f64, usize)> = candidates
            .iter()
            .map(|&i| {
                let assigned = assigned_weight(&self.occupancy[i], t);
                (self.model.busy_at_shared(shared, i as u64, t, assigned), i)
            })
            .collect();
        self.stats.lazy_advances += ranked.len() as u64;
        if mcsim_obs::enabled() {
            mcsim_obs::counter("exec.lazy_advances", ranked.len() as u64);
        }
        ranked.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        let chosen: Vec<usize> = ranked
            .iter()
            .take(want.min(ranked.len()))
            .map(|&(_, i)| i)
            .collect();
        for &i in &chosen {
            let occ = &mut self.occupancy[i];
            occ.retain(|s| s.end >= t);
            occ.push(Slot {
                start: t,
                end: t + ASSIGN_HOLD_TICKS,
                weight: work_intensity,
            });
        }
        chosen
    }

    /// The average load over a set of machines right now. In event mode
    /// each machine is lazily evaluated at the current tick — the
    /// `exec.lazy_advances` counter tracks these evaluations.
    pub fn mean_load_of(&mut self, machines: &[usize]) -> EnvMetrics {
        if self.config.engine == EngineMode::EventDriven {
            self.stats.lazy_advances += machines.len() as u64;
            if mcsim_obs::enabled() {
                mcsim_obs::counter("exec.lazy_advances", machines.len() as u64);
            }
        }
        let snaps: Vec<EnvMetrics> = machines.iter().map(|&i| self.load_of(i)).collect();
        EnvMetrics::mean(snaps.iter())
    }

    /// The environment a stage observes while it holds `machines` for
    /// `duration` ticks: per tick of `now..=now + duration`, the mean load
    /// over `machines` in the given order, then the mean over those ticks
    /// in tick order — bit-identical to reading [`Cluster::mean_load_of`]
    /// before and after each of `duration` [`Cluster::step`]s. Placed work
    /// cannot change inside the window, so each machine's loads come from
    /// one [`LoadModel::load_window`] call; the cluster still advances one
    /// `step` at a time, so events drain and the dense engine does its
    /// eager work exactly as before. In event mode every machine-tick read
    /// counts towards `exec.lazy_advances`.
    pub fn window_env(&mut self, machines: &[usize], duration: u64) -> EnvMetrics {
        let start = self.tick;
        if self.config.engine == EngineMode::EventDriven {
            let reads = (duration + 1) * machines.len() as u64;
            self.stats.lazy_advances += reads;
            if mcsim_obs::enabled() {
                mcsim_obs::counter("exec.lazy_advances", reads);
            }
        }
        let shared: Vec<f64> = (start..=start + duration)
            .map(|t| self.model.shared_busy(t))
            .collect();
        let mut assigned = Vec::with_capacity(duration as usize + 1);
        let loads: Vec<Vec<EnvMetrics>> = machines
            .iter()
            .map(|&i| {
                assigned.clear();
                assigned.extend(
                    (start..=start + duration).map(|t| assigned_weight(&self.occupancy[i], t)),
                );
                self.model
                    .load_window_shared(&shared, i as u64, start, &assigned)
            })
            .collect();
        for _ in 0..duration {
            self.step();
        }
        let per_tick: Vec<EnvMetrics> = (0..=duration as usize)
            .map(|k| EnvMetrics::mean(loads.iter().map(|w| &w[k])))
            .collect();
        EnvMetrics::mean(per_tick.iter())
    }

    /// A read-only snapshot of one machine (tests, diagnostics).
    pub fn machine(&self, i: usize) -> Machine {
        Machine {
            id: i as u32,
            load: self.load_of(i),
            assigned_busy: assigned_weight(&self.occupancy[i], self.tick).min(0.9),
        }
    }

    /// Maps allocation indices (as returned by [`Cluster::allocate`]) to the
    /// stable ids of the underlying machines — what trace timelines key on.
    pub fn machine_ids(&self, indices: &[usize]) -> Vec<u32> {
        indices.iter().map(|&i| i as u32).collect()
    }

    /// A seeded, decorrelated RNG derived from the cluster's fork stream
    /// (for per-execution noise that must not disturb the load processes —
    /// the counter-based derivation means forks are order-deterministic).
    pub fn fork_rng(&mut self, salt: u64) -> StdRng {
        self.fork_counter += 1;
        let u = stream_uniform(self.model.seed, STREAM_FORK, 0, self.fork_counter);
        StdRng::seed_from_u64((u * u64::MAX as f64) as u64 ^ salt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_prefers_idle_machines() {
        let mut c = Cluster::new(5, ClusterConfig::default());
        c.advance(50);
        let chosen = c.allocate(10, 0.0);
        let chosen_idle = c.mean_load_of(&chosen).cpu_idle;
        let overall_idle = c.cluster_mean().cpu_idle;
        assert!(
            chosen_idle > overall_idle,
            "allocator should prefer idle machines: {chosen_idle} vs {overall_idle}"
        );
    }

    #[test]
    fn allocation_registers_load() {
        let mut c = Cluster::new(6, ClusterConfig::default());
        c.advance(10);
        let chosen = c.allocate(5, 0.5);
        let before = c.mean_load_of(&chosen).cpu_idle;
        c.advance(5);
        let after = c.mean_load_of(&chosen).cpu_idle;
        assert!(
            after < before,
            "placed work should raise busy: {before}->{after}"
        );
    }

    #[test]
    fn diurnal_baseline_oscillates() {
        let mut c = Cluster::new(7, ClusterConfig::default());
        let mut lo = f64::MAX;
        let mut hi = f64::MIN;
        for _ in 0..(TICKS_PER_DAY / 50) {
            c.advance(50);
            let b = c.baseline_busy();
            lo = lo.min(b);
            hi = hi.max(b);
        }
        assert!(hi - lo > 0.2, "diurnal swing too small: {lo}..{hi}");
    }

    #[test]
    fn history_tracks_cluster_means() {
        let mut c = Cluster::new(8, ClusterConfig::default());
        c.advance(100);
        let hm = c.history_mean();
        assert!(hm.cpu_idle > 0.0 && hm.cpu_idle < 1.0);
        // And before any advance, the degenerate window is still finite.
        let fresh = Cluster::new(8, ClusterConfig::default());
        let hm0 = fresh.history_mean();
        assert!(hm0.cpu_idle > 0.0 && hm0.cpu_idle < 1.0);
    }

    #[test]
    fn allocation_is_clamped_to_pool_size() {
        let mut c = Cluster::new(
            9,
            ClusterConfig {
                n_machines: 4,
                ..ClusterConfig::default()
            },
        );
        let chosen = c.allocate(100, 0.1);
        assert_eq!(chosen.len(), 4);
    }

    #[test]
    fn builder_accepts_valid_and_rejects_invalid_configs() {
        let cfg = ClusterConfig::builder()
            .n_machines(16)
            .base_busy(0.3)
            .diurnal_amplitude(0.1)
            .history_len(100)
            .engine(EngineMode::DenseTick)
            .build()
            .unwrap();
        assert_eq!(cfg.n_machines, 16);
        assert_eq!(cfg.engine, EngineMode::DenseTick);
        assert!(ClusterConfig::builder().n_machines(0).build().is_err());
        assert!(ClusterConfig::builder().base_busy(1.5).build().is_err());
        assert!(ClusterConfig::builder()
            .base_busy(f64::NAN)
            .build()
            .is_err());
        assert!(ClusterConfig::builder()
            .diurnal_amplitude(-0.1)
            .build()
            .is_err());
        assert!(ClusterConfig::builder().history_len(0).build().is_err());
    }

    #[test]
    fn clusters_with_same_seed_evolve_identically() {
        let mut a = Cluster::new(11, ClusterConfig::default());
        let mut b = Cluster::new(11, ClusterConfig::default());
        a.advance(25);
        b.advance(25);
        assert_eq!(a.cluster_mean(), b.cluster_mean());
    }

    #[test]
    fn default_engine_is_event_driven() {
        assert_eq!(ClusterConfig::default().engine, EngineMode::EventDriven);
    }

    /// The load-bearing guarantee of this module: the event-driven and
    /// dense-tick engines are bit-identical through an interleaved sequence
    /// of advances, allocations, reads, and armed fault injection.
    #[test]
    fn engines_agree_bit_for_bit() {
        for seed in [1u64, 9, 42] {
            let mk = |engine| {
                let mut c = Cluster::new(
                    seed,
                    ClusterConfig {
                        n_machines: 32,
                        engine,
                        ..ClusterConfig::default()
                    },
                );
                c.set_fault_config(FaultConfig {
                    machine_fail_prob: 0.01,
                    machine_downtime_ticks: 11,
                    ..FaultConfig::chaos(seed)
                });
                c
            };
            let mut e = mk(EngineMode::EventDriven);
            let mut d = mk(EngineMode::DenseTick);
            for _ in 0..12 {
                e.advance(7);
                d.advance(7);
                let a = e.allocate(3, 0.2);
                let b = d.allocate(3, 0.2);
                assert_eq!(a, b, "allocation choices must match");
                assert_eq!(e.mean_load_of(&a), d.mean_load_of(&b));
                e.step();
                d.step();
                assert_eq!(e.mean_load_of(&a), d.mean_load_of(&b));
                assert_eq!(e.down_count(), d.down_count());
            }
            assert_eq!(e.fault_log(), d.fault_log());
            assert_eq!(e.cluster_mean(), d.cluster_mean());
            assert_eq!(e.history_mean(), d.history_mean());
            assert!(
                d.dense_checksum() != 0.0,
                "reference engine must do eager work"
            );
        }
    }

    /// Event-mode advancing is `O(events)`: a long quiet advance drains
    /// nothing, and armed faults produce a bounded, ordered event count.
    #[test]
    fn event_engine_counts_events_and_lazy_advances() {
        let mut c = Cluster::new(3, ClusterConfig::default());
        c.advance(10_000);
        assert_eq!(c.engine_stats().events, 0, "no faults, no events");
        assert_eq!(c.engine_stats().heap_peak, 0);

        c.set_fault_config(FaultConfig {
            machine_fail_prob: 0.005,
            ..FaultConfig::chaos(3)
        });
        c.advance(2_000);
        let stats = c.engine_stats();
        assert!(stats.events > 0, "armed faults must drain events");
        assert!(stats.heap_peak > 0);
        let m = c.allocate(4, 0.1);
        c.step();
        c.mean_load_of(&m);
        assert!(c.engine_stats().lazy_advances > stats.lazy_advances);
    }
}
