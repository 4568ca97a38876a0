//! The lazy, closed-form machine-load model.
//!
//! The legacy simulator advanced every machine's load one 20-second tick at
//! a time through a mean-reverting recurrence driven by a *shared* RNG — so
//! reading any machine's load at tick `t` required ticking all `N` machines
//! through all `t` ticks. That is `O(N × T)` work regardless of how many
//! machines any query ever touches, and it is what kept the simulator at
//! hundreds of machines instead of the paper's 5,000–10,000.
//!
//! This module replaces the recurrence with a **finite-memory
//! Ornstein–Uhlenbeck representation**: each machine's load deviation is the
//! geometrically-weighted sum of its last [`OU_WINDOW`] per-tick shocks,
//!
//! ```text
//! ou(m, t) = Σ_{k=0}^{W-1} ρ^k · ε(m, t − k),      ρ = 1 − θ
//! ```
//!
//! where every shock `ε(m, s)` comes from a counter-based hash of
//! `(seed, stream, machine, s)` — a dedicated, order-independent RNG stream
//! per machine and per metric. The sum is evaluated with a fixed Horner
//! recurrence (oldest shock first), which makes it *identical* to stepping
//! the AR(1) recurrence `x ← ρ·x + ε` tick by tick from a zero state
//! `W` ticks back. Two consequences:
//!
//! 1. **Lazy evaluation is exact.** Evaluating a machine at tick `t`
//!    directly gives bit-for-bit the same load as ticking it through every
//!    intermediate tick, because both are the same pure function of
//!    `(seed, machine, t)`. The event-driven engine evaluates machines only
//!    when something touches them; the dense reference engine evaluates all
//!    of them every tick; they cannot diverge.
//! 2. **Evaluation order cannot perturb draws.** No shared RNG stream
//!    exists, so allocating machine 7 before machine 3 (or never touching
//!    machine 3 at all) changes nothing about machine 3's trajectory.
//!
//! The diurnal multi-tenant baseline and the tenant-churn jitter are pure
//! functions of the tick for the same reason, and window averages of the
//! baseline are computed analytically at query time instead of being
//! accumulated tick by tick.

use crate::machine::LoadDynamics;
use mcsim_catalog::EnvMetrics;

/// Ticks per simulated day (20-second sampling ⇒ 4,320 ticks/day).
pub const TICKS_PER_DAY: u64 = 4_320;

/// Memory of the finite-window OU representation, in ticks. With the
/// default mean-reversion rate θ = 0.08 (ρ = 0.92), shocks older than 48
/// ticks carry weight ρ⁴⁸ ≈ 0.018 — the truncation changes the stationary
/// standard deviation by under 2 % while capping the cost of one lazy
/// evaluation at a fixed 48 fused hash-and-accumulate steps.
pub const OU_WINDOW: u64 = 48;

/// Ticks whose Horner chains [`LoadModel::load_window`] advances together.
const LOCKSTEP: usize = 4;

/// Per-metric shock-stream identifiers (the `stream` of `ε(m, s)`).
const STREAM_BUSY: u64 = 0x01;
const STREAM_IO: u64 = 0x02;
const STREAM_MEM: u64 = 0x03;
/// Shared tenant-churn jitter stream (machine index 0 by convention).
const STREAM_JITTER: u64 = 0x04;

/// SplitMix64 — the counter-based generator behind every shock stream.
/// A bijection on `u64`, so distinct inputs always produce distinct
/// outputs.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The workspace's canonical per-index seed derivation:
/// `splitmix64(seed, index)` as a counter-based stream.
///
/// Derives an independent child seed for the `index`-th job/request/stream
/// of a master seed. Because `index → index · φ` (φ odd) is injective
/// modulo 2⁶⁴ and [`splitmix64`] is a bijection, child seeds of the same
/// master are **pairwise distinct** for distinct indices — the property
/// the sweep harness's seed-derivation proptest pins down.
#[inline]
pub fn seed_stream(seed: u64, index: u64) -> u64 {
    splitmix64(seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// A uniform draw in `[0, 1)` from a counter-based stream.
#[inline]
pub(crate) fn stream_uniform(seed: u64, stream: u64, machine: u64, counter: u64) -> f64 {
    let h = splitmix64(
        seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f)
            ^ machine.wrapping_mul(0xe703_7ed1_a0b4_28db)
            ^ counter.wrapping_mul(0x8ebc_6af0_9c88_c6e3),
    );
    // 53 mantissa bits → exact dyadic rational in [0, 1).
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A zero-mean, unit-variance shock from a counter-based stream. Uniform
/// shocks (scaled to unit variance) are used instead of Gaussians: the
/// OU window sums 48 of them, so the resulting load deviation is
/// CLT-Gaussian anyway, at a fraction of the per-shock cost.
#[inline]
fn stream_shock(seed: u64, stream: u64, machine: u64, tick: u64) -> f64 {
    // √12 scales a centred uniform to unit variance.
    (stream_uniform(seed, stream, machine, tick) - 0.5) * 3.464_101_615_137_754_6
}

/// The pure-function load model shared by both engines. Cheap to clone —
/// it is all constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadModel {
    /// Seed of every shock stream.
    pub seed: u64,
    /// Mean multi-tenant busy fraction.
    pub base_busy: f64,
    /// Amplitude of the diurnal load cycle.
    pub diurnal_amplitude: f64,
    /// Mean-reversion and volatility constants.
    pub dynamics: LoadDynamics,
}

impl LoadModel {
    /// The diurnal multi-tenant baseline busy fraction at `tick` (no
    /// jitter; the published cluster-level signal).
    #[inline]
    pub fn baseline_busy(&self, tick: u64) -> f64 {
        let phase =
            2.0 * std::f64::consts::PI * (tick % TICKS_PER_DAY) as f64 / TICKS_PER_DAY as f64;
        (self.base_busy + self.diurnal_amplitude * phase.sin()).clamp(0.02, 0.95)
    }

    /// Per-tick tenant-churn jitter shared by the whole cluster — a pure
    /// function of the tick, so both engines see identical churn.
    #[inline]
    pub fn jitter(&self, tick: u64) -> f64 {
        0.02 * stream_shock(self.seed, STREAM_JITTER, 0, tick)
    }

    /// The three per-machine OU deviations (busy, io, mem) at `tick`,
    /// evaluated by the canonical Horner recurrence over the shock window.
    /// This is the *only* way loads are ever computed, so eager and lazy
    /// readers agree bit for bit.
    #[inline]
    fn ou3(&self, machine: u64, tick: u64) -> (f64, f64, f64) {
        let rho = 1.0 - self.dynamics.theta;
        let start = tick.saturating_sub(OU_WINDOW - 1);
        let (mut b, mut i, mut m) = (0.0f64, 0.0f64, 0.0f64);
        for s in start..=tick {
            b = rho * b + stream_shock(self.seed, STREAM_BUSY, machine, s);
            i = rho * i + stream_shock(self.seed, STREAM_IO, machine, s);
            m = rho * m + stream_shock(self.seed, STREAM_MEM, machine, s);
        }
        (b, i, m)
    }

    /// The busy-stream OU deviation alone. The accumulator performs the
    /// exact same fused sequence of operations as the `b` lane of
    /// [`ou3`](Self::ou3) (independent accumulators, identical op order),
    /// so `busy_at` and `load_at` agree bit for bit.
    #[inline]
    fn ou_busy(&self, machine: u64, tick: u64) -> f64 {
        let rho = 1.0 - self.dynamics.theta;
        let start = tick.saturating_sub(OU_WINDOW - 1);
        let mut b = 0.0f64;
        for s in start..=tick {
            b = rho * b + stream_shock(self.seed, STREAM_BUSY, machine, s);
        }
        b
    }

    /// The part of the busy fraction every machine shares at `tick`: the
    /// diurnal baseline plus the tenant-churn jitter (a `sin` and a hash).
    /// Readers of many machines at one tick compute it once and pass it on.
    #[inline]
    pub(crate) fn shared_busy(&self, tick: u64) -> f64 {
        self.baseline_busy(tick) + self.jitter(tick)
    }

    /// The single place the busy fraction is assembled from its parts —
    /// shared by [`busy_at`](Self::busy_at), [`load_at`](Self::load_at) and
    /// [`load_window`](Self::load_window) so the allocator's ranking key
    /// equals `1 − cpu_idle` exactly. `shared` is the tick's
    /// [`shared_busy`](Self::shared_busy).
    #[inline]
    fn busy_from(&self, shared: f64, ou_b: f64, assigned: f64) -> f64 {
        (shared + self.dynamics.sigma_busy * ou_b + assigned.min(0.9)).clamp(0.02, 0.98)
    }

    /// A machine's busy fraction at `tick` — the allocator's ranking key.
    /// Evaluates only the busy shock stream (a third of the hashing of a
    /// full [`load_at`](Self::load_at)) and is bit-identical to
    /// `1.0 - load_at(..).cpu_idle`.
    #[inline]
    pub fn busy_at(&self, machine: u64, tick: u64, assigned: f64) -> f64 {
        self.busy_at_shared(self.shared_busy(tick), machine, tick, assigned)
    }

    /// [`busy_at`](Self::busy_at) given the tick's
    /// [`shared_busy`](Self::shared_busy), for a caller ranking many
    /// machines at one tick.
    #[inline]
    pub(crate) fn busy_at_shared(
        &self,
        shared: f64,
        machine: u64,
        tick: u64,
        assigned: f64,
    ) -> f64 {
        self.busy_from(shared, self.ou_busy(machine, tick), assigned)
    }

    /// The stationary standard-deviation multiplier of the truncated OU
    /// window: `√(Σ ρ^2k)`. Volatilities in [`LoadDynamics`] are per-tick
    /// shock σ, exactly as in the legacy recurrence, so the stationary
    /// spread matches the legacy engine's.
    pub fn stationary_scale(&self) -> f64 {
        let rho2 = (1.0 - self.dynamics.theta).powi(2);
        ((1.0 - rho2.powi(OU_WINDOW as i32)) / (1.0 - rho2)).sqrt()
    }

    /// A machine's full load snapshot at `tick`, given the extra busy
    /// fraction `assigned` that queries placed on it. The four metrics
    /// couple exactly like the legacy recurrence's stationary state:
    /// IO_WAIT and MEM_USAGE track the busy fraction affinely with their
    /// own noise, LOAD5 follows the busy fraction.
    #[inline]
    pub fn load_at(&self, machine: u64, tick: u64, assigned: f64) -> EnvMetrics {
        self.load_from(self.shared_busy(tick), self.ou3(machine, tick), assigned)
    }

    /// One machine's loads at the `assigned.len()` consecutive ticks from
    /// `start`, where `assigned[k]` is the placed work active at tick
    /// `start + k`. Bit-identical to [`load_at`](Self::load_at) tick by
    /// tick: every tick keeps its own oldest-first Horner chain, but each
    /// (stream, tick) shock of the window is hashed once, not once per
    /// chain that reads it — `OU_WINDOW + len − 1` hashes per stream
    /// instead of `OU_WINDOW × len`.
    pub fn load_window(&self, machine: u64, start: u64, assigned: &[f64]) -> Vec<EnvMetrics> {
        let shared: Vec<f64> = (start..)
            .take(assigned.len())
            .map(|t| self.shared_busy(t))
            .collect();
        self.load_window_shared(&shared, machine, start, assigned)
    }

    /// [`load_window`](Self::load_window) given each window tick's
    /// [`shared_busy`](Self::shared_busy) (`shared[k]` for tick
    /// `start + k`), for a caller reading many machines over one window.
    pub(crate) fn load_window_shared(
        &self,
        shared: &[f64],
        machine: u64,
        start: u64,
        assigned: &[f64],
    ) -> Vec<EnvMetrics> {
        const W: usize = OU_WINDOW as usize;
        let len = assigned.len();
        assert_eq!(shared.len(), len, "one shared busy term per window tick");
        if len == 0 {
            return Vec::new();
        }
        // `shocks[j]` is the shock of tick `start + j − (W − 1)`, so tick
        // `start + k` reads `shocks[k..k + W]`. A chain that would reach
        // back before tick 0 is shorter; its missing oldest shocks are +0.0,
        // which keep the accumulator at exactly the +0.0 it starts from
        // (ρ·(+0) + (+0) = +0), so it gets the same bits from a full slice.
        // The tail pads the last lockstep group.
        let pad = (W as u64 - 1).saturating_sub(start) as usize;
        let oldest = start + pad as u64 - (W as u64 - 1);
        let mut shocks = vec![[0.0f64; 3]; len.next_multiple_of(LOCKSTEP) + W - 1];
        for (s, slot) in (oldest..).zip(&mut shocks[pad..len + W - 1]) {
            *slot = [
                stream_shock(self.seed, STREAM_BUSY, machine, s),
                stream_shock(self.seed, STREAM_IO, machine, s),
                stream_shock(self.seed, STREAM_MEM, machine, s),
            ];
        }
        // The chains of `LOCKSTEP` consecutive ticks advance together: each
        // keeps its own operation order, and the independent accumulators
        // overlap instead of waiting on one chain's latency.
        let rho = 1.0 - self.dynamics.theta;
        let mut out = Vec::with_capacity(len);
        for g in (0..len).step_by(LOCKSTEP) {
            let mut acc = [[0.0f64; 3]; LOCKSTEP];
            for step in shocks[g..g + LOCKSTEP + W - 1].windows(LOCKSTEP) {
                for (a, shock) in acc.iter_mut().zip(step) {
                    for (x, e) in a.iter_mut().zip(shock) {
                        *x = rho * *x + e;
                    }
                }
            }
            for (k, [b, i, m]) in acc.into_iter().enumerate().take(len - g) {
                out.push(self.load_from(shared[g + k], (b, i, m), assigned[g + k]));
            }
        }
        out
    }

    /// Assembles a load snapshot from the tick's
    /// [`shared_busy`](Self::shared_busy) and the three OU deviations — the
    /// one place [`load_at`](Self::load_at) and
    /// [`load_window`](Self::load_window) share.
    #[inline]
    fn load_from(
        &self,
        shared: f64,
        (ou_b, ou_i, ou_m): (f64, f64, f64),
        assigned: f64,
    ) -> EnvMetrics {
        let d = &self.dynamics;
        let busy = self.busy_from(shared, ou_b, assigned);
        let io = (0.03 + 0.08 * busy + d.sigma_io * ou_i).clamp(0.0, 0.5);
        let load5 = (busy * 24.0).max(0.0);
        let mem = (0.35 + 0.5 * busy + d.sigma_mem * ou_m).clamp(0.05, 0.98);
        EnvMetrics::new(1.0 - busy, io, load5, mem)
    }

    /// The *expected* cluster environment averaged over the window of
    /// `len` ticks ending at `now`, computed analytically at query time:
    /// the diurnal sine integrates in closed form, the OU deviations,
    /// jitter, and placed work are zero-mean/negligible in expectation.
    /// This replaces the legacy per-tick history deque (whose maintenance
    /// cost was `O(N)` per tick) for the LOAM-CE strategy.
    pub fn analytic_window_mean(&self, now: u64, len: u64) -> EnvMetrics {
        let len = len.max(1).min(now);
        if len == 0 {
            // No history yet: the expectation degenerates to the baseline
            // at the current (initial) tick.
            let busy = self.baseline_busy(now);
            return EnvMetrics::new(
                1.0 - busy,
                (0.03 + 0.08 * busy).clamp(0.0, 0.5),
                busy * 24.0,
                (0.35 + 0.5 * busy).clamp(0.05, 0.98),
            );
        }
        let start = now - len;
        // Mean of base + A·sin(2πt/D) over ticks [start, now): integral of
        // the sine gives (cos(2π·start/D) − cos(2π·now/D)) · D / (2π·len).
        let two_pi = 2.0 * std::f64::consts::PI;
        let d = TICKS_PER_DAY as f64;
        let mean_sin = if self.diurnal_amplitude == 0.0 {
            0.0
        } else {
            ((two_pi * start as f64 / d).cos() - (two_pi * now as f64 / d).cos()) * d
                / (two_pi * len as f64)
        };
        let busy = (self.base_busy + self.diurnal_amplitude * mean_sin).clamp(0.02, 0.95);
        EnvMetrics::new(
            1.0 - busy,
            (0.03 + 0.08 * busy).clamp(0.0, 0.5),
            busy * 24.0,
            (0.35 + 0.5 * busy).clamp(0.05, 0.98),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> LoadModel {
        LoadModel {
            seed: 7,
            base_busy: 0.45,
            diurnal_amplitude: 0.18,
            dynamics: LoadDynamics::default(),
        }
    }

    #[test]
    fn shocks_have_zero_mean_unit_variance() {
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|t| stream_shock(1, STREAM_BUSY, 3, t)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn streams_are_decorrelated_across_machines_and_metrics() {
        let n = 20_000;
        let corr = |a: &dyn Fn(u64) -> f64, b: &dyn Fn(u64) -> f64| {
            let xs: Vec<f64> = (0..n).map(a).collect();
            let ys: Vec<f64> = (0..n).map(b).collect();
            let mx = xs.iter().sum::<f64>() / n as f64;
            let my = ys.iter().sum::<f64>() / n as f64;
            let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
            let vx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
            let vy: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
            cov / (vx * vy).sqrt()
        };
        let machines = corr(&|t| stream_shock(1, STREAM_BUSY, 0, t), &|t| {
            stream_shock(1, STREAM_BUSY, 1, t)
        });
        let metrics = corr(&|t| stream_shock(1, STREAM_BUSY, 0, t), &|t| {
            stream_shock(1, STREAM_IO, 0, t)
        });
        assert!(machines.abs() < 0.03, "machine corr {machines}");
        assert!(metrics.abs() < 0.03, "metric corr {metrics}");
    }

    #[test]
    fn ou_is_temporally_correlated_and_stationary() {
        let m = model();
        let scale = m.stationary_scale();
        let n = 8_000u64;
        let xs: Vec<f64> = (100..n).map(|t| m.ou3(5, t).0).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.2, "mean {mean}");
        assert!(
            (var.sqrt() - scale).abs() / scale < 0.1,
            "std {} vs stationary {scale}",
            var.sqrt()
        );
        // Lag-1 autocorrelation ≈ ρ = 0.92.
        let lag1: f64 = xs
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum::<f64>()
            / ((xs.len() - 1) as f64 * var);
        assert!((lag1 - 0.92).abs() < 0.05, "lag-1 autocorr {lag1}");
    }

    #[test]
    fn load_at_is_a_pure_function_of_time() {
        let m = model();
        let a = m.load_at(3, 500, 0.1);
        let b = m.load_at(3, 500, 0.1);
        assert_eq!(a, b);
        // And stays within the metric bounds everywhere.
        for t in 0..2_000 {
            let e = m.load_at(9, t, 0.0);
            assert!((0.02..=0.98).contains(&(1.0 - e.cpu_idle)));
            assert!((0.0..=0.5).contains(&e.io_wait));
            assert!(e.load5 >= 0.0);
            assert!((0.05..=0.98).contains(&e.mem_usage));
        }
    }

    #[test]
    fn analytic_window_mean_matches_numeric_average_of_the_baseline() {
        let m = model();
        for (now, len) in [(4_000u64, 2_000u64), (10_000, 4_320), (600, 600)] {
            let analytic = m.analytic_window_mean(now, len);
            let numeric = (now - len..now).map(|t| m.baseline_busy(t)).sum::<f64>() / len as f64;
            let busy = 1.0 - analytic.cpu_idle;
            assert!(
                (busy - numeric).abs() < 2e-3,
                "now={now} len={len}: analytic {busy} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn busy_at_is_bit_identical_to_load_at() {
        let m = model();
        for t in [0u64, 1, 47, 48, 49, 777, 100_000] {
            for mach in [0u64, 3, 9_999] {
                for assigned in [0.0, 0.15, 1.3] {
                    assert_eq!(
                        1.0 - m.busy_at(mach, t, assigned),
                        m.load_at(mach, t, assigned).cpu_idle
                    );
                }
            }
        }
    }

    #[test]
    fn assigned_work_raises_busy() {
        let m = model();
        let quiet = m.load_at(2, 900, 0.0);
        let loaded = m.load_at(2, 900, 0.4);
        assert!(loaded.cpu_idle < quiet.cpu_idle);
        assert!(loaded.load5 > quiet.load5);
    }

    #[test]
    fn seed_stream_is_pairwise_distinct_and_stable() {
        // Injectivity: distinct indices of the same master seed never
        // collide (the sweep harness's per-job seed guarantee).
        let seed = 0xdead_beef_cafe_f00d;
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(seed_stream(seed, i)), "collision at index {i}");
        }
        // Pure function: same (seed, index) always yields the same child.
        assert_eq!(seed_stream(7, 42), seed_stream(7, 42));
        // Different masters diverge.
        assert_ne!(seed_stream(7, 42), seed_stream(8, 42));
    }
}
