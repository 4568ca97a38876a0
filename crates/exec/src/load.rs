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
//!
//! ## One lane kernel, compiled twice
//!
//! The hot readers evaluate many chains per call: the allocator ranks its
//! candidates at one tick (`LoadModel::ou_busy_many`), and a stage reads
//! its machines over consecutive ticks (`LoadModel::window_env`). Both run
//! one kernel over fixed `[u64; 8]` / `[f64; 8]` lane arrays, which hashes
//! eight shocks per step and folds each into its own chain. The kernel is
//! written once, as `#[inline(always)]` bodies, and compiled twice: for
//! the baseline target, and inside a
//! `#[target_feature(enable = "avx512f,avx512dq")]` wrapper, where the
//! hash's 64-bit multiplies and its `u64 → f64` conversion have vector
//! forms. Each call picks the copy with `is_x86_feature_detected!`;
//! [`load_kernel`] names the one this host runs.
//!
//! Neither copy is a second model. Every lane runs the same integer hash,
//! the same exact conversion (`h >> 11 < 2⁵³`), and the same IEEE
//! multiply then add in the same oldest-first order as the scalar chain,
//! and Rust never contracts a multiply and an add into an FMA. So each
//! lane equals its scalar chain to the bit, and
//! [`LoadModel::load_at`] and [`LoadModel::busy_at`] stay the reference
//! that the unit tests hold both copies to.

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

/// Ticks whose Horner chains the portable window read advances together.
const LOCKSTEP: usize = 4;

/// Lanes of the shock kernel: one 512-bit vector of `u64` hash inputs or
/// `f64` shocks.
const LANES: usize = 8;

/// √12 scales a centred uniform to unit variance.
const SQRT_12: f64 = 3.464_101_615_137_754_6;

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

/// The part of a counter-based stream's hash input that names the stream:
/// every draw of one `(seed, stream, machine)` XORs its
/// [`counter_mix`] into this key.
#[inline(always)]
fn stream_key(seed: u64, stream: u64, machine: u64) -> u64 {
    seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f) ^ machine.wrapping_mul(0xe703_7ed1_a0b4_28db)
}

/// The counter's part of a counter-based stream's hash input.
#[inline(always)]
fn counter_mix(counter: u64) -> u64 {
    counter.wrapping_mul(0x8ebc_6af0_9c88_c6e3)
}

/// A uniform draw in `[0, 1)` from a hash input
/// `stream_key(..) ^ counter_mix(..)`.
#[inline(always)]
fn uniform_of(x: u64) -> f64 {
    // 53 mantissa bits → exact dyadic rational in [0, 1).
    (splitmix64(x) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A uniform draw in `[0, 1)` from a counter-based stream.
#[inline]
pub(crate) fn stream_uniform(seed: u64, stream: u64, machine: u64, counter: u64) -> f64 {
    uniform_of(stream_key(seed, stream, machine) ^ counter_mix(counter))
}

/// A zero-mean, unit-variance shock from a counter-based stream. Uniform
/// shocks (scaled to unit variance) are used instead of Gaussians: the
/// OU window sums 48 of them, so the resulting load deviation is
/// CLT-Gaussian anyway, at a fraction of the per-shock cost.
#[inline]
fn stream_shock(seed: u64, stream: u64, machine: u64, tick: u64) -> f64 {
    shock_of(stream_key(seed, stream, machine) ^ counter_mix(tick))
}

/// The shock of one hash input: an integer hash, an exact conversion
/// (`h >> 11 < 2⁵³`), then a multiply, a subtract and a multiply.
#[inline(always)]
fn shock_of(x: u64) -> f64 {
    (uniform_of(x) - 0.5) * SQRT_12
}

/// The lane kernel: the shock of each lane's hash input. Every lane runs
/// [`shock_of`]'s operations in its order, so it is that shock to the
/// bit, whichever copy it is compiled into.
#[inline(always)]
fn shock_lanes(x: [u64; LANES]) -> [f64; LANES] {
    let mut e = [0.0f64; LANES];
    for (e, &x) in e.iter_mut().zip(&x) {
        *e = shock_of(x);
    }
    e
}

/// True when this CPU runs the AVX-512 copy of the lane kernel: an x86-64
/// CPU with AVX-512F for the vectors and AVX-512DQ for the 64-bit
/// multiply and the `u64 → f64` conversion. The answer is cached after
/// the first call.
#[inline]
fn avx512() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Which compiled copy of the load model's lane kernel runs on this host:
/// `"avx512"` when the CPU has AVX-512F and AVX-512DQ, else
/// `"portable"`. Both copies compute the same bits; the name says which
/// one a run's timings and pin checks covered.
pub fn load_kernel() -> &'static str {
    if avx512() {
        "avx512"
    } else {
        "portable"
    }
}

/// Length of one stream's row of window-read shocks for a window of `len`
/// ticks: the `OU_WINDOW − 1` ticks before the window, the window, and
/// room to finish the last lane group.
const fn window_row(len: usize) -> usize {
    len + OU_WINDOW as usize + LANES - 2
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

    /// [`ou_busy`](Self::ou_busy) of [`LANES`] machines at `tick`, their
    /// chains advanced in lockstep: each step hashes one shock per lane
    /// and folds it into that lane's accumulator by the same
    /// multiply-then-add, oldest shock first.
    #[inline(always)]
    fn ou_busy_lanes(&self, machines: [u64; LANES], tick: u64) -> [f64; LANES] {
        let rho = 1.0 - self.dynamics.theta;
        let mut keys = [0u64; LANES];
        for (k, &m) in keys.iter_mut().zip(&machines) {
            *k = stream_key(self.seed, STREAM_BUSY, m);
        }
        let mut acc = [0.0f64; LANES];
        for s in tick.saturating_sub(OU_WINDOW - 1)..=tick {
            let c = counter_mix(s);
            let mut x = keys;
            for x in &mut x {
                *x ^= c;
            }
            horner_step(&mut acc, rho, &shock_lanes(x));
        }
        acc
    }

    /// The busy-stream OU deviation of every machine of `machines` at
    /// `tick` into `out` (resized to match): `out[k]` is
    /// [`ou_busy`](Self::ou_busy) of `machines[k]` to the bit. The
    /// allocator's ranking reads its candidates through this, eight lanes
    /// at a time, on the AVX-512 copy when the CPU has it.
    pub(crate) fn ou_busy_many(&self, machines: &[usize], tick: u64, out: &mut Vec<f64>) {
        out.clear();
        out.resize(machines.len(), 0.0);
        #[cfg(target_arch = "x86_64")]
        if avx512() {
            // SAFETY: `avx512()` has just detected AVX-512F and AVX-512DQ.
            return unsafe { self.ou_busy_many_avx512(machines, tick, out) };
        }
        self.ou_busy_many_lanes::<false>(machines, tick, out);
    }

    /// The body of [`ou_busy_many`](Self::ou_busy_many), compiled into
    /// both copies: whole groups of [`LANES`] machines run in lockstep. A
    /// short last group runs padded (`PAD`, the AVX-512 copy, where a lane
    /// costs next to nothing) or one chain at a time (the portable copy,
    /// where idle lanes cost as much as busy ones).
    #[inline(always)]
    fn ou_busy_many_lanes<const PAD: bool>(&self, machines: &[usize], tick: u64, out: &mut [f64]) {
        let groups = machines.chunks_exact(LANES);
        let tail = groups.remainder();
        let mut outs = out.chunks_exact_mut(LANES);
        for (g, o) in groups.zip(&mut outs) {
            let ids = std::array::from_fn(|l| g[l] as u64);
            o.copy_from_slice(&self.ou_busy_lanes(ids, tick));
        }
        let out_tail = outs.into_remainder();
        if PAD && !tail.is_empty() {
            // Idle lanes repeat the last machine; their chains are dropped.
            let ids = std::array::from_fn(|l| tail[l.min(tail.len() - 1)] as u64);
            out_tail.copy_from_slice(&self.ou_busy_lanes(ids, tick)[..tail.len()]);
        } else {
            for (o, &m) in out_tail.iter_mut().zip(tail) {
                *o = self.ou_busy(m as u64, tick);
            }
        }
    }

    /// The AVX-512 copy of [`ou_busy_many`](Self::ou_busy_many).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn ou_busy_many_avx512(&self, machines: &[usize], tick: u64, out: &mut [f64]) {
        self.ou_busy_many_lanes::<true>(machines, tick, out);
    }

    /// The part of the busy fraction every machine shares at `tick`: the
    /// diurnal baseline plus the tenant-churn jitter (a `sin` and a hash).
    /// Readers of many machines at one tick compute it once and pass it on.
    #[inline]
    pub(crate) fn shared_busy(&self, tick: u64) -> f64 {
        self.baseline_busy(tick) + self.jitter(tick)
    }

    /// The single place the busy fraction is assembled from its parts —
    /// shared by [`busy_at`](Self::busy_at), [`load_at`](Self::load_at),
    /// the window reads and the allocator's ranking, so the ranking key
    /// equals `1 − cpu_idle` exactly. `shared` is the tick's
    /// [`shared_busy`](Self::shared_busy).
    #[inline]
    pub(crate) fn busy_from(&self, shared: f64, ou_b: f64, assigned: f64) -> f64 {
        (shared + self.dynamics.sigma_busy * ou_b + assigned.min(0.9)).clamp(0.02, 0.98)
    }

    /// A machine's busy fraction at `tick` — the allocator's ranking key.
    /// Evaluates only the busy shock stream (a third of the hashing of a
    /// full [`load_at`](Self::load_at)) and is bit-identical to
    /// `1.0 - load_at(..).cpu_idle`.
    #[inline]
    pub fn busy_at(&self, machine: u64, tick: u64, assigned: f64) -> f64 {
        self.busy_from(
            self.shared_busy(tick),
            self.ou_busy(machine, tick),
            assigned,
        )
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
        let len = assigned.len();
        let mut shocks = vec![0.0; 3 * window_row(len)];
        let mut out = Vec::with_capacity(len);
        self.ou3_window(machine, start, len, &mut shocks, |k, ou| {
            let t = start + k as u64;
            out.push(self.load_from(self.shared_busy(t), ou, assigned[k]));
        });
        out
    }

    /// The three OU deviations of `machine` at each of the `len` ticks
    /// from `start`, handed to `sink(k, ou)` for tick `start + k` in tick
    /// order; each is [`ou3`](Self::ou3) of that tick to the bit. `shocks`
    /// is scratch of `3 × window_row(len)` values whose leading
    /// `OU_WINDOW − 1 − start` of each row (if any) are `+0.0`: a zeroed
    /// buffer, reused across the machines of one window.
    ///
    /// Each row holds one stream's shocks, `row[j]` that of tick
    /// `start + j − (OU_WINDOW − 1)`, so tick `start + k` reads
    /// `row[k..k + OU_WINDOW]`. A chain that would reach back before tick
    /// 0 is shorter; its missing oldest shocks are the row's +0.0s, which
    /// keep the accumulator at exactly the +0.0 it starts from
    /// (ρ·(+0) + (+0) = +0), so it gets the same bits from a full row.
    fn ou3_window(
        &self,
        machine: u64,
        start: u64,
        len: usize,
        shocks: &mut [f64],
        sink: impl FnMut(usize, (f64, f64, f64)),
    ) {
        #[cfg(target_arch = "x86_64")]
        if avx512() {
            // SAFETY: `avx512()` has just detected AVX-512F and AVX-512DQ.
            return unsafe { self.ou3_window_avx512(machine, start, len, shocks, sink) };
        }
        self.ou3_window_lanes::<false>(machine, start, len, shocks, sink);
    }

    /// The body of [`ou3_window`](Self::ou3_window), compiled into both
    /// copies. The AVX-512 copy (`WIDE`) hashes each row [`LANES`]
    /// consecutive ticks at a time and advances the chains of `LANES`
    /// consecutive ticks per vector; the portable copy hashes a tick's
    /// three shocks side by side and advances [`LOCKSTEP`] ticks' chains
    /// together, whose independent accumulators overlap instead of waiting
    /// on one chain's latency. Each chain keeps its own operation order
    /// either way.
    #[inline(always)]
    fn ou3_window_lanes<const WIDE: bool>(
        &self,
        machine: u64,
        start: u64,
        len: usize,
        shocks: &mut [f64],
        mut sink: impl FnMut(usize, (f64, f64, f64)),
    ) {
        const W: usize = OU_WINDOW as usize;
        let n = window_row(len);
        assert_eq!(shocks.len(), 3 * n, "three rows of window shocks");
        let pad = (W as u64 - 1).saturating_sub(start) as usize;
        let oldest = start + pad as u64 - (W as u64 - 1);
        let keys = [STREAM_BUSY, STREAM_IO, STREAM_MEM]
            .map(|stream| stream_key(self.seed, stream, machine));
        let (busy, rest) = shocks.split_at_mut(n);
        let (io, mem) = rest.split_at_mut(n);
        if WIDE {
            // Stream by stream: the AVX-512 build keeps the hash in vectors
            // only when a group of lanes runs one stream. Whole groups from
            // `pad`: `window_row` leaves room for the last one, whose ticks
            // past the window feed dropped lanes.
            for (row, key) in [&mut *busy, &mut *io, &mut *mem].into_iter().zip(keys) {
                for (g, s) in row[pad..]
                    .chunks_exact_mut(LANES)
                    .zip((oldest..).step_by(LANES))
                {
                    let x = std::array::from_fn(|l| key ^ counter_mix(s + l as u64));
                    g.copy_from_slice(&shock_lanes(x));
                }
            }
        } else {
            // Tick by tick, a tick's three hashes side by side. The baseline
            // target has no vector 64-bit multiply: a loop over one stream
            // gets vectorized around an emulated one, slower than scalar.
            let end = len + W - 1;
            for (((b, i), m), s) in busy[pad..end]
                .iter_mut()
                .zip(&mut io[pad..end])
                .zip(&mut mem[pad..end])
                .zip(oldest..)
            {
                let c = counter_mix(s);
                *b = shock_of(keys[0] ^ c);
                *i = shock_of(keys[1] ^ c);
                *m = shock_of(keys[2] ^ c);
            }
        }
        let rho = 1.0 - self.dynamics.theta;
        let rows = [&*busy, &*io, &*mem];
        if WIDE {
            ou3_chains::<LANES>(rho, rows, len, &mut sink);
        } else {
            ou3_chains::<LOCKSTEP>(rho, rows, len, &mut sink);
        }
    }

    /// The AVX-512 copy of [`ou3_window`](Self::ou3_window).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn ou3_window_avx512(
        &self,
        machine: u64,
        start: u64,
        len: usize,
        shocks: &mut [f64],
        sink: impl FnMut(usize, (f64, f64, f64)),
    ) {
        self.ou3_window_lanes::<true>(machine, start, len, shocks, sink);
    }

    /// The environment a stage observes over the window of `duration + 1`
    /// ticks from `start` on `machines`: per tick, the mean load over
    /// `machines` in the given order, then the mean over the ticks in tick
    /// order. `assigned` is the work placed on each machine at each window
    /// tick, machine-major (`duration + 1` per machine). Each machine's
    /// loads come from one [`ou3_window`](Self::ou3_window) pass over one
    /// shock buffer, every tick's [`shared_busy`](Self::shared_busy) from
    /// one evaluation, and each tick's machine sum accumulates in machine
    /// order — the sum [`EnvMetrics::mean`] would take.
    pub(crate) fn window_env(
        &self,
        machines: &[usize],
        start: u64,
        duration: u64,
        assigned: &[f64],
    ) -> EnvMetrics {
        let ticks = duration as usize + 1;
        assert_eq!(
            assigned.len(),
            machines.len() * ticks,
            "one placed-work entry per machine per window tick"
        );
        if machines.is_empty() {
            return EnvMetrics::default();
        }
        // Per window tick: its shared busy term, then its machines' sum.
        let mut per_tick: Vec<(f64, EnvMetrics)> = (start..)
            .take(ticks)
            .map(|t| (self.shared_busy(t), EnvMetrics::default()))
            .collect();
        let mut shocks = vec![0.0; 3 * window_row(ticks)];
        for (&i, assigned) in machines.iter().zip(assigned.chunks(ticks)) {
            self.ou3_window(i as u64, start, ticks, &mut shocks, |k, ou| {
                let (shared, sum) = &mut per_tick[k];
                let e = self.load_from(*shared, ou, assigned[k]);
                sum.cpu_idle += e.cpu_idle;
                sum.io_wait += e.io_wait;
                sum.load5 += e.load5;
                sum.mem_usage += e.mem_usage;
            });
        }
        let n = machines.len() as f64;
        for (_, sum) in &mut per_tick {
            sum.cpu_idle /= n;
            sum.io_wait /= n;
            sum.load5 /= n;
            sum.mem_usage /= n;
        }
        EnvMetrics::mean(per_tick.iter().map(|(_, mean)| mean))
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

/// Advances the OU chains of the `len` window ticks whose shocks are
/// `rows` (busy, io, mem; laid out as in [`LoadModel::ou3_window`]), `L`
/// consecutive ticks per group, and hands each tick's deviations to
/// `sink`. Each stream's lanes are one fixed-size array, so the compiler
/// keeps them in one vector register.
#[inline(always)]
fn ou3_chains<const L: usize>(
    rho: f64,
    rows: [&[f64]; 3],
    len: usize,
    sink: &mut impl FnMut(usize, (f64, f64, f64)),
) {
    const W: usize = OU_WINDOW as usize;
    for g in (0..len).step_by(L) {
        let [busy, io, mem] = rows.map(|row| &row[g..g + L + W - 1]);
        let (mut b, mut i, mut m) = ([0.0f64; L], [0.0f64; L], [0.0f64; L]);
        for w in 0..W {
            horner_step(&mut b, rho, &busy[w..w + L]);
            horner_step(&mut i, rho, &io[w..w + L]);
            horner_step(&mut m, rho, &mem[w..w + L]);
        }
        for k in 0..L.min(len - g) {
            sink(g + k, (b[k], i[k], m[k]));
        }
    }
}

/// One step of `L` Horner chains: `acc = ρ·acc + e`, lane by lane, the
/// multiply then the add, as in [`LoadModel::ou3`].
#[inline(always)]
fn horner_step<const L: usize>(acc: &mut [f64; L], rho: f64, e: &[f64]) {
    let e = e.first_chunk::<L>().expect("a shock per lane");
    for (x, e) in acc.iter_mut().zip(e) {
        *x = rho * *x + e;
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

    /// The compiled copies of the lane kernel this host runs: the portable
    /// copy always, the AVX-512 copy when the CPU has AVX-512F and
    /// AVX-512DQ. Printed, so a test log says which copies were held to
    /// the reference.
    fn copies() -> Vec<&'static str> {
        let copies = if avx512() {
            vec!["portable", "avx512"]
        } else {
            println!("lane kernel: AVX-512F/DQ not detected, the avx512 copy is not checked");
            vec!["portable"]
        };
        println!("lane kernel copies checked: {copies:?}");
        assert!(
            copies.contains(&load_kernel()),
            "the dispatched copy is checked"
        );
        copies
    }

    /// [`LoadModel::ou_busy_many`]'s body on the named copy.
    fn ou_busy_many_on(m: &LoadModel, copy: &str, machines: &[usize], tick: u64) -> Vec<f64> {
        let mut out = vec![0.0; machines.len()];
        match copy {
            "portable" => m.ou_busy_many_lanes::<false>(machines, tick, &mut out),
            #[cfg(target_arch = "x86_64")]
            "avx512" => {
                assert!(avx512(), "the avx512 copy needs AVX-512F and AVX-512DQ");
                // SAFETY: the assert above has just detected AVX-512F and AVX-512DQ.
                unsafe { m.ou_busy_many_avx512(machines, tick, &mut out) }
            }
            other => panic!("no {other} copy on this target"),
        }
        out
    }

    /// [`LoadModel::ou3_window`]'s body on the named copy, collected.
    fn ou3_window_on(
        m: &LoadModel,
        copy: &str,
        machine: u64,
        start: u64,
        len: usize,
        shocks: &mut [f64],
    ) -> Vec<(usize, (f64, f64, f64))> {
        let mut got = Vec::new();
        let sink = |k, ou| got.push((k, ou));
        match copy {
            "portable" => m.ou3_window_lanes::<false>(machine, start, len, shocks, sink),
            #[cfg(target_arch = "x86_64")]
            "avx512" => {
                assert!(avx512(), "the avx512 copy needs AVX-512F and AVX-512DQ");
                // SAFETY: the assert above has just detected AVX-512F and AVX-512DQ.
                unsafe { m.ou3_window_avx512(machine, start, len, shocks, sink) }
            }
            other => panic!("no {other} copy on this target"),
        }
        got
    }

    /// A model of case `case`: its own seed and a θ drawn from
    /// `[0.01, 0.5]`, both ends included.
    fn case_model(case: u64) -> LoadModel {
        let theta = match case % 7 {
            0 => 0.01,
            1 => 0.5,
            _ => 0.01 + 0.49 * stream_uniform(case, 9, 0, 0),
        };
        LoadModel {
            seed: splitmix64(case),
            dynamics: LoadDynamics {
                theta,
                ..LoadDynamics::default()
            },
            ..model()
        }
    }

    #[test]
    fn lane_ranking_equals_per_candidate_busy_at() {
        let copies = copies();
        let ticks: Vec<u64> = (0..=OU_WINDOW)
            .chain([1_000_000, 1_000_001, 7_654_321])
            .collect();
        let mut case = 0;
        for len in (1..=40).chain([200]) {
            for &tick in &ticks {
                case += 1;
                let m = case_model(case);
                // Ids up to 20,000; every fifth repeats the one before.
                let mut machines = Vec::with_capacity(len);
                for k in 0..len as u64 {
                    let id = match machines.last() {
                        Some(&last) if k % 5 == 4 => last,
                        _ => (splitmix64(case << 16 | k) % 20_001) as usize,
                    };
                    machines.push(id);
                }
                let mut dispatched = Vec::new();
                m.ou_busy_many(&machines, tick, &mut dispatched);
                let shared = m.shared_busy(tick);
                for &copy in &copies {
                    let ou = ou_busy_many_on(&m, copy, &machines, tick);
                    assert_eq!(ou.len(), len);
                    for (k, (&i, &ou)) in machines.iter().zip(&ou).enumerate() {
                        let want = m.ou_busy(i as u64, tick);
                        assert_eq!(
                            ou.to_bits(),
                            want.to_bits(),
                            "{copy}: candidate {k} of {len} (machine {i}) at tick {tick}, θ {}",
                            m.dynamics.theta
                        );
                        assert_eq!(ou.to_bits(), dispatched[k].to_bits());
                        let assigned = 0.3 * (k % 4) as f64;
                        assert_eq!(
                            m.busy_from(shared, ou, assigned).to_bits(),
                            m.busy_at(i as u64, tick, assigned).to_bits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lane_window_equals_per_tick_load_at() {
        let copies = copies();
        let starts = [0u64, 1, 5, 17, 30, 46, 47, 48, 100, 999_983];
        let mut case = 0;
        for len in 1..=25usize {
            for &start in &starts {
                case += 1;
                let m = case_model(case);
                let assigned: Vec<f64> = (0..len).map(|k| 0.2 * (k % 7) as f64).collect();
                for &copy in &copies {
                    // One zeroed buffer serves every machine of a window.
                    let mut shocks = vec![0.0; 3 * window_row(len)];
                    for machine in [splitmix64(case) % 20_000, 0, 19_999] {
                        let got = ou3_window_on(&m, copy, machine, start, len, &mut shocks);
                        assert_eq!(got.len(), len, "{copy}: one deviation per window tick");
                        for (k, &(at, ou)) in got.iter().enumerate() {
                            let tick = start + k as u64;
                            let want = m.ou3(machine, tick);
                            assert_eq!(at, k, "{copy}: ticks in order");
                            assert_eq!(
                                [ou.0, ou.1, ou.2].map(f64::to_bits),
                                [want.0, want.1, want.2].map(f64::to_bits),
                                "{copy}: machine {machine} tick {tick} (window of {len} from \
                                 {start}), θ {}",
                                m.dynamics.theta
                            );
                            assert_eq!(
                                m.load_from(m.shared_busy(tick), ou, assigned[k]),
                                m.load_at(machine, tick, assigned[k])
                            );
                        }
                    }
                }
            }
        }
    }
}
