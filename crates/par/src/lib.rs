//! `mcsim-par` — the workspace's parallel compute substrate, and the only
//! code in it that creates threads.
//!
//! A dependency-free thread pool offering four primitives:
//!
//! * [`ThreadPool::parallel_for`] — index-range fan-out in fixed chunks;
//! * [`ThreadPool::parallel_map`] — order-preserving map over a slice;
//! * [`ThreadPool::parallel_for_chunks_mut`] — disjoint `&mut` chunks of a
//!   slice, written in place;
//! * [`ThreadPool::for_each`] — one call per job of an exact-size iterator.
//!
//! # Determinism
//!
//! Every primitive partitions work into jobs whose boundaries depend only
//! on the input size (never on the thread count) and runs each job with a
//! serial loop; callers that combine per-job results do so in job order. A
//! computation routed through this pool therefore produces
//! **bit-identical** results at 1, 2, or N threads — the property the
//! workspace's training-determinism tests pin down. Only *which thread*
//! runs a job changes.
//!
//! # Sizing
//!
//! The pool defaults to [`std::thread::available_parallelism`]. Override
//! with the `MCSIM_PAR_THREADS` environment variable (read once, at first
//! use) or at runtime with [`set_threads`] (e.g. the experiment harness's
//! serial baseline sets 1). [`ThreadPool::new`] pins an explicit count,
//! ignoring the global setting.
//!
//! # Helpers
//!
//! A fan-out runs on the calling thread and on the process's *helpers*:
//! threads spawned on first use, up to the largest pool size any fan-out
//! asked for minus one, that park on a condvar between fan-outs. A fan-out
//! at pool size `t` with `n` jobs is posted to helpers `0..min(t, n) − 1`,
//! so a pool of a given size always runs on the same threads and their
//! thread-local workspaces stay warm. Before the call returns, the fan-out
//! is *retracted*: closed to helpers, waited on until none of them runs
//! it, and the first panic of any of its jobs re-raised on the caller with
//! its payload. A warm fan-out spawns nothing and allocates nothing, but
//! waking helpers and handing out jobs still costs a microsecond or two,
//! so callers gate on [`min_parallel_work`] and only operations with enough
//! work fan out. Tests lower the gate with [`set_min_parallel_work`] to
//! force the parallel path on tiny inputs.
//!
//! At most one fan-out is posted at a time. A thread that finds another
//! one posted runs its own jobs alone, without waiting, so concurrent
//! callers never block each other. Fan-outs started while running fan-out
//! work — on a helper, or on a caller draining its own fan-out — run
//! inline: nested parallelism never oversubscribes the machine.
//!
//! # Observability
//!
//! When an [`mcsim_obs`] recorder is installed, every fan-out records the
//! invocation count (`par.invocations`), chunk count (`par.chunks`), chunks
//! executed by helpers rather than the caller (`par.chunks_stolen`), the
//! worker count (`par.threads` gauge), and a per-worker busy-time histogram
//! (`par.worker_busy_s`).

use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

// ------------------------------------------------------------- global knobs

/// Current global thread-count override; 0 means "use the default".
static CURRENT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Minimum amount of work (caller-defined units, typically FLOPs or
/// elements) below which size-gated callers stay serial.
static MIN_PARALLEL_WORK: AtomicUsize = AtomicUsize::new(DEFAULT_MIN_PARALLEL_WORK);

/// Default work gate: ~2M scalar operations, roughly where a fan-out's
/// dispatch cost (waking the parked helpers and handing out its jobs) is
/// safely amortized.
pub const DEFAULT_MIN_PARALLEL_WORK: usize = 1 << 21;

/// The baseline thread count: `MCSIM_PAR_THREADS` if set to a positive
/// integer, otherwise [`std::thread::available_parallelism`] (1 if unknown).
/// Resolved once per process.
pub fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if let Ok(v) = std::env::var("MCSIM_PAR_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// The effective global thread count: the latest [`set_threads`] override,
/// or [`default_threads`] if none was set.
pub fn threads() -> usize {
    match CURRENT_THREADS.load(Ordering::Relaxed) {
        0 => default_threads(),
        n => n,
    }
}

/// Overrides the global thread count at runtime (minimum 1). Pass the value
/// of [`default_threads`] to restore the baseline. Returns the previous
/// effective count.
pub fn set_threads(n: usize) -> usize {
    let prev = threads();
    CURRENT_THREADS.store(n.max(1), Ordering::Relaxed);
    prev
}

/// The current work gate used by size-gated callers (see
/// [`set_min_parallel_work`]).
pub fn min_parallel_work() -> usize {
    MIN_PARALLEL_WORK.load(Ordering::Relaxed)
}

thread_local! {
    /// True while this thread runs fan-out work: always on a helper, and on
    /// a caller while it drains its own fan-out.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// True on a thread currently executing fan-out work. Pool primitives run
/// inline on such threads instead of fanning out again.
pub fn on_worker_thread() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Runs `f` with the global thread count pinned to `n`, restoring the
/// previous setting afterwards (also on panic). The sweep harness uses this
/// to execute each thread-count group of a scenario matrix at its declared
/// pool size without leaking the override into the rest of the process.
///
/// The override is process-global, exactly like [`set_threads`]: concurrent
/// callers racing on it would observe each other's settings. Results are
/// unaffected either way — the pool is bit-identical at any thread count —
/// so the scope guard is about keeping *scheduling* intent local.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_threads(self.0);
        }
    }
    let _restore = Restore(set_threads(n));
    f()
}

/// Sets the work gate. Tests set 1 to force parallel execution on tiny
/// inputs; benchmarks may raise it to keep small kernels serial. Returns the
/// previous gate.
pub fn set_min_parallel_work(work: usize) -> usize {
    MIN_PARALLEL_WORK.swap(work.max(1), Ordering::Relaxed)
}

// ------------------------------------------------------------------- pool

/// A handle to the process's thread pool.
///
/// The handle is `Copy` and holds no OS resources: every handle shares the
/// process's parked helpers (see the crate docs) and only fixes how many
/// threads a fan-out may use, so a `ThreadPool` can be freely stored,
/// cloned, and shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPool {
    fixed: Option<usize>,
}

impl Default for ThreadPool {
    fn default() -> Self {
        ThreadPool::global()
    }
}

impl ThreadPool {
    /// A pool pinned to exactly `n` threads (minimum 1), ignoring the
    /// global setting.
    pub fn new(n: usize) -> ThreadPool {
        ThreadPool {
            fixed: Some(n.max(1)),
        }
    }

    /// The pool that tracks the global thread setting ([`threads`]) at each
    /// invocation — the handle every library hot path uses.
    pub fn global() -> ThreadPool {
        ThreadPool { fixed: None }
    }

    /// This pool's current thread count.
    pub fn threads(&self) -> usize {
        self.fixed.unwrap_or_else(threads)
    }

    /// Runs `body` over `0..n` split into contiguous chunks of at least
    /// `min_chunk` indices. Chunk boundaries depend only on `n` and
    /// `min_chunk`, so per-chunk work is identical at any thread count.
    pub fn parallel_for<F>(&self, n: usize, min_chunk: usize, body: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        let chunk = chunk_size(n, min_chunk);
        let jobs = (0..n).step_by(chunk).map(move |lo| lo..(lo + chunk).min(n));
        run_jobs(self.threads(), jobs, body);
    }

    /// Maps `f` over `items`, preserving order. `f` runs once per item; the
    /// output vector is exactly `items.iter().map(f).collect()` regardless
    /// of the thread count.
    pub fn parallel_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        let threads = self.threads();
        if threads <= 1 || items.len() <= 1 {
            return items.iter().map(f).collect();
        }
        // One item per job, so the queue load-balances uneven items.
        let mut out: Vec<Option<U>> = Vec::with_capacity(items.len());
        out.resize_with(items.len(), || None);
        run_jobs(threads, items.iter().zip(&mut out), |(item, slot)| {
            *slot = Some(f(item));
        });
        out.into_iter()
            .map(|slot| slot.expect("every item was mapped"))
            .collect()
    }

    /// [`ThreadPool::parallel_map`] behind the global work gate: stays on
    /// the calling thread when `items.len() × item_work` (caller-estimated
    /// units, typically FLOPs or elements) is below [`min_parallel_work`],
    /// so small fan-outs don't pay the dispatch cost. Results are identical
    /// either way — only the scheduling changes.
    pub fn parallel_map_gated<T, U, F>(&self, items: &[T], item_work: usize, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        if items.len().saturating_mul(item_work) < min_parallel_work() {
            return items.iter().map(f).collect();
        }
        self.parallel_map(items, f)
    }

    /// Splits `data` into consecutive chunks of `chunk_len` elements (the
    /// last may be shorter) and runs `f(chunk_index, chunk)` on each. The
    /// chunks are disjoint `&mut` views, so workers write results in place
    /// without synchronization — the engine behind the parallel matrix
    /// kernels.
    pub fn parallel_for_chunks_mut<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let jobs = data.chunks_mut(chunk_len.max(1)).enumerate();
        run_jobs(self.threads(), jobs, |(i, chunk)| f(i, chunk));
    }

    /// Runs `f` once per job, draining `jobs` across the pool. The
    /// lowest-level primitive: callers that need several mutable slices
    /// partitioned at matching boundaries (e.g. an optimizer updating
    /// value/grad/moment arrays in lock-step) zip the chunks into job
    /// tuples and hand the iterator here.
    pub fn for_each<I, F>(&self, jobs: I, f: F)
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator + Send,
        F: Fn(I::Item) + Sync,
    {
        run_jobs(self.threads(), jobs.into_iter(), f);
    }
}

/// Chunk size for `n` items with a floor of `min_chunk`.
fn chunk_size(n: usize, min_chunk: usize) -> usize {
    min_chunk.max(1).min(n.max(1))
}

/// The fan-out engine: drains `jobs` from a shared queue on the calling
/// thread and on up to `threads - 1` helpers. Job *assignment* is dynamic
/// (whichever thread is free takes the next job); job *content* is fixed by
/// the caller, which is what preserves determinism.
fn run_jobs<I, F>(threads: usize, jobs: I, f: F)
where
    I: ExactSizeIterator + Send,
    F: Fn(I::Item) + Sync,
{
    let n = jobs.len();
    if n == 0 {
        return;
    }
    // Nested fan-outs run inline: a kernel called from fan-out work already
    // has its share of the machine.
    if threads <= 1 || n == 1 || on_worker_thread() {
        jobs.for_each(f);
        return;
    }
    let instrumented = mcsim_obs::enabled();
    if instrumented {
        mcsim_obs::counter("par.invocations", 1);
        mcsim_obs::counter("par.chunks", n as u64);
        mcsim_obs::gauge("par.threads", threads.min(n) as f64);
    }
    let queue = Mutex::new(jobs);
    let drain = |is_caller: bool| {
        let started = Instant::now();
        let mut ran: u64 = 0;
        loop {
            let job = {
                let mut q = queue.lock().unwrap_or_else(PoisonError::into_inner);
                q.next()
            };
            match job {
                Some(job) => {
                    f(job);
                    ran += 1;
                }
                None => break,
            }
        }
        if instrumented && ran > 0 {
            mcsim_obs::observe("par.worker_busy_s", started.elapsed().as_secs_f64());
            if !is_caller {
                mcsim_obs::counter("par.chunks_stolen", ran);
            }
        }
    };
    let share = || drain(false);
    let share: &(dyn Fn() + Sync + '_) = &share;
    // SAFETY: only the lifetime changes. Helpers call `share` only while it
    // is posted and open to them, and `retract` below closes it and waits
    // until no helper is running it before this frame, which owns `share`
    // and everything it borrows, can end. No panic can skip `retract`: the
    // caller's own share runs under `catch_unwind`, and nothing else between
    // `post` and `retract` panics.
    let share = unsafe { std::mem::transmute::<&(dyn Fn() + Sync + '_), Share>(share) };
    let posted = post(share, threads.min(n) - 1);
    IN_WORKER.with(|w| w.set(true));
    let mine = catch_unwind(AssertUnwindSafe(|| drain(true)));
    let theirs = if posted { retract() } else { None };
    IN_WORKER.with(|w| w.set(false));
    if let Some(payload) = mine.err().or(theirs) {
        resume_unwind(payload);
    }
}

// ---------------------------------------------------------------- helpers

/// A posted fan-out's share for helpers: drains the fan-out's queue.
type Share = &'static (dyn Fn() + Sync);

/// The helpers' shared state. Every update under its lock is a plain field
/// store that leaves it consistent, so a guard recovered from a poisoned
/// lock is safe to use.
struct Helpers {
    /// The posted fan-out, if any.
    posted: Option<Share>,
    /// Helpers `0..open` may join the posted fan-out.
    open: usize,
    /// Helpers running the posted fan-out right now.
    running: usize,
    /// Helpers spawned so far; helper `i` was the `i`-th.
    spawned: usize,
    /// The first panic of a helper's share of the posted fan-out.
    panic: Option<Box<dyn Any + Send>>,
}

static HELPERS: Mutex<Helpers> = Mutex::new(Helpers {
    posted: None,
    open: 0,
    running: 0,
    spawned: 0,
    panic: None,
});

/// Parked helpers wait here for a fan-out to open to them.
static OPENED: Condvar = Condvar::new();

/// A retracting caller waits here for the last helper to leave its fan-out.
static LEFT: Condvar = Condvar::new();

fn helpers() -> MutexGuard<'static, Helpers> {
    HELPERS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Posts `share` to helpers `0..open`, spawning any that do not exist yet.
/// Posts nothing and returns `false` when another fan-out is posted.
fn post(share: Share, open: usize) -> bool {
    let mut h = helpers();
    if h.posted.is_some() {
        return false;
    }
    while h.spawned < open {
        let index = h.spawned;
        std::thread::Builder::new()
            .name(format!("mcsim-par-{index}"))
            .spawn(move || helper(index))
            .expect("the OS refused to start a pool helper thread");
        h.spawned += 1;
    }
    h.posted = Some(share);
    h.open = open;
    drop(h);
    OPENED.notify_all();
    true
}

/// Closes the posted fan-out to helpers, waits until none is running it,
/// and takes it down. Returns the first panic of a helper's share.
fn retract() -> Option<Box<dyn Any + Send>> {
    let mut h = helpers();
    h.open = 0;
    while h.running > 0 {
        h = LEFT.wait(h).unwrap_or_else(PoisonError::into_inner);
    }
    h.posted = None;
    h.panic.take()
}

/// Helper `index`'s life: park until a fan-out opens to it, run its share,
/// repeat. Helpers never exit; a panic in a job is caught and handed to the
/// fan-out's caller by [`retract`].
fn helper(index: usize) {
    IN_WORKER.with(|w| w.set(true));
    let mut h = helpers();
    loop {
        match h.posted {
            Some(share) if index < h.open => {
                h.running += 1;
                drop(h);
                let outcome = catch_unwind(AssertUnwindSafe(share));
                h = helpers();
                h.running -= 1;
                // A share ends when the queue is empty or one of its jobs
                // panicked; the caller drains whatever is left, so no later
                // helper needs to join.
                h.open = 0;
                if let Err(payload) = outcome {
                    h.panic.get_or_insert(payload);
                }
                if h.running == 0 {
                    LEFT.notify_one();
                }
            }
            _ => h = OPENED.wait(h).unwrap_or_else(PoisonError::into_inner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    /// Tests in this binary share the global thread setting and the
    /// process-global metrics recorder; serialize every test that mutates
    /// the setting or fans out (a fan-out records `par.*` metrics into
    /// whichever recorder is installed at the time).
    static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn parallel_map_preserves_order_and_length() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let items: Vec<u64> = (0..1000).collect();
        for t in [1, 2, 8] {
            let pool = ThreadPool::new(t);
            let out = pool.parallel_map(&items, |&x| x * x);
            assert_eq!(out.len(), items.len());
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, (i as u64) * (i as u64), "index {i} at {t} threads");
            }
        }
    }

    #[test]
    fn parallel_for_covers_every_index_exactly_once() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let n = 997; // prime, so chunks never divide evenly
        for t in [1, 3, 8] {
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            ThreadPool::new(t).parallel_for(n, 10, |range| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{t} threads"
            );
        }
    }

    #[test]
    fn chunks_mut_views_are_disjoint_and_complete() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut data = vec![0u32; 1003];
        ThreadPool::new(4).parallel_for_chunks_mut(&mut data, 100, |ci, chunk| {
            for v in chunk.iter_mut() {
                *v += 1 + ci as u32;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, 1 + (i / 100) as u32, "element {i}");
        }
    }

    #[test]
    fn gated_map_stays_serial_below_the_work_gate() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = set_min_parallel_work(1_000_000);
        let main_id = std::thread::current().id();
        let items: Vec<u64> = (0..64).collect();
        // 64 × 100 work units is far below the gate: every item must run on
        // the calling thread.
        let out = ThreadPool::new(8).parallel_map_gated(&items, 100, |&x| {
            assert_eq!(std::thread::current().id(), main_id, "fan-out despite gate");
            x * 2
        });
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        // Above the gate it still produces the same results.
        let out = ThreadPool::new(8).parallel_map_gated(&items, 1_000_000, |&x| x * 2);
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        set_min_parallel_work(prev);
    }

    #[test]
    fn nested_fan_outs_run_inline_on_worker_threads() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // A map dispatched from inside a pool job must not fan out again:
        // each inner item runs on the thread that called it.
        let items: Vec<u64> = (0..4).collect();
        let out = ThreadPool::new(4).parallel_map(&items, |&x| {
            let me = std::thread::current().id();
            let inner: Vec<u64> = ThreadPool::new(4).parallel_map(&items, |&y| {
                assert_eq!(std::thread::current().id(), me, "nested spawn");
                x * 10 + y
            });
            inner.iter().sum::<u64>()
        });
        assert_eq!(out, vec![6, 46, 86, 126]);
    }

    #[test]
    fn empty_inputs_are_no_ops() {
        let pool = ThreadPool::new(4);
        assert!(pool.parallel_map(&[] as &[u8], |&b| b).is_empty());
        pool.parallel_for(0, 8, |_| panic!("must not run"));
        pool.parallel_for_chunks_mut(&mut [] as &mut [u8], 4, |_, _| panic!("must not run"));
    }

    #[test]
    fn global_thread_override_round_trips() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let baseline = threads();
        set_threads(3);
        assert_eq!(threads(), 3);
        assert_eq!(ThreadPool::global().threads(), 3);
        assert_eq!(ThreadPool::new(7).threads(), 7, "fixed pools are pinned");
        set_threads(baseline);
        assert_eq!(threads(), baseline);
    }

    #[test]
    fn with_threads_scopes_the_override_and_restores_on_panic() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let baseline = threads();
        let inner = with_threads(5, || {
            assert_eq!(threads(), 5);
            ThreadPool::global().threads()
        });
        assert_eq!(inner, 5);
        assert_eq!(threads(), baseline, "override must not leak");
        // A panicking body still restores the previous setting.
        let caught = std::panic::catch_unwind(|| with_threads(3, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(threads(), baseline, "override must not leak on panic");
    }

    #[test]
    fn min_parallel_work_gate_round_trips() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = set_min_parallel_work(123);
        assert_eq!(min_parallel_work(), 123);
        set_min_parallel_work(prev);
        assert_eq!(min_parallel_work(), prev);
    }

    #[test]
    fn fan_outs_are_instrumented() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let rec = Arc::new(mcsim_obs::InMemoryRecorder::new());
        mcsim_obs::install(rec.clone());
        let out = ThreadPool::new(4).parallel_map(&(0..256).collect::<Vec<_>>(), |&x| x + 1);
        mcsim_obs::uninstall();
        assert_eq!(out.len(), 256);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("par.invocations"), 1);
        assert!(snap.counter("par.chunks") >= 4);
        assert!(snap.histogram("par.worker_busy_s").is_some());
    }

    #[test]
    fn caller_thread_participates_in_the_work() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Two jobs rendezvous on a 2-party barrier, so they can only both
        // finish if two distinct threads each take one — the single spawned
        // worker can't run both. The caller must therefore run exactly one.
        let main_id = std::thread::current().id();
        let barrier = std::sync::Barrier::new(2);
        let ran_on_main = AtomicU64::new(0);
        ThreadPool::new(2).parallel_for(2, 1, |_| {
            barrier.wait();
            if std::thread::current().id() == main_id {
                ran_on_main.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(ran_on_main.load(Ordering::Relaxed), 1);
    }

    /// Runs `f` on a detached thread and fails if it has not finished within
    /// a minute, so a fan-out that deadlocks fails the test instead of
    /// hanging the run.
    fn within_a_minute(what: &str, f: impl FnOnce() + Send + 'static) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
        });
        match rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(Ok(())) => {}
            Ok(Err(payload)) => resume_unwind(payload),
            Err(_) => panic!("{what} hung"),
        }
    }

    #[test]
    fn a_helper_panic_reaches_the_caller_and_the_helpers_live_on() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        within_a_minute("a fan-out with a panicking helper", || {
            for t in [2, 4, 8] {
                let pool = ThreadPool::new(t);
                for round in 0..3 {
                    // `t` jobs that meet at a `t`-party barrier need `t`
                    // threads: the caller runs one job, each helper another.
                    let caller = std::thread::current().id();
                    let barrier = std::sync::Barrier::new(t);
                    let caught = catch_unwind(AssertUnwindSafe(|| {
                        pool.parallel_for(t, 1, |_| {
                            barrier.wait();
                            if std::thread::current().id() != caller {
                                panic!("helper job failed at pool {t}, round {round}");
                            }
                        })
                    }));
                    let payload = caught.expect_err("a helper's panic must reach the caller");
                    assert_eq!(
                        payload.downcast_ref::<String>().map(String::as_str),
                        Some(format!("helper job failed at pool {t}, round {round}").as_str())
                    );
                    // Every helper is back and takes part in the next fan-out.
                    let barrier = std::sync::Barrier::new(t);
                    let ran = AtomicU64::new(0);
                    pool.parallel_for(t, 1, |_| {
                        barrier.wait();
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                    assert_eq!(ran.load(Ordering::Relaxed), t as u64, "pool {t}");
                }
            }
        });
    }

    #[test]
    fn concurrent_fan_outs_from_two_threads_both_complete() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        within_a_minute("two concurrent fan-outs", || {
            let items: Vec<u64> = (0..64).collect();
            let expected: Vec<u64> = items.iter().map(|&x| x * 3).collect();
            // Thread A's fan-out stays posted until thread B's has finished,
            // so B finds it posted and must run all of its jobs alone.
            let (posted, done) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
            std::thread::scope(|s| {
                let a = s.spawn(|| {
                    ThreadPool::new(2).parallel_map(&[0u64, 1], |&x| {
                        if x == 0 {
                            posted.wait();
                            done.wait();
                        }
                        x
                    })
                });
                let b = s.spawn(|| {
                    posted.wait();
                    let me = std::thread::current().id();
                    let out = ThreadPool::new(2).parallel_map(&items, |&x| {
                        assert_eq!(std::thread::current().id(), me, "B must work alone");
                        x * 3
                    });
                    done.wait();
                    out
                });
                assert_eq!(a.join().unwrap(), vec![0, 1]);
                assert_eq!(b.join().unwrap(), expected);
            });
            // Unsynchronized: posting and retracting race between the two.
            std::thread::scope(|s| {
                let racers: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            for _ in 0..50 {
                                let out = ThreadPool::new(4).parallel_map(&items, |&x| x * 3);
                                assert_eq!(out, expected);
                            }
                        })
                    })
                    .collect();
                for racer in racers {
                    racer.join().unwrap();
                }
            });
        });
    }

    #[test]
    fn helpers_are_reused_across_fan_outs() {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        within_a_minute("helper reuse", || {
            // `t` jobs meeting at a `t`-party barrier: the caller and all
            // `t − 1` helpers of a `t`-thread pool run one each. An 8-thread
            // fan-out first, so that more helpers exist than a 4-thread pool
            // may use.
            let ids = Mutex::new(std::collections::HashSet::new());
            for t in [8, 4] {
                let barrier = std::sync::Barrier::new(t);
                ids.lock().unwrap().clear();
                ThreadPool::new(t).parallel_for(t, 1, |_| {
                    barrier.wait();
                    ids.lock().unwrap().insert(std::thread::current().id());
                });
            }
            let pool = ThreadPool::new(4);
            let warm = std::mem::take(&mut *ids.lock().unwrap());
            assert_eq!(warm.len(), 4);
            for _ in 0..50 {
                pool.parallel_for(64, 1, |_| {
                    ids.lock().unwrap().insert(std::thread::current().id());
                });
            }
            let later = ids.into_inner().unwrap();
            assert!(later.is_subset(&warm), "{later:?} ⊄ {warm:?}");
        });
    }
}
