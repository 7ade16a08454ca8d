//! Host-parallel execution of suite compilation jobs.
//!
//! The suite compiler's unit of parallelism is the **region job**: one solo
//! region compilation, or one cooperative batch group (batched mode). Jobs
//! are pure — [`run_job`] reads only shared immutable inputs and returns
//! its outcomes — so running them on any number of host threads in any
//! order produces the same per-job results. Determinism of the whole suite
//! run then rests on two invariants:
//!
//! 1. [`plan_jobs`] enumerates jobs in **canonical order**: kernels in
//!    suite order; within a kernel, batch groups in plan order followed by
//!    solo fallbacks in region order (exactly the order the sequential
//!    compiler visits them).
//! 2. The caller merges job results **in job index order** on one thread —
//!    replaying observer callbacks, summing modeled compile time, and
//!    applying the kernel post filter exactly as the sequential flow does.
//!
//! Under those invariants, `SuiteRun`, every observer callback, and every
//! float accumulation are byte-identical at any `host_threads` value; the
//! pool only changes host wall-clock time.
//!
//! The pool is one index cursor and exactly `host_threads` threads, the
//! calling thread among them: the job list is fixed before the first
//! worker starts and jobs never spawn jobs, so each thread claims the next
//! canonical index with one `fetch_add`, and a scoped worker retires when
//! the cursor passes the end. Handing indices out in strict order is also
//! what the in-order consumer wants — the slot it waits on is always among
//! the oldest claimed, never parked behind later work in some worker's
//! queue. Every thread publishes finished results into a pre-sized
//! `SlotTable` (one write-once slot per canonical job index — no
//! channel, no unbounded buffering). The *calling thread* is also the
//! consumer: it takes slot `i` as soon as it has landed, in index order,
//! runs a job from the cursor while it has not, and blocks on it only once
//! the cursor is spent. A job that panics cancels the table on its way
//! out, so the consumer stops and the call re-raises the panic instead of
//! waiting on a slot nobody will fill.
//!
//! Two execution shapes are offered over that one body. [`run_jobs`] is the
//! barrier shape: the consumer only collects, then the caller merges —
//! retained as the reference implementation the equivalence tests compare
//! against. [`run_jobs_streaming`] is the pipelined shape: the consumer is
//! the merge itself. Because consumption order is canonical either way,
//! both shapes feed the merge the identical stream; streaming only moves
//! the merge work into the shadow of still-running jobs.
//!
//! A thread with no job left lends its core to the wavefronts of a large
//! region still in flight ([`aco::lend`]); results do not change.

use crate::analyze::analyze_region;
use crate::batch::{compile_batch_group, plan_batches};
use crate::cache::ScheduleCache;
use crate::config::{PipelineConfig, SchedulerKind};
use crate::region::{compile_region, RegionCompilation};
use aco::IdleCores;
use machine_model::OccupancyModel;
use sched_analyze::Finding;
use sched_ir::Ddg;
use std::convert::Infallible;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::thread;
use std::time::Instant;
use workloads::Suite;

/// One unit of parallel suite-compilation work.
#[derive(Debug, Clone)]
pub enum RegionJob {
    /// Compile one region on its own launch pair.
    Solo {
        /// Kernel index within the suite.
        kernel: usize,
        /// Region index within the kernel.
        region: usize,
    },
    /// Compile one planned batch group in a cooperative launch pair.
    Group {
        /// Kernel index within the suite.
        kernel: usize,
        /// Member region indices, in group order.
        members: Vec<usize>,
    },
}

impl RegionJob {
    /// The kernel this job belongs to.
    pub fn kernel(&self) -> usize {
        match self {
            RegionJob::Solo { kernel, .. } | RegionJob::Group { kernel, .. } => *kernel,
        }
    }
}

/// One region's compilation, tagged with the configuration its
/// construction actually ran under (batch groups record the split colony).
#[derive(Debug)]
pub struct RegionOutcome {
    /// Region index within the kernel.
    pub region: usize,
    /// The configuration the region's construction ran under.
    pub cfg: PipelineConfig,
    /// The compilation outcome.
    pub comp: RegionCompilation,
    /// In-pipeline analysis of this compilation ([`analyze_region`]), not
    /// yet attributed to a suite position. Empty when
    /// [`PipelineConfig::analyze`] is off.
    pub findings: Vec<Finding>,
}

/// Plans the suite's job list in canonical (sequential-replay) order.
pub fn plan_jobs(suite: &Suite, cfg: &PipelineConfig) -> Vec<RegionJob> {
    let mut jobs = Vec::with_capacity(suite.region_count());
    for (k, kernel) in suite.kernels.iter().enumerate() {
        if cfg.scheduler == SchedulerKind::BatchedParallelAco {
            let sizes: Vec<usize> = kernel.regions.iter().map(Ddg::len).collect();
            let groups = plan_batches(&sizes, cfg.aco.blocks, &cfg.batching);
            let mut planned = vec![false; kernel.regions.len()];
            for group in groups {
                for &ri in &group {
                    planned[ri] = true;
                }
                jobs.push(RegionJob::Group {
                    kernel: k,
                    members: group,
                });
            }
            // Solo fallback for the regions the planner left out, after the
            // groups — matching the sequential batched compiler's order.
            for (ri, done) in planned.iter().enumerate() {
                if !done {
                    jobs.push(RegionJob::Solo {
                        kernel: k,
                        region: ri,
                    });
                }
            }
        } else {
            for ri in 0..kernel.regions.len() {
                jobs.push(RegionJob::Solo {
                    kernel: k,
                    region: ri,
                });
            }
        }
    }
    jobs
}

/// Runs one job to completion. Pure: reads only the shared inputs, returns
/// outcomes in the order the sequential compiler would observe them. When a
/// [`ScheduleCache`] is supplied, a solo region of a kind that runs a
/// colony ([`SchedulerKind::runs_colony`]) is compiled through it —
/// transparently, since every hit is equality-checked and re-certified (see
/// [`crate::cache`]), so the outcomes are byte-identical either way. Two
/// jobs compile directly and never touch the cache: a solo region of a
/// list-scheduled kind (on `frontend-large` its compile takes 11–14 µs and
/// a certified hit about 12 µs) and a batch group, through
/// [`compile_batch_group`] (on `suite-variants` 3 of 27 group lookups hit,
/// saving 0.19 ms of 265 ms). Storing either would buy no time and hold
/// memory.
///
/// `_retired` is always `None`: the sixth argument once carried the
/// self-tuning store, which was removed. It stays, typed so that it can
/// hold nothing, because the benchmark calls `run_job` with six arguments.
///
/// With [`PipelineConfig::analyze`] enabled, every region the job compiled
/// (cache hit or miss) is analyzed here, so analysis parallelizes with the
/// jobs and the merge only absorbs findings.
pub fn run_job(
    job: &RegionJob,
    suite: &Suite,
    occ: &OccupancyModel,
    cfg: &PipelineConfig,
    cache: Option<&ScheduleCache>,
    _retired: Option<&Infallible>,
) -> Vec<RegionOutcome> {
    let analyze = |ddg: &Ddg, comp: &RegionCompilation| {
        if cfg.analyze.enabled {
            analyze_region(ddg, comp)
        } else {
            Vec::new()
        }
    };
    match job {
        RegionJob::Solo { kernel, region } => {
            let ddg = &suite.kernels[*kernel].regions[*region];
            let comp = match cache.filter(|_| cfg.scheduler.runs_colony()) {
                Some(cache) => cache.compile_solo(ddg, occ, cfg),
                None => compile_region(ddg, occ, cfg),
            };
            vec![RegionOutcome {
                region: *region,
                cfg: *cfg,
                findings: analyze(ddg, &comp),
                comp,
            }]
        }
        RegionJob::Group { kernel, members } => {
            let kernel = &suite.kernels[*kernel];
            let ddgs: Vec<&Ddg> = members.iter().map(|&ri| &kernel.regions[ri]).collect();
            let outcomes = compile_batch_group(&ddgs, occ, cfg);
            members
                .iter()
                .zip(ddgs)
                .zip(outcomes)
                .map(|((&ri, ddg), (rcfg, comp))| RegionOutcome {
                    region: ri,
                    cfg: rcfg,
                    findings: analyze(ddg, &comp),
                    comp,
                })
                .collect()
        }
    }
}

/// Executes every job, returning results indexed by job: the barrier shape
/// of the pool, whose consumer only collects. `threads <= 1` (or a single
/// job) runs inline on the calling thread. Either way the result vector is
/// identical: jobs are pure and indexed.
pub fn run_jobs(
    suite: &Suite,
    occ: &OccupancyModel,
    cfg: &PipelineConfig,
    jobs: &[RegionJob],
    threads: usize,
    cache: Option<&ScheduleCache>,
) -> Vec<Vec<RegionOutcome>> {
    let mut results = Vec::with_capacity(jobs.len());
    run_indexed(
        jobs.len(),
        threads,
        |i| run_job(&jobs[i], suite, occ, cfg, cache, None),
        |_, outcomes, _| results.push(outcomes),
    );
    results
}

/// A pre-sized table of write-once result slots, one per canonical job
/// index — the hand-off between streaming producers and the in-order
/// consumer. Unlike a channel it holds at most one value per job (bounded
/// by construction) and delivers them in *slot* order, not completion
/// order, which is exactly what the deterministic merge needs.
///
/// A table has one consumer. While it blocks in
/// [`wait_take`](SlotTable::wait_take) the table records the slot it waits
/// on, and a publish wakes it only when it fills that slot.
///
/// [`cancel`](SlotTable::cancel) aborts the rendezvous: pending and future
/// [`wait_take`](SlotTable::wait_take) calls return `None`, and late
/// publishes are dropped. The pool uses it to release its consumer when a
/// job panics.
struct SlotTable<T> {
    state: Mutex<SlotState<T>>,
    ready: Condvar,
}

struct SlotState<T> {
    slots: Vec<Option<T>>,
    cancelled: bool,
    /// The slot the consumer is blocked on, if it is blocked.
    awaited: Option<usize>,
}

impl<T> SlotTable<T> {
    /// A table of `n` empty slots.
    fn new(n: usize) -> SlotTable<T> {
        SlotTable {
            state: Mutex::new(SlotState {
                slots: (0..n).map(|_| None).collect(),
                cancelled: false,
                awaited: None,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SlotState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fills slot `i`, waking the consumer if it is blocked on that slot.
    /// Each slot is write-once: publishing an occupied slot panics (two jobs
    /// claimed the same index). Publishes after
    /// [`cancel`](SlotTable::cancel) are dropped.
    fn publish(&self, i: usize, value: T) {
        let mut s = self.lock();
        if s.cancelled {
            return;
        }
        assert!(s.slots[i].is_none(), "job slot {i} published twice");
        s.slots[i] = Some(value);
        if s.awaited == Some(i) {
            self.ready.notify_one();
        }
    }

    /// Aborts the rendezvous: every pending and future `wait_take` returns
    /// `None`, and late publishes are dropped.
    fn cancel(&self) {
        self.lock().cancelled = true;
        self.ready.notify_all();
    }

    /// Takes slot `i` if it has been published, without blocking.
    fn try_take(&self, i: usize) -> Option<T> {
        self.lock().slots[i].take()
    }

    /// Blocks until slot `i` is published (returning the value) or the
    /// table is cancelled (returning `None`). A value already published
    /// before cancellation is still delivered.
    fn wait_take(&self, i: usize) -> Option<T> {
        let mut s = self.lock();
        let taken = loop {
            if let Some(v) = s.slots[i].take() {
                break Some(v);
            }
            if s.cancelled {
                break None;
            }
            s.awaited = Some(i);
            s = self.ready.wait(s).unwrap_or_else(PoisonError::into_inner);
        };
        s.awaited = None;
        taken
    }
}

/// Host-timing facts of one [`run_jobs_streaming`] call, for wall-clock
/// instrumentation (the merge side is timed by the caller's consumer).
#[derive(Debug, Clone, Copy)]
pub struct StreamTiming {
    /// Cumulative wall time spent inside [`run_job`], summed over every
    /// thread that ran jobs, the calling thread included.
    pub jobs_busy_s: f64,
    /// Wall span from the start of the job phase to the completion of the
    /// last job. Inline mode: equals `jobs_busy_s` (jobs alternate with
    /// merge work on one thread, so a span would double-count the merge).
    pub jobs_span_s: f64,
    /// Whether jobs ran on a worker pool. `false` means inline on the
    /// calling thread — no merge work ever overlapped a running job, so
    /// consumers always saw `in_flight == 0`.
    pub pooled: bool,
}

/// Executes every job and hands each result to `consume` **in canonical
/// job index order** — `consume(i, outcomes, in_flight)` where `in_flight`
/// is the number of jobs not yet finished by the pool at hand-off time
/// (always 0 in inline mode). This is the streaming half of the
/// deterministic merge: the consumer is the single-threaded in-order
/// merge, and it runs on the *calling* thread (so non-`Send` observers
/// work), overlapped with the workers still compiling later jobs. Between
/// hand-offs the calling thread compiles jobs too.
///
/// `threads <= 1` (or a single job) degenerates to strict alternation on
/// the calling thread: run job `i`, consume job `i`. Since jobs are pure
/// and consumption order is canonical either way, the consumer sees a
/// stream byte-identical to the pooled one at any thread count.
///
/// A job that panics fails the call with that panic, after the consumer
/// has seen some prefix of the stream.
pub fn run_jobs_streaming<C>(
    suite: &Suite,
    occ: &OccupancyModel,
    cfg: &PipelineConfig,
    jobs: &[RegionJob],
    threads: usize,
    cache: Option<&ScheduleCache>,
    consume: C,
) -> StreamTiming
where
    C: FnMut(usize, Vec<RegionOutcome>, usize),
{
    run_indexed(
        jobs.len(),
        threads,
        |i| run_job(&jobs[i], suite, occ, cfg, cache, None),
        consume,
    )
}

/// The pool body both shapes share: evaluates `job(i)` for every `i` in
/// `0..n` and hands each value to `consume(i, value, in_flight)` in index
/// order on the calling thread.
///
/// Pooled, `threads.min(n)` threads claim indices from one cursor and
/// publish into a [`SlotTable`]: `threads.min(n) − 1` scoped workers and
/// the calling thread. The calling thread takes slot `next` if it has
/// landed, else runs the next job from the cursor, and blocks on slot
/// `next` only once the cursor is spent. A thread that unwinds cancels the
/// table and exhausts the cursor, so the others stop and the call re-raises
/// that thread's panic.
///
/// The call's [`IdleCores`] ledger, entered on every thread of the call,
/// starts with the cores no thread runs on. A worker whose claim passes the
/// end offers its core there. The calling thread offers its core while it
/// blocks and reclaims it when its slot lands, even if an iteration still
/// holds it: that loan ends with the iteration.
fn run_indexed<T, J, C>(n: usize, threads: usize, job: J, mut consume: C) -> StreamTiming
where
    T: Send,
    J: Fn(usize) -> T + Sync,
    C: FnMut(usize, T, usize),
{
    let pool = threads.min(n);
    let idle = IdleCores::new(threads - pool);
    if pool <= 1 {
        let mut busy = 0.0;
        idle.enter(|| {
            for i in 0..n {
                let t = Instant::now();
                let value = job(i);
                busy += t.elapsed().as_secs_f64();
                consume(i, value, 0);
            }
        });
        return StreamTiming {
            jobs_busy_s: busy,
            jobs_span_s: busy,
            pooled: false,
        };
    }
    let start = Instant::now();
    let table = SlotTable::new(n);
    let cursor = AtomicUsize::new(0);
    let remaining = AtomicUsize::new(n);
    // Statistics only: read after the scope has joined every writer.
    let busy_ns = AtomicU64::new(0);
    let span_ns = AtomicU64::new(0);
    // Claims the next index, runs it and publishes it; `false` once the
    // cursor is spent.
    let run_next = || {
        let i = cursor.fetch_add(1, Ordering::SeqCst);
        if i >= n {
            return false;
        }
        let t = Instant::now();
        let value = job(i);
        busy_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        // Counted before it is published, so the hand-off of the last slot
        // always reads 0 in flight.
        if remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            span_ns.store(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        table.publish(i, value);
        true
    };
    let stop_on_unwind = || StopOnUnwind {
        table: &table,
        cursor: &cursor,
        end: n,
    };
    thread::scope(|s| {
        let worker = || {
            let _stop = stop_on_unwind();
            idle.enter(|| while run_next() {});
            idle.offer();
        };
        let workers: Vec<_> = (1..pool).map(|_| s.spawn(worker)).collect();
        // The in-order consumer, on the calling thread: take slot `next` once
        // it has landed, and compile ahead while it has not.
        let _stop = stop_on_unwind();
        idle.enter(|| {
            for next in 0..n {
                let value = loop {
                    if let Some(value) = table.try_take(next) {
                        break Some(value);
                    }
                    if !run_next() {
                        idle.offer();
                        let value = table.wait_take(next);
                        idle.reclaim();
                        break value;
                    }
                };
                let Some(value) = value else {
                    break;
                };
                consume(next, value, remaining.load(Ordering::SeqCst));
            }
        });
        for w in workers {
            if let Err(panic) = w.join() {
                resume_unwind(panic);
            }
        }
    });
    StreamTiming {
        jobs_busy_s: busy_ns.load(Ordering::Relaxed) as f64 / 1e9,
        jobs_span_s: span_ns.load(Ordering::Relaxed) as f64 / 1e9,
        pooled: true,
    }
}

/// Held by every thread of a pool for its whole part in the call: if the
/// thread unwinds, no further index is handed out and the consumer is
/// released.
struct StopOnUnwind<'a, T> {
    table: &'a SlotTable<T>,
    cursor: &'a AtomicUsize,
    end: usize,
}

impl<T> Drop for StopOnUnwind<'_, T> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.cursor.store(self.end, Ordering::SeqCst);
            self.table.cancel();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::time::Duration;
    use workloads::SuiteConfig;

    /// The pool body on plain closures: every index is claimed exactly once,
    /// consumed in index order, and nothing is in flight at the last
    /// hand-off (nor ever, inline).
    #[test]
    fn every_index_is_claimed_once_and_consumed_in_order() {
        for n in [0usize, 1, 2, 7, 1000] {
            for threads in [1, 2, 8, n + 3] {
                let claims: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let mut seen = Vec::with_capacity(n);
                let timing = run_indexed(
                    n,
                    threads,
                    |i| {
                        claims[i].fetch_add(1, Ordering::SeqCst);
                        i * 3
                    },
                    |i, value, in_flight| {
                        assert_eq!(value, i * 3);
                        // Slots `0..=i` are in, so at most the rest are
                        // running: 0 at the last hand-off.
                        assert!(in_flight <= n - 1 - i, "n={n} threads={threads} i={i}");
                        seen.push((i, in_flight));
                    },
                );
                let pooled = threads > 1 && n > 1;
                assert_eq!(timing.pooled, pooled, "n={n} threads={threads}");
                assert!(claims.iter().all(|c| c.load(Ordering::SeqCst) == 1));
                assert!(seen.iter().map(|&(i, _)| i).eq(0..n));
                if !pooled {
                    assert!(seen.iter().all(|&(_, f)| f == 0));
                }
            }
        }
    }

    /// A closure that panics at one index fails the call with that panic —
    /// it used to leave the consumer waiting on the slot forever.
    #[test]
    fn a_panicking_closure_fails_the_call() {
        for threads in [2, 8] {
            let (tx, rx) = mpsc::channel();
            thread::spawn(move || {
                let mut consumed = 0;
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_indexed(
                        64,
                        threads,
                        |i| assert_ne!(i, 5, "job five is broken"),
                        |_, (), _| consumed += 1,
                    )
                }));
                let _ = tx.send((result.map(|_| ()), consumed));
            });
            let (result, consumed) = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a panicking job must fail the call, not hang it");
            let panic = result.expect_err("the worker's panic is re-raised");
            let message = panic.downcast_ref::<String>().expect("assert message");
            assert!(message.contains("job five is broken"), "{message}");
            assert!(consumed <= 5, "slot 5 was never published");
        }
    }

    /// A panic on the calling thread, in a job it runs or in the merge, stops
    /// the call as promptly as a job that panics on a worker: the calling
    /// thread holds the same guard, so the cursor is exhausted and the worker
    /// finishes only the job in hand — draining it would take about ten
    /// seconds here.
    #[test]
    fn a_panic_on_the_calling_thread_fails_the_call_promptly() {
        for in_merge in [false, true] {
            let (tx, rx) = mpsc::channel();
            thread::spawn(move || {
                let caller = thread::current().id();
                let mut consumed = Vec::new();
                let t = Instant::now();
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_indexed(
                        2_000,
                        2,
                        |i| {
                            let on_caller = thread::current().id() == caller;
                            assert!(in_merge || !on_caller, "job {i} broke the caller");
                            thread::sleep(Duration::from_millis(5));
                        },
                        |i, (), _| {
                            assert!(!in_merge || i < 3, "slot {i}: the merge broke the caller");
                            consumed.push(i);
                        },
                    )
                }));
                let _ = tx.send((result.map(|_| ()), consumed, t.elapsed()));
            });
            let (result, consumed, took) = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("a panic on the calling thread must fail the call");
            let panic = result.expect_err("the calling thread's panic is re-raised");
            let message = panic.downcast_ref::<String>().expect("assert message");
            assert!(message.contains("broke the caller"), "{message}");
            assert!(
                took < Duration::from_secs(2),
                "in_merge={in_merge}: {took:?}"
            );
            let prefix = if in_merge { 3 } else { consumed.len() };
            assert!(consumed.iter().copied().eq(0..prefix), "{consumed:?}");
        }
    }

    /// The pool is `threads` threads, the calling thread among them. Jobs on
    /// the workers hold off until the calling thread has run one, which it
    /// does because no slot can land before then.
    #[test]
    fn the_calling_thread_runs_jobs_and_the_pool_is_threads_threads() {
        for threads in [2, 8] {
            let caller = thread::current().id();
            let caller_ran = AtomicBool::new(false);
            // A caller that runs no job fails the test instead of hanging it.
            let give_up = Instant::now() + Duration::from_secs(10);
            let ran = Mutex::new(std::collections::HashSet::new());
            run_indexed(
                64,
                threads,
                |_| {
                    let on = thread::current().id();
                    ran.lock().unwrap().insert(on);
                    if on == caller {
                        caller_ran.store(true, Ordering::SeqCst);
                    }
                    while !caller_ran.load(Ordering::SeqCst) && Instant::now() < give_up {
                        thread::yield_now();
                    }
                },
                |_, (), _| {},
            );
            let ran = ran.into_inner().unwrap();
            assert!(
                ran.contains(&caller),
                "threads={threads}: the caller ran no job"
            );
            assert!(
                ran.len() <= threads,
                "threads={threads}: {} threads",
                ran.len()
            );
        }
    }

    /// One `run_indexed` call with seeded job and consume durations
    /// (0–200 µs, spinning or yielding) on a helper thread: it must return
    /// within `limit`, having consumed every index once and in order. A lost
    /// wake-up shows as a time-out.
    fn stress_once(n: usize, threads: usize, seed: u64, limit: Duration) {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let mut seen = Vec::with_capacity(n);
            run_indexed(
                n,
                threads,
                |i| {
                    pause(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                    i
                },
                |i, value, _| {
                    assert_eq!(i, value);
                    pause(seed.rotate_left(17) ^ i as u64);
                    seen.push(i);
                },
            );
            let _ = tx.send(seen);
        });
        let seen = rx.recv_timeout(limit).unwrap_or_else(|_| {
            panic!("n={n} threads={threads} seed={seed}: the call hung past {limit:?}")
        });
        assert!(
            seen.iter().copied().eq(0..n),
            "n={n} threads={threads} seed={seed}"
        );
    }

    /// Waits 0–200 µs drawn from `key` (splitmix64), half the time spinning
    /// and half yielding.
    fn pause(key: u64) {
        let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let wait = Duration::from_micros(z % 201);
        let t = Instant::now();
        while t.elapsed() < wait {
            if z & (1 << 40) == 0 {
                std::hint::spin_loop();
            } else {
                thread::yield_now();
            }
        }
    }

    fn stress(seeds: u64) {
        for n in [2, 3, 64, 2_000] {
            let rounds = if n == 2_000 { seeds } else { seeds * 20 };
            for threads in [2, 3, 8] {
                for seed in 0..rounds {
                    stress_once(n, threads, seed, Duration::from_secs(20));
                }
            }
        }
    }

    #[test]
    fn no_wake_up_is_lost() {
        stress(1);
    }

    /// The long run of [`no_wake_up_is_lost`] (`scripts/check.sh`).
    #[test]
    #[ignore]
    fn no_wake_up_is_lost_long() {
        stress(12);
    }

    fn tiny_suite() -> Suite {
        Suite::generate(&SuiteConfig::scaled(7, 0.008))
    }

    fn cfg(kind: SchedulerKind) -> PipelineConfig {
        let mut c = PipelineConfig::paper(kind, 0);
        c.aco.blocks = 4;
        c.aco.pass2_gate_cycles = 1;
        c
    }

    #[test]
    fn plan_covers_every_region_exactly_once_in_kernel_order() {
        let suite = tiny_suite();
        for kind in [
            SchedulerKind::ParallelAco,
            SchedulerKind::BatchedParallelAco,
        ] {
            let jobs = plan_jobs(&suite, &cfg(kind));
            let mut seen = vec![Vec::new(); suite.kernels.len()];
            let mut last_kernel = 0;
            for job in &jobs {
                assert!(job.kernel() >= last_kernel, "jobs must be kernel-ordered");
                last_kernel = job.kernel();
                match job {
                    RegionJob::Solo { kernel, region } => seen[*kernel].push(*region),
                    RegionJob::Group { kernel, members } => seen[*kernel].extend(members),
                }
            }
            for (k, kernel) in suite.kernels.iter().enumerate() {
                let mut regions = seen[k].clone();
                regions.sort_unstable();
                let expect: Vec<usize> = (0..kernel.regions.len()).collect();
                assert_eq!(regions, expect, "{kind:?} kernel {k}");
            }
        }
    }

    #[test]
    fn pooled_execution_matches_inline() {
        let suite = tiny_suite();
        let occ = OccupancyModel::vega_like();
        for kind in [
            SchedulerKind::ParallelAco,
            SchedulerKind::BatchedParallelAco,
        ] {
            let c = cfg(kind);
            let jobs = plan_jobs(&suite, &c);
            let inline = run_jobs(&suite, &occ, &c, &jobs, 1, None);
            let cache = ScheduleCache::new();
            for (threads, cache) in [(2, None), (5, None), (3, Some(&cache))] {
                let pooled = run_jobs(&suite, &occ, &c, &jobs, threads, cache);
                assert_eq!(inline.len(), pooled.len());
                for (a, b) in inline.iter().zip(&pooled) {
                    assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(b) {
                        assert_eq!(x.region, y.region);
                        assert_eq!(x.cfg, y.cfg);
                        assert_eq!(x.comp.occupancy, y.comp.occupancy);
                        assert_eq!(x.comp.length, y.comp.length);
                        assert_eq!(x.comp.sched_time_us, y.comp.sched_time_us);
                        assert_eq!(
                            x.comp.aco.as_ref().map(|r| &r.order),
                            y.comp.aco.as_ref().map(|r| &r.order)
                        );
                    }
                }
            }
        }
    }
}
