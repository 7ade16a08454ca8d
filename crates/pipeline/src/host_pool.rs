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
//! The pool is one index cursor: the job list is fixed before the first
//! worker starts and jobs never spawn jobs, so each scoped worker claims the
//! next canonical index with one `fetch_add` and retires when the cursor
//! passes the end. Handing indices out in strict order is also what the
//! in-order consumer wants — the slot it waits on is always among the
//! oldest claimed, never parked behind later work in some worker's queue.
//! Workers publish finished results into a pre-sized [`SlotTable`] (one
//! write-once slot per canonical job index — no channel, no unbounded
//! buffering) and the *calling thread* consumes slot `i` the moment it
//! lands, in index order. A job that panics cancels the table on its way
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
//! A worker that runs out of jobs lends its core to the wavefronts of a
//! large region still in flight ([`aco::lend`]); results do not change.

use crate::analyze::analyze_region;
use crate::batch::{compile_batch_group, plan_batches};
use crate::cache::ScheduleCache;
use crate::config::{PipelineConfig, SchedulerKind};
use crate::region::{compile_region_warm, RegionCompilation};
use crate::tune::{tunable, tuned_solo_inputs, TuneTag};
use aco::IdleCores;
use aco_tune::TuneStore;
use machine_model::OccupancyModel;
use sched_analyze::Finding;
use sched_ir::Ddg;
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
    /// How the compilation was tuned (`None` when tuning was off, the job
    /// was a batch group, or the scheduler kind is not ACO). The merge
    /// uses this to feed the outcome back into the tuning store.
    pub tune: Option<TuneTag>,
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
/// [`ScheduleCache`] is supplied the per-region flow is consulted through
/// it — transparently, since every hit is equality-checked and re-certified
/// (see [`crate::cache`]), so the outcomes are byte-identical either way.
///
/// When a [`TuneStore`] is supplied, solo ACO compilations consult it for
/// an arm-adjusted configuration and a pheromone warm-start hint (see
/// [`crate::tune`]). The store is only *read* here — `choose`/`warm_hint`
/// are pure in (state, args) and the state is frozen for the whole job
/// phase — so jobs stay pure and thread-count independent. Batch groups
/// and non-ACO kinds ignore the store.
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
    tune: Option<&TuneStore>,
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
            let (region_cfg, warm, tag) = match tune.filter(|_| tunable(cfg.scheduler)) {
                Some(store) => {
                    // The salt is the region's stable suite position, so a
                    // single run spreads exploration across a class's
                    // instances deterministically.
                    let salt = ((*kernel as u64) << 32) | *region as u64;
                    let (tcfg, warm, tag) = tuned_solo_inputs(ddg, salt, cfg, store);
                    (tcfg, warm, Some(tag))
                }
                None => (*cfg, None, None),
            };
            let comp = match cache {
                Some(cache) => cache.compile_solo_with(ddg, occ, &region_cfg, warm.as_ref()),
                None => compile_region_warm(ddg, occ, &region_cfg, warm.as_ref()),
            };
            vec![RegionOutcome {
                region: *region,
                cfg: region_cfg,
                findings: analyze(ddg, &comp),
                comp,
                tune: tag,
            }]
        }
        RegionJob::Group { kernel, members } => {
            let kernel = &suite.kernels[*kernel];
            let outcomes = match cache {
                Some(cache) => cache.compile_group(kernel, members, occ, cfg),
                None => compile_batch_group(kernel, members, occ, cfg),
            };
            outcomes
                .into_iter()
                .map(|(ri, rcfg, comp)| RegionOutcome {
                    region: ri,
                    cfg: rcfg,
                    findings: analyze(&kernel.regions[ri], &comp),
                    comp,
                    tune: None,
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
    tune: Option<&TuneStore>,
) -> Vec<Vec<RegionOutcome>> {
    let mut results = Vec::with_capacity(jobs.len());
    run_indexed(
        jobs.len(),
        threads,
        |i| run_job(&jobs[i], suite, occ, cfg, cache, tune),
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
/// [`cancel`](SlotTable::cancel) aborts the rendezvous: pending and future
/// [`wait_take`](SlotTable::wait_take) calls return `None`, and late
/// publishes are dropped. The pool uses it to release its consumer when a
/// job panics, the `sched-serve` daemon to unblock a suite's merge consumer
/// when the request expires in the queue.
pub struct SlotTable<T> {
    state: Mutex<SlotState<T>>,
    ready: Condvar,
}

struct SlotState<T> {
    slots: Vec<Option<T>>,
    cancelled: bool,
}

impl<T> SlotTable<T> {
    /// A table of `n` empty slots.
    pub fn new(n: usize) -> SlotTable<T> {
        SlotTable {
            state: Mutex::new(SlotState {
                slots: (0..n).map(|_| None).collect(),
                cancelled: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Number of slots (not the number currently filled).
    pub fn len(&self) -> usize {
        self.lock().slots.len()
    }

    /// Whether the table has zero slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SlotState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fills slot `i` and wakes the consumer. Each slot is write-once:
    /// publishing an occupied slot panics (two jobs claimed the same
    /// index). Publishes after [`cancel`](SlotTable::cancel) are dropped.
    pub fn publish(&self, i: usize, value: T) {
        let mut s = self.lock();
        if s.cancelled {
            return;
        }
        assert!(s.slots[i].is_none(), "job slot {i} published twice");
        s.slots[i] = Some(value);
        self.ready.notify_all();
    }

    /// Aborts the rendezvous: every pending and future `wait_take` returns
    /// `None`, and late publishes are dropped.
    pub fn cancel(&self) {
        self.lock().cancelled = true;
        self.ready.notify_all();
    }

    /// Blocks until slot `i` is published (returning the value) or the
    /// table is cancelled (returning `None`). A value already published
    /// before cancellation is still delivered.
    pub fn wait_take(&self, i: usize) -> Option<T> {
        let mut s = self.lock();
        loop {
            if let Some(v) = s.slots[i].take() {
                return Some(v);
            }
            if s.cancelled {
                return None;
            }
            s = self.ready.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Host-timing facts of one [`run_jobs_streaming`] call, for wall-clock
/// instrumentation (the merge side is timed by the caller's consumer).
#[derive(Debug, Clone, Copy)]
pub struct StreamTiming {
    /// Cumulative wall time spent inside [`run_job`], summed over workers.
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
/// work), overlapped with the workers still compiling later jobs.
///
/// `threads <= 1` (or a single job) degenerates to strict alternation on
/// the calling thread: run job `i`, consume job `i`. Since jobs are pure
/// and consumption order is canonical either way, the consumer sees a
/// stream byte-identical to the pooled one at any thread count.
///
/// A job that panics fails the call with that panic, after the consumer
/// has seen some prefix of the stream.
#[allow(clippy::too_many_arguments)]
pub fn run_jobs_streaming<C>(
    suite: &Suite,
    occ: &OccupancyModel,
    cfg: &PipelineConfig,
    jobs: &[RegionJob],
    threads: usize,
    cache: Option<&ScheduleCache>,
    tune: Option<&TuneStore>,
    consume: C,
) -> StreamTiming
where
    C: FnMut(usize, Vec<RegionOutcome>, usize),
{
    run_indexed(
        jobs.len(),
        threads,
        |i| run_job(&jobs[i], suite, occ, cfg, cache, tune),
        consume,
    )
}

/// The pool body both shapes share: evaluates `job(i)` for every `i` in
/// `0..n` and hands each value to `consume(i, value, in_flight)` in index
/// order on the calling thread.
///
/// Pooled, `threads.min(n)` scoped workers claim indices from one cursor
/// and publish into a [`SlotTable`]. A worker that unwinds cancels the
/// table and exhausts the cursor, so the consumer and its siblings stop
/// and the call re-raises that worker's panic.
///
/// The call's [`IdleCores`] ledger, entered on every worker and the calling
/// thread, starts with the cores no worker was spawned for. A worker whose
/// claim passes the end offers its core there, except the last, whose core
/// the consumer (and its capped re-schedules) takes over.
fn run_indexed<T, J, C>(n: usize, threads: usize, job: J, mut consume: C) -> StreamTiming
where
    T: Send,
    J: Fn(usize) -> T + Sync,
    C: FnMut(usize, T, usize),
{
    let workers = threads.min(n);
    let idle = IdleCores::new(threads - workers);
    if threads <= 1 || n <= 1 {
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
    let working = AtomicUsize::new(workers);
    // Statistics only: read after the scope has joined every writer.
    let busy_ns = AtomicU64::new(0);
    let span_ns = AtomicU64::new(0);
    thread::scope(|s| {
        let worker = || {
            let _stop = StopOnUnwind {
                table: &table,
                cursor: &cursor,
                end: n,
            };
            idle.enter(|| loop {
                let i = cursor.fetch_add(1, Ordering::SeqCst);
                if i >= n {
                    if working.fetch_sub(1, Ordering::SeqCst) > 1 {
                        idle.offer();
                    }
                    break;
                }
                let t = Instant::now();
                let value = job(i);
                busy_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                // Counted before it is published, so the hand-off of the
                // last slot always reads 0 in flight.
                if remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                    span_ns.store(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
                table.publish(i, value);
            })
        };
        let workers: Vec<_> = (0..workers).map(|_| s.spawn(worker)).collect();
        // The in-order consumer, on the calling thread: take slot `i` the
        // moment it lands, while workers keep compiling ahead.
        idle.enter(|| {
            for i in 0..n {
                let Some(value) = table.wait_take(i) else {
                    break;
                };
                consume(i, value, remaining.load(Ordering::SeqCst));
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

/// Held by a pool worker for its whole life: if the worker unwinds, no
/// further index is handed out and the consumer is released.
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

    /// Satellite 3 (determinism): with a *frozen* tuning store, tuned job
    /// results are bit-identical across thread counts — choices and warm
    /// hints are pure reads, so the pool only changes wall-clock time.
    #[test]
    fn tuned_execution_is_thread_count_deterministic() {
        let suite = tiny_suite();
        let occ = OccupancyModel::vega_like();
        let c = cfg(SchedulerKind::ParallelAco);
        let jobs = plan_jobs(&suite, &c);
        // Pre-learn some state so warm hints and commits are exercised.
        let store = TuneStore::new();
        for _ in 0..2 {
            for results in run_jobs(&suite, &occ, &c, &jobs, 1, None, Some(&store)) {
                for o in results {
                    let tag = o.tune.expect("solo ACO jobs are tuned");
                    crate::tune::observe_outcome(&store, &tag, &o.comp);
                }
            }
        }
        let inline = run_jobs(&suite, &occ, &c, &jobs, 1, None, Some(&store));
        for threads in [2, 8] {
            let pooled = run_jobs(&suite, &occ, &c, &jobs, threads, None, Some(&store));
            assert_eq!(inline.len(), pooled.len());
            for (a, b) in inline.iter().zip(&pooled) {
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.region, y.region);
                    assert_eq!(x.cfg, y.cfg, "tuned config must not depend on threads");
                    assert_eq!(x.comp.occupancy, y.comp.occupancy);
                    assert_eq!(x.comp.length, y.comp.length);
                    assert_eq!(
                        x.comp.sched_time_us.to_bits(),
                        y.comp.sched_time_us.to_bits()
                    );
                    assert_eq!(
                        x.comp.aco.as_ref().map(|r| &r.order),
                        y.comp.aco.as_ref().map(|r| &r.order)
                    );
                    assert_eq!(
                        x.tune.map(|t| (t.class, t.arm, t.warm_started)),
                        y.tune.map(|t| (t.class, t.arm, t.warm_started))
                    );
                }
            }
        }
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
            let inline = run_jobs(&suite, &occ, &c, &jobs, 1, None, None);
            let cache = ScheduleCache::new();
            for (threads, cache) in [(2, None), (5, None), (3, Some(&cache))] {
                let pooled = run_jobs(&suite, &occ, &c, &jobs, threads, cache, None);
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
