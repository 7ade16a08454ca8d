//! Extends the allocation-free invariant from `run_job`
//! (`alloc_free_run_job.rs`) to the **streaming merge loop**: once a
//! [`pipeline::SuiteMerger`] is constructed, consuming every job's
//! results in canonical order performs zero allocator events — every
//! merge-side buffer (record table, per-kernel slot/scratch vectors, the
//! incremental fingerprint) is pre-sized from `plan_jobs` counts at
//! construction.
//!
//! The measured configuration is the steady state: no tuning, no cache
//! (inserts allocate), and a heuristic-only scheduler so the kernel post
//! filter never triggers an occupancy-capped re-schedule (those
//! legitimately run a fresh compilation). Everything else — observer
//! replay, slot drain, the post-filter scan, record assembly, FNV folding,
//! modeled kernel time — runs in full, with in-pipeline analysis off and
//! on: the jobs analyze, so on a clean suite the merge only counts the
//! findings they hand over.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use machine_model::OccupancyModel;
use pipeline::host_pool::{plan_jobs, run_jobs};
use pipeline::{PipelineConfig, SchedulerKind, SuiteMerger};
use workloads::{Suite, SuiteConfig};

thread_local! {
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every allocation and reallocation on this thread. Frees are not
/// counted: the assertion is about acquiring memory mid-merge, and a free
/// with no matching later alloc cannot hide one.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn count_events<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOC_EVENTS.with(Cell::get);
    let r = f();
    (ALLOC_EVENTS.with(Cell::get) - before, r)
}

#[test]
fn merge_loop_performs_zero_allocations() {
    merge_loop_is_allocation_free(false);
}

#[test]
fn merge_loop_performs_zero_allocations_with_analysis_on() {
    let run = merge_loop_is_allocation_free(true);
    let report = run.analysis.expect("analysis enabled");
    assert_eq!(report.regions_analyzed, run.regions.len());
    assert!(report.is_clean(), "{:?}", report.deny_findings);
}

fn merge_loop_is_allocation_free(analyze: bool) -> pipeline::SuiteRun {
    let suite = Suite::generate(&SuiteConfig::scaled(5, 0.008));
    let occ = OccupancyModel::vega_like();
    let cfg = PipelineConfig::paper(SchedulerKind::BaseAmd, 0)
        .with_cache(false)
        .with_analyze(analyze);
    let jobs = plan_jobs(&suite, &cfg);
    assert!(
        jobs.len() > 10 && suite.kernels.len() >= 2,
        "suite too small to make the invariant meaningful"
    );
    // Produce the per-job results up front (job-phase allocations are
    // covered by alloc_free_run_job.rs, not here).
    let results = run_jobs(&suite, &occ, &cfg, &jobs, 1, None);

    // Construction allocates (pre-sizing the merge-side buffers) — that
    // is the point: all acquisition happens here, none in the loop.
    let mut merger = SuiteMerger::new(&suite, &occ, &cfg, &jobs, None, None, |_, _, _, _, _| {});
    let (loop_events, ()) = count_events(|| {
        for (i, outcomes) in results.into_iter().enumerate() {
            merger.consume(i, outcomes);
        }
    });
    assert_eq!(
        loop_events, 0,
        "the streaming merge loop must not touch the allocator"
    );

    // Sanity: the merger actually produced a full run.
    let run = merger.finish();
    assert_eq!(run.regions.len(), suite.region_count());
    assert_eq!(run.kernel_occupancy.len(), suite.kernels.len());
    assert!(run.fingerprint != 0);
    run
}
