//! Proves the allocation-free invariant holds for the *whole*
//! [`pipeline::host_pool::run_job`] unit of work, not just the ant inner
//! loop: a counting global allocator measures a full job (heuristic
//! baseline, analyses, ACO passes, result assembly) under two
//! configurations that differ only in how many ACO iterations they run.
//! The allocator-event counts must be **equal** — every per-iteration
//! buffer is preallocated at launch and reused, so iterating more costs
//! zero additional allocator traffic.
//!
//! The non-vacuity check matters as much as the equality: the two runs
//! must actually execute different iteration counts, otherwise the
//! equality proves nothing.
//!
//! With an idle core lent to the job (an `aco::IdleCores` ledger entered on
//! the job's thread), the job's thread — where every reservation happens —
//! reserves the helper's scratch once per pass, and every shared iteration
//! then costs only its thread spawn: the extra events per shared iteration
//! are one constant, the same at two region sizes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aco::{IdleCores, Termination, LEND_MIN_INSTRS};
use machine_model::OccupancyModel;
use pipeline::host_pool::{plan_jobs, run_job, RegionJob, RegionOutcome};
use pipeline::{PipelineConfig, SchedulerKind};
use sched_ir::Ddg;
use workloads::{Kernel, Suite, SuiteConfig};

thread_local! {
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every allocation and reallocation on this thread. Frees are not
/// counted: the assertion is about acquiring memory mid-job, and a free
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

/// A pipeline config whose only iteration limit is the hard cap: the
/// no-improvement budgets are set far beyond reach, so every un-gated pass
/// runs exactly `max_iterations` iterations (unless it proves optimality
/// by hitting a lower bound — regions where that happens are skipped by
/// the callers below).
fn capped_cfg(kind: SchedulerKind, max_iterations: u32) -> PipelineConfig {
    let mut cfg = PipelineConfig::paper(kind, 0);
    cfg.aco.blocks = 4;
    cfg.aco.pass2_gate_cycles = 1;
    cfg.aco.termination = Termination {
        small: 100_000,
        medium: 100_000,
        large: 100_000,
        max_iterations,
    };
    cfg
}

fn total_iterations(outcomes: &[RegionOutcome]) -> u64 {
    outcomes
        .iter()
        .filter_map(|o| o.comp.aco.as_ref())
        .map(|a| (a.pass1.iterations + a.pass2.iterations) as u64)
        .sum()
}

/// Whether any pass of any member ran without hitting its lower bound —
/// i.e. the hard iteration cap was what stopped it, so raising the cap
/// must raise the iteration count.
fn cap_bound(outcomes: &[RegionOutcome]) -> bool {
    outcomes
        .iter()
        .filter_map(|o| o.comp.aco.as_ref())
        .any(|a| {
            (a.pass1.iterations > 0 && !a.pass1.hit_lb)
                || (a.pass2.iterations > 0 && !a.pass2.hit_lb)
        })
}

/// Measures one job under a low and a high iteration cap and asserts the
/// allocator-event counts match while the iteration counts do not.
fn assert_job_alloc_invariant(
    label: &str,
    job: &RegionJob,
    suite: &Suite,
    occ: &OccupancyModel,
    low: &PipelineConfig,
    high: &PipelineConfig,
) {
    // Warm-up: not measured (first run may touch lazily initialized
    // thread state outside the scheduler).
    let _ = run_job(job, suite, occ, low, None, None);
    let (n_low, out_low) = count_events(|| run_job(job, suite, occ, low, None, None));
    let (n_high, out_high) = count_events(|| run_job(job, suite, occ, high, None, None));
    let (it_low, it_high) = (total_iterations(&out_low), total_iterations(&out_high));
    assert!(
        it_high > it_low,
        "{label}: iteration counts must differ (low {it_low}, high {it_high}) \
         or the allocation equality below is vacuous"
    );
    assert_eq!(
        n_low, n_high,
        "{label}: allocator events must not scale with iterations \
         ({n_low} events over {it_low} iterations vs {n_high} over {it_high})"
    );
}

/// Finds a solo job whose ACO passes are stopped by the hard iteration cap
/// (not by a lower bound) under `low`.
fn find_cap_bound_solo(
    suite: &Suite,
    occ: &OccupancyModel,
    low: &PipelineConfig,
) -> Option<RegionJob> {
    for job in plan_jobs(suite, low) {
        let out = run_job(&job, suite, occ, low, None, None);
        if cap_bound(&out) {
            return Some(job);
        }
    }
    None
}

#[test]
fn solo_parallel_job_allocations_independent_of_iteration_count() {
    let suite = Suite::generate(&SuiteConfig::scaled(5, 0.008));
    let occ = OccupancyModel::vega_like();
    let low = capped_cfg(SchedulerKind::ParallelAco, 4);
    let high = capped_cfg(SchedulerKind::ParallelAco, 16);
    let job = find_cap_bound_solo(&suite, &occ, &low)
        .expect("some region must be stopped by the iteration cap");
    assert_job_alloc_invariant("parallel solo", &job, &suite, &occ, &low, &high);
}

#[test]
fn solo_sequential_job_allocations_independent_of_iteration_count() {
    let suite = Suite::generate(&SuiteConfig::scaled(5, 0.008));
    let occ = OccupancyModel::vega_like();
    let low = capped_cfg(SchedulerKind::SequentialAco, 4);
    let high = capped_cfg(SchedulerKind::SequentialAco, 16);
    let job = find_cap_bound_solo(&suite, &occ, &low)
        .expect("some region must be stopped by the iteration cap");
    assert_job_alloc_invariant("sequential solo", &job, &suite, &occ, &low, &high);
}

#[test]
fn group_job_allocations_independent_of_iteration_count() {
    let suite = Suite::generate(&SuiteConfig::scaled(5, 0.008));
    let occ = OccupancyModel::vega_like();
    let low = capped_cfg(SchedulerKind::BatchedParallelAco, 4);
    let high = capped_cfg(SchedulerKind::BatchedParallelAco, 16);
    let job = plan_jobs(&suite, &low)
        .into_iter()
        .filter(|j| matches!(j, RegionJob::Group { members, .. } if members.len() >= 2))
        .find(|j| cap_bound(&run_job(j, &suite, &occ, &low, None, None)))
        .expect("some batch group must be stopped by the iteration cap");
    assert_job_alloc_invariant("batch group", &job, &suite, &occ, &low, &high);
}

/// A one-kernel suite of `regions`, so a test can pick its region sizes.
fn suite_of(regions: Vec<Ddg>) -> Suite {
    Suite {
        kernels: vec![Kernel {
            name: "lent".into(),
            regions,
            bytes_per_launch: 1 << 20,
            latency_bound: 0.5,
        }],
        benchmarks: Vec::new(),
    }
}

/// A generated region of at least `size` instructions whose two passes
/// both run under `low` and are stopped by its iteration cap.
fn cap_bound_region(size: usize, occ: &OccupancyModel, low: &PipelineConfig) -> Ddg {
    (0u64..)
        .map(|seed| workloads::patterns::sized(size, seed))
        .filter(|ddg| (size..size + 20).contains(&ddg.len()))
        .find(|ddg| {
            let suite = suite_of(vec![ddg.clone()]);
            let job = RegionJob::Solo {
                kernel: 0,
                region: 0,
            };
            let out = run_job(&job, &suite, occ, low, None, None);
            let aco = out[0].comp.aco.as_ref();
            cap_bound(&out) && aco.is_some_and(|a| a.pass1.iterations > 0 && a.pass2.iterations > 0)
        })
        .expect("some seed generates a cap-bound region of that size")
}

/// Allocator events of one job on the calling thread, and the iterations
/// that borrowed a core, with `lent` idle cores entered (`None`: no
/// ledger at all).
fn lent_events(
    job: &RegionJob,
    suite: &Suite,
    occ: &OccupancyModel,
    cfg: &PipelineConfig,
    lent: Option<usize>,
) -> (u64, u64) {
    let run = || run_job(job, suite, occ, cfg, None, None);
    match lent {
        None => (count_events(run).0, 0),
        Some(cores) => {
            let idle = IdleCores::new(cores);
            let (events, _) = count_events(|| idle.enter(run));
            (events, idle.shared_iterations())
        }
    }
}

#[test]
fn a_lent_core_costs_a_constant_per_shared_iteration_at_any_region_size() {
    let occ = OccupancyModel::vega_like();
    let low = capped_cfg(SchedulerKind::ParallelAco, 4);
    let high = capped_cfg(SchedulerKind::ParallelAco, 16);
    let regions = vec![
        cap_bound_region(LEND_MIN_INSTRS + 10, &occ, &low),
        cap_bound_region(2 * LEND_MIN_INSTRS, &occ, &low),
    ];
    let suite = suite_of(regions);
    let mut per_iteration = Vec::new();
    for region in 0..2 {
        let job = RegionJob::Solo { kernel: 0, region };
        let n = suite.kernels[0].regions[region].len();
        // Warm-up: thread-locals and the first helper spawn, unmeasured.
        let _ = lent_events(&job, &suite, &occ, &low, Some(1));
        // Without a ledger, or with an empty one, nothing changes.
        for lent in [None, Some(0)] {
            let (n_low, shared_low) = lent_events(&job, &suite, &occ, &low, lent);
            let (n_high, shared_high) = lent_events(&job, &suite, &occ, &high, lent);
            assert_eq!((shared_low, shared_high), (0, 0));
            assert_eq!(n_low, n_high, "{n} instrs, {lent:?}: unshared events moved");
        }
        let (n_low, shared_low) = lent_events(&job, &suite, &occ, &low, Some(1));
        let (n_high, shared_high) = lent_events(&job, &suite, &occ, &high, Some(1));
        assert!(
            shared_high > shared_low && shared_low > 0,
            "{n} instrs: shared iterations {shared_low} vs {shared_high}"
        );
        let extra = n_high - n_low;
        let shared = shared_high - shared_low;
        assert_eq!(
            extra % shared,
            0,
            "{n} instrs: {extra} events over {shared} shared iterations"
        );
        per_iteration.push((n, extra / shared));
    }
    let (small, large) = (per_iteration[0], per_iteration[1]);
    assert!(small.1 > 0, "a spawned helper must be counted");
    assert_eq!(
        small.1, large.1,
        "events per shared iteration depend on region size: {per_iteration:?}"
    );
}
