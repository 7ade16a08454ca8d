//! Compiling an entire benchmark suite and aggregating its statistics.

use crate::analyze::{analyze_region, check_config_drift, AnalysisReport};
use crate::cache::{CacheStats, ScheduleCache};
use crate::config::PipelineConfig;
use crate::exec_model::{
    benchmark_throughput, kernel_time_us, schedule_fingerprint, unmodeled_factor, ExecModel,
};
use crate::host_pool::{plan_jobs, run_jobs_streaming, RegionJob, RegionOutcome};
use crate::region::{compile_region, FinalChoice, RegionCompilation};
use crate::SchedulerKind;
use machine_model::OccupancyModel;
use sched_analyze::Finding;
use sched_ir::{Cycle, Ddg, Fnv64};
use std::convert::Infallible;
use std::time::Instant;
use workloads::Suite;

/// Per-region record of a suite compilation.
#[derive(Debug, Clone, Copy)]
pub struct RegionRecord {
    /// Kernel index within the suite.
    pub kernel: usize,
    /// Region index within the kernel.
    pub region: usize,
    /// Region size (instructions).
    pub size: usize,
    /// Final occupancy / length after filters.
    pub occupancy: u32,
    /// Final schedule length.
    pub length: Cycle,
    /// Heuristic baseline occupancy / length.
    pub heuristic_occupancy: u32,
    /// Heuristic baseline schedule length.
    pub heuristic_length: Cycle,
    /// Whether ACO pass 1 / pass 2 iterated on this region.
    pub pass1_processed: bool,
    /// Whether ACO pass 2 iterated (survived LB check and the gate).
    pub pass2_processed: bool,
    /// Pass-1 / pass-2 iteration counts.
    pub pass1_iterations: u32,
    /// Pass-2 iteration count.
    pub pass2_iterations: u32,
    /// Modeled per-pass scheduling times, microseconds.
    pub pass1_time_us: f64,
    /// Pass-2 scheduling time, microseconds.
    pub pass2_time_us: f64,
    /// Total scheduling time of the region, microseconds.
    pub sched_time_us: f64,
    /// Whether the post-scheduling filter reverted ACO's schedule.
    pub reverted: bool,
    /// Whether the ACO schedule was kept.
    pub kept_aco: bool,
}

/// The outcome of compiling a whole suite under one scheduler.
#[derive(Debug, Clone)]
pub struct SuiteRun {
    /// Which scheduler compiled the suite.
    pub scheduler: SchedulerKind,
    /// One record per region, in suite iteration order.
    pub regions: Vec<RegionRecord>,
    /// Final kernel occupancies (min over the kernel's regions).
    pub kernel_occupancy: Vec<u32>,
    /// Modeled kernel run times, microseconds.
    pub kernel_time_us: Vec<f64>,
    /// Modeled benchmark run times, microseconds.
    pub benchmark_time_us: Vec<f64>,
    /// Modeled benchmark throughputs, GB/s.
    pub benchmark_throughput: Vec<f64>,
    /// Total compile time (base + scheduling), seconds.
    pub compile_time_s: f64,
    /// Schedule-cache activity of this run (all zeros when the cache was
    /// disabled). Counters depend on execution interleaving at
    /// `host_threads > 1`, so they are deliberately **excluded** from the
    /// suite fingerprint.
    pub cache: CacheStats,
    /// In-pipeline static-analysis report: `Some` iff
    /// [`PipelineConfig::analyze`] was enabled. Analysis is read-only, so
    /// every other field is bitwise identical whether this ran or not.
    pub analysis: Option<AnalysisReport>,
    /// FNV-1a fingerprint of the run, folded *incrementally* as results
    /// stream through the merge (region records as each kernel closes;
    /// the small per-kernel/per-benchmark aggregates at the end) — the
    /// same word stream [`SuiteRun::recompute_fingerprint`] walks from
    /// scratch, without a second pass over `regions`. Excludes `cache`
    /// (interleaving-dependent) and `analysis` (read-only).
    pub fingerprint: u64,
}

impl SuiteRun {
    /// Total scheduling time across all regions, seconds.
    pub fn sched_time_s(&self) -> f64 {
        self.regions.iter().map(|r| r.sched_time_us).sum::<f64>() / 1e6
    }

    /// Number of regions ACO processed in pass 1.
    pub fn pass1_count(&self) -> usize {
        self.regions.iter().filter(|r| r.pass1_processed).count()
    }

    /// Number of regions ACO processed in pass 2.
    pub fn pass2_count(&self) -> usize {
        self.regions.iter().filter(|r| r.pass2_processed).count()
    }

    /// Sum of final occupancies over all kernels (the paper's aggregate
    /// occupancy metric of Table 2).
    pub fn total_occupancy(&self) -> u64 {
        self.kernel_occupancy.iter().map(|&o| o as u64).sum()
    }

    /// Sum of final schedule lengths over all regions (the paper's
    /// aggregate schedule-length metric of Table 2).
    pub fn total_length(&self) -> u64 {
        self.regions.iter().map(|r| r.length as u64).sum()
    }

    /// The suite fingerprint recomputed from scratch over the finished
    /// run: the one word stream (`fold_record` per region, then
    /// `fold_aggregates`) the merge folds incrementally into
    /// [`SuiteRun::fingerprint`]. Never reads that field, so comparing the
    /// two checks the incremental fold against the records themselves.
    pub fn recompute_fingerprint(&self) -> u64 {
        let mut fp = Fnv64::new();
        for r in &self.regions {
            fold_record(&mut fp, r);
        }
        fold_aggregates(&mut fp, self);
        fp.finish()
    }
}

/// Compiles every region of the suite and models kernel/benchmark
/// performance and total compile time.
///
/// Host parallelism: with `cfg.host_threads > 1` the per-region (or, in
/// batched mode, per-group) compilations run on a pool of host threads
/// that claim jobs from one shared index cursor (see [`crate::host_pool`]);
/// results are merged on the calling thread in canonical order, so the
/// returned [`SuiteRun`] is byte-identical at any thread count — only
/// wall-clock time changes.
pub fn compile_suite(suite: &Suite, occ: &OccupancyModel, cfg: &PipelineConfig) -> SuiteRun {
    compile_suite_observed(suite, occ, cfg, |_, _, _, _, _| {})
}

/// [`compile_suite`] with an observer invoked on every region compilation
/// (including the occupancy-capped re-schedules of the kernel post filter),
/// before the kernel-level filter mutates the outcome.
///
/// The observer receives `(kernel, region, ddg, config, compilation)`,
/// where `config` is the pipeline configuration that compilation actually
/// ran under (the post-filter re-schedules set `aco.occupancy_cap`). This
/// is the verification hook: `sched-verify` certifies every schedule the
/// pipeline produces through it without the pipeline depending on the
/// verifier.
pub fn compile_suite_observed<F>(
    suite: &Suite,
    occ: &OccupancyModel,
    cfg: &PipelineConfig,
    observe: F,
) -> SuiteRun
where
    F: FnMut(usize, usize, &Ddg, &PipelineConfig, &RegionCompilation),
{
    let cache = cfg.cache.enabled.then(ScheduleCache::new);
    compile_suite_with_cache(suite, occ, cfg, cache.as_ref(), observe)
}

/// [`compile_suite_observed`] compiling through a caller-owned
/// [`ScheduleCache`] (or none, overriding `cfg.cache`). Use this to share
/// one cache across several suite compilations — e.g. repeated runs of the
/// same suite, or a persisted cache reloaded from disk. The run's
/// [`SuiteRun::cache`] counters report only this call's activity.
pub fn compile_suite_with_cache<F>(
    suite: &Suite,
    occ: &OccupancyModel,
    cfg: &PipelineConfig,
    cache: Option<&ScheduleCache>,
    observe: F,
) -> SuiteRun
where
    F: FnMut(usize, usize, &Ddg, &PipelineConfig, &RegionCompilation),
{
    compile_suite_with_stores(suite, occ, cfg, cache, observe).0
}

/// [`compile_suite_with_cache`] with the host wall-clock breakdown.
///
/// This is the one drive body under every suite compiler, the
/// `sched-serve` daemon's `suite` requests included: plan → streaming
/// merge → finish. The clock is read only at phase and
/// consume boundaries (as the job loop already does around every job),
/// never inside the schedulers.
pub fn compile_suite_with_stores<F>(
    suite: &Suite,
    occ: &OccupancyModel,
    cfg: &PipelineConfig,
    cache: Option<&ScheduleCache>,
    observe: F,
) -> (SuiteRun, SuiteWallclock)
where
    F: FnMut(usize, usize, &Ddg, &PipelineConfig, &RegionCompilation),
{
    let start = Instant::now();
    // Snapshot before the job phase: the run's counters must cover the job
    // phase's lookups, not just the merge's capped re-schedules.
    let stats_start = cache.map(ScheduleCache::stats).unwrap_or_default();
    let jobs = plan_jobs(suite, cfg);
    let plan_s = start.elapsed().as_secs_f64();
    let mut merger = SuiteMerger::new(suite, occ, cfg, &jobs, cache, None, observe);
    // Consume calls in seconds since `phase`. The pool's span clock starts
    // a moment after `phase`, which can only shave that moment off the
    // overlap, never add to it.
    let mut overlap = MergeOverlap::default();
    let phase = Instant::now();
    let timing = run_jobs_streaming(
        suite,
        occ,
        cfg,
        &jobs,
        cfg.host_threads,
        cache,
        |i, outcomes, in_flight| {
            let start = phase.elapsed().as_secs_f64();
            merger.consume(i, outcomes);
            overlap.record(start, phase.elapsed().as_secs_f64(), in_flight > 0);
        },
    );
    let merge_overlap_s = overlap.within_jobs(timing.jobs_span_s);
    let t_finish = Instant::now();
    let mut run = merger.finish();
    let merge_s = overlap.busy + t_finish.elapsed().as_secs_f64();
    run.cache = cache
        .map(|c| c.stats().since(stats_start))
        .unwrap_or_default();
    let wall = SuiteWallclock {
        plan_s,
        jobs_s: if timing.pooled {
            timing.jobs_span_s
        } else {
            timing.jobs_busy_s
        },
        merge_s,
        merge_overlap_s,
        total_s: start.elapsed().as_secs_f64(),
    };
    (run, wall)
}

/// A streaming merge's consume time and the part of it that ran while jobs
/// were in flight, fed one consume call at a time. All times are on one
/// clock, in one unit.
#[derive(Debug, Clone, Copy, Default)]
struct MergeOverlap {
    /// Total time inside the recorded consume calls.
    busy: f64,
    /// Full length of every call handed off while jobs were in flight.
    overlapped: f64,
    /// Start and end of the last such call.
    last: (f64, f64),
}

impl MergeOverlap {
    /// Records one consume call from `start` to `end`; `in_flight` is
    /// whether jobs were still unfinished when it was handed off.
    fn record(&mut self, start: f64, end: f64, in_flight: bool) {
        self.busy += end - start;
        if in_flight {
            self.overlapped += end - start;
            self.last = (start, end);
        }
    }

    /// The merge time that ran while jobs were in flight, the job phase
    /// having ended at `jobs_end`: every call handed off in flight, less
    /// the part of the last one after `jobs_end`. Consume calls run one
    /// after another on one thread, so only that call can straddle the end.
    fn within_jobs(&self, jobs_end: f64) -> f64 {
        self.overlapped - (self.last.1 - self.last.0.max(jobs_end)).max(0.0)
    }
}

/// Host wall-clock breakdown of one [`compile_suite_with_stores`] call,
/// seconds.
/// These are *measured host* times — unrelated to the modeled GPU
/// microseconds inside [`SuiteRun`] (see DESIGN.md on the two time
/// domains).
#[derive(Debug, Clone, Copy)]
pub struct SuiteWallclock {
    /// Planning the job list.
    pub plan_s: f64,
    /// The job phase (what `host_threads` parallelizes). On a pool this is
    /// the wall span from phase start to the last job's completion, which
    /// covers the jobs the calling thread runs between merges; inline
    /// (`host_threads <= 1`) it is the cumulative time inside the jobs,
    /// excluding the interleaved merge work.
    pub jobs_s: f64,
    /// The deterministic merge's *busy* time: observer replay, kernel post
    /// filter, modeled time and throughput aggregation. With the streaming
    /// consumer this work is no longer a serial tail — see
    /// `merge_overlap_s`.
    pub merge_s: f64,
    /// The portion of `merge_s` that ran while jobs were still in flight
    /// on the pool — merge work hidden inside the job phase. A consume
    /// call that outlasts the last job counts only up to the job span's
    /// end; the rest of it is tail. Zero when
    /// `host_threads <= 1` (nothing runs concurrently inline). The serial
    /// merge tail is `merge_s - merge_overlap_s`, and
    /// `total_s < jobs_s + merge_s` exactly when overlap is non-zero.
    pub merge_overlap_s: f64,
    /// End-to-end wall-clock of the whole call.
    pub total_s: f64,
}

/// [`compile_suite`] with a measured host wall-clock breakdown. The
/// returned [`SuiteRun`] is exactly what [`compile_suite`] returns.
pub fn compile_suite_timed(
    suite: &Suite,
    occ: &OccupancyModel,
    cfg: &PipelineConfig,
) -> (SuiteRun, SuiteWallclock) {
    let cache = cfg.cache.enabled.then(ScheduleCache::new);
    compile_suite_with_stores(suite, occ, cfg, cache.as_ref(), |_, _, _, _, _| {})
}

/// The barrier-shape merge, retained as the **reference implementation**
/// the equivalence tests compare the streaming compilers against: every
/// job already ran ([`crate::host_pool::run_jobs`]), `results` is indexed
/// by canonical job, and the whole merge executes here as one serial pass.
/// Both shapes feed the same [`SuiteMerger`] the same canonical stream, so
/// their output is byte-identical. No executor outside this crate merges
/// through it: the `sched-serve` daemon runs a `suite` request through
/// [`compile_suite_with_stores`]. `jobs` must be [`plan_jobs`]'s canonical
/// list and `results` its per-job outcomes indexed the same way.
/// [`SuiteRun::cache`] is left zeroed.
pub fn merge_job_results<F>(
    suite: &Suite,
    occ: &OccupancyModel,
    cfg: &PipelineConfig,
    jobs: &[RegionJob],
    results: Vec<Vec<RegionOutcome>>,
    cache: Option<&ScheduleCache>,
    observe: F,
) -> SuiteRun
where
    F: FnMut(usize, usize, &Ddg, &PipelineConfig, &RegionCompilation),
{
    let mut merger = SuiteMerger::new(suite, occ, cfg, jobs, cache, None, observe);
    for (i, outcomes) in results.into_iter().enumerate() {
        merger.consume(i, outcomes);
    }
    merger.finish()
}

/// Folds one region record into a suite fingerprint: the per-record half
/// of the canonical word stream.
fn fold_record(fp: &mut Fnv64, r: &RegionRecord) {
    fp.word(r.kernel as u64);
    fp.word(r.region as u64);
    fp.word(r.size as u64);
    fp.word(r.occupancy as u64);
    fp.word(r.length as u64);
    fp.word(r.heuristic_occupancy as u64);
    fp.word(r.heuristic_length as u64);
    fp.word(r.pass1_processed as u64);
    fp.word(r.pass2_processed as u64);
    fp.word(r.pass1_iterations as u64);
    fp.word(r.pass2_iterations as u64);
    fp.word(r.pass1_time_us.to_bits());
    fp.word(r.pass2_time_us.to_bits());
    fp.word(r.sched_time_us.to_bits());
    fp.word(r.reverted as u64);
    fp.word(r.kept_aco as u64);
}

/// Folds the tail of the canonical word stream — the per-kernel and
/// per-benchmark aggregates and the modeled compile time — which follows
/// the region records.
fn fold_aggregates(fp: &mut Fnv64, run: &SuiteRun) {
    for &o in &run.kernel_occupancy {
        fp.word(o as u64);
    }
    for &t in &run.kernel_time_us {
        fp.word(t.to_bits());
    }
    for &t in &run.benchmark_time_us {
        fp.word(t.to_bits());
    }
    for &t in &run.benchmark_throughput {
        fp.word(t.to_bits());
    }
    fp.word(run.compile_time_s.to_bits());
}

/// The **streaming deterministic merge**: consumes per-job results one at
/// a time, strictly in canonical job order, and performs the entire
/// sequential half of suite compilation incrementally — observer replay,
/// absorbing the jobs' analysis findings, the kernel-level
/// post filter the moment a kernel's last job lands, modeled-time
/// accounting, and the suite fingerprint as a running FNV-1a fold.
///
/// Determinism is by construction: [`consume`](SuiteMerger::consume)
/// *requires* canonical order (asserted), runs on one thread, and every
/// float accumulation happens at a fixed point in that order — so the
/// finished [`SuiteRun`] is byte-identical whether results were produced
/// inline, by the index-cursor job pool at any thread count, or by a
/// daemon's priority queue in any service order.
///
/// Merge-side buffers are pre-sized from the planned job list at
/// construction: in steady state (no occupancy-capped re-schedules, no
/// deny findings to keep) the merge loop performs **zero** allocator
/// events, analysis on or off — the counting-allocator test extends the
/// PR 3/7 allocation-free invariant from `run_job` to this whole path.
pub struct SuiteMerger<'a, F> {
    suite: &'a Suite,
    occ: &'a OccupancyModel,
    cfg: &'a PipelineConfig,
    jobs: &'a [RegionJob],
    cache: Option<&'a ScheduleCache>,
    observe: F,
    exec: ExecModel,
    analysis: Option<AnalysisReport>,
    records: Vec<RegionRecord>,
    kernel_occupancy: Vec<u32>,
    kernel_times: Vec<f64>,
    compile_us: f64,
    fp: Fnv64,
    /// Planned job count per kernel (drives kernel-boundary detection).
    kernel_jobs: Vec<usize>,
    next_job: usize,
    kernel: usize,
    consumed_in_kernel: usize,
    /// Per-kernel scratch, pre-sized to the largest kernel and reused
    /// (cleared, never reallocated) across the whole merge.
    slots: Vec<Option<RegionCompilation>>,
    compiled: Vec<RegionCompilation>,
    per_region: Vec<(u32, Cycle)>,
    bench_times: Vec<f64>,
}

impl<'a, F> SuiteMerger<'a, F>
where
    F: FnMut(usize, usize, &Ddg, &PipelineConfig, &RegionCompilation),
{
    /// A merger ready to consume job 0. `jobs` must be [`plan_jobs`]'s
    /// canonical list for `(suite, cfg)`.
    ///
    /// `_retired` is always `None`: the sixth argument once carried the
    /// self-tuning store, which was removed. It stays, typed so that it can
    /// hold nothing, because the benchmark calls `new` with seven arguments.
    pub fn new(
        suite: &'a Suite,
        occ: &'a OccupancyModel,
        cfg: &'a PipelineConfig,
        jobs: &'a [RegionJob],
        cache: Option<&'a ScheduleCache>,
        _retired: Option<&'a Infallible>,
        observe: F,
    ) -> SuiteMerger<'a, F> {
        let mut kernel_jobs = vec![0usize; suite.kernels.len()];
        for job in jobs {
            kernel_jobs[job.kernel()] += 1;
        }
        let max_regions = suite.kernels.iter().map(|k| k.regions.len()).max();
        let max_regions = max_regions.unwrap_or(0);
        let max_bench = suite.benchmarks.iter().map(|b| b.kernels.len()).max();
        // In-pipeline static analysis covers exactly the compilations the
        // observer sees (including capped re-schedules) and never mutates
        // one, so it cannot perturb the run. The per-region passes ran in
        // the jobs; only the once-per-suite S007 check runs here.
        let analysis = cfg.analyze.enabled.then(|| {
            let mut rep = AnalysisReport::default();
            rep.absorb(check_config_drift(cfg, occ));
            rep
        });
        let mut slots = Vec::with_capacity(max_regions);
        if let Some(first) = suite.kernels.first() {
            slots.resize_with(first.regions.len(), || None);
        }
        SuiteMerger {
            suite,
            occ,
            cfg,
            jobs,
            cache,
            observe,
            exec: ExecModel {
                max_occupancy: occ.max_waves(),
            },
            analysis,
            records: Vec::with_capacity(suite.region_count()),
            kernel_occupancy: Vec::with_capacity(suite.kernels.len()),
            kernel_times: Vec::with_capacity(suite.kernels.len()),
            compile_us: 0.0,
            fp: Fnv64::new(),
            kernel_jobs,
            next_job: 0,
            kernel: 0,
            consumed_in_kernel: 0,
            slots,
            compiled: Vec::with_capacity(max_regions),
            per_region: Vec::with_capacity(max_regions),
            bench_times: Vec::with_capacity(max_bench.unwrap_or(0)),
        }
    }

    /// Attributes one compilation's findings to its suite position and
    /// folds them into the report. Called in canonical order, so counts
    /// and the first kept deny findings are thread-count independent.
    fn absorb_findings(&mut self, k: usize, ri: usize, findings: Vec<Finding>) {
        if let Some(rep) = self.analysis.as_mut() {
            rep.regions_analyzed += 1;
            rep.absorb(findings.into_iter().map(|f| f.in_region(k, ri)));
        }
    }

    /// Merges one job's outcomes. Must be called with `job_index` exactly
    /// one past the previous call (starting at 0) — the canonical order
    /// every determinism guarantee rests on; out-of-order consumption
    /// panics rather than silently producing a different run.
    pub fn consume(&mut self, job_index: usize, outcomes: Vec<RegionOutcome>) {
        assert_eq!(
            job_index, self.next_job,
            "job results must be consumed in canonical job order"
        );
        let k = self.jobs[job_index].kernel();
        // Kernels the canonical order skipped entirely (region-free) close
        // as we pass them.
        while self.kernel < k {
            self.finish_kernel();
        }
        let suite = self.suite;
        for RegionOutcome {
            region,
            cfg: region_cfg,
            comp,
            findings,
        } in outcomes
        {
            let ddg = &suite.kernels[k].regions[region];
            (self.observe)(k, region, ddg, &region_cfg, &comp);
            self.absorb_findings(k, region, findings);
            self.slots[region] = Some(comp);
        }
        self.next_job += 1;
        self.consumed_in_kernel += 1;
        if self.consumed_in_kernel == self.kernel_jobs[k] {
            self.finish_kernel();
        }
    }

    /// Closes the current kernel: post filter, records, modeled kernel
    /// time — the moment its last job was consumed, not at suite end.
    fn finish_kernel(&mut self) {
        let suite = self.suite;
        let k = self.kernel;
        let kernel = &suite.kernels[k];
        debug_assert_eq!(self.consumed_in_kernel, self.kernel_jobs[k]);
        // Move the scratch out so `&mut self` methods stay callable in the
        // loops below; both moves are pointer swaps, not allocations, and
        // the vectors go back (capacity intact) before returning.
        let mut compiled = std::mem::take(&mut self.compiled);
        compiled.extend(
            self.slots
                .drain(..)
                .map(|c| c.expect("every region compiled by some job")),
        );
        for (c, ddg) in compiled.iter().zip(&kernel.regions) {
            self.compile_us += self.cfg.base_cost_us(ddg.len()) + c.sched_time_us;
        }
        // Kernel-level post filter: occupancy is a whole-kernel property
        // (registers are allocated per kernel), so pressure savings beyond
        // the kernel's minimum occupancy are pure schedule-length loss.
        // This mirrors the production scheduler's kernel-wide occupancy
        // target. Two remedies, cheapest first:
        //  1. revert to the heuristic schedule when it is shorter and does
        //     not lower the kernel minimum;
        //  2. otherwise re-schedule the region with pass 2's pressure
        //     constraint relaxed to the kernel minimum's APRP band.
        let kmin = compiled.iter().map(|c| c.occupancy).min().unwrap_or(0);
        for (ri, (c, ddg)) in compiled.iter_mut().zip(&kernel.regions).enumerate() {
            if c.choice != FinalChoice::Aco || c.occupancy <= kmin || c.length <= c.heuristic.length
            {
                continue;
            }
            if c.heuristic.occupancy >= kmin {
                c.choice = FinalChoice::Heuristic;
                c.occupancy = c.heuristic.occupancy;
                c.length = c.heuristic.length;
                c.reverted = true;
                continue;
            }
            let mut capped_cfg = *self.cfg;
            capped_cfg.aco.occupancy_cap = Some(kmin);
            // The cap is part of the cache key (`occupancy_cap` is an
            // `AcoConfig` field), so capped re-schedules memoize
            // independently of the uncapped compilations.
            let capped = match self.cache {
                Some(cache) => cache.compile_solo(ddg, self.occ, &capped_cfg),
                None => compile_region(ddg, self.occ, &capped_cfg),
            };
            (self.observe)(k, ri, ddg, &capped_cfg, &capped);
            // Compiled here, so analyzed here (jobs analyze their own).
            if self.analysis.is_some() {
                self.absorb_findings(k, ri, analyze_region(ddg, &capped));
            }
            self.compile_us += capped.sched_time_us;
            c.sched_time_us += capped.sched_time_us;
            if let Some(a) = capped.aco {
                if a.occupancy >= kmin && a.length < c.length {
                    // The record must describe the compilation actually
                    // adopted: the capped run's pass flags, iteration
                    // counts and per-pass times replace the original
                    // run's (the total scheduling time above keeps both
                    // runs — both were paid).
                    c.occupancy = a.occupancy;
                    c.length = a.length;
                    c.pass1_processed = capped.pass1_processed;
                    c.pass2_processed = capped.pass2_processed;
                    c.aco = Some(a);
                }
            }
        }
        self.per_region.clear();
        for (ri, c) in compiled.drain(..).enumerate() {
            self.per_region.push((c.occupancy, c.length));
            let (p1_iter, p2_iter, p1_us, p2_us) = match &c.aco {
                Some(a) => (
                    a.pass1.iterations,
                    a.pass2.iterations,
                    a.pass1.time_us,
                    a.pass2.time_us,
                ),
                None => (0, 0, 0.0, 0.0),
            };
            let record = RegionRecord {
                kernel: k,
                region: ri,
                size: c.size,
                occupancy: c.occupancy,
                length: c.length,
                heuristic_occupancy: c.heuristic.occupancy,
                heuristic_length: c.heuristic.length,
                pass1_processed: c.pass1_processed,
                pass2_processed: c.pass2_processed,
                pass1_iterations: p1_iter,
                pass2_iterations: p2_iter,
                pass1_time_us: p1_us,
                pass2_time_us: p2_us,
                sched_time_us: c.sched_time_us,
                reverted: c.reverted,
                kept_aco: c.choice == FinalChoice::Aco,
            };
            fold_record(&mut self.fp, &record);
            self.records.push(record);
        }
        self.compiled = compiled;
        self.kernel_occupancy
            .push(self.per_region.iter().map(|&(o, _)| o).min().unwrap_or(0));
        // Modeled time plus the unmodeled-factor perturbation drawn from
        // the final schedules (see exec_model::unmodeled_factor).
        let noise = unmodeled_factor(schedule_fingerprint(k, &self.per_region));
        self.kernel_times
            .push(kernel_time_us(&self.exec, kernel, &self.per_region) * (1.0 + noise));
        self.kernel += 1;
        self.consumed_in_kernel = 0;
        if let Some(next) = suite.kernels.get(self.kernel) {
            self.slots.resize_with(next.regions.len(), || None);
        }
    }

    /// Finalizes the run: closes any trailing region-free kernels, folds
    /// the benchmark aggregates, and completes the incremental
    /// fingerprint. Panics if any planned job was never consumed.
    pub fn finish(mut self) -> SuiteRun {
        assert_eq!(
            self.next_job,
            self.jobs.len(),
            "every planned job must be consumed before finishing the merge"
        );
        while self.kernel < self.suite.kernels.len() {
            self.finish_kernel();
        }
        let suite = self.suite;
        let mut benchmark_time_us: Vec<f64> = Vec::with_capacity(suite.benchmarks.len());
        let mut throughput: Vec<f64> = Vec::with_capacity(suite.benchmarks.len());
        for b in &suite.benchmarks {
            self.bench_times.clear();
            self.bench_times
                .extend(b.kernels.iter().map(|&k| self.kernel_times[k]));
            let bytes: u64 = b
                .kernels
                .iter()
                .map(|&k| suite.kernels[k].bytes_per_launch)
                .sum();
            benchmark_time_us.push(self.bench_times.iter().sum());
            throughput.push(benchmark_throughput(bytes, &self.bench_times));
        }
        // The expensive part of the fingerprint — one word-fold pass over
        // every region record — already happened incrementally as kernels
        // closed; only the aggregate tail is left.
        let mut fp = self.fp;
        let mut run = SuiteRun {
            scheduler: self.cfg.scheduler,
            regions: self.records,
            kernel_occupancy: self.kernel_occupancy,
            kernel_time_us: self.kernel_times,
            benchmark_time_us,
            benchmark_throughput: throughput,
            compile_time_s: self.compile_us / 1e6,
            // Callers overwrite with the delta over their whole
            // compilation (job phase + merge); the merge alone cannot see
            // the job phase's start.
            cache: CacheStats::default(),
            analysis: self.analysis,
            fingerprint: 0,
        };
        fold_aggregates(&mut fp, &run);
        run.fingerprint = fp.finish();
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::SuiteConfig;

    fn tiny_suite() -> Suite {
        Suite::generate(&SuiteConfig::scaled(5, 0.008))
    }

    fn cfg(kind: SchedulerKind) -> PipelineConfig {
        let mut c = PipelineConfig::paper(kind, 0);
        c.aco.blocks = 4;
        // Let pass 2 run on any above-LB region so the tiny suite has ACO
        // activity to observe.
        c.aco.pass2_gate_cycles = 1;
        c
    }

    #[test]
    fn base_run_has_no_aco_regions() {
        let suite = tiny_suite();
        let occ = OccupancyModel::vega_like();
        let run = compile_suite(&suite, &occ, &cfg(SchedulerKind::BaseAmd));
        assert_eq!(run.regions.len(), suite.region_count());
        assert_eq!(run.pass1_count(), 0);
        assert_eq!(run.pass2_count(), 0);
        assert_eq!(run.benchmark_throughput.len(), suite.benchmarks.len());
        assert!(run.compile_time_s > 0.0);
        assert!(run.benchmark_throughput.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn aco_run_improves_aggregate_metrics() {
        let suite = tiny_suite();
        let occ = OccupancyModel::vega_like();
        let base = compile_suite(&suite, &occ, &cfg(SchedulerKind::BaseAmd));
        let aco = compile_suite(&suite, &occ, &cfg(SchedulerKind::ParallelAco));
        assert!(aco.total_occupancy() >= base.total_occupancy());
        // ACO may lengthen schedules to buy occupancy, so only the
        // occupancy aggregate is monotone; but some region must have been
        // processed for the comparison to mean anything.
        assert!(aco.pass1_count() + aco.pass2_count() > 0);
    }

    #[test]
    fn aco_compile_time_exceeds_base() {
        let suite = tiny_suite();
        let occ = OccupancyModel::vega_like();
        let base = compile_suite(&suite, &occ, &cfg(SchedulerKind::BaseAmd));
        let par = compile_suite(&suite, &occ, &cfg(SchedulerKind::ParallelAco));
        assert!(par.compile_time_s > base.compile_time_s);
    }

    #[test]
    fn deterministic() {
        let suite = tiny_suite();
        let occ = OccupancyModel::vega_like();
        let a = compile_suite(&suite, &occ, &cfg(SchedulerKind::ParallelAco));
        let b = compile_suite(&suite, &occ, &cfg(SchedulerKind::ParallelAco));
        assert_eq!(a.total_length(), b.total_length());
        assert_eq!(a.benchmark_throughput, b.benchmark_throughput);
    }

    #[test]
    fn batched_mode_reduces_compile_time() {
        let suite = tiny_suite();
        let occ = OccupancyModel::vega_like();
        let mut par_cfg = cfg(SchedulerKind::ParallelAco);
        par_cfg.aco.blocks = 16;
        let mut bat_cfg = cfg(SchedulerKind::BatchedParallelAco);
        bat_cfg.aco.blocks = 16;
        let par = compile_suite(&suite, &occ, &par_cfg);
        let bat = compile_suite(&suite, &occ, &bat_cfg);
        assert_eq!(bat.regions.len(), suite.region_count());
        assert!(
            bat.compile_time_s < par.compile_time_s,
            "batching must cut modeled compile time: batched {} vs parallel {}",
            bat.compile_time_s,
            par.compile_time_s
        );
    }

    #[test]
    fn batched_mode_is_deterministic() {
        let suite = tiny_suite();
        let occ = OccupancyModel::vega_like();
        let a = compile_suite(&suite, &occ, &cfg(SchedulerKind::BatchedParallelAco));
        let b = compile_suite(&suite, &occ, &cfg(SchedulerKind::BatchedParallelAco));
        assert_eq!(a.total_length(), b.total_length());
        assert_eq!(a.benchmark_throughput, b.benchmark_throughput);
        assert_eq!(a.compile_time_s, b.compile_time_s);
    }

    #[test]
    fn analysis_is_read_only_and_clean_on_real_suites() {
        let suite = tiny_suite();
        let occ = OccupancyModel::vega_like();
        let base_cfg = cfg(SchedulerKind::ParallelAco);
        let off = compile_suite(&suite, &occ, &base_cfg);
        let on = compile_suite(&suite, &occ, &base_cfg.with_analyze(true));
        // Read-only: every modeled result is bitwise identical on and off.
        assert_eq!(off.total_length(), on.total_length());
        assert_eq!(off.total_occupancy(), on.total_occupancy());
        assert_eq!(off.kernel_time_us, on.kernel_time_us);
        assert_eq!(off.benchmark_time_us, on.benchmark_time_us);
        assert_eq!(off.benchmark_throughput, on.benchmark_throughput);
        assert_eq!(off.compile_time_s, on.compile_time_s);
        assert!(off.analysis.is_none());
        // The report exists, covered every observed compilation, and a
        // healthy pipeline has nothing deny-worthy to report.
        let rep = on.analysis.expect("analysis enabled");
        assert!(rep.regions_analyzed >= suite.region_count());
        assert!(
            rep.is_clean(),
            "real pipeline output flagged: {:?}",
            rep.deny_findings
        );
    }

    #[test]
    fn capped_reschedule_record_reflects_adopted_compilation() {
        use std::collections::HashMap;
        let occ = OccupancyModel::vega_like();
        let mut adoptions = 0usize;
        for seed in [3u64, 5, 9, 12, 21, 33] {
            let suite = Suite::generate(&SuiteConfig::scaled(seed, 0.008));
            let c = cfg(SchedulerKind::ParallelAco);
            // First and (when the kernel post filter re-scheduled) capped
            // compilation per region, in observation order.
            let mut seen: HashMap<(usize, usize), Vec<RegionCompilation>> = HashMap::new();
            let run = compile_suite_observed(&suite, &occ, &c, |k, ri, _, _, comp| {
                seen.entry((k, ri)).or_default().push(comp.clone());
            });
            for rec in &run.regions {
                let obs = &seen[&(rec.kernel, rec.region)];
                if obs.len() < 2 {
                    continue;
                }
                let (orig, capped) = (&obs[0], &obs[1]);
                let Some(a) = &capped.aco else { continue };
                // Adoption is visible in the record: the capped ACO result's
                // occupancy/length were kept and differ from the original
                // compilation's outcome.
                if (rec.occupancy, rec.length) == (a.occupancy, a.length)
                    && (orig.occupancy, orig.length) != (a.occupancy, a.length)
                {
                    adoptions += 1;
                    assert_eq!(
                        (rec.pass1_iterations, rec.pass2_iterations),
                        (a.pass1.iterations, a.pass2.iterations),
                        "adopted record must report the capped run's iterations"
                    );
                    assert_eq!(
                        (rec.pass1_time_us, rec.pass2_time_us),
                        (a.pass1.time_us, a.pass2.time_us),
                        "adopted record must report the capped run's pass times"
                    );
                }
            }
        }
        assert!(
            adoptions > 0,
            "no capped re-schedule was adopted; the accounting fix is untested"
        );
    }

    /// A synthetic timeline: the last job ends at 10 s. Consume calls at
    /// [1, 2] and [3, 4] run beside jobs; [9, 12] straddles the end, so
    /// only its first second is hidden; [12, 13] is handed off after the
    /// end and counted as tail by the caller.
    #[test]
    fn a_consume_call_that_outlasts_the_jobs_counts_only_its_overlapped_part() {
        let mut overlap = MergeOverlap::default();
        for (start, end, in_flight) in [
            (1.0, 2.0, true),
            (3.0, 4.0, true),
            (9.0, 12.0, true),
            (12.0, 13.0, false),
        ] {
            overlap.record(start, end, in_flight);
        }
        assert_eq!(overlap.busy, 6.0);
        assert_eq!(overlap.within_jobs(f64::INFINITY), 5.0, "the old count");
        assert_eq!(overlap.within_jobs(10.0), 3.0);
        // A last call that ends before the jobs do keeps all of itself; so
        // does a run with no overlapped call at all.
        assert_eq!(overlap.within_jobs(12.5), 5.0);
        assert_eq!(MergeOverlap::default().within_jobs(10.0), 0.0);
    }
}
