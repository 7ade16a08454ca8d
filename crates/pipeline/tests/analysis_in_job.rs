//! In-pipeline analysis runs inside the jobs and the merge only absorbs
//! findings in canonical order, so [`pipeline::SuiteRun::analysis`] —
//! counts and the first kept deny findings, in order — must be the same
//! report at every thread count, cache mode and merge shape: on a clean
//! suite and on one with injected defects, with capped re-schedules
//! (analyzed on the consumer, where they compile) and with group jobs.

use machine_model::OccupancyModel;
use pipeline::host_pool::{plan_jobs, run_jobs};
use pipeline::{
    compile_suite_with_cache, merge_job_results, AnalysisReport, PipelineConfig, ScheduleCache,
    SchedulerKind,
};
use workloads::{mutate, Suite, SuiteConfig};

fn cfg_for(kind: SchedulerKind, threads: usize, cache: bool) -> PipelineConfig {
    let mut cfg = PipelineConfig::paper(kind, 0)
        .with_host_threads(threads)
        .with_cache(cache)
        .with_analyze(true);
    cfg.aco.blocks = 4;
    cfg.aco.pass2_gate_cycles = 1;
    cfg
}

/// A suite carrying one defect per region where an injector finds a site:
/// corrupted latencies (S004, deny) on even regions, orphan nodes (S003,
/// warn) on odd ones.
fn defective(mut suite: Suite) -> Suite {
    let mut seed = 0u64;
    for kernel in &mut suite.kernels {
        for (ri, region) in kernel.regions.iter_mut().enumerate() {
            seed += 1;
            if ri % 2 == 1 {
                *region = mutate::with_orphan_node(region).0;
            } else if let Some((mutated, _)) = mutate::with_corrupt_latency(region, seed) {
                *region = mutated;
            }
        }
    }
    suite
}

fn streamed(suite: &Suite, cfg: &PipelineConfig) -> AnalysisReport {
    let occ = OccupancyModel::vega_like();
    let cache = cfg.cache.enabled.then(ScheduleCache::new);
    compile_suite_with_cache(suite, &occ, cfg, cache.as_ref(), |_, _, _, _, _| {})
        .analysis
        .expect("analysis enabled")
}

fn barrier(suite: &Suite, cfg: &PipelineConfig) -> AnalysisReport {
    let occ = OccupancyModel::vega_like();
    let cache = cfg.cache.enabled.then(ScheduleCache::new);
    let jobs = plan_jobs(suite, cfg);
    let results = run_jobs(suite, &occ, cfg, &jobs, cfg.host_threads, cache.as_ref());
    merge_job_results(
        suite,
        &occ,
        cfg,
        &jobs,
        results,
        cache.as_ref(),
        |_, _, _, _, _| {},
    )
    .analysis
    .expect("analysis enabled")
}

/// The report of every (threads, cache, shape) combination equals the
/// inline, uncached, streamed one, which is returned.
fn assert_one_report(label: &str, suite: &Suite, kind: SchedulerKind) -> AnalysisReport {
    let reference = streamed(suite, &cfg_for(kind, 1, false));
    for threads in [1usize, 2, 8] {
        for cache in [false, true] {
            let cfg = cfg_for(kind, threads, cache);
            for (shape, report) in [
                ("streaming", streamed(suite, &cfg)),
                ("merge_job_results", barrier(suite, &cfg)),
            ] {
                assert_eq!(
                    report, reference,
                    "{label} {kind:?}: {threads} threads, cache {cache}, {shape}"
                );
            }
        }
    }
    reference
}

#[test]
fn analysis_report_is_one_report_at_every_thread_count_cache_mode_and_shape() {
    // Seed 3 at this scale triggers occupancy-capped re-schedules.
    let clean = Suite::generate(&SuiteConfig::scaled(3, 0.008));
    let broken = defective(clean.clone());
    for kind in [
        SchedulerKind::ParallelAco,
        SchedulerKind::BatchedParallelAco,
    ] {
        let jobs = plan_jobs(&clean, &cfg_for(kind, 1, false));
        assert_eq!(
            jobs.len() < clean.region_count(),
            kind == SchedulerKind::BatchedParallelAco,
            "{kind:?}: group jobs present exactly in batched mode"
        );

        let report = assert_one_report("clean", &clean, kind);
        assert!(report.is_clean(), "{kind:?}: {:?}", report.deny_findings);
        assert!(report.regions_analyzed >= clean.region_count());
        if kind == SchedulerKind::ParallelAco {
            assert!(
                report.regions_analyzed > clean.region_count(),
                "the suite must exercise capped re-schedules"
            );
        }

        let report = assert_one_report("defective", &broken, kind);
        assert!(report.deny > pipeline::analyze::MAX_REPORTED_DENY);
        assert_eq!(
            report.deny_findings.len(),
            pipeline::analyze::MAX_REPORTED_DENY
        );
        assert!(report.warn > 0);
        // Kept findings are the first in canonical order: a kernel's
        // (its jobs in plan order, then its capped re-schedules) before
        // the next kernel's.
        let kernels: Vec<usize> = report
            .deny_findings
            .iter()
            .map(|f| f.kernel.expect("attributed by the merge"))
            .collect();
        assert!(kernels.is_sorted(), "{kernels:?}");
        assert_eq!(kernels[0], 0, "the first kernel's findings come first");
    }
}
