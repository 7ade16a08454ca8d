//! Which suite jobs the schedule cache serves. A job that runs a colony
//! is memoized; a list-scheduled job (`BaseAmd`, `CriticalPath`) compiles
//! directly, because its compile costs about what a certified hit does.
//! Either way the suite's results are the cache-off results, bit for bit.

use machine_model::OccupancyModel;
use pipeline::{
    compile_suite_with_cache, CacheStats, PipelineConfig, ScheduleCache, SchedulerKind, SuiteRun,
};
use workloads::{Suite, SuiteConfig};

fn cfg(kind: SchedulerKind, threads: usize) -> PipelineConfig {
    let mut c = PipelineConfig::paper(kind, 0).with_host_threads(threads);
    c.aco.blocks = 4;
    c.aco.pass2_gate_cycles = 1;
    c
}

fn compile(suite: &Suite, cfg: &PipelineConfig, cache: Option<&ScheduleCache>) -> SuiteRun {
    let occ = OccupancyModel::vega_like();
    compile_suite_with_cache(suite, &occ, cfg, cache, |_, _, _, _, _| {})
}

#[test]
fn list_scheduled_suites_never_touch_the_cache() {
    let suite = Suite::generate(&SuiteConfig::duplicate_heavy(5, 0.008));
    for kind in [SchedulerKind::BaseAmd, SchedulerKind::CriticalPath] {
        let want = compile(&suite, &cfg(kind, 1), None).fingerprint;
        for threads in [1, 2] {
            let cache = ScheduleCache::new();
            let run = compile(&suite, &cfg(kind, threads), Some(&cache));
            assert_eq!(run.fingerprint, want, "{kind:?} at {threads} threads");
            assert_eq!(cache.len(), 0, "{kind:?} at {threads} threads stored");
            assert_eq!(cache.stats(), CacheStats::default());
            assert_eq!(run.cache.lookups(), 0);
        }
    }
}

/// On suites with 60% template duplicates the cache stores what it
/// compiles and answers at least 30% of its lookups, at any thread count,
/// without moving a result.
#[test]
fn a_duplicate_heavy_aco_suite_still_fills_the_cache_and_hits() {
    for (seed, scale) in [(3, 0.004), (5, 0.008)] {
        let suite = Suite::generate(&SuiteConfig::duplicate_heavy(seed, scale));
        let want = compile(&suite, &cfg(SchedulerKind::ParallelAco, 1), None).fingerprint;
        for threads in [1, 2] {
            let cache = ScheduleCache::new();
            let run = compile(
                &suite,
                &cfg(SchedulerKind::ParallelAco, threads),
                Some(&cache),
            );
            let at = format!("seed {seed}, scale {scale}, {threads} threads");
            assert_eq!(run.fingerprint, want, "ParallelAco at {at}");
            assert!(!cache.is_empty(), "ParallelAco at {at} stored nothing");
            assert!(
                run.cache.hit_rate() >= 0.30,
                "hit rate under 30% at {at}: {:?}",
                run.cache
            );
        }
    }
}
