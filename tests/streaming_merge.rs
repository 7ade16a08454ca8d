//! Streaming-merge equivalence: the streaming deterministic merge (slot
//! table + in-order consumer, `pipeline::compile_suite*`) must produce
//! byte-identical output to the retained barrier reference
//! (`run_jobs` → `merge_job_results`) for every scheduler kind, thread
//! count and cache mode — and with tuning on, leave the caller's
//! `TuneStore` in a byte-identical learned state too.
//!
//! This is the property the whole PR rests on: overlapping the merge
//! with job execution is a pure wall-clock optimization, invisible in
//! every output byte.

use machine_model::OccupancyModel;
use pipeline::host_pool::{plan_jobs, run_jobs};
use pipeline::{
    compile_suite_with_cache, compile_suite_with_stores, merge_job_results, PipelineConfig,
    ScheduleCache, SchedulerKind,
};
use sched_verify::suite_fingerprint;
use workloads::{Suite, SuiteConfig};

const KINDS: [SchedulerKind; 4] = [
    SchedulerKind::BaseAmd,
    SchedulerKind::SequentialAco,
    SchedulerKind::ParallelAco,
    SchedulerKind::BatchedParallelAco,
];

fn cfg_for(kind: SchedulerKind, threads: usize, cache: bool) -> PipelineConfig {
    let mut cfg = PipelineConfig::paper(kind, 0)
        .with_host_threads(threads)
        .with_cache(cache);
    cfg.aco.blocks = 4;
    cfg.aco.pass2_gate_cycles = 1;
    cfg
}

/// The barrier reference run: all jobs first, one merge after.
fn barrier_run(
    suite: &Suite,
    occ: &OccupancyModel,
    cfg: &PipelineConfig,
    cache: Option<&ScheduleCache>,
    tune: Option<&pipeline::TuneStore>,
) -> pipeline::SuiteRun {
    let jobs = plan_jobs(suite, cfg);
    let results = run_jobs(suite, occ, cfg, &jobs, cfg.host_threads, cache, tune);
    merge_job_results(
        suite,
        occ,
        cfg,
        &jobs,
        results,
        cache,
        tune,
        |_, _, _, _, _| {},
    )
}

#[test]
fn streaming_merge_is_byte_equal_to_barrier_reference() {
    let occ = OccupancyModel::vega_like();
    let suite = Suite::generate(&SuiteConfig::scaled(9, 0.006));
    for kind in KINDS {
        for threads in [1usize, 2, 8] {
            for cache_on in [true, false] {
                let cfg = cfg_for(kind, threads, cache_on);
                let cache = cache_on.then(ScheduleCache::new);
                let reference = barrier_run(&suite, &occ, &cfg, cache.as_ref(), None);
                let cache = cache_on.then(ScheduleCache::new);
                let streamed = compile_suite_with_cache(
                    &suite,
                    &occ,
                    &cfg,
                    cache.as_ref(),
                    |_, _, _, _, _| {},
                );
                assert_eq!(
                    suite_fingerprint(&streamed),
                    suite_fingerprint(&reference),
                    "streaming merge drifted from barrier reference under \
                     {kind:?}, {threads} threads, cache {cache_on}"
                );
                assert_eq!(
                    streamed.fingerprint,
                    suite_fingerprint(&streamed),
                    "incremental fingerprint fold disagrees with the \
                     whole-run recomputation under {kind:?}, {threads} \
                     threads, cache {cache_on}"
                );
            }
        }
    }
}

/// `suite_fingerprint` is a from-scratch recomputation over the records,
/// never a read of the merge's incremental `run.fingerprint`: tampering
/// with a finished run moves the former and not the latter.
#[test]
fn suite_fingerprint_recomputes_and_never_reads_the_incremental_fold() {
    let occ = OccupancyModel::vega_like();
    let suite = Suite::generate(&SuiteConfig::scaled(9, 0.006));
    let cfg = cfg_for(SchedulerKind::BaseAmd, 1, false);
    let mut run = compile_suite_with_cache(&suite, &occ, &cfg, None, |_, _, _, _, _| {});
    let folded = run.fingerprint;
    assert_eq!(suite_fingerprint(&run), folded);
    run.regions[0].length += 1;
    assert_ne!(suite_fingerprint(&run), folded);
    assert_eq!(run.fingerprint, folded);
}

/// With tuning on, the streaming job phase reads a snapshot of the store
/// while the merge writes observations into the caller's copy — which
/// must leave both the run *and* the learned store byte-identical to the
/// barrier shape (where all reads preceded all writes for free), at any
/// thread count.
#[test]
fn streaming_merge_preserves_tuned_runs_and_learned_state() {
    let occ = OccupancyModel::vega_like();
    let suite = Suite::generate(&SuiteConfig::scaled(9, 0.006));
    for threads in [1usize, 8] {
        let mut cfg = cfg_for(SchedulerKind::ParallelAco, threads, true);
        cfg.tune.enabled = true;

        let ref_store = pipeline::TuneStore::new();
        let ref_cache = ScheduleCache::new();
        let reference = barrier_run(&suite, &occ, &cfg, Some(&ref_cache), Some(&ref_store));

        let stream_store = pipeline::TuneStore::new();
        let stream_cache = ScheduleCache::new();
        let (streamed, _) = compile_suite_with_stores(
            &suite,
            &occ,
            &cfg,
            Some(&stream_cache),
            Some(&stream_store),
            |_, _, _, _, _| {},
        );

        assert_eq!(
            suite_fingerprint(&streamed),
            suite_fingerprint(&reference),
            "tuned streaming run drifted at {threads} threads"
        );

        // Learned state: persist both stores and compare bytes.
        let dir = std::env::temp_dir();
        let ref_path = dir.join(format!(
            "streaming-merge-ref-{threads}-{}",
            std::process::id()
        ));
        let stream_path = dir.join(format!(
            "streaming-merge-stream-{threads}-{}",
            std::process::id()
        ));
        ref_store.save_to(&ref_path).unwrap();
        stream_store.save_to(&stream_path).unwrap();
        let ref_bytes = std::fs::read(&ref_path).unwrap();
        let stream_bytes = std::fs::read(&stream_path).unwrap();
        let _ = std::fs::remove_file(&ref_path);
        let _ = std::fs::remove_file(&stream_path);
        assert_eq!(
            ref_bytes, stream_bytes,
            "learned tuning state drifted between merge shapes at {threads} threads"
        );

        // And the learned state must steer a follow-up run identically.
        let (next_ref, _) = compile_suite_with_stores(
            &suite,
            &occ,
            &cfg,
            Some(&ref_cache),
            Some(&ref_store),
            |_, _, _, _, _| {},
        );
        let (next_stream, _) = compile_suite_with_stores(
            &suite,
            &occ,
            &cfg,
            Some(&stream_cache),
            Some(&stream_store),
            |_, _, _, _, _| {},
        );
        assert_eq!(
            suite_fingerprint(&next_ref),
            suite_fingerprint(&next_stream),
            "follow-up tuned runs drifted at {threads} threads"
        );
    }
}
