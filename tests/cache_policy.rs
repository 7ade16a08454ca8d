//! Which suite jobs the schedule cache serves, and which configuration an
//! entry answers. A solo job that runs a colony is memoized; a
//! list-scheduled job (`BaseAmd`, `CriticalPath`) compiles directly,
//! because its compile costs about what a certified hit does, and so does a
//! batch group, whose lookups almost never hit. Either way the suite's results
//! are the cache-off results, bit for bit. A persisted entry is answered
//! only under the configuration and the length bound it was compiled
//! under, and a file earlier builds wrote still loads as written.

use machine_model::OccupancyModel;
use pipeline::batch::compile_batch_group;
use pipeline::host_pool::run_job;
use pipeline::{
    compile_region, compile_suite_with_cache, plan_suite_jobs, CacheStats, PipelineConfig,
    RegionCompilation, RegionJob, ScheduleCache, SchedulerKind, SuiteRun,
};
use std::path::Path;
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

/// A batch group compiles as `compile_batch_group` does, split-colony
/// configurations and all, and neither looks up nor stores anything.
#[test]
fn batch_groups_never_touch_the_cache() {
    let occ = OccupancyModel::vega_like();
    let suite = Suite::generate(&SuiteConfig::scaled(5, 0.008));
    let c = cfg(SchedulerKind::BatchedParallelAco, 1);
    let cache = ScheduleCache::new();
    let mut groups = 0;
    for job in plan_suite_jobs(&suite, &c) {
        let RegionJob::Group { kernel, members } = &job else {
            continue;
        };
        let regions = &suite.kernels[*kernel].regions;
        let ddgs: Vec<_> = members.iter().map(|&ri| &regions[ri]).collect();
        let want = compile_batch_group(&ddgs, &occ, &c);
        let got = run_job(&job, &suite, &occ, &c, Some(&cache), None);
        assert_eq!(got.len(), want.len(), "group {groups}");
        for (outcome, (want_cfg, want_comp)) in got.iter().zip(&want) {
            assert_eq!(outcome.cfg, *want_cfg, "group {groups}");
            assert_eq!(record(&outcome.comp), record(want_comp), "group {groups}");
        }
        groups += 1;
    }
    assert!(groups >= 2, "the suite must plan groups, planned {groups}");
    assert_eq!(cache.stats(), CacheStats::default());
    assert_eq!(cache.len(), 0);
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

/// What a compilation answers: the final choice and every schedule.
fn answer(c: &RegionCompilation) -> impl PartialEq + std::fmt::Debug {
    let aco = c
        .aco
        .as_ref()
        .map(|a| (a.schedule.clone(), a.order.clone()));
    let heur = (c.heuristic.schedule.clone(), c.heuristic.order.clone());
    (c.choice, c.length, c.occupancy, c.reverted, heur, aco)
}

/// One solo entry compiled under `c`, as the file `save_to_writer` writes.
fn saved_entry(ddg: &sched_ir::Ddg, c: &PipelineConfig) -> String {
    let cache = ScheduleCache::new();
    cache.compile_solo(ddg, &OccupancyModel::vega_like(), c);
    let mut out = Vec::new();
    cache.save_to_writer(&mut out).unwrap();
    String::from_utf8(out).unwrap()
}

fn key_line(file: &str) -> &str {
    file.lines()
        .find(|l| l.starts_with("key "))
        .expect("one entry")
}

/// A loaded entry whose `key` line is rewritten to another seed's key
/// holds valid schedules of the same region, so re-certification passes
/// it; the configuration its `cfg` line names keeps it from answering.
#[test]
fn a_persisted_entry_under_another_seeds_key_is_bypassed() {
    let occ = OccupancyModel::vega_like();
    let ddg = workloads::patterns::sized(40, 7);
    let ours = cfg(SchedulerKind::ParallelAco, 1);
    let theirs = PipelineConfig {
        aco: aco::AcoConfig {
            seed: 99,
            ..ours.aco
        },
        ..ours
    };
    let want = compile_region(&ddg, &occ, &ours);
    assert_ne!(
        answer(&want),
        answer(&compile_region(&ddg, &occ, &theirs)),
        "the two seeds must schedule this region differently"
    );
    let their_file = saved_entry(&ddg, &theirs);
    let our_file = saved_entry(&ddg, &ours);
    let forged = their_file.replacen(key_line(&their_file), key_line(&our_file), 1);
    assert_ne!(forged, their_file);

    let cache = ScheduleCache::load_from_reader(forged.as_bytes()).expect("a well-formed file");
    let got = cache.compile_solo(&ddg, &occ, &ours);
    assert_eq!(answer(&got), answer(&want));
    let s = cache.stats();
    assert_eq!((s.hits, s.misses, s.bypasses), (0, 0, 1));
}

/// What a compilation records beyond its answer: the pass statistics and
/// modeled time the length bound decides.
fn record(c: &RegionCompilation) -> impl PartialEq + std::fmt::Debug {
    let passes = c.aco.as_ref().map(|a| (a.pass1, a.pass2));
    let flags = (c.pass1_processed, c.pass2_processed);
    (answer(c), flags, c.sched_time_us.to_bits(), passes)
}

/// A file written before the length bound tightened, under the
/// configurations the CLI compiled its regions with. It still loads and
/// re-saves byte for byte, but its entries hold pass statistics the old
/// bound decided, and the bound's version word in the key keeps them out:
/// each region is a miss, not a bypass, and compiles as an uncached run
/// does. A file this build saves then hits.
#[test]
fn a_file_written_under_an_earlier_length_bound_misses_and_a_resaved_file_hits() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let read = |name: &str| std::fs::read_to_string(fixtures.join(name)).unwrap();
    let written = read("parent_schedcache_v1.cache");
    let cache = ScheduleCache::load_from_reader(written.as_bytes()).expect("the fixture loads");
    let save = |cache: &ScheduleCache| {
        let mut out = Vec::new();
        cache.save_to_writer(&mut out).unwrap();
        out
    };
    assert!(
        save(&cache) == written.as_bytes(),
        "load + save must give the file back"
    );

    let occ = OccupancyModel::vega_like();
    let mut par = PipelineConfig::paper(SchedulerKind::ParallelAco, 0);
    par.aco.blocks = 4;
    let regions = [
        (
            "parent_region_b.txt",
            PipelineConfig::paper(SchedulerKind::BaseAmd, 0),
        ),
        ("parent_region_a.txt", par),
        (
            "parent_region_c.txt",
            PipelineConfig::paper(SchedulerKind::SequentialAco, 7),
        ),
    ]
    .map(|(region, c)| (region, sched_ir::textir::parse(&read(region)).unwrap(), c));
    let lookups = |cache: &ScheduleCache| {
        regions.each_ref().map(|(region, ddg, c)| {
            let before = cache.stats();
            let got = cache.compile_solo(ddg, &occ, c);
            assert_eq!(
                record(&got),
                record(&compile_region(ddg, &occ, c)),
                "{region}"
            );
            let s = cache.stats().since(before);
            (s.hits, s.misses, s.bypasses)
        })
    };
    assert_eq!(lookups(&cache), [(0, 1, 0); 3]);
    let resaved = ScheduleCache::load_from_reader(&save(&cache)[..]).expect("this build's file");
    assert_eq!(lookups(&resaved), [(1, 0, 0); 3]);
}
