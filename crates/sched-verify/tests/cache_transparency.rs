//! D004 cache transparency, pinned against the seed goldens: compiling a
//! suite with the content-addressed schedule cache ON must reproduce the
//! exact suite fingerprints captured *before the cache existed* — for
//! every scheduler kind, at 1, 2 and 8 host threads. The cache may only
//! change wall-clock time and the [`pipeline::SuiteRun::cache`] counters
//! (which the fingerprint deliberately excludes).
//!
//! The golden constants are the same ones the umbrella package's
//! `tests/golden_bitwise.rs` pins for the cache-off (seed) path; equality
//! against them is therefore simultaneously a no-regression check and a
//! transparency proof.

use machine_model::OccupancyModel;
use pipeline::{compile_suite, PipelineConfig, SchedulerKind};
use sched_verify::{check_cache_transparency, render, suite_fingerprint, verify_suite};
use workloads::{Suite, SuiteConfig};

/// Captured via `examples/golden_dump.rs` — identical to
/// `golden_bitwise.rs`, re-captured with it under the heads-and-tails
/// length bound.
const SUITE_GOLDEN: &[(SchedulerKind, u64)] = &[
    (SchedulerKind::BaseAmd, 0x17ab_1421_e1f4_ab35),
    (SchedulerKind::SequentialAco, 0x1c9e_acdf_d73e_4ee4),
    (SchedulerKind::ParallelAco, 0x3a98_329e_e7b6_c157),
    (SchedulerKind::BatchedParallelAco, 0xd666_0215_adc6_c011),
];

fn golden_suite() -> Suite {
    Suite::generate(&SuiteConfig::scaled(5, 0.008))
}

fn cfg(kind: SchedulerKind) -> PipelineConfig {
    let mut c = PipelineConfig::paper(kind, 0);
    c.aco.blocks = 4;
    c.aco.pass2_gate_cycles = 1;
    c
}

/// The tentpole acceptance test: cache on and cache off reproduce the
/// pre-cache golden fingerprint, for all four scheduler kinds, at every
/// thread count.
#[test]
fn golden_fingerprints_identical_cache_on_and_off_at_1_2_8_threads() {
    let occ = OccupancyModel::vega_like();
    let suite = golden_suite();
    for &(kind, want) in SUITE_GOLDEN {
        for threads in [1usize, 2, 8] {
            for cache in [false, true] {
                let c = cfg(kind).with_host_threads(threads).with_cache(cache);
                let run = compile_suite(&suite, &occ, &c);
                assert_eq!(
                    suite_fingerprint(&run),
                    want,
                    "suite fingerprint drifted under {kind:?} at {threads} \
                     host threads with cache {}",
                    if cache { "on" } else { "off" }
                );
                if !cache {
                    assert_eq!(
                        run.cache,
                        pipeline::CacheStats::default(),
                        "disabled cache must report zero activity"
                    );
                }
            }
        }
    }
}

/// The D004 checker agrees on a duplicate-heavy suite (where the cache
/// actually fires on a large fraction of lookups).
#[test]
fn d004_clean_on_duplicate_heavy_suite() {
    let occ = OccupancyModel::vega_like();
    let suite = Suite::generate(&SuiteConfig::duplicate_heavy(5, 0.008));
    for kind in [
        SchedulerKind::ParallelAco,
        SchedulerKind::BatchedParallelAco,
    ] {
        let diags = check_cache_transparency(&suite, &occ, &cfg(kind), &[1, 2, 8]);
        assert!(diags.is_empty(), "{}", render(&diags));
    }
}

/// Cache hits flow through the same observer as fresh compilations, so
/// `verify_suite` re-certifies every adopted hit with the full C001–C012
/// battery — and finds nothing.
#[test]
fn verify_suite_certifies_cache_hits_clean() {
    let occ = OccupancyModel::vega_like();
    let suite = Suite::generate(&SuiteConfig::duplicate_heavy(5, 0.008));
    let stats = suite.duplicate_stats();
    assert!(
        stats.dedup_ratio() >= 0.30,
        "suite not duplicate-heavy enough to exercise hits: {:.3}",
        stats.dedup_ratio()
    );
    let c = cfg(SchedulerKind::ParallelAco).with_cache(true);
    let v = verify_suite(&suite, &occ, &c);
    assert!(
        v.run.cache.hits > 0,
        "no cache hit was certified: {:?}",
        v.run.cache
    );
    assert!(v.compilations >= suite.region_count());
    assert!(!v.has_errors(), "{}", render(&v.findings));
    assert!(v.findings.is_empty(), "{}", render(&v.findings));
}
