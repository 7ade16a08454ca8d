//! Determinism checks for the parallel schedulers.
//!
//! Lending idle host cores to an ACO iteration rests on the claim that
//! splitting its wavefronts across threads changes *nothing* about the
//! result — wavefronts are independent within an iteration and the winner
//! reduction is a minimum over a deterministic total order. This module
//! tests that claim directly: the same region scheduled with several
//! numbers of lent cores (and the simulated-GPU scheduler run repeatedly)
//! must produce bitwise identical results.

use crate::diag::codes;
use crate::fingerprint::suite_fingerprint;
use aco::{AcoConfig, AcoResult, IdleCores, ParallelScheduler};
use machine_model::OccupancyModel;
use pipeline::{compile_suite, PipelineConfig};
use sched_analyze::{Anchor, Finding, Level};
use sched_ir::{Ddg, REG_CLASS_COUNT};
use workloads::Suite;

/// The parts of an [`AcoResult`] that must be reproducible. Timing and op
/// counts are cost-model outputs and may legitimately differ with the
/// thread count; everything the *search* decides may not.
fn fingerprint(r: &AcoResult) -> (Vec<u32>, Vec<u32>, [u32; REG_CLASS_COUNT], u32, u32) {
    (
        r.schedule.cycles().to_vec(),
        r.order.iter().map(|id| id.0).collect(),
        r.prp,
        r.occupancy,
        r.length,
    )
}

fn describe(r: &AcoResult) -> String {
    format!(
        "prp {:?}, occupancy {}, length {}, order {:?}",
        r.prp,
        r.occupancy,
        r.length,
        &r.order[..r.order.len().min(8)]
    )
}

/// Schedules `ddg` with [`ParallelScheduler`] with every number of idle
/// cores in `lent` lent to it (an [`IdleCores`] ledger entered around the
/// call) and reports a `D001` error for each count whose result or GPU
/// statistics deviate from the first.
pub fn check_lending_determinism(
    ddg: &Ddg,
    occ: &OccupancyModel,
    cfg: &AcoConfig,
    lent: &[usize],
) -> Vec<Finding> {
    let mut diags = Vec::new();
    let Some((&first, rest)) = lent.split_first() else {
        return diags;
    };
    let run =
        |cores| IdleCores::new(cores).enter(|| ParallelScheduler::new(*cfg).schedule(ddg, occ));
    let reference = run(first);
    let ref_fp = fingerprint(&reference.result);
    for &cores in rest {
        let out = run(cores);
        if fingerprint(&out.result) != ref_fp || out.gpu != reference.gpu {
            diags.push(Finding::new(
                codes::THREAD_NONDETERMINISM,
                Level::Deny,
                Anchor::Region,
                format!(
                    "simulated-GPU result differs between {first} and {cores} \
                     lent cores: [{}, {:.3} us] vs [{}, {:.3} us]",
                    describe(&reference.result),
                    reference.gpu.total_us(),
                    describe(&out.result),
                    out.gpu.total_us()
                ),
            ));
        }
    }
    diags
}

/// Compiles `suite` at every `host_threads` value in `threads` and reports
/// a `D003` error for each value whose [`pipeline::SuiteRun`] fingerprint
/// deviates from the first.
///
/// This is the suite-level analogue of [`check_lending_determinism`]: the
/// pipeline's host worker pool must be a pure wall-clock knob, so the full
/// run — every region record, kernel occupancy, modeled time and
/// throughput — is hashed, not just the schedules.
pub fn check_suite_thread_determinism(
    suite: &Suite,
    occ: &OccupancyModel,
    cfg: &PipelineConfig,
    threads: &[usize],
) -> Vec<Finding> {
    let mut diags = Vec::new();
    let Some((&first, rest)) = threads.split_first() else {
        return diags;
    };
    let reference = compile_suite(suite, occ, &cfg.with_host_threads(first));
    let ref_fp = suite_fingerprint(&reference);
    for &t in rest {
        let run = compile_suite(suite, occ, &cfg.with_host_threads(t));
        let fp = suite_fingerprint(&run);
        if fp != ref_fp {
            diags.push(Finding::new(
                codes::SUITE_THREAD_NONDETERMINISM,
                Level::Deny,
                Anchor::Region,
                format!(
                    "suite compilation ({:?}) differs between {first} and {t} \
                     host threads: fingerprint {ref_fp:#018x} vs {fp:#018x} \
                     (total length {} vs {}, total occupancy {} vs {})",
                    cfg.scheduler,
                    reference.total_length(),
                    run.total_length(),
                    reference.total_occupancy(),
                    run.total_occupancy(),
                ),
            ));
        }
    }
    diags
}

/// Compiles `suite` with the schedule cache off (the reference) and on,
/// at every `host_threads` value in `threads`, and reports a `D004` error
/// for each cache-on run whose [`pipeline::SuiteRun`] fingerprint deviates
/// from the cache-off reference at the same thread count.
///
/// This is the cache-transparency contract: content-addressed memoization
/// must be a pure wall-clock optimization. Every adopted hit passed an
/// exact content/config equality check plus re-certification, so the whole
/// run — every region record, kernel occupancy, modeled time, throughput —
/// must be byte-identical. (The [`pipeline::CacheStats`] counters are
/// interleaving-dependent and deliberately excluded from the suite
/// fingerprint; see `fingerprint.rs`.)
pub fn check_cache_transparency(
    suite: &Suite,
    occ: &OccupancyModel,
    cfg: &PipelineConfig,
    threads: &[usize],
) -> Vec<Finding> {
    let mut diags = Vec::new();
    for &t in threads {
        let tcfg = cfg.with_host_threads(t);
        let off = compile_suite(suite, occ, &tcfg.with_cache(false));
        let on = compile_suite(suite, occ, &tcfg.with_cache(true));
        let (off_fp, on_fp) = (suite_fingerprint(&off), suite_fingerprint(&on));
        if on_fp != off_fp {
            diags.push(Finding::new(
                codes::CACHE_NONTRANSPARENT,
                Level::Deny,
                Anchor::Region,
                format!(
                    "suite compilation ({:?}, {t} host threads) differs with \
                     the schedule cache on: fingerprint {on_fp:#018x} vs \
                     {off_fp:#018x} off (total length {} vs {}, total \
                     occupancy {} vs {}; cache activity: {} hits, {} misses, \
                     {} bypasses)",
                    cfg.scheduler,
                    on.total_length(),
                    off.total_length(),
                    on.total_occupancy(),
                    off.total_occupancy(),
                    on.cache.hits,
                    on.cache.misses,
                    on.cache.bypasses,
                ),
            ));
        }
    }
    diags
}

/// Runs the simulated-GPU [`ParallelScheduler`] `runs` times with one
/// configuration and reports a `D002` error for each run that deviates
/// from the first.
pub fn check_parallel_repeatability(
    ddg: &Ddg,
    occ: &OccupancyModel,
    cfg: &AcoConfig,
    runs: usize,
) -> Vec<Finding> {
    let mut diags = Vec::new();
    if runs < 2 {
        return diags;
    }
    let reference = ParallelScheduler::new(*cfg).schedule(ddg, occ).result;
    let ref_fp = fingerprint(&reference);
    for run in 1..runs {
        let r = ParallelScheduler::new(*cfg).schedule(ddg, occ).result;
        if fingerprint(&r) != ref_fp {
            diags.push(Finding::new(
                codes::RUN_NONDETERMINISM,
                Level::Deny,
                Anchor::Region,
                format!(
                    "simulated-GPU run {run} differs from run 0 with an \
                     identical configuration: [{}] vs [{}]",
                    describe(&reference),
                    describe(&r)
                ),
            ));
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_ir::figure1;

    fn small_cfg() -> AcoConfig {
        let mut c = AcoConfig::small(3);
        c.blocks = 8;
        c
    }

    #[test]
    fn a_lent_region_is_lent_core_count_invariant() {
        let ddg = workloads::patterns::sized(aco::LEND_MIN_INSTRS + 20, 13);
        let occ = OccupancyModel::vega_like();
        let diags = check_lending_determinism(&ddg, &occ, &small_cfg(), &[0, 1, 3]);
        assert!(diags.is_empty(), "{}", crate::diag::render(&diags));
    }

    #[test]
    fn figure1_is_run_repeatable() {
        let ddg = figure1::ddg();
        let occ = OccupancyModel::vega_like();
        let diags = check_parallel_repeatability(&ddg, &occ, &small_cfg(), 3);
        assert!(diags.is_empty(), "{}", crate::diag::render(&diags));
    }

    #[test]
    fn tiny_suite_is_host_thread_invariant() {
        use pipeline::SchedulerKind;
        use workloads::SuiteConfig;
        let suite = Suite::generate(&SuiteConfig::scaled(3, 0.004));
        let occ = OccupancyModel::vega_like();
        for kind in [
            SchedulerKind::ParallelAco,
            SchedulerKind::BatchedParallelAco,
        ] {
            let mut cfg = PipelineConfig::paper(kind, 0);
            cfg.aco.blocks = 4;
            cfg.aco.pass2_gate_cycles = 1;
            let diags = check_suite_thread_determinism(&suite, &occ, &cfg, &[1, 2, 5]);
            assert!(diags.is_empty(), "{}", crate::diag::render(&diags));
        }
    }

    #[test]
    fn tiny_duplicate_heavy_suite_is_cache_transparent() {
        use pipeline::SchedulerKind;
        use workloads::SuiteConfig;
        let suite = Suite::generate(&SuiteConfig::duplicate_heavy(3, 0.004));
        let occ = OccupancyModel::vega_like();
        let mut cfg = PipelineConfig::paper(SchedulerKind::ParallelAco, 0);
        cfg.aco.blocks = 4;
        cfg.aco.pass2_gate_cycles = 1;
        let diags = check_cache_transparency(&suite, &occ, &cfg, &[1, 2]);
        assert!(diags.is_empty(), "{}", crate::diag::render(&diags));
        // The check is meaningful only if the cache actually fired.
        let run = compile_suite(&suite, &occ, &cfg.with_cache(true));
        assert!(run.cache.hits > 0, "duplicate-heavy suite must hit");
    }
}
