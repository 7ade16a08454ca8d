//! Golden bitwise-equality tests: the scheduler stack's results on fixed
//! seeds, pinned as FNV-1a fingerprints captured from the seed
//! implementation (before the scratch-buffer / deferred-materialization /
//! host-parallel-suite refactors).
//!
//! Any change to ant construction, the winner reduction, or the suite
//! compiler must keep every constant here bit-for-bit. Regenerate with
//! `cargo run --release --example golden_dump` — and if a constant moves,
//! the burden of proof is on the change: either it intentionally alters
//! the search (explain it in the commit and update the golden), or it is
//! a regression.
//!
//! Every schedule computed here is also put through `Schedule::validate`
//! and the `HashMap`-based body it had before (`tests/oracle/validate.rs`),
//! which must agree by value.

#[path = "oracle/validate.rs"]
mod validate_oracle;

use machine_model::OccupancyModel;
use pipeline::{compile_suite, compile_suite_observed, PipelineConfig, SchedulerKind};
use sched_ir::Fnv64;
use sched_verify::{aco_fingerprint, suite_fingerprint};
use workloads::{Suite, SuiteConfig};

use aco::{AcoConfig, ParallelScheduler, SequentialScheduler};

/// Captured from the seed implementation (commit ef7a1ae) via
/// `examples/golden_dump.rs`. The constants that fold pass-2 statistics
/// were captured again when the length bound became the one-machine
/// heads-and-tails bound: pass-2 iteration counts and modeled times moved,
/// schedules did not.
const SEQ_GOLDEN: &[(usize, u64, u64, u64)] = &[
    (40, 7, 3, 0x3f93_1651_838a_ada3),
    (80, 21, 9, 0x0943_f344_e143_39b2),
    (120, 13, 5, 0xbb9c_7931_fbe6_a777),
];

const PAR_GOLDEN: &[(usize, u64, u64, u64)] = &[
    (40, 7, 3, 0x2b43_207a_72cb_91a3),
    (80, 11, 3, 0xd3eb_90ef_57f5_0cc1),
    (120, 13, 5, 0x7f5b_f476_a922_14b7),
];

const BATCH_GOLDEN: u64 = 0x2246_4b3c_359a_b656;

const SUITE_GOLDEN: &[(SchedulerKind, u64)] = &[
    (SchedulerKind::BaseAmd, 0x17ab_1421_e1f4_ab35),
    (SchedulerKind::SequentialAco, 0x1c9e_acdf_d73e_4ee4),
    (SchedulerKind::ParallelAco, 0x3a98_329e_e7b6_c157),
    (SchedulerKind::BatchedParallelAco, 0xd666_0215_adc6_c011),
];

fn paper_cfg(seed: u64) -> AcoConfig {
    let mut cfg = AcoConfig::paper(seed);
    cfg.blocks = 8;
    cfg.pass2_gate_cycles = 1;
    cfg
}

#[test]
fn sequential_matches_seed_goldens() {
    let occ = OccupancyModel::vega_like();
    for &(size, rseed, cseed, want) in SEQ_GOLDEN {
        let ddg = workloads::patterns::sized(size, rseed);
        let r = SequentialScheduler::new(paper_cfg(cseed)).schedule(&ddg, &occ);
        validate_oracle::assert_same(&r.schedule, &ddg, "a sequential golden");
        assert_eq!(
            aco_fingerprint(&r),
            want,
            "sequential drifted on sized({size}, {rseed}) seed {cseed}"
        );
    }
}

#[test]
fn simulated_gpu_matches_seed_goldens() {
    let occ = OccupancyModel::vega_like();
    for &(size, rseed, cseed, want) in PAR_GOLDEN {
        let ddg = workloads::patterns::sized(size, rseed);
        let mut cfg = AcoConfig::small(cseed);
        cfg.blocks = 8;
        cfg.pass2_gate_cycles = 1;
        let r = ParallelScheduler::new(cfg).schedule(&ddg, &occ);
        validate_oracle::assert_same(&r.result.schedule, &ddg, "a simulated-GPU golden");
        assert_eq!(
            aco_fingerprint(&r.result),
            want,
            "simulated-GPU drifted on sized({size}, {rseed}) seed {cseed}"
        );
    }
}

#[test]
fn batched_launch_matches_seed_golden() {
    let occ = OccupancyModel::vega_like();
    let regions = [
        workloads::patterns::sized(40, 7),
        workloads::patterns::sized(80, 11),
        workloads::patterns::sized(120, 13),
    ];
    let refs: Vec<&sched_ir::Ddg> = regions.iter().collect();
    let mut cfg = AcoConfig::small(3);
    cfg.blocks = 10;
    cfg.pass2_gate_cycles = 1;
    let batch = ParallelScheduler::new(cfg).schedule_batch(&refs, &occ);
    let mut h = Fnv64::new();
    for (o, ddg) in batch.outcomes.iter().zip(&regions) {
        validate_oracle::assert_same(&o.result.schedule, ddg, "a batched golden");
        h.word(aco_fingerprint(&o.result));
    }
    assert_eq!(h.finish(), BATCH_GOLDEN, "batched launch drifted");
}

#[test]
fn suite_compilations_match_seed_goldens() {
    let occ = OccupancyModel::vega_like();
    let suite = Suite::generate(&SuiteConfig::scaled(5, 0.008));
    for &(kind, want) in SUITE_GOLDEN {
        let mut cfg = PipelineConfig::paper(kind, 0);
        cfg.aco.blocks = 4;
        cfg.aco.pass2_gate_cycles = 1;
        let run = compile_suite_observed(&suite, &occ, &cfg, |_, _, ddg, _, comp| {
            validate_oracle::assert_same(&comp.heuristic.schedule, ddg, "a suite heuristic");
            if let Some(aco) = &comp.aco {
                validate_oracle::assert_same(&aco.schedule, ddg, "a suite ACO schedule");
            }
        });
        assert_eq!(
            suite_fingerprint(&run),
            want,
            "suite compilation drifted under {kind:?}"
        );
    }
}

/// The host worker pool is a pure wall-clock knob: compiling on 1, 2 or 8
/// host threads must reproduce the seed implementation's (sequential)
/// suite fingerprints bit for bit, for every scheduler kind.
#[test]
fn suite_compilations_are_thread_count_invariant() {
    let occ = OccupancyModel::vega_like();
    let suite = Suite::generate(&SuiteConfig::scaled(5, 0.008));
    for &(kind, want) in SUITE_GOLDEN {
        for threads in [1usize, 2, 8] {
            let mut cfg = PipelineConfig::paper(kind, 0).with_host_threads(threads);
            cfg.aco.blocks = 4;
            cfg.aco.pass2_gate_cycles = 1;
            let run = compile_suite(&suite, &occ, &cfg);
            assert_eq!(
                suite_fingerprint(&run),
                want,
                "suite compilation drifted under {kind:?} at {threads} host threads"
            );
        }
    }
}

/// The schedule cache is equally pure: switching it **off** must reproduce
/// the same seed goldens (captured cache-on) at 1, 2 and 8 host threads,
/// for every scheduler kind — the full kinds x threads x cache matrix once
/// combined with the two tests above.
#[test]
fn suite_compilations_are_cache_invariant_at_any_thread_count() {
    let occ = OccupancyModel::vega_like();
    let suite = Suite::generate(&SuiteConfig::scaled(5, 0.008));
    for &(kind, want) in SUITE_GOLDEN {
        for threads in [1usize, 2, 8] {
            let mut cfg = PipelineConfig::paper(kind, 0)
                .with_host_threads(threads)
                .with_cache(false);
            cfg.aco.blocks = 4;
            cfg.aco.pass2_gate_cycles = 1;
            let run = compile_suite(&suite, &occ, &cfg);
            assert_eq!(
                suite_fingerprint(&run),
                want,
                "suite compilation drifted under {kind:?} at {threads} host threads, cache off"
            );
        }
    }
}
