//! Determinism regression: the simulated-GPU scheduler must return
//! identical results no matter how many idle host cores run its wavefronts,
//! and the suite compiler must return identical runs no matter how many
//! host threads its pool uses.
//!
//! Covers the Figure-1 region and three generated workloads with 0, 1 and
//! 7 lent cores, plus whole-suite compilations at 1, 2, and 8
//! `host_threads`. This is the regression guard for the
//! independent-wavefronts argument (`D001`) and the pure-jobs +
//! deterministic-merge suite compiler argument (`D003`) — any
//! thread-count-dependent reduction order, RNG stream split, or merge-order
//! slip shows up here.

use aco::{batch_block_split, AcoConfig, IdleCores, ParallelScheduler, LEND_MIN_INSTRS};
use machine_model::OccupancyModel;
use pipeline::{compile_suite_observed, PipelineConfig, SchedulerKind};
use sched_ir::{figure1, Ddg};
use sched_verify::{
    check_lending_determinism, check_parallel_repeatability, check_suite_thread_determinism, render,
};
use workloads::{Suite, SuiteConfig};

const LENT: &[usize] = &[0, 1, 7];

fn cfg(seed: u64) -> AcoConfig {
    let mut c = AcoConfig::small(seed);
    c.blocks = 8;
    c.pass2_gate_cycles = 1;
    c
}

fn workload_regions() -> Vec<(&'static str, Ddg)> {
    vec![
        ("figure1", figure1::ddg()),
        ("sized-40", workloads::patterns::sized(40, 7)),
        ("sized-80", workloads::patterns::sized(80, 11)),
        ("sized-120", workloads::patterns::sized(120, 13)),
    ]
}

#[test]
fn simulated_gpu_is_lent_core_count_invariant() {
    let occ = OccupancyModel::vega_like();
    for (name, ddg) in workload_regions() {
        let diags = check_lending_determinism(&ddg, &occ, &cfg(3), LENT);
        assert!(diags.is_empty(), "{name}:\n{}", render(&diags));
    }
}

#[test]
fn simulated_gpu_pass_stats_are_lent_core_count_invariant() {
    // Beyond the schedule itself, the search trajectory (iteration counts,
    // improvement flags, modeled pass times) must not depend on the lent
    // cores either.
    let occ = OccupancyModel::vega_like();
    let mut shared_any = false;
    for (name, ddg) in workload_regions() {
        let results: Vec<_> = LENT
            .iter()
            .map(|&cores| {
                let idle = IdleCores::new(cores);
                let r = idle.enter(|| ParallelScheduler::new(cfg(3)).schedule(&ddg, &occ));
                let shared = idle.shared_iterations() > 0;
                assert!(
                    !shared || (cores > 0 && ddg.len() >= LEND_MIN_INSTRS),
                    "{name}: {cores} lent cores must not be borrowed"
                );
                shared_any |= shared;
                r.result
            })
            .collect();
        for (r, &cores) in results.iter().zip(LENT).skip(1) {
            let a = &results[0];
            for (x, y, pass) in [(&r.pass1, &a.pass1, 1), (&r.pass2, &a.pass2, 2)] {
                assert_eq!(
                    (x.iterations, x.improved, x.hit_lb, x.best_cost),
                    (y.iterations, y.improved, y.hit_lb, y.best_cost),
                    "{name}: pass-{pass} trajectory differs with {cores} lent cores"
                );
                assert_eq!(x.time_us.to_bits(), y.time_us.to_bits());
            }
        }
    }
    assert!(shared_any, "some region must have borrowed a core");
}

#[test]
fn batched_launch_equals_solo_split_colony_runs() {
    // The cooperative multi-region launch only changes the cost model:
    // each region's constructed schedule must be bitwise-identical to a
    // solo run whose colony holds exactly that region's block share. A
    // non-divisible block count exercises the remainder distribution.
    let occ = OccupancyModel::vega_like();
    let regions = workload_regions();
    let ddgs: Vec<&Ddg> = regions.iter().map(|(_, d)| d).collect();
    let mut batch_cfg = cfg(3);
    batch_cfg.blocks = 10; // 4 regions -> split [3, 3, 2, 2]
    let batch = ParallelScheduler::new(batch_cfg).schedule_batch(&ddgs, &occ);
    let split = batch_block_split(batch_cfg.blocks, ddgs.len() as u32);
    for (pos, (name, ddg)) in regions.iter().enumerate() {
        let mut solo_cfg = batch_cfg;
        solo_cfg.blocks = split[pos];
        let solo = ParallelScheduler::new(solo_cfg).schedule(ddg, &occ);
        let (b, s) = (&batch.outcomes[pos].result, &solo.result);
        assert_eq!(b.order, s.order, "{name}: order drifted");
        assert_eq!(b.schedule, s.schedule, "{name}: schedule drifted");
        assert_eq!(b.prp, s.prp, "{name}: pressure drifted");
        assert_eq!(b.length, s.length, "{name}: length drifted");
        assert_eq!(b.occupancy, s.occupancy, "{name}: occupancy drifted");
        assert_eq!(
            (
                b.pass1.iterations,
                b.pass1.best_cost,
                b.pass2.iterations,
                b.pass2.best_cost
            ),
            (
                s.pass1.iterations,
                s.pass1.best_cost,
                s.pass2.iterations,
                s.pass2.best_cost
            ),
            "{name}: search trajectory drifted"
        );
    }
}

#[test]
fn simulated_gpu_scheduler_is_run_repeatable() {
    let occ = OccupancyModel::vega_like();
    for (name, ddg) in workload_regions() {
        let diags = check_parallel_repeatability(&ddg, &occ, &cfg(5), 2);
        assert!(diags.is_empty(), "{name}:\n{}", render(&diags));
    }
}

fn suite_cfg(kind: SchedulerKind) -> PipelineConfig {
    let mut c = PipelineConfig::paper(kind, 0);
    c.aco.blocks = 4;
    c.aco.pass2_gate_cycles = 1;
    c
}

#[test]
fn suite_compilation_is_host_thread_invariant() {
    let suite = Suite::generate(&SuiteConfig::scaled(5, 0.008));
    let occ = OccupancyModel::vega_like();
    for kind in [
        SchedulerKind::BaseAmd,
        SchedulerKind::ParallelAco,
        SchedulerKind::BatchedParallelAco,
    ] {
        let diags = check_suite_thread_determinism(&suite, &occ, &suite_cfg(kind), &[1, 8]);
        assert!(diags.is_empty(), "{kind:?}:\n{}", render(&diags));
    }
}

#[test]
fn suite_observer_stream_is_host_thread_invariant() {
    // Stronger than the run fingerprint: the *observer callback sequence* —
    // which region, under which effective configuration, with which
    // outcome, in which order — must replay identically at any thread
    // count, or sched-verify's certification hook would see different
    // events depending on the host machine.
    let suite = Suite::generate(&SuiteConfig::scaled(5, 0.008));
    let occ = OccupancyModel::vega_like();
    for kind in [
        SchedulerKind::ParallelAco,
        SchedulerKind::BatchedParallelAco,
    ] {
        let capture = |threads: usize| {
            let mut events = Vec::new();
            let cfg = suite_cfg(kind).with_host_threads(threads);
            compile_suite_observed(&suite, &occ, &cfg, |k, ri, ddg, rcfg, c| {
                events.push((
                    k,
                    ri,
                    ddg.len(),
                    rcfg.aco.blocks,
                    rcfg.aco.occupancy_cap,
                    c.occupancy,
                    c.length,
                    c.sched_time_us.to_bits(),
                    c.aco.as_ref().map(|a| a.order.clone()),
                ));
            });
            events
        };
        let reference = capture(1);
        assert!(!reference.is_empty());
        for threads in [2usize, 8] {
            assert_eq!(
                reference,
                capture(threads),
                "{kind:?}: observer stream differs at {threads} host threads"
            );
        }
    }
}
