//! End-to-end certification: every schedule produced by every scheduler
//! in the stack, on a generated workload suite, certifies with zero
//! diagnostics.
//!
//! This is the acceptance gate for the verification layer: list
//! scheduling, sequential ACO, GPU-parallel ACO (through the pipeline,
//! including its occupancy-capped re-schedules, and with idle cores lent to
//! it), and the exact branch-and-bound all have their claims re-derived
//! from first principles. An ACO region's baseline is the colony's own
//! initial schedule, the list scheduler's on the same region.

use aco::{AcoConfig, IdleCores, ParallelScheduler, SequentialScheduler, LEND_MIN_INSTRS};
use exact_sched::{two_pass_optimum, BnbConfig};
use list_sched::{Heuristic, ListScheduler, ScheduleResult};
use machine_model::OccupancyModel;
use pipeline::{compile_suite_observed, plan_batches, PipelineConfig, SchedulerKind};
use sched_ir::Ddg;
use sched_verify::{certify_aco, certify_exact, certify_list, render, verify_suite};
use std::collections::HashMap;
use workloads::{Suite, SuiteConfig};

fn suite() -> Suite {
    Suite::generate(&SuiteConfig::scaled(9, 0.01))
}

fn pipeline_cfg(kind: SchedulerKind) -> PipelineConfig {
    let mut cfg = PipelineConfig::paper(kind, 0);
    cfg.aco.blocks = 4;
    cfg.aco.pass2_gate_cycles = 1;
    cfg
}

#[test]
fn list_sched_suite_certifies_clean() {
    let occ = OccupancyModel::vega_like();
    let v = verify_suite(&suite(), &occ, &pipeline_cfg(SchedulerKind::BaseAmd));
    assert!(v.findings.is_empty(), "{}", render(&v.findings));
    assert!(!v.has_errors());
    assert!(v.schedules >= v.compilations);
}

#[test]
fn critical_path_suite_certifies_clean() {
    let occ = OccupancyModel::vega_like();
    let v = verify_suite(&suite(), &occ, &pipeline_cfg(SchedulerKind::CriticalPath));
    assert!(v.findings.is_empty(), "{}", render(&v.findings));
}

#[test]
fn sequential_aco_suite_certifies_clean() {
    let occ = OccupancyModel::vega_like();
    let v = verify_suite(&suite(), &occ, &pipeline_cfg(SchedulerKind::SequentialAco));
    assert!(v.findings.is_empty(), "{}", render(&v.findings));
    assert!(v.schedules > v.compilations, "ACO must have run somewhere");
}

#[test]
fn parallel_aco_suite_certifies_clean() {
    let occ = OccupancyModel::vega_like();
    let v = verify_suite(&suite(), &occ, &pipeline_cfg(SchedulerKind::ParallelAco));
    assert!(v.findings.is_empty(), "{}", render(&v.findings));
    assert!(v.schedules > v.compilations, "ACO must have run somewhere");
}

#[test]
fn batched_parallel_aco_suite_certifies_clean() {
    // Batched mode routes every region through cooperative multi-region
    // launches; the observer hook still fires per region with the split
    // colony it ran under, so certification must stay exact.
    let occ = OccupancyModel::vega_like();
    let v = verify_suite(
        &suite(),
        &occ,
        &pipeline_cfg(SchedulerKind::BatchedParallelAco),
    );
    assert!(v.findings.is_empty(), "{}", render(&v.findings));
    assert!(!v.has_errors());
    assert!(v.schedules > v.compilations, "ACO must have run somewhere");
}

#[test]
fn schedules_built_on_lent_cores_certify_clean() {
    let occ = OccupancyModel::vega_like();
    let mut cfg = AcoConfig::small(2);
    cfg.blocks = 4;
    cfg.pass2_gate_cycles = 1;
    let idle = IdleCores::new(3);
    let suite = suite();
    let large = suite
        .regions()
        .filter(|(_, _, ddg)| ddg.len() >= LEND_MIN_INSTRS);
    for (k, _, ddg) in large.take(4) {
        let r = idle.enter(|| ParallelScheduler::new(cfg).schedule(ddg, &occ));
        let diags = certify_aco(ddg, &occ, &cfg, &r.result);
        assert!(diags.is_empty(), "kernel {k}:\n{}", render(&diags));
    }
    assert!(idle.shared_iterations() > 0, "no core was ever lent");
}

#[test]
fn exact_schedules_certify_clean_and_dominate_heuristics() {
    let occ = OccupancyModel::vega_like();
    let bnb = BnbConfig::default();
    for seed in 0..6u64 {
        let ddg = workloads::patterns::sized(12, seed);
        let exact = two_pass_optimum(&ddg, &occ, &bnb);
        let diags = certify_exact(&ddg, &occ, &exact);
        assert!(diags.is_empty(), "seed {seed}:\n{}", render(&diags));
        // The exact optimum's pressure cost is a floor for the heuristic's.
        let heur = ListScheduler::new(Heuristic::AmdMaxOccupancy).schedule(&ddg, &occ);
        let hdiags = certify_list(&ddg, &occ, &heur);
        assert!(hdiags.is_empty(), "seed {seed}:\n{}", render(&hdiags));
        if exact.proven_optimal {
            assert!(
                occ.rp_cost(exact.prp) <= occ.rp_cost(heur.prp),
                "seed {seed}: exact pass-1 optimum beaten by the heuristic"
            );
        }
    }
}

fn assert_same(a: &ScheduleResult, b: &ScheduleResult, what: &str) {
    assert_eq!(a.order, b.order, "{what}: order");
    assert_eq!(a.schedule, b.schedule, "{what}: schedule");
    assert_eq!(a.prp, b.prp, "{what}: prp");
    assert_eq!(a.occupancy, b.occupancy, "{what}: occupancy");
    assert_eq!(a.length, b.length, "{what}: length");
}

#[test]
fn aco_baselines_are_the_list_schedulers_amd_schedule() {
    let occ = OccupancyModel::vega_like();
    let suite = Suite::generate(&SuiteConfig::scaled(5, 0.008));
    // The η-only list scheduler is every colony's initial schedule, which
    // is fixed before the first iteration.
    let mut aco = pipeline_cfg(SchedulerKind::BatchedParallelAco);
    aco.aco.termination.max_iterations = 1;
    for (k, kernel) in suite.kernels.iter().enumerate() {
        let amd: Vec<ScheduleResult> = kernel
            .regions
            .iter()
            .map(|ddg| ListScheduler::new(Heuristic::AmdMaxOccupancy).schedule(ddg, &occ))
            .collect();
        for (r, ddg) in kernel.regions.iter().enumerate() {
            let what = format!("kernel {k} region {r}");
            let seq = SequentialScheduler::new(aco.aco).schedule(ddg, &occ);
            assert_same(&amd[r], &seq.initial, &format!("{what}, sequential"));
            let par = ParallelScheduler::new(aco.aco).schedule(ddg, &occ);
            assert_same(&amd[r], &par.result.initial, &format!("{what}, parallel"));
        }
        let sizes: Vec<usize> = kernel.regions.iter().map(Ddg::len).collect();
        for group in plan_batches(&sizes, aco.aco.blocks, &aco.batching) {
            let refs: Vec<&Ddg> = group.iter().map(|&r| &kernel.regions[r]).collect();
            let batch = ParallelScheduler::new(aco.aco).schedule_batch(&refs, &occ);
            for (&r, outcome) in group.iter().zip(&batch.outcomes) {
                let what = format!("kernel {k} region {r}, batched");
                assert_same(&amd[r], &outcome.result.initial, &what);
            }
        }
    }
    // Every ACO-kind compilation the pipeline reports, capped re-schedules
    // included, carries the BaseAmd compilation's heuristic as its own.
    let mut base = HashMap::new();
    let base_cfg = pipeline_cfg(SchedulerKind::BaseAmd);
    compile_suite_observed(&suite, &occ, &base_cfg, |k, r, _, _, c| {
        base.insert((k, r), c.heuristic.clone());
    });
    assert_eq!(base.len(), suite.region_count());
    for kind in [
        SchedulerKind::SequentialAco,
        SchedulerKind::ParallelAco,
        SchedulerKind::BatchedParallelAco,
    ] {
        let mut aco_runs = 0;
        compile_suite_observed(&suite, &occ, &pipeline_cfg(kind), |k, r, _, _, c| {
            let what = format!("{kind:?} kernel {k} region {r}");
            assert_same(&base[&(k, r)], &c.heuristic, &what);
            aco_runs += usize::from(c.aco.is_some());
        });
        assert!(aco_runs > 0, "{kind:?}: ACO must have run somewhere");
    }
}
