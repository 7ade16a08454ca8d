//! Per-region compilation: heuristic → LB gate → ACO → filters.

use crate::config::{PipelineConfig, SchedulerKind};
use aco::{AcoResult, ParallelScheduler, SequentialScheduler};
use list_sched::{Heuristic, ListScheduler, ScheduleResult};
use machine_model::OccupancyModel;
use sched_ir::{Cycle, Ddg};

/// Which schedule the pipeline kept for a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinalChoice {
    /// The heuristic schedule (ACO not invoked, not better, or reverted by
    /// the post-scheduling filter).
    Heuristic,
    /// The ACO schedule.
    Aco,
}

/// Compilation outcome of one scheduling region.
#[derive(Debug, Clone)]
pub struct RegionCompilation {
    /// Region size (instructions).
    pub size: usize,
    /// The heuristic baseline schedule.
    pub heuristic: ScheduleResult,
    /// The ACO run, when one happened.
    pub aco: Option<AcoResult>,
    /// Which schedule was kept.
    pub choice: FinalChoice,
    /// Final occupancy.
    pub occupancy: u32,
    /// Final schedule length.
    pub length: Cycle,
    /// Whether ACO processed this region in pass 1 / pass 2.
    pub pass1_processed: bool,
    /// Whether ACO's pass 2 actually iterated (survived the gate).
    pub pass2_processed: bool,
    /// Modeled scheduling time, microseconds.
    pub sched_time_us: f64,
    /// Whether the post-scheduling filter reverted an ACO schedule.
    pub reverted: bool,
}

/// Compiles one region under the configured scheduler.
///
/// For the ACO schedulers this implements the full Section VI-A/VI-D flow:
/// the region is first scheduled with the AMD heuristic; if the heuristic
/// already matches the lower bounds ACO is skipped; otherwise ACO runs with
/// the pass-2 cycle-threshold gate, and the post-scheduling filter compares
/// the final ACO schedule against the heuristic one.
///
/// The heuristic runs once per region: `BaseAmd` and `CriticalPath` run the
/// list scheduler here, and an ACO kind keeps the colony's initial schedule
/// ([`AcoResult::initial`]) as its baseline.
pub fn compile_region(ddg: &Ddg, occ: &OccupancyModel, cfg: &PipelineConfig) -> RegionCompilation {
    // A batched-mode solo compilation (trivial regions the planner leaves
    // out, and the kernel post filter's occupancy-capped re-schedules) runs
    // the full-colony parallel scheduler, exactly like `ParallelAco`.
    let list_heuristic = match cfg.scheduler {
        SchedulerKind::BaseAmd => Heuristic::AmdMaxOccupancy,
        SchedulerKind::CriticalPath => Heuristic::CriticalPath,
        SchedulerKind::SequentialAco => {
            let aco = SequentialScheduler::new(cfg.aco).schedule(ddg, occ);
            return aco_compilation(ddg, aco, cfg);
        }
        SchedulerKind::ParallelAco | SchedulerKind::BatchedParallelAco => {
            let aco = ParallelScheduler::new(cfg.aco).schedule(ddg, occ);
            return aco_compilation(ddg, aco.result, cfg);
        }
    };
    let heuristic = ListScheduler::new(list_heuristic).schedule(ddg, occ);
    RegionCompilation {
        size: ddg.len(),
        occupancy: heuristic.occupancy,
        length: heuristic.length,
        pass1_processed: false,
        pass2_processed: false,
        sched_time_us: heuristic_model_time_us(ddg),
        reverted: false,
        choice: FinalChoice::Heuristic,
        aco: None,
        heuristic,
    }
}

/// Assembles the [`RegionCompilation`] of an ACO run, whose initial
/// schedule is the region's heuristic baseline: the Section VI-D
/// post-scheduling filter, the processing flags, and the time accounting.
/// Shared by the per-region flow above and the batched kernel flow
/// ([`crate::batch`]), which obtains its ACO results from cooperative
/// multi-region launches.
pub(crate) fn aco_compilation(
    ddg: &Ddg,
    aco: AcoResult,
    cfg: &PipelineConfig,
) -> RegionCompilation {
    let heuristic = aco.initial.clone();
    let pass1_processed = aco.pass1.iterations > 0;
    let pass2_processed = aco.pass2.iterations > 0;
    // Post-scheduling filter (Section VI-D): keep ACO unless it bought
    // little occupancy at a large length cost.
    let occ_gain = aco.occupancy as i64 - heuristic.occupancy as i64;
    let len_delta = aco.length as i64 - heuristic.length as i64;
    let keep_aco = if occ_gain < 0 {
        false
    } else if occ_gain == 0 {
        len_delta < 0
    } else if occ_gain <= cfg.revert_occupancy_gain as i64 {
        len_delta <= cfg.revert_length_penalty as i64
    } else {
        true
    };
    let aco_differs = aco.occupancy != heuristic.occupancy || aco.length != heuristic.length;
    let reverted = !keep_aco && aco_differs && (pass1_processed || pass2_processed);
    let (choice, occupancy, length) = if keep_aco {
        (FinalChoice::Aco, aco.occupancy, aco.length)
    } else {
        (
            FinalChoice::Heuristic,
            heuristic.occupancy,
            heuristic.length,
        )
    };
    // The colony ran the heuristic first (Section VI-A); its modeled cost
    // is charged as for a list-scheduled region.
    RegionCompilation {
        size: ddg.len(),
        occupancy,
        length,
        pass1_processed,
        pass2_processed,
        sched_time_us: heuristic_model_time_us(ddg) + aco.time_us,
        reverted,
        choice,
        aco: Some(aco),
        heuristic,
    }
}

/// Modeled cost of one heuristic list-scheduling run, microseconds
/// (linear-ish in region size; negligible next to ACO).
pub(crate) fn heuristic_model_time_us(ddg: &Ddg) -> f64 {
    0.5 + 0.02 * (ddg.len() + ddg.edge_count()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;

    fn cfg(kind: SchedulerKind) -> PipelineConfig {
        let mut c = PipelineConfig::paper(kind, 0);
        c.aco.blocks = 8;
        c
    }

    #[test]
    fn base_amd_never_runs_aco() {
        let ddg = workloads::patterns::sized(80, 1);
        let occ = OccupancyModel::vega_like();
        let r = compile_region(&ddg, &occ, &cfg(SchedulerKind::BaseAmd));
        assert!(r.aco.is_none());
        assert_eq!(r.choice, FinalChoice::Heuristic);
        assert!(!r.pass1_processed && !r.pass2_processed);
        assert!(r.sched_time_us < 100.0, "heuristic alone is cheap");
    }

    #[test]
    fn final_schedule_is_never_worse_than_heuristic() {
        let occ = OccupancyModel::vega_like();
        for seed in 0..8u64 {
            let ddg = workloads::patterns::sized(30 + 25 * (seed as usize % 4), seed);
            for kind in [SchedulerKind::SequentialAco, SchedulerKind::ParallelAco] {
                let r = compile_region(&ddg, &occ, &cfg(kind));
                assert!(
                    r.occupancy > r.heuristic.occupancy
                        || (r.occupancy == r.heuristic.occupancy && r.length <= r.heuristic.length),
                    "seed {seed} {kind:?}: kept schedule worse than heuristic \
                     (occ {} vs {}, len {} vs {})",
                    r.occupancy,
                    r.heuristic.occupancy,
                    r.length,
                    r.heuristic.length
                );
            }
        }
    }

    #[test]
    fn aco_flow_reports_processing_flags() {
        let occ = OccupancyModel::vega_like();
        let mut any_p1 = false;
        let mut any_p2 = false;
        for seed in 0..10u64 {
            let ddg = workloads::patterns::sized(100, 40 + seed);
            let mut c = cfg(SchedulerKind::ParallelAco);
            c.aco.pass2_gate_cycles = 1;
            let r = compile_region(&ddg, &occ, &c);
            any_p1 |= r.pass1_processed;
            any_p2 |= r.pass2_processed;
        }
        assert!(any_p1, "some regions must be processed by pass 1");
        assert!(any_p2, "some regions must be processed by pass 2");
    }

    #[test]
    fn cycle_threshold_gates_pass2() {
        let occ = OccupancyModel::vega_like();
        // With an absurd threshold, pass 2 never runs.
        let mut c = cfg(SchedulerKind::ParallelAco);
        c.aco.pass2_gate_cycles = 100_000;
        for seed in 0..5u64 {
            let ddg = workloads::patterns::sized(90, seed);
            let r = compile_region(&ddg, &occ, &c);
            assert!(!r.pass2_processed, "seed {seed}: pass 2 must be gated out");
        }
    }

    #[test]
    fn critical_path_kind_uses_cp_heuristic() {
        let ddg = workloads::patterns::sized(60, 2);
        let occ = OccupancyModel::vega_like();
        let cp = compile_region(&ddg, &occ, &cfg(SchedulerKind::CriticalPath));
        let amd = compile_region(&ddg, &occ, &cfg(SchedulerKind::BaseAmd));
        assert!(cp.aco.is_none());
        // CP minimizes length aggressively; AMD protects occupancy.
        assert!(cp.length <= amd.length || cp.occupancy <= amd.occupancy);
    }
}
