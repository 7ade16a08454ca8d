//! Result types shared by the sequential and parallel schedulers.

use list_sched::ScheduleResult;
use machine_model::OccupancyModel;
use sched_ir::{Cycle, Ddg, InstrId, Schedule, REG_CLASS_COUNT};

/// Statistics of one ACO pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PassStats {
    /// Iterations executed (0 when the pass was skipped because the input
    /// already matched the lower bound).
    pub iterations: u32,
    /// Whether the pass improved on its input.
    pub improved: bool,
    /// Whether the pass terminated by reaching the lower bound (provably
    /// optimal objective).
    pub hit_lb: bool,
    /// Best objective value at pass end (APRP cost for pass 1, schedule
    /// length for pass 2).
    pub best_cost: u64,
    /// Modeled scheduling time of this pass, microseconds (CPU model for
    /// the sequential scheduler, GPU launch profile for the parallel one).
    pub time_us: f64,
    /// Whether the pass was skipped by the cycle-threshold gate
    /// ([`crate::AcoConfig::pass2_gate_cycles`]) rather than by hitting the
    /// lower bound.
    pub gated: bool,
}

/// The outcome of a two-pass ACO scheduling run.
#[derive(Debug, Clone)]
pub struct AcoResult {
    /// Best schedule found (falls back to the initial heuristic schedule's
    /// order when ACO found no improvement).
    pub schedule: Schedule,
    /// Issue order of [`Self::schedule`].
    pub order: Vec<InstrId>,
    /// Peak register pressure per class.
    pub prp: [u32; REG_CLASS_COUNT],
    /// Occupancy implied by the PRP.
    pub occupancy: u32,
    /// Schedule length in cycles.
    pub length: Cycle,
    /// The initial heuristic schedule ACO started from (the comparison
    /// baseline for the pipeline's filters).
    pub initial: ScheduleResult,
    /// Pass-1 (register pressure) statistics.
    pub pass1: PassStats,
    /// Pass-2 (schedule length) statistics.
    pub pass2: PassStats,
    /// Total abstract operations executed by the scheduler.
    pub ops: u64,
    /// Modeled scheduling time in microseconds (CPU model for the
    /// sequential scheduler, GPU launch profile total for the parallel
    /// one).
    pub time_us: f64,
}

impl AcoResult {
    /// A result for a region too small for ACO: the heuristic schedule is
    /// final.
    pub fn trivial(
        _ddg: &Ddg,
        occ: &OccupancyModel,
        initial: ScheduleResult,
        time_us: f64,
    ) -> AcoResult {
        AcoResult {
            schedule: initial.schedule.clone(),
            order: initial.order.clone(),
            prp: initial.prp,
            occupancy: occ.occupancy(initial.prp),
            length: initial.length,
            initial,
            pass1: PassStats {
                hit_lb: true,
                ..PassStats::default()
            },
            pass2: PassStats {
                hit_lb: true,
                ..PassStats::default()
            },
            ops: 0,
            time_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use list_sched::{Heuristic, ListScheduler};
    use sched_ir::figure1;

    #[test]
    fn trivial_result_mirrors_initial() {
        let ddg = figure1::ddg();
        let occ = OccupancyModel::vega_like();
        let initial = ListScheduler::new(Heuristic::AmdMaxOccupancy).schedule(&ddg, &occ);
        let r = AcoResult::trivial(&ddg, &occ, initial.clone(), 1.0);
        assert_eq!(r.length, initial.length);
        assert_eq!(r.prp, initial.prp);
        assert_eq!(r.occupancy, initial.occupancy);
        assert!(r.pass1.hit_lb && r.pass2.hit_lb);
    }
}
