//! The greedy list scheduler.

use crate::eval::{eta_terms, EtaTerms, Heuristic, HeuristicEval};
use machine_model::{OccupancyLut, OccupancyModel};
use reg_pressure::{PressureTracker, RegUniverse};
use sched_ir::{Cycle, Ddg, InstrId, Schedule, REG_CLASS_COUNT};

/// A schedule together with the quality metrics the pipeline compares.
#[derive(Debug, Clone)]
pub struct ScheduleResult {
    /// The timed schedule (with stalls on a single-issue machine).
    pub schedule: Schedule,
    /// Issue order (instructions sorted by cycle).
    pub order: Vec<InstrId>,
    /// Peak register pressure per class.
    pub prp: [u32; REG_CLASS_COUNT],
    /// Occupancy implied by the PRP.
    pub occupancy: u32,
    /// Schedule length in cycles.
    pub length: Cycle,
}

/// Evaluates an instruction order: builds the earliest-issue timed schedule
/// and computes PRP/occupancy/length.
pub fn evaluate_order(ddg: &Ddg, order: &[InstrId], occ: &OccupancyModel) -> ScheduleResult {
    let schedule = Schedule::from_order(ddg, order);
    let prp = reg_pressure::prp_of_order(ddg, order);
    ScheduleResult {
        length: schedule.length(),
        occupancy: occ.occupancy(prp),
        prp,
        order: order.to_vec(),
        schedule,
    }
}

/// A greedy list scheduler driven by one [`Heuristic`].
///
/// Reads only the region's per-instruction η terms ([`eta_terms`]), not the
/// colony's [`RegionAnalysis`](crate::RegionAnalysis). With
/// [`Heuristic::AmdMaxOccupancy`] it is the paper's production baseline and
/// the ACO colony's initial schedule, which the pipeline keeps as an ACO
/// region's baseline.
///
/// # Example
///
/// ```
/// use list_sched::{Heuristic, ListScheduler};
/// use machine_model::OccupancyModel;
/// use sched_ir::figure1;
///
/// let ddg = figure1::ddg();
/// let occ = OccupancyModel::vega_like();
/// let result = ListScheduler::new(Heuristic::CriticalPath).schedule(&ddg, &occ);
/// result.schedule.validate(&ddg).unwrap();
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ListScheduler {
    heuristic: Heuristic,
}

impl ListScheduler {
    /// Creates a list scheduler using the given heuristic.
    pub fn new(heuristic: Heuristic) -> ListScheduler {
        ListScheduler { heuristic }
    }

    /// The heuristic driving this scheduler.
    pub fn heuristic(&self) -> Heuristic {
        self.heuristic
    }

    /// Builds a latency-free instruction *order* greedily (pass-1 style:
    /// the machine is treated as stall-free, only precedence matters).
    pub fn order(&self, ddg: &Ddg, occ: &OccupancyModel) -> Vec<InstrId> {
        let universe = RegUniverse::new(ddg);
        self.order_in(ddg, &OccupancyLut::new(occ), &eta_terms(ddg), &universe)
    }

    /// Like [`Self::order`] but reusing the region's η terms
    /// ([`eta_terms`]), register universe and occupancy table.
    pub fn order_in(
        &self,
        ddg: &Ddg,
        lut: &OccupancyLut,
        terms: &[EtaTerms],
        universe: &RegUniverse,
    ) -> Vec<InstrId> {
        let mut pressure = PressureTracker::new(universe);
        let mut pending_preds: Vec<u32> = ddg.pred_counts().to_vec();
        let mut ready: Vec<InstrId> = ddg.roots().collect();
        let mut order = Vec::with_capacity(ddg.len());
        loop {
            let eval = HeuristicEval::new(self.heuristic, terms, lut, &pressure);
            let Some(pos) = argmax_by(&ready, |&id| eval.eta(id)) else {
                break;
            };
            let id = ready.swap_remove(pos);
            pressure.issue(id);
            order.push(id);
            for &(s, _) in ddg.succs(id) {
                pending_preds[s.index()] -= 1;
                if pending_preds[s.index()] == 0 {
                    ready.push(s);
                }
            }
        }
        debug_assert_eq!(order.len(), ddg.len());
        order
    }

    /// Builds a timed, latency-aware schedule greedily: at each cycle, pick
    /// the best *issuable* candidate; if none is issuable, stall to the next
    /// ready cycle.
    pub fn schedule(&self, ddg: &Ddg, occ: &OccupancyModel) -> ScheduleResult {
        let universe = RegUniverse::new(ddg);
        self.schedule_in(ddg, &OccupancyLut::new(occ), &eta_terms(ddg), &universe)
    }

    /// Like [`Self::schedule`] but reusing the region's η terms
    /// ([`eta_terms`]), register universe and occupancy table — the form
    /// schedulers that already built them call.
    pub fn schedule_in(
        &self,
        ddg: &Ddg,
        lut: &OccupancyLut,
        terms: &[EtaTerms],
        universe: &RegUniverse,
    ) -> ScheduleResult {
        let mut pressure = PressureTracker::new(universe);
        let n = ddg.len();
        let mut pending_preds: Vec<u32> = ddg.pred_counts().to_vec();
        // (instruction, cycle at which its operands are available)
        let mut ready: Vec<(InstrId, Cycle)> = ddg.roots().map(|i| (i, 0)).collect();
        let mut cycles = vec![0 as Cycle; n];
        let mut order = Vec::with_capacity(n);
        let mut now: Cycle = 0;
        while !ready.is_empty() {
            let mut best: Option<(usize, f64)> = None;
            let eval = HeuristicEval::new(self.heuristic, terms, lut, &pressure);
            for (i, &(id, rc)) in ready.iter().enumerate() {
                if rc <= now {
                    let v = eval.eta(id);
                    if best.is_none_or(|(_, b)| v > b) {
                        best = Some((i, v));
                    }
                }
            }
            match best.map(|(i, _)| i) {
                Some(pos) => {
                    let (id, _) = ready.swap_remove(pos);
                    cycles[id.index()] = now;
                    pressure.issue(id);
                    order.push(id);
                    for &(s, lat) in ddg.succs(id) {
                        // Operands are available once every producer's
                        // latency has elapsed: an unissued instruction's
                        // cycle holds the latest arrival posted so far.
                        let arrival = &mut cycles[s.index()];
                        *arrival = (*arrival).max(now + lat as Cycle);
                        pending_preds[s.index()] -= 1;
                        if pending_preds[s.index()] == 0 {
                            ready.push((s, *arrival));
                        }
                    }
                    now += 1;
                }
                None => {
                    // Necessary stall: jump to the next availability.
                    now = ready
                        .iter()
                        .map(|&(_, rc)| rc)
                        .min()
                        .expect("ready is non-empty");
                }
            }
        }
        debug_assert_eq!(order.len(), n);
        let schedule = Schedule::from_cycles(cycles);
        let prp = pressure.peak();
        ScheduleResult {
            length: schedule.length(),
            occupancy: lut.occupancy(prp),
            prp,
            order,
            schedule,
        }
    }
}

/// Index of the maximum of `f` over `items` (first wins ties); `None` when
/// empty.
fn argmax_by<T>(items: &[T], mut f: impl FnMut(&T) -> f64) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, item) in items.iter().enumerate() {
        let v = f(item);
        if best.is_none_or(|(_, b)| v > b) {
            best = Some((i, v));
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_ir::figure1;

    #[test]
    fn all_heuristics_produce_valid_schedules() {
        let ddg = figure1::ddg();
        let occ = OccupancyModel::vega_like();
        for h in Heuristic::ALL {
            let r = ListScheduler::new(h).schedule(&ddg, &occ);
            r.schedule
                .validate(&ddg)
                .unwrap_or_else(|e| panic!("{h:?}: {e}"));
            assert_eq!(r.order.len(), ddg.len());
            assert!(r.length >= ddg.schedule_length_lb());
        }
    }

    #[test]
    fn order_is_a_topological_permutation() {
        let ddg = figure1::ddg();
        let occ = OccupancyModel::vega_like();
        for h in Heuristic::ALL {
            let order = ListScheduler::new(h).order(&ddg, &occ);
            let mut pos = vec![usize::MAX; ddg.len()];
            for (i, id) in order.iter().enumerate() {
                pos[id.index()] = i;
            }
            assert!(
                pos.iter().all(|&p| p != usize::MAX),
                "{h:?}: not a permutation"
            );
            for id in ddg.ids() {
                for &(s, _) in ddg.succs(id) {
                    assert!(
                        pos[id.index()] < pos[s.index()],
                        "{h:?}: precedence violated"
                    );
                }
            }
        }
    }

    #[test]
    fn luc_order_beats_cp_on_pressure_for_figure1() {
        let (ddg, _) = figure1::ddg_with_ids();
        let occ = OccupancyModel::vega_like();
        let luc = ListScheduler::new(Heuristic::LastUseCount).order(&ddg, &occ);
        let luc_prp = reg_pressure::prp_of_order(&ddg, &luc);
        // LUC should reach the optimal PRP of 3 on the Figure-1 region.
        assert_eq!(luc_prp[0], 3);
    }

    #[test]
    fn cp_schedule_reaches_unconstrained_optimum_on_figure1() {
        // The unconstrained optimum of the Figure-1 region is 8 cycles
        // (the LB of 7 is not achievable); CP should find it.
        let ddg = figure1::ddg();
        let occ = OccupancyModel::vega_like();
        let r = ListScheduler::new(Heuristic::CriticalPath).schedule(&ddg, &occ);
        assert_eq!(r.length, 8);
    }

    #[test]
    fn evaluate_order_matches_schedule_result() {
        let ddg = figure1::ddg();
        let occ = OccupancyModel::vega_like();
        let r = ListScheduler::new(Heuristic::CriticalPath).schedule(&ddg, &occ);
        let e = evaluate_order(&ddg, &r.order, &occ);
        assert_eq!(e.prp, r.prp);
        assert_eq!(e.occupancy, r.occupancy);
        // evaluate_order compacts to earliest cycles, so it can only be
        // shorter or equal.
        assert!(e.length <= r.length);
    }

    #[test]
    fn stalls_inserted_when_nothing_issuable() {
        use sched_ir::DdgBuilder;
        let mut b = DdgBuilder::new();
        let a = b.instr("a", [], []);
        let c = b.instr("b", [], []);
        b.edge(a, c, 10).unwrap();
        let g = b.build().unwrap();
        let occ = OccupancyModel::vega_like();
        let r = ListScheduler::new(Heuristic::CriticalPath).schedule(&g, &occ);
        assert_eq!(r.length, 11);
        assert_eq!(r.schedule.stalls(), 9);
    }
}
