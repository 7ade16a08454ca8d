//! Candidate-scoring heuristics shared by the list schedulers and ACO.

use machine_model::OccupancyLut;
use reg_pressure::PressureTracker;
use sched_ir::{Cycle, Ddg, InstrId, RegionFacts, REG_CLASS_COUNT};

/// The per-region facts the ACO colony reads.
///
/// Built once per colony run (`aco::colony::with_context`); the list
/// scheduler reads no bound and builds only the η terms, with [`eta_terms`]
/// over [`Ddg::distance_to_leaf`].
#[derive(Debug, Clone)]
pub struct RegionAnalysis {
    /// Tails, critical path and length lower bound, derived once.
    pub facts: RegionFacts,
    /// The terms of η that depend on the instruction alone, per
    /// instruction ([`eta_terms`] of the facts' tails).
    pub eta_terms: Vec<EtaTerms>,
    /// Tight ready-list size upper bound (Section V-A), read by the
    /// simulated GPU's launch-setup cost model.
    pub ready_list_ub: usize,
}

/// The static terms of [`HeuristicEval`]'s η for one instruction, each the
/// very subexpression η used to evaluate per candidate, so reading it
/// instead yields the same `f64` bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EtaTerms {
    /// `1 + dist`: the whole [`Heuristic::CriticalPath`] η.
    pub critical_path: f64,
    /// `dist / (n + 1)`: [`Heuristic::LastUseCount`]'s tie-break.
    pub luc_tiebreak: f64,
    /// `dist / (critical_path + 1)`: [`Heuristic::AmdMaxOccupancy`]'s
    /// tie-break.
    pub amd_tiebreak: f64,
}

/// The η terms of every instruction of a region, from its latency-weighted
/// distances to a leaf ([`Ddg::distance_to_leaf`], one per instruction).
pub fn eta_terms(tails: &[Cycle]) -> Vec<EtaTerms> {
    let critical_path = tails.iter().copied().max().unwrap_or(0) as f64;
    let n = tails.len() as f64;
    tails
        .iter()
        .map(|&dist| {
            let dist = dist as f64;
            EtaTerms {
                critical_path: 1.0 + dist,
                luc_tiebreak: dist / (n + 1.0),
                amd_tiebreak: dist / (critical_path + 1.0),
            }
        })
        .collect()
}

impl RegionAnalysis {
    /// Runs the analyses on a region.
    pub fn new(ddg: &Ddg) -> RegionAnalysis {
        let facts = RegionFacts::new(ddg);
        RegionAnalysis {
            eta_terms: eta_terms(&facts.tails),
            facts,
            ready_list_ub: ddg.transitive_closure().ready_list_ub(),
        }
    }
}

/// A guiding heuristic identity.
///
/// `Heuristic` is deliberately a plain enum (not a trait object): the GPU
/// implementation assigns *different heuristics to different wavefront
/// groups* (Section V-B) by storing one of these per wavefront, which must
/// be a `Copy` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Heuristic {
    /// Longest latency-weighted path to a leaf first.
    CriticalPath,
    /// Most live ranges closed first (register-pressure reduction).
    LastUseCount,
    /// AMD-production-like: protect occupancy, then critical path.
    AmdMaxOccupancy,
}

impl Heuristic {
    /// All heuristics, in the order used for wavefront-group assignment.
    pub const ALL: [Heuristic; 3] = [
        Heuristic::CriticalPath,
        Heuristic::LastUseCount,
        Heuristic::AmdMaxOccupancy,
    ];
}

/// Evaluates the candidates of one selection: one heuristic, one region,
/// one pressure state. Whatever that state fixes for every candidate is
/// computed here, once.
#[derive(Debug, Clone, Copy)]
pub struct HeuristicEval<'a> {
    heuristic: Heuristic,
    terms: &'a [EtaTerms],
    occupancy: &'a OccupancyLut,
    pressure: &'a PressureTracker<'a>,
    /// `n + 1`, the scale separating η's priority tiers.
    n1: f64,
    /// Weight of `AmdMaxOccupancy`'s occupancy tier, above every rank.
    span: f64,
    /// Occupancy of the peak so far (read by `AmdMaxOccupancy` only).
    occ_now: u32,
}

impl<'a> HeuristicEval<'a> {
    /// Creates an evaluator for `heuristic` over a region's per-instruction
    /// η terms ([`eta_terms`]) at the pressure state `pressure`.
    ///
    /// Takes the region's [`OccupancyLut`] rather than the model itself:
    /// the table lookup avoids the model's division-heavy occupancy
    /// banding.
    pub fn new(
        heuristic: Heuristic,
        terms: &'a [EtaTerms],
        occupancy: &'a OccupancyLut,
        pressure: &'a PressureTracker<'a>,
    ) -> HeuristicEval<'a> {
        let n = terms.len() as f64;
        HeuristicEval {
            heuristic,
            terms,
            occupancy,
            pressure,
            n1: n + 1.0,
            span: (n + 1.0) * 40.0,
            occ_now: match heuristic {
                Heuristic::AmdMaxOccupancy => occupancy.occupancy(pressure.peak()),
                Heuristic::CriticalPath | Heuristic::LastUseCount => 0,
            },
        }
    }

    /// The heuristic identity being evaluated.
    pub fn heuristic(&self) -> Heuristic {
        self.heuristic
    }

    /// Desirability η of scheduling `id` next, given current pressure.
    /// Strictly positive; larger is more desirable.
    ///
    /// η is consumed two ways: the greedy list scheduler picks the argmax;
    /// ACO raises it to the power β and multiplies by pheromone.
    #[inline]
    pub fn eta(&self, id: InstrId) -> f64 {
        self.eta_with(id, || self.pressure.net_change(id))
    }

    /// [`HeuristicEval::eta`] for a caller that already holds `id`'s net
    /// pressure change at this state ([`PressureTracker::net_change`]),
    /// so it is not looked up twice. Bitwise the same value.
    #[inline]
    pub fn eta_given_net_change(&self, id: InstrId, delta: [i32; REG_CLASS_COUNT]) -> f64 {
        self.eta_with(id, || delta)
    }

    #[inline]
    fn eta_with(&self, id: InstrId, net_change: impl FnOnce() -> [i32; REG_CLASS_COUNT]) -> f64 {
        let terms = &self.terms[id.index()];
        match self.heuristic {
            Heuristic::CriticalPath => terms.critical_path,
            Heuristic::LastUseCount => {
                // Kills dominate; CP distance breaks ties smoothly.
                let kills = self.pressure.kills(id) as f64;
                1.0 + kills * self.n1 + terms.luc_tiebreak
            }
            Heuristic::AmdMaxOccupancy => {
                // Mirrors GCNMaxOccupancySchedStrategy's greedy priorities:
                // protect occupancy above all, then reduce register
                // pressure, and only then look at the critical path. The
                // pressure-first myopia is what makes the production
                // scheduler beatable on latency (the paper's Figure 4).
                let delta = net_change();
                // An issue that leaves the peak where it is leaves the
                // occupancy where it is.
                let keeps_occupancy = !self.pressure.raises_peak(delta)
                    || self
                        .occupancy
                        .occupancy(self.pressure.peak_after_delta(delta))
                        >= self.occ_now;
                let tier = if keeps_occupancy { 1.0 } else { 0.0 };
                // Per class, net change == opens - kills, so the sum over
                // classes reproduces `opens(id) - kills(id)` exactly (integer
                // arithmetic; no rounding concerns).
                let net = delta.iter().sum::<i32>() as f64;
                let pressure_rank = (16.0 - net).clamp(0.0, 32.0);
                1.0 + tier * self.span + pressure_rank * self.n1 + terms.amd_tiebreak
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine_model::OccupancyModel;
    use reg_pressure::RegUniverse;
    use sched_ir::figure1;

    #[test]
    fn analysis_matches_ddg_queries() {
        let ddg = figure1::ddg();
        let a = RegionAnalysis::new(&ddg);
        assert_eq!(a.ready_list_ub, 5);
    }

    #[test]
    fn critical_path_prefers_long_chains() {
        let (ddg, ids) = figure1::ddg_with_ids();
        let terms = eta_terms(&ddg.distance_to_leaf());
        let occ = OccupancyLut::new(&OccupancyModel::vega_like());
        let universe = RegUniverse::new(&ddg);
        let t = PressureTracker::new(&universe);
        let eval = HeuristicEval::new(Heuristic::CriticalPath, &terms, &occ, &t);
        // A heads the longest chain (lat 4 to E), so beats B/C/D.
        for other in [ids.b, ids.c, ids.d] {
            assert!(eval.eta(ids.a) > eval.eta(other));
        }
    }

    #[test]
    fn last_use_count_prefers_killers() {
        let (ddg, ids) = figure1::ddg_with_ids();
        let terms = eta_terms(&ddg.distance_to_leaf());
        let occ = OccupancyLut::new(&OccupancyModel::vega_like());
        let universe = RegUniverse::new(&ddg);
        let mut t = PressureTracker::new(&universe);
        for id in [ids.c, ids.d] {
            t.issue(id);
        }
        let eval = HeuristicEval::new(Heuristic::LastUseCount, &terms, &occ, &t);
        // F kills r3 and r4; A kills nothing.
        assert!(eval.eta(ids.f) > eval.eta(ids.a));
    }

    #[test]
    fn eta_is_strictly_positive_for_all_heuristics() {
        let ddg = figure1::ddg();
        let terms = eta_terms(&ddg.distance_to_leaf());
        let occ = OccupancyLut::new(&OccupancyModel::vega_like());
        let universe = RegUniverse::new(&ddg);
        let t = PressureTracker::new(&universe);
        for h in Heuristic::ALL {
            let eval = HeuristicEval::new(h, &terms, &occ, &t);
            for id in ddg.ids() {
                assert!(eval.eta(id) > 0.0, "{h:?} eta({id}) must be positive");
            }
        }
    }
}
