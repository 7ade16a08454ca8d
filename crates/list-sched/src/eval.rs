//! Candidate-scoring heuristics shared by the list schedulers and ACO.

use machine_model::OccupancyLut;
use reg_pressure::PressureTracker;
use sched_ir::{Cycle, Ddg, InstrId};

/// Precomputed per-region analyses consumed by every heuristic.
///
/// Build once per region; cheap to share across ants/schedulers.
#[derive(Debug, Clone)]
pub struct RegionAnalysis {
    /// Latency-weighted distance to a leaf, per instruction
    /// (the CP priority).
    pub dist_to_leaf: Vec<Cycle>,
    /// Earliest latency-feasible issue cycle, per instruction.
    pub earliest_start: Vec<Cycle>,
    /// Tight ready-list size upper bound (Section V-A).
    pub ready_list_ub: usize,
    /// Number of successors, per instruction.
    pub succ_count: Vec<u32>,
    /// Critical-path length of the region (max of `dist_to_leaf`).
    pub critical_path: Cycle,
    /// The terms of η that depend on the instruction alone, per
    /// instruction.
    pub eta_terms: Vec<EtaTerms>,
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

impl RegionAnalysis {
    /// Runs all analyses on a region.
    pub fn new(ddg: &Ddg) -> RegionAnalysis {
        let dist_to_leaf = ddg.distance_to_leaf();
        let critical_path = dist_to_leaf.iter().copied().max().unwrap_or(0);
        let n = dist_to_leaf.len() as f64;
        let eta_terms = dist_to_leaf
            .iter()
            .map(|&dist| {
                let dist = dist as f64;
                EtaTerms {
                    critical_path: 1.0 + dist,
                    luc_tiebreak: dist / (n + 1.0),
                    amd_tiebreak: dist / (critical_path as f64 + 1.0),
                }
            })
            .collect();
        RegionAnalysis {
            dist_to_leaf,
            earliest_start: ddg.earliest_starts(),
            ready_list_ub: ddg.transitive_closure().ready_list_ub(),
            succ_count: ddg.ids().map(|i| ddg.succs(i).len() as u32).collect(),
            critical_path,
            eta_terms,
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
    /// Creates an evaluator for `heuristic` over the analyzed region at the
    /// pressure state `pressure`.
    ///
    /// Takes the region's [`OccupancyLut`] rather than the model itself:
    /// the table lookup avoids the model's division-heavy occupancy
    /// banding.
    pub fn new(
        heuristic: Heuristic,
        analysis: &'a RegionAnalysis,
        occupancy: &'a OccupancyLut,
        pressure: &'a PressureTracker<'a>,
    ) -> HeuristicEval<'a> {
        let n = analysis.dist_to_leaf.len() as f64;
        HeuristicEval {
            heuristic,
            terms: &analysis.eta_terms,
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
                let delta = self.pressure.net_change(id);
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
        assert_eq!(a.dist_to_leaf.len(), 7);
        assert_eq!(a.succ_count.iter().sum::<u32>(), ddg.edge_count() as u32);
    }

    #[test]
    fn critical_path_prefers_long_chains() {
        let (ddg, ids) = figure1::ddg_with_ids();
        let analysis = RegionAnalysis::new(&ddg);
        let occ = OccupancyLut::new(&OccupancyModel::vega_like());
        let universe = RegUniverse::new(&ddg);
        let t = PressureTracker::new(&universe);
        let eval = HeuristicEval::new(Heuristic::CriticalPath, &analysis, &occ, &t);
        // A heads the longest chain (lat 4 to E), so beats B/C/D.
        for other in [ids.b, ids.c, ids.d] {
            assert!(eval.eta(ids.a) > eval.eta(other));
        }
    }

    #[test]
    fn last_use_count_prefers_killers() {
        let (ddg, ids) = figure1::ddg_with_ids();
        let analysis = RegionAnalysis::new(&ddg);
        let occ = OccupancyLut::new(&OccupancyModel::vega_like());
        let universe = RegUniverse::new(&ddg);
        let mut t = PressureTracker::new(&universe);
        for id in [ids.c, ids.d] {
            t.issue(id);
        }
        let eval = HeuristicEval::new(Heuristic::LastUseCount, &analysis, &occ, &t);
        // F kills r3 and r4; A kills nothing.
        assert!(eval.eta(ids.f) > eval.eta(ids.a));
    }

    #[test]
    fn eta_is_strictly_positive_for_all_heuristics() {
        let ddg = figure1::ddg();
        let analysis = RegionAnalysis::new(&ddg);
        let occ = OccupancyLut::new(&OccupancyModel::vega_like());
        let universe = RegUniverse::new(&ddg);
        let t = PressureTracker::new(&universe);
        for h in Heuristic::ALL {
            let eval = HeuristicEval::new(h, &analysis, &occ, &t);
            for id in ddg.ids() {
                assert!(eval.eta(id) > 0.0, "{h:?} eta({id}) must be positive");
            }
        }
    }
}
