//! Exact branch-and-bound scheduling for small regions.
//!
//! The paper's line of work begins with a two-pass *Branch-and-Bound*
//! scheduler (Shobaki, Kerbow, Mekhanoshin, CGO 2020 — reference \[10\]),
//! which ACO later replaced because B&B parallelizes poorly. This crate
//! provides that exact counterpart for regions small enough to enumerate:
//!
//! * [`min_rp_order`] — the pass-1 optimum: a topological order minimizing
//!   the APRP pressure cost;
//! * [`min_length_schedule`] — the pass-2 optimum: the shortest
//!   latency-feasible schedule whose order keeps the pressure cost within
//!   a target (stall insertion is implicit: for a fixed order the
//!   earliest-fit schedule is length-optimal, so searching orders suffices);
//! * [`two_pass_optimum`] — both passes chained, exactly as the ACO
//!   schedulers chain them.
//!
//! Besides being a meaningful baseline, the exact scheduler is the
//! workspace's **optimality oracle**: tests verify that ACO matches the
//! exact pass-1 cost and pass-2 length on small regions (and never beats
//! them, which would indicate a constraint bug).
//!
//! # Example
//!
//! ```
//! use exact_sched::{two_pass_optimum, BnbConfig};
//! use machine_model::OccupancyModel;
//! use sched_ir::figure1;
//!
//! let ddg = figure1::ddg();
//! let occ = OccupancyModel::unit();
//! let opt = two_pass_optimum(&ddg, &occ, &BnbConfig::default());
//! assert!(opt.proven_optimal);
//! assert_eq!(opt.prp[0], 3);   // the paper's optimal PRP
//! assert_eq!(opt.length, 10);  // and its optimal constrained length
//! ```

use list_sched::{Heuristic, ListScheduler};
use machine_model::OccupancyModel;
use reg_pressure::{PressureTracker, RegUniverse};
use sched_ir::{Cycle, Ddg, InstrId, Schedule, REG_CLASS_COUNT};
use std::collections::HashMap;

/// The largest region the bitmask-based search supports.
pub const MAX_EXACT_SIZE: usize = 64;

/// Branch-and-bound search limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BnbConfig {
    /// Maximum search nodes explored per pass before giving up; the result
    /// is then the best found so far with `proven_optimal = false`.
    pub node_limit: u64,
}

impl Default for BnbConfig {
    /// A limit that proves optimality on typical regions of ≤ 20
    /// instructions in well under a second.
    fn default() -> BnbConfig {
        BnbConfig {
            node_limit: 2_000_000,
        }
    }
}

/// Result of an exact search.
#[derive(Debug, Clone)]
pub struct ExactResult {
    /// Best instruction order found.
    pub order: Vec<InstrId>,
    /// Earliest-fit schedule of that order.
    pub schedule: Schedule,
    /// Peak register pressure of the order.
    pub prp: [u32; REG_CLASS_COUNT],
    /// Scalar APRP cost of the order.
    pub rp_cost: u64,
    /// Schedule length in cycles.
    pub length: Cycle,
    /// Whether the search ran to completion (true = provably optimal for
    /// its objective).
    pub proven_optimal: bool,
    /// Search nodes explored.
    pub nodes: u64,
}

/// Shared DFS state over topological orders.
struct Search<'a> {
    ddg: &'a Ddg,
    occ: &'a OccupancyModel,
    pressure: PressureTracker<'a>,
    pending: Vec<u32>,
    ready: Vec<InstrId>,
    order: Vec<InstrId>,
    /// Issue cycle per instruction (pass-2 objective).
    cycles: Vec<Cycle>,
    mask: u64,
    nodes: u64,
    node_limit: u64,
    exhausted: bool,
}

impl<'a> Search<'a> {
    fn new(
        ddg: &'a Ddg,
        occ: &'a OccupancyModel,
        universe: &'a RegUniverse,
        cfg: &BnbConfig,
    ) -> Search<'a> {
        Search {
            ddg,
            occ,
            pressure: PressureTracker::new(universe),
            pending: ddg.pred_counts().to_vec(),
            ready: ddg.roots().collect(),
            order: Vec::with_capacity(ddg.len()),
            cycles: vec![0; ddg.len()],
            mask: 0,
            nodes: 0,
            node_limit: cfg.node_limit,
            exhausted: false,
        }
    }

    /// Issues `id`; returns undo info `(ready_pos, newly_ready_count)`.
    fn push(&mut self, ready_pos: usize) -> (InstrId, usize) {
        let id = self.ready.swap_remove(ready_pos);
        self.pressure.issue(id);
        self.order.push(id);
        self.mask |= 1 << id.index();
        let mut added = 0;
        for &(s, _) in self.ddg.succs(id) {
            self.pending[s.index()] -= 1;
            if self.pending[s.index()] == 0 {
                self.ready.push(s);
                added += 1;
            }
        }
        (id, added)
    }

    /// Undoes a [`Self::push`]. `pressure` cannot be rolled back in O(1),
    /// so callers snapshot/restore it by clone (regions are small).
    fn pop(&mut self, id: InstrId, ready_pos: usize, added: usize) {
        for _ in 0..added {
            self.ready.pop().expect("added successors present");
        }
        // Every successor's pending count was decremented by push, not
        // just the ones that became ready.
        for &(succ, _) in self.ddg.succs(id) {
            self.pending[succ.index()] += 1;
        }
        self.mask &= !(1 << id.index());
        self.order.pop();
        // Restore swap_remove: put `id` back at its old position.
        self.ready.push(id);
        let last = self.ready.len() - 1;
        self.ready.swap(ready_pos, last);
    }
}

/// Exact pass 1: the topological order minimizing the APRP cost.
///
/// Uses depth-first branch-and-bound with two prunings: the running peak's
/// cost already matching the incumbent (pressure peaks only grow along a
/// branch), and state dominance (the same scheduled-set reached before
/// with an equal-or-lower peak cost).
///
/// # Panics
///
/// Panics if the region exceeds [`MAX_EXACT_SIZE`] instructions.
pub fn min_rp_order(ddg: &Ddg, occ: &OccupancyModel, cfg: &BnbConfig) -> ExactResult {
    assert!(
        ddg.len() <= MAX_EXACT_SIZE,
        "exact search is limited to 64 instructions"
    );
    let universe = RegUniverse::new(ddg);
    // Incumbent: a good heuristic order.
    let init_order = ListScheduler::new(Heuristic::LastUseCount).order(ddg, occ);
    let mut best_cost = occ.rp_cost(reg_pressure::prp_of_order(ddg, &init_order));
    let mut best_order = init_order;
    let lb = occ.rp_cost_lb(ddg.rp_lower_bound());

    let mut s = Search::new(ddg, occ, &universe, cfg);
    let mut seen: HashMap<u64, u64> = HashMap::new();

    fn dfs(
        s: &mut Search<'_>,
        seen: &mut HashMap<u64, u64>,
        best_cost: &mut u64,
        best_order: &mut Vec<InstrId>,
        lb: u64,
    ) {
        if *best_cost <= lb || s.exhausted {
            return;
        }
        s.nodes += 1;
        if s.nodes > s.node_limit {
            s.exhausted = true;
            return;
        }
        let cur_cost = s.occ.rp_cost(s.pressure.peak());
        if cur_cost >= *best_cost {
            return; // peaks only grow: no completion can beat the incumbent
        }
        if s.order.len() == s.ddg.len() {
            *best_cost = cur_cost;
            *best_order = s.order.clone();
            return;
        }
        match seen.get(&s.mask) {
            Some(&c) if c <= cur_cost => return, // dominated
            _ => {
                seen.insert(s.mask, cur_cost);
            }
        }
        for pos in 0..s.ready.len() {
            let snapshot = s.pressure.clone();
            let (id, added) = s.push(pos);
            dfs(s, seen, best_cost, best_order, lb);
            s.pop(id, pos, added);
            s.pressure = snapshot;
        }
    }
    dfs(&mut s, &mut seen, &mut best_cost, &mut best_order, lb);

    let prp = reg_pressure::prp_of_order(ddg, &best_order);
    let schedule = Schedule::from_order(ddg, &best_order);
    ExactResult {
        length: schedule.length(),
        rp_cost: occ.rp_cost(prp),
        prp,
        schedule,
        proven_optimal: !s.exhausted,
        nodes: s.nodes,
        order: best_order,
    }
}

/// Exact pass 2: the shortest latency-feasible schedule among topological
/// orders whose APRP cost stays within `target_cost`.
///
/// For a fixed order the earliest-fit schedule is length-optimal, and any
/// stall pattern realizes some order, so searching orders is exhaustive.
/// Returns `None` when no order meets the target (or the search was cut
/// off before finding one).
///
/// # Panics
///
/// Panics if the region exceeds [`MAX_EXACT_SIZE`] instructions.
pub fn min_length_schedule(
    ddg: &Ddg,
    occ: &OccupancyModel,
    target_cost: u64,
    cfg: &BnbConfig,
) -> Option<ExactResult> {
    assert!(
        ddg.len() <= MAX_EXACT_SIZE,
        "exact search is limited to 64 instructions"
    );
    let universe = RegUniverse::new(ddg);
    let len_lb = ddg.schedule_length_lb();
    // Anytime incumbents: any heuristic order already within the target
    // bounds the search (and is returned if the node limit cuts it off).
    let mut best: Option<(Cycle, Vec<InstrId>)> = None;
    for h in Heuristic::ALL {
        let order = ListScheduler::new(h).order(ddg, occ);
        if occ.rp_cost(reg_pressure::prp_of_order(ddg, &order)) <= target_cost {
            let len = Schedule::from_order(ddg, &order).length();
            if best.as_ref().is_none_or(|(l, _)| len < *l) {
                best = Some((len, order));
            }
        }
    }
    let mut s = Search::new(ddg, occ, &universe, cfg);
    // Every instruction's `(producer, latency)` list, derived once from the
    // successor rows for the earliest-fit cycle of each branch.
    let mut preds: Vec<Vec<(InstrId, u16)>> = vec![Vec::new(); ddg.len()];
    for p in ddg.ids() {
        for &(succ, lat) in ddg.succs(p) {
            preds[succ.index()].push((p, lat));
        }
    }

    /// `next_free` is the next issue slot of the earliest-fit schedule
    /// being built incrementally.
    fn dfs(
        s: &mut Search<'_>,
        preds: &[Vec<(InstrId, u16)>],
        next_free: Cycle,
        target_cost: u64,
        len_lb: Cycle,
        best: &mut Option<(Cycle, Vec<InstrId>)>,
    ) {
        if s.exhausted || best.as_ref().is_some_and(|(l, _)| *l <= len_lb) {
            return;
        }
        s.nodes += 1;
        if s.nodes > s.node_limit {
            s.exhausted = true;
            return;
        }
        // Length bound: the schedule needs at least one cycle per
        // remaining instruction.
        let remaining = (s.ddg.len() - s.order.len()) as Cycle;
        if let Some((l, _)) = best {
            if next_free + remaining >= *l {
                return;
            }
        }
        if s.occ.rp_cost(s.pressure.peak()) > target_cost {
            return; // constraint violated; peaks only grow
        }
        if s.order.len() == s.ddg.len() {
            *best = Some((next_free, s.order.clone()));
            return;
        }
        for pos in 0..s.ready.len() {
            let snapshot = s.pressure.clone();
            let (id, added) = s.push(pos);
            // Earliest-fit issue cycle for `id`.
            let earliest = preds[id.index()]
                .iter()
                .map(|&(p, lat)| s.cycles[p.index()] + lat as Cycle)
                .max()
                .unwrap_or(0)
                .max(next_free);
            let old_cycle = s.cycles[id.index()];
            s.cycles[id.index()] = earliest;
            dfs(s, preds, earliest + 1, target_cost, len_lb, best);
            s.cycles[id.index()] = old_cycle;
            s.pop(id, pos, added);
            s.pressure = snapshot;
        }
    }
    dfs(&mut s, &preds, 0, target_cost, len_lb, &mut best);

    let (_, order) = best?;
    let prp = reg_pressure::prp_of_order(ddg, &order);
    let schedule = Schedule::from_order(ddg, &order);
    Some(ExactResult {
        length: schedule.length(),
        rp_cost: occ.rp_cost(prp),
        prp,
        schedule,
        proven_optimal: !s.exhausted,
        nodes: s.nodes,
        order,
    })
}

/// The exact two-pass optimum: minimum APRP cost, then minimum length at
/// that cost — the objective the ACO schedulers approximate.
pub fn two_pass_optimum(ddg: &Ddg, occ: &OccupancyModel, cfg: &BnbConfig) -> ExactResult {
    let pass1 = min_rp_order(ddg, occ, cfg);
    match min_length_schedule(ddg, occ, pass1.rp_cost, cfg) {
        Some(mut pass2) => {
            pass2.proven_optimal &= pass1.proven_optimal;
            pass2.nodes += pass1.nodes;
            pass2
        }
        None => pass1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_ir::figure1;

    #[test]
    fn figure1_two_pass_optimum_matches_paper() {
        let ddg = figure1::ddg();
        let occ = OccupancyModel::unit();
        let r = two_pass_optimum(&ddg, &occ, &BnbConfig::default());
        assert!(r.proven_optimal);
        assert_eq!(r.prp[0], 3);
        assert_eq!(r.length, 10);
        r.schedule.validate(&ddg).unwrap();
    }

    #[test]
    fn figure1_unconstrained_min_length_is_8() {
        let ddg = figure1::ddg();
        let occ = OccupancyModel::unit();
        let r = min_length_schedule(&ddg, &occ, u64::MAX, &BnbConfig::default())
            .expect("unconstrained search always succeeds");
        assert!(r.proven_optimal);
        assert_eq!(
            r.length, 8,
            "the brute-force optimum of the Figure-1 region"
        );
    }

    #[test]
    fn chain_is_trivially_optimal() {
        let ddg = workloads::patterns::transform_chain(1, 4, 0);
        let occ = OccupancyModel::vega_like();
        let r = two_pass_optimum(&ddg, &occ, &BnbConfig::default());
        assert!(r.proven_optimal);
        r.schedule.validate(&ddg).unwrap();
    }

    #[test]
    fn infeasible_target_returns_none() {
        let ddg = figure1::ddg();
        let occ = OccupancyModel::unit();
        assert!(min_length_schedule(&ddg, &occ, 0, &BnbConfig::default()).is_none());
    }

    #[test]
    fn node_limit_degrades_gracefully() {
        let ddg = workloads::patterns::sized(24, 5);
        let occ = OccupancyModel::vega_like();
        let r = min_rp_order(&ddg, &occ, &BnbConfig { node_limit: 10 });
        // Must still return a valid (heuristic-quality) result.
        assert_eq!(r.order.len(), ddg.len());
        r.schedule.validate(&ddg).unwrap();
        assert!(!r.proven_optimal || r.nodes <= 10);
    }

    #[test]
    fn exact_never_worse_than_heuristics() {
        let occ = OccupancyModel::vega_like();
        for seed in 0..10u64 {
            let ddg = workloads::patterns::sized(14, 300 + seed);
            let exact = min_rp_order(&ddg, &occ, &BnbConfig::default());
            assert!(
                exact.proven_optimal,
                "seed {seed}: tiny region must be provable"
            );
            for h in Heuristic::ALL {
                let order = ListScheduler::new(h).order(&ddg, &occ);
                let cost = occ.rp_cost(reg_pressure::prp_of_order(&ddg, &order));
                assert!(
                    exact.rp_cost <= cost,
                    "seed {seed} {h:?}: exact {} beaten by heuristic {}",
                    exact.rp_cost,
                    cost
                );
            }
        }
    }

    #[test]
    fn aco_matches_exact_on_small_regions() {
        use aco::{AcoConfig, SequentialScheduler};
        let occ = OccupancyModel::unit();
        let mut matched = 0;
        for seed in 0..8u64 {
            let ddg = workloads::patterns::sized(12, 40 + seed);
            let exact = two_pass_optimum(&ddg, &occ, &BnbConfig::default());
            if !exact.proven_optimal {
                continue;
            }
            let aco = SequentialScheduler::new(AcoConfig::small(seed)).schedule(&ddg, &occ);
            // Soundness: ACO can never beat a proven optimum.
            assert!(
                occ.rp_cost(aco.prp) >= exact.rp_cost,
                "seed {seed}: ACO cost {} below proven optimal {}",
                occ.rp_cost(aco.prp),
                exact.rp_cost
            );
            if occ.rp_cost(aco.prp) == exact.rp_cost {
                assert!(
                    aco.length >= exact.length,
                    "seed {seed}: ACO length {} below optimal {} at optimal cost",
                    aco.length,
                    exact.length
                );
                matched += (aco.length == exact.length) as u32;
            }
        }
        assert!(
            matched >= 4,
            "ACO should hit the exact optimum on most tiny regions"
        );
    }
}
