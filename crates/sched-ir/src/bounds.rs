//! Critical-path analyses and lower bounds.
//!
//! The ACO pipeline gates its invocation on lower bounds (Section VI-A): a
//! heuristic schedule that already matches the lower bound is provably
//! optimal and ACO is skipped, and a pass that reaches the bound stops. This
//! module provides
//!
//! * latency-weighted critical-path distances (forward and backward), which
//!   also drive the Critical-Path guiding heuristic,
//! * the schedule-length lower bound, [`heads_tails_length_lb`]: the optimum
//!   of the one-machine relaxation with heads and tails (1|r_j,q_j|C_max over
//!   unit jobs, the root bound of Carlier's branch and bound). Each
//!   instruction is a unit job released at its earliest start and followed
//!   by its distance to a leaf; only single issue and those two numbers
//!   constrain it. The relaxation's optimum is never below the instruction
//!   count or the critical path, so it replaces both, and
//! * register-pressure lower bounds.

use crate::ddg::Ddg;
use crate::instr::{RegClass, RegTable, REG_CLASS_COUNT};
use crate::schedule::Cycle;
use std::collections::BinaryHeap;

/// Version of [`Ddg::schedule_length_lb`], bumped with any change of the
/// bound. The colony skips pass 2 on an input that sits on the bound and
/// stops a pass that reaches it, so pass statistics depend on the bound; a
/// store of compiled results folds this word into its keys, so a result
/// computed under another bound is never replayed.
pub const BOUND_VERSION: u64 = 2;

/// Effective latency of a dependence edge under single-issue semantics:
/// even a latency-0 edge separates producer and consumer by one cycle,
/// because only one instruction issues per cycle. Shared by the forward
/// ([`Ddg::earliest_starts`]) and backward ([`Ddg::distance_to_leaf`])
/// critical-path analyses so they agree on 0-latency edges.
#[inline]
pub fn effective_latency(lat: u16) -> Cycle {
    (lat as Cycle).max(1)
}

impl Ddg {
    /// Earliest possible issue cycle of each instruction, considering
    /// latencies only (infinite issue width). This is the longest
    /// effective-latency-weighted path from any root.
    pub fn earliest_starts(&self) -> Vec<Cycle> {
        let mut est = vec![0 as Cycle; self.len()];
        for &id in self.topo_order() {
            for &(succ, lat) in self.succs(id) {
                let cand = est[id.index()] + effective_latency(lat);
                if cand > est[succ.index()] {
                    est[succ.index()] = cand;
                }
            }
        }
        est
    }

    /// Latency-weighted distance from each instruction to the end of the
    /// region: the longest path to any leaf, counting the instruction's own
    /// issue cycle. A leaf has distance 1 (its own cycle).
    ///
    /// This is the classic Critical-Path priority: scheduling the
    /// largest-distance instruction first tends to minimize the overall
    /// schedule length.
    pub fn distance_to_leaf(&self) -> Vec<Cycle> {
        let mut dist = vec![1 as Cycle; self.len()];
        for &id in self.topo_order().iter().rev() {
            for &(succ, lat) in self.succs(id) {
                let cand = dist[succ.index()] + effective_latency(lat);
                if cand > dist[id.index()] {
                    dist[id.index()] = cand;
                }
            }
        }
        dist
    }

    /// Lower bound on the length of any single-issue schedule: the
    /// [`RegionFacts::length_lb`] of the region. A reader that also needs
    /// the tails or the critical path builds the [`RegionFacts`] instead.
    ///
    /// ```
    /// use sched_ir::{figure1, RegionFacts};
    /// let ddg = figure1::ddg();
    /// assert!(ddg.schedule_length_lb() >= ddg.len() as u32);
    /// assert!(ddg.schedule_length_lb() >= RegionFacts::new(&ddg).critical_path);
    /// ```
    pub fn schedule_length_lb(&self) -> Cycle {
        RegionFacts::new(self).length_lb
    }

    /// Per-class register statistics of the region.
    ///
    /// Uses the per-class dense [`RegTable`] instead of hashing every
    /// register mention — this analysis runs for every region compiled.
    pub fn reg_stats(&self) -> RegStats {
        const USED: u8 = 1;
        const DEFINED: u8 = 2;
        let mut flags: RegTable<u8> = RegTable::new();
        for id in self.ids() {
            let instr = self.instr(id);
            for &r in instr.uses() {
                *flags.slot(r) |= USED;
            }
            for &r in instr.defs() {
                *flags.slot(r) |= DEFINED;
            }
        }
        let mut live_in = [0usize; REG_CLASS_COUNT];
        let mut live_out = [0usize; REG_CLASS_COUNT];
        let mut reg_count = [0usize; REG_CLASS_COUNT];
        for c in 0..REG_CLASS_COUNT {
            for &f in flags.class(c) {
                match f {
                    USED => live_in[c] += 1,
                    DEFINED => live_out[c] += 1,
                    _ => {}
                }
                if f != 0 {
                    reg_count[c] += 1;
                }
            }
        }
        RegStats {
            live_in,
            live_out,
            reg_count,
        }
    }

    /// Per-class lower bound on the peak register pressure of any schedule.
    ///
    /// Sound components: all live-in registers of a class are simultaneously
    /// live at region entry; all live-out registers (defined but never used
    /// in the region) are simultaneously live at region exit; and any single
    /// instruction's defs are simultaneously live right after it issues.
    pub fn rp_lower_bound(&self) -> [usize; REG_CLASS_COUNT] {
        let stats = self.reg_stats();
        let mut lb = [0usize; REG_CLASS_COUNT];
        for class in RegClass::ALL {
            let c = class.index();
            lb[c] = stats.live_in[c].max(stats.live_out[c]);
            for id in self.ids() {
                lb[c] = lb[c].max(self.instr(id).defs_of(class));
            }
        }
        lb
    }
}

/// The path facts of a region, derived once, that the colony's gates
/// (Section VI-A) and the critical-path η read. The heads
/// ([`Ddg::earliest_starts`]) only feed the bound and are not kept.
#[derive(Debug, Clone)]
pub struct RegionFacts {
    /// Each instruction's [`Ddg::distance_to_leaf`], its own cycle counted.
    pub tails: Vec<Cycle>,
    /// The critical path length: the largest tail (0 for no instruction).
    pub critical_path: Cycle,
    /// [`heads_tails_length_lb`] over the earliest starts and the tails:
    /// at least the instruction count and at least the critical path.
    pub length_lb: Cycle,
}

impl RegionFacts {
    /// Derives the facts: two path passes over `ddg`, then one sweep.
    pub fn new(ddg: &Ddg) -> RegionFacts {
        let tails = ddg.distance_to_leaf();
        let lb = heads_tails_length_lb(&ddg.earliest_starts(), &tails);
        RegionFacts {
            critical_path: tails.iter().copied().max().unwrap_or(0),
            length_lb: Cycle::try_from(lb).expect("a length bound fits a cycle count"),
            tails,
        }
    }
}

/// The optimum of the one-machine heads-and-tails relaxation over unit jobs:
/// job `j` may not issue before cycle `heads[j]`, one job issues per cycle,
/// and a job issued at cycle `t` keeps the schedule running until at least
/// `t + tails[j]`. Sweeping the cycles in order and issuing, each cycle, the
/// released job with the largest tail (Jackson's rule) is optimal for unit
/// jobs with integer heads, so the largest `t + tails[j]` it reaches bounds
/// every schedule that respects the heads and tails from below.
///
/// With tails of at least 1 (a job's own cycle) the bound is at least the
/// job count and at least every `heads[j] + tails[j]`. Costs O(n log n).
///
/// # Panics
///
/// Panics if the two slices differ in length.
///
/// ```
/// use sched_ir::bounds::heads_tails_length_lb;
/// // Three jobs released at 0 with tails 3, 3, 3: one of them issues at
/// // cycle 2 and runs to 5, beyond both the count (3) and the path (3).
/// assert_eq!(heads_tails_length_lb(&[0u32, 0, 0], &[3u32, 3, 3]), 5);
/// ```
pub fn heads_tails_length_lb<T: Copy + Into<u64>>(heads: &[T], tails: &[T]) -> u64 {
    assert_eq!(heads.len(), tails.len(), "one tail per head");
    let mut jobs: Vec<(u64, u64)> = heads
        .iter()
        .zip(tails)
        .map(|(&r, &q)| (r.into(), q.into()))
        .collect();
    jobs.sort_unstable_by_key(|&(r, _)| r);
    let mut released = BinaryHeap::with_capacity(jobs.len());
    let (mut next, mut t, mut lb) = (0, 0, 0);
    while next < jobs.len() || !released.is_empty() {
        if released.is_empty() {
            t = t.max(jobs[next].0);
        }
        while let Some(&(_, q)) = jobs.get(next).filter(|&&(r, _)| r <= t) {
            released.push(q);
            next += 1;
        }
        let q = released.pop().expect("a job is released by cycle t");
        lb = lb.max(t + q);
        t += 1;
    }
    lb
}

/// Per-class register statistics of a region (see [`Ddg::reg_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegStats {
    /// Registers used but never defined in the region, per class.
    pub live_in: [usize; REG_CLASS_COUNT],
    /// Registers defined but never used in the region, per class.
    pub live_out: [usize; REG_CLASS_COUNT],
    /// Distinct registers mentioned in the region, per class.
    pub reg_count: [usize; REG_CLASS_COUNT],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DdgBuilder;
    use crate::instr::Reg;

    #[test]
    fn earliest_starts_follow_longest_path() {
        // a --2--> b --3--> d ;  a --1--> c --1--> d
        let mut bld = DdgBuilder::new();
        let a = bld.instr("a", [], []);
        let b = bld.instr("b", [], []);
        let c = bld.instr("c", [], []);
        let d = bld.instr("d", [], []);
        bld.edge(a, b, 2).unwrap();
        bld.edge(b, d, 3).unwrap();
        bld.edge(a, c, 1).unwrap();
        bld.edge(c, d, 1).unwrap();
        let g = bld.build().unwrap();
        let est = g.earliest_starts();
        assert_eq!(est[a.index()], 0);
        assert_eq!(est[b.index()], 2);
        assert_eq!(est[c.index()], 1);
        assert_eq!(est[d.index()], 5);
        assert_eq!(RegionFacts::new(&g).critical_path, 6);
        assert_eq!(g.schedule_length_lb(), 6); // cp (6) > n (4)
    }

    #[test]
    fn length_lb_is_instruction_count_when_no_latency() {
        let mut bld = DdgBuilder::new();
        for i in 0..5 {
            bld.instr(format!("i{i}"), [], []);
        }
        let g = bld.build().unwrap();
        assert_eq!(RegionFacts::new(&g).critical_path, 1);
        assert_eq!(g.schedule_length_lb(), 5);
    }

    #[test]
    fn single_issue_serializes_producers_with_long_tails() {
        // a, b, c --2--> d: count 4, critical path 3, but the third
        // producer issues at cycle 2 and d two cycles after it.
        let mut bld = DdgBuilder::new();
        let d = bld.instr("d", [], []);
        for name in ["a", "b", "c"] {
            let p = bld.instr(name, [], []);
            bld.edge(p, d, 2).unwrap();
        }
        let g = bld.build().unwrap();
        assert_eq!(RegionFacts::new(&g).critical_path, 3);
        assert_eq!(g.schedule_length_lb(), 5);
    }

    #[test]
    fn heads_tails_bound_sweeps_idle_cycles() {
        // Nothing is released before cycle 4; then two jobs compete.
        assert_eq!(heads_tails_length_lb(&[4u32, 4], &[2u32, 2]), 7);
        assert_eq!(heads_tails_length_lb::<u32>(&[], &[]), 0);
    }

    #[test]
    fn distance_to_leaf_counts_own_cycle() {
        let mut bld = DdgBuilder::new();
        let a = bld.instr("a", [], []);
        let b = bld.instr("b", [], []);
        bld.edge(a, b, 4).unwrap();
        let g = bld.build().unwrap();
        let d = g.distance_to_leaf();
        assert_eq!(d[b.index()], 1);
        assert_eq!(d[a.index()], 5);
    }

    #[test]
    fn zero_latency_edges_still_cost_a_cycle_in_cp() {
        // On a single-issue machine consecutive instructions occupy distinct
        // cycles even with latency 0.
        let mut bld = DdgBuilder::new();
        let a = bld.instr("a", [], []);
        let b = bld.instr("b", [], []);
        bld.edge(a, b, 0).unwrap();
        let g = bld.build().unwrap();
        assert_eq!(g.distance_to_leaf()[a.index()], 2);
    }

    #[test]
    fn zero_latency_edges_still_cost_a_cycle_in_earliest_starts() {
        // Forward mirror of the backward test above: with latency 0, `b`
        // still cannot issue in `a`'s cycle on a single-issue machine, so
        // both CP analyses must agree on effective latency 1.
        let mut bld = DdgBuilder::new();
        let a = bld.instr("a", [], []);
        let b = bld.instr("b", [], []);
        bld.edge(a, b, 0).unwrap();
        let g = bld.build().unwrap();
        let est = g.earliest_starts();
        assert_eq!(est[a.index()], 0);
        assert_eq!(est[b.index()], 1);
        assert_eq!(RegionFacts::new(&g).critical_path, 2);
        // The two analyses agree on the same effective edge weight.
        assert_eq!(super::effective_latency(0), 1);
        assert_eq!(super::effective_latency(7), 7);
    }

    #[test]
    fn reg_stats_classifies_live_in_and_out() {
        let mut bld = DdgBuilder::new();
        // uses v0 (live-in), defines v1 used later, defines v2 never used
        // (live-out), defines s0 never used (live-out).
        let a = bld.instr("a", [Reg::vgpr(1), Reg::vgpr(2)], [Reg::vgpr(0)]);
        let b = bld.instr("b", [Reg::sgpr(0)], [Reg::vgpr(1)]);
        bld.edge(a, b, 1).unwrap();
        let g = bld.build().unwrap();
        let s = g.reg_stats();
        assert_eq!(s.live_in[RegClass::Vgpr.index()], 1);
        assert_eq!(s.live_in[RegClass::Sgpr.index()], 0);
        assert_eq!(s.live_out[RegClass::Vgpr.index()], 1); // v2
        assert_eq!(s.live_out[RegClass::Sgpr.index()], 1); // s0
        assert_eq!(s.reg_count[RegClass::Vgpr.index()], 3); // v0, v1, v2
    }

    #[test]
    fn rp_lb_covers_wide_defs() {
        let mut bld = DdgBuilder::new();
        bld.instr("wide", [Reg::vgpr(0), Reg::vgpr(1), Reg::vgpr(2)], []);
        let g = bld.build().unwrap();
        assert_eq!(g.rp_lower_bound()[RegClass::Vgpr.index()], 3);
    }

    #[test]
    fn empty_region_bounds() {
        let g = DdgBuilder::new().build().unwrap();
        assert_eq!(g.schedule_length_lb(), 0);
        assert_eq!(g.rp_lower_bound(), [0, 0]);
    }
}
