//! Schedules: assignments of issue cycles to instructions.

use crate::ddg::Ddg;
use crate::instr::{InstrId, Reg, RegTable};
use std::error::Error;
use std::fmt;

/// A machine cycle index within a schedule.
pub type Cycle = u32;

/// Error produced by [`Schedule::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The schedule covers a different number of instructions than the DDG.
    WrongLength { expected: usize, actual: usize },
    /// A register is used at or before the cycle its value is defined.
    ///
    /// Caught directly from the instructions' def/use sets, so it fires
    /// even when the corresponding DDG edge was never materialized.
    DependenceViolation {
        def: InstrId,
        user: InstrId,
        reg: Reg,
    },
    /// A latency constraint `from -> to` is violated.
    LatencyViolation {
        from: InstrId,
        to: InstrId,
        required: Cycle,
        actual: Cycle,
    },
    /// Two instructions share a cycle on a single-issue machine.
    IssueConflict {
        cycle: Cycle,
        a: InstrId,
        b: InstrId,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::WrongLength { expected, actual } => {
                write!(f, "schedule has {actual} instructions, DDG has {expected}")
            }
            ScheduleError::DependenceViolation { def, user, reg } => write!(
                f,
                "dependence violation: {user} reads {reg} at or before its \
                 definition by {def}"
            ),
            ScheduleError::LatencyViolation {
                from,
                to,
                required,
                actual,
            } => write!(
                f,
                "latency violation: {to} must issue at cycle {required} or later \
                 (producer {from}), but issues at {actual}"
            ),
            ScheduleError::IssueConflict { cycle, a, b } => {
                write!(
                    f,
                    "single-issue conflict at cycle {cycle} between {a} and {b}"
                )
            }
        }
    }
}

impl Error for ScheduleError {}

/// A schedule: one issue cycle per instruction of a region.
///
/// A schedule is more than an order — on a latency-constrained target some
/// cycles hold no instruction (stalls). This matches the paper's output
/// definition: "an assignment of a machine cycle to each instruction".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    cycles: Vec<Cycle>,
}

impl Schedule {
    /// Creates a schedule from per-instruction cycles (indexed by
    /// [`InstrId`]).
    pub fn from_cycles(cycles: Vec<Cycle>) -> Schedule {
        Schedule { cycles }
    }

    /// Builds the single-issue schedule obtained by issuing instructions in
    /// `order` as early as latencies allow, inserting necessary stalls.
    ///
    /// This is how a pass-1 (latency-free) instruction *order* is converted
    /// into a timed schedule, as done between the two passes in Section IV-C.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the DDG's instructions that
    /// respects its precedence constraints.
    pub fn from_order(ddg: &Ddg, order: &[InstrId]) -> Schedule {
        assert_eq!(order.len(), ddg.len(), "order must cover the whole region");
        // An unissued instruction's cycle is the latest operand arrival
        // its issued producers have posted so far.
        let mut cycles = vec![0 as Cycle; ddg.len()];
        let mut pending = ddg.pred_counts().to_vec();
        let mut done = vec![false; ddg.len()];
        let mut next_free: Cycle = 0;
        for &id in order {
            if done[id.index()] {
                // Posted once already; the final check names the repeat.
                continue;
            }
            if pending[id.index()] != 0 {
                let p = ddg
                    .ids()
                    .find(|p| !done[p.index()] && ddg.succs(*p).iter().any(|&(s, _)| s == id))
                    .expect("a pending producer");
                panic!("order violates precedence: {p} after {id}");
            }
            let now = cycles[id.index()].max(next_free);
            cycles[id.index()] = now;
            done[id.index()] = true;
            next_free = now + 1;
            for &(s, lat) in ddg.succs(id) {
                pending[s.index()] -= 1;
                let arrival = &mut cycles[s.index()];
                *arrival = (*arrival).max(now + lat as Cycle);
            }
        }
        assert!(done.iter().all(|&d| d), "order is not a permutation");
        Schedule { cycles }
    }

    /// The issue cycle of an instruction.
    pub fn cycle(&self, id: InstrId) -> Cycle {
        self.cycles[id.index()]
    }

    /// Per-instruction cycles, indexed by [`InstrId`].
    pub fn cycles(&self) -> &[Cycle] {
        &self.cycles
    }

    /// Number of instructions covered.
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// Whether the schedule covers zero instructions.
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }

    /// Schedule length in cycles: `1 + max cycle` (0 when empty).
    pub fn length(&self) -> Cycle {
        self.cycles.iter().max().map_or(0, |&m| m + 1)
    }

    /// Number of stall cycles on a single-issue machine
    /// (`length - instruction count`).
    pub fn stalls(&self) -> Cycle {
        self.length().saturating_sub(self.cycles.len() as Cycle)
    }

    /// Instructions sorted by issue cycle.
    pub fn order(&self) -> Vec<InstrId> {
        let mut ids: Vec<InstrId> = (0..self.cycles.len() as u32).map(InstrId).collect();
        ids.sort_by_key(|id| (self.cycles[id.index()], id.0));
        ids
    }

    /// Validates the schedule against a DDG and the single-issue model.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint: length mismatch, a def/use
    /// ordering violation, a latency violation, or two instructions issued
    /// in the same cycle.
    pub fn validate(&self, ddg: &Ddg) -> Result<(), ScheduleError> {
        if self.cycles.len() != ddg.len() {
            return Err(ScheduleError::WrongLength {
                expected: ddg.len(),
                actual: self.cycles.len(),
            });
        }
        // Def/use ordering from the instructions themselves: every in-region
        // use must issue strictly after its (SSA) definition, whether or not
        // an edge carries that dependence. The first definition in id
        // order is the one a twice-defined register is held to.
        let mut def_of: RegTable<Option<InstrId>> = RegTable::new();
        for id in ddg.ids() {
            for &r in ddg.instr(id).defs() {
                def_of.slot(r).get_or_insert(id);
            }
        }
        for id in ddg.ids() {
            for &r in ddg.instr(id).uses() {
                if let Some(&Some(def)) = def_of.get(r) {
                    if def != id && self.cycle(id) <= self.cycle(def) {
                        return Err(ScheduleError::DependenceViolation {
                            def,
                            user: id,
                            reg: r,
                        });
                    }
                }
            }
        }
        for id in ddg.ids() {
            for &(succ, lat) in ddg.succs(id) {
                let required = self.cycle(id) + lat as Cycle;
                if self.cycle(succ) < required {
                    return Err(ScheduleError::LatencyViolation {
                        from: id,
                        to: succ,
                        required,
                        actual: self.cycle(succ),
                    });
                }
            }
        }
        if !self.may_share_a_cycle() {
            return Ok(());
        }
        // The sorted scan names the earliest shared cycle and its two
        // lowest ids.
        let order = self.order();
        for pair in order.windows(2) {
            if self.cycle(pair[0]) == self.cycle(pair[1]) {
                return Err(ScheduleError::IssueConflict {
                    cycle: self.cycle(pair[0]),
                    a: pair[0],
                    b: pair[1],
                });
            }
        }
        Ok(())
    }

    /// Whether two instructions may issue in one cycle: `false` proves
    /// they do not. One pass marks each cycle in a bitmap of the schedule's
    /// length; a schedule too sparse for one (64 cycles an instruction or
    /// more) answers `true` and leaves the verdict to a sort.
    fn may_share_a_cycle(&self) -> bool {
        let last = self.cycles.iter().max().map_or(0, |&c| c as usize);
        if last >= 64 * self.cycles.len() {
            return true;
        }
        let mut seen = vec![0u64; last / 64 + 1];
        for &c in &self.cycles {
            let (word, bit) = (&mut seen[c as usize / 64], 1u64 << (c % 64));
            if *word & bit != 0 {
                return true;
            }
            *word |= bit;
        }
        false
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schedule[len={}]", self.length())?;
        let order = self.order();
        let mut next: Cycle = 0;
        for id in order {
            let c = self.cycle(id);
            while next < c {
                write!(f, " _")?;
                next += 1;
            }
            write!(f, " {id}@{c}")?;
            next = c + 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DdgBuilder;

    fn chain_lat(lats: &[u16]) -> Ddg {
        let mut b = DdgBuilder::new();
        let ids: Vec<InstrId> = (0..=lats.len())
            .map(|i| b.instr(format!("i{i}"), [], []))
            .collect();
        for (i, &l) in lats.iter().enumerate() {
            b.edge(ids[i], ids[i + 1], l).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn from_order_inserts_necessary_stalls() {
        let g = chain_lat(&[3]);
        let s = Schedule::from_order(&g, &[InstrId(0), InstrId(1)]);
        assert_eq!(s.cycle(InstrId(0)), 0);
        assert_eq!(s.cycle(InstrId(1)), 3);
        assert_eq!(s.length(), 4);
        assert_eq!(s.stalls(), 2);
        s.validate(&g).unwrap();
    }

    #[test]
    fn from_order_packs_latency_free_chain() {
        let g = chain_lat(&[1, 1, 1]);
        let order: Vec<InstrId> = (0..4).map(InstrId).collect();
        let s = Schedule::from_order(&g, &order);
        assert_eq!(s.length(), 4);
        assert_eq!(s.stalls(), 0);
    }

    #[test]
    fn validate_rejects_latency_violation() {
        let g = chain_lat(&[5]);
        let s = Schedule::from_cycles(vec![0, 2]);
        match s.validate(&g) {
            Err(ScheduleError::LatencyViolation {
                required: 5,
                actual: 2,
                ..
            }) => {}
            other => panic!("expected latency violation, got {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_issue_conflict() {
        let mut b = DdgBuilder::new();
        b.instr("a", [], []);
        b.instr("b", [], []);
        let g = b.build().unwrap();
        let s = Schedule::from_cycles(vec![1, 1]);
        assert!(matches!(
            s.validate(&g),
            Err(ScheduleError::IssueConflict { cycle: 1, .. })
        ));
    }

    #[test]
    fn issue_conflicts_name_the_earliest_shared_cycle_and_its_lowest_ids() {
        let mut b = DdgBuilder::new();
        for i in 0..6 {
            b.instr(format!("i{i}"), [], []);
        }
        let g = b.build().unwrap();
        // Cycle 7 is shared by 4 and 1, cycle 2 by 5, 3 and 0.
        let s = Schedule::from_cycles(vec![2, 7, 9, 2, 7, 2]);
        let conflict = ScheduleError::IssueConflict {
            cycle: 2,
            a: InstrId(0),
            b: InstrId(3),
        };
        assert_eq!(s.validate(&g), Err(conflict.clone()));
        // Too sparse for the bitmap: the sort alone answers, alike.
        let sparse = Schedule::from_cycles(vec![2, 7, 900, 2, 7, 2]);
        assert_eq!(sparse.validate(&g), Err(conflict));
        Schedule::from_cycles(vec![0, u32::MAX, 3, 2, 63, 64])
            .validate(&g)
            .unwrap();
        Schedule::from_cycles(vec![0, 9, 3, 2, 63, 64])
            .validate(&g)
            .unwrap();
    }

    #[test]
    fn from_order_posts_the_latest_operand_arrival() {
        // a -> c (latency 5), b -> c (latency 1): c waits on a's arrival
        // whichever producer issues last.
        let mut b = DdgBuilder::new();
        let (x, y, z) = (
            b.instr("a", [], []),
            b.instr("b", [], []),
            b.instr("c", [], []),
        );
        b.edge(x, z, 5).unwrap();
        b.edge(y, z, 1).unwrap();
        let g = b.build().unwrap();
        assert_eq!(Schedule::from_order(&g, &[x, y, z]).cycles(), &[0, 1, 5]);
        assert_eq!(Schedule::from_order(&g, &[y, x, z]).cycles(), &[1, 0, 6]);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn from_order_panics_on_a_repeated_id() {
        // The repeat must not post to (or underflow) 1's pending count.
        let g = chain_lat(&[1, 1]);
        let _ = Schedule::from_order(&g, &[InstrId(0), InstrId(0), InstrId(1)]);
    }

    #[test]
    fn validate_rejects_def_use_inversion_without_edge() {
        use crate::instr::Reg;
        // `b` reads v0, defined by `a`, but no edge records the dependence.
        let mut b = DdgBuilder::new();
        b.instr("a", [Reg::vgpr(0)], []);
        b.instr("b", [], [Reg::vgpr(0)]);
        let g = b.build().unwrap();
        let s = Schedule::from_cycles(vec![1, 0]);
        assert_eq!(
            s.validate(&g),
            Err(ScheduleError::DependenceViolation {
                def: InstrId(0),
                user: InstrId(1),
                reg: Reg::vgpr(0),
            })
        );
        // The correct ordering passes.
        Schedule::from_cycles(vec![0, 1]).validate(&g).unwrap();
    }

    #[test]
    fn validate_rejects_wrong_length() {
        let g = chain_lat(&[1]);
        let s = Schedule::from_cycles(vec![0]);
        assert_eq!(
            s.validate(&g),
            Err(ScheduleError::WrongLength {
                expected: 2,
                actual: 1
            })
        );
    }

    #[test]
    fn order_sorts_by_cycle() {
        let s = Schedule::from_cycles(vec![5, 0, 3]);
        assert_eq!(s.order(), vec![InstrId(1), InstrId(2), InstrId(0)]);
    }

    #[test]
    fn empty_schedule() {
        let s = Schedule::from_cycles(vec![]);
        assert!(s.is_empty());
        assert_eq!(s.length(), 0);
        assert_eq!(s.stalls(), 0);
    }

    #[test]
    fn display_shows_stall_slots() {
        let g = chain_lat(&[2]);
        let s = Schedule::from_order(&g, &[InstrId(0), InstrId(1)]);
        let txt = s.to_string();
        assert!(txt.contains("i0@0"));
        assert!(txt.contains("_"), "stall cycle rendered: {txt}");
        assert!(txt.contains("i1@2"));
    }

    #[test]
    #[should_panic(expected = "violates precedence")]
    fn from_order_panics_on_precedence_violation() {
        let g = chain_lat(&[1]);
        let _ = Schedule::from_order(&g, &[InstrId(1), InstrId(0)]);
    }
}
