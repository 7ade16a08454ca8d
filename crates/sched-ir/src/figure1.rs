//! The running example DDG of the paper (Figure 1).
//!
//! Seven instructions `A..G` over virtual registers `r1..r7`:
//!
//! ```text
//!   A defs r1          --4--> E (uses r1,r2, defs r5) --2--> G
//!   B defs r2          --3--> E
//!   C defs r3          --3--> F (uses r3,r4, defs r6) --1--> G (uses r5,r6, defs r7)
//!   D defs r4          --4--> F
//! ```
//!
//! The latencies are chosen so the narrative of Section IV-C is reproduced
//! exactly:
//!
//! * `A` is independent of `B`, `C`, `D` and `F`, so the transitive-closure
//!   ready-list upper bound is **5** (versus the loose bound of 7).
//! * A pass-1 order starting `A, B, C, D` has PRP 4; an order placing `F`
//!   third (`C, D, F, ...`) closes `r3`/`r4` early and achieves PRP 3.
//! * Under the PRP ≤ 3 constraint, the best pass-2 schedule is
//!   `A@1, B@2, D@3, stall, E@5, C@6, stall, stall, F@9, G@10` (1-indexed) —
//!   10 cycles with one *optional* stall (cycle 4) and necessary stalls
//!   before `F` (the `C -> F` latency of 3).

use crate::builder::DdgBuilder;
use crate::ddg::Ddg;
use crate::instr::{InstrId, Reg};

/// Instruction ids of the Figure-1 DDG, in the paper's naming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Figure1Ids {
    /// `A defs r1`.
    pub a: InstrId,
    /// `B defs r2`.
    pub b: InstrId,
    /// `C defs r3`.
    pub c: InstrId,
    /// `D defs r4`.
    pub d: InstrId,
    /// `E uses r1,r2 defs r5`.
    pub e: InstrId,
    /// `F uses r3,r4 defs r6`.
    pub f: InstrId,
    /// `G uses r5,r6 defs r7`.
    pub g: InstrId,
}

/// Builds the Figure-1 DDG together with its named instruction ids.
pub fn ddg_with_ids() -> (Ddg, Figure1Ids) {
    let mut bld = DdgBuilder::new();
    let a = bld.instr("A", [Reg::vgpr(1)], []);
    let b = bld.instr("B", [Reg::vgpr(2)], []);
    let c = bld.instr("C", [Reg::vgpr(3)], []);
    let d = bld.instr("D", [Reg::vgpr(4)], []);
    let e = bld.instr("E", [Reg::vgpr(5)], [Reg::vgpr(1), Reg::vgpr(2)]);
    let f = bld.instr("F", [Reg::vgpr(6)], [Reg::vgpr(3), Reg::vgpr(4)]);
    let g = bld.instr("G", [Reg::vgpr(7)], [Reg::vgpr(5), Reg::vgpr(6)]);
    bld.edge(a, e, 4).expect("valid edge");
    bld.edge(b, e, 3).expect("valid edge");
    bld.edge(c, f, 3).expect("valid edge");
    bld.edge(d, f, 4).expect("valid edge");
    bld.edge(e, g, 2).expect("valid edge");
    bld.edge(f, g, 1).expect("valid edge");
    let ddg = bld.build().expect("figure-1 DDG is acyclic");
    (
        ddg,
        Figure1Ids {
            a,
            b,
            c,
            d,
            e,
            f,
            g,
        },
    )
}

/// Builds the Figure-1 DDG.
///
/// ```
/// let ddg = sched_ir::figure1::ddg();
/// assert_eq!(ddg.len(), 7);
/// assert_eq!(ddg.transitive_closure().ready_list_ub(), 5);
/// ```
pub fn ddg() -> Ddg {
    ddg_with_ids().0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;

    #[test]
    fn ready_list_ub_is_five_as_in_the_paper() {
        let (ddg, ids) = ddg_with_ids();
        let tc = ddg.transitive_closure();
        // "Instruction A is independent of Instructions B, C, D and F."
        for other in [ids.b, ids.c, ids.d, ids.f] {
            assert!(tc.independent(ids.a, other));
        }
        assert!(!tc.independent(ids.a, ids.e));
        assert!(!tc.independent(ids.a, ids.g));
        assert_eq!(tc.independent_count(ids.a), 4);
        assert_eq!(tc.ready_list_ub(), 5);
    }

    #[test]
    fn pass2_best_schedule_is_ten_cycles() {
        let (ddg, ids) = ddg_with_ids();
        // A@0 B@1 D@2 _ E@4 C@5 _ _ F@8 G@9  (0-indexed version of the
        // paper's 1-indexed cycles 1..10)
        let mut cycles = vec![0u32; 7];
        cycles[ids.a.index()] = 0;
        cycles[ids.b.index()] = 1;
        cycles[ids.d.index()] = 2;
        cycles[ids.e.index()] = 4;
        cycles[ids.c.index()] = 5;
        cycles[ids.f.index()] = 8;
        cycles[ids.g.index()] = 9;
        // (E@4: A@0+4 and B@1+3 both land at 4; F@8: C@5+3; G@9: F@8+1.)
        let s = Schedule::from_cycles(cycles);
        s.validate(&ddg).expect("paper schedule is feasible");
        assert_eq!(s.length(), 10);
        assert_eq!(s.stalls(), 3);
    }

    #[test]
    fn unconstrained_lb_is_eight() {
        // Seven instructions and a critical path of 7 (A -4-> E -2-> G),
        // but no 7-cycle schedule exists: G at cycle 6 forces E <= 4 and
        // F <= 5, hence A at 0 and both B and D at <= 1, and one issue slot
        // per cycle cannot hold all three.
        let ddg = ddg();
        assert_eq!(ddg.len(), 7);
        assert_eq!(ddg.critical_path_length(), 7);
        assert_eq!(ddg.schedule_length_lb(), 8);
    }

    #[test]
    fn ant1_pass2_schedule_is_twelve_cycles() {
        // The paper's Ant-1 pass-2 schedule uses 12 cycles with 5 stalls.
        // One such schedule: A@0 B@1 C@2 D@3 E@5 F@6? C@2+3=5 -> F at >=5;
        // we reproduce a valid 12-cycle variant and check it is longer.
        let (ddg, ids) = ddg_with_ids();
        let mut cycles = vec![0u32; 7];
        cycles[ids.c.index()] = 0;
        cycles[ids.d.index()] = 1;
        cycles[ids.a.index()] = 2;
        cycles[ids.f.index()] = 5;
        cycles[ids.b.index()] = 6;
        cycles[ids.e.index()] = 9;
        cycles[ids.g.index()] = 11;
        let s = Schedule::from_cycles(cycles);
        s.validate(&ddg).expect("feasible");
        assert_eq!(s.length(), 12);
        assert_eq!(s.stalls(), 5);
    }
}
