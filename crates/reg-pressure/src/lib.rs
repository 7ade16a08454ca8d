//! Register-pressure tracking during schedule construction.
//!
//! Every scheduler in the workspace — the greedy list schedulers and both
//! ACO schedulers — constructs schedules one instruction at a time and needs
//! to know, incrementally, how many registers of each class are live. This
//! crate provides:
//!
//! * [`RegUniverse`]: a per-region interning of virtual registers with their
//!   defining instruction and use counts,
//! * [`PressureTracker`]: O(operands) incremental live-count updates with
//!   peak tracking, plus *what-if* queries ([`PressureTracker::net_change`],
//!   [`PressureTracker::kills`]) used by the Last-Use-Count heuristic and by
//!   the ACO optional-stall heuristic,
//! * [`prp_of_order`]: one-shot peak-pressure evaluation of a complete
//!   instruction order.
//!
//! Register semantics follow the paper's region model: registers used but
//! never defined in the region are live-in (live from cycle 0 until their
//! last use); registers defined but never used are live-out (live from their
//! definition to the end of the region).

use machine_model::OccupancyModel;
use sched_ir::{Ddg, InstrId, Reg, RegClass, REG_CLASS_COUNT};

/// Dense index of a register within a [`RegUniverse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegIdx(u32);

impl RegIdx {
    fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone)]
struct RegInfo {
    class: RegClass,
    /// Instruction defining the register, if defined in the region.
    def: Option<InstrId>,
    /// Total number of use occurrences in the region.
    uses: u32,
}

/// Interned register metadata for one scheduling region.
///
/// Build once per region, then drive any number of [`PressureTracker`]s
/// (e.g. one per ant) from it.
///
/// Registers are interned through per-class dense lookup tables indexed by
/// raw register id (no hashing), and per-instruction def/use lists are
/// stored in flat CSR arrays. The dense [`RegIdx`] numbering is identical
/// to what the old `HashMap` interning produced: first occurrence wins,
/// walking instructions in id order, uses before defs within each
/// instruction.
#[derive(Debug, Clone)]
pub struct RegUniverse {
    regs: Vec<RegInfo>,
    def_off: Vec<u32>,
    def_idx: Vec<RegIdx>,
    use_off: Vec<u32>,
    use_idx: Vec<RegIdx>,
    /// Deduplicated `(register, occurrence count)` pairs per instruction,
    /// CSR-indexed by `use_pair_off`. Precomputed so the Last-Use-Count
    /// queries ([`PressureTracker::kills`]/[`PressureTracker::net_change`],
    /// the hottest inner loop of every ant) never re-dedup operand lists.
    use_pair_off: Vec<u32>,
    use_pairs: Vec<(RegIdx, u32)>,
    /// Entry-state vectors for `memcpy` tracker resets.
    init_remaining: Vec<u32>,
    init_live: Vec<bool>,
    live_in: [u32; REG_CLASS_COUNT],
}

impl RegUniverse {
    /// Interns all registers of a region.
    ///
    /// Assumes SSA-like virtual registers: at most one def per register.
    /// A second def of the same register is ignored with a debug assertion.
    pub fn new(ddg: &Ddg) -> RegUniverse {
        let mut lookup: [Vec<u32>; REG_CLASS_COUNT] = Default::default();
        let mut regs: Vec<RegInfo> = Vec::new();
        let mut intern = |r: Reg, regs: &mut Vec<RegInfo>| -> RegIdx {
            let table = &mut lookup[r.class.index()];
            let i = r.id as usize;
            if table.len() <= i {
                table.resize(i + 1, u32::MAX);
            }
            if table[i] == u32::MAX {
                table[i] = regs.len() as u32;
                regs.push(RegInfo {
                    class: r.class,
                    def: None,
                    uses: 0,
                });
            }
            RegIdx(table[i])
        };
        let n = ddg.len();
        let mut def_off = Vec::with_capacity(n + 1);
        let mut def_idx = Vec::new();
        let mut use_off = Vec::with_capacity(n + 1);
        let mut use_idx = Vec::new();
        def_off.push(0u32);
        use_off.push(0u32);
        for id in ddg.ids() {
            let instr = ddg.instr(id);
            for &r in instr.uses() {
                let ri = intern(r, &mut regs);
                regs[ri.index()].uses += 1;
                use_idx.push(ri);
            }
            for &r in instr.defs() {
                let ri = intern(r, &mut regs);
                debug_assert!(
                    regs[ri.index()].def.is_none(),
                    "register {r} defined more than once (non-SSA region)"
                );
                if regs[ri.index()].def.is_none() {
                    regs[ri.index()].def = Some(id);
                }
                def_idx.push(ri);
            }
            use_off.push(use_idx.len() as u32);
            def_off.push(def_idx.len() as u32);
        }
        let mut use_pair_off = Vec::with_capacity(n + 1);
        let mut use_pairs = Vec::new();
        use_pair_off.push(0u32);
        for i in 0..n {
            let uses = &use_idx[use_off[i] as usize..use_off[i + 1] as usize];
            use_pairs.extend(dedup_occurrences(uses));
            use_pair_off.push(use_pairs.len() as u32);
        }
        let mut live_in = [0u32; REG_CLASS_COUNT];
        for info in &regs {
            if info.def.is_none() {
                live_in[info.class.index()] += 1;
            }
        }
        let init_remaining: Vec<u32> = regs.iter().map(|r| r.uses).collect();
        let init_live: Vec<bool> = regs.iter().map(|r| r.def.is_none()).collect();
        RegUniverse {
            regs,
            def_off,
            def_idx,
            use_off,
            use_idx,
            use_pair_off,
            use_pairs,
            init_remaining,
            init_live,
            live_in,
        }
    }

    /// Number of distinct registers in the region.
    pub fn reg_count(&self) -> usize {
        self.regs.len()
    }

    /// Per-class count of live-in registers.
    pub fn live_in(&self) -> [u32; REG_CLASS_COUNT] {
        self.live_in
    }

    /// Registers defined by an instruction (dense indices).
    #[inline]
    pub fn defs(&self, id: InstrId) -> &[RegIdx] {
        let i = id.index();
        &self.def_idx[self.def_off[i] as usize..self.def_off[i + 1] as usize]
    }

    /// Register use occurrences of an instruction (dense indices; a register
    /// used twice appears twice).
    #[inline]
    pub fn uses(&self, id: InstrId) -> &[RegIdx] {
        let i = id.index();
        &self.use_idx[self.use_off[i] as usize..self.use_off[i + 1] as usize]
    }

    /// Deduplicated `(register, occurrence count)` use pairs of an
    /// instruction, precomputed at interning time.
    #[inline]
    pub fn use_pairs(&self, id: InstrId) -> &[(RegIdx, u32)] {
        let i = id.index();
        &self.use_pairs[self.use_pair_off[i] as usize..self.use_pair_off[i + 1] as usize]
    }
}

/// Incremental per-class live-register counting with peak tracking.
///
/// # Example
///
/// ```
/// use reg_pressure::{PressureTracker, RegUniverse, prp_of_order};
/// use sched_ir::figure1;
///
/// let (ddg, ids) = figure1::ddg_with_ids();
/// let universe = RegUniverse::new(&ddg);
/// let mut t = PressureTracker::new(&universe);
/// for id in [ids.a, ids.b, ids.c, ids.d] {
///     t.issue(id);
/// }
/// // "each of Instructions A, B, C, and D opens a new live range"
/// assert_eq!(t.peak()[0], 4);
/// ```
#[derive(Debug, Clone)]
pub struct PressureTracker<'u> {
    universe: &'u RegUniverse,
    remaining: Vec<u32>,
    live: Vec<bool>,
    current: [u32; REG_CLASS_COUNT],
    peak: [u32; REG_CLASS_COUNT],
}

impl<'u> PressureTracker<'u> {
    /// Creates a tracker at region entry: live-ins live, nothing issued.
    pub fn new(universe: &'u RegUniverse) -> PressureTracker<'u> {
        let remaining: Vec<u32> = universe.regs.iter().map(|r| r.uses).collect();
        let live: Vec<bool> = universe.regs.iter().map(|r| r.def.is_none()).collect();
        let current = universe.live_in;
        PressureTracker {
            universe,
            remaining,
            live,
            current,
            peak: current,
        }
    }

    /// Resets to region entry without reallocating (ants reuse trackers
    /// across iterations — the GPU implementation avoids dynamic allocation
    /// the same way). Two `memcpy`s from the universe's precomputed entry
    /// state.
    pub fn reset(&mut self) {
        self.remaining
            .copy_from_slice(&self.universe.init_remaining);
        self.live.copy_from_slice(&self.universe.init_live);
        self.current = self.universe.live_in;
        self.peak = self.current;
    }

    /// Overwrites this tracker with `other`'s state without reallocating:
    /// two `memcpy`s, like [`Self::reset`], but from a mid-construction
    /// state (the lockstep wavefront forks an ant state this way when the
    /// lanes sharing it pick different instructions).
    ///
    /// # Panics
    ///
    /// Panics if the two trackers were built over universes of different
    /// sizes.
    pub fn copy_from(&mut self, other: &PressureTracker<'u>) {
        debug_assert!(std::ptr::eq(self.universe, other.universe));
        self.remaining.copy_from_slice(&other.remaining);
        self.live.copy_from_slice(&other.live);
        self.current = other.current;
        self.peak = other.peak;
    }

    /// Issues an instruction: closes the live ranges of registers whose last
    /// use this is, then opens its defs' live ranges.
    ///
    /// Kills are processed before opens — an instruction's result may reuse
    /// the physical register of an operand it kills, so the two ranges do
    /// not overlap. This matches the paper's Figure-1 counting, where the
    /// `A,B,C,D,E,F,G` order has PRP 4 (not 5) even though `E` opens `r5`
    /// in the same cycle it kills `r1` and `r2`.
    pub fn issue(&mut self, id: InstrId) {
        for &ri in self.universe.uses(id) {
            let i = ri.index();
            debug_assert!(
                self.live[i] || self.remaining[i] == 0,
                "use of a dead register: order violates def-use dependence"
            );
            if self.remaining[i] > 0 {
                self.remaining[i] -= 1;
                if self.remaining[i] == 0 && self.live[i] {
                    self.live[i] = false;
                    self.current[self.universe.regs[i].class.index()] -= 1;
                }
            }
        }
        for &ri in self.universe.defs(id) {
            let i = ri.index();
            if !self.live[i] {
                self.live[i] = true;
                let c = self.universe.regs[i].class.index();
                self.current[c] += 1;
                self.peak[c] = self.peak[c].max(self.current[c]);
            }
        }
    }

    /// Current live-register counts per class.
    pub fn current(&self) -> [u32; REG_CLASS_COUNT] {
        self.current
    }

    /// Peak live-register counts per class since construction/reset (PRP).
    pub fn peak(&self) -> [u32; REG_CLASS_COUNT] {
        self.peak
    }

    /// Net per-class pressure change if `id` were issued now: defs that
    /// would open a range minus uses that would close one.
    pub fn net_change(&self, id: InstrId) -> [i32; REG_CLASS_COUNT] {
        let mut delta = [0i32; REG_CLASS_COUNT];
        for &ri in self.universe.defs(id) {
            if !self.live[ri.index()] {
                delta[self.universe.regs[ri.index()].class.index()] += 1;
            }
        }
        for &(ri, occurrences) in self.universe.use_pairs(id) {
            let i = ri.index();
            if self.live[i] && self.remaining[i] <= occurrences {
                delta[self.universe.regs[i].class.index()] -= 1;
            }
        }
        delta
    }

    /// Number of live ranges issuing `id` would close (the Last-Use-Count
    /// priority of Shobaki et al. 2015).
    pub fn kills(&self, id: InstrId) -> u32 {
        let mut k = 0;
        for &(ri, occurrences) in self.universe.use_pairs(id) {
            let i = ri.index();
            if self.live[i] && self.remaining[i] <= occurrences {
                k += 1;
            }
        }
        k
    }

    /// Number of live ranges issuing `id` would open.
    pub fn opens(&self, id: InstrId) -> u32 {
        self.universe
            .defs(id)
            .iter()
            .filter(|ri| !self.live[ri.index()])
            .count() as u32
    }

    /// Peak pressure if `id` were issued now, per class — without mutating
    /// the tracker. Used by the pass-2 RP-constraint check.
    pub fn peak_after(&self, id: InstrId) -> [u32; REG_CLASS_COUNT] {
        self.peak_after_delta(self.net_change(id))
    }

    /// [`Self::peak_after`] for a [`Self::net_change`] delta the caller
    /// already computed — heuristics that need both the delta and the
    /// resulting peak scan the operand lists once instead of twice.
    pub fn peak_after_delta(&self, delta: [i32; REG_CLASS_COUNT]) -> [u32; REG_CLASS_COUNT] {
        let mut peak = self.peak;
        for c in 0..REG_CLASS_COUNT {
            let after = (self.current[c] as i32 + delta[c]).max(0) as u32;
            peak[c] = peak[c].max(after);
        }
        peak
    }

    /// Scalar APRP cost of the peak so far (see
    /// [`OccupancyModel::rp_cost`]).
    pub fn rp_cost(&self, model: &OccupancyModel) -> u64 {
        model.rp_cost(self.peak)
    }
}

/// Collapses a use-occurrence list into `(reg, occurrence_count)` pairs.
/// Only runs at universe construction; queries read the precomputed pairs.
fn dedup_occurrences(uses: &[RegIdx]) -> impl Iterator<Item = (RegIdx, u32)> + '_ {
    // Operand lists are tiny (< 8); quadratic dedup beats hashing.
    uses.iter().enumerate().filter_map(move |(i, &ri)| {
        if uses[..i].contains(&ri) {
            None
        } else {
            Some((ri, uses.iter().filter(|&&x| x == ri).count() as u32))
        }
    })
}

/// Peak register pressure of issuing a region in the given order.
///
/// # Panics
///
/// Panics (in debug builds) if `order` uses a register before its def.
pub fn prp_of_order(ddg: &Ddg, order: &[InstrId]) -> [u32; REG_CLASS_COUNT] {
    let universe = RegUniverse::new(ddg);
    prp_of_order_in(&universe, order)
}

/// [`prp_of_order`] against an already-built universe — callers that hold
/// one (every scheduler does) skip re-interning the region's registers.
pub fn prp_of_order_in(universe: &RegUniverse, order: &[InstrId]) -> [u32; REG_CLASS_COUNT] {
    let mut t = PressureTracker::new(universe);
    for &id in order {
        t.issue(id);
    }
    t.peak()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_ir::{figure1, DdgBuilder};

    const V: usize = 0; // RegClass::Vgpr.index()

    #[test]
    fn figure1_ant1_order_has_prp_4() {
        let (ddg, ids) = figure1::ddg_with_ids();
        let order = [ids.a, ids.b, ids.c, ids.d, ids.e, ids.f, ids.g];
        assert_eq!(prp_of_order(&ddg, &order)[V], 4);
    }

    #[test]
    fn figure1_ant2_order_has_prp_3() {
        let (ddg, ids) = figure1::ddg_with_ids();
        // C, D, F closes r3/r4 at the third step (paper's Ant-2 order).
        let order = [ids.c, ids.d, ids.f, ids.a, ids.b, ids.e, ids.g];
        assert_eq!(prp_of_order(&ddg, &order)[V], 3);
    }

    #[test]
    fn live_in_registers_start_live() {
        let mut b = DdgBuilder::new();
        let u = b.instr("use", [], [Reg::vgpr(0), Reg::sgpr(0)]);
        let g = b.build().unwrap();
        let universe = RegUniverse::new(&g);
        assert_eq!(universe.live_in(), [1, 1]);
        let mut t = PressureTracker::new(&universe);
        assert_eq!(t.current(), [1, 1]);
        t.issue(u);
        assert_eq!(t.current(), [0, 0]);
        assert_eq!(t.peak(), [1, 1]);
    }

    #[test]
    fn live_out_registers_never_die() {
        let mut b = DdgBuilder::new();
        let d = b.instr("def", [Reg::vgpr(0)], []);
        let g = b.build().unwrap();
        let universe = RegUniverse::new(&g);
        let mut t = PressureTracker::new(&universe);
        t.issue(d);
        assert_eq!(t.current()[V], 1);
        assert_eq!(t.peak()[V], 1);
    }

    #[test]
    fn kills_processed_before_opens_within_one_instruction() {
        // x = f(v0) where this is v0's last use: the result may reuse v0's
        // register, so the peak stays 1.
        let mut b = DdgBuilder::new();
        let d = b.instr("def", [Reg::vgpr(0)], []);
        let x = b.instr("f", [Reg::vgpr(1)], [Reg::vgpr(0)]);
        b.edge(d, x, 1).unwrap();
        let g = b.build().unwrap();
        let universe = RegUniverse::new(&g);
        let mut t = PressureTracker::new(&universe);
        t.issue(d);
        t.issue(x);
        assert_eq!(t.current()[V], 1, "v0 dead, v1 live");
        assert_eq!(t.peak()[V], 1, "v1 reuses v0's slot");
    }

    #[test]
    fn multi_use_register_dies_at_last_use() {
        let mut b = DdgBuilder::new();
        let d = b.instr("def", [Reg::vgpr(0)], []);
        let u1 = b.instr("u1", [], [Reg::vgpr(0)]);
        let u2 = b.instr("u2", [], [Reg::vgpr(0)]);
        b.edge(d, u1, 1).unwrap();
        b.edge(d, u2, 1).unwrap();
        let g = b.build().unwrap();
        let universe = RegUniverse::new(&g);
        let mut t = PressureTracker::new(&universe);
        t.issue(d);
        t.issue(u1);
        assert_eq!(t.current()[V], 1, "still one use left");
        t.issue(u2);
        assert_eq!(t.current()[V], 0);
    }

    #[test]
    fn duplicate_use_in_one_instruction_counts_once_for_kill() {
        let mut b = DdgBuilder::new();
        let d = b.instr("def", [Reg::vgpr(0)], []);
        let sq = b.instr("square", [Reg::vgpr(1)], [Reg::vgpr(0), Reg::vgpr(0)]);
        b.edge(d, sq, 1).unwrap();
        let g = b.build().unwrap();
        let universe = RegUniverse::new(&g);
        let mut t = PressureTracker::new(&universe);
        t.issue(d);
        assert_eq!(t.kills(sq), 1);
        assert_eq!(t.net_change(sq), [0, 0]); // +v1, -v0
        t.issue(sq);
        assert_eq!(t.current()[V], 1); // only v1 live
    }

    #[test]
    fn net_change_and_peak_after_are_consistent_with_issue() {
        let (ddg, ids) = figure1::ddg_with_ids();
        let universe = RegUniverse::new(&ddg);
        let mut t = PressureTracker::new(&universe);
        for id in [ids.c, ids.d] {
            let predicted = t.net_change(id);
            let predicted_peak = t.peak_after(id);
            let before = t.current();
            t.issue(id);
            let after = t.current();
            for c in 0..REG_CLASS_COUNT {
                assert_eq!(after[c] as i32 - before[c] as i32, predicted[c]);
            }
            assert_eq!(t.peak(), predicted_peak);
        }
        // F kills r3 and r4 and opens r6 -> net -1.
        assert_eq!(t.net_change(ids.f)[V], -1);
        assert_eq!(t.kills(ids.f), 2);
        assert_eq!(t.opens(ids.f), 1);
    }

    #[test]
    fn reset_restores_entry_state() {
        let (ddg, ids) = figure1::ddg_with_ids();
        let universe = RegUniverse::new(&ddg);
        let mut t = PressureTracker::new(&universe);
        let order = [ids.a, ids.b, ids.c, ids.d, ids.e, ids.f, ids.g];
        for id in order {
            t.issue(id);
        }
        assert_eq!(t.peak()[V], 4);
        t.reset();
        assert_eq!(t.peak(), [0, 0]);
        assert_eq!(t.current(), [0, 0]);
        for id in [ids.c, ids.d, ids.f, ids.a, ids.b, ids.e, ids.g] {
            t.issue(id);
        }
        assert_eq!(t.peak()[V], 3);
    }

    #[test]
    fn copy_from_forks_a_mid_construction_state() {
        let (ddg, ids) = figure1::ddg_with_ids();
        let universe = RegUniverse::new(&ddg);
        let mut a = PressureTracker::new(&universe);
        for id in [ids.c, ids.d] {
            a.issue(id);
        }
        let mut b = PressureTracker::new(&universe);
        b.issue(ids.a); // overwritten by the copy
        b.copy_from(&a);
        assert_eq!(b.current(), a.current());
        assert_eq!(b.peak(), a.peak());
        assert_eq!(b.net_change(ids.f), a.net_change(ids.f));
        // The fork diverges independently of its source.
        b.issue(ids.f);
        a.issue(ids.a);
        assert_eq!(b.current()[V], 1);
        assert_eq!(a.current()[V], 3);
    }

    #[test]
    fn rp_cost_uses_occupancy_model() {
        let (ddg, ids) = figure1::ddg_with_ids();
        let universe = RegUniverse::new(&ddg);
        let mut t = PressureTracker::new(&universe);
        for id in [ids.a, ids.b, ids.c, ids.d, ids.e, ids.f, ids.g] {
            t.issue(id);
        }
        let model = OccupancyModel::vega_like();
        // PRP 4 -> APRP 24 band -> occupancy 10 -> cost = APRP sum only.
        assert_eq!(t.rp_cost(&model), 24);
    }

    use sched_ir::Reg;
}
