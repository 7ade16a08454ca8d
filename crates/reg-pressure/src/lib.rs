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
//!   [`PressureTracker::kills`], [`PressureTracker::peak_after`]) used by
//!   the heuristics and by the pass-2 pressure constraint. The queries are
//!   O(1) reads of a per-instruction [`WhatIf`] cache that
//!   [`PressureTracker::issue`] keeps exact incrementally,
//! * [`prp_of_order`]: one-shot peak-pressure evaluation of a complete
//!   instruction order, replayed on the counters alone (no cache).
//!
//! Register semantics follow the paper's region model: registers used but
//! never defined in the region are live-in (live from cycle 0 until their
//! last use); registers defined but never used are live-out (live from their
//! definition to the end of the region).

use machine_model::OccupancyModel;
use sched_ir::{Ddg, InstrId, Reg, RegClass, REG_CLASS_COUNT};
use std::sync::OnceLock;

/// Dense index of a register within a [`RegUniverse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegIdx(u32);

impl RegIdx {
    fn index(self) -> usize {
        self.0 as usize
    }
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
    /// Class of each interned register.
    class: Vec<RegClass>,
    def_off: Vec<u32>,
    def_idx: Vec<RegIdx>,
    /// Deduplicated `(register, occurrence count)` use pairs per
    /// instruction, CSR-indexed by `use_pair_off`. Precomputed so neither
    /// [`PressureTracker::issue`] nor the what-if scan ever re-dedups an
    /// operand list.
    use_pair_off: Vec<u32>,
    use_pairs: Vec<(RegIdx, u32)>,
    /// Entry-state vectors for `memcpy` tracker resets: each register's
    /// total use occurrences, and whether it is live-in (defined by no
    /// instruction of the region).
    init_remaining: Vec<u32>,
    init_live: Vec<bool>,
    live_in: [u32; REG_CLASS_COUNT],
    /// Side tables of the what-if cache, built by the first
    /// [`PressureTracker::new`]: a universe that only ever replays orders
    /// ([`prp_of_order_in`]) never pays for them.
    what_if: OnceLock<WhatIfTables>,
}

/// What issuing one instruction *now* would do to the live counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WhatIf {
    /// Net per-class pressure change: ranges opened minus ranges closed.
    pub delta: [i32; REG_CLASS_COUNT],
    /// Live ranges the issue would close.
    pub kills: u32,
    /// Live ranges the issue would open.
    pub opens: u32,
}

/// A [`WhatIf`] as the cache stores it: four bytes per instruction per
/// tracker, which is what every ant state copies when a lockstep class
/// splits.
///
/// [`PackedWhatIf::NOT_CACHED`] marks an entry the cache does not hold; a
/// read of it re-scans and a refresh skips it. Two kinds of instruction
/// carry it: one that has issued (nobody asks what issuing it again would
/// do, so refreshing it would be wasted), and one whose value does not fit
/// the fields. That takes over a hundred operands on one instruction, but
/// nothing stops a region from declaring them, and truncating the value
/// would silently change a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackedWhatIf {
    delta: [i8; REG_CLASS_COUNT],
    kills: u8,
    opens: u8,
}

impl PackedWhatIf {
    const NOT_CACHED: PackedWhatIf = PackedWhatIf {
        delta: [0; REG_CLASS_COUNT],
        kills: u8::MAX,
        opens: u8::MAX,
    };

    fn pack(w: WhatIf) -> PackedWhatIf {
        let narrow = || {
            let mut delta = [0i8; REG_CLASS_COUNT];
            for (packed, &wide) in delta.iter_mut().zip(&w.delta) {
                *packed = i8::try_from(wide).ok()?;
            }
            let (kills, opens) = (u8::try_from(w.kills).ok()?, u8::try_from(w.opens).ok()?);
            // `kills == MAX` is left to the marker, whatever the rest is.
            (kills != u8::MAX).then_some(PackedWhatIf {
                delta,
                kills,
                opens,
            })
        };
        narrow().unwrap_or(PackedWhatIf::NOT_CACHED)
    }

    #[inline]
    fn unpack(self) -> Option<WhatIf> {
        (self != PackedWhatIf::NOT_CACHED).then(|| WhatIf {
            delta: self.delta.map(i32::from),
            kills: u32::from(self.kills),
            opens: u32::from(self.opens),
        })
    }
}

/// The from-scratch operand scan behind every [`WhatIf`]: `id`'s defs that
/// are not live open a range, its used registers that are live with no use
/// left beyond `id`'s own occurrences close one.
fn scan_what_if(universe: &RegUniverse, live: &[bool], remaining: &[u32], id: InstrId) -> WhatIf {
    let mut w = WhatIf::default();
    for &ri in universe.defs(id) {
        if !live[ri.index()] {
            w.delta[universe.class[ri.index()].index()] += 1;
            w.opens += 1;
        }
    }
    for &(ri, occurrences) in universe.use_pairs(id) {
        let i = ri.index();
        if live[i] && remaining[i] <= occurrences {
            w.delta[universe.class[i].index()] -= 1;
            w.kills += 1;
        }
    }
    w
}

/// What keeping a [`WhatIf`] per instruction exact needs beyond the
/// counters: who to refresh when a register's state moves, when a
/// `remaining` count can matter, and the entry state to reset to.
#[derive(Debug, Clone)]
struct WhatIfTables {
    /// Register → the instructions that use or define it (each once,
    /// ascending), CSR-indexed by `toucher_off`. *Every* definer is listed,
    /// so a register defined twice keeps its later definer's entry exact.
    toucher_off: Vec<u32>,
    touchers: Vec<InstrId>,
    /// Largest occurrence count any one instruction uses the register
    /// with (1 for almost every register). A user's kill predicate
    /// `remaining[r] <= occurrences` cannot hold while
    /// `remaining[r] > max_occ[r]`.
    max_occ: Vec<u32>,
    /// Every instruction's entry at region entry.
    init: Vec<PackedWhatIf>,
}

impl WhatIfTables {
    fn new(universe: &RegUniverse) -> WhatIfTables {
        let regs = universe.class.len();
        let ids = || (0..universe.def_off.len() as u32 - 1).map(InstrId);
        // The registers an instruction touches, each once.
        let touched = |id: InstrId| {
            let (pairs, defs) = (universe.use_pairs(id), universe.defs(id));
            let used = pairs.iter().map(|&(r, _)| r);
            let only_defined = defs.iter().enumerate().filter_map(move |(k, &d)| {
                let seen = defs[..k].contains(&d) || pairs.iter().any(|&(r, _)| r == d);
                (!seen).then_some(d)
            });
            used.chain(only_defined)
        };
        let mut toucher_off = vec![0u32; regs + 1];
        let mut max_occ = vec![0u32; regs];
        for id in ids() {
            for r in touched(id) {
                toucher_off[r.index() + 1] += 1;
            }
            for &(r, occurrences) in universe.use_pairs(id) {
                max_occ[r.index()] = max_occ[r.index()].max(occurrences);
            }
        }
        for r in 0..regs {
            toucher_off[r + 1] += toucher_off[r];
        }
        let mut cursor = toucher_off.clone();
        let mut touchers = vec![InstrId(0); toucher_off[regs] as usize];
        for id in ids() {
            for r in touched(id) {
                touchers[cursor[r.index()] as usize] = id;
                cursor[r.index()] += 1;
            }
        }
        let (live, remaining) = (&universe.init_live, &universe.init_remaining);
        WhatIfTables {
            toucher_off,
            touchers,
            max_occ,
            init: ids()
                .map(|id| PackedWhatIf::pack(scan_what_if(universe, live, remaining, id)))
                .collect(),
        }
    }

    #[inline]
    fn touchers(&self, r: RegIdx) -> &[InstrId] {
        let i = r.index();
        &self.touchers[self.toucher_off[i] as usize..self.toucher_off[i + 1] as usize]
    }
}

impl RegUniverse {
    /// Interns all registers of a region.
    ///
    /// Registers are expected to be SSA-like (at most one def each), but a
    /// region that defines one twice is still tracked consistently: it is
    /// live-in only if *no* instruction defines it, whichever definer
    /// issues first opens its range, and a definer that finds it live
    /// opens nothing. (`sched-verify` reports such a region as `L002`.)
    pub fn new(ddg: &Ddg) -> RegUniverse {
        let mut lookup: [Vec<u32>; REG_CLASS_COUNT] = Default::default();
        // Per register: class, use occurrences so far, and whether no def
        // has been seen (the entry state of `remaining` and `live`).
        let mut class: Vec<RegClass> = Vec::new();
        let mut init_remaining: Vec<u32> = Vec::new();
        let mut init_live: Vec<bool> = Vec::new();
        let mut intern = |r: Reg,
                          class: &mut Vec<RegClass>,
                          remaining: &mut Vec<u32>,
                          live: &mut Vec<bool>|
         -> RegIdx {
            let table = &mut lookup[r.class().index()];
            let i = r.id() as usize;
            if table.len() <= i {
                table.resize(i + 1, u32::MAX);
            }
            if table[i] == u32::MAX {
                table[i] = class.len() as u32;
                class.push(r.class());
                remaining.push(0);
                live.push(true);
            }
            RegIdx(table[i])
        };
        let n = ddg.len();
        let mut def_off = Vec::with_capacity(n + 1);
        let mut def_idx = Vec::new();
        let mut use_pair_off = Vec::with_capacity(n + 1);
        let mut use_pairs = Vec::new();
        def_off.push(0u32);
        use_pair_off.push(0u32);
        // One instruction's use occurrences (a register used twice appears
        // twice), reused across instructions.
        let mut uses: Vec<RegIdx> = Vec::new();
        for id in ddg.ids() {
            let instr = ddg.instr(id);
            uses.clear();
            for &r in instr.uses() {
                let ri = intern(r, &mut class, &mut init_remaining, &mut init_live);
                init_remaining[ri.index()] += 1;
                uses.push(ri);
            }
            use_pairs.extend(dedup_occurrences(&uses));
            for &r in instr.defs() {
                let ri = intern(r, &mut class, &mut init_remaining, &mut init_live);
                init_live[ri.index()] = false;
                def_idx.push(ri);
            }
            use_pair_off.push(use_pairs.len() as u32);
            def_off.push(def_idx.len() as u32);
        }
        let mut live_in = [0u32; REG_CLASS_COUNT];
        for (c, _) in class.iter().zip(&init_live).filter(|&(_, &live)| live) {
            live_in[c.index()] += 1;
        }
        RegUniverse {
            class,
            def_off,
            def_idx,
            use_pair_off,
            use_pairs,
            init_remaining,
            init_live,
            live_in,
            what_if: OnceLock::new(),
        }
    }

    /// Number of distinct registers in the region.
    pub fn reg_count(&self) -> usize {
        self.class.len()
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
    /// The what-if cache: entry `i` is [`scan_what_if`] of instruction `i`
    /// under the current `live`/`remaining`, kept so by [`Self::issue`].
    /// `tables` is `None` (and the cache empty) only on the crate's own
    /// counters-only replay tracker, which answers no what-if query.
    tables: Option<&'u WhatIfTables>,
    what_if: Vec<PackedWhatIf>,
}

impl<'u> PressureTracker<'u> {
    /// Creates a tracker at region entry: live-ins live, nothing issued.
    pub fn new(universe: &'u RegUniverse) -> PressureTracker<'u> {
        let tables = universe.what_if.get_or_init(|| WhatIfTables::new(universe));
        PressureTracker {
            tables: Some(tables),
            what_if: tables.init.clone(),
            ..PressureTracker::counters_only(universe)
        }
    }

    /// A tracker that moves the counters and nothing else: what a replay
    /// of a finished order needs. Its what-if queries panic.
    fn counters_only(universe: &'u RegUniverse) -> PressureTracker<'u> {
        PressureTracker {
            universe,
            remaining: universe.init_remaining.clone(),
            live: universe.init_live.clone(),
            current: universe.live_in,
            peak: universe.live_in,
            tables: None,
            what_if: Vec::new(),
        }
    }

    /// Resets to region entry without reallocating (ants reuse trackers
    /// across iterations — the GPU implementation avoids dynamic allocation
    /// the same way). Three `memcpy`s from the universe's precomputed entry
    /// state.
    pub fn reset(&mut self) {
        self.remaining
            .copy_from_slice(&self.universe.init_remaining);
        self.live.copy_from_slice(&self.universe.init_live);
        self.current = self.universe.live_in;
        self.peak = self.current;
        if let Some(tables) = self.tables {
            self.what_if.copy_from_slice(&tables.init);
        }
    }

    /// Overwrites this tracker with `other`'s state without reallocating:
    /// `memcpy`s, like [`Self::reset`], but from a mid-construction state
    /// (the lockstep wavefront forks an ant state this way when the lanes
    /// sharing it pick different instructions). The what-if cache is part
    /// of the state and is copied, not recomputed.
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
        self.what_if.copy_from_slice(&other.what_if);
    }

    /// Issues an instruction: closes the live ranges of registers whose last
    /// use this is, then opens its defs' live ranges.
    ///
    /// Kills are processed before opens — an instruction's result may reuse
    /// the physical register of an operand it kills, so the two ranges do
    /// not overlap. This matches the paper's Figure-1 counting, where the
    /// `A,B,C,D,E,F,G` order has PRP 4 (not 5) even though `E` opens `r5`
    /// in the same cycle it kills `r1` and `r2`.
    ///
    /// A [`WhatIf`] entry depends only on `live[r]`/`remaining[r]` of the
    /// registers its instruction touches, so after each register moves,
    /// the entries of that register's touchers are refreshed — when the
    /// move can matter: a def that just went live, or a use count that has
    /// fallen to where some user's kill predicate (or, at zero, the
    /// register's liveness) can flip. A register with many users thus
    /// costs a refresh round when it is defined and when its last uses are
    /// near, not one per use; and `id`'s own entry leaves the cache, so
    /// later rounds pass over it.
    pub fn issue(&mut self, id: InstrId) {
        let (universe, tables) = (self.universe, self.tables);
        if tables.is_some() {
            self.what_if[id.index()] = PackedWhatIf::NOT_CACHED;
        }
        for &(ri, occurrences) in universe.use_pairs(id) {
            let i = ri.index();
            debug_assert!(
                self.live[i] || self.remaining[i] == 0,
                "use of a dead register: order violates def-use dependence"
            );
            let before = self.remaining[i];
            let left = before.saturating_sub(occurrences);
            self.remaining[i] = left;
            if before > 0 && left == 0 && self.live[i] {
                self.live[i] = false;
                self.current[universe.class[i].index()] -= 1;
            }
            if let Some(tables) = tables {
                if left <= tables.max_occ[i] {
                    self.refresh_touchers(tables, ri);
                }
            }
        }
        for &ri in universe.defs(id) {
            let i = ri.index();
            if !self.live[i] {
                self.live[i] = true;
                let c = universe.class[i].index();
                self.current[c] += 1;
                self.peak[c] = self.peak[c].max(self.current[c]);
                if let Some(tables) = tables {
                    self.refresh_touchers(tables, ri);
                }
            }
        }
    }

    /// Re-scans every instruction that names `r` and has a cached entry.
    fn refresh_touchers(&mut self, tables: &WhatIfTables, r: RegIdx) {
        for &id in tables.touchers(r) {
            let entry = &mut self.what_if[id.index()];
            if *entry != PackedWhatIf::NOT_CACHED {
                let scan = scan_what_if(self.universe, &self.live, &self.remaining, id);
                *entry = PackedWhatIf::pack(scan);
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

    /// What issuing `id` now would do, recomputed from its operand lists:
    /// the routine that fills the cache (and answers for an entry the
    /// cache does not hold). Public for tests to hold the cached queries
    /// against; schedulers read [`Self::net_change`] and its siblings.
    pub fn what_if_from_scratch(&self, id: InstrId) -> WhatIf {
        scan_what_if(self.universe, &self.live, &self.remaining, id)
    }

    /// The entry of `id`: a read, unless the cache does not hold it.
    #[inline]
    fn what_if(&self, id: InstrId) -> WhatIf {
        self.what_if[id.index()]
            .unpack()
            .unwrap_or_else(|| self.what_if_from_scratch(id))
    }

    /// Net per-class pressure change if `id` were issued now: defs that
    /// would open a range minus uses that would close one.
    #[inline]
    pub fn net_change(&self, id: InstrId) -> [i32; REG_CLASS_COUNT] {
        self.what_if(id).delta
    }

    /// Number of live ranges issuing `id` would close (the Last-Use-Count
    /// priority of Shobaki et al. 2015).
    #[inline]
    pub fn kills(&self, id: InstrId) -> u32 {
        self.what_if(id).kills
    }

    /// Number of live ranges issuing `id` would open.
    #[inline]
    pub fn opens(&self, id: InstrId) -> u32 {
        self.what_if(id).opens
    }

    /// Peak pressure if `id` were issued now, per class — without mutating
    /// the tracker. Used by the pass-2 RP-constraint check.
    #[inline]
    pub fn peak_after(&self, id: InstrId) -> [u32; REG_CLASS_COUNT] {
        self.peak_after_delta(self.net_change(id))
    }

    /// Whether an issue with net change `delta` would push any class above
    /// its peak so far. When it would not, [`Self::peak_after_delta`] is
    /// [`Self::peak`] and everything derived from the peak (its APRP cost,
    /// its occupancy) is what it already was.
    #[inline]
    pub fn raises_peak(&self, delta: [i32; REG_CLASS_COUNT]) -> bool {
        (0..REG_CLASS_COUNT).any(|c| self.current[c] as i32 + delta[c] > self.peak[c] as i32)
    }

    /// [`Self::peak_after`] for a [`Self::net_change`] delta the caller
    /// already holds.
    #[inline]
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
/// Replays on the counters alone: nobody reads a what-if along a finished
/// order, so none is kept.
pub fn prp_of_order_in(universe: &RegUniverse, order: &[InstrId]) -> [u32; REG_CLASS_COUNT] {
    let mut t = PressureTracker::counters_only(universe);
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
    #[should_panic(expected = "exceeds the maximum 1048575")]
    fn an_api_built_region_cannot_name_an_id_past_the_limit() {
        // The id that used to make `RegUniverse::new` ask for 2^32 table
        // entries: the register itself is refused, before any table exists.
        let mut b = DdgBuilder::new();
        b.instr("def", [Reg::vgpr(u32::MAX)], []);
        RegUniverse::new(&b.build().unwrap());
    }

    #[test]
    fn the_largest_id_interns_like_any_other() {
        let mut b = DdgBuilder::new();
        let d = b.instr("def", [Reg::vgpr(sched_ir::MAX_REG_ID)], []);
        let u = b.instr("use", [], [Reg::vgpr(sched_ir::MAX_REG_ID), Reg::sgpr(0)]);
        b.edge(d, u, 1).unwrap();
        let universe = RegUniverse::new(&b.build().unwrap());
        assert_eq!(universe.reg_count(), 2);
        assert_eq!(universe.live_in(), [0, 1]);
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
