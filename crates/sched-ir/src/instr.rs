//! Instructions and virtual registers.

use std::fmt;

/// Number of register classes modelled ([`RegClass::Vgpr`] and
/// [`RegClass::Sgpr`]). Arrays indexed by class use this length.
pub const REG_CLASS_COUNT: usize = 2;

/// A register class on an AMD-style GPU target.
///
/// Vector registers (VGPRs) are per-lane and are the occupancy-limiting
/// resource on the paper's Radeon VII target; scalar registers (SGPRs) are
/// shared per wavefront.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegClass {
    /// Vector general-purpose register (per thread).
    Vgpr,
    /// Scalar general-purpose register (per wavefront).
    Sgpr,
}

impl RegClass {
    /// All register classes, in index order.
    pub const ALL: [RegClass; REG_CLASS_COUNT] = [RegClass::Vgpr, RegClass::Sgpr];

    /// Dense index of this class, for `[T; REG_CLASS_COUNT]` tables.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            RegClass::Vgpr => 0,
            RegClass::Sgpr => 1,
        }
    }
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegClass::Vgpr => write!(f, "VGPR"),
            RegClass::Sgpr => write!(f, "SGPR"),
        }
    }
}

/// Largest register id a [`Reg`] holds. Every per-register table in the
/// workspace is dense in the id ([`RegTable`], the pressure tracker's
/// universe), so the id bounds an allocation; real regions use a few
/// thousand ids at most.
pub const MAX_REG_ID: u32 = (1 << 20) - 1;

/// The bit of a [`Reg`] that marks an SGPR. Above every id, so the derived
/// order is (class, id).
const SGPR_BIT: u32 = 1 << 31;

/// A virtual register: a class plus an id unique within the region
/// (ids may overlap across classes), packed in one `u32` — the class in
/// bit 31, the id (at most [`MAX_REG_ID`]) in the low bits. Ordered by
/// class, then id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u32);

const _: () = assert!(std::mem::size_of::<Reg>() == 4);

impl Reg {
    /// A vector register with the given id.
    ///
    /// ```
    /// use sched_ir::{Reg, RegClass};
    /// assert_eq!(Reg::vgpr(3).class(), RegClass::Vgpr);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `id` exceeds [`MAX_REG_ID`].
    #[inline]
    #[track_caller]
    pub fn vgpr(id: u32) -> Reg {
        Reg(checked_id(id))
    }

    /// A scalar register with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` exceeds [`MAX_REG_ID`].
    #[inline]
    #[track_caller]
    pub fn sgpr(id: u32) -> Reg {
        Reg(SGPR_BIT | checked_id(id))
    }

    /// Register class.
    #[inline]
    pub fn class(self) -> RegClass {
        if self.0 & SGPR_BIT == 0 {
            RegClass::Vgpr
        } else {
            RegClass::Sgpr
        }
    }

    /// Id within the region and class.
    #[inline]
    pub fn id(self) -> u32 {
        self.0 & !SGPR_BIT
    }
}

#[inline]
#[track_caller]
fn checked_id(id: u32) -> u32 {
    assert!(
        id <= MAX_REG_ID,
        "register id {id} exceeds the maximum {MAX_REG_ID}"
    );
    id
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Reg")
            .field("class", &self.class())
            .field("id", &self.id())
            .finish()
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class() {
            RegClass::Vgpr => write!(f, "v{}", self.id()),
            RegClass::Sgpr => write!(f, "s{}", self.id()),
        }
    }
}

/// A per-class dense table keyed by register id: the workspace's one
/// replacement for `HashMap<Reg, T>` on per-region paths.
///
/// Generators hand out small dense ids and [`Reg`] caps them at
/// [`MAX_REG_ID`], so a table stays compact. A slot
/// nobody touched reads as `T::default()`; callers pick a `T` whose default
/// means "register not mentioned".
#[derive(Debug, Clone, Default)]
pub struct RegTable<T> {
    classes: [Vec<T>; REG_CLASS_COUNT],
}

impl<T: Clone + Default> RegTable<T> {
    /// An empty table.
    pub fn new() -> RegTable<T> {
        RegTable::default()
    }

    /// The slot of `r`, growing its class's table to cover it.
    #[inline]
    pub fn slot(&mut self, r: Reg) -> &mut T {
        let table = &mut self.classes[r.class().index()];
        let i = r.id() as usize;
        if table.len() <= i {
            table.resize(i + 1, T::default());
        }
        &mut table[i]
    }

    /// The slot of `r`, or `None` beyond the highest id touched so far.
    #[inline]
    pub fn get(&self, r: Reg) -> Option<&T> {
        self.classes[r.class().index()].get(r.id() as usize)
    }

    /// All slots of one class (by [`RegClass::index`]), indexed by
    /// register id — untouched holes included.
    pub fn class(&self, class: usize) -> &[T] {
        &self.classes[class]
    }
}

/// Index of an instruction within its [`crate::Ddg`].
///
/// `InstrId`s are dense: a region with `n` instructions uses ids `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstrId(pub u32);

impl InstrId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InstrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

impl From<u32> for InstrId {
    fn from(v: u32) -> InstrId {
        InstrId(v)
    }
}

/// One instruction of an [`InstrTable`]: its name and its *Def* / *Use*
/// register sets, read as slices of the table's buffers. Latencies live on
/// DDG edges, as in the paper's problem definition, not on the instruction.
#[derive(Clone, Copy)]
pub struct Instr<'a> {
    table: &'a InstrTable,
    i: usize,
}

impl<'a> Instr<'a> {
    /// End offsets of this row (`back` 0) or of the one before — this row's starts, zeros for row 0.
    fn ends(&self, back: usize) -> [u32; 3] {
        let row = self.i.checked_sub(back);
        row.map_or([0; 3], |i| self.table.ends[i])
    }

    /// Mnemonic used for display and debugging.
    pub fn name(&self) -> &'a str {
        &self.table.names[self.ends(1)[0] as usize..self.ends(0)[0] as usize]
    }

    /// Registers defined (written) by this instruction.
    pub fn defs(&self) -> &'a [Reg] {
        &self.table.regs[self.ends(1)[2] as usize..self.ends(0)[1] as usize]
    }

    /// Registers used (read) by this instruction.
    pub fn uses(&self) -> &'a [Reg] {
        &self.table.regs[self.ends(0)[1] as usize..self.ends(0)[2] as usize]
    }

    /// Number of registers of `class` defined by this instruction.
    pub fn defs_of(&self, class: RegClass) -> usize {
        self.defs().iter().filter(|r| r.class() == class).count()
    }
}

impl fmt::Debug for Instr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Instr({self})")
    }
}

impl fmt::Display for Instr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())?;
        for (open, regs) in [(" defs[", self.defs()), (" uses[", self.uses())] {
            for (i, r) in regs.iter().enumerate() {
                write!(f, "{}{r}", if i == 0 { open } else { "," })?;
            }
            if !regs.is_empty() {
                write!(f, "]")?;
            }
        }
        Ok(())
    }
}

/// The instructions of a region in structure-of-arrays form: three
/// exact-fit heap blocks whatever the count, so cloning, comparing and
/// dropping a table never walks per-instruction allocations. Immutable:
/// [`crate::DdgBuilder`] and the text front door fill growable buffers and
/// freeze them into a table once the last instruction is in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstrTable {
    /// Every name, back to back.
    pub(crate) names: Box<str>,
    /// Every register: per instruction its defs, then its uses.
    pub(crate) regs: Box<[Reg]>,
    /// Per instruction, where its name ends in `names` and where its defs
    /// and its uses end in `regs`; each starts where the previous one ends.
    pub(crate) ends: Box<[[u32; 3]]>,
}

impl InstrTable {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the table holds no instruction.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The instruction at index `i`; panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> Instr<'_> {
        assert!(i < self.len(), "instruction {i} of {}", self.len());
        Instr { table: self, i }
    }
}

/// An [`InstrTable`] being filled: the same three buffers, growable.
#[derive(Debug, Clone, Default)]
pub(crate) struct TableBuilder {
    pub(crate) names: String,
    pub(crate) regs: Vec<Reg>,
    pub(crate) ends: Vec<[u32; 3]>,
}

impl TableBuilder {
    /// Number of instructions.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Appends an instruction from its name and Def/Use sets.
    pub(crate) fn push(
        &mut self,
        name: impl fmt::Display,
        defs: impl IntoIterator<Item = Reg>,
        uses: impl IntoIterator<Item = Reg>,
    ) {
        use fmt::Write;
        write!(self.names, "{name}").expect("writing to a String cannot fail");
        self.regs.extend(defs);
        let defs_end = self.regs.len();
        self.regs.extend(uses);
        self.close_row(defs_end);
    }

    /// Ends the row whose name and registers were appended to `names` and
    /// `regs` since the previous row; its defs stop at `regs[defs_end]`.
    pub(crate) fn close_row(&mut self, defs_end: usize) {
        let end = |len: usize| u32::try_from(len).expect("region IR offsets fit u32");
        let row = [self.names.len(), defs_end, self.regs.len()];
        self.ends.push(row.map(end));
    }

    /// The exact-fit table.
    pub(crate) fn finish(self) -> InstrTable {
        InstrTable {
            names: self.names.into_boxed_str(),
            regs: self.regs.into_boxed_slice(),
            ends: self.ends.into_boxed_slice(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_constructors_set_class() {
        assert_eq!(
            (Reg::vgpr(7).class(), Reg::vgpr(7).id()),
            (RegClass::Vgpr, 7)
        );
        assert_eq!(
            (Reg::sgpr(7).class(), Reg::sgpr(7).id()),
            (RegClass::Sgpr, 7)
        );
        let top = Reg::sgpr(MAX_REG_ID);
        assert_eq!((top.class(), top.id()), (RegClass::Sgpr, MAX_REG_ID));
    }

    #[test]
    fn reg_order_is_class_then_id_and_debug_names_both() {
        let mut regs = [
            Reg::sgpr(0),
            Reg::vgpr(MAX_REG_ID),
            Reg::sgpr(2),
            Reg::vgpr(1),
        ];
        regs.sort();
        assert_eq!(
            regs,
            [
                Reg::vgpr(1),
                Reg::vgpr(MAX_REG_ID),
                Reg::sgpr(0),
                Reg::sgpr(2)
            ]
        );
        assert_eq!(format!("{:?}", Reg::sgpr(5)), "Reg { class: Sgpr, id: 5 }");
    }

    #[test]
    #[should_panic(expected = "register id 1048576 exceeds the maximum 1048575")]
    fn a_vgpr_id_past_the_limit_panics() {
        Reg::vgpr(MAX_REG_ID + 1);
    }

    #[test]
    fn reg_display_uses_amd_syntax() {
        assert_eq!(Reg::vgpr(3).to_string(), "v3");
        assert_eq!(Reg::sgpr(12).to_string(), "s12");
    }

    #[test]
    fn reg_table_is_per_class_and_defaults_untouched_slots() {
        let mut t: RegTable<u32> = RegTable::new();
        assert_eq!(t.get(Reg::vgpr(0)), None);
        *t.slot(Reg::vgpr(3)) += 2;
        *t.slot(Reg::sgpr(1)) += 5;
        assert_eq!(t.get(Reg::vgpr(3)), Some(&2));
        assert_eq!(t.get(Reg::vgpr(1)), Some(&0), "hole below a touched id");
        assert_eq!(t.get(Reg::vgpr(4)), None);
        assert_eq!(t.get(Reg::sgpr(3)), None, "classes do not share ids");
        assert_eq!(t.class(RegClass::Vgpr.index()), &[0, 0, 0, 2]);
        assert_eq!(t.class(RegClass::Sgpr.index()), &[0, 5]);
    }

    #[test]
    fn class_indexes_are_dense_and_distinct() {
        let mut seen = [false; REG_CLASS_COUNT];
        for c in RegClass::ALL {
            assert!(!seen[c.index()], "duplicate index for {c}");
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn instruction_counts_defs_and_uses_per_class() {
        let mut t = TableBuilder::default();
        t.push(
            "v_add",
            [Reg::vgpr(0), Reg::sgpr(1)],
            [Reg::vgpr(2), Reg::vgpr(3), Reg::sgpr(4)],
        );
        let t = t.finish();
        let i = t.get(0);
        assert_eq!(i.defs_of(RegClass::Vgpr), 1);
        assert_eq!(i.defs_of(RegClass::Sgpr), 1);
    }

    #[test]
    fn instruction_display_mentions_operands() {
        let mut t = TableBuilder::default();
        t.push("mul", [Reg::vgpr(1)], [Reg::vgpr(0)]);
        assert_eq!(t.finish().get(0).to_string(), "mul defs[v1] uses[v0]");
    }

    #[test]
    fn table_rows_share_buffers_and_keep_their_own_slices() {
        let mut t = TableBuilder::default();
        t.push("ld", [Reg::vgpr(0)], []);
        t.push(format_args!("add_{}", 1), [], [Reg::vgpr(0), Reg::sgpr(2)]);
        t.push("", [], []);
        let t = t.finish();
        assert_eq!(t.len(), 3);
        let rows: Vec<_> = (0..3)
            .map(|i| t.get(i))
            .map(|i| (i.name(), i.defs().len(), i.uses().len()))
            .collect();
        assert_eq!(rows, [("ld", 1, 0), ("add_1", 0, 2), ("", 0, 0)]);
        assert_eq!(t.get(1).uses(), &[Reg::vgpr(0), Reg::sgpr(2)]);
    }

    #[test]
    fn instr_id_roundtrips_index() {
        assert_eq!(InstrId(42).index(), 42);
        assert_eq!(InstrId::from(9u32), InstrId(9));
        assert_eq!(InstrId(3).to_string(), "i3");
    }
}
