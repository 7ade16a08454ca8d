//! Instructions and virtual registers.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of register classes modelled ([`RegClass::Vgpr`] and
/// [`RegClass::Sgpr`]). Arrays indexed by class use this length.
pub const REG_CLASS_COUNT: usize = 2;

/// A register class on an AMD-style GPU target.
///
/// Vector registers (VGPRs) are per-lane and are the occupancy-limiting
/// resource on the paper's Radeon VII target; scalar registers (SGPRs) are
/// shared per wavefront.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
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

/// A virtual register: a class plus an id unique within the region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Reg {
    /// Register class.
    pub class: RegClass,
    /// Id unique within the scheduling region (per class ids may overlap
    /// across classes).
    pub id: u32,
}

impl Reg {
    /// A vector register with the given id.
    ///
    /// ```
    /// use sched_ir::{Reg, RegClass};
    /// assert_eq!(Reg::vgpr(3).class, RegClass::Vgpr);
    /// ```
    #[inline]
    pub fn vgpr(id: u32) -> Reg {
        Reg {
            class: RegClass::Vgpr,
            id,
        }
    }

    /// A scalar register with the given id.
    #[inline]
    pub fn sgpr(id: u32) -> Reg {
        Reg {
            class: RegClass::Sgpr,
            id,
        }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class {
            RegClass::Vgpr => write!(f, "v{}", self.id),
            RegClass::Sgpr => write!(f, "s{}", self.id),
        }
    }
}

/// A per-class dense table keyed by register id: the workspace's one
/// replacement for `HashMap<Reg, T>` on per-region paths.
///
/// Generators hand out small dense ids and the text-IR front door caps
/// them ([`crate::textir::MAX_REG_ID`]), so a table stays compact. A slot
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
        let table = &mut self.classes[r.class.index()];
        let i = r.id as usize;
        if table.len() <= i {
            table.resize(i + 1, T::default());
        }
        &mut table[i]
    }

    /// The slot of `r`, or `None` beyond the highest id touched so far.
    #[inline]
    pub fn get(&self, r: Reg) -> Option<&T> {
        self.classes[r.class.index()].get(r.id as usize)
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
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

/// An instruction with its *Def* and *Use* register sets.
///
/// Latencies live on DDG edges, not on the instruction, matching the paper's
/// problem definition where an edge label is the latency that must elapse
/// between the producer and the consumer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Instruction {
    name: String,
    defs: Vec<Reg>,
    uses: Vec<Reg>,
}

impl Instruction {
    /// Creates an instruction from its name and Def/Use sets.
    pub fn new(
        name: impl Into<String>,
        defs: impl IntoIterator<Item = Reg>,
        uses: impl IntoIterator<Item = Reg>,
    ) -> Instruction {
        Instruction {
            name: name.into(),
            defs: defs.into_iter().collect(),
            uses: uses.into_iter().collect(),
        }
    }

    /// Mnemonic used for display and debugging.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Registers defined (written) by this instruction.
    pub fn defs(&self) -> &[Reg] {
        &self.defs
    }

    /// Registers used (read) by this instruction.
    pub fn uses(&self) -> &[Reg] {
        &self.uses
    }

    /// Number of registers of `class` defined by this instruction.
    pub fn defs_of(&self, class: RegClass) -> usize {
        self.defs.iter().filter(|r| r.class == class).count()
    }

    /// Number of registers of `class` used by this instruction.
    pub fn uses_of(&self, class: RegClass) -> usize {
        self.uses.iter().filter(|r| r.class == class).count()
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if !self.defs.is_empty() {
            write!(f, " defs[")?;
            for (i, r) in self.defs.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{r}")?;
            }
            write!(f, "]")?;
        }
        if !self.uses.is_empty() {
            write!(f, " uses[")?;
            for (i, r) in self.uses.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{r}")?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_constructors_set_class() {
        assert_eq!(
            Reg::vgpr(7),
            Reg {
                class: RegClass::Vgpr,
                id: 7
            }
        );
        assert_eq!(
            Reg::sgpr(7),
            Reg {
                class: RegClass::Sgpr,
                id: 7
            }
        );
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
        let i = Instruction::new(
            "v_add",
            [Reg::vgpr(0), Reg::sgpr(1)],
            [Reg::vgpr(2), Reg::vgpr(3), Reg::sgpr(4)],
        );
        assert_eq!(i.defs_of(RegClass::Vgpr), 1);
        assert_eq!(i.defs_of(RegClass::Sgpr), 1);
        assert_eq!(i.uses_of(RegClass::Vgpr), 2);
        assert_eq!(i.uses_of(RegClass::Sgpr), 1);
    }

    #[test]
    fn instruction_display_mentions_operands() {
        let i = Instruction::new("mul", [Reg::vgpr(1)], [Reg::vgpr(0)]);
        let s = i.to_string();
        assert!(s.contains("mul"));
        assert!(s.contains("v1"));
        assert!(s.contains("v0"));
    }

    #[test]
    fn instr_id_roundtrips_index() {
        assert_eq!(InstrId(42).index(), 42);
        assert_eq!(InstrId::from(9u32), InstrId(9));
        assert_eq!(InstrId(3).to_string(), "i3");
    }
}
