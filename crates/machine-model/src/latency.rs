//! Operation kinds and default latencies for a Vega-like GPU.
//!
//! Latencies annotate DDG edges. The values are representative of the
//! relative costs on the paper's target (vector ALU ops complete quickly;
//! memory operations have long, occupancy-hideable latencies) — the
//! workload generators use them to produce realistically latency-shaped
//! regions.

/// Coarse operation classes of an AMD GCN-like ISA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Vector ALU operation (`v_add_f32`, ...).
    ValuAlu,
    /// Scalar ALU operation (`s_add_u32`, ...).
    SaluAlu,
    /// Vector memory load (`global_load_dword`, ...).
    VMemLoad,
    /// Vector memory store.
    VMemStore,
    /// Scalar (constant) memory load (`s_load_dword`, ...).
    SMemLoad,
    /// LDS (shared-memory) access.
    Lds,
    /// Transcendental / quarter-rate vector op.
    VTrans,
}

impl OpKind {
    /// All kinds, for enumeration in tests and generators.
    pub const ALL: [OpKind; 7] = [
        OpKind::ValuAlu,
        OpKind::SaluAlu,
        OpKind::VMemLoad,
        OpKind::VMemStore,
        OpKind::SMemLoad,
        OpKind::Lds,
        OpKind::VTrans,
    ];

    /// Short mnemonic prefix for generated instruction names.
    pub fn mnemonic(self) -> &'static str {
        match self {
            OpKind::ValuAlu => "v_alu",
            OpKind::SaluAlu => "s_alu",
            OpKind::VMemLoad => "v_load",
            OpKind::VMemStore => "v_store",
            OpKind::SMemLoad => "s_load",
            OpKind::Lds => "ds_op",
            OpKind::VTrans => "v_trans",
        }
    }
}

/// Default producer→consumer latency (in cycles) of an operation kind.
///
/// ```
/// use machine_model::{op_latency, OpKind};
/// assert!(op_latency(OpKind::VMemLoad) > op_latency(OpKind::ValuAlu));
/// ```
pub fn op_latency(kind: OpKind) -> u16 {
    match kind {
        OpKind::ValuAlu => 1,
        OpKind::SaluAlu => 1,
        OpKind::VMemLoad => 64,
        OpKind::VMemStore => 1,
        OpKind::SMemLoad => 24,
        OpKind::Lds => 12,
        OpKind::VTrans => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_latencies_dominate_alu() {
        for k in [OpKind::VMemLoad, OpKind::SMemLoad, OpKind::Lds] {
            assert!(op_latency(k) > op_latency(OpKind::ValuAlu), "{k:?}");
        }
    }

    #[test]
    fn all_kinds_have_nonzero_latency_and_unique_mnemonics() {
        let mut names = std::collections::HashSet::new();
        for k in OpKind::ALL {
            assert!(op_latency(k) >= 1);
            assert!(names.insert(k.mnemonic()), "duplicate mnemonic for {k:?}");
        }
    }
}
