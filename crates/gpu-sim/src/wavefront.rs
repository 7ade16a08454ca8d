//! Per-wavefront cost accounting.

use crate::spec::GpuSpec;

/// Memory layout of a per-thread data structure on the device.
///
/// The paper's central memory optimization (Section V-A) replaces
/// per-object members with *arrays of members indexed by thread*
/// (structure-of-arrays), so that lanes of a wavefront touch consecutive
/// addresses and their accesses coalesce into one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemLayout {
    /// Structure-of-arrays: one array per member, element per thread.
    /// Wavefront accesses coalesce.
    Soa,
    /// Array-of-structures: per-thread objects. Wavefront accesses scatter.
    Aos,
}

/// Accumulates the execution cost of one wavefront in device cycles.
///
/// The ACO kernel drives one `WavefrontCost` per wavefront per iteration,
/// calling the step methods as it simulates the lockstep execution of its
/// 64 ants.
///
/// # Example
///
/// ```
/// use gpu_sim::{GpuSpec, MemLayout, WavefrontCost};
///
/// let spec = GpuSpec::radeon_vii();
/// let mut wf = WavefrontCost::new(&spec);
/// wf.uniform(10);                       // 10 lockstep SIMT steps
/// wf.mem_access(64, MemLayout::Soa);    // coalesced: 1 transaction
/// wf.mem_access(64, MemLayout::Aos);    // scattered: 64 transactions
/// assert!(wf.cycles() > 0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WavefrontCost {
    wavefront_size: u32,
    alu_op_cycles: u64,
    mem_transaction_cycles: u64,
    cycles: u64,
    divergent_steps: u64,
    mem_transactions: u64,
}

impl WavefrontCost {
    /// A zero-cost wavefront on the given device.
    pub fn new(spec: &GpuSpec) -> WavefrontCost {
        WavefrontCost {
            wavefront_size: spec.wavefront_size,
            alu_op_cycles: spec.alu_op_cycles,
            mem_transaction_cycles: spec.mem_transaction_cycles,
            cycles: 0,
            divergent_steps: 0,
            mem_transactions: 0,
        }
    }

    /// `steps` lockstep SIMT steps executed by all active lanes together.
    pub fn uniform(&mut self, steps: u64) {
        self.cycles += steps * self.alu_op_cycles;
    }

    /// A divergent region: lanes partition into control paths with the
    /// given per-path step counts; paths execute serially (the SIMT
    /// re-convergence stack), so the wavefront pays the *sum*.
    ///
    /// A single-path call is equivalent to [`Self::uniform`].
    pub fn diverge(&mut self, path_steps: &[u64]) {
        let total: u64 = path_steps.iter().sum();
        self.cycles += total * self.alu_op_cycles;
        if path_steps.iter().filter(|&&s| s > 0).count() > 1 {
            self.divergent_steps += total;
        }
    }

    /// One memory access by `active_lanes` lanes under the given layout:
    /// coalesced (SoA) accesses fuse into `ceil(active/wavefront)`
    /// transactions; scattered (AoS) accesses pay one transaction per lane.
    pub fn mem_access(&mut self, active_lanes: u32, layout: MemLayout) {
        if active_lanes == 0 {
            return;
        }
        let tx = match layout {
            MemLayout::Soa => active_lanes.div_ceil(self.wavefront_size) as u64,
            MemLayout::Aos => active_lanes as u64,
        };
        self.mem_transactions += tx;
        self.cycles += tx * self.mem_transaction_cycles;
    }

    /// `count` repeated accesses with identical shape (convenience for
    /// bulk array traversals).
    pub fn mem_accesses(&mut self, count: u64, active_lanes: u32, layout: MemLayout) {
        if active_lanes == 0 || count == 0 {
            return;
        }
        let per = match layout {
            MemLayout::Soa => active_lanes.div_ceil(self.wavefront_size) as u64,
            MemLayout::Aos => active_lanes as u64,
        };
        self.mem_transactions += per * count;
        self.cycles += per * count * self.mem_transaction_cycles;
    }

    /// Total accumulated cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Steps spent in divergent (serialized) paths — an observability hook
    /// used by the divergence-ablation experiments.
    pub fn divergent_steps(&self) -> u64 {
        self.divergent_steps
    }

    /// Total memory transactions issued.
    pub fn mem_transactions(&self) -> u64 {
        self.mem_transactions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wf() -> WavefrontCost {
        WavefrontCost::new(&GpuSpec::radeon_vii())
    }

    #[test]
    fn uniform_accumulates_alu_cycles() {
        let mut w = wf();
        w.uniform(10);
        assert_eq!(w.cycles(), 10 * 4);
        assert_eq!(w.divergent_steps(), 0);
    }

    #[test]
    fn diverge_serializes_paths() {
        let mut w = wf();
        w.diverge(&[7, 3]);
        assert_eq!(w.cycles(), 10 * 4);
        assert_eq!(w.divergent_steps(), 10);
        // One-sided branch is not divergence.
        let mut u = wf();
        u.diverge(&[7, 0]);
        assert_eq!(u.cycles(), 7 * 4);
        assert_eq!(u.divergent_steps(), 0);
    }

    #[test]
    fn coalesced_access_is_one_transaction() {
        let mut w = wf();
        w.mem_access(64, MemLayout::Soa);
        assert_eq!(w.mem_transactions(), 1);
        w.mem_access(64, MemLayout::Aos);
        assert_eq!(w.mem_transactions(), 1 + 64);
    }

    #[test]
    fn partial_wavefront_coalesces_to_one() {
        let mut w = wf();
        w.mem_access(13, MemLayout::Soa);
        assert_eq!(w.mem_transactions(), 1);
        w.mem_access(13, MemLayout::Aos);
        assert_eq!(w.mem_transactions(), 14);
        w.mem_access(0, MemLayout::Aos);
        assert_eq!(w.mem_transactions(), 14);
    }

    #[test]
    fn bulk_accesses_match_repeated_single() {
        let mut a = wf();
        a.mem_accesses(10, 64, MemLayout::Aos);
        let mut b = wf();
        for _ in 0..10 {
            b.mem_access(64, MemLayout::Aos);
        }
        assert_eq!(a.cycles(), b.cycles());
        assert_eq!(a.mem_transactions(), b.mem_transactions());
    }

    #[test]
    fn soa_is_much_cheaper_than_aos() {
        let mut soa = wf();
        let mut aos = wf();
        soa.mem_accesses(100, 64, MemLayout::Soa);
        aos.mem_accesses(100, 64, MemLayout::Aos);
        assert_eq!(aos.cycles(), 64 * soa.cycles());
    }
}
