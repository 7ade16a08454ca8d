//! The sequential-CPU cost model.

/// Parameters of the simulated host CPU.
///
/// Defaults model the paper's AMD Ryzen Threadripper 1950X at 3.4 GHz. The
/// sequential ACO scheduler charges [`CpuSpec::op_time_us`] per abstract
/// operation (a ready-list comparison, a pheromone read, a successor-list
/// step, ...) — the same unit of work the GPU model prices per wavefront
/// step, so the two sides are directly comparable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSpec {
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Average cycles per abstract operation (covers instruction overhead,
    /// branch misses and cache effects of pointer-heavy scheduler code).
    pub cycles_per_op: f64,
}

impl CpuSpec {
    /// The Threadripper-1950X-like model used by all experiments.
    pub fn threadripper() -> CpuSpec {
        CpuSpec {
            clock_ghz: 3.4,
            cycles_per_op: 3.0,
        }
    }

    /// Microseconds to execute `ops` abstract operations sequentially.
    pub fn op_time_us(&self, ops: u64) -> f64 {
        ops as f64 * self.cycles_per_op / (self.clock_ghz * 1e3)
    }
}

impl Default for CpuSpec {
    fn default() -> CpuSpec {
        CpuSpec::threadripper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_time_scales_linearly() {
        let c = CpuSpec::threadripper();
        let one = c.op_time_us(1_000);
        let ten = c.op_time_us(10_000);
        assert!((ten / one - 10.0).abs() < 1e-9);
    }

    #[test]
    fn threadripper_rate_is_about_a_gigaop() {
        let c = CpuSpec::threadripper();
        // 3.4 GHz / 3 cycles/op ≈ 1.13 Gop/s → ~0.88 us per 1000 ops.
        let us = c.op_time_us(1_000);
        assert!(us > 0.5 && us < 1.5, "got {us}");
    }
}
