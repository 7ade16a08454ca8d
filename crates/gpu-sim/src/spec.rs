//! GPU hardware parameters and launch-level cost aggregation.

/// Parameters of the simulated GPU.
///
/// Defaults ([`GpuSpec::radeon_vii`]) model the paper's target: a Radeon VII
/// (Vega 20) with 60 CUs of 4 SIMD units each, 64-lane wavefronts, 1.8 GHz.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Number of compute units.
    pub cus: u32,
    /// SIMD units per CU (each executes one wavefront at a time).
    pub simds_per_cu: u32,
    /// Threads per wavefront.
    pub wavefront_size: u32,
    /// Shader clock in GHz.
    pub clock_ghz: f64,
    /// Cycles one SIMT arithmetic/control step costs a wavefront.
    pub alu_op_cycles: u64,
    /// Cycles one memory *transaction* costs a wavefront.
    pub mem_transaction_cycles: u64,
    /// Fixed cost of launching a kernel, in microseconds.
    pub launch_overhead_us: f64,
    /// Fixed per-call cost of a host↔device copy, in microseconds.
    pub copy_call_overhead_us: f64,
    /// Host↔device copy bandwidth, GiB/s.
    pub copy_bandwidth_gibps: f64,
    /// Fixed per-call cost of a *device-side* dynamic allocation, in
    /// microseconds. Device allocators are notoriously slow (the paper
    /// cites ScatterAlloc); the optimized implementation avoids them
    /// entirely.
    pub device_alloc_overhead_us: f64,
    /// Fixed per-call cost of a host-side allocation, in microseconds.
    pub host_alloc_overhead_us: f64,
}

impl GpuSpec {
    /// The Radeon VII-like model used by all experiments.
    pub fn radeon_vii() -> GpuSpec {
        GpuSpec {
            cus: 60,
            simds_per_cu: 4,
            wavefront_size: 64,
            clock_ghz: 1.8,
            alu_op_cycles: 4,
            mem_transaction_cycles: 12,
            launch_overhead_us: 12.0,
            copy_call_overhead_us: 3.0,
            copy_bandwidth_gibps: 12.0,
            device_alloc_overhead_us: 15.0,
            host_alloc_overhead_us: 0.15,
        }
    }

    /// Maximum number of wavefronts executing concurrently.
    pub fn concurrent_wavefronts(&self) -> u32 {
        self.cus * self.simds_per_cu
    }

    /// Kernel execution cycles for one launch given each wavefront's total
    /// cycle count.
    ///
    /// Wavefronts (= blocks, as in the paper's 64-thread blocks) are
    /// assigned round-robin to CUs, then to SIMD units within a CU; the
    /// kernel completes when the most loaded SIMD drains.
    pub fn kernel_cycles(&self, wavefront_cycles: &[u64]) -> u64 {
        if wavefront_cycles.is_empty() {
            return 0;
        }
        let slots = self.concurrent_wavefronts() as usize;
        let used = slots.min(wavefront_cycles.len());
        // Strided per-SIMD sums instead of a scratch `vec![0; used]`: this
        // runs once per ACO iteration inside the allocation-free hot loop.
        let mut max_load = 0u64;
        for j in 0..used {
            let mut load = 0u64;
            let mut i = j;
            while i < wavefront_cycles.len() {
                load += wavefront_cycles[i];
                i += used;
            }
            max_load = max_load.max(load);
        }
        max_load
    }

    /// Converts device cycles to microseconds.
    pub fn cycles_to_us(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1e3)
    }

    /// Wall-clock microseconds of one kernel launch executing the given
    /// wavefront loads (launch overhead included).
    pub fn kernel_time_us(&self, wavefront_cycles: &[u64]) -> f64 {
        self.launch_overhead_us + self.cycles_to_us(self.kernel_cycles(wavefront_cycles))
    }

    /// Microseconds to move `bytes` across `calls` host↔device copy calls.
    ///
    /// Batching (fewer calls for the same bytes) is one of the paper's
    /// memory optimizations: thousands of per-variable copies are
    /// consolidated into one large array copy.
    pub fn transfer_time_us(&self, calls: u64, bytes: u64) -> f64 {
        calls as f64 * self.copy_call_overhead_us
            + bytes as f64 / (self.copy_bandwidth_gibps * 1024.0 * 1024.0 * 1024.0) * 1e6
    }

    /// Microseconds for `device_allocs` device-side and `host_allocs`
    /// host-side allocation calls.
    pub fn alloc_time_us(&self, device_allocs: u64, host_allocs: u64) -> f64 {
        device_allocs as f64 * self.device_alloc_overhead_us
            + host_allocs as f64 * self.host_alloc_overhead_us
    }

    /// Combines per-region launch profiles into the profile of one *shared*
    /// (cooperative, multi-region) launch.
    ///
    /// The regions' wavefront groups execute concurrently, so the kernel
    /// pays the launch overhead once and drains when its slowest region
    /// finishes; setup collapses to a single device allocation (plus
    /// `host_allocs` host-side staging allocations) and one batched
    /// transfer of `copy_calls` calls moving every region's recorded byte
    /// volume. This is the cost model behind batching several scheduling
    /// regions into one launch (the paper's Section VII proposal).
    pub fn shared_launch_profile(
        &self,
        profiles: &[&LaunchProfile],
        host_allocs: u64,
        copy_calls: u64,
    ) -> LaunchProfile {
        if profiles.is_empty() {
            return LaunchProfile::default();
        }
        let body = profiles
            .iter()
            .map(|p| (p.kernel_us - self.launch_overhead_us).max(0.0))
            .fold(0.0f64, f64::max);
        let bytes: u64 = profiles.iter().map(|p| p.copy_bytes).sum();
        LaunchProfile {
            alloc_us: self.alloc_time_us(1, host_allocs),
            copy_us: self.transfer_time_us(copy_calls, bytes),
            copy_bytes: bytes,
            kernel_us: self.launch_overhead_us + body,
        }
    }
}

impl Default for GpuSpec {
    fn default() -> GpuSpec {
        GpuSpec::radeon_vii()
    }
}

/// Time breakdown of one GPU-accelerated scheduling invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LaunchProfile {
    /// Allocation time (host + device), microseconds.
    pub alloc_us: f64,
    /// Host↔device transfer time, microseconds.
    pub copy_us: f64,
    /// Bytes moved by the transfers behind `copy_us`. Bookkeeping only (not
    /// part of `total_us`); lets batched launches recompute a shared
    /// transfer from the byte volume instead of patching `copy_us`.
    pub copy_bytes: u64,
    /// Kernel execution time (including launch overhead), microseconds.
    pub kernel_us: f64,
}

impl LaunchProfile {
    /// Total wall-clock microseconds.
    pub fn total_us(&self) -> f64 {
        self.alloc_us + self.copy_us + self.kernel_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radeon_vii_has_240_wavefront_slots() {
        let g = GpuSpec::radeon_vii();
        assert_eq!(g.concurrent_wavefronts(), 240);
    }

    #[test]
    fn kernel_cycles_empty_is_zero() {
        assert_eq!(GpuSpec::radeon_vii().kernel_cycles(&[]), 0);
    }

    #[test]
    fn kernel_cycles_parallel_up_to_slots() {
        let g = GpuSpec::radeon_vii();
        // 240 equal wavefronts fill all slots exactly once.
        let wf = vec![100u64; 240];
        assert_eq!(g.kernel_cycles(&wf), 100);
        // 480 wavefronts: every SIMD runs two.
        let wf = vec![100u64; 480];
        assert_eq!(g.kernel_cycles(&wf), 200);
    }

    #[test]
    fn kernel_cycles_bounded_by_max_wavefront() {
        let g = GpuSpec::radeon_vii();
        let wf = vec![10, 500, 20];
        assert_eq!(g.kernel_cycles(&wf), 500);
    }

    #[test]
    fn fewer_copy_calls_is_cheaper() {
        let g = GpuSpec::radeon_vii();
        let batched = g.transfer_time_us(1, 1 << 20);
        let scattered = g.transfer_time_us(1000, 1 << 20);
        assert!(batched < scattered / 10.0);
    }

    #[test]
    fn device_allocation_dwarfs_host_allocation() {
        let g = GpuSpec::radeon_vii();
        assert!(g.alloc_time_us(10, 0) > 50.0 * g.alloc_time_us(0, 10));
    }

    #[test]
    fn launch_profile_totals() {
        let p = LaunchProfile {
            alloc_us: 1.0,
            copy_us: 2.0,
            copy_bytes: 1024,
            kernel_us: 3.0,
        };
        assert!((p.total_us() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn shared_launch_profile_of_nothing_is_zero() {
        let g = GpuSpec::radeon_vii();
        assert_eq!(g.shared_launch_profile(&[], 8, 4), LaunchProfile::default());
    }

    #[test]
    fn shared_launch_kernel_drains_with_slowest_region() {
        let g = GpuSpec::radeon_vii();
        let fast = LaunchProfile {
            kernel_us: g.launch_overhead_us + 10.0,
            copy_bytes: 1000,
            ..Default::default()
        };
        let slow = LaunchProfile {
            kernel_us: g.launch_overhead_us + 90.0,
            copy_bytes: 3000,
            ..Default::default()
        };
        let shared = g.shared_launch_profile(&[&fast, &slow], 16, 4);
        // One launch overhead, the slowest body.
        assert!((shared.kernel_us - (g.launch_overhead_us + 90.0)).abs() < 1e-12);
        // One device allocation plus the host staging allocations.
        assert!((shared.alloc_us - g.alloc_time_us(1, 16)).abs() < 1e-12);
        // One batched transfer of the summed byte volume.
        assert_eq!(shared.copy_bytes, 4000);
        assert!((shared.copy_us - g.transfer_time_us(4, 4000)).abs() < 1e-12);
    }

    #[test]
    fn shared_launch_beats_separate_launches() {
        let g = GpuSpec::radeon_vii();
        // Two overhead-dominated regions (small kernels, scattered copies).
        let mk = |body: f64, bytes: u64| LaunchProfile {
            alloc_us: g.alloc_time_us(1, 8),
            copy_us: g.transfer_time_us(4, bytes),
            copy_bytes: bytes,
            kernel_us: g.launch_overhead_us + body,
        };
        let (a, b) = (mk(5.0, 2000), mk(7.0, 2500));
        let shared = g.shared_launch_profile(&[&a, &b], 16, 4);
        assert!(shared.total_us() < a.total_us() + b.total_us());
    }

    #[test]
    fn cycles_to_us_uses_clock() {
        let g = GpuSpec::radeon_vii();
        assert!((g.cycles_to_us(1800) - 1.0).abs() < 1e-9);
    }
}
