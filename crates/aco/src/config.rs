//! ACO scheduler configuration.

use gpu_sim::MemLayout;
use list_sched::Heuristic;

/// Iteration budget as a function of region size (the paper's *termination
/// condition*: iterations without improvement before giving up).
///
/// The paper uses size categories `[1-49]`, `[50-99]`, `>= 100` with
/// termination conditions 1, 2, 3 (Section VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Termination {
    /// No-improvement budget for regions of 1–49 instructions.
    pub small: u32,
    /// No-improvement budget for regions of 50–99 instructions.
    pub medium: u32,
    /// No-improvement budget for regions of ≥ 100 instructions.
    pub large: u32,
    /// Hard cap on total iterations per pass (safety net).
    pub max_iterations: u32,
}

impl Termination {
    /// The paper's settings: 1 / 2 / 3.
    pub fn paper() -> Termination {
        Termination {
            small: 1,
            medium: 2,
            large: 3,
            max_iterations: 64,
        }
    }

    /// The no-improvement budget for a region of `n` instructions.
    pub fn budget(&self, n: usize) -> u32 {
        match n {
            0..=49 => self.small,
            50..=99 => self.medium,
            _ => self.large,
        }
    }
}

/// GPU-specific optimization toggles (Sections V-A and V-B).
///
/// All of them default to *on* (the paper's final configuration); the
/// ablation experiments (Tables 4.a, 4.b, 6) switch them off one group at a
/// time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuTuning {
    /// Structure-of-arrays device layout (memory coalescing, Section V-A).
    pub layout: MemLayout,
    /// Allocate and initialize on the host, one device allocation, instead
    /// of device-side dynamic allocation (Section V-A).
    pub preallocate: bool,
    /// Consolidate transfers into large arrays: one copy call per array
    /// instead of per variable (Section V-A).
    pub batched_transfer: bool,
    /// Size ready lists by the transitive-closure upper bound instead of
    /// the instruction count (Section V-A).
    pub tight_ready_ub: bool,
    /// Make the explore/exploit choice once per wavefront per step instead
    /// of per thread (Section V-B).
    pub wavefront_level_choice: bool,
    /// Fraction of wavefronts allowed to insert optional stalls in pass 2
    /// (Section V-B; the paper settles on 0.25 — Table 6 sweeps it).
    pub stall_wavefront_fraction: f64,
    /// Terminate a whole wavefront as soon as one thread completes its
    /// schedule (Section V-B).
    pub early_wavefront_termination: bool,
    /// Use a different guiding heuristic per wavefront group
    /// (Section V-B).
    pub per_wavefront_heuristics: bool,
}

impl GpuTuning {
    /// All optimizations on, as in the paper's headline configuration.
    pub fn optimized() -> GpuTuning {
        GpuTuning {
            layout: MemLayout::Soa,
            preallocate: true,
            batched_transfer: true,
            tight_ready_ub: true,
            wavefront_level_choice: true,
            stall_wavefront_fraction: 0.25,
            early_wavefront_termination: true,
            per_wavefront_heuristics: true,
        }
    }

    /// Memory optimizations off (Table 4.a baseline): AoS layout,
    /// device-side allocation, per-variable transfers, loose ready bound.
    pub fn memory_unoptimized(self) -> GpuTuning {
        GpuTuning {
            layout: MemLayout::Aos,
            preallocate: false,
            batched_transfer: false,
            tight_ready_ub: false,
            ..self
        }
    }

    /// Divergence optimizations off (Table 4.b baseline): thread-level
    /// choices, all wavefronts may stall, no early termination, one shared
    /// heuristic.
    pub fn divergence_unoptimized(self) -> GpuTuning {
        GpuTuning {
            wavefront_level_choice: false,
            stall_wavefront_fraction: 1.0,
            early_wavefront_termination: false,
            per_wavefront_heuristics: false,
            ..self
        }
    }
}

impl Default for GpuTuning {
    fn default() -> GpuTuning {
        GpuTuning::optimized()
    }
}

/// Full configuration of the ACO schedulers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcoConfig {
    /// Base RNG seed (every ant derives its own stream from it).
    pub seed: u64,
    /// Ants per iteration in the *sequential* scheduler.
    pub sequential_ants: u32,
    /// GPU blocks per launch; each block is one 64-thread wavefront, so the
    /// parallel colony has `blocks * 64` ants (the paper launches 180).
    pub blocks: u32,
    /// Threads per block (= wavefront size; 64 on the paper's target).
    pub threads_per_block: u32,
    /// Pheromone decay factor (the paper uses 0.8).
    pub decay: f64,
    /// Probability of exploitation (argmax) instead of biased exploration.
    pub q0: f64,
    /// Exponent of the guiding heuristic η in the selection formula.
    pub beta: f64,
    /// Initial pheromone level.
    pub initial_pheromone: f64,
    /// Pheromone deposited on each winner edge per iteration.
    pub deposit: f64,
    /// Bounds keeping the pheromone table away from stagnation.
    pub tau_min: f64,
    /// Upper pheromone bound.
    pub tau_max: f64,
    /// Iteration budgets by region size.
    pub termination: Termination,
    /// Default guiding heuristic (pass 1 biases towards pressure, so LUC).
    pub heuristic: Heuristic,
    /// Maximum optional stalls an ant may insert, as a fraction of the
    /// region size.
    pub optional_stall_budget: f64,
    /// GPU optimization toggles (parallel scheduler only).
    pub tuning: GpuTuning,
    /// Pass-2 gate: run the ILP pass only when the pass-2 input schedule is
    /// at least this many cycles above `max(n, critical path)`. The paper's
    /// compile-time filter settles on 21 cycles (Section VI-D, Table 7);
    /// 0 disables the gate. Independently of it, an input on the length
    /// lower bound is optimal and skips pass 2. Both read the region's
    /// [`sched_ir::RegionFacts`], derived once per colony run.
    pub pass2_gate_cycles: u32,
    /// Kernel-level occupancy target: when set, pass 2's pressure
    /// constraint is relaxed to the APRP band of this occupancy — pressure
    /// savings beyond what the whole kernel can use are not worth schedule
    /// length (occupancy is a per-kernel property).
    pub occupancy_cap: Option<u32>,
}

impl AcoConfig {
    /// The paper's full-scale configuration: 180 blocks × 64 threads =
    /// 11,520 ants.
    pub fn paper(seed: u64) -> AcoConfig {
        AcoConfig {
            seed,
            sequential_ants: 80,
            blocks: 180,
            threads_per_block: 64,
            decay: 0.8,
            q0: 0.9,
            beta: 2.0,
            initial_pheromone: 1.0,
            deposit: 1.0,
            tau_min: 0.01,
            tau_max: 8.0,
            termination: Termination::paper(),
            heuristic: Heuristic::LastUseCount,
            optional_stall_budget: 0.25,
            tuning: GpuTuning::optimized(),
            pass2_gate_cycles: 0,
            occupancy_cap: None,
        }
    }

    /// A scaled-down colony (32 blocks = 2,048 ants) whose *cost model* is
    /// unchanged; the default for tests and CI-speed benchmarks.
    pub fn small(seed: u64) -> AcoConfig {
        AcoConfig {
            blocks: 32,
            ..AcoConfig::paper(seed)
        }
    }

    /// Total ants per parallel iteration.
    pub fn parallel_ants(&self) -> u32 {
        self.blocks * self.threads_per_block
    }
}

impl Default for AcoConfig {
    fn default() -> AcoConfig {
        AcoConfig::small(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn termination_bands_match_paper() {
        let t = Termination::paper();
        assert_eq!(t.budget(1), 1);
        assert_eq!(t.budget(49), 1);
        assert_eq!(t.budget(50), 2);
        assert_eq!(t.budget(99), 2);
        assert_eq!(t.budget(100), 3);
        assert_eq!(t.budget(2223), 3);
    }

    #[test]
    fn paper_colony_is_11520_ants() {
        assert_eq!(AcoConfig::paper(0).parallel_ants(), 11_520);
    }

    #[test]
    fn ablation_constructors_flip_the_right_knobs() {
        let opt = GpuTuning::optimized();
        let mem = opt.memory_unoptimized();
        assert_eq!(mem.layout, MemLayout::Aos);
        assert!(!mem.preallocate && !mem.batched_transfer && !mem.tight_ready_ub);
        assert!(mem.wavefront_level_choice, "divergence knobs untouched");
        let div = opt.divergence_unoptimized();
        assert_eq!(div.layout, MemLayout::Soa, "memory knobs untouched");
        assert!(!div.wavefront_level_choice && !div.early_wavefront_termination);
        assert_eq!(div.stall_wavefront_fraction, 1.0);
    }
}
