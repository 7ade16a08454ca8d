//! Pipeline configuration.

use aco::AcoConfig;

/// Which scheduler drives the pre-allocation scheduling pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// The production AMD heuristic alone (the paper's "Base AMD").
    BaseAmd,
    /// The Critical-Path list scheduler alone (used by the sensitivity
    /// classification of Section VI-A).
    CriticalPath,
    /// Heuristic + sequential ACO on the CPU.
    SequentialAco,
    /// Heuristic + parallel ACO on the (simulated) GPU.
    ParallelAco,
    /// Parallel ACO with a kernel's regions batched into cooperative
    /// multi-region launches (the paper's Section VII proposal promoted
    /// into a pipeline mode; see [`crate::batch`]).
    BatchedParallelAco,
}

impl SchedulerKind {
    /// All scheduler kinds.
    pub const ALL: [SchedulerKind; 5] = [
        SchedulerKind::BaseAmd,
        SchedulerKind::CriticalPath,
        SchedulerKind::SequentialAco,
        SchedulerKind::ParallelAco,
        SchedulerKind::BatchedParallelAco,
    ];

    /// Human-readable name used in table output.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::BaseAmd => "Base AMD",
            SchedulerKind::CriticalPath => "Critical Path",
            SchedulerKind::SequentialAco => "Sequential ACO",
            SchedulerKind::ParallelAco => "Parallel ACO",
            SchedulerKind::BatchedParallelAco => "Batched Parallel ACO",
        }
    }

    /// The kind's short name on the command line and in daemon requests:
    /// `amd`, `cp`, `seq`, `par` or `batched`. The one table of these names.
    pub fn short_name(self) -> &'static str {
        match self {
            SchedulerKind::BaseAmd => "amd",
            SchedulerKind::CriticalPath => "cp",
            SchedulerKind::SequentialAco => "seq",
            SchedulerKind::ParallelAco => "par",
            SchedulerKind::BatchedParallelAco => "batched",
        }
    }

    /// The kind whose [`short_name`](Self::short_name) is `name`.
    pub fn from_short_name(name: &str) -> Option<SchedulerKind> {
        SchedulerKind::ALL
            .into_iter()
            .find(|k| k.short_name() == name)
    }

    /// Whether a region compiled under this kind runs an ant colony after
    /// the heuristic. Only such a compilation is worth memoizing in a suite
    /// job or tuning: a list-scheduled region compiles in about the time a
    /// certified cache hit takes (see [`crate::cache`]).
    pub fn runs_colony(self) -> bool {
        !matches!(self, SchedulerKind::BaseAmd | SchedulerKind::CriticalPath)
    }
}

/// Grouping policy of the batched pipeline mode
/// ([`SchedulerKind::BatchedParallelAco`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchingConfig {
    /// Hard cap on regions per cooperative launch group.
    pub max_group: u32,
    /// Minimum blocks (wavefront groups) every batched region keeps when
    /// the colony is split across a group — bounds how far batching
    /// dilutes a region's ant population.
    pub min_blocks_per_region: u32,
}

impl BatchingConfig {
    /// The default policy: groups of at most 8 regions, each keeping at
    /// least 2 of the colony's blocks.
    pub fn paper() -> BatchingConfig {
        BatchingConfig {
            max_group: 8,
            min_blocks_per_region: 2,
        }
    }

    /// The largest group a colony of `blocks` blocks admits under this
    /// policy: at most `max_group` regions, each keeping at least
    /// `min_blocks_per_region` blocks (and never fewer than one — the
    /// block-budget invariant `group size <= blocks` is what keeps a
    /// cooperative launch from oversubscribing the device).
    pub fn group_cap(&self, blocks: u32) -> usize {
        let by_budget = blocks / self.min_blocks_per_region.max(1);
        by_budget.clamp(1, self.max_group.max(1)).min(blocks.max(1)) as usize
    }
}

impl Default for BatchingConfig {
    fn default() -> BatchingConfig {
        BatchingConfig::paper()
    }
}

/// The content-addressed schedule cache knob (see [`crate::cache`]).
///
/// The cache is transparent — region compilation is a pure function of the
/// cache key, every hit is re-certified against the new region instance,
/// and suite golden fingerprints are identical on and off at any thread
/// count — so it defaults to **on**. The knob exists for the D004
/// transparency check itself and for the tests that hold cache-on results
/// to cache-off ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Consult and populate the schedule cache during suite compilation.
    pub enabled: bool,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig { enabled: true }
    }
}

/// The in-pipeline static-analysis knob (see [`crate::analyze`]).
///
/// When enabled, every compiled region is run through `sched-analyze`'s
/// exact S-code passes — the DDG itself (S001–S004) and the winning
/// schedule's claimed length/PRP against recomputed lower bounds
/// (S005/S006) — plus a once-per-suite S007 cache-key coverage check, and
/// the findings are aggregated into [`crate::AnalysisReport`]. Analysis is
/// read-only: schedules, records, and golden fingerprints are bitwise
/// identical on and off. Defaults to **off** because the closure-based
/// passes cost real time on large suites; the CI gate and
/// `gpu-aco-cli analyze` switch it on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyzeConfig {
    /// Run the S-code passes during suite compilation.
    pub enabled: bool,
}

#[allow(clippy::derivable_impls)] // symmetry with CacheConfig; the default
                                  // polarity is a deliberate choice, not an
                                  // accident of Default
impl Default for AnalyzeConfig {
    fn default() -> AnalyzeConfig {
        AnalyzeConfig { enabled: false }
    }
}

/// Configuration of the per-region compilation flow and its filters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Scheduler selection.
    pub scheduler: SchedulerKind,
    /// ACO parameters (both ACO schedulers).
    pub aco: AcoConfig,
    /// Batch-planner policy ([`SchedulerKind::BatchedParallelAco`] only).
    pub batching: BatchingConfig,
    /// Post-scheduling filter: revert to the heuristic schedule when ACO's
    /// occupancy gain is at most this much...
    pub revert_occupancy_gain: u32,
    /// ...while its schedule length degradation exceeds this many cycles.
    /// The paper settles on gain ≤ 3 combined with degradation > 63 cycles
    /// (Section VI-D).
    pub revert_length_penalty: u32,
    /// Fixed non-scheduling compile cost per region, microseconds (parsing,
    /// instruction selection, register allocation, code emission, ...).
    pub base_cost_per_region_us: f64,
    /// Additional non-scheduling compile cost per instruction,
    /// microseconds.
    pub base_cost_per_instr_us: f64,
    /// Host worker threads compiling the suite's regions concurrently
    /// (one index-cursor job pool; see `host_pool`). This is purely a host
    /// wall-clock knob: every schedule, record, observer callback and
    /// modeled time is byte-identical at any value. Values ≤ 1 compile
    /// inline on the calling thread.
    pub host_threads: usize,
    /// Content-addressed schedule memoization across a suite compilation.
    /// Like `host_threads`, purely a wall-clock knob: results are
    /// byte-identical on and off (only the [`crate::CacheStats`] counters
    /// differ).
    pub cache: CacheConfig,
    /// In-pipeline exact static analysis (S-code passes over every region
    /// and schedule claim). Read-only: results are byte-identical on and
    /// off; only [`crate::SuiteRun::analysis`] is populated.
    pub analyze: AnalyzeConfig,
}

impl PipelineConfig {
    /// The paper's headline configuration for the given scheduler: cycle
    /// threshold 21, post filter (3, 63).
    pub fn paper(scheduler: SchedulerKind, seed: u64) -> PipelineConfig {
        let mut aco = AcoConfig::small(seed);
        aco.pass2_gate_cycles = 21;
        PipelineConfig {
            scheduler,
            aco,
            batching: BatchingConfig::paper(),
            revert_occupancy_gain: 3,
            revert_length_penalty: 63,
            // The paper's base compile time is ~4.6 ms per region (840 s /
            // 181,883 regions). Our default colonies are ~6x smaller than
            // the paper's 11,520 ants, so the modeled scheduling times are
            // ~6x smaller too; the base cost is scaled by the same factor
            // to preserve the *share* of compile time that scheduling
            // contributes (what Table 5 is about).
            base_cost_per_region_us: 980.0,
            base_cost_per_instr_us: 28.0,
            host_threads: 1,
            cache: CacheConfig::default(),
            analyze: AnalyzeConfig::default(),
        }
    }

    /// The same configuration compiling on `threads` host worker threads.
    pub fn with_host_threads(mut self, threads: usize) -> PipelineConfig {
        self.host_threads = threads;
        self
    }

    /// The same configuration with the schedule cache switched on or off.
    pub fn with_cache(mut self, enabled: bool) -> PipelineConfig {
        self.cache = CacheConfig { enabled };
        self
    }

    /// The same configuration with in-pipeline static analysis switched on
    /// or off.
    pub fn with_analyze(mut self, enabled: bool) -> PipelineConfig {
        self.analyze = AnalyzeConfig { enabled };
        self
    }

    /// The base (non-scheduling) compile cost of a region with `n`
    /// instructions, microseconds.
    pub fn base_cost_us(&self, n: usize) -> f64 {
        self.base_cost_per_region_us + self.base_cost_per_instr_us * n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_uses_threshold_21() {
        let c = PipelineConfig::paper(SchedulerKind::ParallelAco, 0);
        assert_eq!(c.aco.pass2_gate_cycles, 21);
        assert_eq!(c.revert_occupancy_gain, 3);
        assert_eq!(c.revert_length_penalty, 63);
    }

    #[test]
    fn base_cost_scales_with_region_size() {
        let c = PipelineConfig::paper(SchedulerKind::BaseAmd, 0);
        assert!(c.base_cost_us(100) > c.base_cost_us(10));
        // A scaled-down fraction of the paper's 4.6 ms per region,
        // matching the scheduling-cost scale of the default colony.
        let per_region_us = c.base_cost_us(15);
        assert!(
            (900.0..2000.0).contains(&per_region_us),
            "{per_region_us} us"
        );
    }

    #[test]
    fn scheduler_names_are_distinct() {
        let names: std::collections::HashSet<_> =
            SchedulerKind::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), SchedulerKind::ALL.len());
    }

    #[test]
    fn only_aco_kinds_run_a_colony() {
        assert!(SchedulerKind::SequentialAco.runs_colony());
        assert!(SchedulerKind::ParallelAco.runs_colony());
        assert!(SchedulerKind::BatchedParallelAco.runs_colony());
        assert!(!SchedulerKind::BaseAmd.runs_colony());
        assert!(!SchedulerKind::CriticalPath.runs_colony());
    }

    #[test]
    fn group_cap_respects_budget_and_policy() {
        let b = BatchingConfig::paper();
        // 16 blocks / min 2 per region = 8 regions, within max_group.
        assert_eq!(b.group_cap(16), 8);
        // The max_group cap binds for big colonies.
        assert_eq!(b.group_cap(180), 8);
        // Tiny colonies: never more regions than blocks.
        assert_eq!(b.group_cap(3), 1);
        assert_eq!(b.group_cap(1), 1);
        // Degenerate policies stay safe.
        let loose = BatchingConfig {
            max_group: 64,
            min_blocks_per_region: 1,
        };
        assert_eq!(loose.group_cap(4), 4);
        let zero = BatchingConfig {
            max_group: 0,
            min_blocks_per_region: 0,
        };
        assert_eq!(zero.group_cap(8), 1);
    }
}
