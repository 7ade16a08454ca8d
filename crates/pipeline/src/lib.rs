//! The compilation pipeline around the ACO scheduler.
//!
//! Reproduces the flow of Section VI: every scheduling region is first
//! scheduled by the production heuristic; ACO is invoked only when the
//! heuristic result is above a lower bound and the expected benefit passes
//! the compile-time filters; a post-scheduling filter reverts to the
//! heuristic schedule when ACO traded too much schedule length for too
//! little occupancy. On top of the per-region flow, the crate models:
//!
//! * **compile time** (Table 5) — a fixed per-region base compilation cost
//!   plus the modeled scheduling time of whichever scheduler is active,
//! * **execution time** (Figure 4) — an analytic kernel-throughput model
//!   driven by the two quantities a scheduler controls: occupancy and
//!   schedule length,
//! * **suite runs** — compiling a whole [`workloads::Suite`] under any
//!   [`SchedulerKind`] and aggregating the statistics the paper's tables
//!   report,
//! * **batched compilation** ([`batch`]) — the Section VII future-work
//!   mode: a kernel's ACO-eligible regions grouped into cooperative
//!   multi-region launches under the colony's block budget, sharing the
//!   launch/allocation/transfer overheads that dominate small regions,
//! * **host-parallel suite compilation** ([`host_pool`]) — a pool of host
//!   threads compiling the suite's region jobs concurrently
//!   ([`PipelineConfig::host_threads`]), lending the cores of workers that
//!   ran out of jobs to the wavefronts of a large region still in flight,
//!   with a deterministic sequential merge that keeps every result
//!   byte-identical at any thread count,
//! * **content-addressed schedule memoization** ([`cache`]) — duplicate
//!   regions (template-instantiated library kernels) compile once; every
//!   cache hit is equality-checked and re-certified against the new
//!   region instance, so results are byte-identical cache on and off
//!   ([`PipelineConfig::cache`]),
//! * **in-pipeline static analysis** ([`analyze`]) — the `sched-analyze`
//!   S-code passes run read-only over every compiled region plus a
//!   once-per-suite cache-key coverage check, aggregated into
//!   [`SuiteRun::analysis`] ([`PipelineConfig::analyze`]).

#![forbid(unsafe_code)]

pub mod analyze;
pub mod batch;
pub mod cache;
pub mod config;
pub mod exec_model;
pub mod host_pool;
pub mod region;
pub mod suite_run;

pub use analyze::{analyze_region, check_config_drift, AnalysisReport};
pub use batch::plan_batches;
pub use cache::{CacheStats, ScheduleCache};
pub use config::{AnalyzeConfig, BatchingConfig, CacheConfig, PipelineConfig, SchedulerKind};
pub use exec_model::{benchmark_throughput, kernel_time_us, ExecModel};
pub use host_pool::{
    plan_jobs as plan_suite_jobs, run_jobs_streaming, RegionJob, RegionOutcome, StreamTiming,
};
pub use region::{compile_region, FinalChoice, RegionCompilation};
pub use suite_run::{
    compile_suite, compile_suite_observed, compile_suite_timed, compile_suite_with_cache,
    compile_suite_with_stores, merge_job_results, RegionRecord, SuiteMerger, SuiteRun,
    SuiteWallclock,
};
