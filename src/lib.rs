//! Umbrella crate for the GPU-parallel ACO instruction-scheduling
//! reproduction (Shobaki et al., *Instruction Scheduling for the GPU on the
//! GPU*, CGO 2024).
//!
//! Re-exports every workspace crate under one roof so examples and
//! integration tests can use a single dependency:
//!
//! * [`ir`] — instructions, registers, DDGs, bounds ([`sched_ir`])
//! * [`machine`] — issue and occupancy models ([`machine_model`])
//! * [`pressure`] — live-range tracking and APRP cost ([`reg_pressure`])
//! * [`heuristics`] — list schedulers: CP, LUC, AMD-like ([`list_sched`])
//! * [`sim`] — the SIMT GPU cost simulator ([`gpu_sim`])
//! * [`scheduler`] — the sequential and GPU-parallel ACO schedulers ([`aco`])
//! * [`compile`] — the compilation pipeline with its filters ([`pipeline`])
//! * [`exact`] — branch-and-bound optimality oracle for small regions
//!   ([`exact_sched`])
//! * [`bench_workloads`] — rocPRIM-shaped DDG generators ([`workloads`])
//! * [`verify`] — independent schedule certification, DDG/config lints,
//!   and determinism checks ([`sched_verify`])
//! * [`analyze`] — exact static dataflow analysis with S-code diagnostics
//!   and baseline suppression ([`sched_analyze`])
//! * [`serve`] — the scheduling-as-a-service daemon: line-delimited
//!   protocol, admission control, one warm shared cache ([`sched_serve`])
//!
//! # Quickstart
//!
//! ```
//! use gpu_aco::ir::figure1;
//! use gpu_aco::scheduler::{AcoConfig, SequentialScheduler};
//! use gpu_aco::machine::OccupancyModel;
//!
//! let ddg = figure1::ddg();
//! let occ = OccupancyModel::vega_like();
//! let mut sched = SequentialScheduler::new(AcoConfig::small(7));
//! let result = sched.schedule(&ddg, &occ);
//! result.schedule.validate(&ddg).unwrap();
//! ```

pub use aco as scheduler;
pub use exact_sched as exact;
pub use gpu_sim as sim;
pub use list_sched as heuristics;
pub use machine_model as machine;
pub use pipeline as compile;
pub use reg_pressure as pressure;
pub use sched_analyze as analyze;
pub use sched_ir as ir;
pub use sched_serve as serve;
pub use sched_verify as verify;
pub use workloads as bench_workloads;
