//! Register-pressure-aware instruction scheduling with Ant Colony
//! Optimization — sequential and GPU-parallel.
//!
//! This crate is the core of the reproduction of *Instruction Scheduling
//! for the GPU on the GPU* (Shobaki et al., CGO 2024): a two-pass ACO
//! scheduler in which pass 1 minimizes the APRP register-pressure cost
//! (maximizing occupancy) and pass 2 minimizes schedule length under the
//! pass-1 cost as a hard constraint.
//!
//! The two-pass colony exists once (the crate-private `colony` module);
//! two schedulers run it, differing only in how one iteration's ants
//! ([`construct`]) are constructed and what that costs:
//!
//! * [`SequentialScheduler`] — the CPU algorithm of Shobaki et al. 2022,
//!   with a modeled CPU time ([`gpu_sim::CpuSpec`]).
//! * [`ParallelScheduler`] — the paper's contribution: the ACO kernel
//!   mapped onto wavefronts of a (simulated) GPU with the memory and
//!   divergence optimizations of Section V as individually togglable
//!   [`GpuTuning`] knobs. Idle host cores entered through an
//!   [`IdleCores`] ledger ([`lend`]) run some of each iteration's
//!   wavefronts, bit-identically.
//!
//! # Quickstart
//!
//! ```
//! use aco::{AcoConfig, ParallelScheduler, SequentialScheduler};
//! use machine_model::OccupancyModel;
//! use sched_ir::figure1;
//!
//! let ddg = figure1::ddg();
//! let occ = OccupancyModel::unit();
//!
//! let seq = SequentialScheduler::new(AcoConfig::small(1)).schedule(&ddg, &occ);
//! let par = ParallelScheduler::new(AcoConfig::small(1)).schedule(&ddg, &occ);
//!
//! // Both find the paper's optimum for the Figure-1 region.
//! assert_eq!(seq.prp[0], 3);
//! assert_eq!(par.result.prp[0], 3);
//! ```

mod colony;
pub mod config;
pub mod construct;
pub mod lend;
pub mod lockstep;
pub mod parallel;
pub mod pheromone;
pub mod result;
pub mod sequential;
pub mod warm;

pub use colony::pass2_target;
pub use config::{AcoConfig, GpuTuning, Termination};
pub use construct::{AntContext, Pass1Ant, Pass1Result, Pass2Ant, Pass2Result, Pass2Step};
pub use lend::IdleCores;
pub use parallel::{
    batch_block_split, BatchOutcome, GpuStats, ParallelOutcome, ParallelScheduler, LEND_MIN_INSTRS,
};
pub use pheromone::PheromoneTable;
pub use result::{AcoResult, PassStats};
pub use sequential::SequentialScheduler;
pub use warm::{WarmStart, WARM_NO_IMPROVE_BUDGET};
