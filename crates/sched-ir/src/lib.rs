//! Instruction, register, and data-dependence-graph (DDG) IR for
//! register-pressure-aware instruction scheduling.
//!
//! This crate provides the input representation consumed by every scheduler
//! in the workspace: a [`Ddg`] holds the instructions of a scheduling region
//! together with latency-labelled dependence edges, exactly as described in
//! Section II-A of *Instruction Scheduling for the GPU on the GPU*
//! (Shobaki et al., CGO 2024). On top of the raw graph it offers the derived
//! analyses the paper relies on:
//!
//! * topological order and acyclicity validation,
//! * the transitive closure of the dependence relation ([`TransitiveClosure`]),
//!   used to compute the tight **ready-list upper bound** of Section V-A,
//! * latency-weighted critical-path distances and the schedule-length lower
//!   bound used to gate ACO invocations,
//! * register-pressure lower bounds from live-in/live-out sets.
//!
//! # Example
//!
//! ```
//! use sched_ir::{DdgBuilder, Reg, RegClass};
//!
//! let mut b = DdgBuilder::new();
//! let load = b.instr("load", [Reg::vgpr(0)], []);
//! let add = b.instr("add", [Reg::vgpr(1)], [Reg::vgpr(0)]);
//! b.edge(load, add, 4).unwrap();
//! let ddg = b.build().unwrap();
//! assert_eq!(ddg.len(), 2);
//! assert_eq!(ddg.schedule_length_lb(), 5); // load@0, 3 stalls, add@4
//! ```

pub mod bitmatrix;
pub mod bounds;
pub mod builder;
pub mod ddg;
pub mod dot;
pub mod figure1;
pub mod fingerprint;
pub mod instr;
pub mod record;
pub mod schedule;
pub mod textir;

pub use bitmatrix::BitMatrix;
pub use bounds::effective_latency;
pub use builder::{csr_rows, DdgBuilder, DdgError};
pub use ddg::{Ddg, TransitiveClosure};
pub use fingerprint::{ddg_content_fingerprint, ddg_structure_fingerprint, Fnv64, PackedDdg};
pub use instr::{Instr, InstrId, InstrTable, Reg, RegClass, RegTable, MAX_REG_ID, REG_CLASS_COUNT};
pub use schedule::{Cycle, Schedule, ScheduleError};
