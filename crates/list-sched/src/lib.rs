//! Greedy list schedulers and guiding heuristics.
//!
//! Three heuristics from the paper are provided:
//!
//! * [`Heuristic::CriticalPath`] — the classic CP priority (schedule the
//!   instruction with the longest latency-weighted path to a leaf first);
//!   aggressive on schedule length.
//! * [`Heuristic::LastUseCount`] — LUC (Shobaki et al. 2015): prefer
//!   instructions that close the most live ranges; aggressive on register
//!   pressure.
//! * [`Heuristic::AmdMaxOccupancy`] — a greedy approximation of AMD's
//!   production `GCNMaxOccupancySchedStrategy`, the paper's baseline: avoid
//!   choices that would lower occupancy, then fall back to critical path.
//!
//! The same heuristics double as the ACO *guiding heuristic* η (see the
//! `aco` crate): [`HeuristicEval::eta`] returns a strictly positive
//! desirability score for a candidate.

pub mod eval;
pub mod scheduler;

pub use eval::{eta_terms, EtaTerms, Heuristic, HeuristicEval, RegionAnalysis};
pub use scheduler::{evaluate_order, ListScheduler, ScheduleResult};
