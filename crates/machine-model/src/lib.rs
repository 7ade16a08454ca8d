//! Machine models for the scheduling target: operation latencies and the
//! occupancy / adjusted-peak-register-pressure (APRP)
//! model of Section II-A of the paper.
//!
//! The evaluation target is an AMD Vega-like GPU (Radeon VII): occupancy —
//! the number of wavefronts resident per SIMD unit — is determined by the
//! number of vector and scalar registers a kernel uses. Multiple peak
//! register pressure (PRP) values map to the same occupancy;
//! [`OccupancyModel::aprp`] returns the largest PRP with the same occupancy,
//! which is the cost function the ACO scheduler minimizes in its first pass.

pub mod latency;
pub mod occupancy;

pub use latency::{op_latency, OpKind};
pub use occupancy::{OccupancyLut, OccupancyModel, Waves};
