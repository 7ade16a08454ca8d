//! Exact static dataflow analysis over scheduling regions.
//!
//! Where `sched-verify` certifies scheduler *outputs* (C-codes over a
//! finished schedule), this crate analyzes *inputs and claims*: the
//! dependence graph a scheduler is about to consume and the metrics it
//! reports back. Every pass is **exact** — backed by a recomputed ground
//! truth, never a heuristic — and reports clippy-style diagnostics with
//! stable S-codes, deny/warn/pedantic severities, text-IR source spans,
//! machine-readable JSON, and baseline suppression.
//!
//! The layers, bottom up:
//!
//! * [`graph`] — [`graph::RegionGraph`], a raw node/edge view borrowed
//!   from a validated [`sched_ir::Ddg`] *or* a pre-validation
//!   [`sched_ir::textir::RawRegion`], so even cyclic input is analyzable;
//! * [`framework`] — the generic machinery: Kahn topological order with
//!   minimal witness cycles, the descendant and ancestor reachability
//!   closures, levels, the windowed exact transitive reduction, and the
//!   schedule-length and (bitset cut) register-pressure lower bounds;
//! * [`passes`] — the S-code passes (S001 exact transitive reduction,
//!   S002 cycles, S003 orphans, S004 machine-model latency, S005/S006
//!   infeasible PRP/length claims), with [`analyze_with_claims`] running
//!   all of a region's over one set of facts;
//! * [`diag`] — findings, severities, renderers, and baselines: the one
//!   diagnostics model of the workspace (`sched-verify` reports through
//!   it too);
//! * [`json_check`] — an independent JSON well-formedness checker for the
//!   hand-rolled renderer (the workspace vendors no serializer).
//!
//! # Example
//!
//! ```
//! use sched_analyze::{analyze_graph, RegionGraph};
//!
//! // A latency-2 edge implied by a two-hop path of effective latency 2.
//! let raw = sched_ir::textir::parse_raw(
//!     "instr a\ninstr b\ninstr c\nedge 0 1 1\nedge 1 2 1\nedge 0 2 2",
//! )
//! .unwrap();
//! let findings = analyze_graph(&RegionGraph::from_raw(&raw));
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].code, "S001");
//! ```

pub mod diag;
pub mod framework;
pub mod graph;
pub mod json_check;
#[cfg(test)]
mod oracle;
pub mod passes;

pub use diag::{codes, render_json, render_text, Anchor, Baseline, Finding, Level, LevelCounts};
pub use graph::{RegionEdge, RegionGraph};
pub use passes::{
    analyze_graph, analyze_with_claims, check_claims, op_kind_of_name, ScheduleClaim,
};
