//! The diagnostics framework shared by the certificate checker, the lint
//! pass, and the determinism checker.
//!
//! Every problem the verifier finds is reported as a structured
//! [`Diagnostic`] carrying a severity, a stable code (`C0xx` certificate,
//! `L0xx` DDG lint, `A0xx` config lint, `P0xx` pheromone, `D0xx`
//! determinism), a [`Span`] pinpointing where in the input the problem
//! lives, and a human-readable message. Rendering mimics `rustc`:
//!
//! ```text
//! error[C003]: i5 must issue at cycle 7 or later (producer i3 + latency 4), but issues at 6
//!   --> kernel 2, region 0, edge i3 -> i5
//! ```

use sched_ir::{InstrId, Reg};
use std::fmt;

/// How bad a finding is.
///
/// Only [`Severity::Error`] findings invalidate a schedule certificate;
/// warnings and notes are advisory (the CLI `verify` subcommand exits
/// nonzero only on errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: something worth knowing, nothing wrong.
    Note,
    /// Suspicious but not provably incorrect (e.g. a redundant edge).
    Warning,
    /// A violated invariant: the claim being checked is false.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Where in the verified input a diagnostic points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// The region (or claim) as a whole.
    Region,
    /// One instruction.
    Instr(InstrId),
    /// One DDG edge.
    Edge { from: InstrId, to: InstrId },
    /// One register.
    Reg(Reg),
    /// A named configuration field.
    ConfigField(&'static str),
    /// One pheromone-table entry (row `n` is the virtual start row).
    PheromoneEntry { row: usize, col: usize },
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::Region => write!(f, "region"),
            Span::Instr(id) => write!(f, "instr {id}"),
            Span::Edge { from, to } => write!(f, "edge {from} -> {to}"),
            Span::Reg(r) => write!(f, "reg {r}"),
            Span::ConfigField(name) => write!(f, "config field `{name}`"),
            Span::PheromoneEntry { row, col } => {
                write!(f, "pheromone entry ({row}, {col})")
            }
        }
    }
}

/// Stable diagnostic codes.
///
/// Certificate checks (`C`): emitted when a scheduler's *claim* about a
/// schedule disagrees with an independent recomputation. Lints (`L`, `A`):
/// structural problems in a DDG or a configuration. Pheromone invariants
/// (`P`) and determinism findings (`D`) round out the set.
pub mod codes {
    /// Schedule covers a different number of instructions than the DDG.
    pub const WRONG_LENGTH: &str = "C001";
    /// A register is read at or before the cycle it is defined.
    pub const DEPENDENCE: &str = "C002";
    /// A DDG latency edge is violated.
    pub const LATENCY: &str = "C003";
    /// Two instructions share a cycle on the single-issue machine.
    pub const ISSUE_CONFLICT: &str = "C004";
    /// Claimed peak register pressure differs from the recomputed value.
    pub const PRP_MISMATCH: &str = "C005";
    /// Claimed occupancy differs from the occupancy implied by the PRP.
    pub const OCCUPANCY_MISMATCH: &str = "C006";
    /// Claimed schedule length differs from the schedule's actual length.
    pub const LENGTH_MISMATCH: &str = "C007";
    /// Schedule length is below the DDG length lower bound.
    pub const LENGTH_BELOW_LB: &str = "C008";
    /// Recomputed PRP is below the register-pressure lower bound.
    pub const PRP_BELOW_LB: &str = "C009";
    /// Two-pass invariant broken: final pressure cost exceeds the pass-2
    /// target derived from the pass-1 best cost.
    pub const TWO_PASS_INVARIANT: &str = "C010";
    /// Claimed issue order disagrees with the schedule's cycles.
    pub const ORDER_MISMATCH: &str = "C011";
    /// An exact-scheduler result is internally inconsistent (claimed
    /// `rp_cost` does not match its own PRP).
    pub const EXACT_INCONSISTENT: &str = "C012";

    /// A DDG edge implied by a longer (or equal) transitive path.
    ///
    /// Historically the heuristic lint `L001`; now the *exact*
    /// effective-latency transitive reduction of `sched-analyze`, reported
    /// under its stable S-code. Consumers matching on this constant keep
    /// working; anything matching the literal string must use `"S001"`.
    pub const REDUNDANT_EDGE: &str = "S001";

    /// Two instructions define the same register (SSA violation).
    pub const DUPLICATE_DEF: &str = "L002";
    /// An instruction with no edges, defs, or uses.
    pub const ISOLATED_NODE: &str = "L003";
    /// The dependence graph contains a cycle.
    pub const GRAPH_CYCLE: &str = "L004";

    /// `tau_min >= tau_max`: the pheromone band is empty.
    pub const TAU_BOUNDS: &str = "A001";
    /// A zero colony (no ants, blocks, or threads).
    pub const ZERO_ANTS: &str = "A002";
    /// Decay outside `(0, 1]` or non-finite (NaN-producing evaporation).
    pub const BAD_DECAY: &str = "A003";
    /// Exploitation probability `q0` outside `[0, 1]`.
    pub const BAD_Q0: &str = "A004";
    /// Non-finite or negative heuristic exponent / deposit / initial level.
    pub const BAD_PHEROMONE_PARAM: &str = "A005";
    /// A zero iteration budget: the search can never run.
    pub const ZERO_ITERATIONS: &str = "A006";
    /// Stall-wavefront fraction or stall budget outside `[0, 1]`.
    pub const BAD_STALL_FRACTION: &str = "A007";

    /// A pheromone entry is NaN or infinite.
    pub const PHEROMONE_NONFINITE: &str = "P001";
    /// A pheromone entry escaped the `[tau_min, tau_max]` clamp band.
    pub const PHEROMONE_OUT_OF_BOUNDS: &str = "P002";

    /// Host-parallel scheduling produced different results at different
    /// thread counts.
    pub const THREAD_NONDETERMINISM: &str = "D001";
    /// Repeated runs with one configuration disagree.
    pub const RUN_NONDETERMINISM: &str = "D002";
    /// Suite compilation produced different results at different
    /// `host_threads` values.
    pub const SUITE_THREAD_NONDETERMINISM: &str = "D003";
    /// The schedule cache changed a suite result: compilation with the
    /// cache on is not bitwise identical to compilation with it off.
    pub const CACHE_NONTRANSPARENT: &str = "D004";
}

/// One verifier finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Stable code (see [`codes`]).
    pub code: &'static str,
    /// Where it points.
    pub span: Span,
    /// Human-readable description.
    pub message: String,
    /// Kernel index within a suite, when verifying a suite.
    pub kernel: Option<usize>,
    /// Region index within the kernel, when verifying a suite.
    pub region: Option<usize>,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    pub fn error(code: &'static str, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            code,
            span,
            message: message.into(),
            kernel: None,
            region: None,
        }
    }

    /// A warning-severity diagnostic.
    pub fn warning(code: &'static str, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, span, message)
        }
    }

    /// A note-severity diagnostic.
    pub fn note(code: &'static str, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Note,
            ..Diagnostic::error(code, span, message)
        }
    }

    /// Tags the diagnostic with its suite location.
    pub fn in_region(mut self, kernel: usize, region: usize) -> Diagnostic {
        self.kernel = Some(kernel);
        self.region = Some(region);
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        write!(f, "  --> ")?;
        if let (Some(k), Some(r)) = (self.kernel, self.region) {
            write!(f, "kernel {k}, region {r}, ")?;
        }
        write!(f, "{}", self.span)
    }
}

/// Whether any diagnostic in the slice is an error.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Renders a batch of diagnostics, one per paragraph, `rustc`-style.
pub fn render(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .count();
    if errors > 0 || warnings > 0 {
        out.push_str(&format!(
            "verify: {errors} error(s), {warnings} warning(s)\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_is_rustc_like() {
        let d = Diagnostic::error(
            codes::LATENCY,
            Span::Edge {
                from: InstrId(3),
                to: InstrId(5),
            },
            "i5 issues too early",
        )
        .in_region(2, 0);
        let s = d.to_string();
        assert!(s.starts_with("error[C003]: i5 issues too early"));
        assert!(s.contains("--> kernel 2, region 0, edge i3 -> i5"));
    }

    #[test]
    fn has_errors_ignores_warnings() {
        let w = Diagnostic::warning(codes::REDUNDANT_EDGE, Span::Region, "meh");
        assert!(!has_errors(std::slice::from_ref(&w)));
        let e = Diagnostic::error(codes::WRONG_LENGTH, Span::Region, "bad");
        assert!(has_errors(&[w, e]));
    }

    #[test]
    fn render_counts_severities() {
        let diags = vec![
            Diagnostic::error(codes::WRONG_LENGTH, Span::Region, "bad"),
            Diagnostic::warning(codes::REDUNDANT_EDGE, Span::Region, "meh"),
            Diagnostic::note(codes::ISOLATED_NODE, Span::Instr(InstrId(0)), "fyi"),
        ];
        let out = render(&diags);
        assert!(out.contains("verify: 1 error(s), 1 warning(s)"));
    }
}
