//! The verifier's stable codes, reported through the workspace's one
//! diagnostics model ([`sched_analyze::diag`]).
//!
//! Every problem the verifier finds is a [`Finding`]: a stable code (`C0xx`
//! certificate, `L0xx` DDG lint, `A0xx` config lint, `P0xx` pheromone,
//! `D0xx` determinism — the checks here own those code spaces; `S0xx`
//! belongs to `sched-analyze`), a [`sched_analyze::Level`], and a
//! [`sched_analyze::Anchor`] pinpointing where in the input the problem
//! lives. Every verifier code is a violated invariant and therefore `deny`
//! — the only level that invalidates a certificate or fails
//! `gpu-aco-cli verify`:
//!
//! ```text
//! deny[C003]: i5 must issue at cycle 7 or later (producer i3 + latency 4), but issues at 6
//!   --> kernel 2, region 0, edge 3 -> 5
//! ```

use sched_analyze::{render_text, Finding, LevelCounts};

/// Stable verifier codes.
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

    /// Two instructions define the same register (SSA violation).
    pub const DUPLICATE_DEF: &str = "L002";

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

    /// Simulated-GPU scheduling produced different results with different
    /// numbers of idle host cores lent to it.
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

/// Whether any finding in the slice is deny-level.
pub fn has_errors(findings: &[Finding]) -> bool {
    LevelCounts::of(findings).deny > 0
}

/// Renders a batch of findings, one per paragraph, `rustc`-style.
pub fn render(findings: &[Finding]) -> String {
    render_text("verify", findings)
}
