//! `sched-verify` — an independent verification layer for the scheduler
//! stack.
//!
//! The schedulers in this workspace (list scheduling, sequential ACO, the
//! simulated-GPU parallel ACO, and the exact branch-and-bound) all *claim*
//! things about their output: an issue
//! order, a peak register pressure, an occupancy, a length. This crate
//! re-derives every one of those claims from first principles and reports
//! disagreements as [`sched_analyze::Finding`]s — the workspace's one
//! diagnostics model, under this crate's own [`codes`]:
//!
//! * [`certify`] — the certificate checker: topological/def-use ordering,
//!   latency satisfaction, single-issue conflicts, from-scratch live-range
//!   peak-pressure recomputation (sharing no code with `reg-pressure`),
//!   occupancy/cost recomputation, lower-bound consistency, and the
//!   two-pass invariant (final pressure cost ≤ the pass-2 target derived
//!   from the pass-1 best cost).
//! * [`lint`] — lints over DDGs (duplicate defs, and on
//!   request the analyzer's redundant transitive edges), ACO
//!   configurations (degenerate parameters), and pheromone tables
//!   (clamp-band escape, NaN).
//! * [`determinism`] — the determinism checker: identical results across
//!   lent host cores, host thread counts and repeated simulated-GPU runs.
//!
//! [`verify_suite`] wires the checker into the compilation pipeline via
//! [`pipeline::compile_suite_observed`], certifying every schedule the
//! pipeline produces — including the occupancy-capped re-schedules of the
//! kernel post filter, checked under the capped configuration they
//! actually ran with.

pub mod certify;
pub mod determinism;
pub mod diag;
pub mod fingerprint;
pub mod lint;

pub use certify::{
    certify_aco, certify_exact, certify_list, certify_schedule, recompute_prp, Claim,
};
pub use determinism::{
    check_cache_transparency, check_lending_determinism, check_parallel_repeatability,
    check_suite_thread_determinism,
};
pub use diag::{codes, has_errors, render};
pub use fingerprint::{aco_fingerprint, suite_fingerprint};
pub use lint::{lint_config, lint_ddg, lint_ddg_pedantic, lint_pheromone};

use machine_model::OccupancyModel;
use pipeline::{compile_suite_observed, PipelineConfig, RegionCompilation, SuiteRun};
use sched_analyze::Finding;
use sched_ir::Ddg;
use workloads::Suite;

/// Verifies one region compilation: DDG lint plus certification of the
/// heuristic schedule and (when present) the ACO result under the
/// configuration it ran with.
pub fn verify_region_compilation(
    ddg: &Ddg,
    occ: &OccupancyModel,
    cfg: &PipelineConfig,
    c: &RegionCompilation,
) -> Vec<Finding> {
    let mut diags = lint::lint_ddg(ddg);
    diags.extend(certify_region_compilation(ddg, occ, cfg, c));
    diags
}

/// [`verify_region_compilation`] without the DDG lint, for a caller that
/// has linted the region already: certifies the heuristic schedule and
/// (when present) the ACO result under the configuration it ran with.
pub fn certify_region_compilation(
    ddg: &Ddg,
    occ: &OccupancyModel,
    cfg: &PipelineConfig,
    c: &RegionCompilation,
) -> Vec<Finding> {
    let mut diags = certify::certify_list(ddg, occ, &c.heuristic);
    if let Some(aco) = &c.aco {
        diags.extend(certify::certify_aco(ddg, occ, &cfg.aco, aco));
    }
    diags
}

/// The outcome of verifying a whole suite compilation.
#[derive(Debug)]
pub struct SuiteVerification {
    /// Every finding, tagged with its kernel/region.
    pub findings: Vec<Finding>,
    /// Region compilations observed (including capped re-schedules).
    pub compilations: usize,
    /// Schedules certified (heuristic + ACO per compilation).
    pub schedules: usize,
    /// The suite run itself, so callers can also inspect the results.
    pub run: SuiteRun,
}

impl SuiteVerification {
    /// Whether any deny-level finding was found.
    pub fn has_errors(&self) -> bool {
        diag::has_errors(&self.findings)
    }
}

/// Compiles the suite under `cfg` and certifies every schedule the
/// pipeline produces along the way.
///
/// The configuration itself is linted once; each observed region
/// compilation — primary or occupancy-capped re-schedule — contributes a
/// DDG lint plus certificates for its heuristic and ACO schedules, all
/// tagged with the kernel/region they came from.
pub fn verify_suite(
    suite: &Suite,
    occ: &OccupancyModel,
    cfg: &PipelineConfig,
) -> SuiteVerification {
    let mut findings = lint::lint_config(&cfg.aco);
    let mut compilations = 0usize;
    let mut schedules = 0usize;
    let run = compile_suite_observed(suite, occ, cfg, |k, r, ddg, region_cfg, c| {
        compilations += 1;
        schedules += 1 + c.aco.is_some() as usize;
        findings.extend(
            verify_region_compilation(ddg, occ, region_cfg, c)
                .into_iter()
                .map(|d| d.in_region(k, r)),
        );
    });
    SuiteVerification {
        findings,
        compilations,
        schedules,
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipeline::SchedulerKind;
    use workloads::SuiteConfig;

    #[test]
    fn tiny_suite_verifies_clean_under_parallel_aco() {
        let suite = Suite::generate(&SuiteConfig::scaled(5, 0.008));
        let occ = OccupancyModel::vega_like();
        let mut cfg = PipelineConfig::paper(SchedulerKind::ParallelAco, 0);
        cfg.aco.blocks = 4;
        cfg.aco.pass2_gate_cycles = 1;
        let v = verify_suite(&suite, &occ, &cfg);
        assert!(v.compilations >= suite.region_count());
        assert!(v.schedules > v.compilations, "some regions must run ACO");
        assert!(v.findings.is_empty(), "{}", diag::render(&v.findings));
    }
}
