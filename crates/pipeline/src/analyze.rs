//! In-pipeline static analysis: the `sched-analyze` S-code passes run
//! over every region the pipeline compiles.
//!
//! Analysis is strictly **read-only**: it observes the same
//! `(ddg, compilation)` pairs the verification hook sees and never touches
//! a schedule, a record, or a modeled time, so every suite result is
//! bitwise identical with [`crate::config::AnalyzeConfig`] on or off. The
//! only output is [`AnalysisReport`] on [`crate::SuiteRun::analysis`].
//!
//! A region is analyzed where it is compiled: [`crate::host_pool::run_job`]
//! returns each region's findings on its
//! [`crate::host_pool::RegionOutcome`], and the merge only attributes them
//! to their suite position and absorbs them in canonical order — so the
//! report is identical at every `host_threads` value and the per-region
//! cost parallelizes with the jobs.
//!
//! [`analyze_region`] runs the structural passes (S001–S004) over the
//! region's DDG, and the claim passes (S005/S006) over every schedule the
//! pipeline produced for it: the heuristic baseline and, when ACO ran, the
//! ACO result. A deny finding here means a scheduler claimed something no
//! legal schedule can achieve.

use crate::region::RegionCompilation;
use sched_analyze::{analyze_with_claims, Finding, Level, RegionGraph, ScheduleClaim};
use sched_ir::Ddg;

/// Deny findings kept verbatim in an [`AnalysisReport`]; beyond this the
/// report only counts (a broken suite would otherwise carry thousands of
/// identical findings around).
pub const MAX_REPORTED_DENY: usize = 32;

/// Aggregated outcome of in-pipeline analysis over one suite compilation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalysisReport {
    /// Region compilations analyzed (capped re-schedules count again:
    /// every observed compilation is analyzed).
    pub regions_analyzed: usize,
    /// Total deny-level findings.
    pub deny: usize,
    /// Total warn-level findings.
    pub warn: usize,
    /// Total pedantic-level findings.
    pub pedantic: usize,
    /// The first [`MAX_REPORTED_DENY`] deny findings, verbatim.
    pub deny_findings: Vec<Finding>,
}

impl AnalysisReport {
    /// No deny-level findings anywhere in the suite.
    pub fn is_clean(&self) -> bool {
        self.deny == 0
    }

    /// Folds one batch of findings into the report.
    pub fn absorb(&mut self, findings: impl IntoIterator<Item = Finding>) {
        for f in findings {
            match f.level {
                Level::Deny => {
                    self.deny += 1;
                    if self.deny_findings.len() < MAX_REPORTED_DENY {
                        self.deny_findings.push(f);
                    }
                }
                Level::Warn => self.warn += 1,
                Level::Pedantic => self.pedantic += 1,
            }
        }
    }
}

/// Runs the structural passes (S001–S004) on one compiled region's DDG and
/// the claim passes (S005/S006) on every schedule the compilation carries,
/// over one set of per-region facts.
pub fn analyze_region(ddg: &Ddg, comp: &RegionCompilation) -> Vec<Finding> {
    let h = &comp.heuristic;
    let heuristic = ScheduleClaim {
        length: h.length as u64,
        prp: h.prp,
        source: "heuristic",
    };
    let aco = comp.aco.as_ref().map(|a| ScheduleClaim {
        length: a.length as u64,
        prp: a.prp,
        source: "aco",
    });
    let claims: Vec<ScheduleClaim> = std::iter::once(heuristic).chain(aco).collect();
    analyze_with_claims(&RegionGraph::from_ddg(ddg), &claims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PipelineConfig, SchedulerKind};
    use crate::region::compile_region;
    use machine_model::OccupancyModel;

    fn paper_cfg() -> PipelineConfig {
        let mut c = PipelineConfig::paper(SchedulerKind::ParallelAco, 0);
        c.aco.blocks = 4;
        c
    }

    #[test]
    fn pipeline_compilations_analyze_clean_of_deny_findings() {
        let occ = OccupancyModel::vega_like();
        let cfg = paper_cfg();
        for seed in 0..6u64 {
            let ddg = workloads::patterns::sized(40 + 10 * (seed as usize % 3), seed);
            let comp = compile_region(&ddg, &occ, &cfg);
            let findings = analyze_region(&ddg, &comp);
            let deny: Vec<_> = findings.iter().filter(|f| f.level == Level::Deny).collect();
            assert!(
                deny.is_empty(),
                "seed {seed}: real compilation flagged: {deny:?}"
            );
        }
    }

    #[test]
    fn infeasible_claims_are_denied() {
        let occ = OccupancyModel::vega_like();
        let ddg = workloads::patterns::sized(50, 7);
        let mut comp = compile_region(&ddg, &occ, &paper_cfg());
        comp.heuristic.length = 1; // no 50-instruction schedule fits 1 cycle
        let findings = analyze_region(&ddg, &comp);
        assert!(findings
            .iter()
            .any(|f| f.code == sched_analyze::codes::LENGTH_INFEASIBLE));
    }

    #[test]
    fn report_counts_and_caps() {
        let mut rep = AnalysisReport::default();
        assert!(rep.is_clean());
        let ddg = workloads::patterns::sized(30, 3);
        let g = RegionGraph::from_ddg(&ddg);
        for _ in 0..MAX_REPORTED_DENY + 5 {
            rep.absorb(sched_analyze::check_claims(
                &g,
                &ScheduleClaim {
                    length: 0,
                    prp: [0; sched_ir::REG_CLASS_COUNT],
                    source: "test",
                },
            ));
        }
        assert!(!rep.is_clean());
        assert!(rep.deny > MAX_REPORTED_DENY);
        assert_eq!(rep.deny_findings.len(), MAX_REPORTED_DENY);
    }
}
