//! In-pipeline static analysis: the `sched-analyze` S-code passes run
//! over every region the pipeline compiles, plus the S007 cache-key
//! coverage check.
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
//! Two kinds of checks run:
//!
//! * **per region** ([`analyze_region`]) — the structural passes
//!   (S001–S004) over the region's DDG, and the claim passes (S005/S006)
//!   over every schedule the pipeline produced for it: the heuristic
//!   baseline and, when ACO ran, the ACO result. A deny finding here means
//!   a scheduler claimed something no legal schedule can achieve.
//! * **once per suite** ([`check_config_drift`]) — S007: every
//!   scheduling-relevant [`PipelineConfig`] field and machine-model
//!   parameter must move the schedule-cache key
//!   ([`crate::cache`]'s `hash_config`). A field that does not is a
//!   stale-cache hazard: two configurations that schedule differently
//!   would share cache entries.

use crate::cache;
use crate::config::{PipelineConfig, SchedulerKind};
use crate::region::RegionCompilation;
use gpu_sim::MemLayout;
use list_sched::Heuristic;
use machine_model::OccupancyModel;
use sched_analyze::{
    analyze_with_claims, check_config_coverage, ConfigProbe, Finding, Level, RegionGraph,
    ScheduleClaim,
};
use sched_ir::{Ddg, Fnv64};

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

/// The schedule-cache configuration fingerprint the S007 probes exercise:
/// exactly the fold [`crate::cache`] keys entries with.
pub(crate) fn config_fingerprint(cfg: &PipelineConfig, occ: &OccupancyModel) -> u64 {
    let mut h = Fnv64::new();
    cache::hash_config(&mut h, cfg, occ);
    h.finish()
}

/// Flips the low mantissa bit: guaranteed to change the value's bit
/// pattern, which is what the fingerprint folds.
fn flip(f: f64) -> f64 {
    f64::from_bits(f.to_bits() ^ 1)
}

type Probed = (PipelineConfig, OccupancyModel);

/// One probe per scheduling-relevant field of [`PipelineConfig`] and the
/// machine model. Deliberately **absent** (non-scheduling knobs, so the
/// cache key must NOT include them): the base compile costs, the batching
/// policy (folded into group membership, not the key), `host_threads`,
/// `cache`, and `analyze` itself — all are transparency knobs whose values
/// must share cache entries.
fn drift_probes() -> Vec<ConfigProbe<Probed>> {
    fn occ_with(c: &mut Probed, edit: fn(&mut [u32])) {
        let mut sig = c.1.signature();
        edit(&mut sig);
        c.1 = OccupancyModel::from_signature(sig);
    }
    vec![
        ConfigProbe {
            field: "scheduler",
            mutate: |c| {
                c.0.scheduler = match c.0.scheduler {
                    SchedulerKind::BaseAmd => SchedulerKind::ParallelAco,
                    _ => SchedulerKind::BaseAmd,
                }
            },
        },
        ConfigProbe {
            field: "revert_occupancy_gain",
            mutate: |c| c.0.revert_occupancy_gain += 1,
        },
        ConfigProbe {
            field: "revert_length_penalty",
            mutate: |c| c.0.revert_length_penalty += 1,
        },
        ConfigProbe {
            field: "aco.seed",
            mutate: |c| c.0.aco.seed ^= 0x9e37_79b9_7f4a_7c15,
        },
        ConfigProbe {
            field: "aco.sequential_ants",
            mutate: |c| c.0.aco.sequential_ants += 1,
        },
        ConfigProbe {
            field: "aco.blocks",
            mutate: |c| c.0.aco.blocks += 1,
        },
        ConfigProbe {
            field: "aco.threads_per_block",
            mutate: |c| c.0.aco.threads_per_block += 1,
        },
        ConfigProbe {
            field: "aco.decay",
            mutate: |c| c.0.aco.decay = flip(c.0.aco.decay),
        },
        ConfigProbe {
            field: "aco.q0",
            mutate: |c| c.0.aco.q0 = flip(c.0.aco.q0),
        },
        ConfigProbe {
            field: "aco.beta",
            mutate: |c| c.0.aco.beta = flip(c.0.aco.beta),
        },
        ConfigProbe {
            field: "aco.initial_pheromone",
            mutate: |c| c.0.aco.initial_pheromone = flip(c.0.aco.initial_pheromone),
        },
        ConfigProbe {
            field: "aco.deposit",
            mutate: |c| c.0.aco.deposit = flip(c.0.aco.deposit),
        },
        ConfigProbe {
            field: "aco.tau_min",
            mutate: |c| c.0.aco.tau_min = flip(c.0.aco.tau_min),
        },
        ConfigProbe {
            field: "aco.tau_max",
            mutate: |c| c.0.aco.tau_max = flip(c.0.aco.tau_max),
        },
        ConfigProbe {
            field: "aco.termination.small",
            mutate: |c| c.0.aco.termination.small += 1,
        },
        ConfigProbe {
            field: "aco.termination.medium",
            mutate: |c| c.0.aco.termination.medium += 1,
        },
        ConfigProbe {
            field: "aco.termination.large",
            mutate: |c| c.0.aco.termination.large += 1,
        },
        ConfigProbe {
            field: "aco.termination.max_iterations",
            mutate: |c| c.0.aco.termination.max_iterations += 1,
        },
        ConfigProbe {
            field: "aco.heuristic",
            mutate: |c| {
                c.0.aco.heuristic = match c.0.aco.heuristic {
                    Heuristic::CriticalPath => Heuristic::LastUseCount,
                    _ => Heuristic::CriticalPath,
                }
            },
        },
        ConfigProbe {
            field: "aco.optional_stall_budget",
            mutate: |c| c.0.aco.optional_stall_budget = flip(c.0.aco.optional_stall_budget),
        },
        ConfigProbe {
            field: "aco.tuning.layout",
            mutate: |c| {
                c.0.aco.tuning.layout = match c.0.aco.tuning.layout {
                    MemLayout::Soa => MemLayout::Aos,
                    MemLayout::Aos => MemLayout::Soa,
                }
            },
        },
        ConfigProbe {
            field: "aco.tuning.preallocate",
            mutate: |c| c.0.aco.tuning.preallocate = !c.0.aco.tuning.preallocate,
        },
        ConfigProbe {
            field: "aco.tuning.batched_transfer",
            mutate: |c| c.0.aco.tuning.batched_transfer = !c.0.aco.tuning.batched_transfer,
        },
        ConfigProbe {
            field: "aco.tuning.tight_ready_ub",
            mutate: |c| c.0.aco.tuning.tight_ready_ub = !c.0.aco.tuning.tight_ready_ub,
        },
        ConfigProbe {
            field: "aco.tuning.wavefront_level_choice",
            mutate: |c| {
                c.0.aco.tuning.wavefront_level_choice = !c.0.aco.tuning.wavefront_level_choice
            },
        },
        ConfigProbe {
            field: "aco.tuning.stall_wavefront_fraction",
            mutate: |c| {
                c.0.aco.tuning.stall_wavefront_fraction =
                    flip(c.0.aco.tuning.stall_wavefront_fraction)
            },
        },
        ConfigProbe {
            field: "aco.tuning.early_wavefront_termination",
            mutate: |c| {
                c.0.aco.tuning.early_wavefront_termination =
                    !c.0.aco.tuning.early_wavefront_termination
            },
        },
        ConfigProbe {
            field: "aco.tuning.per_wavefront_heuristics",
            mutate: |c| {
                c.0.aco.tuning.per_wavefront_heuristics = !c.0.aco.tuning.per_wavefront_heuristics
            },
        },
        ConfigProbe {
            field: "aco.pass2_gate_cycles",
            mutate: |c| c.0.aco.pass2_gate_cycles += 1,
        },
        ConfigProbe {
            field: "aco.occupancy_cap",
            mutate: |c| {
                c.0.aco.occupancy_cap = match c.0.aco.occupancy_cap {
                    None => Some(5),
                    Some(_) => None,
                }
            },
        },
        ConfigProbe {
            field: "occ.vgpr_budget",
            mutate: |c| occ_with(c, |sig| sig[0] += 1),
        },
        ConfigProbe {
            field: "occ.vgpr_granule",
            mutate: |c| occ_with(c, |sig| sig[1] += 1),
        },
        ConfigProbe {
            field: "occ.vgpr_per_wave_max",
            mutate: |c| occ_with(c, |sig| sig[2] += 1),
        },
        ConfigProbe {
            field: "occ.sgpr_budget",
            mutate: |c| occ_with(c, |sig| sig[3] += 1),
        },
        ConfigProbe {
            field: "occ.sgpr_granule",
            mutate: |c| occ_with(c, |sig| sig[4] += 1),
        },
        ConfigProbe {
            field: "occ.sgpr_per_wave_max",
            mutate: |c| occ_with(c, |sig| sig[5] += 1),
        },
        ConfigProbe {
            field: "occ.max_waves",
            mutate: |c| occ_with(c, |sig| sig[6] += 1),
        },
    ]
}

/// S007: probes every scheduling-relevant configuration field against the
/// schedule-cache key. Empty on a healthy build; a finding names the field
/// the cache key lost.
pub fn check_config_drift(cfg: &PipelineConfig, occ: &OccupancyModel) -> Vec<Finding> {
    check_config_coverage(&(*cfg, *occ), &drift_probes(), |c: &Probed| {
        config_fingerprint(&c.0, &c.1)
    })
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
    use crate::region::compile_region;

    fn paper_cfg() -> PipelineConfig {
        let mut c = PipelineConfig::paper(SchedulerKind::ParallelAco, 0);
        c.aco.blocks = 4;
        c
    }

    #[test]
    fn cache_key_covers_every_probed_field() {
        let occ = OccupancyModel::vega_like();
        let findings = check_config_drift(&paper_cfg(), &occ);
        assert!(
            findings.is_empty(),
            "cache key lost a scheduling-relevant field:\n{}",
            sched_analyze::render_text("analyze", &findings)
        );
    }

    #[test]
    fn a_lossy_fingerprint_is_caught_per_field() {
        // A fingerprint that ignores the whole config: every probe must
        // report S007 against its own field name.
        let base = (paper_cfg(), OccupancyModel::vega_like());
        let probes = drift_probes();
        let findings = check_config_coverage(&base, &probes, |_| 0u64);
        assert_eq!(findings.len(), probes.len());
        for (f, p) in findings.iter().zip(&probes) {
            assert_eq!(f.code, sched_analyze::codes::CONFIG_DRIFT);
            assert!(
                f.anchor.to_string().contains(p.field),
                "finding {f} does not name probed field {}",
                p.field
            );
        }
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
