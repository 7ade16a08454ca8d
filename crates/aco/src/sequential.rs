//! The sequential (CPU) two-pass ACO scheduler of Shobaki et al. 2022,
//! which the paper parallelizes.

use crate::colony::{self, Candidate, Executor, Pass};
use crate::config::AcoConfig;
use crate::construct::{AntContext, Pass1Ant, Pass2Ant};
use crate::pheromone::PheromoneTable;
use crate::result::AcoResult;
use crate::warm::WarmStart;
use gpu_sim::CpuSpec;
use list_sched::Heuristic;
use machine_model::OccupancyModel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sched_ir::{Cycle, Ddg};

/// Abstract operations per pheromone-table entry touched during
/// evaporation + deposit.
const OPS_PER_PHEROMONE_ENTRY: u64 = 1;

/// Derives a per-ant RNG seed from the base seed, pass, iteration and ant
/// index (splitmix64 finalizer).
pub(crate) fn ant_seed(base: u64, pass: u32, iteration: u32, ant: u32) -> u64 {
    let mut z = base
        ^ (pass as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (iteration as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ (ant as u64).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The sequential two-pass ACO scheduler.
///
/// Pass 1 searches for a minimum-APRP-cost instruction order; pass 2
/// searches for the shortest latency-feasible schedule that keeps the
/// pass-1 cost (Section IV-A). Termination per pass: a pre-computed lower
/// bound is reached, or `termination` iterations elapse without
/// improvement.
///
/// # Example
///
/// ```
/// use aco::{AcoConfig, SequentialScheduler};
/// use machine_model::{OccupancyLut, OccupancyModel};
/// use sched_ir::figure1;
///
/// let ddg = figure1::ddg();
/// let occ = OccupancyModel::unit();
/// let result = SequentialScheduler::new(AcoConfig::small(42)).schedule(&ddg, &occ);
/// result.schedule.validate(&ddg).unwrap();
/// assert_eq!(result.prp[0], 3); // the paper's optimal PRP
/// ```
#[derive(Debug, Clone)]
pub struct SequentialScheduler {
    cfg: AcoConfig,
}

impl SequentialScheduler {
    /// Creates a scheduler with the given configuration.
    pub fn new(cfg: AcoConfig) -> SequentialScheduler {
        SequentialScheduler { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AcoConfig {
        &self.cfg
    }

    /// Schedules a region, returning the best schedule found together with
    /// per-pass statistics and the modeled CPU time.
    pub fn schedule(&mut self, ddg: &Ddg, occ: &OccupancyModel) -> AcoResult {
        self.schedule_with(ddg, occ, None)
    }

    /// Schedules a region, optionally seeding both passes' pheromone
    /// tables from a [`WarmStart`] hint (see [`crate::warm`]).
    ///
    /// With `warm = None` this is exactly [`SequentialScheduler::schedule`]
    /// — bit for bit. An applicable hint replaces the cold uniform table
    /// with a trail saturated along the hinted order and cuts the
    /// no-improvement budget to [`crate::WARM_NO_IMPROVE_BUDGET`]; a hint whose
    /// size does not match the region is ignored.
    pub fn schedule_with(
        &mut self,
        ddg: &Ddg,
        occ: &OccupancyModel,
        warm: Option<&WarmStart>,
    ) -> AcoResult {
        colony::with_context(&self.cfg, ddg, occ, |ctx| {
            colony::run(ctx, occ, warm, &mut CpuExecutor::new(ctx))
        })
    }
}

/// One ant after another on the modeled CPU, counting abstract operations.
struct CpuExecutor<'a> {
    /// Ops of the passes closed so far plus the initial schedule's.
    total_ops: u64,
    /// Pheromone-update ops of the pass in flight.
    pass_ops: u64,
    // One reusable ant per pass: its ops accumulate across resets and are
    // charged once, when the pass ends.
    ant1: Option<Pass1Ant<'a>>,
    ant2: Option<Pass2Ant<'a>>,
    /// Pass-lifetime stream the pass-2 ants draw their heuristics from.
    heuristic_rng: SmallRng,
}

impl<'a> CpuExecutor<'a> {
    fn new(ctx: &AntContext<'a>) -> CpuExecutor<'a> {
        CpuExecutor {
            // The initial heuristic schedule.
            total_ops: (ctx.ddg.len() as u64 + ctx.ddg.edge_count() as u64) * 4,
            pass_ops: 0,
            ant1: None,
            ant2: None,
            heuristic_rng: SmallRng::seed_from_u64(ant_seed(ctx.cfg.seed, 2, 0, 0)),
        }
    }
}

impl<'a> Executor<'a> for CpuExecutor<'a> {
    const GREEDY_SEEDS: bool = false;

    fn pass1_iteration(
        &mut self,
        ctx: &AntContext<'a>,
        pheromone: &PheromoneTable,
        iteration: u32,
        winner: &mut Candidate,
    ) -> u64 {
        let cfg = ctx.cfg;
        let ant = self
            .ant1
            .get_or_insert_with(|| Pass1Ant::new(ctx, cfg.heuristic, 0));
        let mut winner_cost: Option<u64> = None;
        for a in 0..cfg.sequential_ants {
            ant.reset(ctx, ant_seed(cfg.seed, 1, iteration, a));
            ant.construct(ctx, pheromone);
            let cost = ant.cost(ctx);
            // Losing ants are never materialized.
            if winner_cost.is_none_or(|c| cost < c) {
                winner_cost = Some(cost);
                winner.set(ant.order(), &[]);
            }
        }
        self.pass_ops += pheromone.entries() as u64 * OPS_PER_PHEROMONE_ENTRY;
        winner_cost.expect("at least one ant per iteration")
    }

    fn pass2_iteration(
        &mut self,
        ctx: &AntContext<'a>,
        pheromone: &PheromoneTable,
        iteration: u32,
        target_cost: u64,
        winner: &mut Candidate,
    ) -> Option<Cycle> {
        let cfg = ctx.cfg;
        let ant = self
            .ant2
            .get_or_insert_with(|| Pass2Ant::new(ctx, cfg.heuristic, 0, target_cost, true));
        let mut winner_len: Option<Cycle> = None;
        for a in 0..cfg.sequential_ants {
            // The guiding heuristic is varied across ants the same way the
            // parallel algorithm varies it across wavefronts.
            let h = Heuristic::ALL[self.heuristic_rng.gen_range(0..Heuristic::ALL.len())];
            ant.reset_with(ctx, h, ant_seed(cfg.seed, 2, iteration, a), true);
            if ant.construct(ctx, pheromone, None) && winner_len.is_none_or(|l| ant.length() < l) {
                winner_len = Some(ant.length());
                winner.set(ant.order(), ant.cycles());
            }
        }
        self.pass_ops += pheromone.entries() as u64 * OPS_PER_PHEROMONE_ENTRY;
        winner_len
    }

    fn end_pass(&mut self, _ctx: &AntContext<'a>, pass: Pass) -> f64 {
        let ant_ops = match pass {
            Pass::Pressure => self.ant1.as_ref().map_or(0, Pass1Ant::ops),
            Pass::Length => self.ant2.as_ref().map_or(0, Pass2Ant::ops),
        };
        let ops = std::mem::take(&mut self.pass_ops) + ant_ops;
        self.total_ops += ops;
        CpuSpec::default().op_time_us(ops)
    }

    fn totals(&self) -> (u64, f64) {
        (
            self.total_ops,
            CpuSpec::default().op_time_us(self.total_ops),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_ir::figure1;

    #[test]
    fn figure1_finds_prp3_length10() {
        // The identity-APRP model reproduces the paper's walkthrough, where
        // PRP 3 is strictly better than PRP 4.
        let ddg = figure1::ddg();
        let occ = OccupancyModel::unit();
        let r = SequentialScheduler::new(AcoConfig::small(1)).schedule(&ddg, &occ);
        r.schedule.validate(&ddg).unwrap();
        assert_eq!(r.prp[0], 3, "paper's optimal PRP");
        assert_eq!(r.length, 10, "paper's optimal constrained length");
    }

    #[test]
    fn deterministic_across_runs() {
        let ddg = workloads::patterns::sized(60, 3);
        let occ = OccupancyModel::vega_like();
        let a = SequentialScheduler::new(AcoConfig::small(9)).schedule(&ddg, &occ);
        let b = SequentialScheduler::new(AcoConfig::small(9)).schedule(&ddg, &occ);
        assert_eq!(a.order, b.order);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.length, b.length);
    }

    #[test]
    fn aco_never_worse_than_its_initial_schedule() {
        let occ = OccupancyModel::vega_like();
        for seed in 0..6u64 {
            let ddg = workloads::patterns::sized(50 + seed as usize * 17, seed);
            let r = SequentialScheduler::new(AcoConfig::small(seed)).schedule(&ddg, &occ);
            r.schedule.validate(&ddg).unwrap();
            let init_cost = occ.rp_cost(r.initial.prp);
            assert!(
                occ.rp_cost(r.prp) <= init_cost,
                "seed {seed}: RP cost regressed {} -> {}",
                init_cost,
                occ.rp_cost(r.prp)
            );
        }
    }

    #[test]
    fn trivial_regions_bypass_aco() {
        use sched_ir::DdgBuilder;
        let mut b = DdgBuilder::new();
        b.instr("only", [], []);
        let ddg = b.build().unwrap();
        let occ = OccupancyModel::vega_like();
        let r = SequentialScheduler::new(AcoConfig::small(0)).schedule(&ddg, &occ);
        assert_eq!(r.length, 1);
        assert_eq!(r.pass1.iterations, 0);
        assert_eq!(r.pass2.iterations, 0);
    }

    #[test]
    fn lb_hit_stops_iteration_early() {
        // A latency-free chain: any topological order is optimal, the
        // heuristic hits both LBs and ACO never iterates.
        let ddg = workloads::patterns::transform_chain(1, 5, 0);
        let occ = OccupancyModel::vega_like();
        let r = SequentialScheduler::new(AcoConfig::small(0)).schedule(&ddg, &occ);
        assert!(r.pass2.iterations <= 1);
        r.schedule.validate(&ddg).unwrap();
    }

    #[test]
    fn schedule_with_none_is_bitwise_schedule() {
        let ddg = workloads::patterns::sized(70, 21);
        let occ = OccupancyModel::vega_like();
        let cold = SequentialScheduler::new(AcoConfig::small(4)).schedule(&ddg, &occ);
        let explicit =
            SequentialScheduler::new(AcoConfig::small(4)).schedule_with(&ddg, &occ, None);
        assert_eq!(cold.order, explicit.order);
        assert_eq!(cold.schedule, explicit.schedule);
        assert_eq!(cold.ops, explicit.ops);
        assert_eq!(cold.pass1, explicit.pass1);
        assert_eq!(cold.pass2, explicit.pass2);
    }

    #[test]
    fn warm_start_never_degrades_and_saves_iterations() {
        let occ = OccupancyModel::vega_like();
        let mut saved_any = false;
        for seed in 0..6u64 {
            let ddg = workloads::patterns::sized(60 + 10 * (seed as usize % 3), seed);
            let mut cfg = AcoConfig::small(seed);
            cfg.pass2_gate_cycles = 1;
            let cold = SequentialScheduler::new(cfg).schedule(&ddg, &occ);
            let hint = WarmStart::new(cold.order.clone()).unwrap();
            let warm = SequentialScheduler::new(cfg).schedule_with(&ddg, &occ, Some(&hint));
            warm.schedule.validate(&ddg).unwrap();
            // Quality: the warm search reproduces its seed in iteration 1
            // and can only improve on it.
            assert!(
                occ.rp_cost(warm.prp) <= occ.rp_cost(cold.prp),
                "seed {seed}: warm start degraded pressure cost"
            );
            if occ.rp_cost(warm.prp) == occ.rp_cost(cold.prp) {
                assert!(
                    warm.length <= cold.length,
                    "seed {seed}: warm start degraded length at equal cost"
                );
            }
            let cold_iters = cold.pass1.iterations + cold.pass2.iterations;
            let warm_iters = warm.pass1.iterations + warm.pass2.iterations;
            assert!(
                warm_iters <= cold_iters,
                "seed {seed}: warm start cost iterations ({warm_iters} vs {cold_iters})"
            );
            saved_any |= warm_iters < cold_iters;
        }
        assert!(
            saved_any,
            "warm starts must save iterations on at least one region"
        );
    }

    #[test]
    fn mismatched_warm_hint_is_ignored() {
        let ddg = workloads::patterns::sized(50, 9);
        let occ = OccupancyModel::vega_like();
        let wrong_size = WarmStart::new((0..10u32).map(sched_ir::InstrId).collect()).unwrap();
        let cold = SequentialScheduler::new(AcoConfig::small(2)).schedule(&ddg, &occ);
        let hinted = SequentialScheduler::new(AcoConfig::small(2)).schedule_with(
            &ddg,
            &occ,
            Some(&wrong_size),
        );
        assert_eq!(cold.order, hinted.order);
        assert_eq!(cold.ops, hinted.ops);
    }

    #[test]
    fn ops_accounting_is_nonzero_when_aco_runs() {
        let ddg = workloads::patterns::sized(80, 11);
        let occ = OccupancyModel::vega_like();
        let r = SequentialScheduler::new(AcoConfig::small(2)).schedule(&ddg, &occ);
        if r.pass1.iterations + r.pass2.iterations > 0 {
            assert!(r.ops > 1000);
            assert!(r.time_us > 0.0);
        }
    }
}

#[cfg(test)]
mod cap_tests {
    use super::*;
    use crate::config::AcoConfig;

    #[test]
    fn capped_scheduler_recovers_length() {
        // On a region where ACO buys occupancy with much length, capping at
        // the uncapped heuristic's occupancy must shorten the result.
        let occ = OccupancyModel::vega_like();
        for seed in 0..8u64 {
            let ddg = workloads::patterns::sized(120, 40 + seed);
            let cfg = AcoConfig {
                blocks: 8,
                ..AcoConfig::paper(seed)
            };
            let free = SequentialScheduler::new(cfg).schedule(&ddg, &occ);
            if free.occupancy <= free.initial.occupancy || free.length <= free.initial.length {
                continue; // no occupancy-for-length trade on this region
            }
            let capped_cfg = AcoConfig {
                occupancy_cap: Some(free.initial.occupancy),
                ..cfg
            };
            let capped = SequentialScheduler::new(capped_cfg).schedule(&ddg, &occ);
            capped.schedule.validate(&ddg).unwrap();
            assert!(
                capped.length <= free.length,
                "seed {seed}: cap lengthened the schedule ({} -> {})",
                free.length,
                capped.length
            );
            return; // one exercised trade is enough
        }
    }
}
