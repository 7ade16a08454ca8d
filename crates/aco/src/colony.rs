//! The two-pass colony of Section IV-A, written once.
//!
//! Pass 1 minimises the APRP pressure cost, pass 2 minimises schedule
//! length under the pass-1 cost as a hard constraint, and both iterate
//! *construct ants → pick the iteration winner → evaporate/deposit → stop
//! on the lower bound or the no-improvement budget*. The sequential and
//! simulated-GPU schedulers differ only in how one iteration's ants are
//! constructed and what that costs; each is an
//! [`Executor`] under [`run`], which owns everything else: the initial
//! schedule, incumbents, the pheromone table, termination, the
//! between-pass hand-off and the result.

use crate::config::AcoConfig;
use crate::construct::{AntContext, Pass2Ant};
use crate::pheromone::PheromoneTable;
use crate::result::{AcoResult, PassStats};
use list_sched::{Heuristic, ListScheduler, RegionAnalysis};
use machine_model::{OccupancyLut, OccupancyModel};
use reg_pressure::RegUniverse;
use sched_ir::{Cycle, Ddg, InstrId, Schedule};

/// Pass-2 target cost, relaxed to the configured kernel occupancy cap:
/// pressure below the cap's APRP band buys nothing kernel-wide.
///
/// Public so an external verifier can recompute the two-pass invariant
/// (final pressure cost ≤ this target) without reaching into scheduler
/// internals.
pub fn pass2_target(cfg: &AcoConfig, occ: &OccupancyModel, pass1_cost: u64) -> u64 {
    match cfg.occupancy_cap {
        None => pass1_cost,
        Some(cap) => {
            let prp = [
                occ.max_prp_for_occupancy(sched_ir::RegClass::Vgpr, cap)
                    .unwrap_or(0),
                occ.max_prp_for_occupancy(sched_ir::RegClass::Sgpr, cap)
                    .unwrap_or(0),
            ];
            pass1_cost.max(occ.rp_cost(prp))
        }
    }
}

/// Which of the two searches an executor is being asked about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pass {
    /// Pass 1: minimise the APRP pressure cost.
    Pressure,
    /// Pass 2: minimise length under the pass-1 cost.
    Length,
}

/// An iteration winner or a pass incumbent: its issue order and, in pass 2,
/// its issue cycles (empty in pass 1). The colony owns these for the whole
/// call and executors fill them in place, so no iteration allocates.
#[derive(Debug)]
pub(crate) struct Candidate {
    pub(crate) order: Vec<InstrId>,
    pub(crate) cycles: Vec<Cycle>,
}

impl Candidate {
    pub(crate) fn with_capacity(n: usize) -> Candidate {
        Candidate {
            order: Vec::with_capacity(n),
            cycles: Vec::with_capacity(n),
        }
    }

    /// Overwrites the candidate, reusing its buffers.
    pub(crate) fn set(&mut self, order: &[InstrId], cycles: &[Cycle]) {
        self.order.clear();
        self.order.extend_from_slice(order);
        self.cycles.clear();
        self.cycles.extend_from_slice(cycles);
    }
}

/// How one iteration's ants are constructed, and what that costs.
///
/// An iteration reads the pheromone table it is given, reduces its ants to
/// the *first strictly better* one in ant / wavefront order,
/// writes that winner into `winner` and returns its objective. Per-pass
/// state (ants, wavefronts) is built on the pass's first iteration.
pub(crate) trait Executor<'a> {
    /// Whether pass 2 starts from the exploit-only greedy constructions
    /// (one per [`Heuristic::ALL`]). The simulated-GPU colony runs them;
    /// the sequential one never did, and its op count is pinned.
    const GREEDY_SEEDS: bool;

    /// Runs pass-1 iteration `iteration` (1-based); returns the winner's
    /// APRP cost.
    fn pass1_iteration(
        &mut self,
        ctx: &AntContext<'a>,
        pheromone: &PheromoneTable,
        iteration: u32,
        winner: &mut Candidate,
    ) -> u64;

    /// Runs pass-2 iteration `iteration` (1-based); returns the winner's
    /// length, or `None` when no ant finished under `target_cost`.
    fn pass2_iteration(
        &mut self,
        ctx: &AntContext<'a>,
        pheromone: &PheromoneTable,
        iteration: u32,
        target_cost: u64,
        winner: &mut Candidate,
    ) -> Option<Cycle>;

    /// Closes a pass that was launched (even for zero iterations) and
    /// returns its modeled time, microseconds.
    fn end_pass(&mut self, _ctx: &AntContext<'a>, _pass: Pass) -> f64 {
        0.0
    }

    /// `(ops, time_us)` of everything charged so far, for the result.
    fn totals(&self) -> (u64, f64) {
        (0, 0.0)
    }
}

/// Builds the region-lifetime analyses every ant reads and runs `f` on the
/// context over them.
pub(crate) fn with_context<R>(
    cfg: &AcoConfig,
    ddg: &Ddg,
    occ: &OccupancyModel,
    f: impl FnOnce(&AntContext<'_>) -> R,
) -> R {
    let analysis = RegionAnalysis::new(ddg);
    let universe = RegUniverse::new(ddg);
    let lut = OccupancyLut::new(occ);
    f(&AntContext {
        ddg,
        analysis: &analysis,
        universe: &universe,
        lut: &lut,
        cfg,
    })
}

/// What the two passes' iteration loops share for the whole call.
struct Colony<'c> {
    cfg: &'c AcoConfig,
    /// No-improvement budget of both passes.
    budget: u32,
    /// One table serves both passes: `reset()` restores the uniform
    /// initial level bitwise-identically to a fresh table.
    pheromone: PheromoneTable,
    /// The iteration winner, refilled in place by every iteration.
    winner: Candidate,
}

impl Colony<'_> {
    /// The iteration loop. `iterate` runs one iteration and returns its
    /// winner's objective (`None`: every ant died); `best` and
    /// `best_objective` are the incumbent, replaced on strict improvement.
    fn search(
        &mut self,
        lower_bound: u64,
        best_objective: &mut u64,
        best: &mut Candidate,
        mut iterate: impl FnMut(&PheromoneTable, u32, &mut Candidate) -> Option<u64>,
    ) -> PassStats {
        let cfg = self.cfg;
        let mut stats = PassStats::default();
        let mut no_improve = 0u32;
        while stats.iterations < cfg.termination.max_iterations {
            stats.iterations += 1;
            let objective = iterate(&self.pheromone, stats.iterations, &mut self.winner);
            self.pheromone.evaporate(cfg.decay, cfg.tau_min);
            // An iteration without a finisher deposits nothing and counts
            // as no improvement.
            if objective.is_some() {
                self.pheromone
                    .deposit_order(&self.winner.order, cfg.deposit, cfg.tau_max);
            }
            match objective {
                Some(o) if o < *best_objective => {
                    *best_objective = o;
                    best.set(&self.winner.order, &self.winner.cycles);
                    stats.improved = true;
                    no_improve = 0;
                }
                _ => no_improve += 1,
            }
            if *best_objective <= lower_bound {
                stats.hit_lb = true;
                break;
            }
            if no_improve >= self.budget {
                break;
            }
        }
        stats
    }
}

/// Schedules `ctx.ddg` with the two-pass colony, constructing each
/// iteration's ants on `exec`.
pub(crate) fn run<'a, E: Executor<'a>>(
    ctx: &AntContext<'a>,
    occ: &OccupancyModel,
    exec: &mut E,
) -> AcoResult {
    let (ddg, cfg) = (ctx.ddg, ctx.cfg);
    let n = ddg.len();

    // Initial schedule from the production heuristic: the one heuristic
    // run of an ACO region, which the pipeline keeps as its baseline.
    let initial = ListScheduler::new(Heuristic::AmdMaxOccupancy).schedule_in(
        ddg,
        ctx.lut,
        &ctx.analysis.eta_terms,
        ctx.universe,
    );
    if n <= 1 {
        return AcoResult::trivial(ddg, occ, initial, exec.totals().1);
    }

    let mut colony = Colony {
        cfg,
        budget: cfg.termination.budget(n),
        pheromone: PheromoneTable::new(n, cfg.initial_pheromone),
        winner: Candidate::with_capacity(n),
    };

    // ---- Pass 1: minimise the APRP register-pressure cost. ----
    let rp_lb = occ.rp_cost_lb(ddg.rp_lower_bound());
    let mut best = Candidate {
        order: initial.order.clone(),
        cycles: Vec::new(),
    };
    let mut best_cost = occ.rp_cost(initial.prp);
    let mut pass1 = PassStats::default();
    if best_cost > rp_lb {
        pass1 = colony.search(rp_lb, &mut best_cost, &mut best, |pheromone, i, winner| {
            Some(exec.pass1_iteration(ctx, pheromone, i, winner))
        });
        pass1.time_us = exec.end_pass(ctx, Pass::Pressure);
    } else {
        pass1.hit_lb = true;
    }
    pass1.best_cost = best_cost;

    // ---- Between passes: stalls are added to the best-RP order. ----
    let mut best_schedule = Schedule::from_order(ddg, &best.order);
    let mut best_length = best_schedule.length();
    let target_cost = pass2_target(cfg, occ, best_cost);

    // ---- Pass 2: minimise length under the pass-1 cost constraint. ----
    // A schedule on the length bound is optimal, so pass 2 is skipped, and
    // a pass 2 that reaches the bound stops. The cycle threshold (Section
    // VI-D) still measures its gap from `max(n, critical path)`: measured
    // from the tighter bound, a 21-cycle threshold gates out regions pass 2
    // still shortens.
    let len_lb = ctx.analysis.facts.length_lb;
    let gate_floor = (n as Cycle).max(ctx.analysis.facts.critical_path);
    let gate = cfg.pass2_gate_cycles.max(1) as Cycle;
    let mut pass2 = PassStats::default();
    if best_length > len_lb && best_length >= gate_floor + gate {
        colony.pheromone.reset();
        // The incumbent's cycles live in a plain buffer during the search
        // and become a `Schedule` exactly once, by move, after it.
        best.cycles.extend_from_slice(best_schedule.cycles());
        if E::GREEDY_SEEDS {
            // Deterministic exploit-only constructions that respect the
            // constraint and stall freely; different heuristics survive
            // different binds.
            let mut greedy = Pass2Ant::new(ctx, cfg.heuristic, 0, target_cost, true);
            greedy.set_stall_budget(u32::MAX);
            for h in Heuristic::ALL {
                greedy.reset_with(ctx, h, 0, true);
                if greedy.construct(ctx, &colony.pheromone, Some(false))
                    && greedy.length() < best_length
                {
                    best_length = greedy.length();
                    best.set(greedy.order(), greedy.cycles());
                }
            }
        }
        let mut best_len = u64::from(best_length);
        pass2 = colony.search(
            u64::from(len_lb),
            &mut best_len,
            &mut best,
            |pheromone, i, winner| {
                exec.pass2_iteration(ctx, pheromone, i, target_cost, winner)
                    .map(u64::from)
            },
        );
        best_length = best_len as Cycle;
        best_schedule = Schedule::from_cycles(best.cycles);
        pass2.time_us = exec.end_pass(ctx, Pass::Length);
    } else if best_length <= len_lb {
        pass2.hit_lb = true;
    } else {
        pass2.gated = true;
    }
    pass2.best_cost = u64::from(best_length);

    let prp = reg_pressure::prp_of_order_in(ctx.universe, &best.order);
    let (ops, time_us) = exec.totals();
    AcoResult {
        occupancy: occ.occupancy(prp),
        prp,
        length: best_length,
        order: best.order,
        schedule: best_schedule,
        initial,
        pass1,
        pass2,
        ops,
        time_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Termination;

    /// A generated region under the identity-APRP model whose initial
    /// schedule is above both lower bounds, so both passes have work.
    struct Region {
        ddg: Ddg,
        occ: OccupancyModel,
        initial: Vec<InstrId>,
        initial_cost: u64,
        initial_length: Cycle,
        rp_lb: u64,
        len_lb: Cycle,
    }

    fn region(size: usize, seed: u64) -> Region {
        let ddg = workloads::patterns::sized(size, seed);
        let occ = OccupancyModel::unit();
        let initial = ListScheduler::new(Heuristic::AmdMaxOccupancy).schedule(&ddg, &occ);
        let r = Region {
            initial_cost: occ.rp_cost(initial.prp),
            initial_length: Schedule::from_order(&ddg, &initial.order).length(),
            rp_lb: occ.rp_cost_lb(ddg.rp_lower_bound()),
            len_lb: ddg.schedule_length_lb(),
            initial: initial.order,
            ddg,
            occ,
        };
        assert!(r.initial_cost > r.rp_lb + 8, "pass 1 needs room to improve");
        assert!(r.initial_length > r.len_lb);
        r
    }

    impl Region {
        fn run(&self, cfg: &AcoConfig, exec: &mut Scripted) -> AcoResult {
            with_context(cfg, &self.ddg, &self.occ, |ctx| run(ctx, &self.occ, exec))
        }
    }

    /// Replays scripted objectives for one fixed winner order (the initial
    /// schedule's) and records what the colony showed it.
    #[derive(Default)]
    struct Scripted {
        order: Vec<InstrId>,
        /// Claimed pass-1 winner costs, by iteration.
        costs: Vec<u64>,
        /// Claimed pass-2 winner lengths, by iteration; `None`: every ant
        /// died.
        lengths: Vec<Option<Cycle>>,
        /// τ(start → `order[0]`) as each pass-2 iteration saw it.
        seen_tau: Vec<f64>,
        ended: Vec<Pass>,
    }

    /// `iterations` winners per pass that never improve on the incumbent.
    fn stale(r: &Region, iterations: usize) -> Scripted {
        Scripted {
            order: r.initial.clone(),
            costs: vec![u64::MAX; iterations],
            lengths: vec![Some(Cycle::MAX); iterations],
            ..Scripted::default()
        }
    }

    impl<'a> Executor<'a> for Scripted {
        const GREEDY_SEEDS: bool = false;

        fn pass1_iteration(
            &mut self,
            _ctx: &AntContext<'a>,
            _pheromone: &PheromoneTable,
            iteration: u32,
            winner: &mut Candidate,
        ) -> u64 {
            winner.set(&self.order, &[]);
            self.costs[iteration as usize - 1]
        }

        fn pass2_iteration(
            &mut self,
            ctx: &AntContext<'a>,
            pheromone: &PheromoneTable,
            iteration: u32,
            _target_cost: u64,
            winner: &mut Candidate,
        ) -> Option<Cycle> {
            self.seen_tau.push(pheromone.get(None, self.order[0]));
            let cycles = Schedule::from_order(ctx.ddg, &self.order);
            winner.set(&self.order, cycles.cycles());
            self.lengths[iteration as usize - 1]
        }

        fn end_pass(&mut self, _ctx: &AntContext<'a>, pass: Pass) -> f64 {
            self.ended.push(pass);
            0.0
        }
    }

    /// A cold no-improvement budget of `budget`, pass 2 open above its
    /// bound.
    fn cfg(budget: u32) -> AcoConfig {
        AcoConfig {
            termination: Termination {
                small: budget,
                ..Termination::paper()
            },
            pass2_gate_cycles: 1,
            ..AcoConfig::small(0)
        }
    }

    #[test]
    fn a_pass_stops_on_the_no_improvement_budget() {
        let r = region(34, 9);
        let mut exec = stale(&r, 3);
        let out = r.run(&cfg(3), &mut exec);
        for (pass, best) in [
            (out.pass1, r.initial_cost),
            (out.pass2, u64::from(r.initial_length)),
        ] {
            assert_eq!(pass.iterations, 3);
            assert!(!pass.improved && !pass.hit_lb && !pass.gated);
            assert_eq!(pass.best_cost, best);
        }
        assert_eq!(out.order, r.initial);
        assert_eq!(exec.ended, [Pass::Pressure, Pass::Length]);
    }

    #[test]
    fn a_pass_stops_on_its_lower_bound() {
        let r = region(34, 9);
        let mut exec = stale(&r, 2);
        exec.costs[1] = r.rp_lb;
        exec.lengths[1] = Some(r.len_lb);
        let out = r.run(&cfg(3), &mut exec);
        for (pass, bound) in [(out.pass1, r.rp_lb), (out.pass2, u64::from(r.len_lb))] {
            assert_eq!(pass.iterations, 2);
            assert!(pass.improved && pass.hit_lb);
            assert_eq!(pass.best_cost, bound);
        }
    }

    #[test]
    fn a_pass_stops_at_max_iterations() {
        let r = region(34, 9);
        let mut cfg = cfg(100);
        cfg.termination.max_iterations = 4;
        // Every pass-1 iteration improves a little, so its budget never
        // runs out; pass 2's is simply larger than the cap.
        let mut exec = stale(&r, 4);
        exec.costs = (1..=4).map(|i| r.initial_cost - i).collect();
        let out = r.run(&cfg, &mut exec);
        assert_eq!((out.pass1.iterations, out.pass2.iterations), (4, 4));
        assert!(out.pass1.improved && !out.pass1.hit_lb && !out.pass2.improved);
        assert_eq!(out.pass1.best_cost, r.initial_cost - 4);
    }

    #[test]
    fn passes_at_their_bounds_never_launch() {
        // A latency-free chain: the heuristic schedule is optimal in both
        // objectives.
        let ddg = workloads::patterns::transform_chain(1, 5, 0);
        let occ = OccupancyModel::vega_like();
        let mut exec = Scripted::default();
        let out = with_context(&cfg(3), &ddg, &occ, |ctx| run(ctx, &occ, &mut exec));
        assert!(out.pass1.hit_lb && out.pass2.hit_lb && !out.pass2.gated);
        assert_eq!(out.pass1.iterations + out.pass2.iterations, 0);
        assert!(exec.ended.is_empty());
    }

    #[test]
    fn the_gate_skips_pass2_above_the_bound() {
        let r = region(34, 9);
        let mut cfg = cfg(1);
        cfg.pass2_gate_cycles = 1000;
        let mut exec = stale(&r, 1);
        let out = r.run(&cfg, &mut exec);
        assert!(out.pass2.gated && !out.pass2.hit_lb);
        assert_eq!(out.pass2.iterations, 0);
        assert_eq!(out.pass2.best_cost, u64::from(r.initial_length));
        assert_eq!(exec.ended, [Pass::Pressure]);
    }

    #[test]
    fn a_dead_pass2_iteration_evaporates_without_deposit() {
        let r = region(34, 9);
        let cfg = cfg(3);
        let mut exec = stale(&r, 3);
        exec.lengths[1] = None;
        exec.lengths[2] = None;
        let out = r.run(&cfg, &mut exec);
        // Three non-improving iterations, two of them without a finisher.
        assert_eq!(out.pass2.iterations, 3);
        assert!(!out.pass2.improved);
        // The winner's start link: uniform after the between-pass reset,
        // evaporated + deposited by iteration 1, then only evaporated by
        // the dead iteration 2.
        let fresh = cfg.initial_pheromone;
        let deposited = (fresh * cfg.decay + cfg.deposit).min(cfg.tau_max);
        let evaporated = (deposited * cfg.decay).max(cfg.tau_min);
        assert_eq!(exec.seen_tau, [fresh, deposited, evaporated]);
    }

    #[test]
    fn pass2_target_relaxes_to_the_cap_band() {
        let occ = OccupancyModel::vega_like();
        let cfg = AcoConfig::small(0);
        // Tight pass-1 cost (occupancy 10 band) stays when no cap is set...
        let tight = occ.rp_cost([20, 0]);
        assert_eq!(pass2_target(&cfg, &occ, tight), tight);
        // ...and relaxes to the cap's band maximum when one is.
        let capped_cfg = AcoConfig {
            occupancy_cap: Some(5),
            ..cfg
        };
        let relaxed = pass2_target(&capped_cfg, &occ, tight);
        assert!(relaxed > tight);
        assert_eq!(
            occ.occupancy([
                occ.max_prp_for_occupancy(sched_ir::RegClass::Vgpr, 5)
                    .unwrap(),
                0
            ]),
            5
        );
    }

    #[test]
    fn cap_never_tightens_the_target() {
        let occ = OccupancyModel::vega_like();
        // A pass-1 cost already looser than the cap band is kept.
        let cfg = AcoConfig {
            occupancy_cap: Some(9),
            ..AcoConfig::small(0)
        };
        let loose = occ.rp_cost([200, 0]); // occupancy 1 band
        assert_eq!(pass2_target(&cfg, &occ, loose), loose);
    }
}
