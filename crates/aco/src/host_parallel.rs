//! A host-thread-parallel ACO scheduler.
//!
//! The paper parallelizes ant construction on a GPU; the same independent-ants
//! observation applies to host threads. This executor runs each
//! iteration's ants across OS threads (scoped threads, one chunk
//! of the colony per thread) and merges the iteration winner under a lock.
//!
//! It exists as a correctness cross-check of the parallelization argument
//! (every ant construction is independent given the iteration's pheromone
//! snapshot) and as a practical CPU fallback: on a many-core host it
//! speeds up wall-clock scheduling without any GPU. Results are
//! **deterministic regardless of thread count or interleaving**: ants are
//! seeded by colony index and the winner tie-breaks on that index.

use crate::colony::{self, Candidate, Executor};
use crate::config::AcoConfig;
use crate::construct::{AntContext, Pass1Ant, Pass2Ant};
use crate::pheromone::PheromoneTable;
use crate::result::AcoResult;
use crate::sequential::ant_seed;
use list_sched::Heuristic;
use machine_model::OccupancyModel;
use sched_ir::{Cycle, Ddg, InstrId};
use std::sync::{Mutex, PoisonError};

/// The host-thread-parallel two-pass ACO scheduler.
///
/// # Example
///
/// ```
/// use aco::{AcoConfig, HostParallelScheduler};
/// use machine_model::{OccupancyLut, OccupancyModel};
/// use sched_ir::figure1;
///
/// let ddg = figure1::ddg();
/// let occ = OccupancyModel::unit();
/// let result = HostParallelScheduler::new(AcoConfig::small(1), 2).schedule(&ddg, &occ);
/// result.schedule.validate(&ddg).unwrap();
/// assert_eq!(result.prp[0], 3);
/// ```
#[derive(Debug, Clone)]
pub struct HostParallelScheduler {
    cfg: AcoConfig,
    threads: usize,
}

impl HostParallelScheduler {
    /// Creates a scheduler distributing each iteration's
    /// `cfg.sequential_ants` ants over `threads` host threads.
    pub fn new(cfg: AcoConfig, threads: usize) -> HostParallelScheduler {
        HostParallelScheduler {
            cfg,
            threads: threads.max(1),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AcoConfig {
        &self.cfg
    }

    /// Schedules a region, running ant constructions across host threads.
    pub fn schedule(&mut self, ddg: &Ddg, occ: &OccupancyModel) -> AcoResult {
        let mut exec = HostExecutor {
            threads: self.threads,
        };
        colony::with_context(&self.cfg, ddg, occ, |ctx| {
            colony::run(ctx, occ, None, &mut exec)
        })
    }
}

/// Each iteration's ants in per-thread chunks of the colony; no cost model.
struct HostExecutor {
    threads: usize,
}

impl HostExecutor {
    /// Runs ants `0..cfg.sequential_ants` across threads, one reusable ant
    /// (from `new_ant`) per thread. `construct(ant, a)` builds colony
    /// member `a` and returns its objective, or `None` if it died;
    /// `parts(ant)` is its order and cycles. Returns the winner's
    /// objective after writing it into `winner`.
    ///
    /// Lower objective wins and the colony index breaks ties, so the result
    /// is independent of thread scheduling. The comparison runs under the
    /// lock *before* any copy: losing ants materialize nothing.
    fn iteration<A>(
        &self,
        cfg: &AcoConfig,
        winner: &mut Candidate,
        new_ant: impl Fn() -> A + Sync,
        construct: impl Fn(&mut A, u32) -> Option<u64> + Sync,
        parts: impl Fn(&A) -> (&[InstrId], &[Cycle]) + Sync,
    ) -> Option<u64> {
        let slot = Mutex::new((None::<(u64, u32)>, winner));
        let total = cfg.sequential_ants;
        let chunk = (total as usize).div_ceil(self.threads) as u32;
        std::thread::scope(|scope| {
            for t in 0..self.threads as u32 {
                let (slot, new_ant, construct, parts) = (&slot, &new_ant, &construct, &parts);
                scope.spawn(move || {
                    let lo = t * chunk;
                    let hi = (lo + chunk).min(total);
                    if lo >= hi {
                        return;
                    }
                    let mut ant = new_ant();
                    for a in lo..hi {
                        let Some(objective) = construct(&mut ant, a) else {
                            continue;
                        };
                        let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
                        if slot.0.is_none_or(|best| (objective, a) < best) {
                            slot.0 = Some((objective, a));
                            let (order, cycles) = parts(&ant);
                            slot.1.set(order, cycles);
                        }
                    }
                });
            }
        });
        let (best, _) = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
        best.map(|(objective, _)| objective)
    }
}

impl<'a> Executor<'a> for HostExecutor {
    const GREEDY_SEEDS: bool = true;

    fn pass1_iteration(
        &mut self,
        ctx: &AntContext<'a>,
        pheromone: &PheromoneTable,
        iteration: u32,
        winner: &mut Candidate,
    ) -> u64 {
        let cfg = ctx.cfg;
        self.iteration(
            cfg,
            winner,
            || Pass1Ant::new(ctx, cfg.heuristic, 0),
            |ant, a| {
                ant.reset(ctx, ant_seed(cfg.seed, 1, iteration, a));
                ant.construct(ctx, pheromone);
                Some(ant.cost(ctx))
            },
            |ant| (ant.order(), &[]),
        )
        .expect("at least one ant per iteration")
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
        self.iteration(
            cfg,
            winner,
            || Pass2Ant::new(ctx, cfg.heuristic, 0, target_cost, true),
            |ant, a| {
                // Heuristic varies across the colony as across wavefront
                // groups.
                let h = Heuristic::ALL[a as usize % Heuristic::ALL.len()];
                ant.reset_with(ctx, h, ant_seed(cfg.seed, 2, iteration, a), true);
                ant.construct(ctx, pheromone, None)
                    .then(|| u64::from(ant.length()))
            },
            |ant| (ant.order(), ant.cycles()),
        )
        .map(|len| len as Cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_and_deterministic_across_thread_counts() {
        let occ = OccupancyModel::vega_like();
        let ddg = workloads::patterns::sized(90, 5);
        let cfg = AcoConfig {
            blocks: 4,
            ..AcoConfig::paper(3)
        };
        let one = HostParallelScheduler::new(cfg, 1).schedule(&ddg, &occ);
        let four = HostParallelScheduler::new(cfg, 4).schedule(&ddg, &occ);
        one.schedule.validate(&ddg).unwrap();
        four.schedule.validate(&ddg).unwrap();
        assert_eq!(
            one.order, four.order,
            "thread count must not change the result"
        );
        assert_eq!(one.length, four.length);
        assert_eq!(one.prp, four.prp);
    }

    #[test]
    fn figure1_optimum_found() {
        let ddg = sched_ir::figure1::ddg();
        let occ = OccupancyModel::unit();
        let r = HostParallelScheduler::new(AcoConfig::small(1), 3).schedule(&ddg, &occ);
        assert_eq!(r.prp[0], 3);
        assert_eq!(r.length, 10);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let s = HostParallelScheduler::new(AcoConfig::small(0), 0);
        assert_eq!(s.threads, 1);
    }

    #[test]
    fn quality_matches_sequential_scheduler() {
        // Same colony, same seeds, same selection rules: the host-parallel
        // pass-1 result must equal the sequential scheduler's.
        use crate::sequential::SequentialScheduler;
        let occ = OccupancyModel::vega_like();
        let ddg = workloads::patterns::sized(80, 21);
        let cfg = AcoConfig {
            blocks: 4,
            ..AcoConfig::paper(9)
        };
        let seq = SequentialScheduler::new(cfg).schedule(&ddg, &occ);
        let par = HostParallelScheduler::new(cfg, 2).schedule(&ddg, &occ);
        assert_eq!(seq.pass1.best_cost, par.pass1.best_cost);
        assert_eq!(seq.pass1.iterations, par.pass1.iterations);
    }
}
