//! The GPU-parallel ACO scheduler (Sections IV-B and V).
//!
//! The scheduling kernel maps **one ant to one GPU thread** and runs one
//! 64-thread wavefront per block (so blocks never need intra-block
//! synchronization barriers beyond lockstep execution). Each kernel launch
//! iterates: *construct schedules in parallel* → *parallel reduction to the
//! iteration winner* → *parallel pheromone update*, until the lower bound
//! is hit or the termination condition fires.
//!
//! Because no GPU is present, the kernel is *simulated*: the 64 ants of
//! each wavefront are stepped in lockstep by host code, and every round is
//! priced on the [`gpu_sim`] cost model — the maximum ready-list scan over
//! the lanes (lockstep), serialized divergent paths (explore vs exploit,
//! issue vs stall), and coalesced vs scattered memory traffic depending on
//! the configured [`gpu_sim::MemLayout`]. The construction *results* are
//! identical to what a real lockstep execution would produce; only the
//! clock is modeled. See DESIGN.md for the substitution rationale.
//!
//! All of the paper's GPU optimizations are implemented as
//! [`crate::GpuTuning`] toggles so the ablation experiments (Tables 4.a,
//! 4.b and 6) can switch them individually:
//!
//! * memory: SoA layout, host-side preallocation, batched transfers, tight
//!   ready-list bounds (Section V-A);
//! * divergence: wavefront-level explore/exploit choice, restricting
//!   optional stalls to a fraction of wavefronts, early wavefront
//!   termination, per-wavefront guiding heuristics (Section V-B).
//!
//! An iteration's wavefronts are independent, so idle host cores lent
//! through [`crate::lend`] run some of them; the owner folds their costs and
//! winners in wavefront order, so every result is bit-identical.

use crate::colony::{self, Candidate, Executor, Pass};
use crate::config::AcoConfig;
use crate::construct::AntContext;
use crate::lend::Loan;
use crate::lockstep::{Pass1Wavefront, Pass2Wavefront};
use crate::pheromone::PheromoneTable;
use crate::result::AcoResult;
use crate::sequential::ant_seed;
use gpu_sim::{GpuSpec, LaunchProfile, MemLayout, WavefrontCost};
use list_sched::Heuristic;
use machine_model::OccupancyModel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sched_ir::{Cycle, Ddg};
use std::sync::atomic::{AtomicU32, Ordering};
use std::thread;

/// Regions below this many instructions never borrow an idle core: their
/// iterations are too short to repay spawning and joining a helper thread.
pub const LEND_MIN_INSTRS: usize = 100;

/// SIMT steps charged per candidate in a selection scan.
const STEPS_PER_CANDIDATE: u64 = 4;
/// Fixed SIMT steps per construction round.
const STEPS_PER_ROUND: u64 = 8;
/// SIMT steps per candidate on the cheap (stall) path.
const STALL_STEPS_PER_CANDIDATE: u64 = 1;
/// Effective lanes charged for a scattered (AoS) state access: adjacent
/// struct instances share cache lines, so a 64-lane scattered access costs
/// ~16 transactions rather than 64.
const AOS_EFFECTIVE_LANES: u32 = 16;

/// GPU-side observability of one parallel scheduling run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GpuStats {
    /// Setup + kernel profile of the pass-1 launch.
    pub pass1_profile: LaunchProfile,
    /// Setup + kernel profile of the pass-2 launch.
    pub pass2_profile: LaunchProfile,
    /// SIMT steps spent in serialized divergent paths.
    pub divergent_steps: u64,
    /// Total device memory transactions.
    pub mem_transactions: u64,
}

impl GpuStats {
    /// Total modeled GPU wall time, microseconds.
    pub fn total_us(&self) -> f64 {
        self.pass1_profile.total_us() + self.pass2_profile.total_us()
    }
}

/// Outcome of a parallel scheduling run: the ACO result plus GPU
/// observability.
#[derive(Debug, Clone)]
pub struct ParallelOutcome {
    /// The scheduling result (same shape as the sequential scheduler's).
    pub result: AcoResult,
    /// GPU time model observations.
    pub gpu: GpuStats,
}

/// The GPU-parallel two-pass ACO scheduler.
///
/// # Example
///
/// ```
/// use aco::{AcoConfig, ParallelScheduler};
/// use machine_model::{OccupancyLut, OccupancyModel};
///
/// // A generated region above its length bound, so the colony launches.
/// let ddg = workloads::patterns::sized(40, 3);
/// let occ = OccupancyModel::vega_like();
/// let out = ParallelScheduler::new(AcoConfig::small(42)).schedule(&ddg, &occ);
/// out.result.schedule.validate(&ddg).unwrap();
/// assert!(out.gpu.total_us() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ParallelScheduler {
    cfg: AcoConfig,
    spec: GpuSpec,
}

impl ParallelScheduler {
    /// Creates a scheduler targeting the default Radeon-VII-like device.
    pub fn new(cfg: AcoConfig) -> ParallelScheduler {
        ParallelScheduler::with_spec(cfg, GpuSpec::radeon_vii())
    }

    /// Creates a scheduler with an explicit device model.
    pub fn with_spec(cfg: AcoConfig, spec: GpuSpec) -> ParallelScheduler {
        ParallelScheduler { cfg, spec }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AcoConfig {
        &self.cfg
    }

    /// Schedules a region on the simulated GPU.
    pub fn schedule(&mut self, ddg: &Ddg, occ: &OccupancyModel) -> ParallelOutcome {
        colony::with_context(&self.cfg, ddg, occ, |ctx| {
            let mut exec = GpuExecutor {
                sched: self,
                gpu: GpuStats::default(),
                kernel_cycles: 0,
                iter_wf_cycles: Vec::with_capacity(self.cfg.blocks as usize),
                crew1: Vec::new(),
                crew2: Vec::new(),
            };
            let result = colony::run(ctx, occ, &mut exec);
            ParallelOutcome {
                result,
                gpu: exec.gpu,
            }
        })
    }

    /// Whether wavefront `w` is allowed to insert optional stalls.
    fn wavefront_may_stall(&self, w: u32) -> bool {
        let allowed =
            (self.cfg.blocks as f64 * self.cfg.tuning.stall_wavefront_fraction).round() as u32;
        w < allowed
    }

    /// Guiding heuristic of wavefront `w`.
    fn wavefront_heuristic(&self, w: u32) -> Heuristic {
        if self.cfg.tuning.per_wavefront_heuristics {
            Heuristic::ALL[w as usize % Heuristic::ALL.len()]
        } else {
            self.cfg.heuristic
        }
    }

    /// Models the setup (allocation + host→device copy) of one launch.
    fn setup_profile(&self, ctx: &AntContext<'_>) -> LaunchProfile {
        let t = &self.cfg.tuning;
        let n = ctx.ddg.len() as u64;
        let edges = ctx.ddg.edge_count() as u64;
        let regs = ctx.universe.reg_count() as u64;
        let threads = self.cfg.parallel_ants() as u64;
        let ub = if t.tight_ready_ub {
            ctx.analysis.ready_list_ub as u64
        } else {
            n // the loose bound: every instruction could be ready
        };
        // Shared data: pheromone table, DDG arrays (succ/pred lists with
        // latencies), per-instruction metadata, and ONE template of the
        // initial per-ant state (pressure counters etc.) that the device
        // broadcasts — every ant starts identical, so only one copy
        // crosses the bus.
        let shared = (n + 1) * n * 8 + (n * 16 + edges * 8) + n * 8 + regs * 3 + n * 4;
        // Per-thread state that genuinely differs per ant: ready-list
        // storage, RNG seed, cursors.
        let per_thread = ub * 2 + 48;
        let bytes = shared + per_thread * threads;
        let (device_allocs, host_allocs, copy_calls) = if t.preallocate {
            // One big device block, a handful of host staging arrays.
            (
                1,
                8,
                if t.batched_transfer {
                    4
                } else {
                    24 + threads / 64
                },
            )
        } else {
            // Device-side dynamic allocation per structure group — the slow
            // path the paper explicitly avoids.
            (
                8 + threads / 256,
                8,
                if t.batched_transfer {
                    4
                } else {
                    24 + threads / 64
                },
            )
        };
        LaunchProfile {
            alloc_us: self.spec.alloc_time_us(device_allocs, host_allocs),
            copy_us: self.spec.transfer_time_us(copy_calls, bytes),
            copy_bytes: bytes,
            kernel_us: 0.0,
        }
    }

    /// Per-iteration cost of the reduction + pheromone-update stages,
    /// charged to every wavefront (they all participate).
    fn update_stage_cost(&self, ctx: &AntContext<'_>, wf: &mut WavefrontCost) {
        let entries = ((ctx.ddg.len() + 1) * ctx.ddg.len()) as u64;
        let chunk = entries.div_ceil(self.cfg.parallel_ants() as u64);
        // Tree reduction over the block + global winner check.
        wf.uniform(6 + 4);
        // Each thread evaporates + deposits its pheromone column slice.
        wf.uniform(chunk * 2);
        wf.mem_accesses(chunk, self.cfg.threads_per_block, self.cfg.tuning.layout);
    }

    /// Charges the per-round state traffic (ready-list reads/writes,
    /// pressure counters, successor lists) under the configured layout.
    fn state_accesses(&self, wf: &mut WavefrontCost, accesses: u64, lanes: u32, layout: MemLayout) {
        match layout {
            MemLayout::Soa => wf.mem_accesses(accesses, lanes, MemLayout::Soa),
            MemLayout::Aos => {
                wf.mem_accesses(accesses, lanes.min(AOS_EFFECTIVE_LANES), MemLayout::Aos)
            }
        }
    }
}

/// The best `(objective, w)` a participant has seen in an iteration; a
/// candidate replaces it only if strictly less in that order.
type Best = Option<(u64, u32)>;

/// What every wavefront of one iteration reads: the scheduler, the
/// region, the pheromone table and the iteration number.
#[derive(Clone, Copy)]
struct Iteration<'i, 'a>(
    &'i ParallelScheduler,
    &'i AntContext<'a>,
    &'i PheromoneTable,
    u32,
);

impl<'a> Iteration<'_, 'a> {
    /// Stream of wavefront `w`'s explore/exploit choices.
    fn wavefront_rng(&self, pass: u32, w: u32) -> SmallRng {
        let seed = self.0.cfg.seed ^ 0x5A5A_F00D;
        SmallRng::seed_from_u64(ant_seed(seed, pass, self.3, w))
    }

    /// Runs pass-1 wavefront `w` on `ants` and returns its cost, reduction
    /// and update stages included. If its first minimum-cost lane beats
    /// `best`, that lane's order is copied into `winner`.
    fn pass1_wavefront(
        &self,
        w: u32,
        ants: &mut Pass1Wavefront<'a>,
        best: &mut Best,
        winner: &mut Candidate,
    ) -> WavefrontCost {
        let Iteration(sched, ctx, pheromone, iteration) = *self;
        let (cfg, lanes) = (ctx.cfg, ctx.cfg.threads_per_block);
        let layout = cfg.tuning.layout;
        let mut wf = WavefrontCost::new(&sched.spec);
        let mut wf_rng = self.wavefront_rng(1, w);
        ants.launch(ctx, sched.wavefront_heuristic(w), |l| {
            ant_seed(cfg.seed, 1, iteration, w * lanes + l)
        });
        for _step in 0..ctx.ddg.len() {
            let (explored, mixed) = if cfg.tuning.wavefront_level_choice {
                (Some(wf_rng.gen::<f64>() > cfg.q0), false)
            } else {
                (None, true)
            };
            let round = ants.round(ctx, pheromone, explored);
            let select_steps = round.scan_max * STEPS_PER_CANDIDATE + STEPS_PER_ROUND;
            if mixed && round.any_explore && round.any_exploit {
                // Thread-level choice: both selection formulas are
                // traversed serially by the wavefront.
                wf.diverge(&[select_steps, select_steps]);
            } else {
                wf.uniform(select_steps);
            }
            wf.uniform(round.succ_max * 2);
            sched.state_accesses(&mut wf, round.scan_max + round.succ_max, lanes, layout);
        }
        let (cost, class) = ants.best(ctx);
        if best.is_none_or(|b| (cost, w) < b) {
            *best = Some((cost, w));
            winner.set(ants.order(class), &[]);
        }
        sched.update_stage_cost(ctx, &mut wf);
        wf
    }

    /// Runs pass-2 wavefront `w` (see [`Iteration::pass1_wavefront`]); the
    /// objective is its first shortest finisher's length, if any finished.
    fn pass2_wavefront(
        &self,
        w: u32,
        ants: &mut Pass2Wavefront<'a>,
        best: &mut Best,
        winner: &mut Candidate,
    ) -> WavefrontCost {
        let Iteration(sched, ctx, pheromone, iteration) = *self;
        let (cfg, lanes) = (ctx.cfg, ctx.cfg.threads_per_block);
        let layout = cfg.tuning.layout;
        let round_cap = 4 * ctx.ddg.len() as u64 + 64;
        let mut wf = WavefrontCost::new(&sched.spec);
        let mut wf_rng = self.wavefront_rng(2, w);
        // Heuristic and stall permission rotate per wavefront; the target
        // cost is fixed for the whole launch.
        ants.launch(
            ctx,
            sched.wavefront_heuristic(w),
            sched.wavefront_may_stall(w),
            |l| ant_seed(cfg.seed, 2, iteration, w * lanes + l),
        );
        let mut rounds = 0u64;
        while ants.any_running() && rounds < round_cap {
            rounds += 1;
            let explored = cfg
                .tuning
                .wavefront_level_choice
                .then(|| wf_rng.gen::<f64>() > cfg.q0);
            let round = ants.round(ctx, pheromone, explored);
            // Divergent paths of this round: the two selection formulas
            // and the cheap stall path serialize. Pass-2 selection also
            // runs the pressure-constraint check per candidate; the stall
            // path rescans the ready list for issuability and arrival
            // times.
            let select_steps = round.scan_max * (STEPS_PER_CANDIDATE + 2) + STEPS_PER_ROUND;
            let stall_steps = round.scan_max * (STALL_STEPS_PER_CANDIDATE + 1) + 4;
            let mut paths = [2u64; 3];
            let mut np = 0;
            for (taken, steps) in [
                (round.issued_exploit, select_steps),
                (round.issued_explore, select_steps),
                (round.stalled, stall_steps),
            ] {
                if taken {
                    paths[np] = steps;
                    np += 1;
                }
            }
            wf.diverge(&paths[..np.max(1)]);
            wf.uniform(round.succ_max * 2);
            // Pass-2 lanes sit at different cycles of different-length
            // schedules, so their state accesses spread over several times
            // the address range of the aligned pass-1 case and coalesce far
            // worse.
            sched.state_accesses(
                &mut wf,
                4 * (round.scan_max + round.succ_max),
                lanes,
                layout,
            );

            if round.finished_now && cfg.tuning.early_wavefront_termination {
                // The first finisher has the fewest cycles; later finishers
                // cannot win the iteration (Section V-B).
                ants.kill_running();
                break;
            }
        }
        if let Some((len, class)) = ants.best() {
            if best.is_none_or(|b| (u64::from(len), w) < b) {
                *best = Some((u64::from(len), w));
                winner.set(ants.order(class), ants.cycles(class));
            }
        }
        sched.update_stage_cost(ctx, &mut wf);
        wf
    }
}

/// One participant's scratch in a launch: its wavefront, its best
/// `(objective, w)` this iteration with that winner's order and cycles, and
/// the `(w, cost)` of each wavefront it ran. A crew is the owner's member
/// and one per core borrowed at once so far, all reserved by the owner.
struct Member<W> {
    ants: W,
    best: Best,
    winner: Candidate,
    records: Vec<(u32, WavefrontCost)>,
}

/// Runs one iteration's wavefronts on `crew[0]` (the owner) and a helper
/// thread per borrowed core, and folds them as the owner alone would have:
/// costs into `gpu` and `wf_cycles` in `w` order, the minimum `(objective,
/// w)` returned with its order and cycles in `winner`.
fn iterate<W: Send>(
    crew: &mut Vec<Member<W>>,
    ctx: &AntContext<'_>,
    gpu: &mut GpuStats,
    wf_cycles: &mut Vec<u64>,
    winner: &mut Candidate,
    new_ants: impl Fn() -> W,
    wavefront: impl Fn(u32, &mut W, &mut Best, &mut Candidate) -> WavefrontCost + Sync,
) -> Best {
    let blocks = ctx.cfg.blocks;
    let loan = (ctx.ddg.len() >= LEND_MIN_INSTRS)
        .then(|| Loan::take(blocks.saturating_sub(1) as usize))
        .flatten();
    let members = 1 + loan.as_ref().map_or(0, |loan| loan.cores);
    if crew.len() < members {
        crew.resize_with(members, || Member {
            ants: new_ants(),
            best: None,
            winner: Candidate::with_capacity(ctx.ddg.len()),
            records: Vec::with_capacity(blocks as usize),
        });
    }
    let cursor = AtomicU32::new(0);
    let run = |m: &mut Member<W>| {
        m.best = None;
        m.records.clear();
        while let Some(w) = Some(cursor.fetch_add(1, Ordering::Relaxed)).filter(|&w| w < blocks) {
            let wf = wavefront(w, &mut m.ants, &mut m.best, &mut m.winner);
            m.records.push((w, wf));
        }
    };
    match &mut crew[..members] {
        [owner] => run(owner),
        [owner, helpers @ ..] => {
            // A helper's panic makes the scope panic once all have joined;
            // the loan goes back as this frame unwinds.
            let run = &run;
            thread::scope(|s| {
                for h in helpers {
                    s.spawn(move || run(h));
                }
                run(owner);
            });
        }
        [] => unreachable!("the owner is always a member"),
    }
    wf_cycles.clear();
    wf_cycles.resize(blocks as usize, 0);
    let mut best = None;
    for m in &crew[..members] {
        for &(w, wf) in &m.records {
            gpu.divergent_steps += wf.divergent_steps();
            gpu.mem_transactions += wf.mem_transactions();
            wf_cycles[w as usize] = wf.cycles();
        }
        if let Some(key) = m.best.filter(|&key| best.is_none_or(|b| key < b)) {
            best = Some(key);
            winner.set(&m.winner.order, &m.winner.cycles);
        }
    }
    best
}

/// The colony's iterations as kernel launches on the simulated GPU: every
/// wavefront of an iteration is stepped in lockstep and priced on the cost
/// model.
struct GpuExecutor<'s, 'a> {
    sched: &'s ParallelScheduler,
    gpu: GpuStats,
    /// Kernel cycles of the launch in flight.
    kernel_cycles: u64,
    /// Per-iteration wavefront cycles; cleared and refilled every iteration
    /// so the loop stays allocation-free.
    iter_wf_cycles: Vec<u64>,
    /// Each pass's crew, built on its first iteration and dropped when it
    /// ends, so a region's peak is one pass's scratch.
    crew1: Vec<Member<Pass1Wavefront<'a>>>,
    crew2: Vec<Member<Pass2Wavefront<'a>>>,
}

impl<'a> Executor<'a> for GpuExecutor<'_, 'a> {
    const GREEDY_SEEDS: bool = true;

    fn pass1_iteration(
        &mut self,
        ctx: &AntContext<'a>,
        pheromone: &PheromoneTable,
        iteration: u32,
        winner: &mut Candidate,
    ) -> u64 {
        let it = Iteration(self.sched, ctx, pheromone, iteration);
        let best = iterate(
            &mut self.crew1,
            ctx,
            &mut self.gpu,
            &mut self.iter_wf_cycles,
            winner,
            || Pass1Wavefront::new(ctx, ctx.cfg.threads_per_block),
            |w, ants, best, winner| it.pass1_wavefront(w, ants, best, winner),
        );
        self.kernel_cycles += self.sched.spec.kernel_cycles(&self.iter_wf_cycles);
        best.expect("at least one ant").0
    }

    fn pass2_iteration(
        &mut self,
        ctx: &AntContext<'a>,
        pheromone: &PheromoneTable,
        iteration: u32,
        target_cost: u64,
        winner: &mut Candidate,
    ) -> Option<Cycle> {
        let it = Iteration(self.sched, ctx, pheromone, iteration);
        let best = iterate(
            &mut self.crew2,
            ctx,
            &mut self.gpu,
            &mut self.iter_wf_cycles,
            winner,
            || Pass2Wavefront::new(ctx, ctx.cfg.threads_per_block, target_cost),
            |w, ants, best, winner| it.pass2_wavefront(w, ants, best, winner),
        );
        self.kernel_cycles += self.sched.spec.kernel_cycles(&self.iter_wf_cycles);
        best.map(|(len, _)| len as Cycle)
    }

    /// Prices the launch: setup is charged only for a pass that ran.
    fn end_pass(&mut self, ctx: &AntContext<'a>, pass: Pass) -> f64 {
        let spec = &self.sched.spec;
        let mut profile = self.sched.setup_profile(ctx);
        profile.kernel_us =
            spec.launch_overhead_us + spec.cycles_to_us(std::mem::take(&mut self.kernel_cycles));
        match pass {
            Pass::Pressure => self.gpu.pass1_profile = profile,
            Pass::Length => self.gpu.pass2_profile = profile,
        }
        // The ended pass's crew goes with it; the other one is empty.
        self.crew1.clear();
        self.crew2.clear();
        profile.total_us()
    }

    fn totals(&self) -> (u64, f64) {
        (0, self.gpu.total_us())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuTuning;
    use machine_model::OccupancyLut;

    fn small_cfg(seed: u64) -> AcoConfig {
        AcoConfig {
            blocks: 8,
            ..AcoConfig::paper(seed)
        }
    }

    #[test]
    fn produces_valid_schedules_on_mixed_regions() {
        let occ = OccupancyModel::vega_like();
        for seed in 0..4u64 {
            let ddg = workloads::patterns::sized(40 + 20 * seed as usize, seed);
            let out = ParallelScheduler::new(small_cfg(seed)).schedule(&ddg, &occ);
            out.result.schedule.validate(&ddg).unwrap();
            assert!(out.gpu.total_us() > 0.0 || out.result.pass1.hit_lb);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let ddg = workloads::patterns::sized(60, 5);
        let occ = OccupancyModel::vega_like();
        let a = ParallelScheduler::new(small_cfg(3)).schedule(&ddg, &occ);
        let b = ParallelScheduler::new(small_cfg(3)).schedule(&ddg, &occ);
        assert_eq!(a.result.order, b.result.order);
        assert_eq!(a.gpu, b.gpu);
    }

    #[test]
    fn quality_not_worse_than_initial_heuristic() {
        let occ = OccupancyModel::vega_like();
        for seed in 0..4u64 {
            let ddg = workloads::patterns::sized(70, 100 + seed);
            let out = ParallelScheduler::new(small_cfg(seed)).schedule(&ddg, &occ);
            assert!(
                occ.rp_cost(out.result.prp) <= occ.rp_cost(out.result.initial.prp),
                "seed {seed}: pressure cost regressed"
            );
        }
    }

    #[test]
    fn memory_optimizations_reduce_gpu_time() {
        let ddg = workloads::patterns::sized(120, 9);
        let occ = OccupancyModel::vega_like();
        let mut opt_cfg = small_cfg(1);
        opt_cfg.tuning = GpuTuning::optimized();
        let mut unopt_cfg = small_cfg(1);
        unopt_cfg.tuning = GpuTuning::optimized().memory_unoptimized();
        let opt = ParallelScheduler::new(opt_cfg).schedule(&ddg, &occ);
        let unopt = ParallelScheduler::new(unopt_cfg).schedule(&ddg, &occ);
        assert!(
            unopt.gpu.total_us() > 2.0 * opt.gpu.total_us(),
            "memory optimizations should give a large win: opt={:.1}us unopt={:.1}us",
            opt.gpu.total_us(),
            unopt.gpu.total_us()
        );
    }

    #[test]
    fn divergence_optimizations_reduce_gpu_time() {
        let ddg = workloads::patterns::sized(120, 5);
        let occ = OccupancyModel::vega_like();
        let mut opt_cfg = small_cfg(1);
        opt_cfg.tuning = GpuTuning::optimized();
        let mut unopt_cfg = small_cfg(1);
        unopt_cfg.tuning = GpuTuning::optimized().divergence_unoptimized();
        let opt = ParallelScheduler::new(opt_cfg).schedule(&ddg, &occ);
        let unopt = ParallelScheduler::new(unopt_cfg).schedule(&ddg, &occ);
        assert!(
            unopt.gpu.divergent_steps > opt.gpu.divergent_steps,
            "divergence optimizations should reduce serialized steps"
        );
    }

    #[test]
    fn figure1_reaches_paper_optimum() {
        let ddg = sched_ir::figure1::ddg();
        let occ = OccupancyModel::unit();
        // Randomized search: any seed reaches the optimal PRP; this seed
        // also reaches the paper's optimal 10-cycle schedule within the
        // tiny-region iteration budget.
        let out = ParallelScheduler::new(small_cfg(10)).schedule(&ddg, &occ);
        assert_eq!(out.result.prp[0], 3);
        assert_eq!(out.result.length, 10);
    }

    #[test]
    fn trivial_region_needs_no_gpu() {
        use sched_ir::DdgBuilder;
        let mut b = DdgBuilder::new();
        b.instr("one", [], []);
        let ddg = b.build().unwrap();
        let occ = OccupancyModel::vega_like();
        let out = ParallelScheduler::new(small_cfg(0)).schedule(&ddg, &occ);
        assert_eq!(out.gpu, GpuStats::default());
        assert_eq!(out.result.length, 1);
    }

    #[test]
    fn stall_fraction_controls_which_wavefronts_stall() {
        let mut cfg = small_cfg(0);
        cfg.tuning.stall_wavefront_fraction = 0.25;
        let s = ParallelScheduler::new(cfg);
        assert!(s.wavefront_may_stall(0));
        assert!(s.wavefront_may_stall(1));
        assert!(!s.wavefront_may_stall(2));
        assert!(!s.wavefront_may_stall(7));
        let mut cfg = small_cfg(0);
        cfg.tuning.stall_wavefront_fraction = 0.0;
        assert!(!ParallelScheduler::new(cfg).wavefront_may_stall(0));
        let mut cfg = small_cfg(0);
        cfg.tuning.stall_wavefront_fraction = 1.0;
        assert!(ParallelScheduler::new(cfg).wavefront_may_stall(7));
    }

    #[test]
    fn per_wavefront_heuristics_rotate() {
        let mut cfg = small_cfg(0);
        cfg.tuning.per_wavefront_heuristics = true;
        let s = ParallelScheduler::new(cfg);
        let hs: Vec<Heuristic> = (0..6).map(|w| s.wavefront_heuristic(w)).collect();
        assert_eq!(hs[0], hs[3]);
        assert_ne!(hs[0], hs[1]);
        assert_ne!(hs[1], hs[2]);
        let mut cfg = small_cfg(0);
        cfg.tuning.per_wavefront_heuristics = false;
        cfg.heuristic = Heuristic::CriticalPath;
        let s = ParallelScheduler::new(cfg);
        assert!((0..6).all(|w| s.wavefront_heuristic(w) == Heuristic::CriticalPath));
    }

    #[test]
    fn tight_ready_ub_reduces_copy_bytes() {
        let ddg = workloads::patterns::sized(150, 3);
        let occ = OccupancyLut::new(&OccupancyModel::vega_like());
        let analysis = list_sched::RegionAnalysis::new(&ddg);
        let universe = reg_pressure::RegUniverse::new(&ddg);
        let mut cfg = small_cfg(0);
        let ctx = AntContext {
            ddg: &ddg,
            analysis: &analysis,
            universe: &universe,
            lut: &occ,
            cfg: &cfg,
        };
        let tight = ParallelScheduler::new(cfg).setup_profile(&ctx);
        cfg.tuning.tight_ready_ub = false;
        let ctx = AntContext {
            ddg: &ddg,
            analysis: &analysis,
            universe: &universe,
            lut: &occ,
            cfg: &cfg,
        };
        let loose = ParallelScheduler::new(cfg).setup_profile(&ctx);
        assert!(loose.copy_us > tight.copy_us, "loose UB copies more bytes");
    }
}

/// Outcome of a batched multi-region launch (see
/// [`ParallelScheduler::schedule_batch`]).
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-region outcomes, in input order (same schedules a per-region
    /// launch with the same per-region colony would produce).
    pub outcomes: Vec<ParallelOutcome>,
    /// Total modeled GPU time if each region were launched separately with
    /// the same split colonies, microseconds.
    pub individual_us: f64,
    /// Modeled GPU time of the batched launches, microseconds: one
    /// allocation, one batched transfer and one cooperative kernel per
    /// pass, with the regions' wavefront groups running concurrently.
    pub batched_us: f64,
    /// The shared launch profile of each pass (zero for a pass no region
    /// ran). `batched_us` is the sum of their totals.
    pub pass_profiles: [LaunchProfile; 2],
}

/// Splits a colony's block budget across `k` batched regions: every region
/// gets `total / k` blocks and the first `total % k` regions one extra, so
/// the group uses exactly `total` blocks and never oversubscribes the
/// device the colony was sized for.
///
/// # Panics
///
/// Panics when `k == 0` or `k > total` (some region would get no wavefront
/// group at all); the pipeline's batch planner never forms such groups.
pub fn batch_block_split(total: u32, k: u32) -> Vec<u32> {
    assert!(k > 0, "a batch needs at least one region");
    assert!(
        k <= total,
        "batch of {k} regions exceeds the {total}-block colony budget; \
         split the group instead of oversubscribing the device"
    );
    let base = total / k;
    let rem = total % k;
    (0..k).map(|i| base + u32::from(i < rem)).collect()
}

impl ParallelScheduler {
    /// **Future-work extension (Section VII):** schedules several regions
    /// in one cooperative kernel launch, splitting the colony's blocks
    /// across regions.
    ///
    /// The paper's conclusion proposes "scheduling multiple regions in
    /// parallel" to further cut compile time: small regions leave most of
    /// the GPU idle, and their launch/copy overheads dominate (Table 3's
    /// 1-49 band). Batching shares one launch, one allocation, and one
    /// batched host→device transfer across the whole group, and the
    /// per-region wavefront groups execute concurrently, so the kernel
    /// lasts only as long as its slowest region.
    ///
    /// Construction results are identical to per-region launches with the
    /// same split colony (see [`batch_block_split`]); only the time model
    /// differs.
    ///
    /// # Panics
    ///
    /// Panics if `regions` is empty or holds more regions than the colony
    /// has blocks — the group's wavefront groups must fit the configured
    /// colony (`Σ split blocks = cfg.blocks`), so oversized groups have to
    /// be split by the caller (the pipeline's batch planner does).
    pub fn schedule_batch(&mut self, regions: &[&Ddg], occ: &OccupancyModel) -> BatchOutcome {
        assert!(!regions.is_empty(), "a batch needs at least one region");
        let split = batch_block_split(self.cfg.blocks, regions.len() as u32);
        let mut outcomes = Vec::with_capacity(regions.len());
        for (ddg, &blocks) in regions.iter().zip(&split) {
            let cfg = AcoConfig { blocks, ..self.cfg };
            outcomes.push(ParallelScheduler::with_spec(cfg, self.spec).schedule(ddg, occ));
        }
        let individual_us: f64 = outcomes.iter().map(|o| o.gpu.total_us()).sum();

        // Batched model, per pass: the regions' wavefront groups run
        // concurrently (Σ split blocks = the configured colony, which fits
        // the device), so the cooperative kernel drains when the slowest
        // region's group finishes. Setup is shared: one device allocation
        // with per-region host staging, and one batch of 4 transfer calls
        // moving the group's total byte volume (recomputed from the bytes,
        // not patched out of the per-region call counts — regions profiled
        // with `batched_transfer: false` charged `24 + threads/64` calls
        // each, all of which collapse here).
        let mut pass_profiles = [LaunchProfile::default(); 2];
        for (pass, shared) in pass_profiles.iter_mut().enumerate() {
            let active: Vec<&LaunchProfile> = outcomes
                .iter()
                .map(|o| {
                    if pass == 0 {
                        &o.gpu.pass1_profile
                    } else {
                        &o.gpu.pass2_profile
                    }
                })
                .filter(|p| p.total_us() > 0.0)
                .collect();
            *shared = self
                .spec
                .shared_launch_profile(&active, 8 * active.len() as u64, 4);
        }
        let batched_us = pass_profiles.iter().map(LaunchProfile::total_us).sum();
        BatchOutcome {
            outcomes,
            individual_us,
            batched_us,
            pass_profiles,
        }
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;

    #[test]
    fn batching_regions_saves_gpu_time() {
        let occ = OccupancyModel::vega_like();
        let regions: Vec<_> = (0..6u64)
            .map(|s| workloads::patterns::sized(60, 600 + s))
            .collect();
        let refs: Vec<&Ddg> = regions.iter().collect();
        let mut cfg = AcoConfig::paper(1);
        cfg.blocks = 24;
        let batch = ParallelScheduler::new(cfg).schedule_batch(&refs, &occ);
        assert_eq!(batch.outcomes.len(), 6);
        for (o, ddg) in batch.outcomes.iter().zip(&regions) {
            o.result.schedule.validate(ddg).unwrap();
        }
        if batch.individual_us > 0.0 {
            assert!(
                batch.batched_us < batch.individual_us,
                "batching must save time: batched {:.0} vs individual {:.0}",
                batch.batched_us,
                batch.individual_us
            );
        }
    }

    #[test]
    fn batch_results_equal_split_colony_runs() {
        let occ = OccupancyModel::vega_like();
        let regions: Vec<_> = (0..3u64)
            .map(|s| workloads::patterns::sized(50, 700 + s))
            .collect();
        let refs: Vec<&Ddg> = regions.iter().collect();
        let mut cfg = AcoConfig::paper(2);
        // 14 blocks over 3 regions: remainder distribution gives 5, 5, 4.
        cfg.blocks = 14;
        let split = batch_block_split(cfg.blocks, 3);
        assert_eq!(split, vec![5, 5, 4]);
        let batch = ParallelScheduler::new(cfg).schedule_batch(&refs, &occ);
        for ((o, ddg), &blocks) in batch.outcomes.iter().zip(&regions).zip(&split) {
            let solo = ParallelScheduler::new(AcoConfig { blocks, ..cfg }).schedule(ddg, &occ);
            // Bitwise-identical to the solo run with the same split colony:
            // the schedule, its claims, and the per-region GPU observations.
            assert_eq!(
                o.result.order, solo.result.order,
                "batching must not change results"
            );
            assert_eq!(o.result.schedule, solo.result.schedule);
            assert_eq!(o.result.prp, solo.result.prp);
            assert_eq!(o.result.length, solo.result.length);
            assert_eq!(o.gpu, solo.gpu);
        }
    }

    #[test]
    fn block_split_distributes_remainder_within_budget() {
        assert_eq!(batch_block_split(10, 3), vec![4, 3, 3]);
        assert_eq!(batch_block_split(8, 8), vec![1; 8]);
        assert_eq!(batch_block_split(7, 2), vec![4, 3]);
        for (total, k) in [(32u32, 5u32), (180, 7), (16, 16), (9, 4)] {
            let split = batch_block_split(total, k);
            assert_eq!(split.iter().sum::<u32>(), total, "budget must be exact");
            assert!(split.iter().all(|&b| b >= 1));
            assert!(split.windows(2).all(|w| w[0] >= w[1]), "extras go first");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the 4-block colony budget")]
    fn oversized_batch_panics_instead_of_oversubscribing() {
        let occ = OccupancyModel::vega_like();
        let regions: Vec<_> = (0..6u64)
            .map(|s| workloads::patterns::sized(20, 800 + s))
            .collect();
        let refs: Vec<&Ddg> = regions.iter().collect();
        let mut cfg = AcoConfig::paper(0);
        cfg.blocks = 4;
        let _ = ParallelScheduler::new(cfg).schedule_batch(&refs, &occ);
    }

    #[test]
    fn single_region_batch_matches_solo_cost() {
        // A batch of one region shares nothing: with the default batched
        // transfers the shared-launch model must collapse to the solo one.
        let occ = OccupancyModel::vega_like();
        let ddg = workloads::patterns::sized(60, 901);
        let mut cfg = AcoConfig::paper(3);
        cfg.blocks = 8;
        let batch = ParallelScheduler::new(cfg).schedule_batch(&[&ddg], &occ);
        assert_eq!(batch.outcomes.len(), 1);
        assert!(
            (batch.batched_us - batch.individual_us).abs() < 1e-9,
            "single-region batch must cost the solo time: batched {} vs solo {}",
            batch.batched_us,
            batch.individual_us
        );
    }

    #[test]
    fn gated_pass2_contributes_no_shared_pass2_launch() {
        let occ = OccupancyModel::vega_like();
        let regions: Vec<_> = (0..3u64)
            .map(|s| workloads::patterns::sized(40, 910 + s))
            .collect();
        let refs: Vec<&Ddg> = regions.iter().collect();
        let mut cfg = AcoConfig::paper(4);
        cfg.blocks = 12;
        // Gate pass 2 off everywhere: its shared profile must stay empty
        // and the batched time must only price the pass-1 launch.
        cfg.pass2_gate_cycles = 100_000;
        let batch = ParallelScheduler::new(cfg).schedule_batch(&refs, &occ);
        for o in &batch.outcomes {
            assert_eq!(o.gpu.pass2_profile, LaunchProfile::default());
        }
        assert_eq!(batch.pass_profiles[1], LaunchProfile::default());
        assert!(
            (batch.batched_us - batch.pass_profiles[0].total_us()).abs() < 1e-12,
            "only pass 1 may be priced when pass 2 is gated off"
        );
    }

    #[test]
    fn trivial_region_in_batch_is_free() {
        use sched_ir::DdgBuilder;
        let occ = OccupancyModel::vega_like();
        let mut b = DdgBuilder::new();
        b.instr("one", [], []);
        let trivial = b.build().unwrap();
        let real = workloads::patterns::sized(50, 920);
        let mut cfg = AcoConfig::paper(5);
        cfg.blocks = 8;
        let batch = ParallelScheduler::new(cfg).schedule_batch(&[&trivial, &real], &occ);
        assert_eq!(batch.outcomes[0].gpu, GpuStats::default());
        // The trivial region joins neither shared launch, so the batch
        // costs exactly what the real region's solo split run costs.
        let solo = ParallelScheduler::new(AcoConfig { blocks: 4, ..cfg }).schedule(&real, &occ);
        assert!((batch.individual_us - solo.gpu.total_us()).abs() < 1e-12);
    }

    #[test]
    fn batched_time_bounded_below_by_slowest_kernels() {
        // Per pass, the cooperative kernel cannot beat its slowest region's
        // kernel time (one launch overhead + the longest kernel body).
        let occ = OccupancyModel::vega_like();
        let regions: Vec<_> = (0..4u64)
            .map(|s| workloads::patterns::sized(30 + 30 * s as usize, 930 + s))
            .collect();
        let refs: Vec<&Ddg> = regions.iter().collect();
        let mut cfg = AcoConfig::paper(6);
        cfg.blocks = 16;
        cfg.pass2_gate_cycles = 1;
        let batch = ParallelScheduler::new(cfg).schedule_batch(&refs, &occ);
        let lower_bound: f64 = (0..2)
            .map(|pass| {
                batch
                    .outcomes
                    .iter()
                    .map(|o| {
                        let p = if pass == 0 {
                            &o.gpu.pass1_profile
                        } else {
                            &o.gpu.pass2_profile
                        };
                        if p.total_us() > 0.0 {
                            p.kernel_us
                        } else {
                            0.0
                        }
                    })
                    .fold(0.0f64, f64::max)
            })
            .sum();
        assert!(lower_bound > 0.0);
        assert!(
            batch.batched_us >= lower_bound,
            "batched_us {} below the launch + slowest-kernel bound {}",
            batch.batched_us,
            lower_bound
        );
    }

    #[test]
    #[should_panic(expected = "at least one region")]
    fn empty_batch_panics() {
        let occ = OccupancyModel::vega_like();
        let _ = ParallelScheduler::new(AcoConfig::small(0)).schedule_batch(&[], &occ);
    }
}
