//! Ant schedule construction for both passes.
//!
//! Both the sequential scheduler and the (simulated) GPU kernel build
//! schedules with the same ant logic; they differ only in *who drives the
//! steps*: the sequential scheduler runs each ant to completion, the
//! parallel scheduler steps the 64 ants of a wavefront in lockstep and
//! charges the wavefront cost model for every round
//! (see [`crate::parallel`]).
//!
//! Pass 1 ([`Pass1Ant`]) ignores latencies and builds an instruction
//! *order* minimizing the APRP register-pressure cost. Pass 2
//! ([`Pass2Ant`]) builds a timed schedule with stalls, minimizing length
//! under the pass-1 pressure cost as a hard constraint; ants that violate
//! the constraint die (Section IV-C).

use crate::config::AcoConfig;
use crate::pheromone::PheromoneTable;
use list_sched::{EtaTerms, Heuristic, HeuristicEval, RegionAnalysis};
use machine_model::OccupancyLut;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reg_pressure::{PressureTracker, RegUniverse};
use sched_ir::{Cycle, Ddg, InstrId, Schedule, REG_CLASS_COUNT};

/// Abstract operations charged per candidate considered in a selection
/// scan (pheromone read, η evaluation including the last-use scan over the
/// operand list, exponentiation, multiply, compare).
pub const OPS_PER_CANDIDATE: u64 = 8;
/// Abstract operations charged per successor edge when updating the ready
/// list after an issue.
pub const OPS_PER_SUCC: u64 = 2;
/// Fixed abstract operations per construction step (RNG, bookkeeping).
pub const OPS_PER_STEP: u64 = 2;

/// Shared, read-only inputs of every ant working on one region.
#[derive(Debug, Clone, Copy)]
pub struct AntContext<'a> {
    /// The region being scheduled.
    pub ddg: &'a Ddg,
    /// The region facts the ants and pass-2 gates read (η terms, path facts,
    /// ready-list UB).
    pub analysis: &'a RegionAnalysis,
    /// Interned registers.
    pub universe: &'a RegUniverse,
    /// Dense occupancy/APRP lookup tables for the machine's model.
    pub lut: &'a OccupancyLut,
    /// Algorithm parameters.
    pub cfg: &'a AcoConfig,
}

/// Statistics of one pass-1 construction step, consumed by the wavefront
/// cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pass1Step {
    /// Ready-list length scanned by the selection.
    pub scanned: u32,
    /// Successor-edge updates performed after the issue.
    pub succ_ops: u32,
    /// Whether this ant used biased exploration (vs argmax exploitation).
    pub explored: bool,
}

/// Outcome of one pass-2 construction step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass2Step {
    /// An instruction was issued.
    Issued {
        /// Ready-list length scanned.
        scanned: u32,
        /// Successor-edge updates performed.
        succ_ops: u32,
        /// Whether biased exploration was used.
        explored: bool,
    },
    /// A stall was scheduled (necessary or optional).
    Stalled {
        /// Ready-list length scanned before deciding to stall.
        scanned: u32,
        /// True if the stall was optional (pressure-motivated), false if
        /// forced by latencies.
        optional: bool,
    },
    /// The ant exceeded the pressure constraint with no way out and was
    /// terminated.
    Died,
    /// The schedule is complete.
    Finished,
}

/// Result of a completed pass-1 construction.
#[derive(Debug, Clone)]
pub struct Pass1Result {
    /// The constructed instruction order.
    pub order: Vec<InstrId>,
    /// Peak pressure of the order.
    pub prp: [u32; REG_CLASS_COUNT],
    /// Scalar APRP cost (lower is better).
    pub cost: u64,
}

/// Result of a completed pass-2 construction.
#[derive(Debug, Clone)]
pub struct Pass2Result {
    /// The timed schedule.
    pub schedule: Schedule,
    /// Issue order.
    pub order: Vec<InstrId>,
    /// Peak pressure.
    pub prp: [u32; REG_CLASS_COUNT],
    /// Schedule length in cycles.
    pub length: Cycle,
}

/// τ·η^β of every candidate of one selection, in candidate order.
///
/// A selection is *scored* once and then *picked from* any number of times:
/// a lone ant picks once, the lockstep wavefront lets every lane that
/// shares the ant state resolve its own draw against the same weights
/// (see [`crate::lockstep`]). The buffer is caller-owned scratch reserved
/// at region capacity, so the hot loop never allocates.
#[derive(Debug, Clone)]
pub(crate) struct Scores {
    /// Number of candidates of the current selection; 0 = not scored yet.
    candidates: usize,
    /// One weight per candidate; left empty for a single candidate, which
    /// is taken without scoring.
    weights: Vec<f64>,
    /// Roulette total, summed by the first exploring pick.
    total: Option<f64>,
    /// Argmax of `weights` (the first of equal maxima), kept while they
    /// are written.
    best: usize,
    /// η^β of [`Heuristic::CriticalPath`], per instruction: that η is a
    /// property of the instruction alone, so its power is taken once per
    /// region and a candidate costs one multiply by τ.
    critical_path_eta_pow: Vec<f64>,
}

/// One ant's resolved selection.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pick {
    /// Index into the scored candidate list.
    pub(crate) pos: usize,
    /// Whether the ant used biased exploration (vs argmax exploitation).
    pub(crate) explored: bool,
    /// Whether resolving this step consumed any of the ant's randomness.
    /// A step that drew nothing is a function of the ant state alone, so
    /// every ant sharing that state takes it.
    pub(crate) drew: bool,
}

impl Scores {
    /// Scratch for selections on `ctx`'s region, reserved at its size.
    pub(crate) fn new(ctx: &AntContext<'_>) -> Scores {
        let eta_pow = |terms: &EtaTerms| pow_beta(terms.critical_path, ctx.cfg.beta);
        Scores {
            candidates: 0,
            weights: Vec::with_capacity(ctx.ddg.len()),
            total: None,
            best: 0,
            critical_path_eta_pow: ctx.analysis.eta_terms.iter().map(eta_pow).collect(),
        }
    }

    /// Forgets the current selection; the next [`Scores::ensure`] rescores.
    pub(crate) fn clear(&mut self) {
        self.candidates = 0;
    }

    /// Scores `candidates` for an ant guided by `heuristic`, coming from
    /// `last` under `pressure`, unless this selection already is scored.
    /// `net_changes`, when given, holds each candidate's
    /// [`PressureTracker::net_change`], already computed by the caller.
    #[allow(clippy::too_many_arguments)]
    fn ensure(
        &mut self,
        ctx: &AntContext<'_>,
        pheromone: &PheromoneTable,
        heuristic: Heuristic,
        last: Option<InstrId>,
        candidates: &[InstrId],
        net_changes: Option<&[[i32; REG_CLASS_COUNT]]>,
        pressure: &PressureTracker<'_>,
    ) {
        debug_assert!(!candidates.is_empty());
        if self.candidates != 0 {
            debug_assert_eq!(self.candidates, candidates.len());
            return;
        }
        self.candidates = candidates.len();
        self.weights.clear();
        self.total = None;
        self.best = 0;
        if candidates.len() > 1 {
            let tau = pheromone.row(last);
            let weights = &mut self.weights;
            self.best = if heuristic == Heuristic::CriticalPath {
                let eta_pow = &self.critical_path_eta_pow;
                score_into(weights, candidates, |_, c| {
                    tau[c.index()] * eta_pow[c.index()]
                })
            } else {
                let eval =
                    HeuristicEval::new(heuristic, &ctx.analysis.eta_terms, ctx.lut, pressure);
                let beta = ctx.cfg.beta;
                match net_changes {
                    Some(deltas) => score_into(weights, candidates, |i, c| {
                        tau[c.index()] * pow_beta(eval.eta_given_net_change(c, deltas[i]), beta)
                    }),
                    None => score_into(weights, candidates, |_, c| {
                        tau[c.index()] * pow_beta(eval.eta(c), beta)
                    }),
                }
            };
        }
    }

    /// Whether a pick with this explore flag would draw from the RNG.
    fn draws(&self, explore: bool) -> bool {
        explore && self.candidates > 1
    }

    /// The Ant Colony System rule: exploit (argmax of τ·η^β) or explore
    /// (roulette proportional to τ·η^β). Draws from `rng` only when
    /// [`Scores::draws`].
    fn pick(&mut self, rng: &mut SmallRng, explore: bool) -> usize {
        debug_assert!(self.candidates > 0, "pick from an unscored selection");
        let weights = &self.weights;
        if self.candidates == 1 {
            return 0;
        }
        if explore {
            let total = *self.total.get_or_insert_with(|| weights.iter().sum());
            if total <= 0.0 || !total.is_finite() {
                return rng.gen_range(0..weights.len());
            }
            let mut draw = rng.gen::<f64>() * total;
            for (i, w) in weights.iter().enumerate() {
                draw -= w;
                if draw <= 0.0 {
                    return i;
                }
            }
            weights.len() - 1
        } else {
            self.best
        }
    }
}

/// Writes `score(i, candidate)` of every candidate into `weights`, in
/// candidate order, and returns the argmax: the first weight strictly
/// greater than every earlier one (0 when none is, e.g. all NaN).
#[inline]
fn score_into(
    weights: &mut Vec<f64>,
    candidates: &[InstrId],
    score: impl Fn(usize, InstrId) -> f64,
) -> usize {
    let (mut best, mut best_score) = (0, f64::NEG_INFINITY);
    for (i, &c) in candidates.iter().enumerate() {
        let w = score(i, c);
        if w > best_score {
            best_score = w;
            best = i;
        }
        weights.push(w);
    }
    best
}

/// η^β with fast paths for the common exponents.
#[inline]
fn pow_beta(eta: f64, beta: f64) -> f64 {
    if beta == 2.0 {
        eta * eta
    } else if beta == 1.0 {
        eta
    } else {
        eta.powf(beta)
    }
}

/// Resolves one ant's selection among `candidates`: its explore/exploit
/// flag (drawn per thread unless `explore` overrides it), then its pick.
/// The one place the flag → roulette draw order is spelled out.
#[allow(clippy::too_many_arguments)]
fn choose(
    ctx: &AntContext<'_>,
    pheromone: &PheromoneTable,
    heuristic: Heuristic,
    last: Option<InstrId>,
    candidates: &[InstrId],
    net_changes: Option<&[[i32; REG_CLASS_COUNT]]>,
    pressure: &PressureTracker<'_>,
    scores: &mut Scores,
    rng: &mut SmallRng,
    explore: Option<bool>,
) -> Pick {
    let explored = explore.unwrap_or_else(|| rng.gen::<f64>() > ctx.cfg.q0);
    scores.ensure(
        ctx,
        pheromone,
        heuristic,
        last,
        candidates,
        net_changes,
        pressure,
    );
    Pick {
        drew: explore.is_none() || scores.draws(explored),
        pos: scores.pick(rng, explored),
        explored,
    }
}

/// Everything a pass-1 ant knows except its random stream: the partial
/// order, the ready list, and the pressure it implies. Ants with the same
/// decision history hold bit-identical states, which is what lets the
/// lockstep wavefront keep one per *class* of lanes and
/// [`Pass1State::copy_from`] it only when a class splits.
#[derive(Debug, Clone)]
pub(crate) struct Pass1State<'a> {
    heuristic: Heuristic,
    pressure: PressureTracker<'a>,
    pending: Vec<u32>,
    ready: Vec<InstrId>,
    order: Vec<InstrId>,
    last: Option<InstrId>,
}

impl<'a> Pass1State<'a> {
    /// An ant state at region entry, every buffer reserved at region
    /// capacity.
    pub(crate) fn new(ctx: &AntContext<'a>, heuristic: Heuristic) -> Pass1State<'a> {
        let mut ready = Vec::with_capacity(ctx.ddg.len());
        ready.extend(ctx.ddg.roots());
        Pass1State {
            heuristic,
            pressure: PressureTracker::new(ctx.universe),
            pending: ctx.ddg.pred_counts().to_vec(),
            ready,
            order: Vec::with_capacity(ctx.ddg.len()),
            last: None,
        }
    }

    /// Back to region entry under a (possibly new) guiding heuristic.
    pub(crate) fn reset(&mut self, ctx: &AntContext<'a>, heuristic: Heuristic) {
        self.heuristic = heuristic;
        self.pressure.reset();
        self.pending.copy_from_slice(ctx.ddg.pred_counts());
        self.ready.clear();
        self.ready.extend(ctx.ddg.roots());
        self.order.clear();
        self.last = None;
    }

    /// Overwrites this state with `other`'s, within the reserved capacity.
    pub(crate) fn copy_from(&mut self, other: &Pass1State<'a>) {
        self.heuristic = other.heuristic;
        self.pressure.copy_from(&other.pressure);
        self.pending.copy_from_slice(&other.pending);
        self.ready.clone_from(&other.ready);
        self.order.clone_from(&other.order);
        self.last = other.last;
    }

    pub(crate) fn finished(&self, ctx: &AntContext<'a>) -> bool {
        self.order.len() == ctx.ddg.len()
    }

    pub(crate) fn ready_len(&self) -> usize {
        self.ready.len()
    }

    pub(crate) fn order(&self) -> &[InstrId] {
        &self.order
    }

    pub(crate) fn prp(&self) -> [u32; REG_CLASS_COUNT] {
        self.pressure.peak()
    }

    /// APRP cost of the order so far.
    pub(crate) fn cost(&self, ctx: &AntContext<'a>) -> u64 {
        ctx.lut.rp_cost(self.pressure.peak())
    }

    /// One ant's pick among the ready list (scoring it into `scores` if
    /// no ant sharing this state has yet).
    pub(crate) fn choose(
        &self,
        ctx: &AntContext<'a>,
        pheromone: &PheromoneTable,
        scores: &mut Scores,
        rng: &mut SmallRng,
        explore: Option<bool>,
    ) -> Pick {
        choose(
            ctx,
            pheromone,
            self.heuristic,
            self.last,
            &self.ready,
            None,
            &self.pressure,
            scores,
            rng,
            explore,
        )
    }

    /// Issues the ready-list entry at `pos`; returns the number of
    /// successor-edge updates performed.
    pub(crate) fn issue(&mut self, ctx: &AntContext<'a>, pos: usize) -> u32 {
        let id = self.ready.swap_remove(pos);
        self.pressure.issue(id);
        self.order.push(id);
        self.last = Some(id);
        let mut succ_ops = 0;
        for &(s, _) in ctx.ddg.succs(id) {
            succ_ops += 1;
            self.pending[s.index()] -= 1;
            if self.pending[s.index()] == 0 {
                self.ready.push(s);
            }
        }
        succ_ops
    }
}

/// A pass-1 ant: builds a latency-free order minimizing APRP cost.
///
/// All working buffers (ready list, order, roulette weights) are reserved
/// at region capacity on construction, so a [`Pass1Ant::reset`] +
/// construction cycle performs **zero heap allocations** — ants are meant
/// to be reused across a whole pass.
#[derive(Debug, Clone)]
pub struct Pass1Ant<'a> {
    rng: SmallRng,
    state: Pass1State<'a>,
    scores: Scores,
    ops: u64,
}

impl<'a> Pass1Ant<'a> {
    /// Creates an ant with its own RNG stream.
    pub fn new(ctx: &AntContext<'a>, heuristic: Heuristic, seed: u64) -> Pass1Ant<'a> {
        Pass1Ant {
            rng: SmallRng::seed_from_u64(seed),
            state: Pass1State::new(ctx, heuristic),
            scores: Scores::new(ctx),
            ops: 0,
        }
    }

    /// Resets for a new construction (new iteration), reseeding the RNG.
    /// Op accounting is cumulative across resets; read it once per pass.
    pub fn reset(&mut self, ctx: &AntContext<'a>, seed: u64) {
        self.reset_with(ctx, self.state.heuristic, seed);
    }

    /// [`Pass1Ant::reset`] plus a new guiding heuristic, so one ant can be
    /// reused across wavefronts with rotating heuristics.
    pub fn reset_with(&mut self, ctx: &AntContext<'a>, heuristic: Heuristic, seed: u64) {
        self.rng = SmallRng::seed_from_u64(seed);
        self.state.reset(ctx, heuristic);
    }

    /// Whether the order is complete.
    pub fn finished(&self, ctx: &AntContext<'a>) -> bool {
        self.state.finished(ctx)
    }

    /// Performs one construction step. `explore` overrides the ant's own
    /// explore/exploit draw (used for wavefront-level randomization);
    /// `None` lets the ant draw per-thread.
    ///
    /// # Panics
    ///
    /// Panics (debug) if called after the order is complete.
    pub fn step(
        &mut self,
        ctx: &AntContext<'a>,
        pheromone: &PheromoneTable,
        explore: Option<bool>,
    ) -> Pass1Step {
        debug_assert!(!self.finished(ctx));
        let scanned = self.state.ready_len() as u32;
        self.scores.clear();
        let pick = self
            .state
            .choose(ctx, pheromone, &mut self.scores, &mut self.rng, explore);
        let succ_ops = self.state.issue(ctx, pick.pos);
        self.ops +=
            OPS_PER_STEP + scanned as u64 * OPS_PER_CANDIDATE + succ_ops as u64 * OPS_PER_SUCC;
        Pass1Step {
            scanned,
            succ_ops,
            explored: pick.explored,
        }
    }

    /// Steps the construction to completion without materializing it.
    pub(crate) fn construct(&mut self, ctx: &AntContext<'a>, pheromone: &PheromoneTable) {
        while !self.finished(ctx) {
            self.step(ctx, pheromone, None);
        }
    }

    /// Runs the construction to completion (sequential driver).
    pub fn run(&mut self, ctx: &AntContext<'a>, pheromone: &PheromoneTable) -> Pass1Result {
        self.construct(ctx, pheromone);
        self.result(ctx)
    }

    /// The completed result.
    ///
    /// Clones the order; in a reduction, compare [`Pass1Ant::cost`] first
    /// and materialize only the winner.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the order is not complete.
    pub fn result(&self, ctx: &AntContext<'a>) -> Pass1Result {
        debug_assert!(self.finished(ctx));
        let prp = self.state.prp();
        Pass1Result {
            order: self.state.order().to_vec(),
            prp,
            cost: ctx.lut.rp_cost(prp),
        }
    }

    /// APRP cost of the completed order, without materializing anything.
    pub fn cost(&self, ctx: &AntContext<'a>) -> u64 {
        debug_assert!(self.finished(ctx));
        self.state.cost(ctx)
    }

    /// The constructed order so far (complete once [`Pass1Ant::finished`]).
    pub fn order(&self) -> &[InstrId] {
        self.state.order()
    }

    /// Peak pressure of the order so far.
    pub fn prp(&self) -> [u32; REG_CLASS_COUNT] {
        self.state.prp()
    }

    /// Abstract operations executed so far (CPU cost accounting).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Current ready-list length (wavefront cost accounting).
    pub fn ready_len(&self) -> usize {
        self.state.ready_len()
    }
}

/// Lifecycle of a pass-2 ant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Running,
    Dead,
    Finished,
}

/// What the ready list of a running pass-2 ant state allows this step,
/// before any ant's randomness is involved.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Pass2Scan {
    /// Every instruction is issued.
    Finished,
    /// Nothing can issue; every ant holding the state waits until
    /// `arrival` (a necessary stall, or an optional one that is the only
    /// way not to break the pressure constraint).
    Stall {
        /// Cycle the next semi-ready instruction arrives.
        arrival: Cycle,
        /// Whether the stall is pressure-motivated rather than forced by
        /// latencies.
        optional: bool,
    },
    /// Nothing can issue within the constraint and waiting is not allowed.
    Die,
    /// Something can issue. With `stall`, each ant first flips a coin of
    /// that probability for waiting until that cycle instead.
    Select {
        /// `(arrival, probability)` of the optional-stall heuristic.
        stall: Option<(Cycle, f64)>,
    },
}

/// Per-driver scratch of pass-2 steps: the issuable partition of the
/// ready list found by [`Pass2State::scan`] and its scores. One serves any
/// number of states, one step at a time.
#[derive(Debug, Clone)]
pub(crate) struct Pass2Scratch {
    issuable: Vec<InstrId>,
    /// Ready-list index of each entry in `issuable`, filled during the
    /// partition scan so the winner's removal is O(1) instead of a linear
    /// re-search of the ready list.
    issuable_pos: Vec<u32>,
    /// [`PressureTracker::net_change`] of each entry in `issuable`, as the
    /// scan computed it, so scoring does not look it up again.
    issuable_delta: Vec<[i32; REG_CLASS_COUNT]>,
    scores: Scores,
}

impl Pass2Scratch {
    /// Scratch for steps on `ctx`'s region, reserved at its size.
    pub(crate) fn new(ctx: &AntContext<'_>) -> Pass2Scratch {
        Pass2Scratch {
            issuable: Vec::with_capacity(ctx.ddg.len()),
            issuable_pos: Vec::with_capacity(ctx.ddg.len()),
            issuable_delta: Vec::with_capacity(ctx.ddg.len()),
            scores: Scores::new(ctx),
        }
    }
}

/// Everything a pass-2 ant knows except its random stream (see
/// [`Pass1State`]): partial timed schedule, ready list with arrival
/// cycles, pressure, clock, stall count and lifecycle phase.
#[derive(Debug, Clone)]
pub(crate) struct Pass2State<'a> {
    heuristic: Heuristic,
    allow_optional_stalls: bool,
    target_cost: u64,
    /// Maximum optional stalls the ant may insert.
    stall_budget: u32,
    pressure: PressureTracker<'a>,
    pending: Vec<u32>,
    /// `(instruction, cycle its operands become available)`.
    ready: Vec<(InstrId, Cycle)>,
    /// Issue cycle of each issued instruction; an unissued one's slot holds
    /// the latest operand arrival its issued producers have posted.
    cycles: Vec<Cycle>,
    order: Vec<InstrId>,
    now: Cycle,
    last: Option<InstrId>,
    optional_stalls: u32,
    phase: Phase,
}

impl<'a> Pass2State<'a> {
    /// An ant state at region entry targeting `target_cost`, with the
    /// configured fraction of the region size as its optional-stall budget.
    pub(crate) fn new(
        ctx: &AntContext<'a>,
        heuristic: Heuristic,
        target_cost: u64,
        allow_optional_stalls: bool,
    ) -> Pass2State<'a> {
        let mut ready = Vec::with_capacity(ctx.ddg.len());
        ready.extend(ctx.ddg.roots().map(|i| (i, 0)));
        Pass2State {
            heuristic,
            allow_optional_stalls,
            target_cost,
            stall_budget: (ctx.ddg.len() as f64 * ctx.cfg.optional_stall_budget).ceil() as u32,
            pressure: PressureTracker::new(ctx.universe),
            pending: ctx.ddg.pred_counts().to_vec(),
            ready,
            cycles: vec![0; ctx.ddg.len()],
            order: Vec::with_capacity(ctx.ddg.len()),
            now: 0,
            last: None,
            optional_stalls: 0,
            phase: Phase::Running,
        }
    }

    /// Back to region entry under a (possibly new) heuristic and stall
    /// permission; target cost and stall budget are kept.
    pub(crate) fn reset(
        &mut self,
        ctx: &AntContext<'a>,
        heuristic: Heuristic,
        allow_optional_stalls: bool,
    ) {
        self.heuristic = heuristic;
        self.allow_optional_stalls = allow_optional_stalls;
        self.pressure.reset();
        self.pending.copy_from_slice(ctx.ddg.pred_counts());
        self.ready.clear();
        self.ready.extend(ctx.ddg.roots().map(|i| (i, 0)));
        self.cycles.fill(0);
        self.order.clear();
        self.now = 0;
        self.last = None;
        self.optional_stalls = 0;
        self.phase = Phase::Running;
    }

    /// Overwrites this state with `other`'s, within the reserved capacity.
    pub(crate) fn copy_from(&mut self, other: &Pass2State<'a>) {
        self.heuristic = other.heuristic;
        self.allow_optional_stalls = other.allow_optional_stalls;
        self.target_cost = other.target_cost;
        self.stall_budget = other.stall_budget;
        self.pressure.copy_from(&other.pressure);
        self.pending.copy_from_slice(&other.pending);
        self.ready.clone_from(&other.ready);
        self.cycles.copy_from_slice(&other.cycles);
        self.order.clone_from(&other.order);
        self.now = other.now;
        self.last = other.last;
        self.optional_stalls = other.optional_stalls;
        self.phase = other.phase;
    }

    pub(crate) fn running(&self) -> bool {
        self.phase == Phase::Running
    }

    pub(crate) fn finished(&self) -> bool {
        self.phase == Phase::Finished
    }

    /// Early wavefront termination: a running state dies.
    pub(crate) fn kill(&mut self) {
        if self.phase == Phase::Running {
            self.phase = Phase::Dead;
        }
    }

    pub(crate) fn ready_len(&self) -> usize {
        self.ready.len()
    }

    pub(crate) fn order(&self) -> &[InstrId] {
        &self.order
    }

    pub(crate) fn cycles(&self) -> &[Cycle] {
        &self.cycles
    }

    pub(crate) fn prp(&self) -> [u32; REG_CLASS_COUNT] {
        self.pressure.peak()
    }

    /// Length of the completed schedule: the clock only moves forward and
    /// steps past the last issue, so it *is* the length.
    pub(crate) fn length(&self) -> Cycle {
        assert!(self.finished(), "length of an unfinished pass-2 ant");
        debug_assert_eq!(self.now, self.cycles.iter().max().map_or(0, |&m| m + 1));
        self.now
    }

    /// Partitions the ready list by issuability and pressure constraint
    /// into `scratch` and decides what this step can be. Reads the state
    /// only; the caller applies the outcome with [`Pass2State::finish`],
    /// [`Pass2State::stall`], [`Pass2State::die`] or — after
    /// [`Pass2State::choose`] — [`Pass2State::issue`].
    pub(crate) fn scan(&self, ctx: &AntContext<'a>, scratch: &mut Pass2Scratch) -> Pass2Scan {
        debug_assert!(self.running());
        if self.order.len() == ctx.ddg.len() {
            return Pass2Scan::Finished;
        }
        scratch.scores.clear();
        scratch.issuable.clear();
        scratch.issuable_pos.clear();
        scratch.issuable_delta.clear();
        let mut next_arrival: Option<Cycle> = None;
        let mut has_violating = false;
        let within = |peak| ctx.lut.rp_cost(peak) <= self.target_cost;
        // The answer for every candidate that leaves the peak where it is.
        let peak_within = within(self.pressure.peak());
        for (i, &(id, rc)) in self.ready.iter().enumerate() {
            if rc <= self.now {
                let delta = self.pressure.net_change(id);
                let keeps = if self.pressure.raises_peak(delta) {
                    within(self.pressure.peak_after_delta(delta))
                } else {
                    peak_within
                };
                if keeps {
                    scratch.issuable.push(id);
                    scratch.issuable_pos.push(i as u32);
                    scratch.issuable_delta.push(delta);
                } else {
                    has_violating = true;
                }
            } else {
                next_arrival = Some(next_arrival.map_or(rc, |a: Cycle| a.min(rc)));
            }
        }
        let may_stall = self.allow_optional_stalls && self.optional_stalls < self.stall_budget;

        if scratch.issuable.is_empty() {
            if !has_violating {
                // Nothing is ready at this cycle at all: a *necessary*
                // stall, forced by latencies — every ant may take it.
                let arrival = next_arrival.expect("ready list cannot be empty mid-construction");
                return Pass2Scan::Stall {
                    arrival,
                    optional: false,
                };
            }
            // Ready instructions exist but all of them would break the
            // pressure constraint. Waiting for a semi-ready instruction is
            // an *optional* stall (the paper's Figure-1 cycle-4 case);
            // ants that may not take it are forced into the violation and
            // terminate.
            return match next_arrival {
                Some(arrival) if may_stall => Pass2Scan::Stall {
                    arrival,
                    optional: true,
                },
                _ => Pass2Scan::Die,
            };
        }

        // Optional-stall heuristic (Section IV-C): when a semi-ready
        // instruction would relieve pressure more than any issuable one,
        // consider waiting for it — with a probability that shrinks as the
        // stall budget is consumed.
        let mut stall = None;
        if let Some(arrival) = next_arrival {
            if may_stall && has_violating {
                let semi_would_help = self
                    .ready
                    .iter()
                    .filter(|&&(_, rc)| rc > self.now)
                    .any(|&(id, _)| net_total(&self.pressure, id) < 0);
                let issuable_min = scratch
                    .issuable_delta
                    .iter()
                    .map(|delta| delta.iter().sum::<i32>())
                    .min()
                    .unwrap_or(0);
                if semi_would_help && issuable_min >= 0 {
                    let budget = self.stall_budget.max(1);
                    let p = 0.75 * (1.0 - self.optional_stalls as f64 / budget as f64);
                    stall = Some((arrival, p));
                }
            }
        }
        Pass2Scan::Select { stall }
    }

    /// One ant's decision at a [`Pass2Scan::Select`]: `None` if its coin
    /// takes the optional stall, else its pick among the issuable
    /// instructions (scored into `scratch` if no ant sharing this state
    /// got that far yet). Draw order: stall coin, explore flag, roulette.
    pub(crate) fn choose(
        &self,
        ctx: &AntContext<'a>,
        pheromone: &PheromoneTable,
        scratch: &mut Pass2Scratch,
        stall: Option<(Cycle, f64)>,
        rng: &mut SmallRng,
        explore: Option<bool>,
    ) -> Option<Pick> {
        if let Some((_, p)) = stall {
            if rng.gen::<f64>() < p {
                return None;
            }
        }
        let mut pick = choose(
            ctx,
            pheromone,
            self.heuristic,
            self.last,
            &scratch.issuable,
            Some(&scratch.issuable_delta),
            &self.pressure,
            &mut scratch.scores,
            rng,
            explore,
        );
        pick.drew |= stall.is_some();
        Some(pick)
    }

    /// The order is complete.
    pub(crate) fn finish(&mut self) {
        self.phase = Phase::Finished;
    }

    /// The constraint cannot be kept.
    pub(crate) fn die(&mut self) {
        self.phase = Phase::Dead;
    }

    /// Waits until `arrival`.
    pub(crate) fn stall(&mut self, arrival: Cycle, optional: bool) {
        self.optional_stalls += u32::from(optional);
        self.now = arrival;
    }

    /// Issues entry `pos` of the issuable partition `scratch` holds for
    /// this state; returns the number of successor-edge updates performed.
    pub(crate) fn issue(
        &mut self,
        ctx: &AntContext<'a>,
        scratch: &Pass2Scratch,
        pos: usize,
    ) -> u32 {
        let id = scratch.issuable[pos];
        let ready_pos = scratch.issuable_pos[pos] as usize;
        debug_assert_eq!(self.ready[ready_pos].0, id);
        self.ready.swap_remove(ready_pos);
        self.cycles[id.index()] = self.now;
        self.pressure.issue(id);
        self.order.push(id);
        self.last = Some(id);
        let mut succ_ops = 0u32;
        for &(s, lat) in ctx.ddg.succs(id) {
            succ_ops += 1;
            let arrival = &mut self.cycles[s.index()];
            *arrival = (*arrival).max(self.now + lat as Cycle);
            self.pending[s.index()] -= 1;
            if self.pending[s.index()] == 0 {
                self.ready.push((s, *arrival));
            }
        }
        self.now += 1;
        if self.order.len() == ctx.ddg.len() {
            self.phase = Phase::Finished;
        }
        succ_ops
    }
}

/// A pass-2 ant: builds a timed schedule with stalls under a hard pressure
/// constraint.
///
/// Like [`Pass1Ant`], every working buffer is reserved at region capacity
/// on construction so a reset + construction cycle allocates nothing;
/// [`Pass2Ant::result`] is the only allocating call and is meant to run
/// only for iteration winners.
#[derive(Debug, Clone)]
pub struct Pass2Ant<'a> {
    rng: SmallRng,
    state: Pass2State<'a>,
    scratch: Pass2Scratch,
    ops: u64,
}

impl<'a> Pass2Ant<'a> {
    /// Creates a pass-2 ant targeting `target_cost` (the best pass-1 APRP
    /// cost, treated as a constraint).
    pub fn new(
        ctx: &AntContext<'a>,
        heuristic: Heuristic,
        seed: u64,
        target_cost: u64,
        allow_optional_stalls: bool,
    ) -> Pass2Ant<'a> {
        Pass2Ant {
            rng: SmallRng::seed_from_u64(seed),
            state: Pass2State::new(ctx, heuristic, target_cost, allow_optional_stalls),
            scratch: Pass2Scratch::new(ctx),
            ops: 0,
        }
    }

    /// Overrides the optional-stall budget (the host-side greedy input
    /// constructions stall freely; wavefront ants use the configured
    /// fraction of the region size). Survives [`Pass2Ant::reset`].
    pub fn set_stall_budget(&mut self, budget: u32) {
        self.state.stall_budget = budget;
    }

    /// Resets for a new construction, reseeding the RNG. The target cost,
    /// stall budget, and op accounting are kept; ops accumulate across
    /// resets, so read them once per pass.
    pub fn reset(&mut self, ctx: &AntContext<'a>, seed: u64) {
        self.reset_with(
            ctx,
            self.state.heuristic,
            seed,
            self.state.allow_optional_stalls,
        );
    }

    /// [`Pass2Ant::reset`] plus a new guiding heuristic and stall
    /// permission, so one ant can be reused across a colony where both
    /// rotate (per ant on the host, per wavefront on the GPU).
    pub fn reset_with(
        &mut self,
        ctx: &AntContext<'a>,
        heuristic: Heuristic,
        seed: u64,
        allow_optional_stalls: bool,
    ) {
        self.rng = SmallRng::seed_from_u64(seed);
        self.state.reset(ctx, heuristic, allow_optional_stalls);
    }

    /// Whether the ant is still constructing.
    pub fn running(&self) -> bool {
        self.state.running()
    }

    /// Whether the ant completed a feasible schedule.
    pub fn finished(&self) -> bool {
        self.state.finished()
    }

    /// Kills the ant (early wavefront termination).
    pub fn kill(&mut self) {
        self.state.kill();
    }

    /// Performs one construction step (issue one instruction, schedule one
    /// stall, die, or finish).
    pub fn step(
        &mut self,
        ctx: &AntContext<'a>,
        pheromone: &PheromoneTable,
        explore: Option<bool>,
    ) -> Pass2Step {
        match self.state.phase {
            Phase::Dead => return Pass2Step::Died,
            Phase::Finished => return Pass2Step::Finished,
            Phase::Running => {}
        }
        let scanned = self.state.ready_len() as u32;
        let scan = self.state.scan(ctx, &mut self.scratch);
        if !matches!(scan, Pass2Scan::Finished) {
            self.ops += OPS_PER_STEP + scanned as u64 * OPS_PER_CANDIDATE;
        }
        let (arrival, optional) = match scan {
            Pass2Scan::Finished => {
                self.state.finish();
                return Pass2Step::Finished;
            }
            Pass2Scan::Die => {
                self.state.die();
                return Pass2Step::Died;
            }
            Pass2Scan::Stall { arrival, optional } => (arrival, optional),
            Pass2Scan::Select { stall } => {
                let choice = self.state.choose(
                    ctx,
                    pheromone,
                    &mut self.scratch,
                    stall,
                    &mut self.rng,
                    explore,
                );
                match choice {
                    Some(pick) => {
                        let succ_ops = self.state.issue(ctx, &self.scratch, pick.pos);
                        self.ops += succ_ops as u64 * OPS_PER_SUCC;
                        return Pass2Step::Issued {
                            scanned,
                            succ_ops,
                            explored: pick.explored,
                        };
                    }
                    None => {
                        let (arrival, _) = stall.expect("only a stall coin declines to pick");
                        (arrival, true)
                    }
                }
            }
        };
        self.state.stall(arrival, optional);
        Pass2Step::Stalled { scanned, optional }
    }

    /// Steps the construction until it finishes or dies, without
    /// materializing it; whether it finished. `explore` as in
    /// [`Pass2Ant::step`].
    pub(crate) fn construct(
        &mut self,
        ctx: &AntContext<'a>,
        pheromone: &PheromoneTable,
        explore: Option<bool>,
    ) -> bool {
        loop {
            match self.step(ctx, pheromone, explore) {
                Pass2Step::Died => return false,
                Pass2Step::Finished => return true,
                Pass2Step::Issued { .. } | Pass2Step::Stalled { .. } => {}
            }
        }
    }

    /// Runs the construction until it finishes or dies (sequential driver).
    /// Returns `None` for a dead ant.
    pub fn run(&mut self, ctx: &AntContext<'a>, pheromone: &PheromoneTable) -> Option<Pass2Result> {
        self.construct(ctx, pheromone, None).then(|| self.result())
    }

    /// The completed result.
    ///
    /// Clones the cycles and order; in a reduction, compare
    /// [`Pass2Ant::length`] first and materialize only the winner.
    ///
    /// # Panics
    ///
    /// Panics if the ant has not finished.
    pub fn result(&self) -> Pass2Result {
        assert!(self.finished(), "result of an unfinished pass-2 ant");
        let schedule = Schedule::from_cycles(self.state.cycles().to_vec());
        Pass2Result {
            length: schedule.length(),
            order: self.state.order().to_vec(),
            prp: self.state.prp(),
            schedule,
        }
    }

    /// Length of the completed schedule, without materializing it. Equal
    /// to what [`Pass2Ant::result`]'s schedule would report.
    ///
    /// # Panics
    ///
    /// Panics if the ant has not finished.
    pub fn length(&self) -> Cycle {
        self.state.length()
    }

    /// The issue order so far (complete once [`Pass2Ant::finished`]).
    pub fn order(&self) -> &[InstrId] {
        self.state.order()
    }

    /// Per-instruction issue cycles (dense, indexed by instruction;
    /// complete once [`Pass2Ant::finished`], and until then an unissued
    /// instruction's entry is its operand arrival so far).
    pub fn cycles(&self) -> &[Cycle] {
        self.state.cycles()
    }

    /// Peak pressure of the construction so far.
    pub fn prp(&self) -> [u32; REG_CLASS_COUNT] {
        self.state.prp()
    }

    /// Abstract operations executed so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Current ready-list length.
    pub fn ready_len(&self) -> usize {
        self.state.ready_len()
    }
}

/// Total (all-class) net pressure change of issuing `id` now.
fn net_total(pressure: &PressureTracker<'_>, id: InstrId) -> i32 {
    pressure.net_change(id).iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use list_sched::RegionAnalysis;
    use machine_model::OccupancyModel;
    use sched_ir::figure1;

    fn setup(ddg: &Ddg) -> (RegionAnalysis, RegUniverse, OccupancyLut, AcoConfig) {
        (
            RegionAnalysis::new(ddg),
            RegUniverse::new(ddg),
            OccupancyLut::new(&OccupancyModel::vega_like()),
            AcoConfig::small(7),
        )
    }

    #[test]
    fn pass1_ant_builds_valid_orders() {
        let ddg = figure1::ddg();
        let (analysis, universe, lut, cfg) = setup(&ddg);
        let ctx = AntContext {
            ddg: &ddg,
            analysis: &analysis,
            universe: &universe,
            lut: &lut,
            cfg: &cfg,
        };
        let pher = PheromoneTable::new(ddg.len(), 1.0);
        for seed in 0..20 {
            let mut ant = Pass1Ant::new(&ctx, Heuristic::LastUseCount, seed);
            let r = ant.run(&ctx, &pher);
            assert_eq!(r.order.len(), 7);
            // Precedence check.
            let mut pos = [0usize; 7];
            for (i, id) in r.order.iter().enumerate() {
                pos[id.index()] = i;
            }
            for id in ddg.ids() {
                for &(s, _) in ddg.succs(id) {
                    assert!(pos[id.index()] < pos[s.index()]);
                }
            }
            assert!(r.prp[0] >= 3, "figure-1 PRP is at least 3");
            assert!(ant.ops() > 0);
        }
    }

    #[test]
    fn pass1_reset_reproduces_same_seed() {
        let ddg = figure1::ddg();
        let (analysis, universe, lut, cfg) = setup(&ddg);
        let ctx = AntContext {
            ddg: &ddg,
            analysis: &analysis,
            universe: &universe,
            lut: &lut,
            cfg: &cfg,
        };
        let pher = PheromoneTable::new(ddg.len(), 1.0);
        let mut ant = Pass1Ant::new(&ctx, Heuristic::CriticalPath, 5);
        let first = ant.run(&ctx, &pher);
        ant.reset(&ctx, 5);
        let second = ant.run(&ctx, &pher);
        assert_eq!(first.order, second.order);
        assert_eq!(first.cost, second.cost);
    }

    #[test]
    fn pass2_ant_respects_latencies_and_constraint() {
        let (ddg, _) = figure1::ddg_with_ids();
        let (analysis, universe, _, cfg) = setup(&ddg);
        // The identity-APRP model makes PRP 3 a binding constraint, as in
        // the paper's walkthrough.
        let occ = OccupancyLut::new(&OccupancyModel::unit());
        let ctx = AntContext {
            ddg: &ddg,
            analysis: &analysis,
            universe: &universe,
            lut: &occ,
            cfg: &cfg,
        };
        let pher = PheromoneTable::new(ddg.len(), 1.0);
        // Target: PRP 3 (the paper's pass-1 best).
        let target = occ.rp_cost([3, 0]);
        let mut finished = 0;
        for seed in 0..40 {
            let mut ant = Pass2Ant::new(&ctx, Heuristic::LastUseCount, seed, target, true);
            if let Some(r) = ant.run(&ctx, &pher) {
                finished += 1;
                r.schedule.validate(&ddg).expect("latency-feasible");
                assert!(occ.rp_cost(r.prp) <= target, "constraint respected");
                assert!(r.length >= 10, "10 cycles is optimal under PRP 3");
            }
        }
        assert!(finished > 0, "some ants must finish");
    }

    #[test]
    fn pass2_ant_with_loose_target_always_finishes() {
        let ddg = figure1::ddg();
        let (analysis, universe, lut, cfg) = setup(&ddg);
        let ctx = AntContext {
            ddg: &ddg,
            analysis: &analysis,
            universe: &universe,
            lut: &lut,
            cfg: &cfg,
        };
        let pher = PheromoneTable::new(ddg.len(), 1.0);
        for seed in 0..10 {
            let mut ant = Pass2Ant::new(&ctx, Heuristic::CriticalPath, seed, u64::MAX, false);
            let r = ant.run(&ctx, &pher).expect("unconstrained ant cannot die");
            r.schedule.validate(&ddg).unwrap();
        }
    }

    #[test]
    fn pass2_ant_dies_on_impossible_target() {
        let ddg = figure1::ddg();
        let (analysis, universe, _, cfg) = setup(&ddg);
        let occ = OccupancyLut::new(&OccupancyModel::unit());
        let ctx = AntContext {
            ddg: &ddg,
            analysis: &analysis,
            universe: &universe,
            lut: &occ,
            cfg: &cfg,
        };
        let pher = PheromoneTable::new(ddg.len(), 1.0);
        // PRP 1 is impossible (E needs two operands live).
        let target = occ.rp_cost([1, 0]);
        let mut ant = Pass2Ant::new(&ctx, Heuristic::LastUseCount, 3, target, true);
        assert!(ant.run(&ctx, &pher).is_none());
        assert!(!ant.running());
        assert!(!ant.finished());
    }

    #[test]
    fn pass2_kill_stops_a_running_ant() {
        let ddg = figure1::ddg();
        let (analysis, universe, lut, cfg) = setup(&ddg);
        let ctx = AntContext {
            ddg: &ddg,
            analysis: &analysis,
            universe: &universe,
            lut: &lut,
            cfg: &cfg,
        };
        let pher = PheromoneTable::new(ddg.len(), 1.0);
        let mut ant = Pass2Ant::new(&ctx, Heuristic::CriticalPath, 0, u64::MAX, false);
        ant.step(&ctx, &pher, None);
        ant.kill();
        assert_eq!(ant.step(&ctx, &pher, None), Pass2Step::Died);
    }

    #[test]
    fn explore_override_is_respected_deterministically() {
        let ddg = figure1::ddg();
        let (analysis, universe, lut, cfg) = setup(&ddg);
        let ctx = AntContext {
            ddg: &ddg,
            analysis: &analysis,
            universe: &universe,
            lut: &lut,
            cfg: &cfg,
        };
        let pher = PheromoneTable::new(ddg.len(), 1.0);
        let mut ant = Pass1Ant::new(&ctx, Heuristic::CriticalPath, 0);
        let s = ant.step(&ctx, &pher, Some(false));
        assert!(!s.explored);
        let s = ant.step(&ctx, &pher, Some(true));
        assert!(s.explored);
    }
}
