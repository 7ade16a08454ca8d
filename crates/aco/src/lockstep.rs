//! Lockstep lane classes: one ant state per *distinct* decision history.
//!
//! The 64 ants of a wavefront start from the same state, and — with the
//! wavefront-level explore/exploit choice of Section V-B — on nine rounds
//! in ten every lane holding the same partial schedule takes the same
//! argmax step. A real SIMT machine executes such lanes once under one
//! mask; this module does the same on the host. The lanes of a wavefront
//! are partitioned into **classes** of bit-identical ant state: a class
//! owns one state slot, every lane keeps its own RNG. Each round a class is
//! scanned and scored once, every member lane resolves only its own random
//! draws against the shared scores, the class splits by outcome
//! (copy-on-split into a pre-reserved slot), and the issue is applied once
//! per resulting class.
//!
//! Results are bit-identical to stepping 64 independent
//! [`crate::Pass1Ant`]/[`crate::Pass2Ant`]s: lane `l` consumes exactly the
//! random numbers its lone ant would, in the same order (the per-ant
//! decision logic is the one copy in [`crate::construct`]), and lanes that
//! share a state and an outcome share the successor state by construction.
//! Classes never merge, so at most `lanes` slots are ever live.

use crate::construct::{AntContext, Pass1State, Pass2Scan, Pass2Scratch, Pass2State, Scores};
use crate::pheromone::PheromoneTable;
use list_sched::Heuristic;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sched_ir::{Cycle, InstrId};

/// `LaneClasses::group_of_key` entry of a key no member has drawn.
const NO_GROUP: u32 = u32::MAX;

/// The partition of a wavefront's lanes into classes. Class `c`'s state
/// lives in slot `c` of its wavefront.
#[derive(Debug)]
struct LaneClasses {
    /// Every lane once, grouped by class, ascending within a class (so a
    /// class's first member is its lowest lane).
    lanes: Vec<u32>,
    /// `(start, len)` of each class's run in `lanes`.
    runs: Vec<(u32, u32)>,
    /// Outcome key → group of the split in progress.
    group_of_key: Vec<u32>,
    /// Group of each member of the class being split.
    member_group: Vec<u32>,
    /// `(key, class)` per group of the last split, in first-drawn order.
    groups: Vec<(u32, u32)>,
    /// Next free index in `lanes` of each group while members scatter.
    cursor: Vec<u32>,
    /// The split class's members in their old order.
    moved: Vec<u32>,
}

impl LaneClasses {
    /// All buffers reserved for `lanes` lanes and outcome keys `< keys`;
    /// nothing allocates afterwards.
    fn new(lanes: usize, keys: usize) -> LaneClasses {
        LaneClasses {
            lanes: Vec::with_capacity(lanes),
            runs: Vec::with_capacity(lanes),
            group_of_key: vec![NO_GROUP; keys],
            member_group: vec![0; lanes],
            groups: Vec::with_capacity(lanes),
            cursor: Vec::with_capacity(lanes),
            moved: Vec::with_capacity(lanes),
        }
    }

    /// One class holding every lane.
    fn reset(&mut self) {
        let lanes = self.member_group.len() as u32;
        self.lanes.clear();
        self.lanes.extend(0..lanes);
        self.runs.clear();
        self.runs.push((0, lanes));
    }

    fn count(&self) -> usize {
        self.runs.len()
    }

    fn members(&self, class: usize) -> &[u32] {
        let (start, len) = self.runs[class];
        &self.lanes[start as usize..(start + len) as usize]
    }

    /// Splits class `class` by its members' outcome keys (`keys[i]` is
    /// member `i`'s). The members of the first-drawn key stay in `class`;
    /// every other distinct key gets a new class. Returns `(key, class)`
    /// per group. O(members), stable, allocation-free.
    fn split(&mut self, class: usize, keys: &[u32]) -> &[(u32, u32)] {
        let (start, len) = self.runs[class];
        debug_assert_eq!(keys.len(), len as usize);
        // Group the members by key; `groups[g].1` counts members for now.
        self.groups.clear();
        for (i, &key) in keys.iter().enumerate() {
            let mut g = self.group_of_key[key as usize];
            if g == NO_GROUP {
                g = self.groups.len() as u32;
                self.group_of_key[key as usize] = g;
                self.groups.push((key, 0));
            }
            self.groups[g as usize].1 += 1;
            self.member_group[i] = g;
        }
        for &(key, _) in &self.groups {
            self.group_of_key[key as usize] = NO_GROUP;
        }
        if self.groups.len() == 1 {
            self.groups[0].1 = class as u32;
            return &self.groups;
        }
        // Carve the class's run into one run per group, in group order.
        self.cursor.clear();
        let mut at = start;
        for (g, group) in self.groups.iter_mut().enumerate() {
            let members = group.1;
            self.cursor.push(at);
            if g == 0 {
                self.runs[class] = (at, members);
                group.1 = class as u32;
            } else {
                group.1 = self.runs.len() as u32;
                self.runs.push((at, members));
            }
            at += members;
        }
        // Stable scatter: lanes stay ascending within each new class.
        let run = start as usize..(start + len) as usize;
        self.moved.clear();
        self.moved.extend_from_slice(&self.lanes[run]);
        for (&lane, &g) in self.moved.iter().zip(&self.member_group) {
            let at = &mut self.cursor[g as usize];
            self.lanes[*at as usize] = lane;
            *at += 1;
        }
        &self.groups
    }
}

/// Reseeds `rngs` with the wavefront's per-lane streams.
fn seed_lanes(rngs: &mut [SmallRng], mut seed_of_lane: impl FnMut(u32) -> u64) {
    for (lane, rng) in rngs.iter_mut().enumerate() {
        *rng = SmallRng::seed_from_u64(seed_of_lane(lane as u32));
    }
}

/// Copies the parent state into every new class of a split, then lets
/// `apply` advance each resulting class (children first: the parent must
/// still hold the shared pre-step state while they copy it).
fn fork_and_apply<S>(
    slots: &mut [S],
    parent: usize,
    groups: &[(u32, u32)],
    copy: impl Fn(&mut S, &S),
    mut apply: impl FnMut(&mut S, u32),
) {
    for &(key, class) in groups.iter().rev() {
        let class = class as usize;
        if class != parent {
            let (head, tail) = slots.split_at_mut(class);
            copy(&mut tail[0], &head[parent]);
        }
        apply(&mut slots[class], key);
    }
}

/// Cost-model inputs of one pass-1 wavefront round: what the lockstep
/// hardware would have executed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Pass1Round {
    /// Longest ready list scanned by any lane.
    pub scan_max: u64,
    /// Most successor-edge updates performed by any lane.
    pub succ_max: u64,
    /// Whether any lane selected by biased exploration.
    pub any_explore: bool,
    /// Whether any lane selected by argmax exploitation.
    pub any_exploit: bool,
}

/// The pass-1 ants of one wavefront, stepped in lockstep as lane classes.
///
/// Allocates once, at construction; [`Pass1Wavefront::launch`] and
/// [`Pass1Wavefront::round`] — class splits included — never touch the
/// allocator.
#[derive(Debug)]
pub struct Pass1Wavefront<'a> {
    classes: LaneClasses,
    slots: Vec<Pass1State<'a>>,
    rngs: Vec<SmallRng>,
    scores: Scores,
    keys: Vec<u32>,
    lane_steps: u64,
    class_steps: u64,
}

impl<'a> Pass1Wavefront<'a> {
    /// Reserves the state of a `lanes`-wide wavefront on `ctx`'s region.
    pub fn new(ctx: &AntContext<'a>, lanes: u32) -> Pass1Wavefront<'a> {
        let (lanes, n) = (lanes as usize, ctx.ddg.len());
        Pass1Wavefront {
            classes: LaneClasses::new(lanes, n),
            slots: (0..lanes)
                .map(|_| Pass1State::new(ctx, ctx.cfg.heuristic))
                .collect(),
            rngs: vec![SmallRng::seed_from_u64(0); lanes],
            scores: Scores::new(ctx),
            keys: vec![0; lanes],
            lane_steps: 0,
            class_steps: 0,
        }
    }

    /// Starts a new wavefront: every lane at region entry (one class, one
    /// state reset) under `heuristic`, lane `l` drawing from the stream
    /// seeded `seed_of_lane(l)`.
    pub fn launch(
        &mut self,
        ctx: &AntContext<'a>,
        heuristic: Heuristic,
        seed_of_lane: impl FnMut(u32) -> u64,
    ) {
        self.classes.reset();
        self.slots[0].reset(ctx, heuristic);
        seed_lanes(&mut self.rngs, seed_of_lane);
    }

    /// One construction step of every lane. `explore` is the
    /// wavefront-level explore/exploit choice; `None` lets every lane draw
    /// its own.
    ///
    /// # Panics
    ///
    /// Panics (debug) if called after the orders are complete.
    pub fn round(
        &mut self,
        ctx: &AntContext<'a>,
        pheromone: &PheromoneTable,
        explore: Option<bool>,
    ) -> Pass1Round {
        let mut round = Pass1Round::default();
        // Classes born this round sit past `live` and have already stepped.
        let live = self.classes.count();
        for class in 0..live {
            let state = &self.slots[class];
            debug_assert!(!state.finished(ctx));
            let members = self.classes.members(class);
            round.scan_max = round.scan_max.max(state.ready_len() as u64);
            self.class_steps += 1;
            self.lane_steps += members.len() as u64;
            self.scores.clear();
            let mut shared = false;
            for (key, &lane) in self.keys.iter_mut().zip(members) {
                let rng = &mut self.rngs[lane as usize];
                let pick = state.choose(ctx, pheromone, &mut self.scores, rng, explore);
                round.any_explore |= pick.explored;
                round.any_exploit |= !pick.explored;
                *key = pick.pos as u32;
                if !pick.drew {
                    // Nothing random went into it: it is every member's.
                    shared = true;
                    break;
                }
            }
            let mut issue = |state: &mut Pass1State<'a>, pos: u32| {
                round.succ_max = round.succ_max.max(state.issue(ctx, pos as usize) as u64);
            };
            if shared {
                issue(&mut self.slots[class], self.keys[0]);
            } else {
                let groups = self.classes.split(class, &self.keys[..members.len()]);
                fork_and_apply(&mut self.slots, class, groups, Pass1State::copy_from, issue);
            }
        }
        round
    }

    /// Number of lane classes so far this wavefront.
    pub fn class_count(&self) -> usize {
        self.classes.count()
    }

    /// The lanes of a class, ascending.
    pub fn members(&self, class: usize) -> &[u32] {
        self.classes.members(class)
    }

    /// Whether the orders are complete (all lanes finish on the same round).
    pub fn finished(&self, ctx: &AntContext<'a>) -> bool {
        self.slots[0].finished(ctx)
    }

    /// The order a class's lanes have constructed so far.
    pub fn order(&self, class: usize) -> &[InstrId] {
        self.slots[class].order()
    }

    /// APRP cost of a class's order so far.
    pub fn cost(&self, ctx: &AntContext<'a>, class: usize) -> u64 {
        self.slots[class].cost(ctx)
    }

    /// `(cost, class)` of the wavefront's first minimum-cost lane.
    pub fn best(&self, ctx: &AntContext<'a>) -> (u64, usize) {
        let key = |class: usize| (self.cost(ctx, class), self.members(class)[0]);
        let class = (0..self.class_count())
            .min_by_key(|&class| key(class))
            .expect("a wavefront has at least one class");
        (key(class).0, class)
    }

    /// `(lane_steps, class_steps)` since construction: construction steps
    /// the lanes took, and how many were actually scanned and scored.
    pub fn steps(&self) -> (u64, u64) {
        (self.lane_steps, self.class_steps)
    }
}

/// Cost-model inputs of one pass-2 wavefront round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Pass2Round {
    /// Longest ready list scanned by any running lane.
    pub scan_max: u64,
    /// Most successor-edge updates performed by any lane.
    pub succ_max: u64,
    /// Whether any lane issued by argmax exploitation.
    pub issued_exploit: bool,
    /// Whether any lane issued by biased exploration.
    pub issued_explore: bool,
    /// Whether any lane stalled.
    pub stalled: bool,
    /// Whether any lane completed its schedule this round.
    pub finished_now: bool,
}

/// The pass-2 ants of one wavefront, stepped in lockstep as lane classes
/// (see [`Pass1Wavefront`]); dead and finished classes sit out rounds the
/// way masked-off lanes do.
#[derive(Debug)]
pub struct Pass2Wavefront<'a> {
    classes: LaneClasses,
    slots: Vec<Pass2State<'a>>,
    rngs: Vec<SmallRng>,
    scratch: Pass2Scratch,
    keys: Vec<u32>,
    lane_steps: u64,
    class_steps: u64,
}

impl<'a> Pass2Wavefront<'a> {
    /// Reserves the state of a `lanes`-wide wavefront on `ctx`'s region,
    /// its ants constrained to `target_cost`.
    pub fn new(ctx: &AntContext<'a>, lanes: u32, target_cost: u64) -> Pass2Wavefront<'a> {
        let (lanes, n) = (lanes as usize, ctx.ddg.len());
        Pass2Wavefront {
            // Keys are issuable-list positions, plus `n` for the stall.
            classes: LaneClasses::new(lanes, n + 1),
            slots: (0..lanes)
                .map(|_| Pass2State::new(ctx, ctx.cfg.heuristic, target_cost, true))
                .collect(),
            rngs: vec![SmallRng::seed_from_u64(0); lanes],
            scratch: Pass2Scratch::new(ctx),
            keys: vec![0; lanes],
            lane_steps: 0,
            class_steps: 0,
        }
    }

    /// Starts a new wavefront (see [`Pass1Wavefront::launch`]);
    /// `may_stall` is the wavefront's optional-stall permission.
    pub fn launch(
        &mut self,
        ctx: &AntContext<'a>,
        heuristic: Heuristic,
        may_stall: bool,
        seed_of_lane: impl FnMut(u32) -> u64,
    ) {
        self.classes.reset();
        self.slots[0].reset(ctx, heuristic, may_stall);
        seed_lanes(&mut self.rngs, seed_of_lane);
    }

    /// Whether any lane is still constructing.
    pub fn any_running(&self) -> bool {
        self.slots[..self.classes.count()]
            .iter()
            .any(Pass2State::running)
    }

    /// One construction step of every running lane (see
    /// [`Pass1Wavefront::round`]).
    pub fn round(
        &mut self,
        ctx: &AntContext<'a>,
        pheromone: &PheromoneTable,
        explore: Option<bool>,
    ) -> Pass2Round {
        let stall_key = ctx.ddg.len() as u32;
        let mut round = Pass2Round::default();
        let live = self.classes.count();
        for class in 0..live {
            let state = &self.slots[class];
            if !state.running() {
                continue;
            }
            let members = self.classes.members(class);
            round.scan_max = round.scan_max.max(state.ready_len() as u64);
            self.class_steps += 1;
            self.lane_steps += members.len() as u64;
            let stall = match state.scan(ctx, &mut self.scratch) {
                Pass2Scan::Finished => {
                    self.slots[class].finish();
                    round.finished_now = true;
                    continue;
                }
                Pass2Scan::Die => {
                    self.slots[class].die();
                    continue;
                }
                Pass2Scan::Stall { arrival, optional } => {
                    self.slots[class].stall(arrival, optional);
                    round.stalled = true;
                    continue;
                }
                Pass2Scan::Select { stall } => stall,
            };
            let mut shared = false;
            for (key, &lane) in self.keys.iter_mut().zip(members) {
                let rng = &mut self.rngs[lane as usize];
                let choice = state.choose(ctx, pheromone, &mut self.scratch, stall, rng, explore);
                let Some(pick) = choice else {
                    *key = stall_key;
                    continue;
                };
                round.issued_explore |= pick.explored;
                round.issued_exploit |= !pick.explored;
                *key = pick.pos as u32;
                if !pick.drew {
                    shared = true;
                    break;
                }
            }
            let scratch = &self.scratch;
            let mut apply = |state: &mut Pass2State<'a>, key: u32| {
                if key == stall_key {
                    let (arrival, _) = stall.expect("only a stall coin yields the stall key");
                    state.stall(arrival, true);
                    round.stalled = true;
                } else {
                    let succ_ops = state.issue(ctx, scratch, key as usize);
                    round.succ_max = round.succ_max.max(succ_ops as u64);
                    round.finished_now |= state.finished();
                }
            };
            if shared {
                apply(&mut self.slots[class], self.keys[0]);
            } else {
                let groups = self.classes.split(class, &self.keys[..members.len()]);
                fork_and_apply(&mut self.slots, class, groups, Pass2State::copy_from, apply);
            }
        }
        round
    }

    /// Early wavefront termination: every lane still constructing dies.
    pub fn kill_running(&mut self) {
        for state in &mut self.slots[..self.classes.count()] {
            state.kill();
        }
    }

    /// Number of lane classes so far this wavefront.
    pub fn class_count(&self) -> usize {
        self.classes.count()
    }

    /// The lanes of a class, ascending.
    pub fn members(&self, class: usize) -> &[u32] {
        self.classes.members(class)
    }

    /// Whether a class's lanes are still constructing.
    pub fn running(&self, class: usize) -> bool {
        self.slots[class].running()
    }

    /// Whether a class's lanes completed a feasible schedule.
    pub fn finished(&self, class: usize) -> bool {
        self.slots[class].finished()
    }

    /// The issue order a class's lanes have constructed so far.
    pub fn order(&self, class: usize) -> &[InstrId] {
        self.slots[class].order()
    }

    /// Per-instruction issue cycles of a class's lanes so far (an
    /// unissued instruction's entry is its operand arrival so far).
    pub fn cycles(&self, class: usize) -> &[Cycle] {
        self.slots[class].cycles()
    }

    /// Schedule length of a finished class.
    ///
    /// # Panics
    ///
    /// Panics if the class has not finished.
    pub fn length(&self, class: usize) -> Cycle {
        self.slots[class].length()
    }

    /// `(length, class)` of the wavefront's first minimum-length finished
    /// lane, if any lane finished.
    pub fn best(&self) -> Option<(Cycle, usize)> {
        let key = |class: usize| (self.length(class), self.members(class)[0]);
        (0..self.class_count())
            .filter(|&class| self.finished(class))
            .min_by_key(|&class| key(class))
            .map(|class| (key(class).0, class))
    }

    /// `(lane_steps, class_steps)` since construction (see
    /// [`Pass1Wavefront::steps`]).
    pub fn steps(&self) -> (u64, u64) {
        (self.lane_steps, self.class_steps)
    }
}
