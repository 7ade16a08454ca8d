//! The lockstep lane-class wavefront against 64 independently stepped
//! ants.
//!
//! `Pass1Ant::step`/`Pass2Ant::step` are the reference: one ant, one RNG,
//! one state. The class wavefront keeps one state per *distinct* decision
//! history and must be indistinguishable from 64 of those ants stepped in
//! lockstep — per round (the cost model's inputs), per lane (order, cycles,
//! cost, phase), and end to end (`GpuStats` and the winning schedule of
//! `ParallelScheduler::schedule`, pinned to what the per-lane loop it
//! replaced produced).

use aco::construct::Pass1Step;
use aco::lockstep::{Pass1Round, Pass1Wavefront, Pass2Round, Pass2Wavefront};
use aco::{
    AcoConfig, AntContext, GpuTuning, ParallelScheduler, Pass1Ant, Pass2Ant, Pass2Step,
    PheromoneTable,
};
use list_sched::{Heuristic, RegionAnalysis};
use machine_model::{OccupancyLut, OccupancyModel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reg_pressure::RegUniverse;
use sched_ir::Ddg;
use workloads::patterns;

const LANES: u32 = 64;
const SIZES: [usize; 3] = [8, 60, 201];

/// Generator shapes, each at roughly `n` instructions.
fn shapes(n: usize) -> Vec<(&'static str, Ddg)> {
    vec![
        ("mixed", patterns::sized(n, n as u64)),
        ("reduction", patterns::reduction(n / 2, 3)),
        ("transform", patterns::transform_chain((n / 4).max(1), 2, 5)),
        ("random", patterns::random_layered((n / 6).max(2), 6, 7)),
    ]
}

fn lane_seed(wavefront: u32, lane: u32) -> u64 {
    0xC0FFEE ^ (u64::from(wavefront) << 20) ^ u64::from(lane).wrapping_mul(0x9E37_79B9)
}

/// The wavefront-level explore/exploit flag of one round, or `None` when
/// every lane draws its own (the Table 4.b ablation).
fn round_flag(wavefront_level: bool, rng: &mut SmallRng, q0: f64) -> Option<bool> {
    wavefront_level.then(|| rng.gen::<f64>() > q0)
}

/// Steps 64 lone pass-1 ants one round and derives the cost-model inputs
/// the way the per-lane wavefront loop did.
fn reference_round1<'a>(
    ants: &mut [Pass1Ant<'a>],
    ctx: &AntContext<'a>,
    pheromone: &PheromoneTable,
    explore: Option<bool>,
) -> Pass1Round {
    let mut round = Pass1Round {
        scan_max: ants.iter().map(|a| a.ready_len() as u64).max().unwrap(),
        ..Pass1Round::default()
    };
    for ant in ants {
        let Pass1Step {
            succ_ops, explored, ..
        } = ant.step(ctx, pheromone, explore);
        round.succ_max = round.succ_max.max(u64::from(succ_ops));
        round.any_explore |= explored;
        round.any_exploit |= !explored;
    }
    round
}

/// Likewise for pass 2; non-running ants sit the round out.
fn reference_round2<'a>(
    ants: &mut [Pass2Ant<'a>],
    ctx: &AntContext<'a>,
    pheromone: &PheromoneTable,
    explore: Option<bool>,
) -> Pass2Round {
    let mut round = Pass2Round {
        scan_max: ants
            .iter()
            .filter(|a| a.running())
            .map(|a| a.ready_len() as u64)
            .max()
            .unwrap_or(0),
        ..Pass2Round::default()
    };
    for ant in ants.iter_mut().filter(|a| a.running()) {
        match ant.step(ctx, pheromone, explore) {
            Pass2Step::Issued {
                succ_ops, explored, ..
            } => {
                round.succ_max = round.succ_max.max(u64::from(succ_ops));
                round.issued_explore |= explored;
                round.issued_exploit |= !explored;
                round.finished_now |= ant.finished();
            }
            Pass2Step::Stalled { .. } => round.stalled = true,
            Pass2Step::Died => {}
            Pass2Step::Finished => round.finished_now = true,
        }
    }
    round
}

/// Drives two pass-1 wavefronts (the second on the pheromone the first
/// one's winner deposited) both ways and compares everything observable.
/// Returns the best cost seen and `(lane_steps, class_steps)`.
fn check_pass1(what: &str, ctx: &AntContext<'_>, wavefront_level: bool) -> (u64, (u64, u64)) {
    let n = ctx.ddg.len();
    let mut pheromone = PheromoneTable::new(n, ctx.cfg.initial_pheromone);
    let mut classes = Pass1Wavefront::new(ctx, LANES);
    let mut ants: Vec<Pass1Ant<'_>> = (0..LANES)
        .map(|_| Pass1Ant::new(ctx, ctx.cfg.heuristic, 0))
        .collect();
    let mut best_cost = u64::MAX;
    for (w, heuristic) in [Heuristic::LastUseCount, Heuristic::AmdMaxOccupancy]
        .into_iter()
        .enumerate()
    {
        let w = w as u32;
        classes.launch(ctx, heuristic, |l| lane_seed(w, l));
        for (l, ant) in ants.iter_mut().enumerate() {
            ant.reset_with(ctx, heuristic, lane_seed(w, l as u32));
        }
        let mut wf_rng = SmallRng::seed_from_u64(77 + u64::from(w));
        for step in 0..n {
            let explore = round_flag(wavefront_level, &mut wf_rng, ctx.cfg.q0);
            let want = reference_round1(&mut ants, ctx, &pheromone, explore);
            let got = classes.round(ctx, &pheromone, explore);
            assert_eq!(got, want, "{what}: pass-1 wavefront {w} round {step}");
        }
        assert!(
            classes.finished(ctx),
            "{what}: pass 1 must finish in n rounds"
        );
        let mut lanes_seen = 0;
        for class in 0..classes.class_count() {
            assert!(classes.members(class).is_sorted(), "{what}: class {class}");
            for &lane in classes.members(class) {
                let ant = &ants[lane as usize];
                assert_eq!(
                    ant.order(),
                    classes.order(class),
                    "{what}: lane {lane} order"
                );
                assert_eq!(
                    ant.cost(ctx),
                    classes.cost(ctx, class),
                    "{what}: lane {lane}"
                );
                lanes_seen += 1;
            }
        }
        assert_eq!(lanes_seen, LANES, "{what}: Σ members == lanes");
        // First minimum-cost lane, as the per-lane reduction found it.
        let (lane, ant) = ants
            .iter()
            .enumerate()
            .min_by_key(|(l, a)| (a.cost(ctx), *l))
            .unwrap();
        let (cost, class) = classes.best(ctx);
        assert_eq!(cost, ant.cost(ctx), "{what}: winner cost");
        assert_eq!(
            classes.members(class)[0],
            lane as u32,
            "{what}: winner lane"
        );
        best_cost = best_cost.min(cost);
        pheromone.evaporate(ctx.cfg.decay, ctx.cfg.tau_min);
        pheromone.deposit_order(classes.order(class), ctx.cfg.deposit, ctx.cfg.tau_max);
    }
    (best_cost, classes.steps())
}

/// Drives two pass-2 wavefronts both ways, with the round loop of
/// `ParallelScheduler` (round cap, early wavefront termination), and
/// compares everything observable. Returns `(lane_steps, class_steps)`.
fn check_pass2(
    what: &str,
    ctx: &AntContext<'_>,
    target_cost: u64,
    wavefront_level: bool,
    early_termination: bool,
    may_stall: bool,
) -> (u64, u64) {
    let n = ctx.ddg.len();
    let mut pheromone = PheromoneTable::new(n, ctx.cfg.initial_pheromone);
    let mut classes = Pass2Wavefront::new(ctx, LANES, target_cost);
    let mut ants: Vec<Pass2Ant<'_>> = (0..LANES)
        .map(|_| Pass2Ant::new(ctx, ctx.cfg.heuristic, 0, target_cost, true))
        .collect();
    let round_cap = 4 * n as u64 + 64;
    for (w, heuristic) in [Heuristic::CriticalPath, Heuristic::LastUseCount]
        .into_iter()
        .enumerate()
    {
        let w = w as u32;
        classes.launch(ctx, heuristic, may_stall, |l| lane_seed(w, l));
        for (l, ant) in ants.iter_mut().enumerate() {
            ant.reset_with(ctx, heuristic, lane_seed(w, l as u32), may_stall);
        }
        let mut wf_rng = SmallRng::seed_from_u64(99 + u64::from(w));
        let mut rounds = 0;
        while ants.iter().any(|a| a.running()) && rounds < round_cap {
            assert!(classes.any_running(), "{what}: wavefront stopped early");
            rounds += 1;
            let explore = round_flag(wavefront_level, &mut wf_rng, ctx.cfg.q0);
            let want = reference_round2(&mut ants, ctx, &pheromone, explore);
            let got = classes.round(ctx, &pheromone, explore);
            assert_eq!(got, want, "{what}: pass-2 wavefront {w} round {rounds}");
            if want.finished_now && early_termination {
                ants.iter_mut().for_each(Pass2Ant::kill);
                classes.kill_running();
                break;
            }
        }
        assert_eq!(
            classes.any_running(),
            ants.iter().any(|a| a.running()),
            "{what}: running lanes after {rounds} rounds"
        );
        let mut lanes_seen = 0;
        for class in 0..classes.class_count() {
            for &lane in classes.members(class) {
                let ant = &ants[lane as usize];
                let lane = format!("{what}: wavefront {w} lane {lane}");
                assert_eq!(ant.running(), classes.running(class), "{lane} running");
                assert_eq!(ant.finished(), classes.finished(class), "{lane} finished");
                assert_eq!(ant.order(), classes.order(class), "{lane} order");
                assert_eq!(ant.cycles(), classes.cycles(class), "{lane} cycles");
                if ant.finished() {
                    assert_eq!(ant.length(), classes.length(class), "{lane} length");
                    assert_eq!(ant.length(), ant.result().schedule.length(), "{lane}");
                }
                lanes_seen += 1;
            }
        }
        assert_eq!(lanes_seen, LANES, "{what}: Σ members == lanes");
        let want_best = ants
            .iter()
            .enumerate()
            .filter(|(_, a)| a.finished())
            .min_by_key(|(l, a)| (a.length(), *l))
            .map(|(l, a)| (a.length(), l as u32));
        let got_best = classes
            .best()
            .map(|(len, class)| (len, classes.members(class)[0]));
        assert_eq!(got_best, want_best, "{what}: wavefront {w} winner");
        pheromone.evaporate(ctx.cfg.decay, ctx.cfg.tau_min);
        if let Some((_, class)) = classes.best() {
            pheromone.deposit_order(classes.order(class), ctx.cfg.deposit, ctx.cfg.tau_max);
        }
    }
    classes.steps()
}

/// The mechanism is exercised, not bypassed: every wavefront starts as one
/// class, and on small regions (few distinct prefixes, uniform initial
/// pheromone notwithstanding) most lane steps share a scanned state.
fn assert_shares_work(what: &str, size: usize, lane_steps: u64, class_steps: u64) {
    let max_share = match size {
        0..=9 => 0.25,
        10..=99 => 0.9,
        _ => 1.0,
    };
    assert!(
        class_steps < lane_steps && class_steps as f64 <= max_share * lane_steps as f64,
        "{what}: {class_steps} class steps for {lane_steps} lane steps"
    );
}

#[test]
fn class_wavefront_equals_64_independent_ants() {
    let lut = OccupancyLut::new(&OccupancyModel::vega_like());
    for size in SIZES {
        for (shape, ddg) in shapes(size) {
            let analysis = RegionAnalysis::new(&ddg);
            let universe = RegUniverse::new(&ddg);
            let cfg = AcoConfig::paper(5);
            let ctx = AntContext {
                ddg: &ddg,
                analysis: &analysis,
                universe: &universe,
                lut: &lut,
                cfg: &cfg,
            };
            for wavefront_level in [true, false] {
                let what = format!("{shape}/{size} wavefront_level={wavefront_level}");
                let (best_cost, (lane_steps, class_steps)) =
                    check_pass1(&what, &ctx, wavefront_level);
                assert_eq!(lane_steps, 2 * u64::from(LANES) * ddg.len() as u64);
                assert_shares_work(&what, size, lane_steps, class_steps);
                // The tightest constraint some lane met (ants die on it),
                // and none at all (every ant finishes).
                for target_cost in [best_cost, u64::MAX] {
                    for early_termination in [true, false] {
                        for may_stall in [true, false] {
                            let what = format!(
                                "{what} target={target_cost} early={early_termination} \
                                 may_stall={may_stall}"
                            );
                            let (lane_steps, class_steps) = check_pass2(
                                &what,
                                &ctx,
                                target_cost,
                                wavefront_level,
                                early_termination,
                                may_stall,
                            );
                            assert_shares_work(&what, size, lane_steps, class_steps);
                        }
                    }
                }
            }
        }
    }
}

/// FNV-1a over 64-bit words.
fn fold(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Everything `ParallelScheduler::schedule` reports for one region under
/// one tuning, folded to a word: modeled launch profiles bit for bit,
/// divergence and memory counters, per-pass statistics, and the winning
/// schedule.
fn outcome_fingerprint(ddg: &Ddg, occ: &OccupancyModel, tuning: GpuTuning) -> u64 {
    let mut cfg = AcoConfig {
        blocks: 4,
        tuning,
        pass2_gate_cycles: 1,
        ..AcoConfig::paper(5)
    };
    cfg.termination.max_iterations = 6;
    let out = ParallelScheduler::new(cfg).schedule(ddg, occ);
    out.result.schedule.validate(ddg).unwrap();
    assert!(
        out.result.pass1.iterations > 0 && out.result.pass2.iterations > 0,
        "pick a region both ACO passes run on"
    );
    let mut h = 0xCBF2_9CE4_8422_2325;
    for p in [out.gpu.pass1_profile, out.gpu.pass2_profile] {
        for word in [
            p.alloc_us.to_bits(),
            p.copy_us.to_bits(),
            p.copy_bytes,
            p.kernel_us.to_bits(),
        ] {
            h = fold(h, word);
        }
    }
    h = fold(h, out.gpu.divergent_steps);
    h = fold(h, out.gpu.mem_transactions);
    for pass in [out.result.pass1, out.result.pass2] {
        h = fold(h, u64::from(pass.iterations));
        h = fold(h, pass.best_cost);
        h = fold(h, u64::from(pass.improved) | u64::from(pass.hit_lb) << 1);
    }
    for (id, &cycle) in out.result.order.iter().zip(out.result.schedule.cycles()) {
        h = fold(fold(h, id.index() as u64), cycle as u64);
    }
    h
}

/// `outcome_fingerprint` of the per-lane wavefront loops this driver
/// replaced (recorded at the last commit that had them), in the iteration
/// order of the test below.
const PER_LANE_LOOP_FINGERPRINTS: [u64; 36] = [
    0x2df79164f1566c38,
    0x80d1d7c23f746b18,
    0x72a2bbf99f824844,
    0x2df79164f1566c38,
    0x80d1d7c23f746b18,
    0x72a2bbf99f824844,
    0x9e8d81124a68ffd7,
    0x5be1af782d206810,
    0xdb388a3a63d0fb88,
    0x9e8d81124a68ffd7,
    0x5be1af782d206810,
    0xdb388a3a63d0fb88,
    0x7bd605dd41e9f419,
    0xf4a6622633dfce8e,
    0xd7789e9740482b3e,
    0x7bd605dd41e9f419,
    0x46301aecd9598d1d,
    0x772a2a181a6e39dd,
    0xf8fc98af531326ce,
    0xa78bfede232a5975,
    0x8f6dda3e7a5dd44a,
    0xf8fc98af531326ce,
    0xb1095acf5960dc1c,
    0xabfd5fa3a3a934fd,
    0xb490fc9fb3a64b0a,
    0x45551a6195c45277,
    0x0b1d4b711f558efd,
    0x48ed95ee9973ab56,
    0xa8ab0ecbfca5fb5b,
    0x1d95b27d10ccaa74,
    0xb0768bdf6b2f60e8,
    0x21e5d424775a6915,
    0x2aecaaa1fc1f4229,
    0x7305f7caec343109,
    0x061b52a2f041c287,
    0xc9df793594be598c,
];

#[test]
fn schedule_outcomes_equal_the_per_lane_loop() {
    // Regions (and occupancy models) on which neither pass is gated off.
    let regions = [
        (patterns::sized(8, 3), OccupancyModel::unit()),
        (patterns::sized(60, 20), OccupancyModel::vega_like()),
        (patterns::sized(201, 8), OccupancyModel::vega_like()),
    ];
    let mut got = Vec::new();
    for (ddg, occ) in &regions {
        for wavefront_level_choice in [true, false] {
            for early_wavefront_termination in [true, false] {
                for stall_wavefront_fraction in [0.0, 0.25, 1.0] {
                    let tuning = GpuTuning {
                        wavefront_level_choice,
                        early_wavefront_termination,
                        stall_wavefront_fraction,
                        ..GpuTuning::optimized()
                    };
                    got.push(outcome_fingerprint(ddg, occ, tuning));
                }
            }
        }
    }
    if got[..] != PER_LANE_LOOP_FINGERPRINTS {
        let rows: Vec<String> = got.iter().map(|h| format!("    {h:#018x},")).collect();
        panic!(
            "GpuStats / schedule drifted from the per-lane loop; got:\n{}",
            rows.join("\n")
        );
    }
}
