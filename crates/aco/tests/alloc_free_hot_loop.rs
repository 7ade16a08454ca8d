//! Proves the ant construction hot loop is allocation-free: a counting
//! global allocator observes a full reset + construction cycle for both
//! pass-1 and pass-2 ants and must see **zero** heap activity.
//!
//! The contract under test (see `construct.rs`): every working buffer —
//! ready list, order, issue cycles, issuable scratch, roulette weights —
//! is reserved at region capacity when the ant is created, so reusing an
//! ant across a colony costs no allocator traffic at all. Only
//! `result()` (winner materialization) may allocate.
//!
//! The lockstep wavefront (`lockstep.rs`) extends the contract to whole
//! wavefronts: its state slots, lane partition and split scratch are all
//! reserved at construction, so launching, stepping and *splitting* lane
//! classes (copy-on-split into a pre-reserved slot) is silent as well.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aco::lockstep::{Pass1Wavefront, Pass2Wavefront};
use aco::{AcoConfig, AntContext, Pass1Ant, Pass2Ant, Pass2Step, PheromoneTable};
use list_sched::{Heuristic, RegionAnalysis};
use machine_model::{OccupancyLut, OccupancyModel};
use reg_pressure::RegUniverse;

thread_local! {
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every allocation and reallocation on this thread. Frees are not
/// counted: the assertion is about acquiring memory mid-loop, and a free
/// with no matching later alloc cannot hide one.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn events() -> u64 {
    ALLOC_EVENTS.with(Cell::get)
}

/// Runs `f` and returns how many allocator events it caused.
fn count_events<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = events();
    let r = f();
    (events() - before, r)
}

#[test]
fn pass1_and_pass2_constructions_allocate_nothing() {
    let ddg = workloads::patterns::sized(120, 13);
    let analysis = RegionAnalysis::new(&ddg);
    let universe = RegUniverse::new(&ddg);
    let lut = OccupancyLut::new(&OccupancyModel::vega_like());
    let cfg = AcoConfig::paper(5);
    let ctx = AntContext {
        ddg: &ddg,
        analysis: &analysis,
        universe: &universe,
        lut: &lut,
        cfg: &cfg,
    };
    let pheromone = PheromoneTable::new(ddg.len(), cfg.initial_pheromone);

    // ---- Pass 1: the full reset + construction cycle is silent. ----
    let mut ant1 = Pass1Ant::new(&ctx, cfg.heuristic, 0);
    // Warm-up run: not measured (first construction may touch lazily
    // initialized thread state outside the scheduler).
    ant1.reset(&ctx, 1);
    while !ant1.finished(&ctx) {
        ant1.step(&ctx, &pheromone, None);
    }
    // Plain reset (the colony's per-iteration entry point) is silent too:
    // it seeds the ready list from the DDG's cached root set rather than
    // re-deriving roots with a `pred_counts` scan.
    for seed in 20..24u64 {
        let (n, ()) = count_events(|| {
            ant1.reset(&ctx, seed);
            while !ant1.finished(&ctx) {
                ant1.step(&ctx, &pheromone, None);
            }
        });
        assert_eq!(n, 0, "pass-1 reset (seed {seed}) hit the allocator");
    }
    for (seed, h) in (2..10u64).zip(
        [Heuristic::ALL, Heuristic::ALL]
            .concat()
            .into_iter()
            .cycle(),
    ) {
        let (n, ()) = count_events(|| {
            ant1.reset_with(&ctx, h, seed);
            while !ant1.finished(&ctx) {
                ant1.step(&ctx, &pheromone, None);
            }
            let _ = ant1.cost(&ctx);
            let _ = ant1.order();
            let _ = ant1.prp();
        });
        assert_eq!(n, 0, "pass-1 construction (seed {seed}) hit the allocator");
    }

    // ---- Pass 2: likewise, across heuristics and stall permissions. ----
    let target = u64::MAX; // unconstrained: the ant always finishes
    let mut ant2 = Pass2Ant::new(&ctx, cfg.heuristic, 0, target, true);
    ant2.reset(&ctx, 1);
    while ant2.running() {
        ant2.step(&ctx, &pheromone, None);
    }
    for seed in 20..24u64 {
        let (n, finished) = count_events(|| {
            ant2.reset(&ctx, seed);
            loop {
                match ant2.step(&ctx, &pheromone, None) {
                    Pass2Step::Died => break false,
                    Pass2Step::Finished => break true,
                    Pass2Step::Issued { .. } | Pass2Step::Stalled { .. } => {}
                }
            }
        });
        assert_eq!(n, 0, "pass-2 reset (seed {seed}) hit the allocator");
        assert!(finished, "unconstrained pass-2 ants cannot die");
    }
    for (seed, h) in (2..10u64).zip(
        [Heuristic::ALL, Heuristic::ALL]
            .concat()
            .into_iter()
            .cycle(),
    ) {
        let may_stall = seed % 2 == 0;
        let (n, finished) = count_events(|| {
            ant2.reset_with(&ctx, h, seed, may_stall);
            loop {
                match ant2.step(&ctx, &pheromone, None) {
                    Pass2Step::Died => break false,
                    Pass2Step::Finished => break true,
                    Pass2Step::Issued { .. } | Pass2Step::Stalled { .. } => {}
                }
            }
        });
        assert_eq!(n, 0, "pass-2 construction (seed {seed}) hit the allocator");
        assert!(finished, "unconstrained pass-2 ants cannot die");
        let (n, ()) = count_events(|| {
            let _ = ant2.length();
            let _ = ant2.order();
            let _ = ant2.cycles();
            let _ = ant2.prp();
        });
        assert_eq!(n, 0, "pass-2 accessors hit the allocator");
    }

    // Winner materialization is the one place that may allocate.
    let (n, r) = count_events(|| ant2.result());
    assert!(n > 0, "result() clones, so it must allocate");
    r.schedule.validate(&ddg).unwrap();
}

#[test]
fn wavefronts_with_class_splits_allocate_nothing_after_set_up() {
    let ddg = workloads::patterns::sized(120, 13);
    let analysis = RegionAnalysis::new(&ddg);
    let universe = RegUniverse::new(&ddg);
    let lut = OccupancyLut::new(&OccupancyModel::vega_like());
    let cfg = AcoConfig::paper(5);
    let ctx = AntContext {
        ddg: &ddg,
        analysis: &analysis,
        universe: &universe,
        lut: &lut,
        cfg: &cfg,
    };
    let pheromone = PheromoneTable::new(ddg.len(), cfg.initial_pheromone);
    let lanes = cfg.threads_per_block;
    // Every round explores, so classes split as fast as they can: the
    // wavefront ends fully fragmented, having forked `lanes - 1` states.
    let explore = Some(true);

    // ---- Pass 1: launch set-up, then launch + rounds + reduction. ----
    let mut wf1 = Pass1Wavefront::new(&ctx, lanes);
    for (w, h) in Heuristic::ALL.into_iter().enumerate() {
        let (n, cost) = count_events(|| {
            wf1.launch(&ctx, h, |l| 1000 * w as u64 + u64::from(l));
            while !wf1.finished(&ctx) {
                wf1.round(&ctx, &pheromone, explore);
            }
            let (cost, class) = wf1.best(&ctx);
            let _ = wf1.order(class);
            cost
        });
        assert_eq!(n, 0, "pass-1 wavefront {w} hit the allocator");
        assert_eq!(wf1.class_count(), lanes as usize, "every lane forked off");
        assert!(cost > 0);
    }
    // Per-thread explore flags (the Table 4.b ablation) take the same path.
    let (n, ()) = count_events(|| {
        wf1.launch(&ctx, cfg.heuristic, u64::from);
        while !wf1.finished(&ctx) {
            wf1.round(&ctx, &pheromone, None);
        }
    });
    assert_eq!(
        n, 0,
        "pass-1 wavefront with per-thread flags hit the allocator"
    );
    assert!(wf1.class_count() > 1);

    // ---- Pass 2: unconstrained, so every lane finishes. ----
    let mut wf2 = Pass2Wavefront::new(&ctx, lanes, u64::MAX);
    for (w, h) in Heuristic::ALL.into_iter().enumerate() {
        let (n, best) = count_events(|| {
            wf2.launch(&ctx, h, w % 2 == 0, |l| 2000 * w as u64 + u64::from(l));
            while wf2.any_running() {
                wf2.round(&ctx, &pheromone, explore);
            }
            let best = wf2.best();
            if let Some((_, class)) = best {
                let _ = (wf2.order(class), wf2.cycles(class));
            }
            best
        });
        assert_eq!(n, 0, "pass-2 wavefront {w} hit the allocator");
        assert_eq!(wf2.class_count(), lanes as usize, "every lane forked off");
        assert!(best.is_some(), "unconstrained pass-2 ants cannot die");
    }
    // Early wavefront termination is silent too.
    let (n, ()) = count_events(|| {
        wf2.launch(&ctx, cfg.heuristic, true, u64::from);
        wf2.round(&ctx, &pheromone, None);
        wf2.kill_running();
    });
    assert_eq!(n, 0, "pass-2 kill hit the allocator");
    assert!(!wf2.any_running());
}

#[test]
fn allocator_counter_actually_counts() {
    let (n, v) = count_events(|| Vec::<u64>::with_capacity(32));
    assert!(n >= 1, "allocation went uncounted");
    drop(v);
    let mut v = Vec::<u64>::with_capacity(2);
    v.extend_from_slice(&[1, 2]);
    let (n, ()) = count_events(|| v.extend_from_slice(&[3, 4, 5, 6, 7, 8, 9]));
    assert!(n >= 1, "reallocation went uncounted");
}
