//! Lending idle cores never changes a bit.
//!
//! A `ParallelScheduler` run inside an `IdleCores` ledger borrows up to
//! `blocks − 1` cores per iteration of a region of at least
//! `LEND_MIN_INSTRS` instructions and runs wavefronts on them. Every
//! outcome here is compared field for field — order, schedule, pressure,
//! the initial schedule, both passes' statistics, `GpuStats` and every
//! modeled time as bits — against the same run with no core lent, at 1, 2
//! and 7 lent cores. Regions sit just below and just above the size
//! constant; the colony has fewer wavefronts than participants, counts
//! that do not divide evenly and more than the device runs at once; early
//! termination, the stall fraction, an occupancy cap and
//! `schedule_batch`'s split colonies are each varied. Each case also checks
//! that cores were borrowed exactly where they may be, so the equality is
//! never vacuous.
//!
//! `cargo test --release --test lending_exact -- --ignored` runs the full
//! cross product on larger regions with longer searches.

use aco::{AcoConfig, IdleCores, ParallelOutcome, ParallelScheduler, Termination, LEND_MIN_INSTRS};
use gpu_sim::LaunchProfile;
use machine_model::OccupancyModel;
use sched_ir::Ddg;

const LENT: [usize; 3] = [1, 2, 7];

/// A generated region of `lo..hi` instructions on which both passes of
/// `base(1)` iterate.
fn region_in(lo: usize, hi: usize) -> Ddg {
    let occ = OccupancyModel::vega_like();
    (0u64..)
        .map(|seed| workloads::patterns::sized(lo, seed))
        .filter(|ddg| (lo..hi).contains(&ddg.len()))
        .find(|ddg| {
            let r = ParallelScheduler::new(base(1)).schedule(ddg, &occ).result;
            r.pass1.iterations > 0 && r.pass2.iterations > 0
        })
        .expect("some seed generates a region of that size with work in both passes")
}

/// Just below the size constant, so no core is ever borrowed.
fn below() -> Ddg {
    region_in(LEND_MIN_INSTRS - 8, LEND_MIN_INSTRS)
}

/// Just above it.
fn above() -> Ddg {
    region_in(LEND_MIN_INSTRS, LEND_MIN_INSTRS + 8)
}

/// A short search with pass 2 open: 8 wavefronts, at most 3 iterations a
/// pass.
fn base(seed: u64) -> AcoConfig {
    AcoConfig {
        blocks: 8,
        pass2_gate_cycles: 1,
        termination: Termination {
            max_iterations: 3,
            ..Termination::paper()
        },
        ..AcoConfig::small(seed)
    }
}

fn profile_bits(p: &LaunchProfile) -> [u64; 4] {
    [
        p.alloc_us.to_bits(),
        p.copy_us.to_bits(),
        p.copy_bytes,
        p.kernel_us.to_bits(),
    ]
}

/// Every field of two outcomes, floats as bits.
fn assert_same(what: &str, a: &ParallelOutcome, b: &ParallelOutcome) {
    let (x, y) = (&a.result, &b.result);
    assert_eq!(x.order, y.order, "{what}: order");
    assert_eq!(x.schedule, y.schedule, "{what}: schedule");
    assert_eq!(
        (x.prp, x.occupancy, x.length),
        (y.prp, y.occupancy, y.length),
        "{what}: pressure, occupancy, length"
    );
    assert_eq!(x.initial.order, y.initial.order, "{what}: initial order");
    assert_eq!(
        (x.initial.prp, x.initial.length),
        (y.initial.prp, y.initial.length),
        "{what}: initial claims"
    );
    for (p, q, pass) in [(&x.pass1, &y.pass1, 1), (&x.pass2, &y.pass2, 2)] {
        assert_eq!(
            (p.iterations, p.improved, p.hit_lb, p.gated, p.best_cost),
            (q.iterations, q.improved, q.hit_lb, q.gated, q.best_cost),
            "{what}: pass-{pass} statistics"
        );
        assert_eq!(
            p.time_us.to_bits(),
            q.time_us.to_bits(),
            "{what}: pass-{pass} time"
        );
    }
    assert_eq!(
        (x.ops, x.time_us.to_bits()),
        (y.ops, y.time_us.to_bits()),
        "{what}: totals"
    );
    let (g, h) = (&a.gpu, &b.gpu);
    assert_eq!(
        (g.divergent_steps, g.mem_transactions),
        (h.divergent_steps, h.mem_transactions),
        "{what}: GPU counters"
    );
    assert_eq!(
        (
            profile_bits(&g.pass1_profile),
            profile_bits(&g.pass2_profile)
        ),
        (
            profile_bits(&h.pass1_profile),
            profile_bits(&h.pass2_profile)
        ),
        "{what}: launch profiles"
    );
}

/// Schedules `ddg` under `cfg` with no core lent, then with each count of
/// `LENT`, and requires every outcome to equal the first — and cores to
/// have been borrowed exactly when the region and colony allow it.
fn check(what: &str, ddg: &Ddg, cfg: AcoConfig) {
    let occ = OccupancyModel::vega_like();
    let run = || ParallelScheduler::new(cfg).schedule(ddg, &occ);
    let alone = run();
    let may_borrow = ddg.len() >= LEND_MIN_INSTRS && cfg.blocks > 1;
    for cores in LENT {
        let idle = IdleCores::new(cores);
        let helped = idle.enter(run);
        let what = format!("{what}, {} instrs, {cores} lent", ddg.len());
        assert_same(&what, &alone, &helped);
        let iterations = alone.result.pass1.iterations + alone.result.pass2.iterations;
        let borrowed = if may_borrow { iterations } else { 0 };
        assert_eq!(
            idle.shared_iterations(),
            u64::from(borrowed),
            "{what}: every iteration borrows exactly when it may"
        );
    }
}

#[test]
fn colony_shapes_never_change_a_bit() {
    for ddg in [below(), above()] {
        for blocks in [1, 2, 3, 8, 32] {
            let cfg = AcoConfig { blocks, ..base(3) };
            check(&format!("{blocks} blocks"), &ddg, cfg);
        }
    }
}

/// Past the model's 240 concurrent wavefronts a kernel's cycles depend on
/// which SIMD each wavefront lands on, so every cost record must land at its
/// own `w`, not in the order the participants ran them.
#[test]
fn more_wavefronts_than_the_device_runs_at_once_never_change_a_bit() {
    let cfg = AcoConfig {
        blocks: 250,
        termination: Termination {
            max_iterations: 1,
            ..Termination::paper()
        },
        ..base(13)
    };
    check("250 blocks", &above(), cfg);
}

#[test]
fn divergence_toggles_never_change_a_bit() {
    for ddg in [below(), above()] {
        for early in [true, false] {
            for stall in [0.0, 0.25, 1.0] {
                let mut cfg = AcoConfig {
                    blocks: 3,
                    ..base(5)
                };
                cfg.tuning.early_wavefront_termination = early;
                cfg.tuning.stall_wavefront_fraction = stall;
                let what = format!("early termination {early}, stall fraction {stall}");
                check(&what, &ddg, cfg);
            }
        }
    }
}

#[test]
fn occupancy_caps_never_change_a_bit() {
    let occ = OccupancyModel::vega_like();
    for ddg in [below(), above()] {
        let cold = ParallelScheduler::new(base(7)).schedule(&ddg, &occ).result;
        let capped = AcoConfig {
            occupancy_cap: Some(cold.occupancy.saturating_sub(2).max(1)),
            ..base(9)
        };
        check("occupancy cap", &ddg, capped);
    }
}

#[test]
fn batch_split_colonies_never_change_a_bit() {
    let occ = OccupancyModel::vega_like();
    let regions = [below(), above(), above()];
    let refs: Vec<&Ddg> = regions.iter().collect();
    // 7 blocks over 3 regions: colonies of 3, 2 and 2 wavefronts.
    let cfg = AcoConfig {
        blocks: 7,
        ..base(11)
    };
    let alone = ParallelScheduler::new(cfg).schedule_batch(&refs, &occ);
    for cores in LENT {
        let idle = IdleCores::new(cores);
        let helped = idle.enter(|| ParallelScheduler::new(cfg).schedule_batch(&refs, &occ));
        for (pos, (a, b)) in alone.outcomes.iter().zip(&helped.outcomes).enumerate() {
            assert_same(&format!("batch member {pos}, {cores} lent"), a, b);
        }
        assert_eq!(
            alone.individual_us.to_bits(),
            helped.individual_us.to_bits()
        );
        assert_eq!(alone.batched_us.to_bits(), helped.batched_us.to_bits());
        assert!(idle.shared_iterations() > 0, "{cores} lent: never borrowed");
    }
}

/// The cross product, on regions up to 201 instructions with the paper's
/// budgets: `cargo test --release --test lending_exact -- --ignored`.
#[test]
#[ignore]
fn the_full_matrix_never_changes_a_bit() {
    let occ = OccupancyModel::vega_like();
    let regions = [
        below(),
        above(),
        region_in(150, 170),
        workloads::patterns::sized(201, 5),
    ];
    for ddg in &regions {
        for blocks in [1, 2, 3, 8, 32] {
            for early in [true, false] {
                for stall in [0.0, 0.25, 1.0] {
                    let mut cfg = AcoConfig {
                        blocks,
                        pass2_gate_cycles: 1,
                        ..AcoConfig::small(13)
                    };
                    cfg.tuning.early_wavefront_termination = early;
                    cfg.tuning.stall_wavefront_fraction = stall;
                    let what = format!("{blocks} blocks, early {early}, stall {stall}");
                    check(&what, ddg, cfg);
                }
            }
            let cold = ParallelScheduler::new(AcoConfig::small(17))
                .schedule(ddg, &occ)
                .result;
            let cfg = AcoConfig {
                blocks,
                pass2_gate_cycles: 1,
                occupancy_cap: Some(cold.occupancy.saturating_sub(1).max(1)),
                ..AcoConfig::small(19)
            };
            check(&format!("{blocks} blocks, cap"), ddg, cfg);
        }
    }
}
