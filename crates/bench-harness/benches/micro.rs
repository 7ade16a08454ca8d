//! Criterion micro-benchmarks of the scheduler's hot kernels: pass-1 ant
//! construction, pass-2 ant construction, whole lockstep wavefronts of
//! either pass (the sub-layer end-to-end ACO time is made of), pheromone
//! update, and the greedy list scheduler.

use aco::lockstep::{Pass1Wavefront, Pass2Wavefront};
use aco::{AcoConfig, AntContext, Pass1Ant, Pass2Ant, PheromoneTable};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use list_sched::{Heuristic, ListScheduler, RegionAnalysis};
use machine_model::{OccupancyLut, OccupancyModel};
use reg_pressure::RegUniverse;
use sched_ir::InstrId;

fn bench_construction(c: &mut Criterion) {
    let ddg = workloads::patterns::sized(100, 9);
    let analysis = RegionAnalysis::new(&ddg);
    let universe = RegUniverse::new(&ddg);
    let occ = OccupancyLut::new(&OccupancyModel::vega_like());
    let cfg = AcoConfig::small(1);
    let ctx = AntContext {
        ddg: &ddg,
        analysis: &analysis,
        universe: &universe,
        lut: &occ,
        cfg: &cfg,
    };
    let pheromone = PheromoneTable::new(ddg.len(), 1.0);

    c.bench_function("pass1_ant_construction_n100", |b| {
        b.iter_batched(
            || Pass1Ant::new(&ctx, Heuristic::LastUseCount, 7),
            |mut ant| ant.run(&ctx, &pheromone),
            BatchSize::SmallInput,
        )
    });

    c.bench_function("pass2_ant_construction_n100", |b| {
        b.iter_batched(
            || Pass2Ant::new(&ctx, Heuristic::CriticalPath, 7, u64::MAX, true),
            |mut ant| ant.run(&ctx, &pheromone),
            BatchSize::SmallInput,
        )
    });
}

/// One 64-lane wavefront per iteration, driven the way
/// `ParallelScheduler` drives it (wavefront-level explore choice at
/// `q0`), at the two region sizes where lane classes behave differently:
/// 60 instructions (classes stay shared for most of the wavefront) and 200
/// (they fragment within a few explore rounds).
fn bench_wavefronts(c: &mut Criterion) {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let occ = OccupancyLut::new(&OccupancyModel::vega_like());
    let cfg = AcoConfig::small(1);
    for size in [60usize, 200] {
        let ddg = workloads::patterns::sized(size, 9);
        let analysis = RegionAnalysis::new(&ddg);
        let universe = RegUniverse::new(&ddg);
        let ctx = AntContext {
            ddg: &ddg,
            analysis: &analysis,
            universe: &universe,
            lut: &occ,
            cfg: &cfg,
        };
        let pheromone = PheromoneTable::new(ddg.len(), 1.0);
        let lanes = cfg.threads_per_block;

        let mut wavefront = Pass1Wavefront::new(&ctx, lanes);
        c.bench_function(&format!("wavefront_pass1_n{size}"), |b| {
            let mut w = 0u64;
            b.iter(|| {
                w += 1;
                let mut choice = SmallRng::seed_from_u64(w);
                wavefront.launch(&ctx, Heuristic::LastUseCount, |l| (w << 8) + u64::from(l));
                while !wavefront.finished(&ctx) {
                    let explore = choice.gen::<f64>() > cfg.q0;
                    wavefront.round(&ctx, &pheromone, Some(explore));
                }
                wavefront.best(&ctx)
            })
        });

        let mut wavefront = Pass2Wavefront::new(&ctx, lanes, u64::MAX);
        c.bench_function(&format!("wavefront_pass2_n{size}"), |b| {
            let mut w = 0u64;
            b.iter(|| {
                w += 1;
                let mut choice = SmallRng::seed_from_u64(w);
                wavefront.launch(&ctx, Heuristic::CriticalPath, true, |l| {
                    (w << 8) + u64::from(l)
                });
                while wavefront.any_running() {
                    let explore = choice.gen::<f64>() > cfg.q0;
                    wavefront.round(&ctx, &pheromone, Some(explore));
                }
                wavefront.best()
            })
        });
    }
}

fn bench_pheromone(c: &mut Criterion) {
    let order: Vec<InstrId> = (0..200).map(InstrId).collect();
    c.bench_function("pheromone_evaporate_deposit_n200", |b| {
        let mut table = PheromoneTable::new(200, 1.0);
        b.iter(|| {
            table.evaporate(0.8, 0.01);
            table.deposit_order(&order, 1.0, 8.0);
        })
    });
}

fn bench_list_scheduler(c: &mut Criterion) {
    let ddg = workloads::patterns::sized(100, 9);
    let occ = OccupancyModel::vega_like();
    c.bench_function("amd_list_scheduler_n100", |b| {
        b.iter(|| ListScheduler::new(Heuristic::AmdMaxOccupancy).schedule(&ddg, &occ))
    });
    c.bench_function("transitive_closure_n100", |b| {
        b.iter(|| ddg.transitive_closure())
    });
}

criterion_group!(
    benches,
    bench_construction,
    bench_wavefronts,
    bench_pheromone,
    bench_list_scheduler
);
criterion_main!(benches);
