//! Regenerates the golden fingerprints pinned by
//! `tests/golden_bitwise.rs`.
//!
//! The golden test freezes the *search results* of every scheduler on a set
//! of fixed regions and seeds: any refactor of the ant construction loop,
//! the winner reduction, or the suite compiler must keep these fingerprints
//! bit-for-bit identical. When a change is *supposed* to alter results
//! (e.g. a new selection rule), rerun this example and update the pinned
//! constants, explaining the change in the commit:
//!
//! ```text
//! cargo run --release --example golden_dump
//! ```

use gpu_aco::compile::{compile_suite, PipelineConfig, SchedulerKind};
use gpu_aco::machine::OccupancyModel;
use gpu_aco::scheduler::{AcoConfig, ParallelScheduler, SequentialScheduler};
use gpu_aco::verify::{aco_fingerprint, suite_fingerprint};
use sched_ir::Fnv64;
use workloads::{Suite, SuiteConfig};

fn main() {
    let occ = OccupancyModel::vega_like();

    println!("// sequential: (region, seed) -> fingerprint");
    for (size, rseed, cseed) in [(40usize, 7u64, 3u64), (80, 21, 9), (120, 13, 5)] {
        let ddg = workloads::patterns::sized(size, rseed);
        let mut cfg = AcoConfig::paper(cseed);
        cfg.blocks = 8;
        cfg.pass2_gate_cycles = 1;
        let r = SequentialScheduler::new(cfg).schedule(&ddg, &occ);
        println!(
            "(\"seq-{size}-{rseed}-{cseed}\", {:#018x}),",
            aco_fingerprint(&r)
        );
    }

    println!("// simulated-GPU parallel");
    for (size, rseed, cseed) in [(40usize, 7u64, 3u64), (80, 11, 3), (120, 13, 5)] {
        let ddg = workloads::patterns::sized(size, rseed);
        let mut cfg = AcoConfig::small(cseed);
        cfg.blocks = 8;
        cfg.pass2_gate_cycles = 1;
        let r = ParallelScheduler::new(cfg).schedule(&ddg, &occ);
        println!(
            "(\"par-{size}-{rseed}-{cseed}\", {:#018x}),",
            aco_fingerprint(&r.result)
        );
    }

    println!("// batched cooperative launch (10-block colony over 3 regions)");
    {
        let regions = [
            workloads::patterns::sized(40, 7),
            workloads::patterns::sized(80, 11),
            workloads::patterns::sized(120, 13),
        ];
        let refs: Vec<&sched_ir::Ddg> = regions.iter().collect();
        let mut cfg = AcoConfig::small(3);
        cfg.blocks = 10;
        cfg.pass2_gate_cycles = 1;
        let batch = ParallelScheduler::new(cfg).schedule_batch(&refs, &occ);
        let mut h = Fnv64::new();
        for o in &batch.outcomes {
            h.word(aco_fingerprint(&o.result));
        }
        println!("(\"batch-3x-10blk\", {:#018x}),", h.finish());
    }

    println!("// whole-suite compilations (scaled 0.008, seed 5)");
    let suite = Suite::generate(&SuiteConfig::scaled(5, 0.008));
    for kind in [
        SchedulerKind::BaseAmd,
        SchedulerKind::SequentialAco,
        SchedulerKind::ParallelAco,
        SchedulerKind::BatchedParallelAco,
    ] {
        let mut cfg = PipelineConfig::paper(kind, 0);
        cfg.aco.blocks = 4;
        cfg.aco.pass2_gate_cycles = 1;
        let run = compile_suite(&suite, &occ, &cfg);
        println!("(\"suite-{kind:?}\", {:#018x}),", suite_fingerprint(&run));
    }
}
