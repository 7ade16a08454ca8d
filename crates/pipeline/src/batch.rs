//! Batched multi-region compilation: the paper's Section VII proposal
//! ("scheduling multiple regions in parallel") promoted into a first-class
//! pipeline mode ([`crate::SchedulerKind::BatchedParallelAco`]).
//!
//! The planner groups a kernel's ACO-eligible regions into cooperative
//! launch groups under the colony's block-budget invariant — a group never
//! holds more regions than the colony has blocks, so the split wavefront
//! groups of one launch always fit the device the colony was sized for.
//! Small regions are batched first: their individual launches are
//! dominated by the fixed launch/copy overheads batching shares (the
//! Table-3 1–49 band), and grouping similar sizes keeps a cooperative
//! kernel from idling on one slow region. Construction results are
//! bitwise-identical to per-region launches with the same split colony;
//! only the launch cost model changes.

use crate::config::{BatchingConfig, PipelineConfig};
use crate::region::{aco_compilation, RegionCompilation};
use aco::{batch_block_split, ParallelScheduler};
use machine_model::OccupancyModel;
use sched_ir::Ddg;

/// Plans the cooperative launch groups for one kernel.
///
/// `sizes` are the kernel's region sizes in region order. Returns groups
/// of region indices; regions in no group (the trivial single-instruction
/// ones, which never touch the GPU) compile solo. Every group satisfies
/// `group.len() <= blocks` (each region keeps at least one block) and the
/// configured [`BatchingConfig`] caps. Deterministic in its inputs.
pub fn plan_batches(sizes: &[usize], blocks: u32, cfg: &BatchingConfig) -> Vec<Vec<usize>> {
    let cap = cfg.group_cap(blocks);
    let mut eligible: Vec<usize> = (0..sizes.len()).filter(|&i| sizes[i] > 1).collect();
    // Small-region bands first, similar sizes together.
    eligible.sort_by_key(|&i| (sizes[i], i));
    eligible.chunks(cap).map(<[usize]>::to_vec).collect()
}

/// Compiles one planned group of regions in a single cooperative launch
/// pair, assembling per-region compilations whose time accounting reflects
/// the *batched* launches (each pass's shared cost is attributed to its
/// regions in proportion to their solo share, so the per-region times sum
/// to the batched total).
///
/// Pure in its inputs — no observer, no shared state — so the suite
/// compiler's host worker pool can run groups concurrently. Each returned
/// entry is `(config, compilation)`, in member order, where the config is
/// the split-colony configuration the region's construction actually ran
/// under; replaying those pairs in order through the observer keeps the
/// certification hook (`sched-verify`) exact for batched schedules too.
pub fn compile_batch_group(
    members: &[&Ddg],
    occ: &OccupancyModel,
    cfg: &PipelineConfig,
) -> Vec<(PipelineConfig, RegionCompilation)> {
    let batch = ParallelScheduler::new(cfg.aco).schedule_batch(members, occ);
    let split = batch_block_split(cfg.aco.blocks, members.len() as u32);
    // Solo per-pass totals, for proportional attribution of the shared
    // launch costs.
    let solo_pass_us = |pass: usize| -> Vec<f64> {
        batch
            .outcomes
            .iter()
            .map(|o| {
                if pass == 0 {
                    o.gpu.pass1_profile.total_us()
                } else {
                    o.gpu.pass2_profile.total_us()
                }
            })
            .collect()
    };
    let shares = |pass: usize| -> Vec<f64> {
        let solo = solo_pass_us(pass);
        let sum: f64 = solo.iter().sum();
        let shared = batch.pass_profiles[pass].total_us();
        solo.iter()
            .map(|&s| if sum > 0.0 { shared * s / sum } else { 0.0 })
            .collect()
    };
    let (p1_shares, p2_shares) = (shares(0), shares(1));

    members
        .iter()
        .enumerate()
        .map(|(pos, ddg)| {
            let mut result = batch.outcomes[pos].result.clone();
            result.pass1.time_us = p1_shares[pos];
            result.pass2.time_us = p2_shares[pos];
            result.time_us = p1_shares[pos] + p2_shares[pos];
            let c = aco_compilation(ddg, result, cfg);
            let mut region_cfg = *cfg;
            region_cfg.aco.blocks = split[pos];
            (region_cfg, c)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerKind;
    use crate::region::heuristic_model_time_us;
    use workloads::Kernel;

    #[test]
    fn planner_skips_trivial_and_caps_groups() {
        let sizes = [1, 40, 12, 1, 90, 25, 200, 8];
        let cfg = BatchingConfig {
            max_group: 3,
            min_blocks_per_region: 2,
        };
        let groups = plan_batches(&sizes, 16, &cfg);
        let planned: Vec<usize> = groups.iter().flatten().copied().collect();
        assert!(!planned.contains(&0) && !planned.contains(&3), "trivial");
        assert_eq!(planned.len(), 6, "every non-trivial region planned");
        for g in &groups {
            assert!(g.len() <= 3);
        }
        // Small-first: the first group holds the three smallest regions.
        assert_eq!(groups[0], vec![7, 2, 5]);
    }

    #[test]
    fn planner_never_exceeds_block_budget() {
        let sizes: Vec<usize> = (0..20).map(|i| 10 + i).collect();
        for blocks in 1..=8u32 {
            let cfg = BatchingConfig {
                max_group: 32,
                min_blocks_per_region: 1,
            };
            for g in plan_batches(&sizes, blocks, &cfg) {
                assert!(
                    g.len() <= blocks as usize,
                    "group of {} regions on {blocks} blocks",
                    g.len()
                );
            }
        }
    }

    #[test]
    fn planner_is_deterministic() {
        let sizes = [30usize, 30, 7, 150, 2, 61];
        let cfg = BatchingConfig::paper();
        assert_eq!(
            plan_batches(&sizes, 16, &cfg),
            plan_batches(&sizes, 16, &cfg)
        );
    }

    #[test]
    fn batched_kernel_matches_split_colony_solo_schedules() {
        use crate::region::compile_region;
        let occ = OccupancyModel::vega_like();
        let kernel = kernel_of_sizes(&[30, 45, 60], 4100);
        let mut cfg = PipelineConfig::paper(SchedulerKind::BatchedParallelAco, 0);
        cfg.aco.blocks = 12;
        cfg.aco.pass2_gate_cycles = 1;
        let sizes: Vec<usize> = kernel.regions.iter().map(Ddg::len).collect();
        let groups = plan_batches(&sizes, cfg.aco.blocks, &cfg.batching);
        // One group of 3 (sizes 30/45/60 sorted: [30, 45, 60]); split 4/4/4.
        assert_eq!(groups.len(), 1);
        let members: Vec<&Ddg> = groups[0].iter().map(|&ri| &kernel.regions[ri]).collect();
        let outcomes = compile_batch_group(&members, &occ, &cfg);
        assert_eq!(outcomes.len(), 3);
        for (&ri, (region_cfg, c)) in groups[0].iter().zip(&outcomes) {
            let mut solo_cfg = *region_cfg;
            solo_cfg.scheduler = SchedulerKind::ParallelAco;
            let solo = compile_region(&kernel.regions[ri], &occ, &solo_cfg);
            let (a, s) = (c.aco.as_ref().unwrap(), solo.aco.as_ref().unwrap());
            assert_eq!(a.order, s.order, "region {ri}");
            assert_eq!(a.schedule, s.schedule, "region {ri}");
            assert_eq!(a.prp, s.prp);
            assert_eq!(a.length, s.length);
        }
    }

    #[test]
    fn batched_time_attribution_sums_to_shared_cost() {
        let occ = OccupancyModel::vega_like();
        // A seed whose regions still search: under seed 4200 the length
        // bound proves enough of them optimal before launch that the batch
        // costs exactly what solo launches do.
        let kernel = kernel_of_sizes(&[20, 35, 50, 80], 4208);
        let mut cfg = PipelineConfig::paper(SchedulerKind::BatchedParallelAco, 1);
        cfg.aco.blocks = 16;
        cfg.aco.pass2_gate_cycles = 1;
        cfg.batching.max_group = 4;
        let refs: Vec<&Ddg> = kernel.regions.iter().collect();
        let batch = ParallelScheduler::new(cfg.aco).schedule_batch(&refs, &occ);
        let sizes: Vec<usize> = kernel.regions.iter().map(Ddg::len).collect();
        let groups = plan_batches(&sizes, cfg.aco.blocks, &cfg.batching);
        assert_eq!(groups.len(), 1, "all four regions fit one group");
        let members: Vec<&Ddg> = groups[0].iter().map(|&ri| &kernel.regions[ri]).collect();
        let compiled = compile_batch_group(&members, &occ, &cfg);
        let attributed: f64 = members
            .iter()
            .zip(&compiled)
            .map(|(ddg, (_, c))| c.sched_time_us - heuristic_model_time_us(ddg))
            .sum();
        assert!(
            (attributed - batch.batched_us).abs() < 1e-6,
            "attributed {attributed} vs batched {}",
            batch.batched_us
        );
        assert!(batch.batched_us < batch.individual_us);
    }

    /// A kernel with mixed-size regions, deterministic in `seed`.
    fn kernel_of_sizes(sizes: &[usize], seed: u64) -> Kernel {
        Kernel {
            name: format!("test_kernel_{seed}"),
            regions: sizes
                .iter()
                .enumerate()
                .map(|(i, &n)| workloads::patterns::sized(n, seed + i as u64))
                .collect(),
            bytes_per_launch: 1 << 20,
            latency_bound: 0.5,
        }
    }
}
