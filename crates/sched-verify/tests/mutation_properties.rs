//! Mutation-based property tests for the certificate checker.
//!
//! Each property starts from a *valid* certified schedule (the AMD list
//! scheduler's output for a generated region), applies one mutation, and
//! asserts the checker flags the violation class that mutation injects —
//! on every single case (a 100% catch rate), never with a code outside the
//! classes the mutation can plausibly trigger.

use list_sched::{Heuristic, ListScheduler};
use machine_model::OccupancyModel;
use proptest::prelude::*;
use sched_analyze::Finding;
use sched_verify::{certify_list, certify_schedule, codes, has_errors, render, Claim};

fn scheduled(
    size: usize,
    seed: u64,
) -> (sched_ir::Ddg, OccupancyModel, list_sched::ScheduleResult) {
    let ddg = workloads::patterns::sized(size, seed);
    let occ = OccupancyModel::vega_like();
    let r = ListScheduler::new(Heuristic::AmdMaxOccupancy).schedule(&ddg, &occ);
    (ddg, occ, r)
}

fn codes_of(diags: &[Finding]) -> Vec<&'static str> {
    diags.iter().map(|d| d.code).collect()
}

/// Claim about the mutated schedule, with the order claim dropped so the
/// diagnostics isolate schedule-level violation classes.
fn claim_of(r: &list_sched::ScheduleResult) -> Claim<'_> {
    Claim {
        order: None,
        prp: r.prp,
        occupancy: Some(r.occupancy),
        length: r.length,
    }
}

proptest! {
    /// Baseline: the unmutated schedule certifies clean. Without this the
    /// catch-rate properties below could pass vacuously.
    #[test]
    fn valid_schedules_certify_clean(size in 10usize..70, seed in 0u64..500) {
        let (ddg, occ, r) = scheduled(size, seed);
        let diags = certify_list(&ddg, &occ, &r);
        prop_assert!(diags.is_empty(), "{}", render(&diags));
    }

    /// Swapping the cycles of the two endpoints of a DDG edge reverses a
    /// dependence: the checker must flag the latency (or def/use) class.
    #[test]
    fn swapped_dependent_cycles_are_caught(size in 10usize..70, seed in 0u64..500, pick in 0usize..4096) {
        let (ddg, occ, r) = scheduled(size, seed);
        // Pick an edge; regions always have at least one.
        let edges: Vec<_> = ddg
            .ids()
            .flat_map(|a| ddg.succs(a).iter().map(move |&(b, _)| (a, b)))
            .collect();
        prop_assert!(!edges.is_empty());
        let (from, to) = edges[pick % edges.len()];
        let mut cycles = r.schedule.cycles().to_vec();
        cycles.swap(from.index(), to.index());
        let mutated = sched_ir::Schedule::from_cycles(cycles);
        let diags = certify_schedule(&ddg, &occ, &mutated, &claim_of(&r));
        prop_assert!(
            diags.iter().any(|d| d.code == codes::LATENCY || d.code == codes::DEPENDENCE),
            "swap {from}<->{to} uncaught: {}",
            render(&diags)
        );
        for d in &diags {
            prop_assert!(
                [
                    codes::LATENCY,
                    codes::DEPENDENCE,
                    codes::PRP_MISMATCH,
                    codes::OCCUPANCY_MISMATCH,
                ]
                .contains(&d.code),
                "unexpected class for a cycle swap: {d}"
            );
        }
    }

    /// Decrementing one instruction's cycle either collides with the
    /// previous issue slot or breaks a predecessor's latency — list
    /// schedules have no removable slack in front of an instruction.
    #[test]
    fn decremented_cycle_is_caught(size in 10usize..70, seed in 0u64..500, pick in 0usize..4096) {
        let (ddg, occ, r) = scheduled(size, seed);
        let mut cycles = r.schedule.cycles().to_vec();
        // Pick an instruction not already at cycle 0.
        let movable: Vec<usize> = (0..cycles.len()).filter(|&i| cycles[i] > 0).collect();
        prop_assert!(!movable.is_empty());
        let i = movable[pick % movable.len()];
        cycles[i] -= 1;
        let mutated = sched_ir::Schedule::from_cycles(cycles);
        let diags = certify_schedule(&ddg, &occ, &mutated, &claim_of(&r));
        prop_assert!(
            diags.iter().any(|d| {
                d.code == codes::LATENCY
                    || d.code == codes::ISSUE_CONFLICT
                    || d.code == codes::DEPENDENCE
            }),
            "decrement of i{i} uncaught: {}",
            render(&diags)
        );
        for d in &diags {
            prop_assert!(
                [
                    codes::LATENCY,
                    codes::ISSUE_CONFLICT,
                    codes::DEPENDENCE,
                    codes::PRP_MISMATCH,
                    codes::OCCUPANCY_MISMATCH,
                    codes::LENGTH_MISMATCH,
                ]
                .contains(&d.code),
                "unexpected class for a cycle decrement: {d}"
            );
        }
    }

    /// Dropping an instruction from the schedule is caught as the
    /// wrong-length class, alone — nothing else is checkable.
    #[test]
    fn dropped_instruction_is_caught(size in 10usize..70, seed in 0u64..500) {
        let (ddg, occ, r) = scheduled(size, seed);
        let mut cycles = r.schedule.cycles().to_vec();
        cycles.pop();
        let mutated = sched_ir::Schedule::from_cycles(cycles);
        let diags = certify_schedule(&ddg, &occ, &mutated, &claim_of(&r));
        prop_assert_eq!(codes_of(&diags), vec![codes::WRONG_LENGTH]);
    }

    /// Inflating the reported PRP is caught as exactly a PRP mismatch: the
    /// schedule itself is untouched and stays valid.
    #[test]
    fn inflated_prp_claim_is_caught(size in 10usize..70, seed in 0u64..500, bump in 1u32..5) {
        let (ddg, occ, mut r) = scheduled(size, seed);
        r.prp[0] += bump;
        let diags = certify_list(&ddg, &occ, &r);
        prop_assert!(has_errors(&diags));
        prop_assert_eq!(codes_of(&diags), vec![codes::PRP_MISMATCH]);
    }

    /// Deflating the reported PRP (claiming better pressure than real) is
    /// the dangerous direction — caught the same way.
    #[test]
    fn deflated_prp_claim_is_caught(size in 10usize..70, seed in 0u64..500) {
        let (ddg, occ, mut r) = scheduled(size, seed);
        prop_assert!(r.prp[0] > 0);
        r.prp[0] -= 1;
        let diags = certify_list(&ddg, &occ, &r);
        prop_assert!(diags.iter().any(|d| d.code == codes::PRP_MISMATCH));
    }

    /// Misreporting the schedule length is caught as a length mismatch.
    #[test]
    fn inflated_length_claim_is_caught(size in 10usize..70, seed in 0u64..500, bump in 1u32..10) {
        let (ddg, occ, mut r) = scheduled(size, seed);
        r.length += bump;
        let diags = certify_list(&ddg, &occ, &r);
        prop_assert!(has_errors(&diags));
        prop_assert_eq!(codes_of(&diags), vec![codes::LENGTH_MISMATCH]);
    }

    /// Corrupting the claimed order (swapping two entries) is caught as an
    /// order mismatch.
    #[test]
    fn shuffled_order_claim_is_caught(size in 10usize..70, seed in 0u64..500, pick in 0usize..4096) {
        let (ddg, occ, mut r) = scheduled(size, seed);
        let n = r.order.len();
        prop_assert!(n >= 2);
        let i = pick % (n - 1);
        r.order.swap(i, i + 1);
        let diags = certify_list(&ddg, &occ, &r);
        prop_assert!(
            diags.iter().any(|d| d.code == codes::ORDER_MISMATCH),
            "order swap at {i} uncaught: {}",
            render(&diags)
        );
    }
}
