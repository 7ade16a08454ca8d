//! Soundness oracle for the schedule-length lower bound
//! (`Ddg::schedule_length_lb`, the one-machine heads-and-tails bound): on
//! random DAGs small enough to enumerate, the bound is never above the
//! shortest single-issue schedule and never below the instruction count or
//! the critical path.
//!
//! The shortest schedule is found by issuing every topological order
//! earliest-fit (`Schedule::from_order`) and taking the minimum length. That
//! reaches every optimal schedule: sort one by issue cycle and replay the
//! order earliest-fit, and no instruction issues later than it did.
//!
//! Each DAG is generated from its own seed, so a failure names the one case
//! to replay. Tier-1 runs a few hundred DAGs of up to 7 instructions; the
//! long run, about 20k DAGs of up to 8, is
//! `cargo test --release -q --test length_bound_oracle -- --ignored`
//! (`scripts/check.sh` runs it).

use gpu_aco::ir::{Cycle, Ddg, DdgBuilder, InstrId, Schedule};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A random DAG of 1 to `max_n` instructions. Edges run forward in a
/// shuffled order of the ids, with a density drawn per DAG and latencies
/// 0 to 6 (sometimes long).
fn random_dag(seed: u64, max_n: usize) -> Ddg {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(1..=max_n);
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    let density = [0.15, 0.3, 0.5, 0.8][rng.gen_range(0..4)];
    let mut bld = DdgBuilder::new();
    let ids: Vec<InstrId> = (0..n).map(|i| bld.instr(format!("i{i}"), [], [])).collect();
    for i in 0..n {
        for j in i + 1..n {
            if rng.gen_bool(density) {
                let lat = match rng.gen_range(0..8) {
                    0 => 0,
                    7 => rng.gen_range(7..=12),
                    l => l,
                };
                bld.edge(ids[perm[i]], ids[perm[j]], lat).unwrap();
            }
        }
    }
    bld.build().expect("forward edges are acyclic")
}

/// The length of the shortest single-issue schedule: the minimum over every
/// topological order issued earliest-fit.
fn min_length(ddg: &Ddg) -> Cycle {
    fn visit(ddg: &Ddg, preds: &[u32], placed: u32, order: &mut Vec<InstrId>, best: &mut Cycle) {
        if order.len() == ddg.len() {
            *best = (*best).min(Schedule::from_order(ddg, order).length());
            return;
        }
        for id in ddg.ids() {
            let bit = 1 << id.index();
            if placed & bit == 0 && preds[id.index()] & !placed == 0 {
                order.push(id);
                visit(ddg, preds, placed | bit, order, best);
                order.pop();
            }
        }
    }
    // Each instruction's producers as a bit set, from the successor rows.
    let mut preds = vec![0u32; ddg.len()];
    for p in ddg.ids() {
        for &(s, _) in ddg.succs(p) {
            preds[s.index()] |= 1 << p.index();
        }
    }
    let mut best = Cycle::MAX;
    visit(
        ddg,
        &preds,
        0,
        &mut Vec::with_capacity(ddg.len()),
        &mut best,
    );
    best
}

/// Checks the bound on `cases` DAGs of up to `max_n` instructions and
/// returns how many it put strictly above `max(n, cp)`.
fn check(cases: u64, max_n: usize) -> usize {
    let mut above_old = 0;
    for seed in 0..cases {
        let ddg = random_dag(seed, max_n);
        let lb = ddg.schedule_length_lb();
        let old = (ddg.len() as Cycle).max(ddg.critical_path_length());
        let opt = min_length(&ddg);
        assert!(lb <= opt, "seed {seed}: bound {lb} above the optimum {opt}");
        assert!(lb >= old, "seed {seed}: bound {lb} below max(n, cp) {old}");
        above_old += usize::from(lb > old);
    }
    above_old
}

#[test]
fn the_length_bound_never_exceeds_the_brute_force_optimum() {
    let above_old = check(500, 7);
    // The cases that exercise the heads-and-tails sweep, not just the
    // count or the path (21 of these 500).
    assert!(
        above_old >= 15,
        "only {above_old} of 500 bounds beat max(n, cp)"
    );
}

#[test]
#[ignore = "long run: cargo test --release -q --test length_bound_oracle -- --ignored"]
fn the_length_bound_never_exceeds_the_brute_force_optimum_long() {
    let above_old = check(20_000, 8);
    // 878 of these 20k.
    assert!(
        above_old >= 600,
        "only {above_old} of 20k bounds beat max(n, cp)"
    );
}
