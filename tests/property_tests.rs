//! Property-based tests over randomly generated DDGs: the core invariants
//! every component must uphold regardless of region shape.

use gpu_aco::bench_workloads::patterns;
use gpu_aco::heuristics::{Heuristic, ListScheduler};
use gpu_aco::ir::{Cycle, DdgBuilder, InstrId, Reg, Schedule};
use gpu_aco::machine::OccupancyModel;
use gpu_aco::pressure::{prp_of_order, prp_of_order_in, PressureTracker, RegUniverse};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sched_ir::Ddg;

/// Strategy: a random SSA-form DAG of up to `max_n` instructions. Edges go
/// from lower to higher indices (acyclic by construction); each instruction
/// defines one register and uses the values of its predecessors.
fn arb_ddg(max_n: usize) -> impl Strategy<Value = Ddg> {
    (2..max_n).prop_flat_map(|n| {
        let edge_bits = proptest::collection::vec(any::<u64>(), n);
        let lats = proptest::collection::vec(1u16..24, n);
        (Just(n), edge_bits, lats).prop_map(|(n, bits, lats)| {
            let mut b = DdgBuilder::new();
            let ids: Vec<InstrId> = (0..n)
                .map(|i| {
                    // Predecessors: up to 3 earlier nodes chosen from bits.
                    let preds: Vec<usize> = (0..i)
                        .filter(|j| (bits[i] >> (j % 48)) & 1 == 1)
                        .take(3)
                        .collect();
                    b.instr(
                        format!("i{i}"),
                        [Reg::vgpr(i as u32)],
                        preds.iter().map(|&p| Reg::vgpr(p as u32)),
                    )
                })
                .collect();
            for i in 0..n {
                let preds: Vec<usize> = (0..i)
                    .filter(|j| (bits[i] >> (j % 48)) & 1 == 1)
                    .take(3)
                    .collect();
                for p in preds {
                    b.edge(ids[p], ids[i], lats[i]).expect("valid edge");
                }
            }
            b.build().expect("acyclic by construction")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The transitive-closure ready-list UB really bounds the ready list at
    /// every step of any greedy construction.
    #[test]
    fn ready_list_never_exceeds_ub(ddg in arb_ddg(40)) {
        let ub = ddg.transitive_closure().ready_list_ub();
        let mut pending = ddg.pred_counts().to_vec();
        let mut ready: Vec<InstrId> = ddg.roots().collect();
        while let Some(id) = ready.pop() {
            prop_assert!(ready.len() < ub, "ready list {} > UB {ub}", ready.len() + 1);
            for &(s, _) in ddg.succs(id) {
                pending[s.index()] -= 1;
                if pending[s.index()] == 0 {
                    ready.push(s);
                }
            }
        }
    }

    /// Every heuristic schedule validates and sits at or above the LB.
    #[test]
    fn heuristic_schedules_are_feasible(ddg in arb_ddg(36), h_idx in 0usize..3) {
        let occ = OccupancyModel::vega_like();
        let r = ListScheduler::new(Heuristic::ALL[h_idx]).schedule(&ddg, &occ);
        prop_assert!(r.schedule.validate(&ddg).is_ok());
        prop_assert!(r.length >= ddg.schedule_length_lb());
        prop_assert!(r.length >= ddg.len() as Cycle);
    }

    /// PRP of an order is permutation-stable under recomputation and always
    /// at least the region's RP lower bound.
    #[test]
    fn prp_respects_lower_bound(ddg in arb_ddg(36)) {
        let occ = OccupancyModel::vega_like();
        let order = ListScheduler::new(Heuristic::LastUseCount).order(&ddg, &occ);
        let prp = prp_of_order(&ddg, &order);
        let lb = ddg.rp_lower_bound();
        for c in 0..2 {
            prop_assert!(prp[c] as usize >= lb[c], "class {c}: PRP {} < LB {}", prp[c], lb[c]);
        }
    }

    /// The incremental pressure tracker's current count returns to the
    /// region's live-out count after a full issue sequence.
    #[test]
    fn tracker_drains_to_live_outs(ddg in arb_ddg(36)) {
        let universe = RegUniverse::new(&ddg);
        let mut t = PressureTracker::new(&universe);
        for &id in ddg.topo_order() {
            t.issue(id);
        }
        let stats = ddg.reg_stats();
        for c in 0..2 {
            prop_assert_eq!(t.current()[c] as usize, stats.live_out[c]);
        }
    }

    /// `Schedule::from_order` over a topological order is always feasible,
    /// and compacting its own order is idempotent on length.
    #[test]
    fn from_order_roundtrip(ddg in arb_ddg(36)) {
        let order: Vec<InstrId> = ddg.topo_order().to_vec();
        let s = Schedule::from_order(&ddg, &order);
        prop_assert!(s.validate(&ddg).is_ok());
        let again = Schedule::from_order(&ddg, &s.order());
        prop_assert!(again.length() <= s.length());
        prop_assert!(again.validate(&ddg).is_ok());
    }

    /// The earliest-start analysis lower-bounds every valid schedule.
    #[test]
    fn earliest_starts_bound_schedules(ddg in arb_ddg(30), h_idx in 0usize..3) {
        let occ = OccupancyModel::vega_like();
        let r = ListScheduler::new(Heuristic::ALL[h_idx]).schedule(&ddg, &occ);
        let est = ddg.earliest_starts();
        for id in ddg.ids() {
            prop_assert!(
                r.schedule.cycle(id) >= est[id.index()],
                "{id} scheduled before its earliest start"
            );
        }
    }
}

// ------------------------------------------------ the what-if cache --

/// A random topological order of `ddg`, deterministic in `seed`.
fn random_topo_order(ddg: &Ddg, seed: u64) -> Vec<InstrId> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pending = ddg.pred_counts().to_vec();
    let mut ready: Vec<InstrId> = ddg.roots().collect();
    let mut order = Vec::with_capacity(ddg.len());
    while !ready.is_empty() {
        let id = ready.swap_remove(rng.gen_range(0..ready.len()));
        order.push(id);
        for &(s, _) in ddg.succs(id) {
            pending[s.index()] -= 1;
            if pending[s.index()] == 0 {
                ready.push(s);
            }
        }
    }
    assert_eq!(order.len(), ddg.len());
    order
}

/// Every cached query of every instruction not in `issued` equals the
/// from-scratch operand scan of the tracker's current state.
fn assert_cache_exact(t: &PressureTracker<'_>, ddg: &Ddg, issued: &[InstrId], when: &str) {
    for id in ddg.ids().filter(|id| !issued.contains(id)) {
        let scan = t.what_if_from_scratch(id);
        assert_eq!(t.net_change(id), scan.delta, "net_change({id}) {when}");
        assert_eq!(t.kills(id), scan.kills, "kills({id}) {when}");
        assert_eq!(t.opens(id), scan.opens, "opens({id}) {when}");
        let (current, mut peak) = (t.current(), t.peak());
        for c in 0..2 {
            peak[c] = peak[c].max((current[c] as i32 + scan.delta[c]).max(0) as u32);
        }
        assert_eq!(t.peak_after(id), peak, "peak_after({id}) {when}");
    }
}

/// Walks `order`, holding the cache to the scan after every issue; then
/// the same from a `reset`, and from a `copy_from` of a tracker stopped
/// mid-construction; and holds the counters-only replay to the peak.
fn check_what_if_cache(region: &str, ddg: &Ddg, order: &[InstrId]) {
    let universe = RegUniverse::new(ddg);
    let walk = |t: &mut PressureTracker<'_>, from: usize, what: &str| {
        let when = format!("on `{region}` {what}, before step {from} of {order:?}");
        assert_cache_exact(t, ddg, &order[..from], &when);
        for (step, &id) in order.iter().enumerate().skip(from) {
            t.issue(id);
            let when = format!("on `{region}` {what}, after step {step} of {order:?}");
            assert_cache_exact(t, ddg, &order[..=step], &when);
        }
    };
    let mut t = PressureTracker::new(&universe);
    walk(&mut t, 0, "fresh");
    assert_eq!(prp_of_order_in(&universe, order), t.peak(), "lean replay");
    t.reset();
    walk(&mut t, 0, "after reset");

    // Fork a tracker stopped mid-order into one that went elsewhere.
    let half = order.len() / 2;
    let mut source = PressureTracker::new(&universe);
    for &id in &order[..half] {
        source.issue(id);
    }
    let mut fork = PressureTracker::new(&universe);
    for &id in order.iter().take(half / 2) {
        fork.issue(id);
    }
    fork.copy_from(&source);
    walk(&mut fork, half, "after copy_from");
    assert_eq!(fork.peak(), t.peak());
}

#[test]
fn what_if_cache_is_exact_on_generated_regions() {
    let regions = [
        ("sized 24", patterns::sized(24, 1)),
        ("sized 57", patterns::sized(57, 2)),
        ("sized 90", patterns::sized(90, 3)),
        ("reduction", patterns::reduction(12, 4)),
        ("transform_chain", patterns::transform_chain(3, 7, 5)),
        ("random_layered 6x7", patterns::random_layered(6, 7, 6)),
        ("random_layered 9x5", patterns::random_layered(9, 5, 7)),
    ];
    for (i, (name, ddg)) in regions.iter().enumerate() {
        for seed in 0..4 {
            check_what_if_cache(name, ddg, &random_topo_order(ddg, 31 * i as u64 + seed));
        }
    }
}

#[test]
fn what_if_cache_is_exact_on_edge_cases() {
    let (v, s) = (Reg::vgpr, Reg::sgpr);
    let mut cases: Vec<(&str, Ddg)> = Vec::new();

    // One operand named three times: its single user kills it.
    let mut b = DdgBuilder::new();
    let d = b.instr("def", [v(0)], []);
    let cube = b.instr("cube", [v(1)], [v(0), v(0), v(0)]);
    let twice = b.instr("twice", [v(2)], [v(1), v(0), v(1)]);
    b.edge(d, cube, 1).unwrap();
    b.edge(cube, twice, 1).unwrap();
    cases.push(("repeated operand", b.build().unwrap()));

    // A live-in with 40 users, in both classes, some using it twice.
    let mut b = DdgBuilder::new();
    for i in 0..40u32 {
        let uses = if i % 7 == 0 {
            vec![s(0), v(100), s(0)]
        } else {
            vec![s(0), v(100)]
        };
        b.instr(format!("u{i}"), [v(i)], uses);
    }
    cases.push(("widely used live-in", b.build().unwrap()));

    // Live-outs: defined, never used.
    let mut b = DdgBuilder::new();
    let a = b.instr("a", [v(0), s(0)], []);
    let c = b.instr("c", [v(1)], [v(0)]);
    b.instr("lone", [v(2), v(3)], []);
    b.edge(a, c, 2).unwrap();
    cases.push(("live-outs", b.build().unwrap()));

    // A register defined twice (the L002 region of the CLI regression):
    // whichever definer goes second opens nothing.
    let mut b = DdgBuilder::new();
    let a = b.instr("a", [v(0)], [s(0)]);
    let b2 = b.instr("b", [v(0)], [s(0)]);
    let c = b.instr("c", [v(1)], [v(0)]);
    let d = b.instr("d", [], [v(1), v(0)]);
    b.edge(a, c, 4).unwrap();
    b.edge(b2, d, 4).unwrap();
    b.edge(c, d, 1).unwrap();
    cases.push(("register defined twice", b.build().unwrap()));

    // A register redefined after it died: the later definer's entry must
    // follow the register back to dead.
    let mut b = DdgBuilder::new();
    let a = b.instr("a", [v(0)], []);
    let u = b.instr("u", [v(1)], [v(0)]);
    let again = b.instr("again", [v(0)], [v(1)]);
    b.instr("free", [v(2)], []);
    b.edge(a, u, 1).unwrap();
    b.edge(u, again, 1).unwrap();
    cases.push(("register redefined after death", b.build().unwrap()));

    // An instruction that kills an operand and defines into it.
    let mut b = DdgBuilder::new();
    let a = b.instr("a", [v(0)], []);
    let inc = b.instr("inc", [v(0)], [v(0)]);
    let other = b.instr("other", [v(1)], [s(0)]);
    b.edge(a, inc, 1).unwrap();
    b.edge(a, other, 1).unwrap();
    cases.push(("kill and define in place", b.build().unwrap()));

    // Operand lists too long for a packed entry: 300 defs, 300 uses.
    let mut b = DdgBuilder::new();
    let wide = b.instr("wide_def", (0..300).map(v), []);
    let sink = b.instr("wide_use", [v(1000)], (0..300).map(v));
    let one = b.instr("one", [v(1001)], [v(7), s(0)]);
    b.edge(wide, sink, 1).unwrap();
    b.edge(wide, one, 1).unwrap();
    cases.push(("operands beyond the packed range", b.build().unwrap()));

    for (name, ddg) in &cases {
        for seed in 0..6 {
            check_what_if_cache(name, ddg, &random_topo_order(ddg, seed));
        }
    }
}
