//! Property tests: the bitset transitive closure agrees with a reference
//! DFS, and derived bounds are internally consistent.

use proptest::prelude::*;
use sched_ir::bounds::heads_tails_length_lb;
use sched_ir::{Ddg, DdgBuilder, InstrId, RegionFacts, Schedule};

/// Random DAG with edges from lower to higher indices.
fn arb_ddg(max_n: usize) -> impl Strategy<Value = Ddg> {
    (2..max_n).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec(any::<u64>(), n),
            proptest::collection::vec(0u16..16, n),
        )
            .prop_map(|(n, bits, lats)| {
                let mut b = DdgBuilder::new();
                let ids: Vec<InstrId> = (0..n).map(|i| b.instr(format!("i{i}"), [], [])).collect();
                for i in 1..n {
                    for j in 0..i.min(48) {
                        if (bits[i] >> j) & 1 == 1 {
                            b.edge(ids[j], ids[i], lats[i]).unwrap();
                        }
                    }
                }
                b.build().unwrap()
            })
    })
}

/// Reference reachability by DFS.
fn dfs_reachable(ddg: &Ddg, from: InstrId) -> Vec<bool> {
    let mut seen = vec![false; ddg.len()];
    let mut stack = vec![from];
    while let Some(x) = stack.pop() {
        for &(s, _) in ddg.succs(x) {
            if !seen[s.index()] {
                seen[s.index()] = true;
                stack.push(s);
            }
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn closure_matches_dfs(ddg in arb_ddg(36)) {
        let tc = ddg.transitive_closure();
        for a in ddg.ids() {
            let seen = dfs_reachable(&ddg, a);
            for b in ddg.ids() {
                prop_assert_eq!(
                    tc.depends(a, b),
                    seen[b.index()],
                    "closure({}, {}) disagrees with DFS", a, b
                );
            }
        }
    }

    #[test]
    fn independence_is_symmetric_and_irreflexive(ddg in arb_ddg(28)) {
        let tc = ddg.transitive_closure();
        for a in ddg.ids() {
            prop_assert!(!tc.independent(a, a));
            for b in ddg.ids() {
                prop_assert_eq!(tc.independent(a, b), tc.independent(b, a));
            }
        }
    }

    #[test]
    fn ready_list_ub_is_at_most_n_and_at_least_antichain_width_of_roots(ddg in arb_ddg(30)) {
        let tc = ddg.transitive_closure();
        let ub = tc.ready_list_ub();
        prop_assert!(ub <= ddg.len());
        // All roots are pairwise independent... not necessarily (roots are
        // independent by definition: no path between them can exist? A root
        // has no preds, but root->root paths are impossible since both have
        // indegree 0 only for the *target*. Actually a root can reach
        // another root only if that root had a predecessor; it has none.
        let roots: Vec<_> = ddg.roots().collect();
        prop_assert!(ub >= roots.len(), "UB {} below root count {}", ub, roots.len());
    }

    #[test]
    fn independent_count_matches_single_bit_brute_force(ddg in arb_ddg(34)) {
        // Pins the precomputed word-level descendant/ancestor counting
        // against the old per-query formula: n - 1 (self) - descendants
        // - ancestors, each found by probing `depends` one pair at a time.
        let tc = ddg.transitive_closure();
        let n = ddg.len();
        for id in ddg.ids() {
            let desc = ddg.ids().filter(|&j| tc.depends(id, j)).count();
            let anc = ddg.ids().filter(|&j| tc.depends(j, id)).count();
            prop_assert_eq!(
                tc.independent_count(id),
                n - 1 - desc - anc,
                "independent_count({}) disagrees with brute force", id
            );
        }
    }

    #[test]
    fn topo_order_schedules_feasibly(ddg in arb_ddg(30)) {
        let s = Schedule::from_order(&ddg, ddg.topo_order());
        prop_assert!(s.validate(&ddg).is_ok());
        prop_assert!(s.length() >= ddg.len() as u32);
        prop_assert_eq!(s.stalls(), s.length() - ddg.len() as u32);
    }

    #[test]
    fn critical_path_is_max_earliest_start_plus_tail(ddg in arb_ddg(30)) {
        let est = ddg.earliest_starts();
        let tails = ddg.distance_to_leaf();
        let facts = RegionFacts::new(&ddg);
        // The facts are the from-scratch derivations, each derived once.
        prop_assert_eq!(&facts.tails, &tails);
        let cp = facts.critical_path;
        prop_assert_eq!(cp, tails.iter().copied().max().unwrap_or(0));
        prop_assert_eq!(u64::from(facts.length_lb), heads_tails_length_lb(&est, &tails));
        prop_assert_eq!(facts.length_lb, ddg.schedule_length_lb());
        // Any instruction's earliest start is strictly below the CP length.
        for id in ddg.ids() {
            prop_assert!(est[id.index()] < cp.max(1) + cp, "est exceeds CP bounds");
        }
        prop_assert!(cp <= facts.length_lb);
    }
}
