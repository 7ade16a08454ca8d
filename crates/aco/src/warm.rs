//! Pheromone warm-start hints.
//!
//! A [`WarmStart`] carries the converged instruction order of a previous
//! search over a *structurally similar* region (same template, different
//! instance — matched by `sched_ir::ddg_structure_fingerprint`). Both
//! schedulers accept one through their `schedule_with` entry points: the
//! pheromone table is seeded saturated along the hinted order instead of
//! uniform ([`crate::PheromoneTable::seed_order`]), so the first
//! exploitation-driven iteration reproduces the hint, and the
//! no-improvement budget is cut to [`WARM_NO_IMPROVE_BUDGET`] because a
//! stabilized warm trail converges immediately or not at all.
//!
//! A hint is *advice*, never a result: the search still constructs every
//! schedule from scratch against the actual region, so a stale or even
//! nonsensical hint can cost iterations but can never produce an invalid
//! schedule. The hard requirements are shape compatibility — the hint must
//! be a permutation of the region's instruction ids, validated structurally
//! by [`WarmStart::new`] — and dependence validity against the concrete
//! region, re-checked by [`WarmStart::applies_to`]. An applicable hint is
//! also injected into both passes as a *candidate incumbent* (its order is
//! evaluated against the region before any ant runs), which gives the warm
//! search a hard floor: its result is never lexicographically worse in
//! (pressure cost, length) than the hint itself.

use sched_ir::{Ddg, Fnv64, InstrId};

/// No-improvement budget of a warm-started pass: one non-improving
/// iteration ends the search. The seeded trail reproduces its hint in the
/// first iteration, so either the colony improves on the hint immediately
/// or the pass is done — burning the cold-start band budget on a converged
/// trail is exactly the waste warm-starting removes.
pub const WARM_NO_IMPROVE_BUDGET: u32 = 1;

/// A validated warm-start hint: a permutation of `0..n` instruction ids,
/// in the issue order a previous search converged to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmStart {
    order: Vec<InstrId>,
}

impl WarmStart {
    /// Wraps an instruction order as a warm-start hint.
    ///
    /// Returns `None` unless `order` is a permutation of `0..order.len()`
    /// — anything else could index out of the pheromone table it seeds.
    pub fn new(order: Vec<InstrId>) -> Option<WarmStart> {
        let n = order.len();
        let mut seen = vec![false; n];
        for id in &order {
            let i = id.index();
            if i >= n || seen[i] {
                return None;
            }
            seen[i] = true;
        }
        Some(WarmStart { order })
    }

    /// The hinted issue order.
    pub fn order(&self) -> &[InstrId] {
        &self.order
    }

    /// Number of instructions the hint covers.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the hint covers zero instructions.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Whether this hint can seed a search over `ddg`: the instruction
    /// counts must match **and** the hinted order must respect every
    /// dependence edge of this concrete region.
    ///
    /// The dependence check matters because structure-fingerprint matches
    /// are hints, not proofs: a 64-bit collision could pair the hint with
    /// an unrelated region, and seeding from a dependence-violating order
    /// would make the hint-as-candidate quality floor unsound. A valid
    /// topological order of the *template* is a valid order of every
    /// instance sharing its edge shape, so genuine template matches always
    /// pass.
    pub fn applies_to(&self, ddg: &Ddg) -> bool {
        if self.order.len() != ddg.len() {
            return false;
        }
        let mut pos = vec![0usize; self.order.len()];
        for (p, id) in self.order.iter().enumerate() {
            pos[id.index()] = p;
        }
        ddg.topo_order().iter().all(|&id| {
            ddg.succs(id)
                .iter()
                .all(|&(s, _)| pos[s.index()] > pos[id.index()])
        })
    }

    /// Canonical FNV-1a fingerprint of the hint. A warm-started compilation
    /// is a different pure function of its inputs than a cold one, so any
    /// memoization key covering the compilation must fold this in.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.word(self.order.len() as u64);
        for id in &self.order {
            h.word(id.0 as u64);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<InstrId> {
        v.iter().map(|&i| InstrId(i)).collect()
    }

    #[test]
    fn accepts_permutations_and_rejects_everything_else() {
        assert!(WarmStart::new(ids(&[2, 0, 1])).is_some());
        assert!(WarmStart::new(Vec::new()).is_some());
        // Duplicate id.
        assert!(WarmStart::new(ids(&[0, 0, 1])).is_none());
        // Out-of-range id.
        assert!(WarmStart::new(ids(&[0, 3, 1])).is_none());
    }

    #[test]
    fn applies_only_to_matching_sizes() {
        let ddg3 = workloads::patterns::sized(3, 0);
        let w = WarmStart::new(ddg3.topo_order().to_vec()).unwrap();
        assert!(w.applies_to(&ddg3));
        let ddg40 = workloads::patterns::sized(40, 0);
        assert!(!w.applies_to(&ddg40));
    }

    #[test]
    fn dependence_violating_orders_do_not_apply() {
        // A pure chain: its reversed topological order violates every edge.
        let ddg = workloads::patterns::transform_chain(1, 5, 0);
        let mut rev = ddg.topo_order().to_vec();
        rev.reverse();
        let w = WarmStart::new(rev).unwrap();
        assert!(!w.applies_to(&ddg));
        let topo = WarmStart::new(ddg.topo_order().to_vec()).unwrap();
        assert!(topo.applies_to(&ddg));
    }

    #[test]
    fn fingerprint_separates_orders_and_sizes() {
        let a = WarmStart::new(ids(&[0, 1, 2])).unwrap();
        let b = WarmStart::new(ids(&[0, 2, 1])).unwrap();
        let c = WarmStart::new(ids(&[0, 1])).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
    }
}
