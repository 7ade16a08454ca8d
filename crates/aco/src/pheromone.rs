//! The pheromone table.

use sched_ir::InstrId;

/// The `(n+1) × n` pheromone table of Section IV-A.
///
/// Entry `τ(i, j)` is the pheromone on the link "schedule `j` immediately
/// after `i`"; a virtual *start* row holds the pheromone for scheduling `j`
/// first. The table is shared by all ants within an iteration and updated
/// from the iteration winner between iterations.
#[derive(Debug, Clone)]
pub struct PheromoneTable {
    n: usize,
    initial: f64,
    tau: Vec<f64>,
}

impl PheromoneTable {
    /// Creates a table for `n` instructions with all entries at `initial`.
    pub fn new(n: usize, initial: f64) -> PheromoneTable {
        PheromoneTable {
            n,
            initial,
            tau: vec![initial; (n + 1) * n],
        }
    }

    /// Number of instructions covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the table covers zero instructions.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Resets every entry to the initial level (used between passes).
    pub fn reset(&mut self) {
        self.tau.fill(self.initial);
    }

    /// Index of `from`'s first entry (`from = None` is the virtual start,
    /// stored as row `n`).
    #[inline]
    fn row_start(&self, from: Option<InstrId>) -> usize {
        from.map_or(self.n, InstrId::index) * self.n
    }

    /// τ on every link leaving `from`, indexed by successor: a selection
    /// slices its row once and reads one entry per candidate.
    #[inline]
    pub fn row(&self, from: Option<InstrId>) -> &[f64] {
        let start = self.row_start(from);
        &self.tau[start..start + self.n]
    }

    /// τ on the link `from -> to` (`from = None` is the virtual start).
    #[inline]
    pub fn get(&self, from: Option<InstrId>, to: InstrId) -> f64 {
        self.tau[self.row_start(from) + to.index()]
    }

    /// Multiplies every entry by `decay` (pheromone dissipation), clamping
    /// at `tau_min`.
    pub fn evaporate(&mut self, decay: f64, tau_min: f64) {
        for t in &mut self.tau {
            *t = (*t * decay).max(tau_min);
        }
    }

    /// Deposits `amount` on every consecutive link of the winner `order`
    /// (including the start link), clamping at `tau_max`.
    pub fn deposit_order(&mut self, order: &[InstrId], amount: f64, tau_max: f64) {
        let mut from: Option<InstrId> = None;
        for &to in order {
            let idx = self.row_start(from) + to.index();
            self.tau[idx] = (self.tau[idx] + amount).min(tau_max);
            from = Some(to);
        }
    }

    /// Number of entries (for cost accounting of the update kernels).
    pub fn entries(&self) -> usize {
        self.tau.len()
    }

    /// The initial pheromone level the table was created with.
    pub fn initial(&self) -> f64 {
        self.initial
    }

    /// Debug hook: checks the table's numeric invariants.
    ///
    /// Every entry must be finite and lie within
    /// `[min(tau_min, initial), max(tau_max, initial)]` — evaporation clamps
    /// at `tau_min`, deposits clamp at `tau_max`, and untouched entries stay
    /// at the initial level. Returns the first violation as
    /// `(row, column, value)`, where row `n` is the virtual start row.
    ///
    /// # Errors
    ///
    /// Returns `Err((row, col, value))` for the first NaN/infinite or
    /// out-of-bounds entry.
    pub fn check_invariants(&self, tau_min: f64, tau_max: f64) -> Result<(), (usize, usize, f64)> {
        let lo = tau_min.min(self.initial);
        let hi = tau_max.max(self.initial);
        for (i, &t) in self.tau.iter().enumerate() {
            let (row, col) = (i / self.n.max(1), i % self.n.max(1));
            if !t.is_finite() || t < lo || t > hi {
                return Err((row, col, t));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_table_is_uniform() {
        let t = PheromoneTable::new(4, 1.5);
        for to in 0..4u32 {
            assert_eq!(t.get(None, InstrId(to)), 1.5);
            for from in 0..4u32 {
                assert_eq!(t.get(Some(InstrId(from)), InstrId(to)), 1.5);
            }
        }
        assert_eq!(t.entries(), 20);
    }

    #[test]
    fn deposit_reinforces_winner_links_only() {
        let mut t = PheromoneTable::new(3, 1.0);
        let order = [InstrId(2), InstrId(0), InstrId(1)];
        t.deposit_order(&order, 0.5, 10.0);
        assert_eq!(t.get(None, InstrId(2)), 1.5);
        assert_eq!(t.get(Some(InstrId(2)), InstrId(0)), 1.5);
        assert_eq!(t.get(Some(InstrId(0)), InstrId(1)), 1.5);
        // Untouched links unchanged.
        assert_eq!(t.get(None, InstrId(0)), 1.0);
        assert_eq!(t.get(Some(InstrId(1)), InstrId(2)), 1.0);
    }

    #[test]
    fn evaporation_decays_and_clamps() {
        let mut t = PheromoneTable::new(2, 1.0);
        t.evaporate(0.8, 0.5);
        assert_eq!(t.get(None, InstrId(0)), 0.8);
        t.evaporate(0.5, 0.5);
        assert_eq!(t.get(None, InstrId(0)), 0.5, "clamped at tau_min");
    }

    #[test]
    fn deposit_clamps_at_tau_max() {
        let mut t = PheromoneTable::new(2, 1.0);
        for _ in 0..100 {
            t.deposit_order(&[InstrId(0), InstrId(1)], 1.0, 3.0);
        }
        assert_eq!(t.get(None, InstrId(0)), 3.0);
    }

    #[test]
    fn invariant_hook_accepts_clamped_updates_and_rejects_corruption() {
        let mut t = PheromoneTable::new(3, 1.0);
        let order = [InstrId(0), InstrId(1), InstrId(2)];
        for _ in 0..50 {
            t.evaporate(0.7, 0.2);
            t.deposit_order(&order, 0.9, 4.0);
        }
        t.check_invariants(0.2, 4.0).unwrap();
        // Corrupt the deposited links past tau_max; the hook pinpoints the
        // first violating entry in scan order — the link 0 -> 1.
        t.deposit_order(&order, 100.0, 200.0);
        let err = t.check_invariants(0.2, 4.0).unwrap_err();
        assert_eq!((err.0, err.1), (0, 1));
        assert!(err.2 > 4.0);
    }

    #[test]
    fn reset_restores_initial() {
        let mut t = PheromoneTable::new(2, 2.0);
        t.deposit_order(&[InstrId(0), InstrId(1)], 1.0, 10.0);
        t.evaporate(0.5, 0.0);
        t.reset();
        assert_eq!(t.get(None, InstrId(0)), 2.0);
        assert_eq!(t.get(Some(InstrId(0)), InstrId(1)), 2.0);
    }
}

#[cfg(test)]
mod convergence_tests {
    use super::*;
    use crate::config::AcoConfig;
    use crate::construct::{AntContext, Pass1Ant};
    use list_sched::{Heuristic, RegionAnalysis};
    use machine_model::{OccupancyLut, OccupancyModel};
    use reg_pressure::RegUniverse;

    /// Repeatedly depositing the same winner makes exploit-only ants
    /// reproduce it exactly — the exploitation half of the search works.
    /// The region is heuristic-neutral (independent no-operand
    /// instructions), so selection is driven purely by pheromone.
    #[test]
    fn deposited_order_dominates_exploitation() {
        use sched_ir::{DdgBuilder, InstrId};
        let mut b = DdgBuilder::new();
        for i in 0..10 {
            b.instr(format!("nop{i}"), [], []);
        }
        let ddg = b.build().unwrap();
        let occ = OccupancyLut::new(&OccupancyModel::vega_like());
        let analysis = RegionAnalysis::new(&ddg);
        let universe = RegUniverse::new(&ddg);
        let cfg = AcoConfig::small(0);
        let ctx = AntContext {
            ddg: &ddg,
            analysis: &analysis,
            universe: &universe,
            lut: &occ,
            cfg: &cfg,
        };
        let mut table = PheromoneTable::new(ddg.len(), cfg.initial_pheromone);
        // An arbitrary permutation, hammered into the table.
        let target: Vec<InstrId> = (0..10u32).map(|i| InstrId((i * 7) % 10)).collect();
        for _ in 0..40 {
            table.evaporate(cfg.decay, cfg.tau_min);
            table.deposit_order(&target, cfg.deposit, cfg.tau_max);
        }
        let mut ant = Pass1Ant::new(&ctx, Heuristic::CriticalPath, 7);
        while !ant.finished(&ctx) {
            ant.step(&ctx, &table, Some(false)); // pure exploitation
        }
        let r = ant.result(&ctx);
        assert_eq!(
            r.order, target,
            "exploitation must follow saturated pheromone"
        );
    }
}
