//! Self-tuning glue: consulting an [`aco_tune::TuneStore`] on the solo
//! ACO path and feeding outcomes back during the canonical merge.
//!
//! The bandit lives in `aco-tune`; this module decides *where* it plugs
//! into the pipeline:
//!
//! * **Choice** — [`tuned_solo_inputs`] runs in the parallel job phase
//!   ([`crate::host_pool::run_job`]): it classifies the region, asks the
//!   store for an arm (salted by the region's stable suite position, so
//!   one run spreads exploration across a class's instances), applies the
//!   arm's deltas to the ACO config, and looks up a pheromone warm-start
//!   hint under the region's *structure* fingerprint — the template-class
//!   key that matches duplicate instances even when names, latencies and
//!   register identities differ. `TuneStore::choose`/`warm_hint` are pure
//!   in (state, args) and the store is never mutated during the job
//!   phase, so jobs stay pure and thread-count independent.
//! * **Observation** — [`observe_outcome`] runs only on the merge thread,
//!   in canonical job order ([`crate::SuiteMerger::consume`]):
//!   it records the arm's achieved (length, iterations) and the adopted
//!   order as a future warm hint. Single-threaded, fixed order — the
//!   store's learned state after a run is byte-identical at any
//!   `host_threads`.
//!
//! Only **solo ACO** jobs are tuned. Batch groups share one cooperative
//! launch whose block split is part of the batching contract, and a kind
//! that runs no colony ([`crate::SchedulerKind::runs_colony`]) has nothing to
//! tune; both run exactly as before even when tuning is enabled.

use crate::config::PipelineConfig;
use crate::region::{FinalChoice, RegionCompilation};
use aco::WarmStart;
use aco_tune::{RegionClass, TuneStore, ARMS};
use sched_ir::{ddg_structure_fingerprint, Ddg};

/// How one region's compilation was tuned: carried from the job phase to
/// the merge so the observation lands on the same class/arm the choice
/// picked, without re-deriving either.
#[derive(Debug, Clone, Copy)]
pub struct TuneTag {
    /// The region's feature class.
    pub class: RegionClass,
    /// The arm index (into [`aco_tune::ARMS`]) the compilation ran under.
    pub arm: usize,
    /// The region's structure fingerprint (the warm-hint key).
    pub structure_fp: u64,
    /// Whether a warm-start hint was applied.
    pub warm_started: bool,
}

/// The tuned inputs for one solo region compilation: the arm-adjusted
/// configuration, an applicable warm-start hint (if the store knows one
/// for this structure class), and the tag the merge needs to close the
/// loop. `salt` must be a stable per-region value (the suite position) —
/// see the module docs for the determinism contract.
pub fn tuned_solo_inputs(
    ddg: &Ddg,
    salt: u64,
    cfg: &PipelineConfig,
    store: &TuneStore,
) -> (PipelineConfig, Option<WarmStart>, TuneTag) {
    let class = RegionClass::of(ddg);
    let arm = store.choose(class, salt);
    let mut tuned = *cfg;
    tuned.aco = ARMS[arm].apply(cfg.aco);
    let structure_fp = ddg_structure_fingerprint(ddg);
    // A hint recorded under a colliding structure fingerprint (or a stale
    // one) may not fit this instance; `applies_to` checks size and every
    // dependence edge, so anything passed on is a sound candidate order.
    let warm = store.warm_hint(structure_fp).filter(|w| w.applies_to(ddg));
    let tag = TuneTag {
        class,
        arm,
        structure_fp,
        warm_started: warm.is_some(),
    };
    (tuned, warm, tag)
}

/// Feeds one tuned compilation's outcome back into the store: the arm's
/// achieved schedule length and total ACO iterations, and the adopted
/// order as a warm hint for future instances of the structure class.
/// Must only run on the merge thread, in canonical order.
pub fn observe_outcome(store: &TuneStore, tag: &TuneTag, comp: &RegionCompilation) {
    let iterations = comp
        .aco
        .as_ref()
        .map_or(0, |a| (a.pass1.iterations + a.pass2.iterations) as u64);
    store.observe(tag.class, tag.arm, comp.length as u64, iterations);
    let order = match (comp.choice, &comp.aco) {
        (FinalChoice::Aco, Some(a)) => &a.order,
        _ => &comp.heuristic.order,
    };
    store.record_warm(tag.structure_fp, order);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerKind;
    use aco_tune::FIXED_ARM;
    use machine_model::OccupancyModel;

    fn cfg() -> PipelineConfig {
        let mut c = PipelineConfig::paper(SchedulerKind::ParallelAco, 0);
        c.aco.blocks = 4;
        c.aco.pass2_gate_cycles = 1;
        c
    }

    #[test]
    fn tuned_inputs_only_move_search_effort_knobs() {
        let ddg = workloads::patterns::sized(60, 3);
        let store = TuneStore::new();
        let c = cfg();
        let (tuned, warm, tag) = tuned_solo_inputs(&ddg, 0, &c, &store);
        assert_eq!(tuned.scheduler, c.scheduler);
        assert_eq!(tuned.aco.seed, c.aco.seed);
        assert_eq!(tuned.aco.occupancy_cap, c.aco.occupancy_cap);
        assert_eq!(tuned.cache, c.cache);
        assert!(warm.is_none(), "empty store has no hints");
        assert!(!tag.warm_started);
        assert_eq!(tag.class, RegionClass::of(&ddg));
        assert_eq!(tag.structure_fp, ddg_structure_fingerprint(&ddg));
    }

    #[test]
    fn observation_closes_the_loop_into_a_warm_hint() {
        let occ = OccupancyModel::vega_like();
        let ddg = workloads::patterns::sized(60, 3);
        let store = TuneStore::new();
        let c = cfg();
        let (tuned, warm, tag) = tuned_solo_inputs(&ddg, 0, &c, &store);
        let comp = crate::region::compile_region_warm(&ddg, &occ, &tuned, warm.as_ref());
        observe_outcome(&store, &tag, &comp);
        assert_eq!(store.stats().observations, 1);
        assert_eq!(store.warm_len(), 1);
        // A structural duplicate (same DDG here) now warm-starts.
        let (_, warm2, tag2) = tuned_solo_inputs(&ddg, 1, &c, &store);
        let hint = warm2.expect("recorded order must come back as a hint");
        assert!(tag2.warm_started);
        assert!(hint.applies_to(&ddg));
    }

    #[test]
    fn salt_spreads_exploration_across_instances() {
        let ddg = workloads::patterns::sized(60, 3);
        let store = TuneStore::new();
        let c = cfg();
        let arms: std::collections::HashSet<usize> = (0..ARMS.len() as u64)
            .map(|salt| tuned_solo_inputs(&ddg, salt, &c, &store).2.arm)
            .collect();
        assert!(
            arms.len() > 1,
            "different salts must explore different arms on a fresh store"
        );
        assert!(arms.contains(&FIXED_ARM) || arms.len() == ARMS.len());
    }
}
