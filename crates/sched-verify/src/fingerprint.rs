//! Bitwise fingerprints of scheduler and pipeline outputs.
//!
//! A fingerprint folds everything a run *decides* — orders, cycles,
//! pressure, pass statistics, modeled times — into one `u64`, so golden
//! tests can pin a result and determinism checks can compare whole suite
//! runs cheaply. Floats are hashed by their IEEE-754 bit patterns: two
//! runs fingerprint equal only if they are byte-identical, which is
//! exactly the determinism contract the host-parallel paths promise.

use aco::AcoResult;
use pipeline::SuiteRun;
use sched_ir::Fnv64;

/// Fingerprint of everything the ACO search decides: issue order, cycles,
/// peak pressure, occupancy, length, and both passes' iteration counts and
/// best costs. Excludes op counts and modeled times, which depend on the
/// launch geometry rather than the search.
pub fn aco_fingerprint(r: &AcoResult) -> u64 {
    let mut h = Fnv64::new();
    for id in &r.order {
        h.word(id.0 as u64);
    }
    for &c in r.schedule.cycles() {
        h.word(c as u64);
    }
    for &p in &r.prp {
        h.word(p as u64);
    }
    h.word(r.occupancy as u64);
    h.word(r.length as u64);
    h.word(r.pass1.iterations as u64);
    h.word(r.pass1.best_cost);
    h.word(r.pass2.iterations as u64);
    h.word(r.pass2.best_cost);
    h.finish()
}

/// Fingerprint of a whole suite run, **recomputed from scratch** over the
/// finished run through the pipeline's own word stream
/// ([`SuiteRun::recompute_fingerprint`]): every region record (including
/// the modeled times, as f64 bits), kernel occupancies and times,
/// benchmark aggregates, and the modeled compile time. Two runs
/// fingerprint equal only if the `SuiteRun`s are byte-identical.
///
/// Never reads `run.fingerprint` — the merge's incremental fold of the
/// same stream — so comparing the two (the goldens and the benchmark do)
/// checks the fold against the records it claims to cover. `run.cache`
/// (the schedule-cache counters) is deliberately **not** hashed: at
/// `host_threads > 1` two workers can race to first-compile the same
/// content, making the counters interleaving-dependent, while everything
/// the compilation *decides* stays bitwise identical — which is exactly
/// what the D004 cache-transparency check asserts with this fingerprint.
pub fn suite_fingerprint(run: &SuiteRun) -> u64 {
    run.recompute_fingerprint()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aco_fingerprint_is_stable_and_sensitive() {
        let ddg = sched_ir::figure1::ddg();
        let occ = machine_model::OccupancyModel::vega_like();
        let r = aco::SequentialScheduler::new(aco::AcoConfig::small(3)).schedule(&ddg, &occ);
        let base = aco_fingerprint(&r);
        assert_eq!(base, aco_fingerprint(&r), "pure function");
        let mut changed = r.clone();
        changed.length += 1;
        assert_ne!(base, aco_fingerprint(&changed));
    }
}
