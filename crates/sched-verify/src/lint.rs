//! Lints over DDGs, scheduler configurations, and pheromone tables.
//!
//! Unlike the certificate checker, lints look for *suspicious inputs*
//! rather than wrong outputs: edges that carry no information, graphs that
//! violate the SSA assumptions the pressure model rests on, and
//! configurations that would send the ACO search into degenerate behavior
//! (empty pheromone bands, NaN-producing decay, zero colonies).

use crate::diag::codes;
use aco::{AcoConfig, PheromoneTable};
use sched_analyze::{Anchor, Finding, Level};
use sched_ir::{Ddg, InstrId, RegTable};

/// Lints a dependence graph: duplicate defs are `deny`. Orphan nodes are
/// `sched-analyze`'s `S003`, and cycles are not checked —
/// [`sched_ir::DdgBuilder::build`] is the only constructor of a [`Ddg`] and
/// rejects them (raw, pre-validation regions get `S002` with a witness from
/// `sched-analyze`).
///
/// Redundant transitive edges (`S001`) are *not* reported here: the check
/// is exact, but DDGs built from def-use chains routinely carry edges a
/// longer path already implies, and that is normal, not suspicious. Use
/// [`lint_ddg_pedantic`] to include them.
pub fn lint_ddg(ddg: &Ddg) -> Vec<Finding> {
    let mut findings = Vec::new();

    // L002 — duplicate definitions break the SSA assumption every pressure
    // computation in the stack relies on.
    let mut def_of: RegTable<Option<InstrId>> = RegTable::new();
    for id in ddg.ids() {
        for &r in ddg.instr(id).defs() {
            match def_of.slot(r) {
                Some(first) => findings.push(Finding::new(
                    codes::DUPLICATE_DEF,
                    Level::Deny,
                    Anchor::Reg(r),
                    format!("{r} is defined by both {first} and {id} (SSA violation)"),
                )),
                slot => *slot = Some(id),
            }
        }
    }
    findings
}

/// [`lint_ddg`] plus `sched-analyze`'s exact transitive-reduction pass
/// (`S001`, at the analyzer's own `pedantic` level): an edge `a -> b` is
/// redundant iff a path of two or more edges already enforces at least the
/// same **effective** latency (`max(lat, 1)` per edge — on a single-issue
/// machine even a zero-latency edge costs a cycle).
pub fn lint_ddg_pedantic(ddg: &Ddg) -> Vec<Finding> {
    let mut findings = lint_ddg(ddg);
    let g = sched_analyze::RegionGraph::from_ddg(ddg);
    findings.extend(
        sched_analyze::analyze_graph(&g)
            .into_iter()
            .filter(|f| f.code == sched_analyze::codes::TRANSITIVE_REDUNDANT),
    );
    findings
}

/// Lints an ACO configuration for degenerate parameter settings.
pub fn lint_config(cfg: &AcoConfig) -> Vec<Finding> {
    let mut diags = Vec::new();
    let field = Anchor::ConfigField;

    // A001 — an inverted or empty pheromone band pins every entry.
    if cfg.tau_min >= cfg.tau_max {
        diags.push(Finding::new(
            codes::TAU_BOUNDS,
            Level::Deny,
            field("tau_min"),
            format!(
                "tau_min {} >= tau_max {}: the pheromone band is empty and the \
                 search cannot differentiate links",
                cfg.tau_min, cfg.tau_max
            ),
        ));
    }

    // A002 — a zero colony never constructs a schedule.
    if cfg.sequential_ants == 0 {
        diags.push(Finding::new(
            codes::ZERO_ANTS,
            Level::Deny,
            field("sequential_ants"),
            "sequential colony has zero ants",
        ));
    }
    if cfg.blocks == 0 || cfg.threads_per_block == 0 {
        diags.push(Finding::new(
            codes::ZERO_ANTS,
            Level::Deny,
            field("blocks"),
            format!(
                "parallel colony is empty ({} blocks x {} threads)",
                cfg.blocks, cfg.threads_per_block
            ),
        ));
    }

    // A003 — decay outside (0, 1] either freezes the table or explodes it;
    // non-finite decay poisons every entry with NaN on the first update.
    if !cfg.decay.is_finite() || cfg.decay <= 0.0 || cfg.decay > 1.0 {
        diags.push(Finding::new(
            codes::BAD_DECAY,
            Level::Deny,
            field("decay"),
            format!(
                "decay {} is outside (0, 1]; evaporation would corrupt the table",
                cfg.decay
            ),
        ));
    }

    // A004 — q0 is a probability.
    if !cfg.q0.is_finite() || !(0.0..=1.0).contains(&cfg.q0) {
        diags.push(Finding::new(
            codes::BAD_Q0,
            Level::Deny,
            field("q0"),
            format!("exploitation probability q0 {} is outside [0, 1]", cfg.q0),
        ));
    }

    // A005 — the remaining pheromone parameters must be finite and
    // non-negative or selection weights become NaN.
    for (name, value) in [
        ("beta", cfg.beta),
        ("initial_pheromone", cfg.initial_pheromone),
        ("deposit", cfg.deposit),
        ("tau_min", cfg.tau_min),
        ("tau_max", cfg.tau_max),
    ] {
        if !value.is_finite() || value < 0.0 {
            diags.push(Finding::new(
                codes::BAD_PHEROMONE_PARAM,
                Level::Deny,
                field(name),
                format!("{name} = {value} must be finite and non-negative"),
            ));
        }
    }

    // A006 — a zero iteration cap means no pass ever runs.
    if cfg.termination.max_iterations == 0 {
        diags.push(Finding::new(
            codes::ZERO_ITERATIONS,
            Level::Deny,
            field("termination.max_iterations"),
            "max_iterations is 0: neither pass can execute an iteration",
        ));
    }

    // A007 — stall knobs are fractions of [0, 1].
    for (name, value) in [
        (
            "tuning.stall_wavefront_fraction",
            cfg.tuning.stall_wavefront_fraction,
        ),
        ("optional_stall_budget", cfg.optional_stall_budget),
    ] {
        if !value.is_finite() || !(0.0..=1.0).contains(&value) {
            diags.push(Finding::new(
                codes::BAD_STALL_FRACTION,
                Level::Deny,
                field(name),
                format!("{name} = {value} is outside [0, 1]"),
            ));
        }
    }
    diags
}

/// Checks a pheromone table's numeric invariants against the
/// configuration's clamp band via the table's debug hook.
pub fn lint_pheromone(table: &PheromoneTable, cfg: &AcoConfig) -> Vec<Finding> {
    match table.check_invariants(cfg.tau_min, cfg.tau_max) {
        Ok(()) => Vec::new(),
        Err((row, col, value)) => {
            let anchor = Anchor::PheromoneEntry { row, col };
            if value.is_finite() {
                vec![Finding::new(
                    codes::PHEROMONE_OUT_OF_BOUNDS,
                    Level::Deny,
                    anchor,
                    format!(
                        "entry ({row}, {col}) = {value} escaped the clamp band \
                         [{}, {}]",
                        cfg.tau_min.min(table.initial()),
                        cfg.tau_max.max(table.initial())
                    ),
                )]
            } else {
                vec![Finding::new(
                    codes::PHEROMONE_NONFINITE,
                    Level::Deny,
                    anchor,
                    format!("entry ({row}, {col}) = {value} is not finite"),
                )]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::has_errors;
    use sched_ir::{figure1, DdgBuilder};

    #[test]
    fn figure1_lints_clean() {
        let diags = lint_ddg_pedantic(&figure1::ddg());
        assert!(diags.is_empty(), "{}", crate::diag::render(&diags));
    }

    #[test]
    fn s001_is_exact_and_pedantic_only() {
        // a -> b -> c plus a direct a -> c, as (a->b, b->c, a->c) latencies.
        for (lat, redundant) in [
            ((2, 2, 3), true),  // the path already forces c 4 cycles after a
            ((0, 0, 1), true),  // effective latencies: the path costs 2 cycles
            ((1, 1, 5), false), // longer than the path: it adds information
        ] {
            let mut b = DdgBuilder::new();
            let a = b.instr("a", [sched_ir::Reg::vgpr(0)], []);
            let m = b.instr("b", [sched_ir::Reg::vgpr(1)], []);
            let c = b.instr("c", [], []);
            b.edge(a, m, lat.0).unwrap();
            b.edge(m, c, lat.1).unwrap();
            b.edge(a, c, lat.2).unwrap();
            let ddg = b.build().unwrap();
            let s001: Vec<Finding> = lint_ddg_pedantic(&ddg)
                .into_iter()
                .filter(|f| f.code == "S001")
                .collect();
            assert_eq!(s001.len(), redundant as usize, "{lat:?}");
            assert!(!has_errors(&s001), "pedantic findings never gate");
            for f in &s001 {
                assert_eq!(f.anchor, Anchor::Edge { from: a.0, to: c.0 });
                assert_eq!(f.level, Level::Pedantic);
            }
            assert!(lint_ddg(&ddg).is_empty(), "default lint excludes S001");
        }
    }

    #[test]
    fn duplicate_def_is_an_error() {
        let mut b = DdgBuilder::new();
        let r = sched_ir::Reg::vgpr(0);
        b.instr("a", [r], []);
        b.instr("b", [r], []);
        let ddg = b.build().unwrap();
        let diags = lint_ddg(&ddg);
        assert!(diags.iter().any(|d| d.code == codes::DUPLICATE_DEF));
        assert!(has_errors(&diags));
    }

    #[test]
    fn paper_config_lints_clean() {
        assert!(lint_config(&AcoConfig::paper(0)).is_empty());
        assert!(lint_config(&AcoConfig::small(7)).is_empty());
    }

    #[test]
    fn degenerate_configs_are_flagged() {
        let mut c = AcoConfig::small(0);
        c.tau_min = 9.0; // above tau_max 8.0
        assert!(lint_config(&c).iter().any(|d| d.code == codes::TAU_BOUNDS));

        let mut c = AcoConfig::small(0);
        c.blocks = 0;
        assert!(lint_config(&c).iter().any(|d| d.code == codes::ZERO_ANTS));

        let mut c = AcoConfig::small(0);
        c.decay = f64::NAN;
        assert!(lint_config(&c).iter().any(|d| d.code == codes::BAD_DECAY));

        let mut c = AcoConfig::small(0);
        c.q0 = 1.5;
        assert!(lint_config(&c).iter().any(|d| d.code == codes::BAD_Q0));

        let mut c = AcoConfig::small(0);
        c.termination.max_iterations = 0;
        assert!(lint_config(&c)
            .iter()
            .any(|d| d.code == codes::ZERO_ITERATIONS));
    }

    #[test]
    fn pheromone_lint_reports_corruption() {
        let cfg = AcoConfig::small(0);
        let mut t = PheromoneTable::new(3, cfg.initial_pheromone);
        assert!(lint_pheromone(&t, &cfg).is_empty());
        t.deposit_order(
            &[sched_ir::InstrId(0), sched_ir::InstrId(1)],
            1e9,
            1e12, // bogus clamp lets the entry escape the configured band
        );
        let diags = lint_pheromone(&t, &cfg);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::PHEROMONE_OUT_OF_BOUNDS);
    }
}
