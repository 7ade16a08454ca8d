//! The verifier reports through `sched-analyze`'s one diagnostics model.
//!
//! One table pins the level of every verifier code the mutation, lint and
//! certificate tests provoke (violated invariants, all `deny`), and the
//! two anchors only the verifier uses (`Reg`, `PheromoneEntry`) render and
//! key distinctly.

use aco::{AcoConfig, PheromoneTable};
use list_sched::{Heuristic, ListScheduler};
use machine_model::OccupancyModel;
use sched_analyze::{Anchor, Baseline, Finding, Level};
use sched_ir::{DdgBuilder, InstrId, Reg, Schedule};
use sched_verify::{
    certify_exact, certify_list, certify_schedule, codes, has_errors, lint_config, lint_ddg,
    lint_pheromone, render, Claim,
};

/// Every finding a battery of single-fault mutations provokes.
fn provoked() -> Vec<Finding> {
    let ddg = workloads::patterns::sized(40, 7);
    let occ = OccupancyModel::vega_like();
    let good = ListScheduler::new(Heuristic::AmdMaxOccupancy).schedule(&ddg, &occ);
    assert!(certify_list(&ddg, &occ, &good).is_empty());
    let claim = Claim {
        order: None,
        prp: good.prp,
        occupancy: Some(good.occupancy),
        length: good.length,
    };
    let with_cycles =
        |cycles: Vec<u32>| certify_schedule(&ddg, &occ, &Schedule::from_cycles(cycles), &claim);
    let cycles = good.schedule.cycles().to_vec();
    let mut out = Vec::new();

    // C001: a dropped instruction.
    out.extend(with_cycles(cycles[..cycles.len() - 1].to_vec()));
    // C002/C003: every edge reversed in turn; C004: every cycle decremented.
    for a in ddg.ids() {
        for &(b, _) in ddg.succs(a) {
            let mut c = cycles.clone();
            c.swap(a.index(), b.index());
            out.extend(with_cycles(c));
        }
        if cycles[a.index()] > 0 {
            let mut c = cycles.clone();
            c[a.index()] -= 1;
            out.extend(with_cycles(c));
        }
    }
    // C005/C006/C007/C011: one lying claim each.
    let lie = |edit: fn(&mut list_sched::ScheduleResult)| {
        let mut r = good.clone();
        edit(&mut r);
        certify_list(&ddg, &occ, &r)
    };
    out.extend(lie(|r| r.prp[0] += 1));
    out.extend(lie(|r| r.occupancy += 1));
    out.extend(lie(|r| r.length += 1));
    out.extend(lie(|r| r.order.swap(0, 1)));
    // C012: an exact result whose scalar cost disagrees with its PRP.
    let small = workloads::patterns::sized(12, 0);
    let mut exact = exact_sched::two_pass_optimum(&small, &occ, &exact_sched::BnbConfig::default());
    exact.rp_cost += 1;
    out.extend(certify_exact(&small, &occ, &exact));

    // L002 (duplicate def).
    let mut b = DdgBuilder::new();
    b.instr("a", [Reg::vgpr(0)], []);
    b.instr("b", [Reg::vgpr(0)], []);
    out.extend(lint_ddg(&b.build().unwrap()));

    // A001–A007: one degenerate field each.
    for edit in [
        (|c| c.tau_min = 9.0) as fn(&mut AcoConfig),
        |c| c.blocks = 0,
        |c| c.decay = f64::NAN,
        |c| c.q0 = 1.5,
        |c| c.beta = -1.0,
        |c| c.termination.max_iterations = 0,
        |c| c.optional_stall_budget = 2.0,
    ] {
        let mut c = AcoConfig::small(0);
        edit(&mut c);
        out.extend(lint_config(&c));
    }

    // P001 (non-finite entry) and P002 (escaped the clamp band).
    let cfg = AcoConfig::small(0);
    for amount in [f64::INFINITY, 1e9] {
        let mut t = PheromoneTable::new(3, cfg.initial_pheromone);
        t.deposit_order(&[InstrId(0), InstrId(1)], amount, f64::INFINITY);
        out.extend(lint_pheromone(&t, &cfg));
    }
    out
}

#[test]
fn provoked_codes_carry_their_mapped_level() {
    let findings = provoked();
    for (code, level) in [
        (codes::WRONG_LENGTH, Level::Deny),
        (codes::DEPENDENCE, Level::Deny),
        (codes::LATENCY, Level::Deny),
        (codes::ISSUE_CONFLICT, Level::Deny),
        (codes::PRP_MISMATCH, Level::Deny),
        (codes::OCCUPANCY_MISMATCH, Level::Deny),
        (codes::LENGTH_MISMATCH, Level::Deny),
        (codes::ORDER_MISMATCH, Level::Deny),
        (codes::EXACT_INCONSISTENT, Level::Deny),
        (codes::DUPLICATE_DEF, Level::Deny),
        (codes::TAU_BOUNDS, Level::Deny),
        (codes::ZERO_ANTS, Level::Deny),
        (codes::BAD_DECAY, Level::Deny),
        (codes::BAD_Q0, Level::Deny),
        (codes::BAD_PHEROMONE_PARAM, Level::Deny),
        (codes::ZERO_ITERATIONS, Level::Deny),
        (codes::BAD_STALL_FRACTION, Level::Deny),
        (codes::PHEROMONE_NONFINITE, Level::Deny),
        (codes::PHEROMONE_OUT_OF_BOUNDS, Level::Deny),
    ] {
        let of_code: Vec<&Finding> = findings.iter().filter(|f| f.code == code).collect();
        assert!(!of_code.is_empty(), "{code} was not provoked");
        for f in of_code {
            assert_eq!(f.level, level, "{f}");
        }
    }
    assert!(has_errors(&findings));
}

#[test]
fn verifier_anchors_render_and_key_distinctly() {
    let reg = Finding::new(
        codes::DEPENDENCE,
        Level::Deny,
        Anchor::Reg(Reg::vgpr(3)),
        "read before its definition",
    )
    .in_region(2, 0);
    let entry = |row, col| {
        Finding::new(
            codes::PHEROMONE_NONFINITE,
            Level::Deny,
            Anchor::PheromoneEntry { row, col },
            "not finite",
        )
    };
    let text = render(&[reg.clone(), entry(3, 1)]);
    assert!(
        text.contains("deny[C002]: read before its definition\n"),
        "{text}"
    );
    assert!(
        text.contains("  --> kernel 2, region 0, reg v3\n"),
        "{text}"
    );
    assert!(text.contains("  --> pheromone entry (3, 1)\n"), "{text}");
    assert!(
        text.ends_with("verify: 2 deny, 0 warn, 0 pedantic\n"),
        "{text}"
    );

    let mut other_reg = reg.clone();
    other_reg.anchor = Anchor::Reg(Reg::sgpr(3));
    let keys = [&reg, &other_reg, &entry(3, 1), &entry(1, 3)].map(Finding::baseline_key);
    for (i, a) in keys.iter().enumerate() {
        for b in &keys[i + 1..] {
            assert_ne!(a, b);
        }
    }
    let baseline = Baseline::accepting(std::slice::from_ref(&reg));
    assert!(baseline.suppresses(&reg) && !baseline.suppresses(&other_reg));
}
