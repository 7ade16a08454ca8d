//! The dense `Schedule::validate` is the old one: on every schedule below
//! it returns the value the per-call-`HashMap` body it replaced returns
//! (`tests/oracle/validate.rs`, verbatim) — `Ok`, or the same first
//! `ScheduleError` with the same ids, register and cycles.
//!
//! The schedules the golden tests produce are held to the same oracle
//! inside `tests/golden_bitwise.rs`, where they are computed anyway.

#[path = "oracle/validate.rs"]
mod oracle;

use gpu_aco::bench_workloads::patterns;
use gpu_aco::ir::textir::{self, MAX_REG_ID};
use gpu_aco::ir::{Cycle, Ddg, DdgBuilder, InstrId, Schedule, ScheduleError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Which results the corpus provoked; every one of them has to show up.
#[derive(Debug, Default)]
struct Seen {
    ok: usize,
    wrong_length: usize,
    dependence: usize,
    latency: usize,
    conflict: usize,
}

fn check(cycles: Vec<Cycle>, ddg: &Ddg, what: &str, seen: &mut Seen) {
    let schedule = Schedule::from_cycles(cycles);
    oracle::assert_same(&schedule, ddg, what);
    match schedule.validate(ddg) {
        Ok(()) => seen.ok += 1,
        Err(ScheduleError::WrongLength { .. }) => seen.wrong_length += 1,
        Err(ScheduleError::DependenceViolation { .. }) => seen.dependence += 1,
        Err(ScheduleError::LatencyViolation { .. }) => seen.latency += 1,
        Err(ScheduleError::IssueConflict { .. }) => seen.conflict += 1,
    }
}

/// `ddg` rebuilt, optionally without its edges — def/use order is then all
/// that holds a use behind its definition — and optionally with its last
/// instruction defining, a second time, the first register any defines.
fn variant(ddg: &Ddg, edges: bool, second_def: bool) -> Ddg {
    let first_reg = ddg
        .ids()
        .find_map(|id| ddg.instr(id).defs().first().copied())
        .filter(|_| second_def);
    let mut b = DdgBuilder::new();
    for id in ddg.ids() {
        let instr = ddg.instr(id);
        let extra = first_reg.filter(|_| id.index() + 1 == ddg.len());
        b.instr(
            instr.name(),
            extra.into_iter().chain(instr.defs().iter().copied()),
            instr.uses().iter().copied(),
        );
    }
    for from in ddg.ids().filter(|_| edges) {
        for &(to, lat) in ddg.succs(from) {
            b.edge(from, to, lat).unwrap();
        }
    }
    b.build().unwrap()
}

/// Every targeted mutation of one valid schedule of `ddg`, then `random`
/// seeded ones.
fn mutate_all(ddg: &Ddg, what: &str, random: usize, seen: &mut Seen) {
    // Shifted by one so a use can be hoisted above a definition at cycle 0.
    let base: Vec<Cycle> = Schedule::from_order(ddg, ddg.topo_order())
        .cycles()
        .iter()
        .map(|c| c + 1)
        .collect();
    check(base.clone(), ddg, what, seen);

    check(base[..base.len() - 1].to_vec(), ddg, what, seen);
    let mut longer = base.clone();
    longer.push(base.len() as Cycle + 1);
    check(longer, ddg, what, seen);

    // A use hoisted to, and above, the first definition of its register.
    let first_def = |reg| ddg.ids().find(|&d| ddg.instr(d).defs().contains(&reg));
    for user in ddg.ids() {
        for &reg in ddg.instr(user).uses() {
            let Some(def) = first_def(reg).filter(|&d| d != user) else {
                continue;
            };
            for hoisted in [base[def.index()], base[def.index()] - 1] {
                let mut cycles = base.clone();
                cycles[user.index()] = hoisted;
                check(cycles, ddg, what, seen);
            }
        }
    }
    // A latency shaved by one cycle, and an edge's ends on one cycle.
    for from in ddg.ids() {
        for &(to, lat) in ddg.succs(from) {
            for gap in [Cycle::from(lat).saturating_sub(1), 0] {
                let mut cycles = base.clone();
                cycles[to.index()] = base[from.index()] + gap;
                check(cycles, ddg, what, seen);
            }
        }
    }
    // Two ids on one cycle, neighbours in id order.
    for i in 1..base.len() {
        let mut cycles = base.clone();
        cycles[i] = base[i - 1];
        check(cycles, ddg, what, seen);
    }
    let mut rng = SmallRng::seed_from_u64(base.len() as u64);
    for _ in 0..random {
        let mut cycles = base.clone();
        for _ in 0..rng.gen_range(1..4usize) {
            let i = rng.gen_range(0..cycles.len());
            cycles[i] = rng.gen_range(0..base.len() as Cycle + 3);
        }
        check(cycles, ddg, what, seen);
    }
}

#[test]
fn dense_validate_equals_the_hashmap_oracle_on_mutated_schedules() {
    let mut seen = Seen::default();
    let regions = [
        ("sized(40, 7)", patterns::sized(40, 7)),
        ("sized(120, 13)", patterns::sized(120, 13)),
        ("reduction(16, 3)", patterns::reduction(16, 3)),
        (
            "random_layered(6, 5, 11)",
            patterns::random_layered(6, 5, 11),
        ),
    ];
    for (what, ddg) in &regions {
        for (edges, second_def) in [(true, false), (false, false), (true, true), (false, true)] {
            let what = format!("{what}, edges {edges}, twice-defined {second_def}");
            mutate_all(&variant(ddg, edges, second_def), &what, 200, &mut seen);
        }
    }
    assert!(
        seen.ok > 0
            && seen.wrong_length > 0
            && seen.dependence > 0
            && seen.latency > 0
            && seen.conflict > 0,
        "the corpus must provoke every result: {seen:?}"
    );
}

#[test]
fn first_definition_wins_and_the_largest_register_id_is_covered() {
    let mut seen = Seen::default();
    // `c` reads v0, defined by `a` and again by `b`: it is held behind
    // `a`, the first definition in id order, and not behind `b`.
    let twice = textir::parse("instr a defs v0\ninstr b defs v0\ninstr c uses v0\n").unwrap();
    for cycles in [
        [0, 1, 2],
        [1, 2, 0],
        [2, 0, 1],
        [0, 2, 1],
        [1, 0, 2],
        [2, 1, 0],
    ] {
        check(cycles.to_vec(), &twice, "twice-defined v0", &mut seen);
    }
    assert_eq!(
        Schedule::from_cycles(vec![2, 0, 1]).validate(&twice),
        Err(ScheduleError::DependenceViolation {
            def: InstrId(0),
            user: InstrId(2),
            reg: gpu_aco::ir::Reg::vgpr(0),
        }),
        "behind `b` but not behind `a`"
    );
    assert_eq!(
        Schedule::from_cycles(vec![0, 2, 1]).validate(&twice),
        Ok(()),
        "behind `a` is enough"
    );

    let top = textir::parse(&format!(
        "instr a defs v{MAX_REG_ID},s{MAX_REG_ID}\ninstr b uses s{MAX_REG_ID}\n\
         instr c uses v{MAX_REG_ID},v0\n"
    ))
    .unwrap();
    for cycles in [[0, 1, 2], [1, 0, 2], [1, 2, 0], [2, 1, 0], [0, 1, 1]] {
        check(cycles.to_vec(), &top, "largest register id", &mut seen);
    }
    assert!(
        seen.ok > 0 && seen.dependence > 0 && seen.conflict > 0,
        "{seen:?}"
    );
}
