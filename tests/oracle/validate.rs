//! Test oracle for `Schedule::validate`: the body it had while its
//! def table was a per-call `HashMap<Reg, InstrId>`, kept verbatim as the
//! reference for the dense `RegTable` one. Error type, ids and registers
//! are the product's own, so results compare by value.
//!
//! `tests/validate_exact.rs` and `tests/golden_bitwise.rs` hold the
//! product to it.

use gpu_aco::ir::{Cycle, Ddg, InstrId, Reg, Schedule, ScheduleError};
use std::collections::HashMap;

pub fn validate(schedule: &Schedule, ddg: &Ddg) -> Result<(), ScheduleError> {
    if schedule.cycles().len() != ddg.len() {
        return Err(ScheduleError::WrongLength {
            expected: ddg.len(),
            actual: schedule.cycles().len(),
        });
    }
    let mut def_of: HashMap<Reg, InstrId> = HashMap::new();
    for id in ddg.ids() {
        for &r in ddg.instr(id).defs() {
            def_of.entry(r).or_insert(id);
        }
    }
    for id in ddg.ids() {
        for &r in ddg.instr(id).uses() {
            if let Some(&def) = def_of.get(&r) {
                if def != id && schedule.cycle(id) <= schedule.cycle(def) {
                    return Err(ScheduleError::DependenceViolation {
                        def,
                        user: id,
                        reg: r,
                    });
                }
            }
        }
    }
    for id in ddg.ids() {
        for &(succ, lat) in ddg.succs(id) {
            let required = schedule.cycle(id) + lat as Cycle;
            if schedule.cycle(succ) < required {
                return Err(ScheduleError::LatencyViolation {
                    from: id,
                    to: succ,
                    required,
                    actual: schedule.cycle(succ),
                });
            }
        }
    }
    let order = schedule.order();
    for pair in order.windows(2) {
        if schedule.cycle(pair[0]) == schedule.cycle(pair[1]) {
            return Err(ScheduleError::IssueConflict {
                cycle: schedule.cycle(pair[0]),
                a: pair[0],
                b: pair[1],
            });
        }
    }
    Ok(())
}

/// Asserts the product's `validate` returns the oracle's value.
pub fn assert_same(schedule: &Schedule, ddg: &Ddg, what: &str) {
    assert_eq!(
        schedule.validate(ddg),
        validate(schedule, ddg),
        "Schedule::validate differs from the HashMap oracle on {what}"
    );
}
