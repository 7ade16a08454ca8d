//! The certificate checker: independent re-verification of scheduler
//! claims.
//!
//! A scheduler's output is treated as a *certificate*: a schedule plus the
//! claims it makes about that schedule (issue order, peak register
//! pressure, occupancy, length). Everything is recomputed here from first
//! principles — ordering and latency constraints from the DDG edges,
//! def/use ordering from the instructions' register sets, live ranges and
//! peak pressure from a from-scratch interval sweep, occupancy and cost
//! from the [`machine_model::OccupancyModel`] — and compared against the
//! claims. This module deliberately shares no code with the `reg-pressure`
//! crate, so a bug in the production pressure tracker cannot certify its
//! own wrong answer.

use crate::diag::codes;
use aco::{pass2_target, AcoConfig, AcoResult};
use exact_sched::ExactResult;
use list_sched::ScheduleResult;
use machine_model::{OccupancyModel, Waves};
use sched_analyze::{Anchor, Finding, Level};
use sched_ir::{Cycle, Ddg, InstrId, RegClass, RegTable, Schedule, REG_CLASS_COUNT};

/// What a scheduler claims about a schedule.
#[derive(Debug, Clone, Copy)]
pub struct Claim<'a> {
    /// Claimed issue order (checked against the schedule's cycles).
    pub order: Option<&'a [InstrId]>,
    /// Claimed peak register pressure per class.
    pub prp: [u32; REG_CLASS_COUNT],
    /// Claimed occupancy (skipped when the producer does not report one).
    pub occupancy: Option<Waves>,
    /// Claimed schedule length in cycles.
    pub length: Cycle,
}

/// Recomputes peak register pressure per class for an issue order, from
/// first principles.
///
/// Live-range model (matching the paper's SSA-region semantics): a register
/// used but never defined in the region is live-in — live from region entry
/// (counting toward the *initial* peak) until its last use; a register
/// defined but never used is live-out — live from its definition to region
/// end; otherwise a register is live from its definition until its last
/// use. At one issue position, ranges ending there close before ranges
/// starting there open, and the peak is sampled after both.
///
/// Invalid orders (a use positioned at or before its def) do not panic;
/// the offending range simply contributes nothing — the dependence check
/// reports the real problem separately.
pub fn recompute_prp(ddg: &Ddg, order: &[InstrId]) -> [u32; REG_CLASS_COUNT] {
    let n = order.len();
    // An id listed twice takes its last position, at every mention.
    let mut pos = vec![0usize; ddg.len()];
    for (p, &id) in order.iter().enumerate() {
        pos[id.index()] = p;
    }

    #[derive(Default, Clone, Copy)]
    struct Life {
        def: Option<usize>,
        last_use: Option<usize>,
    }
    let mut life: RegTable<Life> = RegTable::new();
    for &id in order {
        let p = pos[id.index()];
        let instr = ddg.instr(id);
        for &r in instr.defs() {
            let l = life.slot(r);
            // First def wins (SSA; duplicate defs are a lint, not a crash).
            if l.def.is_none() {
                l.def = Some(p);
            }
        }
        for &r in instr.uses() {
            let l = life.slot(r);
            l.last_use = Some(l.last_use.map_or(p, |u| u.max(p)));
        }
    }

    // Per-position net change, closes applied before opens.
    let mut opens = vec![[0i64; REG_CLASS_COUNT]; n];
    let mut closes = vec![[0i64; REG_CLASS_COUNT]; n];
    let mut current = [0i64; REG_CLASS_COUNT];
    for c in 0..REG_CLASS_COUNT {
        for l in life.class(c) {
            match (l.def, l.last_use) {
                // Live-in: counted from region entry, closes at its last
                // use.
                (None, Some(u)) => {
                    current[c] += 1;
                    closes[u][c] -= 1;
                }
                // Live-out: opens at its def, never closes.
                (Some(d), None) => opens[d][c] += 1,
                // Interior: opens at its def, closes at its last use —
                // unless the order is invalid (use at or before def), in
                // which case the range is empty and contributes nothing.
                (Some(d), Some(u)) => {
                    if u > d {
                        opens[d][c] += 1;
                        closes[u][c] -= 1;
                    }
                }
                // An id below the class's highest that nothing mentions.
                (None, None) => {}
            }
        }
    }

    // The entry state (live-ins) counts toward the peak.
    let mut peak = current;
    for p in 0..n {
        for c in 0..REG_CLASS_COUNT {
            current[c] += closes[p][c];
            current[c] += opens[p][c];
            peak[c] = peak[c].max(current[c]);
        }
    }
    let mut out = [0u32; REG_CLASS_COUNT];
    for c in 0..REG_CLASS_COUNT {
        out[c] = peak[c].max(0) as u32;
    }
    out
}

/// Checks a schedule and the claims made about it, returning every
/// violation found.
///
/// When the schedule does not even cover the DDG (wrong length), that
/// single diagnostic is returned and everything else is skipped — no other
/// check is meaningful against a truncated schedule.
pub fn certify_schedule(
    ddg: &Ddg,
    occ: &OccupancyModel,
    schedule: &Schedule,
    claim: &Claim<'_>,
) -> Vec<Finding> {
    let mut diags = Vec::new();
    if schedule.len() != ddg.len() {
        diags.push(Finding::new(
            codes::WRONG_LENGTH,
            Level::Deny,
            Anchor::Region,
            format!(
                "schedule assigns cycles to {} instructions, DDG has {}",
                schedule.len(),
                ddg.len()
            ),
        ));
        return diags;
    }

    // C002 — def/use ordering straight from the register sets, independent
    // of whether the builder materialized an edge for the dependence.
    let mut def_of: RegTable<Option<InstrId>> = RegTable::new();
    for id in ddg.ids() {
        for &r in ddg.instr(id).defs() {
            def_of.slot(r).get_or_insert(id);
        }
    }
    for id in ddg.ids() {
        for &r in ddg.instr(id).uses() {
            if let Some(&Some(def)) = def_of.get(r) {
                if def != id && schedule.cycle(id) <= schedule.cycle(def) {
                    diags.push(Finding::new(
                        codes::DEPENDENCE,
                        Level::Deny,
                        Anchor::Reg(r),
                        format!(
                            "{id} reads {r} at cycle {} but its definition by {def} \
                             issues at cycle {}",
                            schedule.cycle(id),
                            schedule.cycle(def)
                        ),
                    ));
                }
            }
        }
    }

    // C003 — every materialized edge's latency.
    for id in ddg.ids() {
        for &(succ, lat) in ddg.succs(id) {
            let required = schedule.cycle(id) + lat as Cycle;
            if schedule.cycle(succ) < required {
                diags.push(Finding::new(
                    codes::LATENCY,
                    Level::Deny,
                    Anchor::Edge {
                        from: id.0,
                        to: succ.0,
                    },
                    format!(
                        "{succ} must issue at cycle {required} or later \
                         (producer {id} + latency {lat}), but issues at {}",
                        schedule.cycle(succ)
                    ),
                ));
            }
        }
    }

    // C004 — single-issue machine: one instruction per cycle.
    let derived_order = schedule.order();
    for pair in derived_order.windows(2) {
        if schedule.cycle(pair[0]) == schedule.cycle(pair[1]) {
            diags.push(Finding::new(
                codes::ISSUE_CONFLICT,
                Level::Deny,
                Anchor::Node(pair[1].0),
                format!(
                    "{} and {} both issue at cycle {}",
                    pair[0],
                    pair[1],
                    schedule.cycle(pair[0])
                ),
            ));
        }
    }

    // C011 — a claimed order must be a permutation of the region issued in
    // strictly increasing cycles (i.e. it must *be* the schedule's order).
    let mut prp_order: &[InstrId] = &derived_order;
    if let Some(order) = claim.order {
        let mut seen = vec![false; ddg.len()];
        let perm = order.len() == ddg.len()
            && order.iter().all(|&id| {
                let i = id.index();
                i < ddg.len() && !std::mem::replace(&mut seen[i], true)
            });
        let increasing = order
            .windows(2)
            .all(|w| schedule.cycle(w[0]) < schedule.cycle(w[1]));
        if perm && increasing {
            prp_order = order;
        } else {
            diags.push(Finding::new(
                codes::ORDER_MISMATCH,
                Level::Deny,
                Anchor::Region,
                if perm {
                    "claimed order is not issued in strictly increasing cycles".to_string()
                } else {
                    "claimed order is not a permutation of the region".to_string()
                },
            ));
        }
    }

    // C005 — from-scratch PRP recomputation against the claim, per class.
    let recomputed = recompute_prp(ddg, prp_order);
    for (c, (&got, &claimed)) in recomputed.iter().zip(&claim.prp).enumerate() {
        if got != claimed {
            let class = if c == RegClass::Vgpr.index() {
                RegClass::Vgpr
            } else {
                RegClass::Sgpr
            };
            diags.push(Finding::new(
                codes::PRP_MISMATCH,
                Level::Deny,
                Anchor::Region,
                format!(
                    "claimed {class:?} peak pressure {claimed} but recomputed live \
                     ranges give {got}"
                ),
            ));
        }
    }

    // C006 — occupancy must follow from the recomputed pressure.
    if let Some(claimed_occ) = claim.occupancy {
        let actual = occ.occupancy(recomputed);
        if actual != claimed_occ {
            diags.push(Finding::new(
                codes::OCCUPANCY_MISMATCH,
                Level::Deny,
                Anchor::Region,
                format!(
                    "claimed occupancy {claimed_occ} waves but PRP {recomputed:?} \
                     implies {actual}"
                ),
            ));
        }
    }

    // C007 — claimed length against the schedule's actual length.
    if schedule.length() != claim.length {
        diags.push(Finding::new(
            codes::LENGTH_MISMATCH,
            Level::Deny,
            Anchor::Region,
            format!(
                "claimed length {} but the schedule spans {} cycles",
                claim.length,
                schedule.length()
            ),
        ));
    }

    // C008 / C009 — lower-bound consistency: no valid result may beat the
    // bounds the search trusts. Only meaningful for structurally valid
    // schedules; an invalid one already failed above.
    let structurally_valid = diags.is_empty();
    if structurally_valid {
        let length_lb = ddg.schedule_length_lb();
        if schedule.length() < length_lb {
            diags.push(Finding::new(
                codes::LENGTH_BELOW_LB,
                Level::Deny,
                Anchor::Region,
                format!(
                    "schedule length {} is below the DDG lower bound {length_lb}",
                    schedule.length()
                ),
            ));
        }
        let rp_lb = ddg.rp_lower_bound();
        for c in 0..REG_CLASS_COUNT {
            if (recomputed[c] as usize) < rp_lb[c] {
                diags.push(Finding::new(
                    codes::PRP_BELOW_LB,
                    Level::Deny,
                    Anchor::Region,
                    format!(
                        "recomputed peak pressure {} (class {c}) is below the \
                         register-pressure lower bound {}",
                        recomputed[c], rp_lb[c]
                    ),
                ));
            }
        }
    }
    diags
}

/// Certifies a list scheduler's [`ScheduleResult`].
pub fn certify_list(ddg: &Ddg, occ: &OccupancyModel, r: &ScheduleResult) -> Vec<Finding> {
    certify_schedule(
        ddg,
        occ,
        &r.schedule,
        &Claim {
            order: Some(&r.order),
            prp: r.prp,
            occupancy: Some(r.occupancy),
            length: r.length,
        },
    )
}

/// Certifies a two-pass ACO result: the final schedule, the initial
/// heuristic schedule it started from, and the two-pass invariant — the
/// final schedule's register-pressure cost may not exceed the pass-2
/// target derived from the pass-1 best cost (relaxed to the occupancy
/// cap's APRP band when one is set).
pub fn certify_aco(
    ddg: &Ddg,
    occ: &OccupancyModel,
    cfg: &AcoConfig,
    r: &AcoResult,
) -> Vec<Finding> {
    let mut diags = certify_schedule(
        ddg,
        occ,
        &r.schedule,
        &Claim {
            order: Some(&r.order),
            prp: r.prp,
            occupancy: Some(r.occupancy),
            length: r.length,
        },
    );
    diags.extend(certify_list(ddg, occ, &r.initial));

    // C010 — the two-pass invariant. Trivial results (region too small for
    // ACO) report a zero pass-1 cost without having measured one; the
    // invariant is vacuous there.
    let trivial = r.pass1.iterations == 0 && r.pass1.best_cost == 0;
    if !trivial {
        let target = pass2_target(cfg, occ, r.pass1.best_cost);
        let final_cost = occ.rp_cost(recompute_prp(ddg, &r.order));
        if final_cost > target {
            diags.push(Finding::new(
                codes::TWO_PASS_INVARIANT,
                Level::Deny,
                Anchor::Region,
                format!(
                    "final pressure cost {final_cost} exceeds the pass-2 target \
                     {target} (pass-1 best cost {})",
                    r.pass1.best_cost
                ),
            ));
        }
        // Pass 1 starts from the initial heuristic schedule, so its best
        // cost can only be at or below the initial cost.
        let initial_cost = occ.rp_cost(r.initial.prp);
        if r.pass1.best_cost > initial_cost {
            diags.push(Finding::new(
                codes::TWO_PASS_INVARIANT,
                Level::Deny,
                Anchor::Region,
                format!(
                    "pass-1 best cost {} is above the initial heuristic cost \
                     {initial_cost} it started from",
                    r.pass1.best_cost
                ),
            ));
        }
    }
    diags
}

/// Certifies an exact (branch-and-bound) result.
pub fn certify_exact(ddg: &Ddg, occ: &OccupancyModel, r: &ExactResult) -> Vec<Finding> {
    let mut diags = certify_schedule(
        ddg,
        occ,
        &r.schedule,
        &Claim {
            order: Some(&r.order),
            prp: r.prp,
            occupancy: None,
            length: r.length,
        },
    );
    // C012 — the claimed scalar cost must follow from the claimed PRP.
    let implied = occ.rp_cost(r.prp);
    if r.rp_cost != implied {
        diags.push(Finding::new(
            codes::EXACT_INCONSISTENT,
            Level::Deny,
            Anchor::Region,
            format!(
                "claimed rp_cost {} but claimed PRP {:?} implies {implied}",
                r.rp_cost, r.prp
            ),
        ));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::has_errors;
    use list_sched::{Heuristic, ListScheduler};
    use sched_ir::figure1;

    #[test]
    fn figure1_known_orders_recompute_to_paper_prps() {
        let ddg = figure1::ddg();
        // Program order A..G peaks at 4 VGPRs; the paper's optimized order
        // peaks at 3 (Figure 1).
        let program: Vec<InstrId> = (0..7).map(InstrId).collect();
        assert_eq!(recompute_prp(&ddg, &program)[0], 4);
        let optimized: Vec<InstrId> = [2, 3, 5, 0, 1, 4, 6].map(InstrId).to_vec();
        assert_eq!(recompute_prp(&ddg, &optimized)[0], 3);
    }

    #[test]
    fn list_schedule_certifies_clean() {
        let ddg = figure1::ddg();
        let occ = OccupancyModel::vega_like();
        let r = ListScheduler::new(Heuristic::AmdMaxOccupancy).schedule(&ddg, &occ);
        let diags = certify_list(&ddg, &occ, &r);
        assert!(diags.is_empty(), "{}", crate::diag::render(&diags));
    }

    #[test]
    fn inflated_prp_claim_is_caught() {
        let ddg = figure1::ddg();
        let occ = OccupancyModel::vega_like();
        let mut r = ListScheduler::new(Heuristic::AmdMaxOccupancy).schedule(&ddg, &occ);
        r.prp[0] += 1;
        let diags = certify_list(&ddg, &occ, &r);
        assert!(has_errors(&diags));
        assert!(diags.iter().any(|d| d.code == codes::PRP_MISMATCH));
    }

    #[test]
    fn truncated_schedule_bails_with_wrong_length_only() {
        let ddg = figure1::ddg();
        let occ = OccupancyModel::vega_like();
        let schedule = Schedule::from_cycles(vec![0, 1, 2]);
        let claim = Claim {
            order: None,
            prp: [0; REG_CLASS_COUNT],
            occupancy: None,
            length: 3,
        };
        let diags = certify_schedule(&ddg, &occ, &schedule, &claim);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::WRONG_LENGTH);
    }

    #[test]
    fn invalid_order_does_not_panic_prp_recompute() {
        let ddg = figure1::ddg();
        // Reversed program order puts every use before its def.
        let rev: Vec<InstrId> = (0..7).rev().map(InstrId).collect();
        let prp = recompute_prp(&ddg, &rev);
        assert!(prp[0] <= 7);
    }
}
