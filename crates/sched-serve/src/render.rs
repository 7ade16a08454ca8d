//! Report rendering shared by the daemon and the one-shot CLI.
//!
//! The acceptance bar for the serve transport is *byte identity*: a
//! `schedule` response body must equal what `gpu-aco-cli schedule
//! <region>` prints for the same options, with or without `--cache F`.
//! Rather than test two renderers against each other forever, there is
//! exactly one — this module — and both the CLI and the daemon's workers
//! call it: [`schedule_report`] for the pipeline kinds (`amd|cp|seq|par`),
//! and [`schedule_line`] under the CLI's direct `luc` and `exact` reports
//! too. Drift is structurally impossible.

use pipeline::{RegionCompilation, SchedulerKind, SuiteRun};
use sched_ir::{Ddg, Schedule};
use std::fmt::Write as _;

/// Renders the one-shot CLI's pipeline report for a compiled region: the
/// summary line plus the schedule line, newline-terminated. Fails (with
/// the CLI's exact error text) when the kept schedule does not validate
/// against the region.
pub fn schedule_report(
    ddg: &Ddg,
    occ: &machine_model::OccupancyModel,
    kind: SchedulerKind,
    comp: &RegionCompilation,
) -> Result<String, String> {
    let (sched, prp) = comp.kept_schedule();
    sched
        .validate(ddg)
        .map_err(|e| format!("internal error: invalid schedule: {e}"))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "pipeline {kind:?}: {} instructions in {} cycles ({} stalls), VGPR PRP {}, \
         SGPR PRP {}, occupancy {} (kept {:?})",
        ddg.len(),
        sched.length(),
        sched.stalls(),
        prp[0],
        prp[1],
        occ.occupancy(prp),
        comp.choice,
    );
    out.push_str(&schedule_line(ddg, sched));
    Ok(out)
}

/// Renders the CLI's `schedule:` line: instruction names in issue order
/// with `_` marking stall slots, newline-terminated.
pub fn schedule_line(ddg: &Ddg, schedule: &Schedule) -> String {
    let mut out = String::from("schedule:");
    let mut next = 0;
    for id in schedule.order() {
        let c = schedule.cycle(id);
        while next < c {
            out.push_str(" _");
            next += 1;
        }
        let _ = write!(out, " {}", ddg.instr(id).name());
        next = c + 1;
    }
    out.push('\n');
    out
}

/// Renders a suite run's summary payload: size, aggregate schedule
/// quality, ACO pass counts, modeled compile time, and the bitwise suite
/// fingerprint (`sched_verify::suite_fingerprint`) that pins the whole
/// run — the same quantity the golden tests compare against.
pub fn suite_report(run: &SuiteRun) -> String {
    let kernels = run.kernel_occupancy.len();
    let total_length: u64 = run.regions.iter().map(|r| u64::from(r.length)).sum();
    let occupancy_sum: u64 = run.regions.iter().map(|r| u64::from(r.occupancy)).sum();
    let pass1 = run.regions.iter().filter(|r| r.pass1_processed).count();
    let pass2 = run.regions.iter().filter(|r| r.pass2_processed).count();
    let kept = run.regions.iter().filter(|r| r.kept_aco).count();
    let reverted = run.regions.iter().filter(|r| r.reverted).count();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "suite {:?}: {kernels} kernels, {} regions",
        run.scheduler,
        run.regions.len(),
    );
    let _ = writeln!(
        out,
        "total length {total_length} cycles, occupancy sum {occupancy_sum}, \
         kept-aco {kept}, reverted {reverted}, pass1 {pass1}, pass2 {pass2}"
    );
    let _ = writeln!(out, "compile_time_s {:.6}", run.compile_time_s);
    let _ = writeln!(
        out,
        "fingerprint {:#018x}",
        sched_verify::suite_fingerprint(run)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine_model::OccupancyModel;
    use pipeline::{compile_region, PipelineConfig};
    use sched_ir::textir;

    const REGION: &str = "\
instr i0 defs v0
instr i1 defs v1 uses v0
instr i2 defs s0 uses v0
instr i3 uses v1,s0
edge 0 1 1
edge 0 2 1
edge 1 3 1
edge 2 3 1
";

    #[test]
    fn report_matches_cli_format() {
        let ddg = textir::parse(REGION).unwrap();
        let occ = OccupancyModel::vega_like();
        let cfg = PipelineConfig::paper(SchedulerKind::BaseAmd, 0);
        let comp = compile_region(&ddg, &occ, &cfg);
        let report = schedule_report(&ddg, &occ, SchedulerKind::BaseAmd, &comp).unwrap();
        let mut lines = report.lines();
        let head = lines.next().unwrap();
        assert!(
            head.starts_with("pipeline BaseAmd: 4 instructions in "),
            "unexpected header: {head}"
        );
        assert!(head.contains("(kept Heuristic)"), "header: {head}");
        let sched = lines.next().unwrap();
        assert!(sched.starts_with("schedule: "), "schedule line: {sched}");
        // All four instruction names appear in the schedule line.
        for name in ["i0", "i1", "i2", "i3"] {
            assert!(sched.split_whitespace().any(|t| t == name), "{sched}");
        }
        assert!(report.ends_with('\n'));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn schedule_line_marks_stall_slots() {
        // i1 depends on i0 with latency 3: cycles 1 and 2 are stalls.
        let ddg = textir::parse("instr i0 defs v0\ninstr i1 uses v0\nedge 0 1 3\n").unwrap();
        let occ = OccupancyModel::unit();
        let cfg = PipelineConfig::paper(SchedulerKind::CriticalPath, 0);
        let comp = compile_region(&ddg, &occ, &cfg);
        let report = schedule_report(&ddg, &occ, SchedulerKind::CriticalPath, &comp).unwrap();
        let sched = report.lines().nth(1).unwrap();
        assert_eq!(sched, "schedule: i0 _ _ i1");
    }
}
