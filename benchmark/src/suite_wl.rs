//! The suite workloads, untraced: `suite-unique`, `suite-dup`,
//! `suite-variants` and `frontend-large` through the pipeline's own
//! `compile_suite*` entry points at `min(nproc, 4)` host threads.

use crate::inputs::{self, Opts, Part, PartInput};
use crate::report::Report;
use crate::stats;
use machine_model::OccupancyModel;
use pipeline::{compile_suite, compile_suite_observed, PipelineConfig, SuiteRun};
use sched_ir::{textir, Ddg, Fnv64};
use std::time::Instant;
use workloads::{Kernel, Suite};

/// What one pass produced: the quantities that must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct PassOutcome {
    /// The parts' suite fingerprints folded together.
    pub fingerprint: u64,
    pub total_length: u64,
    pub total_occupancy: u64,
    pub modeled_sched_s: f64,
    /// Modeled throughput of every benchmark of every part, GB/s.
    pub throughputs: Vec<f64>,
    pub regions: usize,
}

impl PassOutcome {
    pub fn fold(runs: &[SuiteRun]) -> PassOutcome {
        let mut fp = Fnv64::new();
        for run in runs {
            fp.word(run.fingerprint);
        }
        PassOutcome {
            fingerprint: fp.finish(),
            total_length: runs.iter().map(SuiteRun::total_length).sum(),
            total_occupancy: runs.iter().map(SuiteRun::total_occupancy).sum(),
            modeled_sched_s: modeled_sched_s(
                runs.iter()
                    .flat_map(|r| r.regions.iter().map(|r| r.sched_time_us)),
            ),
            throughputs: runs
                .iter()
                .flat_map(|r| r.benchmark_throughput.iter().copied())
                .collect(),
            regions: runs.iter().map(|r| r.regions.len()).sum(),
        }
    }
}

/// Modeled scheduling seconds of a set of region compilations
/// (`SuiteRun::sched_time_s` over several runs). Summed in ascending order,
/// so the sum does not depend on the order the regions were compiled in
/// and repeats to the last bit whatever `--seed` ordered.
pub fn modeled_sched_s(region_us: impl Iterator<Item = f64>) -> f64 {
    let mut us: Vec<f64> = region_us.collect();
    us.sort_by(f64::total_cmp);
    us.iter().sum::<f64>() / 1e6
}

/// Parses a front-end part's text corpus back into a suite: the first
/// thing a pass of `frontend-large` does. `parse(region number, generated
/// region, text)` parses one region; the traced pass wraps it in a span.
pub fn parse_corpus(
    input: &PartInput,
    mut parse: impl FnMut(u64, &Ddg, &str) -> Result<Ddg, textir::ParseTextError>,
) -> Result<Suite, String> {
    let texts = input.texts.as_ref().expect("front-end parts carry text");
    let mut id = 0u64;
    let kernels = input
        .suite
        .kernels
        .iter()
        .zip(texts)
        .map(|(k, texts)| {
            let regions = texts
                .iter()
                .zip(&k.regions)
                .map(|(text, generated)| {
                    id += 1;
                    parse(id - 1, generated, text)
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("{}: {e}", k.name))?;
            Ok(Kernel {
                name: k.name.clone(),
                regions,
                bytes_per_launch: k.bytes_per_launch,
                latency_bound: k.latency_bound,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Suite {
        kernels,
        benchmarks: input.suite.benchmarks.clone(),
    })
}

/// A front-end part's suite as the pipeline gets it: parsed from the text
/// corpus. Text that does not parse is a failed operation, and the pass
/// goes on with the generated suite.
pub fn parsed_suite(
    input: &PartInput,
    parse: impl FnMut(u64, &Ddg, &str) -> Result<Ddg, textir::ParseTextError>,
    report: &mut Report,
) -> Suite {
    parse_corpus(input, parse).unwrap_or_else(|e| {
        report.op(false, || format!("text-IR did not parse: {e}"));
        input.suite.clone()
    })
}

/// Compiles one part. With `certify`, every region compilation the
/// pipeline reports — capped re-schedules included — goes through the
/// independent certifier and counts as one operation of `report`.
pub fn compile_part(
    part: &Part,
    input: &PartInput,
    cfg: &PipelineConfig,
    occ: &OccupancyModel,
    certify: bool,
    report: &mut Report,
) -> SuiteRun {
    let parsed;
    let suite = if part.front_end {
        parsed = parsed_suite(input, |_, _, text| textir::parse(text), report);
        &parsed
    } else {
        &input.suite
    };
    if !certify {
        return compile_suite(suite, occ, cfg);
    }
    let run = compile_suite_observed(suite, occ, cfg, |k, r, ddg, region_cfg, comp| {
        let diags = sched_verify::verify_region_compilation(ddg, occ, region_cfg, comp);
        report.op(!sched_verify::has_errors(&diags), || {
            format!("kernel {k} region {r}: {}", sched_verify::render(&diags))
        });
    });
    if let Some(analysis) = &run.analysis {
        report.op(analysis.is_clean(), || {
            format!("in-pipeline analysis denied: {:?}", analysis.deny_findings)
        });
    }
    run
}

/// One pass of the workload: every part, in order.
pub fn run_pass(
    parts: &[Part],
    inputs: &[PartInput],
    cfgs: &[PipelineConfig],
    occ: &OccupancyModel,
    certify: bool,
    report: &mut Report,
) -> PassOutcome {
    let runs: Vec<SuiteRun> = parts
        .iter()
        .zip(inputs)
        .zip(cfgs)
        .map(|((part, input), cfg)| {
            compile_part(part, input, cfg, occ, certify || part.front_end, report)
        })
        .collect();
    PassOutcome::fold(&runs)
}

/// Builds every part's input; returns it and the seconds the build took.
fn timed_build(opts: &Opts, parts: &[Part]) -> (Vec<PartInput>, f64) {
    let t = Instant::now();
    let built = parts
        .iter()
        .map(|p| inputs::build_part(p, opts.seed))
        .collect();
    (built, t.elapsed().as_secs_f64())
}

/// What [`timed_passes`] asks its caller to run and time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timed {
    /// One pass of the workload.
    Pass,
    /// One more set-up, thrown away once timed.
    Setup,
}

/// Runs timed passes: at least `MIN_PASSES` (one in smoke mode), then more
/// until `seconds` have been measured, and between them the set-ups of
/// `inputs::SETUP_SHARE`, whose seconds join `setup`. `run` returns the
/// seconds it measured.
pub fn timed_passes(
    opts: &Opts,
    setup: &mut Vec<f64>,
    mut run: impl FnMut(Timed) -> f64,
) -> Vec<f64> {
    let min = if opts.smoke { 1 } else { inputs::MIN_PASSES };
    let mut samples = Vec::new();
    let mut measured = 0.0;
    while samples.len() < min
        || (!opts.smoke && measured < opts.seconds && samples.len() < inputs::MAX_PASSES)
    {
        let s = run(Timed::Pass);
        measured += s;
        samples.push(s);
        while !opts.smoke && setup.iter().sum::<f64>() < inputs::SETUP_SHARE * measured {
            setup.push(run(Timed::Setup));
        }
    }
    samples
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced run of a suite workload.
pub fn run(opts: &Opts, parts: &[Part]) -> Report {
    let mut report = Report::end_to_end();
    let occ = OccupancyModel::vega_like();
    let threads = inputs::host_threads();
    let cfgs: Vec<PipelineConfig> = parts
        .iter()
        .map(|p| inputs::pipeline_config(p, threads))
        .collect();

    let mut setup = Vec::new();
    let mut built = Vec::new();
    while setup.len() < inputs::SETUP_REPEATS {
        let (b, s) = timed_build(opts, parts);
        built = b;
        setup.push(s);
    }

    // Warm-up pass, discarded from timing: the certified pass of the
    // correctness gate, and the reference every timed pass must repeat.
    let reference = run_pass(parts, &built, &cfgs, &occ, true, &mut report);
    println!(
        "host_threads {threads}  regions {}  fingerprint {:#018x}",
        reference.regions, reference.fingerprint,
    );

    let samples = timed_passes(opts, &mut setup, |timed| {
        if timed == Timed::Setup {
            return timed_build(opts, parts).1;
        }
        let t = Instant::now();
        let outcome = run_pass(parts, &built, &cfgs, &occ, false, &mut report);
        let s = t.elapsed().as_secs_f64();
        report.op(outcome == reference, || {
            format!(
                "a timed pass did not repeat the certified pass: fingerprint {:#018x} vs {:#018x}",
                outcome.fingerprint, reference.fingerprint
            )
        });
        s
    });

    report.set_summary("setup_s", stats::summarize(&setup));
    report.set_summary("compile_s", stats::summarize(&samples));
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("total_length", reference.total_length as f64);
    report.set("total_occupancy", reference.total_occupancy as f64);
    report.also("modeled_sched_s", reference.modeled_sched_s, None);
    report.also(
        "throughput_geomean_gbs",
        stats::geomean(&reference.throughputs),
        None,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(seconds: f64, smoke: bool) -> Opts {
        Opts {
            workload: "suite-unique".into(),
            seed: 5,
            seconds,
            trace: false,
            smoke,
        }
    }

    #[test]
    fn modeled_time_does_not_depend_on_region_order() {
        // Three values whose sum depends on the order they are added in.
        let us = [1e16, 1.0, -1e16, 3.0, 0.1];
        let mut other = us;
        other.reverse();
        assert_ne!(us.iter().sum::<f64>(), other.iter().sum::<f64>());
        assert_eq!(
            modeled_sched_s(us.into_iter()),
            modeled_sched_s(other.into_iter())
        );
        assert_eq!(modeled_sched_s([2e6, 1e6].into_iter()), 3.0);
    }

    #[test]
    fn passes_fill_the_seconds_and_set_up_keeps_its_share() {
        let mut setup = vec![0.01; inputs::SETUP_REPEATS];
        let mut order = Vec::new();
        let samples = timed_passes(&opts(3.5, false), &mut setup, |timed| {
            order.push(timed);
            match timed {
                Timed::Pass => 1.0,
                Timed::Setup => 0.01,
            }
        });
        assert_eq!(samples, vec![1.0; 4], "passes run until 3.5 s are measured");
        assert!(setup.iter().sum::<f64>() >= inputs::SETUP_SHARE * 4.0);
        assert!(setup.iter().sum::<f64>() < inputs::SETUP_SHARE * 4.0 + 0.02);
        // Set-ups are spread between the passes, not bunched at one end.
        let last_pass = order.iter().rposition(|&t| t == Timed::Pass).unwrap();
        let first_pass = order.iter().position(|&t| t == Timed::Pass).unwrap();
        assert!(order[first_pass..last_pass].contains(&Timed::Setup));
    }

    #[test]
    fn short_runs_still_take_the_minimum_of_passes() {
        let mut setup = Vec::new();
        let samples = timed_passes(&opts(0.1, false), &mut setup, |_| 1.0);
        assert_eq!(samples.len(), inputs::MIN_PASSES);
        // A smoke run takes one pass and no further set-ups.
        let mut setup = Vec::new();
        let samples = timed_passes(&opts(10.0, true), &mut setup, |_| 1.0);
        assert_eq!((samples.len(), setup.len()), (1, 0));
    }
}
