//! The `--trace 1` run of the suite workloads, and the layer replays the
//! serve workloads share.
//!
//! Single-threaded and outside-in: the benchmark drives the pipeline's
//! public pieces by hand — `plan_suite_jobs` → `host_pool::run_job` →
//! `SuiteMerger::consume`/`finish` — with a span around every call, then
//! replays each region through each layer's public entry point so the
//! time inside `run_job` can be attributed to list scheduling and ACO.
//! Nothing inside the product crates is instrumented.

use crate::inputs::{self, Opts, Part, PartInput};
use crate::report::Report;
use crate::stats;
use crate::suite_wl::{self, PassOutcome};
use crate::trace::{spanned, Band, SharedTracer, Tracer};
use aco::{
    AntContext, ParallelScheduler, Pass1Ant, Pass2Ant, Pass2Step, PheromoneTable,
    SequentialScheduler,
};
use gpu_sim::GpuSpec;
use list_sched::{Heuristic, ListScheduler, RegionAnalysis};
use machine_model::{OccupancyLut, OccupancyModel};
use pipeline::host_pool::run_job;
use pipeline::{
    compile_region, compile_suite_timed, compile_suite_with_cache, plan_suite_jobs, CacheStats,
    PipelineConfig, RegionCompilation, RegionJob, ScheduleCache, SchedulerKind, SuiteMerger,
    SuiteRun,
};
use reg_pressure::{PressureTracker, RegUniverse};
use sched_ir::{textir, Ddg};
use std::cell::RefCell;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;
use workloads::Suite;

/// Counts the spans cannot carry: exact work done by the replays.
#[derive(Debug, Default)]
pub struct Counts {
    pub regions: u64,
    pub instrs: u64,
    pub text_bytes: u64,
    pub list_instrs: u64,
    pub pressure_instrs: u64,
    pub pass1_iterations: u64,
    pub pass2_iterations: u64,
    pub sequential_ops: u64,
    pub modeled_us: f64,
    pub divergent_steps: u64,
    pub mem_transactions: u64,
    pub schedules_certified: u64,
    pub analyze_findings: u64,
    pub reschedules: u64,
    pub jobs: u64,
    pub cache: CacheStats,
    pub pass1_ant_steps: u64,
    pub pass2_ant_steps: u64,
    pub pheromone_entries: u64,
    pub kernel_cycles_calls: u64,
}

/// Where the trace file of `workload` goes: `out/` beside this package's
/// manifest, inside the checkout whichever directory the run started in.
pub fn trace_path(workload: &str) -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest)
        .join("out")
        .join(format!("trace-{workload}.json"))
}

/// Writes the trace file; a failure to write is a failed operation.
pub fn write_trace(tracer: &Tracer, workload: &str, report: &mut Report) {
    let path = trace_path(workload);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, tracer.to_json(workload)));
    report.op(written.is_ok(), || {
        format!("writing {}: {}", path.display(), written.unwrap_err())
    });
    println!("trace written to {}", path.display());
}

/// Replays one region through the entry points that take only the region:
/// the text front end, the content fingerprint and the DDG analyses.
/// `in_pass_parse` skips the parse replay when the traced pass itself
/// already parsed this region under a span.
pub fn replay_region(
    tr: &SharedTracer,
    counts: &mut Counts,
    id: u64,
    ddg: &Ddg,
    in_pass_parse: bool,
) {
    let band = Band::of(ddg.len());
    counts.regions += 1;
    counts.instrs += ddg.len() as u64;
    let text = spanned(tr, "sched_ir.textir_print", id, band, || {
        textir::to_text(ddg)
    });
    if !in_pass_parse {
        counts.text_bytes += text.len() as u64;
        let parsed = spanned(tr, "sched_ir.textir_parse", id, band, || {
            textir::parse(&text)
        });
        black_box(parsed.is_ok());
    }
    spanned(tr, "sched_ir.content_fingerprint", id, band, || {
        black_box(sched_ir::ddg_content_fingerprint(ddg))
    });
    spanned(tr, "sched_ir.closure", id, band, || {
        black_box(ddg.transitive_closure().len())
    });
    spanned(tr, "sched_ir.bounds", id, band, || {
        black_box((
            ddg.earliest_starts().len(),
            ddg.distance_to_leaf().len(),
            ddg.schedule_length_lb(),
            ddg.rp_lower_bound(),
        ))
    });
    spanned(tr, "list_sched.analysis", id, band, || {
        black_box(RegionAnalysis::new(ddg).ready_list_ub)
    });
}

/// Replays the two sched-ir steps the daemon runs on a request it then
/// answers from its cache: the text-IR parse and the content fingerprint.
pub fn replay_front_end(tr: &SharedTracer, counts: &mut Counts, id: u64, ddg: &Ddg, text: &str) {
    let band = Band::of(ddg.len());
    counts.regions += 1;
    counts.instrs += ddg.len() as u64;
    counts.text_bytes += text.len() as u64;
    spanned(tr, "sched_ir.textir_parse", id, band, || {
        black_box(textir::parse(text).is_ok())
    });
    spanned(tr, "sched_ir.content_fingerprint", id, band, || {
        black_box(sched_ir::ddg_content_fingerprint(ddg))
    });
}

/// Replays the heuristic half of a region compilation: the list scheduler,
/// then its order stepped through the pressure tracker.
pub fn replay_heuristic(
    tr: &SharedTracer,
    counts: &mut Counts,
    id: u64,
    ddg: &Ddg,
    occ: &OccupancyModel,
) {
    let band = Band::of(ddg.len());
    let result = spanned(tr, "list_sched.schedule", id, band, || {
        ListScheduler::new(Heuristic::AmdMaxOccupancy).schedule(ddg, occ)
    });
    counts.list_instrs += ddg.len() as u64;
    spanned(tr, "reg_pressure.replay", id, band, || {
        let universe = RegUniverse::new(ddg);
        let mut tracker = PressureTracker::new(&universe);
        for &i in &result.order {
            tracker.issue(i);
        }
        black_box(tracker.peak())
    });
    counts.pressure_instrs += ddg.len() as u64;
}

/// Replays one parallel-ACO scheduling of `ddg` and keeps its exact work
/// counts (iterations and the simulated device's counters).
pub fn replay_parallel_aco(
    tr: &SharedTracer,
    counts: &mut Counts,
    id: u64,
    ddg: &Ddg,
    occ: &OccupancyModel,
    cfg: &PipelineConfig,
) {
    let out = spanned(tr, "aco.parallel_schedule", id, Band::of(ddg.len()), || {
        ParallelScheduler::new(cfg.aco).schedule(ddg, occ)
    });
    counts.pass1_iterations += u64::from(out.result.pass1.iterations);
    counts.pass2_iterations += u64::from(out.result.pass2.iterations);
    counts.modeled_us += out.gpu.total_us();
    counts.divergent_steps += out.gpu.divergent_steps;
    counts.mem_transactions += out.gpu.mem_transactions;
}

/// Times the innermost loops on the ≥100-instruction band: one pass-1 and
/// one pass-2 ant construction, one pheromone update, and the simulated
/// device's per-iteration cost accounting.
pub fn micro_benches(
    tr: &SharedTracer,
    counts: &mut Counts,
    regions: &[&Ddg],
    occ: &OccupancyModel,
    cfg: &PipelineConfig,
) {
    let lut = OccupancyLut::new(occ);
    for (i, ddg) in regions.iter().enumerate() {
        let (id, band) = (i as u64, Band::of(ddg.len()));
        let analysis = RegionAnalysis::new(ddg);
        let universe = RegUniverse::new(ddg);
        let ctx = AntContext {
            ddg,
            analysis: &analysis,
            universe: &universe,
            lut: &lut,
            cfg: &cfg.aco,
        };
        let mut pheromone = PheromoneTable::new(ddg.len(), cfg.aco.initial_pheromone);
        let mut ant1 = Pass1Ant::new(&ctx, cfg.aco.heuristic, cfg.aco.seed);
        let p1 = spanned(tr, "aco.pass1_ant", id, band, || ant1.run(&ctx, &pheromone));
        counts.pass1_ant_steps += ddg.len() as u64;
        // Unconstrained pass 2 (no pressure target), so the ant cannot die
        // and every run constructs a whole schedule.
        let mut ant2 = Pass2Ant::new(&ctx, cfg.aco.heuristic, cfg.aco.seed, u64::MAX, true);
        let steps = spanned(tr, "aco.pass2_ant", id, band, || {
            let mut steps = 0u64;
            while matches!(
                ant2.step(&ctx, &pheromone, None),
                Pass2Step::Issued { .. } | Pass2Step::Stalled { .. }
            ) {
                steps += 1;
            }
            steps
        });
        counts.pass2_ant_steps += steps;
        spanned(tr, "aco.pheromone_update", id, band, || {
            pheromone.evaporate(cfg.aco.decay, cfg.aco.tau_min);
            pheromone.deposit_order(&p1.order, cfg.aco.deposit, cfg.aco.tau_max);
        });
        counts.pheromone_entries += pheromone.entries() as u64;
        black_box(pheromone.get(None, p1.order[0]));
    }
    // One colony's worth of wavefront loads, as one ACO iteration hands
    // them to the device model.
    let spec = GpuSpec::radeon_vii();
    let loads: Vec<u64> = (0..u64::from(cfg.aco.blocks))
        .map(|b| 10_000 + 37 * b)
        .collect();
    const CALLS: u64 = 20_000;
    spanned(tr, "gpu_sim.kernel_cycles", 0, Band::None, || {
        for _ in 0..CALLS {
            black_box(spec.kernel_cycles(black_box(&loads)));
        }
    });
    counts.kernel_cycles_calls += CALLS;
}

/// One region compilation the merge reported to the observer.
struct Observation {
    kernel: usize,
    region: usize,
    cfg: PipelineConfig,
    comp: RegionCompilation,
}

/// What the hand-driven pass knows about one job once it has run.
struct JobNote<'a> {
    index: usize,
    job: &'a RegionJob,
    /// The job compiled something (a cache miss or bypass), so its time
    /// went to list scheduling and ACO rather than to a cache hit.
    compiled: bool,
    /// The configuration a solo job's construction ran under.
    solo_cfg: PipelineConfig,
}

/// The result of hand-driving one part.
struct TracedPart {
    run: SuiteRun,
    suite: Suite,
    observations: Vec<Observation>,
    cache: Option<ScheduleCache>,
}

fn job_size(job: &RegionJob, suite: &Suite) -> usize {
    match job {
        RegionJob::Solo { kernel, region } => suite.kernels[*kernel].regions[*region].len(),
        RegionJob::Group { kernel, members } => members
            .iter()
            .map(|&r| suite.kernels[*kernel].regions[r].len())
            .sum(),
    }
}

/// Drives one part through the pipeline's public pieces, one span per
/// call. A front-end part parses its corpus first and certifies inside
/// the merge's observer, as its untraced pass does.
fn traced_part(
    tr: &SharedTracer,
    counts: &mut Counts,
    part: &Part,
    input: &PartInput,
    cfg: &PipelineConfig,
    occ: &OccupancyModel,
    report: &mut Report,
) -> TracedPart {
    let suite = if part.front_end {
        let parse = |id: u64, generated: &Ddg, text: &str| {
            counts.text_bytes += text.len() as u64;
            let band = Band::of(generated.len());
            spanned(tr, "sched_ir.textir_parse", id, band, || {
                textir::parse(text)
            })
        };
        suite_wl::parsed_suite(input, parse, report)
    } else {
        input.suite.clone()
    };

    let jobs = spanned(tr, "pipeline.plan", 0, Band::None, || {
        plan_suite_jobs(&suite, cfg)
    });
    let cache = cfg.cache.enabled.then(ScheduleCache::new);
    let observations = RefCell::new(Vec::new());
    let run = {
        let mut merger = SuiteMerger::new(
            &suite,
            occ,
            cfg,
            &jobs,
            cache.as_ref(),
            None,
            |k, r, ddg, region_cfg, comp| {
                if part.front_end {
                    let id = ((k as u64) << 32) | r as u64;
                    let diags =
                        spanned(tr, "sched_verify.certify", id, Band::of(ddg.len()), || {
                            sched_verify::verify_region_compilation(ddg, occ, region_cfg, comp)
                        });
                    report.op(!sched_verify::has_errors(&diags), || {
                        format!("kernel {k} region {r}: {}", sched_verify::render(&diags))
                    });
                }
                observations.borrow_mut().push(Observation {
                    kernel: k,
                    region: r,
                    cfg: *region_cfg,
                    comp: comp.clone(),
                });
            },
        );
        for (i, job) in jobs.iter().enumerate() {
            let band = Band::of(job_size(job, &suite));
            let before = cache.as_ref().map(ScheduleCache::stats).unwrap_or_default();
            let outcomes = spanned(tr, "pipeline.run_job", i as u64, band, || {
                run_job(job, &suite, occ, cfg, cache.as_ref(), None)
            });
            let delta = cache
                .as_ref()
                .map(|c| c.stats().since(before))
                .unwrap_or_default();
            let note = JobNote {
                index: i,
                job,
                compiled: cache.is_none() || delta.misses + delta.bypasses > 0,
                solo_cfg: outcomes.first().map_or(*cfg, |o| o.cfg),
            };
            spanned(tr, "pipeline.merge_consume", i as u64, band, || {
                merger.consume(i, outcomes)
            });
            // Replayed right after the job, not after the pass, so slow
            // drift of the host cancels between a job and its replay. The
            // caller takes these spans back out of the pass's time.
            spanned(tr, "trace.job_replay", i as u64, band, || {
                replay_job(tr, counts, part, &suite, &note, occ, cfg)
            });
        }
        spanned(tr, "pipeline.merge_finish", 0, Band::None, || {
            merger.finish()
        })
    };
    let observations = observations.into_inner();
    if part.front_end {
        counts.schedules_certified += observations.len() as u64;
    }
    counts.jobs += jobs.len() as u64;
    if let Some(c) = &cache {
        let s = c.stats();
        counts.cache.hits += s.hits;
        counts.cache.misses += s.misses;
        counts.cache.inserts += s.inserts;
        counts.cache.bypasses += s.bypasses;
        counts.cache.evictions += s.evictions;
    }
    TracedPart {
        run,
        suite,
        observations,
        cache,
    }
}

/// Replays what one job of the traced pass did, layer by layer, under a
/// `pipeline.run_job.replay` span — the sum of those is what
/// `pipeline.self_s` subtracts from the time inside `run_job`. A job the
/// cache answered compiled nothing and replays nothing.
fn replay_job(
    tr: &SharedTracer,
    counts: &mut Counts,
    part: &Part,
    suite: &Suite,
    note: &JobNote,
    occ: &OccupancyModel,
    cfg: &PipelineConfig,
) {
    if !note.compiled {
        return;
    }
    let (i, job) = (note.index, note.job);
    let band = Band::of(job_size(job, suite));
    spanned(
        tr,
        "pipeline.run_job.replay",
        i as u64,
        band,
        || match job {
            RegionJob::Solo { kernel, region } => {
                let ddg = &suite.kernels[*kernel].regions[*region];
                let id = ((*kernel as u64) << 32) | *region as u64;
                replay_heuristic(tr, counts, id, ddg, occ);
                let region_cfg = note.solo_cfg;
                match part.kind {
                    SchedulerKind::ParallelAco | SchedulerKind::BatchedParallelAco => {
                        replay_parallel_aco(tr, counts, id, ddg, occ, &region_cfg);
                    }
                    SchedulerKind::SequentialAco => {
                        let r = spanned(tr, "aco.sequential_schedule", id, band, || {
                            SequentialScheduler::new(region_cfg.aco).schedule(ddg, occ)
                        });
                        counts.pass1_iterations += u64::from(r.pass1.iterations);
                        counts.pass2_iterations += u64::from(r.pass2.iterations);
                        counts.sequential_ops += r.ops;
                    }
                    SchedulerKind::BaseAmd | SchedulerKind::CriticalPath => {}
                }
            }
            RegionJob::Group { kernel, members } => {
                let regions = &suite.kernels[*kernel].regions;
                let refs: Vec<&Ddg> = members.iter().map(|&r| &regions[r]).collect();
                for (&r, ddg) in members.iter().zip(&refs) {
                    replay_heuristic(tr, counts, ((*kernel as u64) << 32) | r as u64, ddg, occ);
                }
                let batch = spanned(tr, "aco.batch_schedule", i as u64, band, || {
                    ParallelScheduler::new(cfg.aco).schedule_batch(&refs, occ)
                });
                for o in &batch.outcomes {
                    counts.pass1_iterations += u64::from(o.result.pass1.iterations);
                    counts.pass2_iterations += u64::from(o.result.pass2.iterations);
                    counts.divergent_steps += o.gpu.divergent_steps;
                    counts.mem_transactions += o.gpu.mem_transactions;
                }
                counts.modeled_us += batch.batched_us;
            }
        },
    );
}

/// Replays the sequential half of the pass: the capped re-schedules the
/// kernel post filter ran inside the merge, the certifier, in-pipeline
/// analysis, and the suite fingerprint.
fn replay_merge_side(
    tr: &SharedTracer,
    counts: &mut Counts,
    part: &Part,
    traced: &TracedPart,
    occ: &OccupancyModel,
    report: &mut Report,
) {
    for obs in &traced.observations {
        let ddg = &traced.suite.kernels[obs.kernel].regions[obs.region];
        let id = ((obs.kernel as u64) << 32) | obs.region as u64;
        let band = Band::of(ddg.len());
        if obs.cfg.aco.occupancy_cap.is_some() {
            counts.reschedules += 1;
            spanned(tr, "pipeline.reschedule", id, band, || {
                black_box(compile_region(ddg, occ, &obs.cfg).length)
            });
        }
        if !part.front_end {
            // The front-end part certified inside its traced pass.
            let diags = spanned(tr, "sched_verify.certify", id, band, || {
                sched_verify::verify_region_compilation(ddg, occ, &obs.cfg, &obs.comp)
            });
            counts.schedules_certified += 1;
            report.op(!sched_verify::has_errors(&diags), || {
                format!(
                    "kernel {} region {}: {}",
                    obs.kernel,
                    obs.region,
                    sched_verify::render(&diags)
                )
            });
        } else {
            let findings = spanned(tr, "pipeline.analyze", id, band, || {
                pipeline::analyze_region(ddg, &obs.comp)
            });
            counts.analyze_findings += findings.len() as u64;
        }
    }
    let fp = spanned(tr, "sched_verify.fingerprint", 0, Band::None, || {
        sched_verify::suite_fingerprint(&traced.run)
    });
    report.op(fp == traced.run.fingerprint, || {
        format!(
            "sched-verify fingerprint {fp:#018x} differs from the merge's {:#018x}",
            traced.run.fingerprint
        )
    });
}

/// Measures the warm cache the traced pass left behind: a second pass that
/// only hits, and the persisted file.
fn replay_cache(
    tr: &SharedTracer,
    traced: &TracedPart,
    occ: &OccupancyModel,
    cfg: &PipelineConfig,
    workload: &str,
    report: &mut Report,
) -> u64 {
    let Some(cache) = &traced.cache else {
        return 0;
    };
    let warm = spanned(tr, "pipeline.cache.warm_pass", 0, Band::None, || {
        compile_suite_with_cache(&traced.suite, occ, cfg, Some(cache), |_, _, _, _, _| {})
    });
    report.op(warm.fingerprint == traced.run.fingerprint, || {
        "a warm-cache pass changed the suite fingerprint".into()
    });
    let path = trace_path(workload).with_extension("cache");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let saved = spanned(tr, "pipeline.cache.save", 0, Band::None, || {
        cache.save_to(&path)
    });
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let loaded = spanned(tr, "pipeline.cache.load", 0, Band::None, || {
        ScheduleCache::load_from(&path)
    });
    report.op(saved.is_ok() && loaded.is_ok(), || {
        format!(
            "persisting the cache: save {saved:?}, load {:?}",
            loaded.as_ref().err()
        )
    });
    let _ = std::fs::remove_file(&path);
    bytes
}

/// Fills every per-layer metric the spans and counts determine. Metrics
/// only one kind of run can know (`trace.*` pass times, `pipeline.*_s` of
/// the pooled run, `sched_serve.*`) are set by the caller.
pub fn fill_report(report: &mut Report, tracer: &Tracer, counts: &Counts) {
    let totals = tracer.totals(None);
    let secs = |name: &str| totals.get(name).map_or(0.0, |t| t.total_s());
    let self_secs = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e9);
    let per = |total_s: f64, n: u64, unit: f64| {
        if n == 0 {
            0.0
        } else {
            total_s * unit / n as f64
        }
    };

    report.set("workloads.generate_s", secs("workloads.generate"));
    report.set("workloads.regions", counts.regions as f64);
    report.set("workloads.instrs", counts.instrs as f64);

    report.set("sched_ir.textir_print_s", secs("sched_ir.textir_print"));
    report.set("sched_ir.textir_parse_s", secs("sched_ir.textir_parse"));
    let parse_s = secs("sched_ir.textir_parse");
    if parse_s > 0.0 {
        report.set(
            "sched_ir.textir_parse_mb_per_s",
            counts.text_bytes as f64 / 1e6 / parse_s,
        );
    }
    report.set(
        "sched_ir.content_fingerprint_s",
        secs("sched_ir.content_fingerprint"),
    );
    report.set("sched_ir.closure_s", secs("sched_ir.closure"));
    report.set("sched_ir.bounds_s", secs("sched_ir.bounds"));

    report.set(
        "reg_pressure.replay_ns_per_instr",
        per(secs("reg_pressure.replay"), counts.pressure_instrs, 1e9),
    );
    report.set("list_sched.analysis_s", secs("list_sched.analysis"));
    report.set("list_sched.schedule_s", secs("list_sched.schedule"));
    report.set(
        "list_sched.ns_per_instr",
        per(secs("list_sched.schedule"), counts.list_instrs, 1e9),
    );

    for (name, band) in [
        ("aco.parallel_schedule_s.small", Band::Small),
        ("aco.parallel_schedule_s.medium", Band::Medium),
        ("aco.parallel_schedule_s.large", Band::Large),
    ] {
        let t = tracer.totals(Some(band));
        report.set(
            name,
            t.get("aco.parallel_schedule").map_or(0.0, |t| t.total_s()),
        );
    }
    report.set("aco.pass1_iterations", counts.pass1_iterations as f64);
    report.set("aco.pass2_iterations", counts.pass2_iterations as f64);
    let iterations = counts.pass1_iterations + counts.pass2_iterations;
    if secs("aco.parallel_schedule") > 0.0 {
        report.set(
            "aco.parallel_ms_per_iteration",
            per(secs("aco.parallel_schedule"), iterations, 1e3),
        );
    }
    report.set(
        "aco.pass1_ant_ns_per_step",
        per(secs("aco.pass1_ant"), counts.pass1_ant_steps, 1e9),
    );
    report.set(
        "aco.pass2_ant_ns_per_step",
        per(secs("aco.pass2_ant"), counts.pass2_ant_steps, 1e9),
    );
    report.set(
        "aco.pheromone_update_ns_per_entry",
        per(secs("aco.pheromone_update"), counts.pheromone_entries, 1e9),
    );
    report.set("aco.sequential_schedule_s", secs("aco.sequential_schedule"));
    report.set("aco.sequential_ops", counts.sequential_ops as f64);
    report.set(
        "aco.sequential_ns_per_op",
        per(secs("aco.sequential_schedule"), counts.sequential_ops, 1e9),
    );
    report.set("aco.batch_schedule_s", secs("aco.batch_schedule"));

    report.set("gpu_sim.modeled_us", counts.modeled_us);
    report.set("gpu_sim.divergent_steps", counts.divergent_steps as f64);
    report.set("gpu_sim.mem_transactions", counts.mem_transactions as f64);
    report.set(
        "gpu_sim.kernel_cycles_ns_per_call",
        per(
            secs("gpu_sim.kernel_cycles"),
            counts.kernel_cycles_calls,
            1e9,
        ),
    );

    report.set("pipeline.jobs", counts.jobs as f64);
    report.set("pipeline.run_job_s", secs("pipeline.run_job"));
    report.set(
        "pipeline.run_job_max_s",
        totals
            .get("pipeline.run_job")
            .map_or(0.0, |t| t.max_ns as f64 / 1e9),
    );
    report.set(
        "pipeline.self_s",
        (secs("pipeline.run_job") - secs("pipeline.run_job.replay")).max(0.0),
    );
    // Self time: the certifier a front-end pass runs inside the merge's
    // observer is sched-verify's, not the merge's.
    report.set(
        "pipeline.merge_consume_s",
        self_secs("pipeline.merge_consume"),
    );
    report.set("pipeline.merge_finish_s", secs("pipeline.merge_finish"));
    report.set("pipeline.reschedules", counts.reschedules as f64);
    report.set("pipeline.reschedule_s", secs("pipeline.reschedule"));
    report.set("pipeline.analyze_s", secs("pipeline.analyze"));
    report.set("pipeline.analyze_findings", counts.analyze_findings as f64);
    report.set("pipeline.cache.hits", counts.cache.hits as f64);
    report.set("pipeline.cache.misses", counts.cache.misses as f64);
    report.set("pipeline.cache.inserts", counts.cache.inserts as f64);
    report.set("pipeline.cache.bypasses", counts.cache.bypasses as f64);
    report.set("pipeline.cache.evictions", counts.cache.evictions as f64);
    report.set("pipeline.cache.hit_rate", counts.cache.hit_rate());
    report.set(
        "pipeline.cache.warm_pass_ms",
        secs("pipeline.cache.warm_pass") * 1e3,
    );
    report.set("pipeline.cache.save_s", secs("pipeline.cache.save"));
    report.set("pipeline.cache.load_s", secs("pipeline.cache.load"));

    report.set("sched_verify.certify_s", secs("sched_verify.certify"));
    report.set(
        "sched_verify.schedules_certified",
        counts.schedules_certified as f64,
    );
    report.set(
        "sched_verify.fingerprint_s",
        secs("sched_verify.fingerprint"),
    );

    report.set("trace.spans", tracer.spans().len() as f64);
}

/// Up to three regions of the ≥100-instruction band (the largest regions
/// when the suite has none that large) for the inner-loop timings.
fn micro_regions<'a>(suites: &[&'a Suite]) -> Vec<&'a Ddg> {
    let mut all: Vec<&Ddg> = suites
        .iter()
        .flat_map(|s| s.regions().map(|(_, _, d)| d))
        .collect();
    all.sort_by_key(|d| std::cmp::Reverse(d.len()));
    let large = all.iter().filter(|d| d.len() >= 100).count();
    // Spread over the band rather than taking only its extreme.
    let pick = large.max(1).min(all.len());
    [0, pick / 2, pick.saturating_sub(1)]
        .into_iter()
        .filter_map(|i| all.get(i).copied())
        .take(3)
        .collect()
}

/// The `--trace 1` run of a suite workload.
pub fn trace_suite(opts: &Opts, parts: &[Part]) -> Report {
    let mut report = Report::per_layer();
    let mut counts = Counts::default();
    let occ = OccupancyModel::vega_like();
    let tr: SharedTracer = RefCell::new(Tracer::new());
    let threads = inputs::host_threads();
    let single: Vec<PipelineConfig> = parts
        .iter()
        .map(|p| inputs::pipeline_config(p, 1))
        .collect();

    let built: Vec<PartInput> = parts
        .iter()
        .map(|p| {
            spanned(&tr, "workloads.generate", 0, Band::None, || {
                inputs::build_part(p, opts.seed)
            })
        })
        .collect();
    let distinct: usize = built
        .iter()
        .map(|b| b.suite.duplicate_stats().distinct)
        .sum();

    // Whichever pass runs first in a process pays for cold caches and the
    // first-touch page faults of its heap (~100 MB on the front-end part);
    // spend those on a discarded pass so the plain pass does not.
    suite_wl::run_pass(parts, &built, &single, &occ, false, &mut report);

    // The plain pass the traced pass is held against: same work, same
    // single thread, no spans.
    let plain_root = tr.borrow_mut().enter("trace.plain_pass", 0, Band::None);
    let t = Instant::now();
    let plain = suite_wl::run_pass(parts, &built, &single, &occ, false, &mut report);
    let plain_s = t.elapsed().as_secs_f64();
    tr.borrow_mut().exit(plain_root);

    let traced_root = tr.borrow_mut().enter("trace.traced_pass", 0, Band::None);
    let t = Instant::now();
    let traced: Vec<TracedPart> = parts
        .iter()
        .zip(&built)
        .zip(&single)
        .map(|((p, input), cfg)| traced_part(&tr, &mut counts, p, input, cfg, &occ, &mut report))
        .collect();
    let traced_wall_s = t.elapsed().as_secs_f64();
    tr.borrow_mut().exit(traced_root);
    let replayed_s = tr
        .borrow()
        .totals(None)
        .get("trace.job_replay")
        .map_or(0.0, |t| t.total_s());
    let traced_s = traced_wall_s - replayed_s;
    let runs: Vec<SuiteRun> = traced.iter().map(|t| t.run.clone()).collect();
    let outcome = PassOutcome::fold(&runs);
    report.op(outcome == plain, || {
        format!(
            "the hand-driven pass differs from compile_suite: fingerprint {:#018x} vs {:#018x}",
            outcome.fingerprint, plain.fingerprint
        )
    });

    // The same suites on the untraced run's thread count, for the pooled
    // phase split and the fingerprint the untraced run prints.
    let (mut plan_s, mut jobs_s, mut merge_s, mut overlap_s, mut pooled_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut pooled_runs = Vec::new();
    for (t, cfg) in traced.iter().zip(&single) {
        let (run, w) = compile_suite_timed(&t.suite, &occ, &cfg.with_host_threads(threads));
        plan_s += w.plan_s;
        jobs_s += w.jobs_s;
        merge_s += w.merge_s;
        overlap_s += w.merge_overlap_s;
        pooled_s += w.total_s;
        pooled_runs.push(run);
    }
    let pooled = PassOutcome::fold(&pooled_runs);
    report.op(pooled == outcome, || {
        format!(
            "{threads} threads and 1 thread disagree: fingerprint {:#018x} vs {:#018x}",
            pooled.fingerprint, outcome.fingerprint
        )
    });

    let replay_root = tr.borrow_mut().enter("trace.replay", 0, Band::None);
    let mut cache_bytes = 0;
    for ((part, t), cfg) in parts.iter().zip(&traced).zip(&single) {
        for (k, r, ddg) in t.suite.regions() {
            let id = ((k as u64) << 32) | r as u64;
            replay_region(&tr, &mut counts, id, ddg, part.front_end);
        }
        replay_merge_side(&tr, &mut counts, part, t, &occ, &mut report);
        cache_bytes += replay_cache(&tr, t, &occ, cfg, &opts.workload, &mut report);
    }
    // The inner loops of ACO, where the workload runs ACO at all.
    let aco_parts = || {
        parts
            .iter()
            .zip(&traced)
            .zip(&single)
            .filter(|((p, _), _)| {
                !matches!(p.kind, SchedulerKind::BaseAmd | SchedulerKind::CriticalPath)
            })
    };
    if let Some((_, cfg)) = aco_parts().next() {
        let suites: Vec<&Suite> = aco_parts().map(|((_, t), _)| &t.suite).collect();
        micro_benches(&tr, &mut counts, &micro_regions(&suites), &occ, cfg);
    }
    tr.borrow_mut().exit(replay_root);

    let tracer = tr.into_inner();
    fill_report(&mut report, &tracer, &counts);
    report.set("workloads.distinct_regions", distinct as f64);
    report.set("pipeline.plan_s", plan_s);
    report.set("pipeline.jobs_s", jobs_s);
    report.set("pipeline.merge_s", merge_s);
    report.set("pipeline.merge_overlap_s", overlap_s);
    let run_job_s = report.get("pipeline.run_job_s").unwrap_or(0.0);
    if jobs_s > 0.0 {
        report.set(
            "pipeline.parallel_efficiency",
            run_job_s / (threads as f64 * jobs_s),
        );
    }
    let regions = counts.regions.max(1) as f64;
    report.set(
        "pipeline.cache.hit_us_per_region",
        report.get("pipeline.cache.warm_pass_ms").unwrap_or(0.0) * 1e3 / regions,
    );
    report.set("pipeline.cache.file_bytes", cache_bytes as f64);
    report.set("modeled_sched_s", outcome.modeled_sched_s);
    report.set(
        "throughput_geomean_gbs",
        stats::geomean(&outcome.throughputs),
    );
    report.set("trace.plain_pass_s", plain_s);
    report.set("trace.traced_pass_s", traced_s);
    report.set("trace.overhead_share", (traced_s - plain_s) / plain_s);
    println!(
        "host_threads {threads} (pooled pass {pooled_s} s)  trace.fingerprint {:#018x}",
        outcome.fingerprint
    );
    write_trace(&tracer, &opts.workload, &mut report);
    report
}
