//! Command-line front end: schedule a region from a text file with any of
//! the workspace's schedulers.
//!
//! ```text
//! gpu-aco-cli schedule <region.txt> [--scheduler amd|cp|luc|seq|par|exact]
//!                      [--seed N] [--blocks N] [--threads N] [--unit-aprp]
//!                      [--dot <out.dot>]
//! gpu-aco-cli schedule <region.txt> --cache <cache.txt> [--cache-stats] [--no-cache]
//! gpu-aco-cli schedule <region.txt>... --batch [--seed N] [--blocks N] [--unit-aprp]
//! gpu-aco-cli generate <pattern> <size> [--seed N]     # emit a region file
//! gpu-aco-cli inspect <region.txt>                     # bounds and stats
//! gpu-aco-cli verify <region.txt> [--scheduler ...|all] [--pedantic]
//! gpu-aco-cli analyze <region.txt>... [--json] [--pedantic]
//!                     [--baseline <file>] [--write-baseline <file>]
//! ```
//!
//! `--cache <cache.txt>` routes the compilation through the pipeline's
//! content-addressed [`gpu_aco::compile::ScheduleCache`], persisted at the
//! given path across invocations: a region whose DDG content and
//! scheduling configuration match a stored entry skips the ACO search
//! entirely (the hit is re-certified before adoption, so a tampered cache
//! file can never smuggle in a wrong schedule). `--no-cache` runs the same
//! pipeline path with the cache disabled — the printed schedule is
//! bitwise identical either way. `--cache-stats` reports the
//! hit/miss/insert/bypass/eviction counters on stderr.
//!
//! `--batch` schedules several regions in one cooperative multi-region
//! launch pair (the paper's Section VII proposal): the colony's blocks are
//! split across the regions, the launch/allocation/transfer overheads are
//! paid once per pass, and each region's schedule is bitwise-identical to
//! a solo run with its block share.
//!
//! `verify` runs the independent verification layer (`sched-verify`): it
//! lints the region and the ACO configuration, schedules the region with
//! the selected scheduler(s), re-derives every claim each scheduler makes
//! (order, pressure, occupancy, length, bounds, two-pass invariant), and
//! exits nonzero if any deny-level finding is reported (the same
//! `Finding` model and text renderer `analyze` uses).
//!
//! `analyze` runs the exact static dataflow passes (`sched-analyze`):
//! S001 transitive-redundant edges, S002 cycles with a minimal witness,
//! S003 orphan nodes, S004 latencies that contradict the machine model,
//! S005/S006 infeasible pressure/length claims against the AMD heuristic's
//! schedule, and the S007 cache-key coverage check. Findings carry source
//! spans from the region file; `--json` emits the machine-readable report
//! (`sched-analyze-findings/v1`) the CI deny-gate consumes; a baseline
//! file suppresses known findings. Exit is nonzero iff an unsuppressed
//! deny-level finding remains.
//!
//! Every subcommand rejects a `--flag` it does not take with a usage error,
//! so a mistyped flag never runs a different configuration silently.
//!
//! The region file format is documented in [`sched_ir::textir`]; `generate`
//! produces it from the rocPRIM-shaped workload generators.

use gpu_aco::heuristics::{Heuristic, ListScheduler};
use gpu_aco::machine::OccupancyModel;
use gpu_aco::scheduler::{AcoConfig, IdleCores, ParallelScheduler, SequentialScheduler};
use sched_ir::{textir, Ddg, Schedule};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  gpu-aco-cli schedule <region.txt> [--scheduler amd|cp|luc|seq|par|exact]
                       [--seed N] [--blocks N] [--threads N] [--unit-aprp]
                       [--dot <out.dot>]
  gpu-aco-cli schedule <region.txt> --cache <cache.txt> [--cache-stats] [--no-cache]
  gpu-aco-cli schedule <region.txt>... --batch [--seed N] [--blocks N] [--unit-aprp]
  gpu-aco-cli generate <pattern> <size> [--seed N]
      patterns: reduction scan transform vector stencil sort gather random mixed
  gpu-aco-cli inspect <region.txt>
  gpu-aco-cli verify <region.txt> [--scheduler amd|cp|luc|seq|par|exact|all]
                     [--seed N] [--blocks N] [--threads N] [--unit-aprp] [--pedantic]
  gpu-aco-cli analyze <region.txt>... [--json] [--pedantic]
                      [--baseline <file>] [--write-baseline <file>]
  gpu-aco-cli serve [--stdio | --socket <path>] [--cache <cache.txt>]
                    [--workers N] [--queue N]
  gpu-aco-cli request --socket <path> schedule <region.txt>
                      [--scheduler amd|cp|seq|par] [--seed N] [--blocks N]
                      [--unit-aprp] [--deadline-ms N]
  gpu-aco-cli request --socket <path> suite [--seed N] [--scale F]
                      [--scheduler amd|cp|seq|par|batched] [--blocks N]
                      [--gate N] [--unit-aprp] [--deadline-ms N]
  gpu-aco-cli request --socket <path> stats|flush

  --json        emit the sched-analyze-findings/v1 JSON report on stdout
  --pedantic    include pedantic-level findings (S001) in the report
  --baseline F  suppress the findings recorded in baseline file F
  --write-baseline F  write a baseline accepting every current finding to F
  --threads N   host cores to use (default: all available); with
                --scheduler par, N-1 idle cores run some of the wavefronts
                of each ACO iteration of a large region; results are
                identical at any value
  --cache F     compile via the pipeline's certified schedule cache,
                persisted at F across invocations (schedulers amd|cp|seq|par);
                hits skip the ACO search and are re-certified before adoption
  --no-cache    same pipeline path with the cache disabled (identical output)
  --cache-stats report hit/miss/insert/bypass/eviction counters on stderr

  serve         run the scheduling daemon: requests on stdin (default, or
                --stdio) or a Unix socket (--socket), one warm schedule
                cache shared by every client, preloaded from --cache and
                persisted back on shutdown/flush; --workers compile threads
                (default: all cores), --queue admission capacity
                (default 256)
  request       client for a running daemon: sends one request over the
                socket and prints the response payload, byte-identical to
                the one-shot `schedule --cache` output; exits nonzero on
                err/overloaded/expired responses";

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("schedule") => schedule(&args[1..]),
        Some("generate") => generate(&args[1..]),
        Some("inspect") => inspect(&args[1..]),
        Some("verify") => verify(&args[1..]),
        Some("analyze") => analyze(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("request") => request(&args[1..]),
        Some(other) => Err(format!("unknown command `{other}`")),
        None => Err("missing command".into()),
    }
}

/// Pulls `--flag value` out of an argument list.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The flags one subcommand takes.
struct Flags {
    /// Flags that take the argument after them as their value.
    values: &'static [&'static str],
    /// Flags that stand alone.
    switches: &'static [&'static str],
}

const SCHEDULE_FLAGS: Flags = Flags {
    values: &[
        "--scheduler",
        "--seed",
        "--blocks",
        "--threads",
        "--dot",
        "--cache",
    ],
    switches: &["--unit-aprp", "--batch", "--no-cache", "--cache-stats"],
};
const GENERATE_FLAGS: Flags = Flags {
    values: &["--seed"],
    switches: &[],
};
const INSPECT_FLAGS: Flags = Flags {
    values: &[],
    switches: &[],
};
const VERIFY_FLAGS: Flags = Flags {
    values: &["--scheduler", "--seed", "--blocks", "--threads"],
    switches: &["--unit-aprp", "--pedantic"],
};
const ANALYZE_FLAGS: Flags = Flags {
    values: &["--baseline", "--write-baseline"],
    switches: &["--json", "--pedantic"],
};
const SERVE_FLAGS: Flags = Flags {
    values: &["--socket", "--cache", "--workers", "--queue"],
    switches: &["--stdio"],
};
const REQUEST_FLAGS: Flags = Flags {
    values: &[
        "--socket",
        "--scheduler",
        "--seed",
        "--blocks",
        "--scale",
        "--gate",
        "--deadline-ms",
    ],
    switches: &["--unit-aprp"],
};

/// The non-flag arguments, skipping the values of value-taking flags. A
/// `--flag` the subcommand does not take is an error: ignoring it would
/// run a configuration the user did not ask for.
fn positional_args<'a>(args: &'a [String], flags: &Flags) -> Result<Vec<&'a String>, String> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
        } else if flags.values.contains(&a.as_str()) {
            skip = true;
        } else if a.starts_with("--") {
            if !flags.switches.contains(&a.as_str()) {
                return Err(format!("unknown option `{a}`"));
            }
        } else {
            out.push(a);
        }
    }
    Ok(out)
}

/// `--threads`: host cores the command may use; `schedule` and `verify`
/// lend all but one to the wavefronts of the region's ACO iterations.
/// Defaults to every available core; schedules are identical at any value,
/// so this is purely a wall-clock knob.
fn host_threads(args: &[String]) -> Result<usize, String> {
    match flag_value(args, "--threads") {
        Some(s) => s
            .parse::<usize>()
            .map(|n| n.max(1))
            .map_err(|_| "--threads must be an integer".into()),
        None => Ok(std::thread::available_parallelism().map_or(1, |n| n.get())),
    }
}

/// `--seed`: the ACO RNG seed (default 0).
fn aco_seed(args: &[String]) -> Result<u64, String> {
    flag_value(args, "--seed").map_or(Ok(0), |s| {
        s.parse().map_err(|_| "--seed must be an integer".into())
    })
}

/// `--unit-aprp` selects the identity-APRP model; Vega-like otherwise.
fn occupancy_model(args: &[String]) -> OccupancyModel {
    if args.iter().any(|a| a == "--unit-aprp") {
        OccupancyModel::unit()
    } else {
        OccupancyModel::vega_like()
    }
}

/// The list scheduler `--scheduler amd|cp|luc` names.
fn list_heuristic(name: &str) -> Heuristic {
    match name {
        "amd" => Heuristic::AmdMaxOccupancy,
        "cp" => Heuristic::CriticalPath,
        _ => Heuristic::LastUseCount,
    }
}

/// `--blocks`: the colony's wavefront count (default 32), validated once
/// for every subcommand that takes it, with the daemon's message.
fn colony_blocks(args: &[String]) -> Result<u32, String> {
    match flag_value(args, "--blocks").map(|s| s.parse::<u32>()) {
        None => Ok(32),
        Some(Ok(0)) => Err("blocks must be positive".into()),
        Some(Ok(blocks)) => Ok(blocks),
        Some(Err(_)) => Err("--blocks must be an integer".into()),
    }
}

fn load_region(path: &str) -> Result<Ddg, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    textir::parse(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn print_schedule(ddg: &Ddg, schedule: &Schedule) {
    let order = schedule.order();
    let mut next = 0;
    print!("schedule:");
    for id in order {
        let c = schedule.cycle(id);
        while next < c {
            print!(" _");
            next += 1;
        }
        print!(" {}", ddg.instr(id).name());
        next = c + 1;
    }
    println!();
}

fn schedule(args: &[String]) -> Result<(), String> {
    let paths = positional_args(args, &SCHEDULE_FLAGS)?;
    if args.iter().any(|a| a == "--batch") {
        return schedule_batched(args, &paths);
    }
    if args
        .iter()
        .any(|a| a == "--cache" || a == "--no-cache" || a == "--cache-stats")
    {
        return schedule_cached(args, &paths);
    }
    let path = args.first().ok_or("schedule needs a region file")?;
    let ddg = load_region(path)?;
    let occ = occupancy_model(args);
    let seed = aco_seed(args)?;
    let blocks = colony_blocks(args)?;
    let which = flag_value(args, "--scheduler").unwrap_or_else(|| "par".into());
    // Validate --threads up front so a bad value errors even when the
    // selected scheduler never reads it.
    let threads = host_threads(args)?;
    let cfg = AcoConfig {
        blocks,
        ..AcoConfig::paper(seed)
    };

    let (name, sched, prp, extra) = match which.as_str() {
        "amd" | "cp" | "luc" => {
            let h = list_heuristic(&which);
            let r = ListScheduler::new(h).schedule(&ddg, &occ);
            (
                format!("{h:?} list scheduler"),
                r.schedule,
                r.prp,
                String::new(),
            )
        }
        "seq" => {
            let r = SequentialScheduler::new(cfg).schedule(&ddg, &occ);
            let extra = format!(
                ", modeled CPU time {:.1} us ({} + {} iterations)",
                r.time_us, r.pass1.iterations, r.pass2.iterations
            );
            ("sequential ACO".into(), r.schedule, r.prp, extra)
        }
        "par" => {
            let out = IdleCores::new(threads - 1)
                .enter(|| ParallelScheduler::new(cfg).schedule(&ddg, &occ));
            let extra = format!(
                ", modeled GPU time {:.1} us ({} + {} iterations)",
                out.gpu.total_us(),
                out.result.pass1.iterations,
                out.result.pass2.iterations
            );
            (
                "parallel ACO".into(),
                out.result.schedule,
                out.result.prp,
                extra,
            )
        }
        "exact" => {
            if ddg.len() > exact_sched::MAX_EXACT_SIZE {
                return Err(format!(
                    "exact search supports at most {} instructions (region has {})",
                    exact_sched::MAX_EXACT_SIZE,
                    ddg.len()
                ));
            }
            let r = exact_sched::two_pass_optimum(&ddg, &occ, &exact_sched::BnbConfig::default());
            let extra = format!(
                ", {} search nodes{}",
                r.nodes,
                if r.proven_optimal {
                    ", proven optimal"
                } else {
                    " (limit hit)"
                }
            );
            ("exact B&B".into(), r.schedule, r.prp, extra)
        }
        other => return Err(format!("unknown scheduler `{other}`")),
    };

    sched
        .validate(&ddg)
        .map_err(|e| format!("internal error: invalid schedule: {e}"))?;
    println!(
        "{name}: {} instructions in {} cycles ({} stalls), VGPR PRP {}, SGPR PRP {}, \
         occupancy {}{extra}",
        ddg.len(),
        sched.length(),
        sched.stalls(),
        prp[0],
        prp[1],
        occ.occupancy(prp),
    );
    print_schedule(&ddg, &sched);
    if let Some(out) = flag_value(args, "--dot") {
        std::fs::write(&out, sched_ir::dot::to_dot_with_schedule(&ddg, &sched))
            .map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote {out}");
    }
    Ok(())
}

/// `schedule ... --cache/--no-cache`: compile through the pipeline's
/// region flow so the content-addressed schedule cache can answer repeat
/// regions. With `--cache FILE` the cache is loaded from (and saved back
/// to) `FILE`; `--no-cache` runs the identical pipeline path without it,
/// so the printed schedule is bitwise comparable between the two.
fn schedule_cached(args: &[String], paths: &[&String]) -> Result<(), String> {
    use gpu_aco::compile::{compile_region, PipelineConfig, ScheduleCache, SchedulerKind};
    use std::path::Path;

    let path = paths.first().ok_or("schedule needs a region file")?;
    let ddg = load_region(path)?;
    let occ = occupancy_model(args);
    let seed = aco_seed(args)?;
    let blocks = colony_blocks(args)?;
    let threads = host_threads(args)?;
    let which = flag_value(args, "--scheduler").unwrap_or_else(|| "par".into());
    let kind = match which.as_str() {
        "amd" => SchedulerKind::BaseAmd,
        "cp" => SchedulerKind::CriticalPath,
        "seq" => SchedulerKind::SequentialAco,
        "par" => SchedulerKind::ParallelAco,
        other => {
            return Err(format!(
                "the schedule cache supports --scheduler amd|cp|seq|par, not `{other}`"
            ))
        }
    };
    let mut cfg = PipelineConfig::paper(kind, seed);
    cfg.aco.blocks = blocks;

    let no_cache = args.iter().any(|a| a == "--no-cache");
    let cache_file = flag_value(args, "--cache");
    let cache = match (&cache_file, no_cache) {
        (Some(f), false) if Path::new(f).exists() => Some(
            ScheduleCache::load_from(Path::new(f))
                .map_err(|e| format!("loading cache {f}: {e}"))?,
        ),
        (Some(_), false) => Some(ScheduleCache::new()),
        _ => None,
    };
    let comp = IdleCores::new(threads - 1).enter(|| match &cache {
        Some(c) => c.compile_solo(&ddg, &occ, &cfg),
        None => compile_region(&ddg, &occ, &cfg),
    });
    // The daemon (`serve`) renders through the same function, which is
    // what keeps its responses byte-identical to this command's output.
    let report = gpu_aco::serve::render::schedule_report(&ddg, &occ, kind, &comp)?;
    print!("{report}");
    if args.iter().any(|a| a == "--cache-stats") {
        let s = cache.as_ref().map(ScheduleCache::stats).unwrap_or_default();
        eprintln!(
            "cache: {} hits, {} misses, {} inserts, {} bypasses, {} evictions",
            s.hits, s.misses, s.inserts, s.bypasses, s.evictions
        );
    }
    if let (Some(c), Some(f)) = (&cache, &cache_file) {
        c.save_to(Path::new(f))
            .map_err(|e| format!("writing cache {f}: {e}"))?;
    }
    Ok(())
}

/// `schedule ... --batch`: one cooperative launch pair for all the regions.
fn schedule_batched(args: &[String], paths: &[&String]) -> Result<(), String> {
    use gpu_aco::scheduler::batch_block_split;

    if args
        .iter()
        .any(|a| a == "--cache" || a == "--no-cache" || a == "--cache-stats")
    {
        return Err("the cache flags are not supported with --batch".into());
    }
    if paths.is_empty() {
        return Err("schedule --batch needs at least one region file".into());
    }
    // --threads is accepted (and validated) for uniformity, but the batch
    // path always runs the simulated-GPU scheduler, which never reads it.
    host_threads(args)?;
    let occ = occupancy_model(args);
    let seed = aco_seed(args)?;
    let blocks = colony_blocks(args)?;
    if paths.len() as u32 > blocks {
        return Err(format!(
            "a batch of {} regions oversubscribes the {blocks}-block colony; \
             pass fewer regions or raise --blocks",
            paths.len()
        ));
    }
    let cfg = AcoConfig {
        blocks,
        ..AcoConfig::paper(seed)
    };

    let regions: Vec<Ddg> = paths
        .iter()
        .map(|p| load_region(p))
        .collect::<Result<_, _>>()?;
    let refs: Vec<&Ddg> = regions.iter().collect();
    let batch = ParallelScheduler::new(cfg).schedule_batch(&refs, &occ);
    let split = batch_block_split(blocks, refs.len() as u32);

    println!(
        "batched parallel ACO: {} regions, {blocks}-block colony split {split:?}",
        refs.len()
    );
    for (pos, (path, outcome)) in paths.iter().zip(&batch.outcomes).enumerate() {
        let r = &outcome.result;
        r.schedule
            .validate(&regions[pos])
            .map_err(|e| format!("internal error: invalid schedule for {path}: {e}"))?;
        println!(
            "  {path}: {} instructions in {} cycles, VGPR PRP {}, occupancy {} \
             ({} blocks, {} + {} iterations)",
            regions[pos].len(),
            r.length,
            r.prp[0],
            r.occupancy,
            split[pos],
            r.pass1.iterations,
            r.pass2.iterations,
        );
    }
    let saving = if batch.individual_us > 0.0 {
        100.0 * (batch.individual_us - batch.batched_us) / batch.individual_us
    } else {
        0.0
    };
    println!(
        "modeled GPU time: batched {:.1} us vs {:.1} us individually ({saving:.1}% saved)",
        batch.batched_us, batch.individual_us
    );
    Ok(())
}

fn verify(args: &[String]) -> Result<(), String> {
    use gpu_aco::analyze::{render_text, LevelCounts};
    use gpu_aco::verify as sv;

    positional_args(args, &VERIFY_FLAGS)?;
    let path = args.first().ok_or("verify needs a region file")?;
    let ddg = load_region(path)?;
    let occ = occupancy_model(args);
    let seed = aco_seed(args)?;
    let blocks = colony_blocks(args)?;
    let cfg = AcoConfig {
        blocks,
        ..AcoConfig::paper(seed)
    };

    let mut diags = if args.iter().any(|a| a == "--pedantic") {
        sv::lint_ddg_pedantic(&ddg)
    } else {
        sv::lint_ddg(&ddg)
    };
    diags.extend(sv::lint_config(&cfg));

    // Deny-level lints (a non-SSA region, a degenerate configuration) make
    // the input unschedulable — report them instead of handing the
    // schedulers an input they are allowed to reject violently.
    if LevelCounts::of(&diags).deny > 0 {
        print!("{}", render_text("verify", &diags));
        return Err("verification failed: the region or configuration is invalid".into());
    }

    let which = flag_value(args, "--scheduler").unwrap_or_else(|| "all".into());
    // Validate --threads up front so a bad value errors even when the
    // parallel scheduler is not among the certified set.
    let threads = host_threads(args)?;
    let schedulers: Vec<&str> = match which.as_str() {
        "all" => vec!["amd", "cp", "luc", "seq", "par", "exact"],
        s @ ("amd" | "cp" | "luc" | "seq" | "par" | "exact") => vec![s],
        other => return Err(format!("unknown scheduler `{other}`")),
    };
    let mut certified = 0usize;
    for s in schedulers {
        let before = diags.len();
        match s {
            "amd" | "cp" | "luc" => {
                let r = ListScheduler::new(list_heuristic(s)).schedule(&ddg, &occ);
                diags.extend(sv::certify_list(&ddg, &occ, &r));
            }
            "seq" => {
                let r = SequentialScheduler::new(cfg).schedule(&ddg, &occ);
                diags.extend(sv::certify_aco(&ddg, &occ, &cfg, &r));
            }
            "par" => {
                let out = IdleCores::new(threads - 1)
                    .enter(|| ParallelScheduler::new(cfg).schedule(&ddg, &occ));
                diags.extend(sv::certify_aco(&ddg, &occ, &cfg, &out.result));
                let lent = [0, 1, threads - 1];
                diags.extend(sv::check_lending_determinism(&ddg, &occ, &cfg, &lent));
            }
            "exact" => {
                if ddg.len() > exact_sched::MAX_EXACT_SIZE {
                    println!(
                        "verify: skipping exact search ({} instructions > limit {})",
                        ddg.len(),
                        exact_sched::MAX_EXACT_SIZE
                    );
                    continue;
                }
                let r =
                    exact_sched::two_pass_optimum(&ddg, &occ, &exact_sched::BnbConfig::default());
                diags.extend(sv::certify_exact(&ddg, &occ, &r));
            }
            _ => unreachable!(),
        }
        certified += 1;
        if diags.len() == before {
            println!("verify: {s}: ok");
        }
    }

    // A clean run prints only the per-scheduler `ok` lines above.
    if !diags.is_empty() {
        print!("{}", render_text("verify", &diags));
    }
    let deny = LevelCounts::of(&diags).deny;
    if deny > 0 {
        return Err(format!("verification failed: {deny} deny-level finding(s)"));
    }
    println!(
        "verify: {certified} scheduler(s) certified clean on {} instructions",
        ddg.len()
    );
    Ok(())
}

/// `analyze`: the exact S-code dataflow passes over one or more region
/// files, plus the once-per-invocation S007 cache-key coverage check.
///
/// Files are parsed with [`textir::parse_raw`] so structurally broken
/// regions (cycles, dangling edge endpoints) still analyze — a cyclic
/// region is an S002 finding with a minimal witness, not a parse error.
/// When a region does build into a valid DDG, the AMD heuristic schedules
/// it and the claimed length/PRP are checked against the exact lower
/// bounds (S005/S006).
fn analyze(args: &[String]) -> Result<(), String> {
    use gpu_aco::analyze as sa;
    use gpu_aco::compile::{check_config_drift, PipelineConfig, SchedulerKind};

    let paths = positional_args(args, &ANALYZE_FLAGS)?;
    if paths.is_empty() {
        return Err("analyze needs at least one region file".into());
    }
    let occ = OccupancyModel::vega_like();
    let mut findings = Vec::new();
    for path in &paths {
        let text =
            std::fs::read_to_string(path.as_str()).map_err(|e| format!("reading {path}: {e}"))?;
        let raw = textir::parse_raw(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        let claim = raw.clone().into_ddg().ok().map(|ddg| {
            let r = ListScheduler::new(Heuristic::AmdMaxOccupancy).schedule(&ddg, &occ);
            sa::ScheduleClaim {
                length: r.length as u64,
                prp: r.prp,
                source: "amd heuristic",
            }
        });
        let g = sa::RegionGraph::from_raw(&raw);
        let file_findings = sa::analyze_with_claims(&g, claim.as_slice());
        findings.extend(file_findings.into_iter().map(|f| f.in_file(path.as_str())));
    }
    findings.extend(check_config_drift(
        &PipelineConfig::paper(SchedulerKind::ParallelAco, 0),
        &occ,
    ));
    if !args.iter().any(|a| a == "--pedantic") {
        findings.retain(|f| f.level > sa::Level::Pedantic);
    }

    let (findings, suppressed) = match flag_value(args, "--baseline") {
        Some(f) => {
            let text =
                std::fs::read_to_string(&f).map_err(|e| format!("reading baseline {f}: {e}"))?;
            sa::Baseline::parse(&text).apply(findings)
        }
        None => (findings, 0),
    };
    if let Some(out) = flag_value(args, "--write-baseline") {
        std::fs::write(&out, sa::Baseline::accepting(&findings).to_text())
            .map_err(|e| format!("writing baseline {out}: {e}"))?;
        eprintln!("wrote baseline {out} ({} finding(s))", findings.len());
    }

    if args.iter().any(|a| a == "--json") {
        println!("{}", sa::render_json(&findings, suppressed));
    } else {
        print!("{}", sa::render_text("analyze", &findings));
        if suppressed > 0 {
            println!("analyze: {suppressed} finding(s) suppressed by baseline");
        }
        if findings.is_empty() {
            println!("analyze: {} file(s): ok", paths.len());
        }
    }
    let deny = findings
        .iter()
        .filter(|f| f.level == sa::Level::Deny)
        .count();
    if deny > 0 {
        return Err(format!("analysis failed: {deny} deny-level finding(s)"));
    }
    Ok(())
}

fn generate(args: &[String]) -> Result<(), String> {
    positional_args(args, &GENERATE_FLAGS)?;
    let pattern = args.first().ok_or("generate needs a pattern")?;
    let size: usize = args
        .get(1)
        .ok_or("generate needs a size")?
        .parse()
        .map_err(|_| "size must be an integer")?;
    let seed = aco_seed(args)?;
    let ddg = match pattern.as_str() {
        "reduction" => workloads::patterns::reduction(size.max(1), seed),
        "scan" => workloads::patterns::scan(size.max(1), seed),
        "transform" => workloads::patterns::transform_chain(size.max(1), 4, seed),
        "vector" => workloads::patterns::vector_transform(size.max(1), 3, 4, seed),
        "stencil" => workloads::patterns::stencil(size.max(1), 2, seed),
        "sort" => workloads::patterns::sort_network(size.next_power_of_two().max(2), seed),
        "gather" => workloads::patterns::gather_chain(size.max(1), 3, seed),
        "random" => workloads::patterns::random_layered(size.max(1), 5, seed),
        "mixed" => workloads::patterns::sized(size.max(2), seed),
        other => return Err(format!("unknown pattern `{other}`")),
    };
    print!("{}", textir::to_text(&ddg));
    Ok(())
}

fn inspect(args: &[String]) -> Result<(), String> {
    positional_args(args, &INSPECT_FLAGS)?;
    let path = args.first().ok_or("inspect needs a region file")?;
    let ddg = load_region(path)?;
    let occ = OccupancyModel::vega_like();
    let stats = ddg.reg_stats();
    let tc = ddg.transitive_closure();
    println!("instructions     : {}", ddg.len());
    println!("edges            : {}", ddg.edge_count());
    println!("critical path    : {} cycles", ddg.critical_path_length());
    println!("length LB        : {} cycles", ddg.schedule_length_lb());
    println!(
        "ready-list UB    : {} (loose bound {})",
        tc.ready_list_ub(),
        ddg.len()
    );
    println!(
        "RP lower bound   : VGPR {}, SGPR {}",
        ddg.rp_lower_bound()[0],
        ddg.rp_lower_bound()[1]
    );
    println!(
        "live-in / out    : {:?} / {:?}",
        stats.live_in, stats.live_out
    );
    let amd = ListScheduler::new(Heuristic::AmdMaxOccupancy).schedule(&ddg, &occ);
    println!(
        "AMD heuristic    : {} cycles, VGPR PRP {}, occupancy {}",
        amd.length, amd.prp[0], amd.occupancy
    );
    Ok(())
}

/// `serve`: run the scheduling daemon. Stdio transport by default (EOF
/// drains and persists); `--socket PATH` serves concurrent Unix-socket
/// clients until SIGTERM/SIGINT, then drains and persists.
fn serve(args: &[String]) -> Result<(), String> {
    use gpu_aco::serve::ServeConfig;

    positional_args(args, &SERVE_FLAGS)?;
    let workers = match flag_value(args, "--workers") {
        Some(s) => s
            .parse::<usize>()
            .map(|n| n.max(1))
            .map_err(|_| "--workers must be an integer")?,
        None => std::thread::available_parallelism().map_or(2, |n| n.get()),
    };
    let queue_capacity = match flag_value(args, "--queue") {
        Some(s) => s
            .parse::<usize>()
            .map_err(|_| "--queue must be an integer")?,
        None => 256,
    };
    let config = ServeConfig {
        workers,
        queue_capacity,
        cache_path: flag_value(args, "--cache").map(std::path::PathBuf::from),
        ..ServeConfig::default()
    };
    match flag_value(args, "--socket") {
        Some(path) => gpu_aco::serve::serve_unix(std::path::Path::new(&path), config)
            .map_err(|e| format!("serve --socket {path}: {e}")),
        None => gpu_aco::serve::serve_stdio(config).map_err(|e| format!("serve: {e}")),
    }
}

/// `request`: one-shot client for a running daemon. Prints the response
/// payload on stdout; `err`, `overloaded` and `expired` responses exit
/// nonzero with the typed condition on stderr.
fn request(args: &[String]) -> Result<(), String> {
    use gpu_aco::serve::proto::{read_response, Response};
    use std::io::{BufReader, Write};
    use std::os::unix::net::UnixStream;

    let socket = flag_value(args, "--socket").ok_or("request needs --socket PATH")?;
    let positional = positional_args(args, &REQUEST_FLAGS)?;
    let command = positional
        .first()
        .ok_or("request needs a command: schedule|suite|stats|flush")?;

    // Assemble the request line from the flags the one-shot commands use.
    let mut opts = String::new();
    for flag in ["--scheduler", "--seed", "--blocks", "--scale", "--gate"] {
        if let Some(v) = flag_value(args, flag) {
            opts.push_str(&format!(" {}={v}", &flag[2..]));
        }
    }
    if args.iter().any(|a| a == "--unit-aprp") {
        opts.push_str(" unit-aprp");
    }
    if let Some(v) = flag_value(args, "--deadline-ms") {
        opts.push_str(&format!(" deadline-ms={v}"));
    }
    let wire = match command.as_str() {
        "stats" => "req cli stats\n".to_string(),
        "flush" => "req cli flush\n".to_string(),
        "suite" => format!("req cli suite{opts}\n"),
        "schedule" => {
            let path = positional
                .get(1)
                .ok_or("request schedule needs a region file")?;
            let text = std::fs::read_to_string(path.as_str())
                .map_err(|e| format!("reading {path}: {e}"))?;
            let text = if text.ends_with('\n') {
                text
            } else {
                text + "\n"
            };
            format!(
                "req cli schedule{opts} ddg {}\n{text}",
                text.lines().count()
            )
        }
        other => return Err(format!("unknown request command `{other}`")),
    };

    let mut stream =
        UnixStream::connect(&socket).map_err(|e| format!("connecting {socket}: {e}"))?;
    stream
        .write_all(wire.as_bytes())
        .and_then(|()| stream.flush())
        .map_err(|e| format!("sending request: {e}"))?;
    let clone = stream.try_clone().map_err(|e| format!("socket: {e}"))?;
    let mut reader = BufReader::new(clone);
    let (_, resp) = read_response(&mut reader)
        .map_err(|e| format!("reading response: {e}"))?
        .ok_or("connection closed before a response arrived")?;
    match resp {
        Response::Ok { payload } => {
            print!("{payload}");
            Ok(())
        }
        Response::Err { message } => Err(format!("server error: {message}")),
        Response::Overloaded { queued, capacity } => Err(format!(
            "server overloaded ({queued} queued, capacity {capacity}); retry later"
        )),
        Response::Expired {
            waited_ms,
            deadline_ms,
        } => Err(format!(
            "request expired in queue ({waited_ms} ms waited, {deadline_ms} ms deadline)"
        )),
    }
}
