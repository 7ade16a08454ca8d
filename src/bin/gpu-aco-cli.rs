//! Command-line front end: schedule regions from text files with any of
//! the workspace's schedulers.
//!
//! ```text
//! gpu-aco-cli schedule <region.txt>... [--scheduler amd|cp|seq|par|batched|luc|exact]
//!                      [--seed N] [--blocks N] [--threads N] [--unit-aprp]
//!                      [--cache <cache.txt>] [--cache-stats] [--dot <out.dot>]
//! gpu-aco-cli generate <pattern> <size> [--seed N]     # emit a region file
//! gpu-aco-cli inspect <region.txt>                     # bounds and stats
//! gpu-aco-cli verify <region.txt> [--scheduler ...|all] [--pedantic]
//! gpu-aco-cli analyze <region.txt>... [--json] [--pedantic]
//!                     [--baseline <file>] [--write-baseline <file>]
//! ```
//!
//! `schedule --scheduler amd|cp|seq|par` (default `par`) parses its options
//! into the daemon's [`gpu_aco::serve::proto::ScheduleOpts`], compiles each
//! region through the pipeline's one region path (heuristic, two-pass ACO,
//! post filter) and prints the daemon's `schedule` reply byte for byte, one
//! per file in argument order. `--cache <cache.txt>` answers through the
//! content-addressed [`gpu_aco::compile::ScheduleCache`] persisted at that
//! path, with the same bytes: a hit skips the ACO search and is
//! re-certified before adoption.
//!
//! `--scheduler batched` plans the files into cooperative launch groups
//! (the paper's Section VII proposal) under the pipeline's batching policy
//! and compiles each group in one launch pair, as a `batched` suite
//! compiles a kernel: each region keeps what a solo `par` run with its
//! share of the blocks keeps. `luc` and `exact`, which no pipeline kind
//! runs, call their scheduler directly on one file and print a report of
//! their own.
//!
//! `verify` runs the independent verification layer (`sched-verify`): it
//! lints the region and the ACO configuration, schedules the region with
//! the selected scheduler(s) as `schedule` does, re-derives every claim
//! each scheduler makes (order, pressure, occupancy, length, bounds,
//! two-pass invariant), and exits nonzero if any deny-level finding is
//! reported (the same `Finding` model and text renderer `analyze` uses).
//!
//! `analyze` runs the exact static dataflow passes (`sched-analyze`):
//! S001 transitive-redundant edges, S002 cycles with a minimal witness,
//! S003 orphan nodes, S004 latencies that contradict the machine model,
//! and S005/S006 infeasible pressure/length claims against the AMD
//! heuristic's schedule. Findings carry source spans from the region file;
//! `--json` emits the machine-readable report (`sched-analyze-findings/v1`)
//! the CI deny-gate consumes; a baseline file suppresses known findings.
//! Exit is nonzero iff an unsuppressed deny-level finding remains.
//!
//! Flags and positionals come in any order. An unknown, valueless or
//! repeated flag is a usage error, so a mistyped command line never runs a
//! different configuration silently.
//!
//! The region file format is documented in [`sched_ir::textir`]; `generate`
//! produces it from the rocPRIM-shaped workload generators.

use gpu_aco::compile::batch::compile_batch_group;
use gpu_aco::compile::{
    compile_region, plan_batches, PipelineConfig, RegionCompilation, ScheduleCache, SchedulerKind,
};
use gpu_aco::heuristics::{Heuristic, ListScheduler, RegionAnalysis};
use gpu_aco::machine::OccupancyModel;
use gpu_aco::scheduler::IdleCores;
use gpu_aco::serve::proto::ScheduleOpts;
use gpu_aco::serve::render;
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
  gpu-aco-cli schedule <region.txt>... [--scheduler amd|cp|seq|par|batched|luc|exact]
                       [--seed N] [--blocks N] [--threads N] [--unit-aprp]
                       [--cache <cache.txt>] [--cache-stats] [--dot <out.dot>]
  gpu-aco-cli generate <pattern> <size> [--seed N]
      patterns: reduction scan transform vector stencil sort gather random mixed
  gpu-aco-cli inspect <region.txt>
  gpu-aco-cli verify <region.txt> [--scheduler amd|cp|seq|par|luc|exact|all]
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

  --scheduler   amd|cp|seq|par (default par) print the pipeline's report,
                the daemon's `schedule` reply, for each region file; batched
                compiles the files in cooperative launch groups; luc and
                exact run directly on one file
  --json        emit the sched-analyze-findings/v1 JSON report on stdout
  --pedantic    include pedantic-level findings (S001) in the report
  --baseline F  suppress the findings recorded in baseline file F
  --write-baseline F  write a baseline accepting every current finding to F
  --threads N   host cores to use (default: all available); with
                --scheduler par, N-1 idle cores run some of the wavefronts
                of each ACO iteration of a large region; results are
                identical at any value
  --cache F     answer through the pipeline's certified schedule cache,
                persisted at F across invocations (schedulers amd|cp|seq|par);
                hits skip the ACO search and are re-certified before
                adoption; the output is the same bytes as without it
  --cache-stats report the --cache hit/miss/insert/bypass/eviction counters
                on stderr (needs --cache)

  serve         run the scheduling daemon: requests on stdin (default, or
                --stdio) or a Unix socket (--socket), one warm schedule
                cache shared by every client, preloaded from --cache and
                persisted back on shutdown/flush; --workers compile threads
                (default: all cores), --queue admission capacity
                (default 256)
  request       client for a running daemon: sends one request over the
                socket and prints the response payload, byte-identical to
                the one-shot `schedule` output; exits nonzero on
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

/// One subcommand's arguments, parsed once: the positionals in order and
/// every flag given, with its value.
struct Args<'a> {
    positionals: Vec<&'a str>,
    flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// Splits `args` by the flags a subcommand takes: `values`, each with
    /// the argument after it, and `switches`. A `--flag` it does not take,
    /// a value flag whose value is missing or is itself a `--flag`, and a
    /// flag given twice are errors: each would run a configuration the user
    /// did not ask for.
    fn parse(args: &'a [String], values: &[&str], switches: &[&str]) -> Result<Args<'a>, String> {
        let mut parsed = Args {
            positionals: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = args.iter().map(String::as_str);
        while let Some(a) = it.next() {
            let value = if values.contains(&a) {
                match it.next() {
                    Some(v) if !v.starts_with("--") => Some(v),
                    _ => return Err(format!("option `{a}` needs a value")),
                }
            } else if switches.contains(&a) {
                None
            } else if a.starts_with("--") {
                return Err(format!("unknown option `{a}`"));
            } else {
                parsed.positionals.push(a);
                continue;
            };
            if parsed.has(a) {
                return Err(format!("option `{a}` given more than once"));
            }
            parsed.flags.push((a, value));
        }
        Ok(parsed)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|&(f, _)| f == flag)
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        self.flags
            .iter()
            .find(|&&(f, _)| f == flag)
            .and_then(|&(_, v)| v)
    }

    /// The value of `flag` as an integer, when given.
    fn integer<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|s| s.parse().map_err(|_| format!("{flag} must be an integer")))
            .transpose()
    }

    /// The one positional argument; `missing` is the error without one.
    fn only(&self, missing: &str) -> Result<&'a str, String> {
        match self.positionals[..] {
            [one] => Ok(one),
            [] => Err(missing.into()),
            [_, extra, ..] => Err(unexpected(extra)),
        }
    }
}

fn unexpected(arg: &str) -> String {
    format!("unexpected argument `{arg}`")
}

/// `--threads`: host cores the command may use; `schedule` and `verify`
/// lend all but one to the wavefronts of the region's ACO iterations.
/// Defaults to every available core; schedules are identical at any value,
/// so this is purely a wall-clock knob.
fn host_threads(args: &Args) -> Result<usize, String> {
    Ok(match args.integer::<usize>("--threads")? {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

/// The single-region options `schedule` and `verify` share with the
/// daemon's `schedule` request, parsed by the daemon's own per-option
/// parser, so defaults, validation and error text are the daemon's. A
/// `--scheduler` value in `direct` names a scheduler the daemon's request
/// does not run (`luc`, `exact`, `batched` on `schedule`, and `all` on
/// `verify`); it is returned beside the options and leaves their kind at
/// its default.
fn region_opts<'a>(
    args: &Args<'a>,
    direct: &[&str],
) -> Result<(ScheduleOpts, Option<&'a str>), String> {
    let mut opts = ScheduleOpts::default();
    let mut picked = None;
    for &(flag, value) in &args.flags {
        match (flag, value) {
            ("--scheduler", Some(v)) if direct.contains(&v) => picked = Some(v),
            ("--scheduler" | "--seed" | "--blocks" | "--unit-aprp", _) => {
                opts.set(&flag[2..], value)?;
            }
            _ => {}
        }
    }
    Ok((opts, picked))
}

/// Compiles `regions` in order, with `threads - 1` idle cores lent to the
/// colony. A `batched` configuration plans them into cooperative launch
/// groups as the suite compiler plans a kernel's; a region no group holds
/// takes the pipeline's one region path, through `cache` when there is one.
fn compile(
    regions: &[Ddg],
    occ: &OccupancyModel,
    cfg: &PipelineConfig,
    threads: usize,
    cache: Option<&ScheduleCache>,
) -> Vec<RegionCompilation> {
    let mut comps: Vec<Option<RegionCompilation>> = regions.iter().map(|_| None).collect();
    IdleCores::new(threads - 1).enter(|| {
        if cfg.scheduler == SchedulerKind::BatchedParallelAco {
            let sizes: Vec<usize> = regions.iter().map(Ddg::len).collect();
            for group in plan_batches(&sizes, cfg.aco.blocks, &cfg.batching) {
                let members: Vec<&Ddg> = group.iter().map(|&i| &regions[i]).collect();
                let compiled = compile_batch_group(&members, occ, cfg);
                for (i, (_, comp)) in group.into_iter().zip(compiled) {
                    comps[i] = Some(comp);
                }
            }
        }
        let solo = |ddg| match cache {
            Some(c) => c.compile_solo(ddg, occ, cfg),
            None => compile_region(ddg, occ, cfg),
        };
        regions
            .iter()
            .zip(comps)
            .map(|(ddg, comp)| comp.unwrap_or_else(|| solo(ddg)))
            .collect()
    })
}

fn load_region(path: &str) -> Result<Ddg, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    textir::parse(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn schedule(argv: &[String]) -> Result<(), String> {
    use std::path::Path;

    let args = Args::parse(
        argv,
        &[
            "--scheduler",
            "--seed",
            "--blocks",
            "--threads",
            "--dot",
            "--cache",
        ],
        &["--unit-aprp", "--cache-stats"],
    )?;
    let (mut opts, direct) = region_opts(&args, &["luc", "exact", "batched"])?;
    // Validate --threads up front so a bad value errors even when the
    // selected scheduler never reads it.
    let threads = host_threads(&args)?;
    let cache_file = args.value("--cache");
    if cache_file.is_none() && args.has("--cache-stats") {
        return Err("--cache-stats needs --cache <cache.txt>".into());
    }
    // A graph and the direct schedulers' reports are of one region.
    if args.has("--dot") || matches!(direct, Some("luc" | "exact")) {
        args.only("schedule needs a region file")?;
    }
    let mut regions = Vec::new();
    for path in &args.positionals {
        regions.push(load_region(path)?);
    }
    if regions.is_empty() {
        return Err("schedule needs a region file".into());
    }
    if let (Some(name), Some(_)) = (direct, cache_file) {
        return Err(format!(
            "the schedule cache supports --scheduler amd|cp|seq|par, not `{name}`"
        ));
    }
    if direct == Some("batched") {
        opts.scheduler = SchedulerKind::BatchedParallelAco;
    }
    let (occ, cfg) = opts.config();
    let sched = match direct {
        Some(name @ ("luc" | "exact")) => schedule_direct(name, &regions[0], &occ)?,
        _ => {
            let cache = match cache_file {
                Some(f) if Path::new(f).exists() => Some(
                    ScheduleCache::load_from(Path::new(f))
                        .map_err(|e| format!("loading cache {f}: {e}"))?,
                ),
                Some(_) => Some(ScheduleCache::new()),
                None => None,
            };
            let comps = compile(&regions, &occ, &cfg, threads, cache.as_ref());
            for (ddg, comp) in regions.iter().zip(&comps) {
                let report = render::schedule_report(ddg, &occ, cfg.scheduler, comp)?;
                print!("{report}");
            }
            if args.has("--cache-stats") {
                let s = cache.as_ref().map(ScheduleCache::stats).unwrap_or_default();
                eprintln!(
                    "cache: {} hits, {} misses, {} inserts, {} bypasses, {} evictions",
                    s.hits, s.misses, s.inserts, s.bypasses, s.evictions
                );
            }
            if let (Some(c), Some(f)) = (&cache, cache_file) {
                c.save_to(Path::new(f))
                    .map_err(|e| format!("writing cache {f}: {e}"))?;
            }
            comps[0].kept_schedule().0.clone()
        }
    };
    if let Some(out) = args.value("--dot") {
        std::fs::write(
            out,
            sched_ir::dot::to_dot_with_schedule(&regions[0], &sched),
        )
        .map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote {out}");
    }
    Ok(())
}

/// `schedule --scheduler luc|exact`: the two schedulers no pipeline kind
/// runs, called directly. Prints their report and returns the schedule.
fn schedule_direct(name: &str, ddg: &Ddg, occ: &OccupancyModel) -> Result<Schedule, String> {
    let (title, sched, prp, extra) = if name == "luc" {
        let r = ListScheduler::new(Heuristic::LastUseCount).schedule(ddg, occ);
        (
            "LastUseCount list scheduler",
            r.schedule,
            r.prp,
            String::new(),
        )
    } else {
        if ddg.len() > exact_sched::MAX_EXACT_SIZE {
            return Err(format!(
                "exact search supports at most {} instructions (region has {})",
                exact_sched::MAX_EXACT_SIZE,
                ddg.len()
            ));
        }
        let r = exact_sched::two_pass_optimum(ddg, occ, &exact_sched::BnbConfig::default());
        let extra = format!(
            ", {} search nodes{}",
            r.nodes,
            if r.proven_optimal {
                ", proven optimal"
            } else {
                " (limit hit)"
            }
        );
        ("exact B&B", r.schedule, r.prp, extra)
    };
    sched
        .validate(ddg)
        .map_err(|e| format!("internal error: invalid schedule: {e}"))?;
    println!(
        "{title}: {} instructions in {} cycles ({} stalls), VGPR PRP {}, SGPR PRP {}, \
         occupancy {}{extra}",
        ddg.len(),
        sched.length(),
        sched.stalls(),
        prp[0],
        prp[1],
        occ.occupancy(prp),
    );
    print!("{}", render::schedule_line(ddg, &sched));
    Ok(sched)
}

fn verify(argv: &[String]) -> Result<(), String> {
    use gpu_aco::analyze::{render_text, LevelCounts};
    use gpu_aco::verify as sv;

    let args = Args::parse(
        argv,
        &["--scheduler", "--seed", "--blocks", "--threads"],
        &["--unit-aprp", "--pedantic"],
    )?;
    let path = args.only("verify needs a region file")?;
    let (opts, direct) = region_opts(&args, &["luc", "exact", "all"])?;
    // Validate --threads up front so a bad value errors even when the
    // parallel scheduler is not among the certified set.
    let threads = host_threads(&args)?;
    let ddg = load_region(path)?;
    let (occ, cfg) = opts.config();

    let mut diags = if args.has("--pedantic") {
        sv::lint_ddg_pedantic(&ddg)
    } else {
        sv::lint_ddg(&ddg)
    };
    diags.extend(sv::lint_config(&cfg.aco));

    // Deny-level lints (a non-SSA region, a degenerate configuration) make
    // the input unschedulable — report them instead of handing the
    // schedulers an input they are allowed to reject violently.
    if LevelCounts::of(&diags).deny > 0 {
        print!("{}", render_text("verify", &diags));
        return Err("verification failed: the region or configuration is invalid".into());
    }

    let schedulers = match (direct, args.has("--scheduler")) {
        (Some(name), _) if name != "all" => vec![name],
        (None, true) => vec![opts.scheduler.short_name()],
        _ => vec!["amd", "cp", "luc", "seq", "par", "exact"],
    };
    let mut certified = 0usize;
    for s in schedulers {
        let before = diags.len();
        match s {
            "luc" => {
                let r = ListScheduler::new(Heuristic::LastUseCount).schedule(&ddg, &occ);
                diags.extend(sv::certify_list(&ddg, &occ, &r));
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
            kind => {
                // The compilation `schedule` prints for this kind; the
                // region was linted above.
                let scheduler = SchedulerKind::from_short_name(kind).expect("a pipeline kind");
                let (_, cfg) = ScheduleOpts { scheduler, ..opts }.config();
                let comp = compile(std::slice::from_ref(&ddg), &occ, &cfg, threads, None).remove(0);
                diags.extend(sv::certify_region_compilation(&ddg, &occ, &cfg, &comp));
                if scheduler == SchedulerKind::ParallelAco {
                    let lent = [0, 1, threads - 1];
                    diags.extend(sv::check_lending_determinism(&ddg, &occ, &cfg.aco, &lent));
                }
            }
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
/// files.
///
/// Files are parsed with [`textir::parse_raw`] so structurally broken
/// regions (cycles, dangling edge endpoints) still analyze — a cyclic
/// region is an S002 finding with a minimal witness, not a parse error.
/// When a region does build into a valid DDG, the AMD heuristic schedules
/// it and the claimed length/PRP are checked against the exact lower
/// bounds (S005/S006).
fn analyze(argv: &[String]) -> Result<(), String> {
    use gpu_aco::analyze as sa;

    let args = Args::parse(
        argv,
        &["--baseline", "--write-baseline"],
        &["--json", "--pedantic"],
    )?;
    let paths = &args.positionals;
    if paths.is_empty() {
        return Err("analyze needs at least one region file".into());
    }
    let occ = OccupancyModel::vega_like();
    let mut findings = Vec::new();
    for &path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
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
        findings.extend(file_findings.into_iter().map(|f| f.in_file(path)));
    }
    if !args.has("--pedantic") {
        findings.retain(|f| f.level > sa::Level::Pedantic);
    }

    let (findings, suppressed) = match args.value("--baseline") {
        Some(f) => {
            let text =
                std::fs::read_to_string(f).map_err(|e| format!("reading baseline {f}: {e}"))?;
            sa::Baseline::parse(&text).apply(findings)
        }
        None => (findings, 0),
    };
    if let Some(out) = args.value("--write-baseline") {
        std::fs::write(out, sa::Baseline::accepting(&findings).to_text())
            .map_err(|e| format!("writing baseline {out}: {e}"))?;
        eprintln!("wrote baseline {out} ({} finding(s))", findings.len());
    }

    if args.has("--json") {
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

fn generate(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["--seed"], &[])?;
    let (pattern, size) = match args.positionals[..] {
        [pattern, size] => (pattern, size),
        [] => return Err("generate needs a pattern".into()),
        [_] => return Err("generate needs a size".into()),
        [_, _, extra, ..] => return Err(unexpected(extra)),
    };
    let size: usize = size.parse().map_err(|_| "size must be an integer")?;
    let seed = args.integer("--seed")?.unwrap_or(0);
    let ddg = match pattern {
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

fn inspect(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &[], &[])?;
    let ddg = load_region(args.only("inspect needs a region file")?)?;
    let occ = OccupancyModel::vega_like();
    let stats = ddg.reg_stats();
    let analysis = RegionAnalysis::new(&ddg);
    let rp_lb = ddg.rp_lower_bound();
    println!("instructions     : {}", ddg.len());
    println!("edges            : {}", ddg.edge_count());
    println!("critical path    : {} cycles", analysis.facts.critical_path);
    println!("length LB        : {} cycles", analysis.facts.length_lb);
    println!(
        "ready-list UB    : {} (loose bound {})",
        analysis.ready_list_ub,
        ddg.len()
    );
    println!("RP lower bound   : VGPR {}, SGPR {}", rp_lb[0], rp_lb[1]);
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
fn serve(argv: &[String]) -> Result<(), String> {
    use gpu_aco::serve::ServeConfig;

    let args = Args::parse(
        argv,
        &["--socket", "--cache", "--workers", "--queue"],
        &["--stdio"],
    )?;
    if let Some(extra) = args.positionals.first() {
        return Err(unexpected(extra));
    }
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        workers: args
            .integer::<usize>("--workers")?
            .map_or(defaults.workers, |n| n.max(1)),
        queue_capacity: args.integer("--queue")?.unwrap_or(defaults.queue_capacity),
        cache_path: args.value("--cache").map(std::path::PathBuf::from),
        ..defaults
    };
    match args.value("--socket") {
        Some(path) => gpu_aco::serve::serve_unix(std::path::Path::new(path), config)
            .map_err(|e| format!("serve --socket {path}: {e}")),
        None => gpu_aco::serve::serve_stdio(config).map_err(|e| format!("serve: {e}")),
    }
}

/// `request`: one-shot client for a running daemon. Prints the response
/// payload on stdout; `err`, `overloaded` and `expired` responses exit
/// nonzero with the typed condition on stderr.
fn request(argv: &[String]) -> Result<(), String> {
    use gpu_aco::serve::proto::{read_response, Response};
    use std::io::{BufReader, Write};
    use std::os::unix::net::UnixStream;

    let args = Args::parse(
        argv,
        &[
            "--socket",
            "--scheduler",
            "--seed",
            "--blocks",
            "--scale",
            "--gate",
            "--deadline-ms",
        ],
        &["--unit-aprp"],
    )?;
    let socket = args
        .value("--socket")
        .ok_or("request needs --socket PATH")?;
    // The request line's options are the flags the one-shot commands use.
    let mut opts = String::new();
    for &(flag, value) in args.flags.iter().filter(|&&(f, _)| f != "--socket") {
        opts.push_str(&format!(" {}", &flag[2..]));
        if let Some(v) = value {
            opts.push_str(&format!("={v}"));
        }
    }
    let wire = match args.positionals[..] {
        [cmd @ ("stats" | "flush")] => format!("req cli {cmd}\n"),
        ["suite"] => format!("req cli suite{opts}\n"),
        ["schedule"] => return Err("request schedule needs a region file".into()),
        ["schedule", path] => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
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
        [] => return Err("request needs a command: schedule|suite|stats|flush".into()),
        ["schedule" | "suite" | "stats" | "flush", .., extra] => return Err(unexpected(extra)),
        [cmd, ..] => return Err(format!("unknown request command `{cmd}`")),
    };

    let mut stream =
        UnixStream::connect(socket).map_err(|e| format!("connecting {socket}: {e}"))?;
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
