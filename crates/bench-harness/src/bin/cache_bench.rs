//! `cache_bench` — wall-clock benchmark of the content-addressed schedule
//! cache.
//!
//! Compiles one duplicate-heavy suite with the cache off and on, and
//! writes a JSON report (default `BENCH_cache.json`) with both wall
//! clocks, the hit rate, and the result fingerprints. Invoked by
//! `scripts/bench.sh`.
//!
//! ```text
//! cache_bench [--smoke] [--out PATH] [--threads N] [--reps N]
//!             [--seed N] [--scale F] [--scheduler KIND]
//! ```
//!
//! `--smoke` runs a tiny suite and then **gates**: the report must pass
//! structural schema validation, the cache-on run must produce a result
//! fingerprint bitwise identical to the cache-off reference, the hit rate
//! on the duplicate-heavy suite must reach 30%, and the cache-on run must
//! not lose to cache-off by more than 10% (wall-clock noise allowance).
//! Any violation exits non-zero, failing `scripts/check.sh`.
//!
//! `--scheduler` takes a kind that runs a colony (`seq`, `par`, `batched`,
//! or a `Debug` name such as `ParallelAco`). `amd` and `cp` are a usage
//! error (exit 2): suite jobs that run no colony compile directly and never
//! touch the cache, so both runs would be the same run.

use bench_harness::cache_bench::{measure, validate_schema, CacheReport};
use pipeline::SchedulerKind;

struct Args {
    smoke: bool,
    out: String,
    threads: Option<usize>,
    reps: usize,
    seed: u64,
    scale: f64,
    scheduler: SchedulerKind,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        out: "BENCH_cache.json".to_string(),
        threads: None,
        reps: 3,
        seed: 5,
        scale: 0.02,
        scheduler: SchedulerKind::ParallelAco,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--out" => args.out = value("--out"),
            "--threads" => {
                args.threads = Some(
                    value("--threads")
                        .parse()
                        .expect("--threads takes a number"),
                );
            }
            "--reps" => args.reps = value("--reps").parse().expect("--reps takes a number"),
            "--seed" => args.seed = value("--seed").parse().expect("--seed takes a number"),
            "--scale" => args.scale = value("--scale").parse().expect("--scale takes a float"),
            "--scheduler" => {
                let name = value("--scheduler");
                args.scheduler = scheduler_kind(&name);
                if !args.scheduler.runs_colony() {
                    eprintln!(
                        "cache_bench: usage error: --scheduler {name} runs no colony, and \
                         suite jobs that run no colony never use the schedule cache, so \
                         cache on and off would time the same run; use seq, par or batched"
                    );
                    std::process::exit(2);
                }
            }
            other => panic!("unknown argument {other}"),
        }
    }
    args
}

/// A scheduler kind by its short name (`amd`, `cp`, `seq`, `par`,
/// `batched`) or its `Debug` name in any case (`ParallelAco`).
fn scheduler_kind(name: &str) -> SchedulerKind {
    SchedulerKind::from_short_name(name)
        .or_else(|| {
            SchedulerKind::ALL
                .into_iter()
                .find(|k| format!("{k:?}").eq_ignore_ascii_case(name))
        })
        .unwrap_or_else(|| panic!("unknown scheduler {name}"))
}

fn smoke_gate(report: &CacheReport, json: &str) {
    validate_schema(json).unwrap_or_else(|e| panic!("smoke: schema violation: {e}"));
    assert!(
        report.fingerprints_agree(),
        "smoke: cache-on result fingerprint differs from cache-off"
    );
    assert!(
        report.hit_rate() >= 0.30,
        "smoke: hit rate {:.3} below the 30% duplicate-heavy floor \
         (dedup ratio {:.3})",
        report.hit_rate(),
        report.dedup_ratio
    );
    let (off, on) = (report.off.best_total_s, report.on.best_total_s);
    assert!(
        on <= off * 1.10,
        "smoke: cache-on best {on:.4}s lost to cache-off {off:.4}s"
    );
    eprintln!("smoke: cache gate passed");
}

fn main() {
    let mut args = parse_args();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if args.smoke {
        args.scale = 0.008;
        args.reps = args.reps.min(2);
    }
    let threads = args.threads.unwrap_or(cores);
    let report = measure(args.seed, args.scale, args.scheduler, threads, args.reps);
    let json = report.to_json();
    std::fs::write(&args.out, &json).unwrap_or_else(|e| panic!("writing {}: {e}", args.out));
    eprintln!(
        "suite: {} regions, {} distinct (dedup ratio {:.3})",
        report.regions, report.distinct_regions, report.dedup_ratio
    );
    for s in [&report.off, &report.on] {
        eprintln!(
            "cache {:<3} best {:.4}s ({} hits, {} misses, {} bypasses)",
            if s.enabled { "on" } else { "off" },
            s.best_total_s,
            s.stats.hits,
            s.stats.misses,
            s.stats.bypasses
        );
    }
    eprintln!("hit rate: {:.1}%", report.hit_rate() * 100.0);
    if let Some(sp) = report.speedup() {
        eprintln!("speedup (cache on vs off): {sp:.2}x at {threads} host threads");
    }
    eprintln!("wrote {}", args.out);
    if args.smoke {
        smoke_gate(&report, &json);
    }
}
