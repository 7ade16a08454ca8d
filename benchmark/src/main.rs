//! One benchmark for the compile service.
//!
//! `benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]`
//! runs one named workload, prints every metric by name with its unit,
//! checks every output, and ends with the one JSON line the driver reads.
//! See `README.md` beside this package for the workloads and metrics.

mod inputs;
mod json;
mod layers;
mod names;
mod report;
mod serve_wl;
mod stats;
mod suite_wl;
mod trace;

use inputs::Opts;
use std::process::ExitCode;

const USAGE: &str =
    "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
  --workload  one of the workloads BENCHMARK.json names
  --seed      order requests are sent in and corpus kernels are laid out in (default 5)
  --seconds   seconds of timed passes in an untraced run (default 10)
  --trace     1: single-threaded layer trace, prints the per-layer metrics and
              writes benchmark/out/trace-<workload>.json; 0 (default): end-to-end metrics
  --smoke     tiny inputs, one timed pass, full correctness gate";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 5,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => opts.workload = value()?.to_string(),
            "--seed" => opts.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opts.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workloads = &names::manifest().workloads;
    if !workloads.contains(&opts.workload) {
        return Err(format!(
            "unknown workload `{}`; the workloads are: {}",
            opts.workload,
            workloads.join(" ")
        ));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {}  seed {}  trace {}  smoke {}  nproc {}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        opts.smoke,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let parts = inputs::suite_parts(&opts.workload, &opts.sizes());
    let mut report = match (&parts, opts.trace) {
        (Some(parts), false) => suite_wl::run(&opts, parts),
        (Some(parts), true) => layers::trace_suite(&opts, parts),
        (None, false) => serve_wl::run(&opts),
        (None, true) => serve_wl::trace(&opts),
    };
    report.close();
    print!("{}", report.table());
    match report.json_line() {
        // A run whose outputs were wrong still prints its result, so the
        // failure count is visible, but does not exit 0.
        Ok(line) => {
            println!("{line}");
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let o = parse_args(&args(
            "--workload serve-mix --seed 11 --seconds 8 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            o,
            Opts {
                workload: "serve-mix".into(),
                seed: 11,
                seconds: 8.0,
                trace: true,
                smoke: false
            }
        );
        let o = parse_args(&args("--workload suite-dup --smoke")).unwrap();
        assert!(o.smoke && !o.trace && o.seed == 5);
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        for bad in [
            "",
            "--workload nope",
            "--workload suite-dup --trace 2",
            "--workload suite-dup --seed x",
            "--workload suite-dup --seconds 0",
            "--workload suite-dup --bogus",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "`{bad}` must be rejected");
        }
    }
}
