//! Regenerates every measured table of EXPERIMENTS.md: the paper's Tables
//! 1–7, the data behind Figures 2–4, and the batched multi-region sweep.
//!
//! `cargo bench -p bench-harness --bench tables` rewrites each
//! `<!-- generated:NAME -->` block of the workspace's EXPERIMENTS.md in
//! place and leaves the text around the blocks alone. Every number is
//! modeled time or a count from seeded inputs, never host time, so a second
//! run writes the same bytes; `scripts/check.sh` fails when the committed
//! file differs from a fresh run. The paper's values are constants here,
//! printed next to the measured ones.
//!
//! Each shared input is measured once: the scale-0.02 suite's four builds
//! feed Tables 1, 2 and 5; Table 3's speedup records feed Figures 2 and 3;
//! one optimized colony run per region is the baseline of both Table 4
//! ablations. Suite compiles run on every host core, which changes no
//! result (`tests/golden_bitwise.rs` pins them at 1, 2 and 8 threads), and
//! the experiments run side by side, one thread each: every colony run and
//! suite compile is independent of the others, so that changes none either.

use aco::{AcoConfig, GpuTuning, ParallelScheduler};
use bench_harness::{
    fmt_opt, geomean, markdown_table, measure_speedup, regions_in_band, splice, SizeBand,
    SpeedupRecord,
};
use machine_model::OccupancyModel;
use pipeline::{
    compile_suite, BatchingConfig, PipelineConfig, RegionRecord, SchedulerKind, SuiteRun,
};
use sched_ir::Ddg;
use workloads::{Suite, SuiteConfig};

fn main() {
    let occ = &OccupancyModel::vega_like();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The experiments share no state, so each runs on its own thread; the
    // host's cores are shared among them and the suite compiles' pools.
    let blocks: Vec<(&str, String)> = std::thread::scope(|s| {
        let experiments = [
            s.spawn(|| suite_tables(occ, threads).to_vec()),
            s.spawn(|| speedup_tables(occ).to_vec()),
            s.spawn(|| ablation_tables(occ).to_vec()),
            s.spawn(|| vec![("fig4", fig4(occ, threads))]),
            s.spawn(|| vec![("table6", table6(occ))]),
            s.spawn(|| vec![("table7", table7(occ, threads))]),
            s.spawn(|| vec![("batched", batched(occ))]),
        ];
        (experiments.into_iter())
            .flat_map(|e| e.join().expect("no experiment panics"))
            .collect()
    });

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&path).expect("EXPERIMENTS.md is readable");
    match splice(&doc, &blocks) {
        Ok(new) => {
            std::fs::write(&path, new).expect("EXPERIMENTS.md is writable");
            println!("tables: {} blocks written to EXPERIMENTS.md", blocks.len());
        }
        Err(e) => {
            eprintln!("tables: EXPERIMENTS.md: {e}");
            std::process::exit(1);
        }
    }
}

const BAND_HEADERS: [&str; 4] = ["Inst. count range", "1-49", "50-99", ">=100"];

/// One row per stat: its measured value, then the paper's.
fn stat_table<const N: usize>(
    measured: &str,
    stats: [(&str, &str); N],
    values: [String; N],
) -> String {
    let rows: Vec<Vec<String>> = (stats.iter().zip(values))
        .map(|(&(stat, paper), value)| vec![stat.to_string(), value, paper.to_string()])
        .collect();
    markdown_table(&["Stat", measured, "paper"], &rows)
}

fn label_row(stat: &str, cells: Vec<String>) -> Vec<String> {
    [vec![stat.to_string()], cells].concat()
}

/// A measured row and, under it, the paper's row for the same stat.
fn with_paper(stat: &str, measured: Vec<String>, paper: &[&str]) -> [Vec<String>; 2] {
    let paper = paper.iter().map(|s| s.to_string()).collect();
    [
        label_row(stat, measured),
        label_row(&format!("{stat} (paper)"), paper),
    ]
}

fn pct(x: f64) -> String {
    format!("{x:.2}%")
}

/// The suite configuration of Tables 1, 2, 5, 7 and Figure 4: the paper's
/// pipeline on a 16-block colony.
fn suite_config(kind: SchedulerKind, seed: u64, threads: usize) -> PipelineConfig {
    let mut cfg = PipelineConfig::paper(kind, seed).with_host_threads(threads);
    cfg.aco.blocks = 16;
    cfg
}

/// Tables 1, 2 and 5: one generated stand-in for rocPRIM (DESIGN.md),
/// compiled once under each scheduler. Counts scale with `SCALE`; the
/// proportions are the reproduction target.
fn suite_tables(occ: &OccupancyModel, threads: usize) -> [(&'static str, String); 3] {
    /// Fraction of the paper-scale suite generated (1.0 = 341 benchmarks /
    /// 269 kernels / ~182k regions, minutes of runtime).
    const SCALE: f64 = 0.02;
    const SEED: u64 = 2024;
    const TABLE1: [(&str, &str); 9] = [
        ("Number of benchmarks", "341"),
        ("Number of kernels", "269"),
        ("Number of scheduling regions", "181,883"),
        ("Regions processed by ACO in pass 1", "1,734"),
        ("Regions processed by ACO in pass 2", "12,192"),
        ("Avg. processed region size in pass 1", "68.3"),
        ("Avg. processed region size in pass 2", "40.2"),
        ("Max. processed region size in pass 1", "1,176"),
        ("Max. processed region size in pass 2", "2,223"),
    ];
    const TABLE2: [(&str, &str); 7] = [
        ("Regions processed by ACO in pass 1", "1,734"),
        ("Regions processed by ACO in pass 2", "12,192"),
        ("Overall occupancy increase", "0.66%"),
        ("Max. occupancy increase in any kernel", "300%"),
        ("Overall schedule length reduction", "5.52%"),
        ("Length reduction at equal occupancy", "—"),
        ("Max. schedule length reduction", "78.52%"),
    ];
    let suite = Suite::generate(&SuiteConfig::scaled(SEED, SCALE));
    let measured = format!("measured (scale {SCALE})");
    let [base, seq, par, batched] = [
        SchedulerKind::BaseAmd,
        SchedulerKind::SequentialAco,
        SchedulerKind::ParallelAco,
        SchedulerKind::BatchedParallelAco,
    ]
    .map(|kind| compile_suite(&suite, occ, &suite_config(kind, SEED, threads)));

    let sizes = |processed: fn(&RegionRecord) -> bool| -> Vec<usize> {
        par.regions
            .iter()
            .filter(|r| processed(r))
            .map(|r| r.size)
            .collect()
    };
    let (p1, p2) = (sizes(|r| r.pass1_processed), sizes(|r| r.pass2_processed));
    let avg = |v: &[usize]| {
        format!(
            "{:.1}",
            v.iter().sum::<usize>() as f64 / v.len().max(1) as f64
        )
    };
    let max = |v: &[usize]| v.iter().max().copied().unwrap_or(0).to_string();
    let table1 = stat_table(
        &measured,
        TABLE1,
        [
            suite.benchmarks.len().to_string(),
            suite.kernels.len().to_string(),
            suite.region_count().to_string(),
            p1.len().to_string(),
            p2.len().to_string(),
            avg(&p1),
            avg(&p2),
            max(&p1),
            max(&p2),
        ],
    );

    let max_kernel_occ_gain = (par.kernel_occupancy.iter().zip(&base.kernel_occupancy))
        .map(|(&a, &b)| 100.0 * (a as f64 - b as f64) / (b.max(1) as f64))
        .fold(f64::MIN, f64::max);
    let max_len_red = (par.regions.iter().zip(&base.regions))
        .map(|(a, b)| 100.0 * (b.length as f64 - a.length as f64) / b.length as f64)
        .fold(f64::MIN, f64::max);
    // Length restricted to the regions where ACO did not trade length for
    // occupancy (the same final occupancy as the baseline): the pure ILP
    // improvement.
    let (same_occ_base, same_occ_par) = (par.regions.iter().zip(&base.regions))
        .filter(|(a, b)| a.occupancy == b.occupancy)
        .fold((0u64, 0u64), |(b_sum, a_sum), (a, b)| {
            (b_sum + b.length as u64, a_sum + a.length as u64)
        });
    let (occ_base, occ_par) = (base.total_occupancy() as f64, par.total_occupancy() as f64);
    let (len_base, len_par) = (base.total_length() as f64, par.total_length() as f64);
    let table2 = stat_table(
        &measured,
        TABLE2,
        [
            par.pass1_count().to_string(),
            par.pass2_count().to_string(),
            pct(100.0 * (occ_par - occ_base) / occ_base),
            pct(max_kernel_occ_gain),
            pct(100.0 * (len_base - len_par) / len_base),
            pct(100.0 * (same_occ_base as f64 - same_occ_par as f64) / same_occ_base.max(1) as f64),
            pct(max_len_red),
        ],
    );

    let base_s = base.compile_time_s;
    let over_base = |run: &SuiteRun| {
        let delta = 100.0 * (run.compile_time_s - base_s) / base_s;
        format!("{:.1} ({delta:+.1}%)", run.compile_time_s)
    };
    let table5 = stat_table(
        &format!("{measured}, seconds"),
        [
            (base.scheduler.name(), "840 s"),
            (seq.scheduler.name(), "1225 s (+45.8%)"),
            (par.scheduler.name(), "967 s (+15.1%)"),
            (batched.scheduler.name(), "—"),
        ],
        [
            format!("{base_s:.1}"),
            over_base(&seq),
            over_base(&par),
            over_base(&batched),
        ],
    );
    [("table1", table1), ("table2", table2), ("table5", table5)]
}

/// Tables 3.a / 3.b and Figures 2 / 3: for every sampled region both
/// schedulers run with identical parameters; a region is *comparable* in a
/// pass when both took the same number of iterations (Section VI-C), and its
/// speedup is modeled CPU time over modeled GPU time.
fn speedup_tables(occ: &OccupancyModel) -> [(&'static str, String); 4] {
    const PER_BAND: usize = 24;
    const SEED: u64 = 33;
    /// Geomean, max and min per band, for pass 1 then pass 2.
    const PAPER: [[[&str; 3]; 3]; 2] = [
        [
            ["2.07", "7.44", "12.48"],
            ["5.69", "12.69", "27.19"],
            ["0.63", "3.30", "5.66"],
        ],
        [
            ["1.99", "4.80", "7.55"],
            ["8.25", "13.03", "17.37"],
            ["0.45", "1.08", "4.10"],
        ],
    ];
    let mut cfg = AcoConfig::paper(SEED);
    cfg.blocks = 32; // scaled colony; see EXPERIMENTS.md
    let records: Vec<Vec<SpeedupRecord>> = SizeBand::ALL
        .iter()
        .map(|&band| {
            regions_in_band(band, PER_BAND, SEED)
                .iter()
                .enumerate()
                .map(|(i, ddg)| {
                    let seed = SEED + i as u64;
                    measure_speedup(ddg, occ, AcoConfig { seed, ..cfg })
                })
                .collect()
        })
        .collect();

    let table = |pass: usize| {
        let speedups: Vec<Vec<f64>> = records
            .iter()
            .map(|band| {
                band.iter()
                    .filter_map(|r| [r.pass1, r.pass2][pass])
                    .collect()
            })
            .collect();
        let per_band = |f: &dyn Fn(&[f64]) -> String| speedups.iter().map(|s| f(s)).collect();
        let processed = records
            .iter()
            .map(|band| {
                let n = band
                    .iter()
                    .filter(|r| [r.pass1_processed, r.pass2_processed][pass]);
                n.count().to_string()
            })
            .collect();
        let mut rows = vec![
            label_row("Regions processed by ACO", processed),
            label_row("Comparable regions", per_band(&|s| s.len().to_string())),
        ];
        let geo = per_band(&|s| fmt_opt(geomean(s)));
        let max = per_band(&|s| fmt_opt(s.iter().copied().reduce(f64::max)));
        let min = per_band(&|s| fmt_opt(s.iter().copied().reduce(f64::min)));
        rows.extend(with_paper("Geometric mean speedup", geo, &PAPER[pass][0]));
        rows.extend(with_paper("Max. speedup", max, &PAPER[pass][1]));
        rows.extend(with_paper("Min. speedup", min, &PAPER[pass][2]));
        (markdown_table(&BAND_HEADERS, &rows), histogram(&speedups))
    };
    let ((table3a, fig2), (table3b, fig3)) = (table(0), table(1));
    [
        ("table3a", table3a),
        ("table3b", table3b),
        ("fig2", fig2),
        ("fig3", fig3),
    ]
}

/// Figures 2 / 3: comparable regions per speedup bucket of width 2, one
/// column per size band; buckets no band reaches are left out.
fn histogram(speedups: &[Vec<f64>]) -> String {
    const WIDTH: f64 = 2.0;
    let bucket = |s: f64| (s / WIDTH) as usize;
    let top = speedups
        .iter()
        .flatten()
        .map(|&s| bucket(s))
        .max()
        .unwrap_or(0);
    let rows: Vec<Vec<String>> = (0..=top)
        .map(|b| {
            let counts = speedups
                .iter()
                .map(|s| s.iter().filter(|&&x| bucket(x) == b).count());
            let label = format!("{:.1}–{:.1}", b as f64 * WIDTH, (b + 1) as f64 * WIDTH);
            label_row(&label, counts.map(|c| c.to_string()).collect())
        })
        .filter(|row| row[1..].iter().any(|c| c != "0"))
        .collect();
    markdown_table(&["Speedup", "1-49", "50-99", ">=100"], &rows)
}

/// Tables 4.a / 4.b: the percentage by which the *unoptimized* ACO time
/// exceeds the optimized one (`(t_unopt / t_opt − 1) · 100`), per pass and
/// size band, as the paper reports them. One optimized colony run per
/// region is the baseline of both ablations.
fn ablation_tables(occ: &OccupancyModel) -> [(&'static str, String); 2] {
    const PER_BAND: usize = 16;
    const SEED: u64 = 71;
    let config = |i: usize, tuning: GpuTuning| {
        let mut cfg = AcoConfig::paper(SEED + i as u64);
        cfg.blocks = 32;
        cfg.tuning = tuning;
        cfg
    };
    let pass_us = |ddg: &Ddg, cfg: AcoConfig| {
        let out = ParallelScheduler::new(cfg).schedule(ddg, occ);
        [
            out.gpu.pass1_profile.total_us(),
            out.gpu.pass2_profile.total_us(),
        ]
    };
    let bands: Vec<(Vec<Ddg>, Vec<[f64; 2]>)> = SizeBand::ALL
        .iter()
        .map(|&band| {
            let regions = regions_in_band(band, PER_BAND, SEED);
            let optimized = (regions.iter().enumerate())
                .map(|(i, ddg)| pass_us(ddg, config(i, GpuTuning::optimized())))
                .collect();
            (regions, optimized)
        })
        .collect();

    // Rows: pass-1 overall, pass-1 max, pass-2 overall, pass-2 max.
    let ablation = |ablated: GpuTuning, decimals: usize, paper: [[&str; 3]; 4]| {
        let mut rows: [Vec<String>; 4] = Default::default();
        for (regions, optimized) in &bands {
            let mut sum = [0.0f64; 2];
            let mut sum_un = [0.0f64; 2];
            let mut best = [0.0f64; 2];
            for (i, (ddg, opt)) in regions.iter().zip(optimized).enumerate() {
                let unopt = pass_us(ddg, config(i, ablated));
                for p in 0..2 {
                    let (o, u) = (opt[p], unopt[p]);
                    if o > 0.0 && u > 0.0 {
                        sum[p] += o;
                        sum_un[p] += u;
                        best[p] = best[p].max((u / o - 1.0) * 100.0);
                    }
                }
            }
            for p in 0..2 {
                rows[2 * p].push(if sum[p] > 0.0 {
                    format!("{:.*}%", decimals, (sum_un[p] / sum[p] - 1.0) * 100.0)
                } else {
                    "-".to_string()
                });
                rows[2 * p + 1].push(format!("{:.*}%", decimals, best[p]));
            }
        }
        let stats = [
            "Pass 1 overall improvement",
            "Pass 1 max. improvement",
            "Pass 2 overall improvement",
            "Pass 2 max. improvement",
        ];
        let rows: Vec<Vec<String>> = (stats.iter().zip(rows).zip(paper))
            .flat_map(|((stat, measured), paper)| with_paper(stat, measured, &paper))
            .collect();
        markdown_table(&BAND_HEADERS, &rows)
    };
    let memory = ablation(
        GpuTuning::optimized().memory_unoptimized(),
        0,
        [
            ["645%", "1055%", "897%"],
            ["1163%", "1592%", "1929%"],
            ["593%", "994%", "709%"],
            ["2647%", "1629%", "3052%"],
        ],
    );
    let divergence = ablation(
        GpuTuning::optimized().divergence_unoptimized(),
        2,
        [
            ["0.68%", "3.81%", "7.00%"],
            ["17%", "16%", "66%"],
            ["3.78%", "12.06%", "15.42%"],
            ["56%", "72%", "101%"],
        ],
    );
    [("table4a", memory), ("table4b", divergence)]
}

/// Figure 4: execution-time speedup of the benchmarks compiled with
/// parallel ACO relative to the AMD scheduler. Benchmarks are classified
/// scheduling-sensitive with the paper's 3% coefficient-of-variation rule
/// over three builds (base AMD, parallel ACO, CP heuristic); a delta of at
/// least 1% either way is *significant*.
fn fig4(occ: &OccupancyModel, threads: usize) -> String {
    const SCALE: f64 = 0.06;
    const SEED: u64 = 77;
    let suite = Suite::generate(&SuiteConfig::scaled(SEED, SCALE));
    let [base, cp, aco] = [
        SchedulerKind::BaseAmd,
        SchedulerKind::CriticalPath,
        SchedulerKind::ParallelAco,
    ]
    .map(|kind| compile_suite(&suite, occ, &suite_config(kind, SEED, threads)));

    let sensitive: Vec<usize> = (0..suite.benchmarks.len())
        .filter(|&i| {
            let xs = [&base, &cp, &aco].map(|run| run.benchmark_time_us[i]);
            let mean = xs.iter().sum::<f64>() / 3.0;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / 3.0;
            var.sqrt() / mean > 0.03
        })
        .collect();
    let mut deltas: Vec<(usize, f64)> = (sensitive.iter())
        .map(|&i| {
            let (a, b) = (aco.benchmark_throughput[i], base.benchmark_throughput[i]);
            (i, 100.0 * (a - b) / b)
        })
        .collect();
    deltas.sort_by(|a, b| b.1.total_cmp(&a.1));
    let significant: Vec<(usize, f64)> = (deltas.iter().copied())
        .filter(|&(_, d)| d.abs() >= 1.0)
        .collect();

    let positives: Vec<f64> = (significant.iter())
        .map(|&(_, d)| 1.0 + d / 100.0)
        .filter(|&x| x > 0.0)
        .collect();
    let at_least = |pct: f64| significant.iter().filter(|&&(_, d)| d >= pct).count();
    let max_reg = (deltas.iter().map(|&(_, d)| -d))
        .fold(f64::MIN, f64::max)
        .max(0.0);
    let stats = stat_table(
        &format!("measured (scale {SCALE})"),
        [
            ("Scheduling-sensitive benchmarks (3% CoV rule)", "—"),
            ("Max. improvement", "+74%"),
            (
                "Geometric-mean improvement over significant benchmarks",
                "+13.2%",
            ),
            ("Improvements >= 5%", "20"),
            ("Improvements >= 10%", "11"),
            ("Maximum regression", "0.7%"),
        ],
        [
            format!("{} of {}", sensitive.len(), suite.benchmarks.len()),
            significant
                .first()
                .map_or("-".into(), |&(_, d)| format!("{d:+.1}%")),
            geomean(&positives).map_or("-".into(), |g| format!("{:+.1}%", (g - 1.0) * 100.0)),
            at_least(5.0).to_string(),
            at_least(10.0).to_string(),
            format!("{max_reg:.1}%"),
        ],
    );
    let per_benchmark: Vec<Vec<String>> = (significant.iter())
        .map(|&(i, d)| vec![suite.benchmarks[i].name.clone(), format!("{d:+.1}%")])
        .collect();
    let headers = ["Significant benchmark", "Throughput delta"];
    stats + "\n" + &markdown_table(&headers, &per_benchmark)
}

/// Table 6: the percentage of wavefronts allowed to insert optional stalls
/// in pass 2, swept over regions of 100+ instructions against the 0%
/// baseline.
fn table6(occ: &OccupancyModel) -> String {
    const REGIONS: usize = 20;
    const SEED: u64 = 55;
    let regions = regions_in_band(SizeBand::Large, REGIONS, SEED);
    let run = |fraction: f64| {
        let mut time = 0.0;
        let mut lengths = Vec::new();
        for (i, ddg) in regions.iter().enumerate() {
            let mut cfg = AcoConfig::paper(SEED + i as u64);
            cfg.blocks = 32;
            cfg.tuning.stall_wavefront_fraction = fraction;
            let out = ParallelScheduler::new(cfg).schedule(ddg, occ);
            time += out.gpu.total_us();
            lengths.push(out.result.length as f64);
        }
        (time, lengths)
    };
    let (t0, len0) = run(0.0);
    let sum0: f64 = len0.iter().sum();
    let [mut time, mut length, mut max] = [(); 3].map(|_| Vec::new());
    for f in [0.25, 0.5, 0.75] {
        let (t, len) = run(f);
        time.push(pct(100.0 * (t - t0) / t0));
        length.push(pct(100.0 * (sum0 - len.iter().sum::<f64>()) / sum0));
        let max_impr = (len0.iter().zip(&len))
            .map(|(&a, &b)| 100.0 * (a - b) / a)
            .fold(f64::MIN, f64::max);
        max.push(pct(max_impr));
    }
    let rows = [
        with_paper(
            "% Increase in ACO time",
            time,
            &["8.65%", "12.30%", "20.28%"],
        ),
        with_paper(
            "% Improvement in length",
            length,
            &["0.27%", "0.30%", "0.95%"],
        ),
        with_paper(
            "Max. % improvement in length",
            max,
            &["15.75%", "15.75%", "23.58%"],
        ),
    ];
    let headers = ["Wavefronts inserting optional stalls", "25%", "50%", "75%"];
    markdown_table(&headers, &rows.concat())
}

/// Table 7: pass 2 runs only on regions whose input schedule is at least
/// `threshold` cycles above the length lower bound. Higher thresholds
/// should remove execution-time regressions and keep the improvements.
fn table7(occ: &OccupancyModel, threads: usize) -> String {
    const SCALE: f64 = 0.05;
    const SEED: u64 = 77;
    const THRESHOLDS: [u32; 6] = [5, 10, 15, 20, 21, 25];
    let suite = Suite::generate(&SuiteConfig::scaled(SEED, SCALE));
    let base = compile_suite(
        &suite,
        occ,
        &suite_config(SchedulerKind::BaseAmd, SEED, threads),
    );
    let deltas: Vec<Vec<f64>> = THRESHOLDS
        .iter()
        .map(|&th| {
            let mut cfg = suite_config(SchedulerKind::ParallelAco, SEED, threads);
            cfg.aco.pass2_gate_cycles = th;
            let run = compile_suite(&suite, occ, &cfg);
            (run.benchmark_throughput
                .iter()
                .zip(&base.benchmark_throughput))
            .map(|(&a, &b)| 100.0 * (a - b) / b)
            .collect()
        })
        .collect();
    let count = |keep: fn(f64) -> bool| -> Vec<String> {
        let n = |d: &Vec<f64>| d.iter().filter(|&&x| keep(x)).count().to_string();
        deltas.iter().map(n).collect()
    };
    let max_reg = (deltas.iter())
        .map(|d| {
            format!(
                "{:.1}%",
                d.iter().map(|&x| -x).fold(f64::MIN, f64::max).max(0.0)
            )
        })
        .collect();
    let rows = [
        &with_paper(
            "Imps. >= 3%",
            count(|d| d >= 3.0),
            &["18", "20", "20", "21", "20", "20"],
        )[..],
        &[label_row("Imps. >= 5%", count(|d| d >= 5.0))],
        &[label_row("Imps. >= 10%", count(|d| d >= 10.0))],
        &with_paper(
            "Regs. >= 3%",
            count(|d| d <= -3.0),
            &["4", "3", "1", "1", "0", "0"],
        ),
        &[label_row("Regs. >= 5%", count(|d| d <= -5.0))],
        &[label_row("Regs. >= 10%", count(|d| d <= -10.0))],
        &with_paper(
            "Max. Reg.",
            max_reg,
            &["14.5%", "14.5%", "10.5%", "10.5%", "0.7%", "1.3%"],
        ),
    ];
    let thresholds = THRESHOLDS.map(|t| t.to_string());
    let headers = [&["Cycles"][..], &thresholds.each_ref().map(String::as_str)].concat();
    markdown_table(&headers, &rows.concat())
}

/// Batched multi-region scheduling (Section VII): the pipeline's batch
/// planner groups a mixed bag of regions into cooperative launches under
/// the colony's block budget; the sweep grows the group cap. Not a paper
/// table.
fn batched(occ: &OccupancyModel) -> String {
    const SEED: u64 = 91;
    const BLOCKS: u32 = 32;
    // Mostly small regions (the Table-3 shape), a few medium and large ones.
    let regions: Vec<Ddg> = [
        (SizeBand::Small, 12),
        (SizeBand::Medium, 8),
        (SizeBand::Large, 4),
    ]
    .into_iter()
    .flat_map(|(band, count)| regions_in_band(band, count, SEED))
    .collect();
    let sizes: Vec<usize> = regions.iter().map(Ddg::len).collect();
    let mut aco = AcoConfig::paper(SEED);
    aco.blocks = BLOCKS;
    aco.pass2_gate_cycles = 1;
    let rows: Vec<Vec<String>> = [1u32, 2, 4, 8, 16]
        .into_iter()
        .map(|max_group| {
            let cfg = BatchingConfig {
                max_group,
                min_blocks_per_region: 2,
            };
            let groups = pipeline::plan_batches(&sizes, BLOCKS, &cfg);
            let (mut individual, mut batched) = (0.0, 0.0);
            for group in &groups {
                let refs: Vec<&Ddg> = group.iter().map(|&i| &regions[i]).collect();
                let batch = ParallelScheduler::new(aco).schedule_batch(&refs, occ);
                individual += batch.individual_us;
                batched += batch.batched_us;
            }
            let saving = if individual > 0.0 {
                100.0 * (individual - batched) / individual
            } else {
                0.0
            };
            vec![
                max_group.to_string(),
                groups.len().to_string(),
                format!("{individual:.0}"),
                format!("{batched:.0}"),
                format!("{saving:.1}%"),
            ]
        })
        .collect();
    let headers = [
        "Group cap",
        "Launches",
        "Individual (µs)",
        "Batched (µs)",
        "Saving",
    ];
    markdown_table(&headers, &rows)
}
