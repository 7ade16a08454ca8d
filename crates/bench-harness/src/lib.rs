//! Shared helpers for the table/figure reproduction harnesses.
//!
//! Every table and figure of the paper's evaluation has a dedicated bench
//! target (`cargo bench -p bench-harness --bench <name>`); this library
//! holds what they share: region sampling by the paper's size bands,
//! speedup measurement between the sequential and parallel schedulers,
//! aggregate statistics, and plain-text table rendering.

use aco::{AcoConfig, ParallelScheduler, SequentialScheduler};
use machine_model::OccupancyModel;
use sched_ir::Ddg;

/// The paper's region-size bands: `[1-49]`, `[50-99]`, `>= 100`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeBand {
    /// 1–49 instructions.
    Small,
    /// 50–99 instructions.
    Medium,
    /// 100 or more instructions.
    Large,
}

impl SizeBand {
    /// All bands in table order.
    pub const ALL: [SizeBand; 3] = [SizeBand::Small, SizeBand::Medium, SizeBand::Large];

    /// The band of a region size.
    pub fn of(n: usize) -> SizeBand {
        match n {
            0..=49 => SizeBand::Small,
            50..=99 => SizeBand::Medium,
            _ => SizeBand::Large,
        }
    }

    /// The column header the paper uses.
    pub fn label(self) -> &'static str {
        match self {
            SizeBand::Small => "1-49",
            SizeBand::Medium => "50-99",
            SizeBand::Large => ">=100",
        }
    }
}

/// Samples `count` regions inside one size band (deterministic in `seed`).
pub fn regions_in_band(band: SizeBand, count: usize, seed: u64) -> Vec<Ddg> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x8B1D_BA5E);
    (0..count)
        .map(|_| {
            // Generated sizes can deviate from the target by up to ~20%, so
            // sample conservatively and retry the rare escapee.
            loop {
                let target = match band {
                    SizeBand::Small => rng.gen_range(10..42),
                    SizeBand::Medium => rng.gen_range(58..92),
                    SizeBand::Large => rng.gen_range(120..400),
                };
                let ddg = workloads::patterns::sized(target, rng.gen());
                if SizeBand::of(ddg.len()) == band {
                    break ddg;
                }
            }
        })
        .collect()
}

/// One region's sequential-vs-parallel measurement.
#[derive(Debug, Clone, Copy)]
pub struct SpeedupRecord {
    /// Region size.
    pub size: usize,
    /// Per-pass speedups `seq_time / par_time`, `None` when the pass did
    /// not run identically in both schedulers (not *comparable* in the
    /// paper's sense).
    pub pass1: Option<f64>,
    /// Pass-2 speedup, when comparable.
    pub pass2: Option<f64>,
    /// Whether ACO processed the region at all in pass 1 / pass 2.
    pub pass1_processed: bool,
    /// Pass-2 processing flag.
    pub pass2_processed: bool,
}

/// Runs both schedulers on a region and extracts per-pass speedups.
///
/// Following Section VI-C, a pass is *comparable* only when both
/// schedulers took the same number of iterations on it.
pub fn measure_speedup(ddg: &Ddg, occ: &OccupancyModel, cfg: AcoConfig) -> SpeedupRecord {
    let seq = SequentialScheduler::new(cfg).schedule(ddg, occ);
    let par = ParallelScheduler::new(cfg).schedule(ddg, occ).result;
    let cmp = |s: &aco::PassStats, p: &aco::PassStats| -> Option<f64> {
        if s.iterations > 0 && s.iterations == p.iterations && p.time_us > 0.0 {
            Some(s.time_us / p.time_us)
        } else {
            None
        }
    };
    SpeedupRecord {
        size: ddg.len(),
        pass1: cmp(&seq.pass1, &par.pass1),
        pass2: cmp(&seq.pass2, &par.pass2),
        pass1_processed: par.pass1.iterations > 0,
        pass2_processed: par.pass2.iterations > 0,
    }
}

/// Geometric mean; `None` when empty.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Renders a fixed-width table with a title row, as the paper's tables.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n{title}");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    println!("{line}");
    let hdr: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!(" {:<w$} ", h, w = widths[i]))
        .collect();
    println!("{}", hdr.join("|"));
    println!("{line}");
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!(" {:>w$} ", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("{}", cells.join("|"));
    }
    println!("{line}");
}

/// Renders a unit-width text histogram (the Figure 2/3 distributions).
pub fn print_histogram(title: &str, values: &[f64], bucket_width: f64) {
    println!("\n{title}");
    if values.is_empty() {
        println!("  (no data)");
        return;
    }
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let buckets = ((max / bucket_width).ceil() as usize + 1).max(1);
    let mut counts = vec![0usize; buckets];
    for &v in values {
        counts[((v / bucket_width) as usize).min(buckets - 1)] += 1;
    }
    let peak = counts.iter().copied().max().unwrap_or(1).max(1);
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let bar = "#".repeat((c * 50).div_ceil(peak));
        println!(
            "  [{:>5.1}-{:>5.1}) {:>4} {}",
            i as f64 * bucket_width,
            (i + 1) as f64 * bucket_width,
            c,
            bar
        );
    }
}

/// Formats a float with two decimals, or "-" for `None`.
pub fn fmt_opt(x: Option<f64>) -> String {
    x.map_or_else(|| "-".to_string(), |v| format!("{v:.2}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_partition_sizes() {
        assert_eq!(SizeBand::of(1), SizeBand::Small);
        assert_eq!(SizeBand::of(49), SizeBand::Small);
        assert_eq!(SizeBand::of(50), SizeBand::Medium);
        assert_eq!(SizeBand::of(99), SizeBand::Medium);
        assert_eq!(SizeBand::of(100), SizeBand::Large);
    }

    #[test]
    fn regions_in_band_respect_bounds() {
        for band in SizeBand::ALL {
            for d in regions_in_band(band, 10, 1) {
                assert_eq!(
                    SizeBand::of(d.len()),
                    band,
                    "size {} escaped band {band:?}",
                    d.len()
                );
            }
        }
    }

    #[test]
    fn geomean_of_known_values() {
        assert!(geomean(&[]).is_none());
        let g = geomean(&[1.0, 4.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
    }

    #[test]
    fn measure_speedup_runs_both_schedulers() {
        let ddg = workloads::patterns::sized(100, 9);
        let occ = OccupancyModel::vega_like();
        let mut cfg = AcoConfig::small(1);
        cfg.blocks = 8;
        let r = measure_speedup(&ddg, &occ, cfg);
        assert_eq!(r.size, ddg.len());
        if let Some(s) = r.pass1 {
            assert!(s > 0.0);
        }
    }
}
