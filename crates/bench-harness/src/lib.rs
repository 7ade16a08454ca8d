//! Helpers of the `tables` bench target, which regenerates every table and
//! figure of the paper's evaluation as a marked block of EXPERIMENTS.md
//! (`cargo bench -p bench-harness --bench tables`): region sampling by the
//! paper's size bands, speedup measurement between the sequential and
//! parallel schedulers, aggregate statistics, markdown rendering and the
//! block splicer.

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

/// Renders a markdown table: a left-aligned label column, right-aligned
/// value columns, every line ending in `\n`. Cells are not padded, so a
/// changed value moves one line of a diff.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let line = |cells: &[&str]| format!("| {} |\n", cells.join(" | "));
    let mut out = line(headers);
    out += &format!("|---{}|\n", "|---:".repeat(headers.len() - 1));
    for row in rows {
        out += &line(&row.iter().map(String::as_str).collect::<Vec<_>>());
    }
    out
}

/// Replaces the body of every generated block of `doc` with its new text.
///
/// A block named `NAME` is the text between a line `<!-- generated:NAME -->`
/// and a line `<!-- /generated:NAME -->`; `blocks` pairs each name with its
/// body, which ends in `\n`. Text outside the blocks is kept byte for byte,
/// so splicing a document twice with the same bodies changes nothing. A
/// block whose opening marker is missing, appears twice or is never closed,
/// and a block in `doc` that `blocks` does not name, is an error naming the
/// block: nothing is ever appended to the document.
pub fn splice(doc: &str, blocks: &[(&str, String)]) -> Result<String, String> {
    let mut out = doc.to_string();
    for (name, body) in blocks {
        let open = format!("<!-- generated:{name} -->\n");
        let close = format!("<!-- /generated:{name} -->");
        let start = match out.match_indices(&open).map(|(i, _)| i).collect::<Vec<_>>()[..] {
            [i] => i + open.len(),
            [] => return Err(format!("block `{name}`: no `{}` line", open.trim_end())),
            _ => return Err(format!("block `{name}`: opened more than once")),
        };
        let end = match out.matches(&close).count() {
            1 => out.find(&close).filter(|&i| i >= start),
            _ => None,
        }
        .ok_or_else(|| format!("block `{name}`: not closed once by `{close}` after its opening"))?;
        out.replace_range(start..end, body);
    }
    let stray = out
        .lines()
        .filter_map(|line| line.strip_prefix("<!-- generated:")?.strip_suffix(" -->"))
        .find(|n| blocks.iter().all(|(name, _)| name != n));
    match stray {
        Some(stray) => Err(format!(
            "block `{stray}`: in the document but not generated"
        )),
        None => Ok(out),
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
    fn markdown_table_aligns_values_right() {
        let rows = [vec!["Regions".to_string(), "277".to_string()]];
        assert_eq!(
            markdown_table(&["Stat", "measured"], &rows),
            "| Stat | measured |\n|---|---:|\n| Regions | 277 |\n"
        );
    }

    const DOC: &str = "# T\n\nprose <!-- x --> 1.5%\n<!-- generated:a -->\nold\n\
                       <!-- /generated:a -->\nmiddle\n<!-- generated:b -->\n\
                       <!-- /generated:b -->\nno final newline";

    fn bodies() -> Vec<(&'static str, String)> {
        vec![
            ("a", "| 1 |\n".to_string()),
            ("b", "new\nlines\n".to_string()),
        ]
    }

    #[test]
    fn splice_keeps_the_text_outside_the_blocks_and_a_second_splice_is_a_no_op() {
        let once = splice(DOC, &bodies()).unwrap();
        assert_eq!(
            once,
            "# T\n\nprose <!-- x --> 1.5%\n<!-- generated:a -->\n| 1 |\n\
             <!-- /generated:a -->\nmiddle\n<!-- generated:b -->\nnew\nlines\n\
             <!-- /generated:b -->\nno final newline"
        );
        assert_eq!(splice(&once, &bodies()).unwrap(), once);
    }

    #[test]
    fn a_missing_duplicated_unclosed_or_stray_marker_is_an_error_naming_the_block() {
        let cases = [
            ("missing", DOC.replace("<!-- generated:b -->\n", ""), "`b`"),
            (
                "duplicated",
                format!("{DOC}\n<!-- generated:a -->\n"),
                "`a`",
            ),
            ("unclosed", DOC.replace("<!-- /generated:a -->", ""), "`a`"),
            (
                "closed twice",
                format!("{DOC}\n<!-- /generated:b -->"),
                "`b`",
            ),
            (
                "closed before opened",
                DOC.replace(
                    "<!-- generated:a -->\nold\n<!-- /generated:a -->",
                    "<!-- /generated:a -->\nold\n<!-- generated:a -->",
                ),
                "`a`",
            ),
            (
                "stray",
                format!("{DOC}\n<!-- generated:c -->\n<!-- /generated:c -->\n"),
                "`c`",
            ),
        ];
        for (what, doc, name) in cases {
            match splice(&doc, &bodies()) {
                Ok(_) => panic!("{what}: spliced"),
                Err(e) => assert!(e.starts_with(&format!("block {name}")), "{what}: {e}"),
            }
        }
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
