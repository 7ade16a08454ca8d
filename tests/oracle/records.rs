//! Test oracle for the persisted line format: the `schedcache v1` loader
//! and writer the record codec replaced, kept verbatim as the reference
//! (`LineStream`, `parse_prefixed`, the `int` / `sint` / `float`
//! closures). It loads into a plain map instead of the product's store,
//! and writes the map back the way the product's `save_to_writer` does
//! (sorted, last key wins).
//!
//! Two edits mark the load-time classes the product now rejects: every
//! `as u32` that truncates a parsed value, and a repeated cache key, set
//! [`OldCache::tightened`]. Nothing else differs from the old bodies.
//!
//! `tests/record_fuzz.rs` holds the product to it.

use gpu_aco::compile::{FinalChoice, RegionCompilation, SchedulerKind};
use gpu_aco::heuristics::{Heuristic, ScheduleResult};
use gpu_aco::ir::{textir, Cycle, Ddg, InstrId, Schedule};
use gpu_aco::machine::OccupancyModel;
use gpu_aco::scheduler::{AcoConfig, AcoResult, PassStats};
use gpu_aco::sim::MemLayout;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};

// ------------------------------------------------------------ schedcache --

/// One solo entry of a `schedcache v1` file.
pub struct CacheEntry {
    pub scheduler: SchedulerKind,
    pub aco: AcoConfig,
    pub revert: (u32, u32),
    pub occ: OccupancyModel,
    pub ddg: Ddg,
    pub comp: RegionCompilation,
}

/// What the old loader built: the entries by key (a repeated key replaced
/// the earlier entry), and whether loading went through a class the
/// product now rejects.
pub struct OldCache {
    pub entries: BTreeMap<u64, CacheEntry>,
    pub tightened: bool,
}

thread_local! {
    static TIGHTENED: Cell<bool> = const { Cell::new(false) };
}

/// Whether the last [`load_cache`] went through a class the product
/// rejects, up to where it stopped (so also after an `Err`).
pub fn tightened() -> bool {
    TIGHTENED.with(Cell::get)
}

/// The old `as u32`, noting when it dropped bits.
fn narrow(v: u64) -> u32 {
    if v > u64::from(u32::MAX) {
        TIGHTENED.with(|t| t.set(true));
    }
    v as u32
}

/// The old `ScheduleCache::load_from_reader`.
pub fn load_cache(reader: impl BufRead) -> io::Result<OldCache> {
    TIGHTENED.with(|t| t.set(false));
    let mut lines = LineStream::new(reader);
    let header = lines.expect_line("header")?;
    if header.trim() != "schedcache v1" {
        return Err(bad_data("not a schedcache v1 file"));
    }
    let mut cache = BTreeMap::new();
    let mut entries = 0u64;
    let claimed: u64 = loop {
        let Some(line) = lines.next_line()? else {
            return Err(bad_data("truncated file: missing `eof` trailer"));
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(count) = trimmed.strip_prefix("eof ") {
            break count
                .trim()
                .parse()
                .map_err(|_| bad_data("bad `eof` entry count"))?;
        }
        let key = parse_prefixed(&line, "key ")?;
        let key = u64::from_str_radix(key.trim_start_matches("0x"), 16)
            .map_err(|_| bad_data("bad key"))?;
        if cache.contains_key(&key) {
            TIGHTENED.with(|t| t.set(true));
        }
        let cfg_line = lines.expect_line("cfg")?;
        let (scheduler, aco, revert, occ) = parse_cfg_line(&cfg_line)?;
        let ddg_header = lines.expect_line("ddg")?;
        let n_lines: usize = parse_prefixed(&ddg_header, "ddg ")?
            .parse()
            .map_err(|_| bad_data("bad ddg line count"))?;
        let mut text = String::new();
        for _ in 0..n_lines {
            let l = lines.expect_line("ddg line")?;
            text.push_str(&l);
            text.push('\n');
        }
        let ddg = textir::parse(&text).map_err(|e| bad_data(&e.to_string()))?;
        let comp = read_comp(&mut lines, ddg.len())?;
        if lines.expect_line("entry terminator")?.trim() != "end" {
            return Err(bad_data("missing entry terminator"));
        }
        let entry = CacheEntry {
            scheduler,
            aco,
            revert,
            occ,
            ddg,
            comp,
        };
        cache.insert(key, entry);
        entries += 1;
    };
    if claimed != entries {
        return Err(bad_data(&format!(
            "`eof` trailer claims {claimed} entries, file holds {entries}"
        )));
    }
    while let Some(l) = lines.next_line()? {
        if !l.trim().is_empty() {
            return Err(bad_data("content after `eof` trailer"));
        }
    }
    Ok(OldCache {
        entries: cache,
        tightened: tightened(),
    })
}

/// The old `ScheduleCache::save_to_writer`, over the loaded map.
pub fn save_cache(cache: &OldCache, out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "schedcache v1")?;
    let count = cache.entries.len();
    for (key, entry) in &cache.entries {
        writeln!(out, "key {key:#018x}")?;
        write_cfg_line(out, entry)?;
        let text = textir::to_text(&entry.ddg);
        writeln!(out, "ddg {}", text.lines().count())?;
        out.write_all(text.as_bytes())?;
        write_comp(out, &entry.comp)?;
        writeln!(out, "end")?;
    }
    writeln!(out, "eof {count}")?;
    out.flush()
}

/// Streaming line source over a `BufRead`: one line in memory at a time.
struct LineStream<R: BufRead> {
    lines: io::Lines<R>,
}

impl<R: BufRead> LineStream<R> {
    fn new(reader: R) -> LineStream<R> {
        LineStream {
            lines: reader.lines(),
        }
    }

    /// Next line, `None` at end of file; I/O errors propagate.
    fn next_line(&mut self) -> io::Result<Option<String>> {
        self.lines.next().transpose()
    }

    /// Next line, or `InvalidData` when the file ends early.
    fn expect_line(&mut self, what: &str) -> io::Result<String> {
        self.next_line()?
            .ok_or_else(|| bad_data(&format!("truncated file: missing {what}")))
    }
}

fn heuristic_index(heur: Heuristic) -> u64 {
    Heuristic::ALL
        .iter()
        .position(|h| *h == heur)
        .expect("every heuristic is in ALL") as u64
}

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("schedcache: {msg}"))
}

fn parse_prefixed<'a>(line: &'a str, prefix: &str) -> io::Result<&'a str> {
    line.trim()
        .strip_prefix(prefix)
        .ok_or_else(|| bad_data(&format!("expected `{prefix}...`, got `{line}`")))
}

fn write_cfg_line(out: &mut impl Write, e: &CacheEntry) -> io::Result<()> {
    let kind = SchedulerKind::ALL
        .iter()
        .position(|k| *k == e.scheduler)
        .expect("every kind is in ALL");
    let a = &e.aco;
    let t = &a.tuning;
    write!(
        out,
        "cfg {kind} {} {} {} {} {} {} {:x} {:x} {:x} {:x} {:x} {:x} {:x} \
         {} {} {} {} {} {:x}",
        e.revert.0,
        e.revert.1,
        a.seed,
        a.sequential_ants,
        a.blocks,
        a.threads_per_block,
        a.decay.to_bits(),
        a.q0.to_bits(),
        a.beta.to_bits(),
        a.initial_pheromone.to_bits(),
        a.deposit.to_bits(),
        a.tau_min.to_bits(),
        a.tau_max.to_bits(),
        a.termination.small,
        a.termination.medium,
        a.termination.large,
        a.termination.max_iterations,
        heuristic_index(a.heuristic),
        a.optional_stall_budget.to_bits(),
    )?;
    write!(
        out,
        " {} {} {} {} {} {:x} {} {} {} {}",
        match t.layout {
            MemLayout::Soa => 0,
            MemLayout::Aos => 1,
        },
        t.preallocate as u8,
        t.batched_transfer as u8,
        t.tight_ready_ub as u8,
        t.wavefront_level_choice as u8,
        t.stall_wavefront_fraction.to_bits(),
        t.early_wavefront_termination as u8,
        t.per_wavefront_heuristics as u8,
        a.pass2_gate_cycles,
        a.occupancy_cap.map_or(-1i64, |c| c as i64),
    )?;
    for w in e.occ.signature() {
        write!(out, " {w}")?;
    }
    writeln!(out)
}

fn parse_cfg_line(
    line: &str,
) -> io::Result<(SchedulerKind, AcoConfig, (u32, u32), OccupancyModel)> {
    let body = parse_prefixed(line, "cfg ")?;
    let toks: Vec<&str> = body.split_whitespace().collect();
    if toks.len() != 30 + 7 {
        return Err(bad_data(&format!(
            "cfg expects 37 fields, got {}",
            toks.len()
        )));
    }
    let int =
        |i: usize| -> io::Result<u64> { toks[i].parse().map_err(|_| bad_data("bad cfg integer")) };
    let sint =
        |i: usize| -> io::Result<i64> { toks[i].parse().map_err(|_| bad_data("bad cfg integer")) };
    let float = |i: usize| -> io::Result<f64> {
        u64::from_str_radix(toks[i], 16)
            .map(f64::from_bits)
            .map_err(|_| bad_data("bad cfg float"))
    };
    let scheduler = *SchedulerKind::ALL
        .get(int(0)? as usize)
        .ok_or_else(|| bad_data("bad scheduler index"))?;
    let revert = (narrow(int(1)?), narrow(int(2)?));
    let heuristic = *Heuristic::ALL
        .get(int(18)? as usize)
        .ok_or_else(|| bad_data("bad heuristic index"))?;
    let aco = AcoConfig {
        seed: int(3)?,
        sequential_ants: narrow(int(4)?),
        blocks: narrow(int(5)?),
        threads_per_block: narrow(int(6)?),
        decay: float(7)?,
        q0: float(8)?,
        beta: float(9)?,
        initial_pheromone: float(10)?,
        deposit: float(11)?,
        tau_min: float(12)?,
        tau_max: float(13)?,
        termination: gpu_aco::scheduler::Termination {
            small: narrow(int(14)?),
            medium: narrow(int(15)?),
            large: narrow(int(16)?),
            max_iterations: narrow(int(17)?),
        },
        heuristic,
        optional_stall_budget: float(19)?,
        tuning: gpu_aco::scheduler::GpuTuning {
            layout: match int(20)? {
                0 => MemLayout::Soa,
                1 => MemLayout::Aos,
                _ => return Err(bad_data("bad layout index")),
            },
            preallocate: int(21)? != 0,
            batched_transfer: int(22)? != 0,
            tight_ready_ub: int(23)? != 0,
            wavefront_level_choice: int(24)? != 0,
            stall_wavefront_fraction: float(25)?,
            early_wavefront_termination: int(26)? != 0,
            per_wavefront_heuristics: int(27)? != 0,
        },
        pass2_gate_cycles: narrow(int(28)?),
        occupancy_cap: match sint(29)? {
            -1 => None,
            c if c >= 0 => Some(narrow(c as u64)),
            _ => return Err(bad_data("bad occupancy cap")),
        },
    };
    let mut sig = [0u32; 7];
    for (i, s) in sig.iter_mut().enumerate() {
        *s = narrow(int(30 + i)?);
    }
    let occ = OccupancyModel::from_signature(sig);
    Ok((scheduler, aco, revert, occ))
}

fn write_sres(out: &mut impl Write, tag: &str, r: &ScheduleResult) -> io::Result<()> {
    write!(
        out,
        "{tag} {} {} {} {} :",
        r.occupancy, r.length, r.prp[0], r.prp[1]
    )?;
    for id in 0..r.schedule.len() {
        write!(out, " {}", r.schedule.cycle(InstrId(id as u32)))?;
    }
    writeln!(out)
}

fn read_sres(line: &str, tag: &str, n: usize) -> io::Result<ScheduleResult> {
    let body = parse_prefixed(line, &format!("{tag} "))?;
    let (head, cycles) = body
        .split_once(':')
        .ok_or_else(|| bad_data("missing cycle list"))?;
    let head: Vec<&str> = head.split_whitespace().collect();
    if head.len() != 4 {
        return Err(bad_data("schedule result expects 4 claim fields"));
    }
    let int = |s: &str| -> io::Result<u32> { s.parse().map_err(|_| bad_data("bad integer")) };
    let cycles: Vec<Cycle> = cycles
        .split_whitespace()
        .map(int)
        .collect::<io::Result<_>>()?;
    if cycles.len() != n {
        return Err(bad_data("cycle list length mismatch"));
    }
    // Single-issue schedules have unique cycles, so the issue order is the
    // ids sorted by cycle (ties broken by id for stability; real entries
    // have none, and fabricated ones fail re-certification at hit time).
    let mut order: Vec<InstrId> = (0..n as u32).map(InstrId).collect();
    order.sort_by_key(|id| (cycles[id.index()], id.0));
    Ok(ScheduleResult {
        schedule: Schedule::from_cycles(cycles),
        order,
        prp: [int(head[2])?, int(head[3])?],
        occupancy: int(head[0])?,
        length: int(head[1])?,
    })
}

fn write_pass(out: &mut impl Write, p: &PassStats) -> io::Result<()> {
    writeln!(
        out,
        "pass {} {} {} {} {:x} {}",
        p.iterations,
        p.improved as u8,
        p.hit_lb as u8,
        p.best_cost,
        p.time_us.to_bits(),
        p.gated as u8
    )
}

fn read_pass(line: &str) -> io::Result<PassStats> {
    let toks: Vec<&str> = parse_prefixed(line, "pass ")?.split_whitespace().collect();
    if toks.len() != 6 {
        return Err(bad_data("pass stats expect 6 fields"));
    }
    Ok(PassStats {
        iterations: toks[0].parse().map_err(|_| bad_data("bad iterations"))?,
        improved: toks[1] != "0",
        hit_lb: toks[2] != "0",
        best_cost: toks[3].parse().map_err(|_| bad_data("bad best cost"))?,
        time_us: u64::from_str_radix(toks[4], 16)
            .map(f64::from_bits)
            .map_err(|_| bad_data("bad pass time"))?,
        gated: toks[5] != "0",
    })
}

fn write_comp(out: &mut impl Write, c: &RegionCompilation) -> io::Result<()> {
    writeln!(
        out,
        "comp {} {} {} {} {} {} {} {:x}",
        c.size,
        (c.choice == FinalChoice::Aco) as u8,
        c.occupancy,
        c.length,
        c.pass1_processed as u8,
        c.pass2_processed as u8,
        c.reverted as u8,
        c.sched_time_us.to_bits()
    )?;
    write_sres(out, "heur", &c.heuristic)?;
    match &c.aco {
        None => writeln!(out, "aco none"),
        Some(a) => {
            writeln!(
                out,
                "aco some {} {} {} {} {} {:x}",
                a.prp[0],
                a.prp[1],
                a.occupancy,
                a.length,
                a.ops,
                a.time_us.to_bits()
            )?;
            write_sres(out, "asched", &sres_of_aco(a))?;
            write_sres(out, "initial", &a.initial)?;
            write_pass(out, &a.pass1)?;
            write_pass(out, &a.pass2)
        }
    }
}

/// Views an ACO result's schedule as a `ScheduleResult` for the shared
/// writer (claims travel on the `aco some` line; these are ignored on
/// read).
fn sres_of_aco(a: &AcoResult) -> ScheduleResult {
    ScheduleResult {
        schedule: a.schedule.clone(),
        order: a.order.clone(),
        prp: a.prp,
        occupancy: a.occupancy,
        length: a.length,
    }
}

fn read_comp(it: &mut LineStream<impl BufRead>, n: usize) -> io::Result<RegionCompilation> {
    let comp_line = it.expect_line("comp")?;
    let toks: Vec<&str> = parse_prefixed(&comp_line, "comp ")?
        .split_whitespace()
        .collect();
    if toks.len() != 8 {
        return Err(bad_data("comp expects 8 fields"));
    }
    let heur_line = it.expect_line("heuristic")?;
    let heuristic = read_sres(&heur_line, "heur", n)?;
    let aco_line = it.expect_line("aco")?;
    let aco_body = parse_prefixed(&aco_line, "aco ")?;
    let aco = if aco_body.trim() == "none" {
        None
    } else {
        let atoks: Vec<&str> = aco_body
            .strip_prefix("some ")
            .ok_or_else(|| bad_data("bad aco line"))?
            .split_whitespace()
            .collect();
        if atoks.len() != 6 {
            return Err(bad_data("aco line expects 6 fields"));
        }
        let asched_line = it.expect_line("aco schedule")?;
        let asched = read_sres(&asched_line, "asched", n)?;
        let initial_line = it.expect_line("initial")?;
        let initial = read_sres(&initial_line, "initial", n)?;
        let p1_line = it.expect_line("pass1")?;
        let p2_line = it.expect_line("pass2")?;
        let int = |s: &str| -> io::Result<u32> { s.parse().map_err(|_| bad_data("bad integer")) };
        Some(AcoResult {
            schedule: asched.schedule,
            order: asched.order,
            prp: [int(atoks[0])?, int(atoks[1])?],
            occupancy: int(atoks[2])?,
            length: int(atoks[3])?,
            initial,
            pass1: read_pass(&p1_line)?,
            pass2: read_pass(&p2_line)?,
            ops: atoks[4].parse().map_err(|_| bad_data("bad ops"))?,
            time_us: u64::from_str_radix(atoks[5], 16)
                .map(f64::from_bits)
                .map_err(|_| bad_data("bad aco time"))?,
        })
    };
    let int = |s: &str| -> io::Result<u64> { s.parse().map_err(|_| bad_data("bad integer")) };
    Ok(RegionCompilation {
        size: int(toks[0])? as usize,
        heuristic,
        aco,
        choice: if toks[1] == "0" {
            FinalChoice::Heuristic
        } else {
            FinalChoice::Aco
        },
        occupancy: narrow(int(toks[2])?),
        length: narrow(int(toks[3])?),
        pass1_processed: toks[4] != "0",
        pass2_processed: toks[5] != "0",
        sched_time_us: f64::from_bits(
            u64::from_str_radix(toks[7], 16).map_err(|_| bad_data("bad sched time"))?,
        ),
        reverted: toks[6] != "0",
    })
}
