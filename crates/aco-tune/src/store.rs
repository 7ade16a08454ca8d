//! The shared tuning store: per-class bandit state, warm-start orders, and
//! `schedtune v1` persistence.

use crate::arms::{arm_table_fingerprint, ARMS, FIXED_ARM};
use crate::class::{RegionClass, CLASS_COUNT};
use aco::WarmStart;
use sched_ir::InstrId;
use std::collections::HashMap;
use std::io::{self, BufRead, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Trials every arm must accumulate in a class before the bandit commits
/// to the class winner.
const MIN_TRIALS: u64 = 2;

/// Maximum number of warm-start orders kept (first-recorded wins; the
/// duplicate-heavy suites the store targets revisit few distinct
/// templates, so a bound this generous is a safety valve, not a policy).
const WARM_CAP: usize = 4096;

/// Accumulated outcomes of one arm within one class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArmStats {
    /// Observations recorded.
    pub trials: u64,
    /// Sum of final schedule lengths across trials.
    pub total_length: u64,
    /// Sum of ACO iterations (both passes) across trials.
    pub total_iterations: u64,
}

/// Lifetime counters of a [`TuneStore`] (reported by the daemon's `stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TunerStats {
    /// Arm choices served.
    pub choices: u64,
    /// Choices that explored an under-trialed arm.
    pub explored: u64,
    /// Choices that committed to a class winner.
    pub committed: u64,
    /// Warm-hint lookups answered with an order.
    pub warm_hits: u64,
    /// Warm-hint lookups with no stored order.
    pub warm_misses: u64,
    /// Outcome observations recorded.
    pub observations: u64,
    /// Warm-start orders recorded.
    pub warm_records: u64,
}

/// Interior state, guarded by one mutex (reads are short snapshots; the
/// pipeline's determinism contract keeps mutation off the parallel paths —
/// see the crate docs).
#[derive(Debug, Clone)]
struct TuneState {
    classes: Vec<[ArmStats; ARMS.len()]>,
    warm: HashMap<u64, Vec<InstrId>>,
}

impl TuneState {
    fn empty() -> TuneState {
        TuneState {
            classes: vec![[ArmStats::default(); ARMS.len()]; CLASS_COUNT],
            warm: HashMap::new(),
        }
    }
}

/// The shared tuning store (see crate docs for the determinism contract).
#[derive(Debug)]
pub struct TuneStore {
    state: Mutex<TuneState>,
    choices: AtomicU64,
    explored: AtomicU64,
    committed: AtomicU64,
    warm_hits: AtomicU64,
    warm_misses: AtomicU64,
    observations: AtomicU64,
    warm_records: AtomicU64,
}

impl Default for TuneStore {
    fn default() -> TuneStore {
        TuneStore::new()
    }
}

impl Clone for TuneStore {
    /// Clones the learned state; the lifetime counters restart at zero
    /// (they describe one store's service life, not the knowledge).
    fn clone(&self) -> TuneStore {
        TuneStore::with_state(self.lock().clone())
    }
}

impl TuneStore {
    /// An empty store: every class chooses by exploration first.
    pub fn new() -> TuneStore {
        TuneStore::with_state(TuneState::empty())
    }

    fn lock(&self) -> MutexGuard<'_, TuneState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn with_state(state: TuneState) -> TuneStore {
        TuneStore {
            state: Mutex::new(state),
            choices: AtomicU64::new(0),
            explored: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            warm_misses: AtomicU64::new(0),
            observations: AtomicU64::new(0),
            warm_records: AtomicU64::new(0),
        }
    }

    /// Folds another store's lifetime counters into this one's. Suite
    /// compilation's job phase reads a frozen *clone* of the caller's
    /// store (so the streaming merge's observations cannot perturb
    /// in-flight choices); the clone's service counters — choices served,
    /// warm hits/misses — would die with it otherwise, so the pipeline
    /// absorbs them back after the run. Counters only; never knowledge.
    pub fn absorb_counters(&self, s: &TunerStats) {
        self.choices.fetch_add(s.choices, Ordering::Relaxed);
        self.explored.fetch_add(s.explored, Ordering::Relaxed);
        self.committed.fetch_add(s.committed, Ordering::Relaxed);
        self.warm_hits.fetch_add(s.warm_hits, Ordering::Relaxed);
        self.warm_misses.fetch_add(s.warm_misses, Ordering::Relaxed);
        self.observations
            .fetch_add(s.observations, Ordering::Relaxed);
        self.warm_records
            .fetch_add(s.warm_records, Ordering::Relaxed);
    }

    /// Snapshot of the lifetime counters.
    pub fn stats(&self) -> TunerStats {
        TunerStats {
            choices: self.choices.load(Ordering::Relaxed),
            explored: self.explored.load(Ordering::Relaxed),
            committed: self.committed.load(Ordering::Relaxed),
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            warm_misses: self.warm_misses.load(Ordering::Relaxed),
            observations: self.observations.load(Ordering::Relaxed),
            warm_records: self.warm_records.load(Ordering::Relaxed),
        }
    }

    /// Chooses an arm for one region of `class`.
    ///
    /// Deterministic explore-then-commit: while any arm in the class has
    /// fewer than `MIN_TRIALS` observations, the under-trialed arm at
    /// position `salt % count` is explored — callers pass a stable region
    /// position as `salt`, so a single run spreads exploration across a
    /// class's instances instead of re-trialing one arm. Once every arm is
    /// trialed, the choice commits to the class winner: lowest average
    /// schedule length, ties broken by average iterations, then by arm
    /// index (so the identity arm wins exact ties). Pure in (state, class,
    /// salt).
    pub fn choose(&self, class: RegionClass, salt: u64) -> usize {
        let st = self.lock();
        let stats = &st.classes[class.index()];
        self.choices.fetch_add(1, Ordering::Relaxed);
        let under: Vec<usize> = (0..ARMS.len())
            .filter(|&i| stats[i].trials < MIN_TRIALS)
            .collect();
        if !under.is_empty() {
            self.explored.fetch_add(1, Ordering::Relaxed);
            return under[(salt % under.len() as u64) as usize];
        }
        self.committed.fetch_add(1, Ordering::Relaxed);
        let mut best = FIXED_ARM;
        for i in 0..ARMS.len() {
            if i != best && beats(&stats[i], &stats[best]) {
                best = i;
            }
        }
        best
    }

    /// Records one observed outcome: region `class` scheduled under arm
    /// `arm` reached `length` in `iterations` total ACO iterations.
    pub fn observe(&self, class: RegionClass, arm: usize, length: u64, iterations: u64) {
        assert!(arm < ARMS.len(), "arm index out of table");
        let mut st = self.lock();
        let s = &mut st.classes[class.index()][arm];
        s.trials += 1;
        s.total_length += length;
        s.total_iterations += iterations;
        self.observations.fetch_add(1, Ordering::Relaxed);
    }

    /// Looks up a warm-start order for a region's structure fingerprint.
    pub fn warm_hint(&self, structure_fp: u64) -> Option<WarmStart> {
        let st = self.lock();
        match st.warm.get(&structure_fp) {
            Some(order) => {
                self.warm_hits.fetch_add(1, Ordering::Relaxed);
                WarmStart::new(order.clone())
            }
            None => {
                self.warm_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Records a converged order for a structure fingerprint. First record
    /// wins (later instances of the same template re-derive the same
    /// class); non-permutation orders and records past the store cap are
    /// dropped silently — a warm order is advice, losing one costs
    /// nothing.
    pub fn record_warm(&self, structure_fp: u64, order: &[InstrId]) {
        if WarmStart::new(order.to_vec()).is_none() {
            return;
        }
        let mut st = self.lock();
        if st.warm.len() >= WARM_CAP && !st.warm.contains_key(&structure_fp) {
            return;
        }
        if st.warm.contains_key(&structure_fp) {
            return;
        }
        st.warm.insert(structure_fp, order.to_vec());
        self.warm_records.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of warm-start orders stored.
    pub fn warm_len(&self) -> usize {
        self.lock().warm.len()
    }

    // ---------------------------------------------------- persistence --

    /// Writes the learned state in the `schedtune v1` line format
    /// (deterministic order), terminated by the `eof` trailer
    /// [`TuneStore::load_from`] requires, and flushes explicitly.
    pub fn save_to_writer(&self, out: &mut impl Write) -> io::Result<()> {
        let st = self.lock();
        writeln!(out, "schedtune v1")?;
        writeln!(out, "arms {:#018x}", arm_table_fingerprint())?;
        let mut class_lines = 0u64;
        for (idx, stats) in st.classes.iter().enumerate() {
            if stats.iter().all(|s| s.trials == 0) {
                continue;
            }
            write!(out, "class {idx}")?;
            for s in stats {
                write!(
                    out,
                    " {} {} {}",
                    s.trials, s.total_length, s.total_iterations
                )?;
            }
            writeln!(out)?;
            class_lines += 1;
        }
        let mut warm: Vec<(&u64, &Vec<InstrId>)> = st.warm.iter().collect();
        warm.sort_by_key(|&(fp, _)| *fp);
        let warm_count = warm.len();
        for (fp, order) in warm {
            write!(out, "warm {fp:#018x} {} :", order.len())?;
            for id in order {
                write!(out, " {}", id.0)?;
            }
            writeln!(out)?;
        }
        writeln!(out, "eof {class_lines} {warm_count}")?;
        out.flush()
    }

    /// Persists the store at `path` atomically (temp file + fsync +
    /// rename), mirroring the schedule cache's durability contract.
    pub fn save_to(&self, path: &Path) -> io::Result<()> {
        let file_name = path
            .file_name()
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "schedtune: save path has no file name",
                )
            })?
            .to_string_lossy();
        static SAVE_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = path.with_file_name(format!(
            ".{file_name}.tmp.{}.{}",
            std::process::id(),
            SAVE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let result = (|| {
            let mut out = io::BufWriter::new(std::fs::File::create(&tmp)?);
            self.save_to_writer(&mut out)?;
            let file = out.into_inner().map_err(io::IntoInnerError::into_error)?;
            file.sync_all()?;
            std::fs::rename(&tmp, path)
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// Loads a store persisted by [`TuneStore::save_to`]. Malformed,
    /// truncated, or tampered files — wrong arm table, out-of-range class,
    /// inconsistent statistics, non-permutation warm orders, a missing or
    /// lying `eof` trailer — are rejected with `InvalidData`; a rejected
    /// file can cost learned state, never a wrong schedule (hints are
    /// re-validated against every concrete region anyway).
    pub fn load_from(path: &Path) -> io::Result<TuneStore> {
        Self::load_from_reader(io::BufReader::new(std::fs::File::open(path)?))
    }

    /// [`TuneStore::load_from`] over any buffered reader.
    pub fn load_from_reader(reader: impl BufRead) -> io::Result<TuneStore> {
        let mut lines = reader.lines();
        let mut next = |what: &str| -> io::Result<String> {
            loop {
                match lines.next().transpose()? {
                    None => return Err(bad_data(&format!("truncated file: missing {what}"))),
                    Some(l) if l.trim().is_empty() => continue,
                    Some(l) => return Ok(l),
                }
            }
        };
        if next("header")?.trim() != "schedtune v1" {
            return Err(bad_data("not a schedtune v1 file"));
        }
        let arms_line = next("arm-table fingerprint")?;
        let fp_text = arms_line
            .trim()
            .strip_prefix("arms ")
            .ok_or_else(|| bad_data("expected `arms <fingerprint>`"))?;
        let fp = u64::from_str_radix(fp_text.trim().trim_start_matches("0x"), 16)
            .map_err(|_| bad_data("bad arm-table fingerprint"))?;
        if fp != arm_table_fingerprint() {
            return Err(bad_data(
                "tuning state was recorded under a different arm table",
            ));
        }
        let mut state = TuneState::empty();
        let mut class_lines = 0u64;
        let mut seen_class = [false; CLASS_COUNT];
        let (claimed_classes, claimed_warm): (u64, u64) = loop {
            let line = next("`eof` trailer")?;
            let trimmed = line.trim();
            if let Some(counts) = trimmed.strip_prefix("eof ") {
                let parts: Vec<&str> = counts.split_whitespace().collect();
                if parts.len() != 2 {
                    return Err(bad_data("`eof` trailer expects two counts"));
                }
                let c = parts[0].parse().map_err(|_| bad_data("bad `eof` count"))?;
                let w = parts[1].parse().map_err(|_| bad_data("bad `eof` count"))?;
                break (c, w);
            } else if let Some(body) = trimmed.strip_prefix("class ") {
                let toks: Vec<&str> = body.split_whitespace().collect();
                if toks.len() != 1 + 3 * ARMS.len() {
                    return Err(bad_data("class line has wrong field count"));
                }
                let idx: usize = toks[0].parse().map_err(|_| bad_data("bad class index"))?;
                if idx >= CLASS_COUNT {
                    return Err(bad_data("class index out of range"));
                }
                if seen_class[idx] {
                    return Err(bad_data("duplicate class line"));
                }
                seen_class[idx] = true;
                for (a, chunk) in toks[1..].chunks(3).enumerate() {
                    let int = |s: &str| -> io::Result<u64> {
                        s.parse().map_err(|_| bad_data("bad class statistic"))
                    };
                    let s = ArmStats {
                        trials: int(chunk[0])?,
                        total_length: int(chunk[1])?,
                        total_iterations: int(chunk[2])?,
                    };
                    if s.trials == 0 && (s.total_length != 0 || s.total_iterations != 0) {
                        return Err(bad_data("class statistics are inconsistent"));
                    }
                    state.classes[idx][a] = s;
                }
                class_lines += 1;
            } else if let Some(body) = trimmed.strip_prefix("warm ") {
                let (head, ids) = body
                    .split_once(':')
                    .ok_or_else(|| bad_data("warm line missing id list"))?;
                let head: Vec<&str> = head.split_whitespace().collect();
                if head.len() != 2 {
                    return Err(bad_data("warm line expects fingerprint and length"));
                }
                let wfp = u64::from_str_radix(head[0].trim_start_matches("0x"), 16)
                    .map_err(|_| bad_data("bad warm fingerprint"))?;
                let n: usize = head[1].parse().map_err(|_| bad_data("bad warm length"))?;
                let order: Vec<InstrId> = ids
                    .split_whitespace()
                    .map(|t| t.parse::<u32>().map(InstrId))
                    .collect::<Result<_, _>>()
                    .map_err(|_| bad_data("bad warm instruction id"))?;
                if order.len() != n {
                    return Err(bad_data("warm order length mismatch"));
                }
                if WarmStart::new(order.clone()).is_none() {
                    return Err(bad_data("warm order is not a permutation"));
                }
                if state.warm.insert(wfp, order).is_some() {
                    return Err(bad_data("duplicate warm fingerprint"));
                }
            } else {
                return Err(bad_data(&format!("unrecognized line `{trimmed}`")));
            }
        };
        if claimed_classes != class_lines || claimed_warm != state.warm.len() as u64 {
            return Err(bad_data("`eof` trailer disagrees with file contents"));
        }
        for line in lines {
            if !line?.trim().is_empty() {
                return Err(bad_data("content after `eof` trailer"));
            }
        }
        Ok(TuneStore::with_state(state))
    }
}

/// Whether `a` beats `b`: strictly lower average length, or equal average
/// length and strictly lower average iterations. Averages compare by
/// cross-multiplication, so the bandit never touches floating point.
fn beats(a: &ArmStats, b: &ArmStats) -> bool {
    let (al, bl) = (
        a.total_length as u128 * b.trials as u128,
        b.total_length as u128 * a.trials as u128,
    );
    if al != bl {
        return al < bl;
    }
    (a.total_iterations as u128 * b.trials as u128)
        < (b.total_iterations as u128 * a.trials as u128)
}

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("schedtune: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class0() -> RegionClass {
        RegionClass::from_index(0).unwrap()
    }

    /// Fills every arm of `class` to MIN_TRIALS with the given per-arm
    /// (length, iterations) averages.
    fn fill(store: &TuneStore, class: RegionClass, outcomes: &[(u64, u64)]) {
        assert_eq!(outcomes.len(), ARMS.len());
        for (arm, &(len, iters)) in outcomes.iter().enumerate() {
            for _ in 0..MIN_TRIALS {
                store.observe(class, arm, len, iters);
            }
        }
    }

    #[test]
    fn explores_every_arm_before_committing() {
        let store = TuneStore::new();
        let c = class0();
        // Fresh class: every arm is under-trialed; the salt walks them.
        let picks: std::collections::HashSet<usize> = (0..ARMS.len() as u64)
            .map(|salt| store.choose(c, salt))
            .collect();
        assert_eq!(picks.len(), ARMS.len(), "salt must spread exploration");
        fill(&store, c, &[(10, 5); 6]);
        let s = store.stats();
        assert_eq!(s.explored, ARMS.len() as u64);
        assert_eq!(s.committed, 0);
        store.choose(c, 0);
        assert_eq!(store.stats().committed, 1);
    }

    #[test]
    fn commits_to_lowest_length_then_iterations_then_index() {
        let store = TuneStore::new();
        let c = class0();
        fill(
            &store,
            c,
            &[(10, 8), (9, 9), (9, 4), (12, 1), (9, 4), (10, 2)],
        );
        // Arms 2 and 4 tie on (9, 4); the lower index wins.
        assert_eq!(store.choose(c, 17), 2);
        // Choice ignores the salt once committed.
        assert_eq!(store.choose(c, 0), 2);
    }

    #[test]
    fn exact_ties_keep_the_fixed_arm() {
        let store = TuneStore::new();
        let c = class0();
        fill(&store, c, &[(7, 3); 6]);
        assert_eq!(store.choose(c, 5), FIXED_ARM);
    }

    #[test]
    fn averages_compare_across_different_trial_counts() {
        let store = TuneStore::new();
        let c = class0();
        fill(&store, c, &[(10, 5); 6]);
        // Arm 3 accumulates extra trials at a *better* average: 3 more
        // observations of length 4 drag its average below 10.
        for _ in 0..3 {
            store.observe(c, 3, 4, 5);
        }
        assert_eq!(store.choose(c, 0), 3);
    }

    #[test]
    fn warm_orders_roundtrip_and_validate() {
        let store = TuneStore::new();
        let order: Vec<InstrId> = [2u32, 0, 1].into_iter().map(InstrId).collect();
        assert!(store.warm_hint(0xBEEF).is_none());
        store.record_warm(0xBEEF, &order);
        let hint = store.warm_hint(0xBEEF).expect("recorded order");
        assert_eq!(hint.order(), &order[..]);
        // Non-permutations are dropped at record time.
        store.record_warm(0xDEAD, &[InstrId(0), InstrId(0)]);
        assert!(store.warm_hint(0xDEAD).is_none());
        // First record wins.
        let other: Vec<InstrId> = [0u32, 1, 2].into_iter().map(InstrId).collect();
        store.record_warm(0xBEEF, &other);
        assert_eq!(store.warm_hint(0xBEEF).unwrap().order(), &order[..]);
        let s = store.stats();
        assert_eq!((s.warm_hits, s.warm_misses, s.warm_records), (2, 2, 1));
    }

    #[test]
    fn save_load_roundtrip_preserves_choices_and_hints() {
        let store = TuneStore::new();
        let c = class0();
        let c2 = RegionClass::from_index(13).unwrap();
        fill(
            &store,
            c,
            &[(10, 8), (9, 9), (9, 4), (12, 1), (9, 4), (10, 2)],
        );
        store.observe(c2, 1, 42, 7);
        let order: Vec<InstrId> = [1u32, 0, 2].into_iter().map(InstrId).collect();
        store.record_warm(0x1234, &order);

        let mut bytes = Vec::new();
        store.save_to_writer(&mut bytes).unwrap();
        let loaded = TuneStore::load_from_reader(io::BufReader::new(&bytes[..])).unwrap();

        // Same committed choice, same hint, byte-identical re-save.
        assert_eq!(loaded.choose(c, 9), store.choose(c, 9));
        assert_eq!(loaded.warm_hint(0x1234).unwrap().order(), &order[..]);
        let mut again = Vec::new();
        loaded.save_to_writer(&mut again).unwrap();
        assert_eq!(bytes, again);
    }

    #[test]
    fn atomic_save_roundtrips_through_a_file() {
        let store = TuneStore::new();
        store.observe(class0(), 2, 11, 3);
        let dir = std::env::temp_dir().join(format!("schedtune_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tune.txt");
        store.save_to(&path).unwrap();
        let loaded = TuneStore::load_from(&path).unwrap();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        store.save_to_writer(&mut a).unwrap();
        loaded.save_to_writer(&mut b).unwrap();
        assert_eq!(a, b);
        // No temp droppings.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["tune.txt".to_string()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_never_half_loads() {
        let store = TuneStore::new();
        fill(&store, class0(), &[(10, 5); 6]);
        store.record_warm(0x77, &[InstrId(1), InstrId(0)]);
        let mut bytes = Vec::new();
        store.save_to_writer(&mut bytes).unwrap();
        assert!(TuneStore::load_from_reader(io::BufReader::new(&bytes[..])).is_ok());
        let cuts: Vec<usize> = bytes
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\n')
            .map(|(i, _)| i + 1)
            .filter(|&i| i < bytes.len())
            .chain((1..bytes.len()).step_by(13))
            .chain([0])
            .collect();
        for cut in cuts {
            let err = match TuneStore::load_from_reader(io::BufReader::new(&bytes[..cut])) {
                Err(e) => e,
                Ok(_) => panic!("truncation at byte {cut} must not load"),
            };
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn tampered_files_are_rejected() {
        let reject = |text: &str, why: &str| {
            let err =
                TuneStore::load_from_reader(io::BufReader::new(text.as_bytes())).expect_err(why);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{why}");
        };
        reject("not a tune file\n", "wrong header");
        // Wrong arm table.
        reject(
            "schedtune v1\narms 0x0000000000000001\neof 0 0\n",
            "foreign arm table",
        );
        let fp = arm_table_fingerprint();
        let head = format!("schedtune v1\narms {fp:#018x}\n");
        // Out-of-range class.
        reject(
            &format!("{head}class 99 1 1 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\neof 1 0\n"),
            "class out of range",
        );
        // Inconsistent statistics: zero trials with nonzero totals.
        reject(
            &format!("{head}class 0 0 5 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\neof 1 0\n"),
            "inconsistent stats",
        );
        // Non-permutation warm order.
        reject(
            &format!("{head}warm 0x2 2 : 0 0\neof 0 1\n"),
            "warm non-permutation",
        );
        // Lying trailer.
        reject(&format!("{head}eof 3 0\n"), "trailer count lie");
        // Content after the trailer.
        reject(
            &format!("{head}eof 0 0\nwarm 0x1 1 : 0\n"),
            "post-eof content",
        );
        // The empty store itself round-trips.
        let ok =
            TuneStore::load_from_reader(io::BufReader::new(format!("{head}eof 0 0\n").as_bytes()))
                .unwrap();
        assert_eq!(ok.warm_len(), 0);
    }

    #[test]
    fn clone_carries_state_but_not_counters() {
        let store = TuneStore::new();
        fill(
            &store,
            class0(),
            &[(10, 8), (3, 1), (9, 4), (12, 1), (9, 4), (10, 2)],
        );
        store.record_warm(0x9, &[InstrId(0)]);
        let copy = store.clone();
        assert_eq!(copy.choose(class0(), 0), store.choose(class0(), 0));
        assert_eq!(copy.warm_hint(0x9).unwrap().order(), &[InstrId(0)]);
        assert_eq!(copy.stats().observations, 0);
    }
}
