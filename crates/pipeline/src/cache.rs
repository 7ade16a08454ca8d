//! Content-addressed memoization of region compilations.
//!
//! Template-instantiated kernels produce many *structurally identical*
//! scheduling regions, and the whole per-region flow
//! ([`compile_region`], [`crate::batch::compile_batch_group`]) is a pure
//! function of `(DDG content, scheduling config, occupancy model)` — so a
//! schedule computed once can be reused for every duplicate. The
//! [`ScheduleCache`] keys entries by the canonical FNV-1a fingerprint of
//! exactly those inputs ([`sched_ir::ddg_content_fingerprint`] plus the
//! scheduling-relevant configuration) and guards every hit twice:
//!
//! 1. **Full structural equality** — the entry stores its DDG and config;
//!    a hit requires [`Ddg::content_eq`] and exact config/machine-model
//!    equality, so a 64-bit collision can never smuggle in a wrong
//!    schedule.
//! 2. **Re-certification** — the reused schedules are validated against
//!    the *new* region instance (precedence/latency/single-issue via
//!    [`sched_ir::Schedule::validate`], PRP recomputed from scratch,
//!    occupancy and final-choice consistency). A tampered or stale entry
//!    is bypassed, recomputed, and overwritten — never adopted.
//!
//! Because every adopted result is bitwise what a fresh run would have
//! produced, the cache is *transparent*: `SuiteRun` golden fingerprints
//! are identical with the cache on and off at any thread count
//! (sched-verify's D004 check asserts this). The hit/miss/insert/bypass
//! counters are the one exception — at `host_threads > 1` two workers may
//! race to first-compile the same content, so counters are reported in
//! [`crate::SuiteRun::cache`] but excluded from the suite fingerprint.
//!
//! # Concurrency
//!
//! The cache is shared read-mostly across the work-stealing host pool, so
//! the store is 16 shards of `std::sync::RwLock<HashMap>` picked by the
//! key's high bits: a lookup takes one shard's read lock just long enough
//! to clone the entry's `Arc` (equality and re-certification run after the
//! guard drops), and an insert takes that shard's write lock for one
//! `HashMap::insert` plus any evictions. Every update leaves the map valid
//! at each step, so a lock poisoned by a panicking worker is recovered,
//! not propagated.
//!
//! # Persistence
//!
//! [`ScheduleCache::save_to`]/[`ScheduleCache::load_from`] persist solo
//! entries as a hand-rolled line format (the workspace deliberately
//! vendors no serializer). Loaded entries pass through the same equality +
//! re-certification gates as in-memory ones, so a corrupted or hand-edited
//! cache file can cost misses, never wrong schedules. Group entries are
//! launch-geometry specific and are not persisted.
//!
//! Persistence is **durable** — a long-running server leans on it across
//! restarts (see `sched-serve`):
//!
//! * `save_to` writes a sibling temporary file, flushes and syncs it, and
//!   atomically renames it over the target. A crash mid-save (even
//!   `kill -9`) leaves either the old file or the new one, never a
//!   truncated hybrid. Flush/sync errors surface as `Err` instead of
//!   being swallowed by a buffered writer's drop.
//! * The file ends with an `eof <count>` trailer, so `load_from` detects
//!   truncation by *any* means — a prefix cut at every line boundary (or
//!   mid-line) is rejected with `InvalidData`, never half-loaded.
//! * `load_from` streams one line at a time; boot-time loading never
//!   buffers the whole file in memory alongside the parsed entries.
//!
//! # Bounded memory
//!
//! The store is **capacity-bounded** ([`ScheduleCache::with_capacity`],
//! default [`ScheduleCache::DEFAULT_CAPACITY`] entries): every entry
//! carries a last-touch stamp from a global logical clock (bumped on
//! insert and on every certified hit), and an insert that would push a
//! shard past its share of the capacity evicts the stalest entries first
//! (ties broken by key). Eviction is counted in [`CacheStats::evictions`]
//! and only ever costs future misses — transparency is untouched, because
//! an evicted entry is simply recomputed. Under host parallelism the
//! stamps (and therefore the victim choice) depend on interleaving, which
//! is fine for the same reason the other counters are excluded from the
//! suite fingerprint.
//!
//! # Warm-started entries
//!
//! [`ScheduleCache::compile_solo_with`] memoizes *warm-started*
//! compilations (see [`aco::warm`]): a hint changes the compiled result,
//! so the hint's fingerprint is folded into the key and stored in the
//! entry's equality gate. `compile_solo` (no hint) keys exactly as it
//! always has, so a warm entry can never answer a cold lookup or vice
//! versa. Warm entries are **not persisted** — the `schedcache v1` format
//! is unchanged — because a hint is reconstructed from the tuning store,
//! not from the cache file.

use crate::batch::compile_batch_group;
use crate::config::{PipelineConfig, SchedulerKind};
use crate::region::{compile_region_warm, FinalChoice, RegionCompilation};
use aco::{batch_block_split, AcoConfig, AcoResult, PassStats};
use gpu_sim::MemLayout;
use list_sched::{Heuristic, ScheduleResult};
use machine_model::OccupancyModel;
use reg_pressure::RegUniverse;
use sched_ir::{ddg_content_fingerprint, textir, Cycle, Ddg, Fnv64, InstrId, Schedule};
use std::collections::HashMap;
use std::io::{self, BufRead, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};
use workloads::Kernel;

/// Hit/miss/insert/bypass counters of one suite compilation (or one cache
/// lifetime). A *bypass* is a lookup whose entry failed re-certification
/// or structural equality and was recomputed instead of adopted.
///
/// Counters depend on execution interleaving at `host_threads > 1` (two
/// workers can race to first-compile the same content), so they are
/// reported alongside a [`crate::SuiteRun`] but excluded from its golden
/// fingerprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (equality + re-certification held).
    pub hits: u64,
    /// Lookups with no entry under the key.
    pub misses: u64,
    /// Entries written (first computations and self-healing overwrites).
    pub inserts: u64,
    /// Lookups whose entry was rejected by equality or re-certification.
    pub bypasses: u64,
    /// Entries evicted to keep the store within its capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.bypasses
    }

    /// Fraction of lookups answered from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter-wise difference `self - start` (for reporting one run's
    /// activity on a longer-lived cache).
    pub fn since(&self, start: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - start.hits,
            misses: self.misses - start.misses,
            inserts: self.inserts - start.inserts,
            bypasses: self.bypasses - start.bypasses,
            evictions: self.evictions - start.evictions,
        }
    }
}

/// What a cache entry memoizes.
///
/// The variants differ in size, but a `Payload` only ever lives inside an
/// `Arc<CacheEntry>` — one allocation per entry, never moved by value on
/// a hot path — so boxing the large variant would add indirection for
/// nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Payload {
    /// One solo region compilation.
    Solo { ddg: Ddg, comp: RegionCompilation },
    /// One cooperative batch group: per-member compilations in group
    /// order (member DDGs stored for the equality check).
    Group {
        ddgs: Vec<Ddg>,
        comps: Vec<RegionCompilation>,
    },
}

/// One memoized compilation plus everything the equality gate compares.
#[derive(Debug)]
struct CacheEntry {
    scheduler: SchedulerKind,
    aco: AcoConfig,
    revert: (u32, u32),
    occ: OccupancyModel,
    /// Fingerprint of the warm-start hint the compilation ran under
    /// (`None` = cold). Part of the equality gate: a warm result must
    /// never answer a cold lookup (or one under a different hint), even
    /// across a 64-bit key collision.
    warm_fp: Option<u64>,
    /// Last-touch logical time (set on insert and on every certified
    /// hit); the eviction victim is the entry with the smallest stamp.
    stamp: AtomicU64,
    payload: Payload,
}

type Map = HashMap<u64, Arc<CacheEntry>>;

/// Why a lookup adopted nothing: no entry under the key (a miss), or an
/// entry that failed the equality gate or re-certification (a bypass).
enum Unadopted {
    Absent,
    Rejected,
}

/// One lock-guarded shard of the store.
#[derive(Default)]
struct Shard {
    map: RwLock<Map>,
}

impl Shard {
    fn read(&self) -> RwLockReadGuard<'_, Map> {
        self.map.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn get(&self, key: u64) -> Option<Arc<CacheEntry>> {
        self.read().get(&key).cloned()
    }

    /// Uncapped insert — tests poke entries past the capacity discipline.
    #[cfg(test)]
    fn insert(&self, key: u64, entry: Arc<CacheEntry>) {
        self.insert_capped(key, entry, usize::MAX);
    }

    /// Inserts and then evicts stalest-first (smallest stamp, ties broken
    /// by key) until the shard holds at most `cap` entries; the entry just
    /// inserted is never the victim. Returns the number evicted.
    fn insert_capped(&self, key: u64, entry: Arc<CacheEntry>, cap: usize) -> u64 {
        let mut map = self.map.write().unwrap_or_else(PoisonError::into_inner);
        map.insert(key, entry);
        let mut evicted = 0u64;
        while map.len() > cap.max(1) {
            let victim = map
                .iter()
                .filter(|&(&k, _)| k != key)
                .map(|(&k, e)| (e.stamp.load(Ordering::Relaxed), k))
                .min()
                .map(|(_, k)| k);
            match victim {
                Some(k) => {
                    map.remove(&k);
                    evicted += 1;
                }
                None => break,
            }
        }
        evicted
    }

    fn len(&self) -> usize {
        self.read().len()
    }
}

const SHARD_COUNT: usize = 16;

/// The content-addressed schedule cache (see module docs).
pub struct ScheduleCache {
    shards: Vec<Shard>,
    /// Per-shard entry cap (the total capacity split across the shards).
    shard_cap: usize,
    /// Global logical clock for last-touch stamps.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    bypasses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for ScheduleCache {
    fn default() -> ScheduleCache {
        ScheduleCache::new()
    }
}

impl ScheduleCache {
    /// Default entry capacity of [`ScheduleCache::new`].
    pub const DEFAULT_CAPACITY: usize = 16 * 1024;

    /// An empty cache holding at most [`Self::DEFAULT_CAPACITY`] entries.
    pub fn new() -> ScheduleCache {
        ScheduleCache::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// An empty cache bounded to roughly `capacity` entries (the bound is
    /// enforced per shard, as `max(1, capacity / SHARD_COUNT)` each, so the
    /// effective total is at least [`SHARD_COUNT`] and within one shard's
    /// share of the requested value). Exceeding the bound evicts the
    /// least-recently-touched entries — see the module docs.
    pub fn with_capacity(capacity: usize) -> ScheduleCache {
        ScheduleCache {
            shards: (0..SHARD_COUNT).map(|_| Shard::default()).collect(),
            shard_cap: (capacity / SHARD_COUNT).max(1),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The effective entry capacity (per-shard cap times shard count).
    pub fn capacity(&self) -> usize {
        self.shard_cap * SHARD_COUNT
    }

    /// Snapshot of the lifetime counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Shard::len).sum()
    }

    /// Whether the cache holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard(&self, key: u64) -> &Shard {
        // High bits pick the shard; the map uses the full key.
        &self.shards[(key >> 59) as usize % SHARD_COUNT]
    }

    /// The next last-touch stamp.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Stamps and inserts under the capacity bound, counting evictions but
    /// not inserts (shared by [`Self::store`] and the loader).
    fn admit(&self, key: u64, entry: CacheEntry) {
        entry.stamp.store(self.tick(), Ordering::Relaxed);
        let evicted = self
            .shard(key)
            .insert_capped(key, Arc::new(entry), self.shard_cap);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    fn store(&self, key: u64, entry: CacheEntry) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.admit(key, entry);
    }

    /// Compiles one solo region through the cache: adopt a certified hit,
    /// otherwise run [`compile_region`] and memoize the result. The
    /// returned compilation is bitwise what an uncached run produces.
    pub fn compile_solo(
        &self,
        ddg: &Ddg,
        occ: &OccupancyModel,
        cfg: &PipelineConfig,
    ) -> RegionCompilation {
        self.compile_solo_with(ddg, occ, cfg, None)
    }

    /// The hit half of [`Self::compile_solo`] alone: the memoized
    /// compilation when an entry passes the equality gate and
    /// re-certification (counted as a hit, stamp refreshed), `None`
    /// otherwise — with nothing counted and nothing compiled, so a caller
    /// that goes on to `compile_solo` still books the request as exactly
    /// one of hit, miss or bypass. The serve daemon asks this at admission
    /// to answer warm requests without queueing them.
    pub fn lookup_solo(
        &self,
        ddg: &Ddg,
        occ: &OccupancyModel,
        cfg: &PipelineConfig,
    ) -> Option<RegionCompilation> {
        let key = solo_key_warm(ddg, occ, cfg, None);
        self.lookup_solo_keyed(key, ddg, occ, cfg, None).ok()
    }

    /// The one hit arm of the solo paths; `Err` says why nothing was
    /// adopted and leaves the accounting to the caller.
    fn lookup_solo_keyed(
        &self,
        key: u64,
        ddg: &Ddg,
        occ: &OccupancyModel,
        cfg: &PipelineConfig,
        warm_fp: Option<u64>,
    ) -> Result<RegionCompilation, Unadopted> {
        let entry = self.shard(key).get(key).ok_or(Unadopted::Absent)?;
        if let Payload::Solo {
            ddg: cached_ddg,
            comp,
        } = &entry.payload
        {
            if same_inputs(&entry, cfg, occ)
                && entry.warm_fp == warm_fp
                && cached_ddg.content_eq(ddg)
                && certify_hit(ddg, occ, comp)
            {
                self.hits.fetch_add(1, Ordering::Relaxed);
                entry.stamp.store(self.tick(), Ordering::Relaxed);
                return Ok(comp.clone());
            }
        }
        Err(Unadopted::Rejected)
    }

    /// [`Self::compile_solo`] with an optional warm-start hint (see
    /// [`crate::region::compile_region_warm`]). A hint changes the
    /// compiled result, so warm lookups key on the hint's fingerprint as
    /// well — a cold lookup can never adopt a warm result or vice versa —
    /// and the hint fingerprint sits in the entry's equality gate to hold
    /// across 64-bit key collisions. With `warm = None` this is exactly
    /// `compile_solo`, same keys and all.
    pub fn compile_solo_with(
        &self,
        ddg: &Ddg,
        occ: &OccupancyModel,
        cfg: &PipelineConfig,
        warm: Option<&aco::WarmStart>,
    ) -> RegionCompilation {
        let warm_fp = warm.map(aco::WarmStart::fingerprint);
        let key = solo_key_warm(ddg, occ, cfg, warm_fp);
        match self.lookup_solo_keyed(key, ddg, occ, cfg, warm_fp) {
            Ok(comp) => return comp,
            // Collision, config mismatch under a colliding key, or a
            // tampered entry: never adopt — recompute and self-heal.
            Err(Unadopted::Rejected) => self.bypasses.fetch_add(1, Ordering::Relaxed),
            Err(Unadopted::Absent) => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        let comp = compile_region_warm(ddg, occ, cfg, warm);
        self.store(key, solo_entry_warm(ddg, occ, cfg, &comp, warm_fp));
        comp
    }

    /// Compiles one cooperative batch group through the cache. The key
    /// covers every member's content in group order (construction results
    /// depend on the whole group), and a hit re-certifies every member
    /// against its new region instance.
    pub(crate) fn compile_group(
        &self,
        kernel: &Kernel,
        group: &[usize],
        occ: &OccupancyModel,
        cfg: &PipelineConfig,
    ) -> Vec<(usize, PipelineConfig, RegionCompilation)> {
        let members: Vec<&Ddg> = group.iter().map(|&ri| &kernel.regions[ri]).collect();
        let key = group_key(&members, occ, cfg);
        if let Some(entry) = self.shard(key).get(key) {
            if let Payload::Group { ddgs, comps } = &entry.payload {
                let ok = same_inputs(&entry, cfg, occ)
                    && ddgs.len() == members.len()
                    && ddgs
                        .iter()
                        .zip(&members)
                        .all(|(cached, new)| cached.content_eq(new))
                    && comps
                        .iter()
                        .zip(&members)
                        .all(|(comp, new)| certify_hit(new, occ, comp));
                if ok {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    entry.stamp.store(self.tick(), Ordering::Relaxed);
                    return attach_group_cfgs(group, comps.clone(), cfg);
                }
            }
            self.bypasses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        let outcomes = compile_batch_group(kernel, group, occ, cfg);
        self.store(
            key,
            CacheEntry {
                scheduler: cfg.scheduler,
                aco: cfg.aco,
                revert: (cfg.revert_occupancy_gain, cfg.revert_length_penalty),
                occ: *occ,
                warm_fp: None,
                stamp: AtomicU64::new(0),
                payload: Payload::Group {
                    ddgs: members.into_iter().cloned().collect(),
                    comps: outcomes.iter().map(|(_, _, c)| c.clone()).collect(),
                },
            },
        );
        outcomes
    }

    /// Writes every solo entry to `out` in the hand-rolled line format
    /// (deterministic order: sorted by key), terminated by the
    /// `eof <count>` trailer [`Self::load_from`] requires, and **flushes
    /// explicitly** — a write or flush error (ENOSPC, EIO, a broken pipe)
    /// surfaces as `Err` here rather than being swallowed by a buffered
    /// writer's drop. Group entries are skipped (launch-geometry
    /// specific).
    pub fn save_to_writer(&self, out: &mut impl Write) -> io::Result<()> {
        let mut entries: Vec<(u64, Arc<CacheEntry>)> = Vec::new();
        for shard in &self.shards {
            for (&k, e) in shard.read().iter() {
                // Warm-started entries are skipped along with group ones:
                // their hints come from a tuning store, not the cache file,
                // and the `schedcache v1` format stays hint-free.
                if matches!(e.payload, Payload::Solo { .. }) && e.warm_fp.is_none() {
                    entries.push((k, e.clone()));
                }
            }
        }
        entries.sort_by_key(|&(k, _)| k);
        writeln!(out, "schedcache v1")?;
        let count = entries.len();
        for (key, entry) in entries {
            let Payload::Solo { ddg, comp } = &entry.payload else {
                unreachable!("group entries filtered above")
            };
            writeln!(out, "key {key:#018x}")?;
            write_cfg_line(out, &entry)?;
            let text = textir::to_text(ddg);
            writeln!(out, "ddg {}", text.lines().count())?;
            out.write_all(text.as_bytes())?;
            write_comp(out, comp)?;
            writeln!(out, "end")?;
        }
        writeln!(out, "eof {count}")?;
        out.flush()
    }

    /// Persists the cache at `path` **atomically**: the entries are
    /// written to a sibling temporary file (flushed and fsynced), which is
    /// then renamed over the target. A crash mid-save — even `kill -9` —
    /// leaves either the previous file or the complete new one, never a
    /// truncated hybrid; and the `eof` trailer lets [`Self::load_from`]
    /// reject a file truncated by any other means. On error the temporary
    /// file is removed and the target is untouched.
    pub fn save_to(&self, path: &Path) -> io::Result<()> {
        let file_name = path
            .file_name()
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "schedcache: save path has no file name",
                )
            })?
            .to_string_lossy();
        // Unique per process *and* per call, so concurrent saves to the
        // same target never clobber each other's temp file — last rename
        // wins, and each rename installs a complete file.
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

    /// Loads a cache persisted by [`Self::save_to`], streaming one line at
    /// a time (a multi-gigabyte persisted cache is never double-buffered
    /// in memory at boot). Malformed or truncated files — the `eof
    /// <count>` trailer must be present and agree with the entry count —
    /// are rejected with `InvalidData`; entries that are structurally
    /// sound but wrong (hand-edited schedules, stale claims) survive
    /// loading and are rejected at hit time by re-certification.
    pub fn load_from(path: &Path) -> io::Result<ScheduleCache> {
        Self::load_from_reader(io::BufReader::new(std::fs::File::open(path)?))
    }

    /// [`Self::load_from`] over any buffered reader (the daemon's tests
    /// and tooling feed in-memory buffers through the same parser).
    pub fn load_from_reader(reader: impl BufRead) -> io::Result<ScheduleCache> {
        let mut lines = LineStream::new(reader);
        let header = lines.expect_line("header")?;
        if header.trim() != "schedcache v1" {
            return Err(bad_data("not a schedcache v1 file"));
        }
        let cache = ScheduleCache::new();
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
            cache.admit(
                key,
                CacheEntry {
                    scheduler,
                    aco,
                    revert,
                    occ,
                    warm_fp: None,
                    stamp: AtomicU64::new(0),
                    payload: Payload::Solo { ddg, comp },
                },
            );
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
        Ok(cache)
    }
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

/// Attaches the split-colony per-member configuration to cached group
/// compilations, mirroring what [`compile_batch_group`] returns.
fn attach_group_cfgs(
    group: &[usize],
    comps: Vec<RegionCompilation>,
    cfg: &PipelineConfig,
) -> Vec<(usize, PipelineConfig, RegionCompilation)> {
    let split = batch_block_split(cfg.aco.blocks, group.len() as u32);
    group
        .iter()
        .zip(comps)
        .enumerate()
        .map(|(pos, (&ri, comp))| {
            let mut region_cfg = *cfg;
            region_cfg.aco.blocks = split[pos];
            (ri, region_cfg, comp)
        })
        .collect()
}

/// The scheduling-relevant config equality gate: everything a
/// [`RegionCompilation`] can depend on. Host-thread count, base compile
/// costs, batching policy (group membership is already in the key) and the
/// cache knob itself are deliberately excluded.
fn same_inputs(entry: &CacheEntry, cfg: &PipelineConfig, occ: &OccupancyModel) -> bool {
    entry.scheduler == cfg.scheduler
        && entry.aco == cfg.aco
        && entry.revert == (cfg.revert_occupancy_gain, cfg.revert_length_penalty)
        && entry.occ == *occ
}

#[cfg(test)]
fn solo_entry(
    ddg: &Ddg,
    occ: &OccupancyModel,
    cfg: &PipelineConfig,
    comp: &RegionCompilation,
) -> CacheEntry {
    solo_entry_warm(ddg, occ, cfg, comp, None)
}

fn solo_entry_warm(
    ddg: &Ddg,
    occ: &OccupancyModel,
    cfg: &PipelineConfig,
    comp: &RegionCompilation,
    warm_fp: Option<u64>,
) -> CacheEntry {
    CacheEntry {
        scheduler: cfg.scheduler,
        aco: cfg.aco,
        revert: (cfg.revert_occupancy_gain, cfg.revert_length_penalty),
        occ: *occ,
        warm_fp,
        stamp: AtomicU64::new(0),
        payload: Payload::Solo {
            ddg: ddg.clone(),
            comp: comp.clone(),
        },
    }
}

/// In-pipeline re-certification of a reused compilation against the *new*
/// region instance: schedule validity (precedence, latency, single issue),
/// from-scratch PRP recomputation, occupancy and length claims, and
/// final-choice consistency. Anything that fails here is bypassed, never
/// adopted. (sched-verify independently re-runs its C001–C012 checks on
/// every observed compilation — including cache hits — through the suite
/// observer.)
fn certify_hit(ddg: &Ddg, occ: &OccupancyModel, comp: &RegionCompilation) -> bool {
    if comp.size != ddg.len() {
        return false;
    }
    // One interning serves both replays.
    let universe = RegUniverse::new(ddg);
    let claims_hold = |sched: &Schedule, order: &[InstrId], prp, occupancy, length| {
        is_permutation(order, ddg.len())
            && sched.validate(ddg).is_ok()
            && reg_pressure::prp_of_order_in(&universe, order) == prp
            && occ.occupancy(prp) == occupancy
            && sched.length() == length
    };
    let h = &comp.heuristic;
    if !claims_hold(&h.schedule, &h.order, h.prp, h.occupancy, h.length) {
        return false;
    }
    if let Some(a) = &comp.aco {
        if !claims_hold(&a.schedule, &a.order, a.prp, a.occupancy, a.length) {
            return false;
        }
    }
    let (src_occ, src_len) = match (comp.choice, &comp.aco) {
        (FinalChoice::Aco, Some(a)) => (a.occupancy, a.length),
        (FinalChoice::Aco, None) => return false,
        (FinalChoice::Heuristic, _) => (h.occupancy, h.length),
    };
    comp.occupancy == src_occ && comp.length == src_len
}

fn is_permutation(order: &[InstrId], n: usize) -> bool {
    if order.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for id in order {
        match seen.get_mut(id.index()) {
            Some(s) if !*s => *s = true,
            _ => return false,
        }
    }
    true
}

// ---------------------------------------------------------------- keys --

/// Folds the scheduling-relevant configuration into a hasher: scheduler
/// kind, every `AcoConfig` field, the revert knobs, and the machine
/// model's full parameter signature.
///
/// `pub(crate)` so the S007 drift check ([`crate::analyze`]) can probe
/// that every field the passes read really moves this hash.
pub(crate) fn hash_config(h: &mut Fnv64, cfg: &PipelineConfig, occ: &OccupancyModel) {
    let kind = SchedulerKind::ALL
        .iter()
        .position(|k| *k == cfg.scheduler)
        .expect("every kind is in ALL") as u64;
    h.word(kind);
    h.word(cfg.revert_occupancy_gain as u64);
    h.word(cfg.revert_length_penalty as u64);
    let a = &cfg.aco;
    h.word(a.seed);
    h.word(a.sequential_ants as u64);
    h.word(a.blocks as u64);
    h.word(a.threads_per_block as u64);
    h.word(a.decay.to_bits());
    h.word(a.q0.to_bits());
    h.word(a.beta.to_bits());
    h.word(a.initial_pheromone.to_bits());
    h.word(a.deposit.to_bits());
    h.word(a.tau_min.to_bits());
    h.word(a.tau_max.to_bits());
    h.word(a.termination.small as u64);
    h.word(a.termination.medium as u64);
    h.word(a.termination.large as u64);
    h.word(a.termination.max_iterations as u64);
    h.word(heuristic_index(a.heuristic));
    h.word(a.optional_stall_budget.to_bits());
    let t = &a.tuning;
    h.word(match t.layout {
        MemLayout::Soa => 0,
        MemLayout::Aos => 1,
    });
    h.word(t.preallocate as u64);
    h.word(t.batched_transfer as u64);
    h.word(t.tight_ready_ub as u64);
    h.word(t.wavefront_level_choice as u64);
    h.word(t.stall_wavefront_fraction.to_bits());
    h.word(t.early_wavefront_termination as u64);
    h.word(t.per_wavefront_heuristics as u64);
    h.word(a.pass2_gate_cycles as u64);
    h.word(a.occupancy_cap.map_or(u64::MAX, |c| c as u64));
    for w in occ.signature() {
        h.word(w as u64);
    }
}

fn heuristic_index(heur: Heuristic) -> u64 {
    Heuristic::ALL
        .iter()
        .position(|h| *h == heur)
        .expect("every heuristic is in ALL") as u64
}

#[cfg(test)]
fn solo_key(ddg: &Ddg, occ: &OccupancyModel, cfg: &PipelineConfig) -> u64 {
    solo_key_warm(ddg, occ, cfg, None)
}

/// Solo key with the warm-start hint folded in **only when present**:
/// a cold lookup's key is bit-identical to what it was before warm
/// memoization existed (tag 1, no extra words), while a warm lookup keys
/// under its own tag plus the hint fingerprint.
fn solo_key_warm(
    ddg: &Ddg,
    occ: &OccupancyModel,
    cfg: &PipelineConfig,
    warm_fp: Option<u64>,
) -> u64 {
    let mut h = Fnv64::new();
    match warm_fp {
        None => h.word(1), // entry-kind tag: cold solo
        Some(fp) => {
            h.word(3); // entry-kind tag: warm solo
            h.word(fp);
        }
    }
    hash_config(&mut h, cfg, occ);
    h.word(ddg_content_fingerprint(ddg));
    h.finish()
}

fn group_key(members: &[&Ddg], occ: &OccupancyModel, cfg: &PipelineConfig) -> u64 {
    let mut h = Fnv64::new();
    h.word(2); // entry-kind tag
    hash_config(&mut h, cfg, occ);
    h.word(members.len() as u64);
    for ddg in members {
        h.word(ddg_content_fingerprint(ddg));
    }
    h.finish()
}

// -------------------------------------------------------- persistence --

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
    let revert = (int(1)? as u32, int(2)? as u32);
    let heuristic = *Heuristic::ALL
        .get(int(18)? as usize)
        .ok_or_else(|| bad_data("bad heuristic index"))?;
    let aco = AcoConfig {
        seed: int(3)?,
        sequential_ants: int(4)? as u32,
        blocks: int(5)? as u32,
        threads_per_block: int(6)? as u32,
        decay: float(7)?,
        q0: float(8)?,
        beta: float(9)?,
        initial_pheromone: float(10)?,
        deposit: float(11)?,
        tau_min: float(12)?,
        tau_max: float(13)?,
        termination: aco::Termination {
            small: int(14)? as u32,
            medium: int(15)? as u32,
            large: int(16)? as u32,
            max_iterations: int(17)? as u32,
        },
        heuristic,
        optional_stall_budget: float(19)?,
        tuning: aco::GpuTuning {
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
        pass2_gate_cycles: int(28)? as u32,
        occupancy_cap: match sint(29)? {
            -1 => None,
            c if c >= 0 => Some(c as u32),
            _ => return Err(bad_data("bad occupancy cap")),
        },
    };
    let mut sig = [0u32; 7];
    for (i, s) in sig.iter_mut().enumerate() {
        *s = int(30 + i)? as u32;
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
        occupancy: int(toks[2])? as u32,
        length: int(toks[3])? as u32,
        pass1_processed: toks[4] != "0",
        pass2_processed: toks[5] != "0",
        sched_time_us: f64::from_bits(
            u64::from_str_radix(toks[7], 16).map_err(|_| bad_data("bad sched time"))?,
        ),
        reverted: toks[6] != "0",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::compile_region;
    use workloads::{Suite, SuiteConfig};

    fn cfg(kind: SchedulerKind) -> PipelineConfig {
        let mut c = PipelineConfig::paper(kind, 0);
        c.aco.blocks = 4;
        c.aco.pass2_gate_cycles = 1;
        c
    }

    fn sample_ddg(seed: u64) -> Ddg {
        workloads::patterns::sized(40, seed)
    }

    fn comps_eq(a: &RegionCompilation, b: &RegionCompilation) -> bool {
        a.size == b.size
            && a.choice == b.choice
            && a.occupancy == b.occupancy
            && a.length == b.length
            && a.pass1_processed == b.pass1_processed
            && a.pass2_processed == b.pass2_processed
            && a.reverted == b.reverted
            && a.sched_time_us.to_bits() == b.sched_time_us.to_bits()
            && a.heuristic.schedule == b.heuristic.schedule
            && a.heuristic.order == b.heuristic.order
            && a.aco
                .as_ref()
                .map(|r| (&r.schedule, &r.order, r.ops, r.pass1, r.pass2))
                == b.aco
                    .as_ref()
                    .map(|r| (&r.schedule, &r.order, r.ops, r.pass1, r.pass2))
    }

    #[test]
    fn hit_returns_bitwise_identical_compilation() {
        let occ = machine_model::OccupancyModel::vega_like();
        let c = cfg(SchedulerKind::ParallelAco);
        let ddg = sample_ddg(7);
        let cache = ScheduleCache::new();
        let fresh = compile_region(&ddg, &occ, &c);
        let miss = cache.compile_solo(&ddg, &occ, &c);
        let hit = cache.compile_solo(&ddg, &occ, &c);
        assert!(comps_eq(&fresh, &miss));
        assert!(comps_eq(&fresh, &hit));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                inserts: 1,
                bypasses: 0,
                evictions: 0
            }
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_content_config_and_occ_never_collide_in_practice() {
        let occ = machine_model::OccupancyModel::vega_like();
        let c = cfg(SchedulerKind::ParallelAco);
        let cache = ScheduleCache::new();
        let a = sample_ddg(1);
        let b = sample_ddg(2);
        cache.compile_solo(&a, &occ, &c);
        cache.compile_solo(&b, &occ, &c);
        // Different seed => different key even for the same content.
        let mut c2 = c;
        c2.aco.seed = 99;
        cache.compile_solo(&a, &occ, &c2);
        // Different machine model likewise.
        cache.compile_solo(&a, &machine_model::OccupancyModel::unit(), &c);
        // Capped re-schedules key separately too.
        let mut capped = c;
        capped.aco.occupancy_cap = Some(2);
        cache.compile_solo(&a, &occ, &capped);
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 5);
        assert_eq!(cache.len(), 5);
    }

    /// The tentpole's safety property: a tampered entry is detected by
    /// re-certification, bypassed, recomputed, and overwritten — a
    /// poisoned cache can cost misses, never wrong schedules.
    #[test]
    fn poisoned_entry_is_rejected_and_self_healed() {
        let occ = machine_model::OccupancyModel::vega_like();
        let c = cfg(SchedulerKind::ParallelAco);
        let ddg = sample_ddg(11);
        let cache = ScheduleCache::new();
        let fresh = cache.compile_solo(&ddg, &occ, &c);
        let key = solo_key(&ddg, &occ, &c);

        // Tamper 1: an invalid schedule (precedence/latency broken by
        // swapping the first two issue cycles).
        let mut poisoned = fresh.clone();
        let mut cycles = poisoned.heuristic.schedule.cycles().to_vec();
        cycles.swap(0, 1);
        poisoned.heuristic.schedule = Schedule::from_cycles(cycles);
        cache
            .shard(key)
            .insert(key, Arc::new(solo_entry(&ddg, &occ, &c, &poisoned)));
        let healed = cache.compile_solo(&ddg, &occ, &c);
        assert!(
            comps_eq(&fresh, &healed),
            "bypass must recompute the true result"
        );
        assert_eq!(cache.stats().bypasses, 1);

        // Self-heal: the overwrite restored a certified entry.
        let again = cache.compile_solo(&ddg, &occ, &c);
        assert!(comps_eq(&fresh, &again));
        assert_eq!(cache.stats().bypasses, 1, "healed entry must hit cleanly");

        // Tamper 2: a valid schedule with inflated claims (occupancy lie).
        let mut liar = fresh.clone();
        liar.occupancy += 1;
        if let Some(a) = &mut liar.aco {
            a.occupancy += 1;
        } else {
            liar.heuristic.occupancy += 1;
        }
        cache
            .shard(key)
            .insert(key, Arc::new(solo_entry(&ddg, &occ, &c, &liar)));
        let healed = cache.compile_solo(&ddg, &occ, &c);
        assert!(comps_eq(&fresh, &healed));
        assert_eq!(cache.stats().bypasses, 2);

        // Tamper 3: entry whose stored DDG doesn't match the lookup's
        // (a forged key); content equality must reject it.
        let other = sample_ddg(12);
        let entry = solo_entry(&other, &occ, &c, &compile_region(&other, &occ, &c));
        cache.shard(key).insert(key, Arc::new(entry));
        let healed = cache.compile_solo(&ddg, &occ, &c);
        assert!(comps_eq(&fresh, &healed));
        assert_eq!(cache.stats().bypasses, 3);
    }

    /// Satellite: the store is capacity-bounded. Overfilling it evicts
    /// (counted), keeps the entry count within the effective capacity, and
    /// an evicted entry is transparently recomputed — same bits, one more
    /// miss.
    #[test]
    fn bounded_cache_evicts_and_stays_transparent() {
        let occ = machine_model::OccupancyModel::vega_like();
        let c = cfg(SchedulerKind::BaseAmd);
        let cache = ScheduleCache::with_capacity(SHARD_COUNT);
        assert_eq!(cache.capacity(), SHARD_COUNT);
        let ddgs: Vec<Ddg> = (0..48).map(|i| sample_ddg(500 + i)).collect();
        let fresh: Vec<RegionCompilation> = ddgs
            .iter()
            .map(|d| cache.compile_solo(d, &occ, &c))
            .collect();
        let unique: std::collections::HashSet<u64> =
            ddgs.iter().map(ddg_content_fingerprint).collect();
        assert!(unique.len() > cache.capacity(), "test must overfill");
        assert!(cache.len() <= cache.capacity());
        let s = cache.stats();
        assert_eq!(s.evictions, s.inserts - cache.len() as u64);
        assert!(s.evictions > 0, "overfilling must evict");
        // Every lookup still returns the true compilation, evicted or not.
        for (d, f) in ddgs.iter().zip(&fresh) {
            assert!(comps_eq(f, &cache.compile_solo(d, &occ, &c)));
        }
        assert_eq!(cache.stats().bypasses, 0);
    }

    /// Eviction is stalest-first: the victim is the smallest last-touch
    /// stamp, never the entry just inserted.
    #[test]
    fn eviction_prefers_stale_stamps() {
        let occ = machine_model::OccupancyModel::vega_like();
        let c = cfg(SchedulerKind::BaseAmd);
        let shard = Shard::default();
        for (key, stamp) in [(1u64, 10u64), (2, 5), (3, 20)] {
            let ddg = sample_ddg(key);
            let entry = solo_entry(&ddg, &occ, &c, &compile_region(&ddg, &occ, &c));
            entry.stamp.store(stamp, Ordering::Relaxed);
            shard.insert(key, Arc::new(entry));
        }
        let ddg = sample_ddg(4);
        let entry = solo_entry(&ddg, &occ, &c, &compile_region(&ddg, &occ, &c));
        entry.stamp.store(1, Ordering::Relaxed); // stalest of all, but new
        let evicted = shard.insert_capped(4, Arc::new(entry), 2);
        assert_eq!(evicted, 2);
        assert!(shard.get(4).is_some(), "the new entry always survives");
        assert!(shard.get(3).is_some(), "freshest stamp survives");
        assert!(shard.get(1).is_none() && shard.get(2).is_none());
    }

    /// A certified hit refreshes the entry's stamp, so hot entries outlive
    /// cold ones under eviction pressure.
    #[test]
    fn hits_refresh_the_eviction_stamp() {
        let occ = machine_model::OccupancyModel::vega_like();
        let c = cfg(SchedulerKind::BaseAmd);
        let cache = ScheduleCache::new();
        let a = sample_ddg(41);
        let b = sample_ddg(42);
        cache.compile_solo(&a, &occ, &c);
        cache.compile_solo(&b, &occ, &c);
        let key_a = solo_key(&a, &occ, &c);
        let before = cache
            .shard(key_a)
            .get(key_a)
            .unwrap()
            .stamp
            .load(Ordering::Relaxed);
        cache.compile_solo(&a, &occ, &c); // hit
        let after = cache
            .shard(key_a)
            .get(key_a)
            .unwrap()
            .stamp
            .load(Ordering::Relaxed);
        assert!(after > before, "hit must refresh the stamp");
    }

    /// Warm-started results memoize under their own keys: they never
    /// answer a cold lookup (or one under a different hint), and they are
    /// not persisted — the cache file format stays hint-free.
    #[test]
    fn warm_entries_key_separately_and_are_not_persisted() {
        let occ = machine_model::OccupancyModel::vega_like();
        let c = cfg(SchedulerKind::ParallelAco);
        let ddg = sample_ddg(77);
        let hint = aco::WarmStart::new(ddg.topo_order().to_vec()).unwrap();
        let cache = ScheduleCache::new();

        let cold = cache.compile_solo(&ddg, &occ, &c);
        let warm_miss = cache.compile_solo_with(&ddg, &occ, &c, Some(&hint));
        let warm_hit = cache.compile_solo_with(&ddg, &occ, &c, Some(&hint));
        assert!(comps_eq(&warm_miss, &warm_hit));
        assert!(comps_eq(
            &warm_miss,
            &compile_region_warm(&ddg, &occ, &c, Some(&hint))
        ));
        let cold_again = cache.compile_solo(&ddg, &occ, &c);
        assert!(comps_eq(&cold, &cold_again));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.bypasses), (2, 2, 0));
        assert_eq!(cache.len(), 2, "cold and warm entries coexist");

        // Persistence drops the warm entry; the reloaded cache still
        // answers the cold lookup and recomputes the warm one.
        let mut bytes = Vec::new();
        cache.save_to_writer(&mut bytes).unwrap();
        let loaded = ScheduleCache::load_from_reader(io::BufReader::new(&bytes[..])).unwrap();
        assert_eq!(loaded.len(), 1, "warm entries must not persist");
        assert!(comps_eq(&cold, &loaded.compile_solo(&ddg, &occ, &c)));
        assert_eq!(loaded.stats().hits, 1);
        assert!(comps_eq(
            &warm_miss,
            &loaded.compile_solo_with(&ddg, &occ, &c, Some(&hint))
        ));
        assert_eq!(loaded.stats().misses, 1);
    }

    #[test]
    fn group_hits_reconstruct_split_colony_configs() {
        let occ = machine_model::OccupancyModel::vega_like();
        let mut c = cfg(SchedulerKind::BatchedParallelAco);
        c.aco.blocks = 16;
        let suite = Suite::generate(&SuiteConfig::scaled(7, 0.008));
        let kernel = &suite.kernels[0];
        let group: Vec<usize> = (0..kernel.regions.len().min(3)).collect();
        assert!(group.len() >= 2, "need a real group");
        let cache = ScheduleCache::new();
        let fresh = compile_batch_group(kernel, &group, &occ, &c);
        let miss = cache.compile_group(kernel, &group, &occ, &c);
        let hit = cache.compile_group(kernel, &group, &occ, &c);
        for (f, m) in [(&fresh, &miss), (&fresh, &hit)] {
            assert_eq!(f.len(), m.len());
            for ((ri_a, cfg_a, comp_a), (ri_b, cfg_b, comp_b)) in f.iter().zip(m.iter()) {
                assert_eq!(ri_a, ri_b);
                assert_eq!(cfg_a, cfg_b, "split-colony config must be reconstructed");
                assert!(comps_eq(comp_a, comp_b));
            }
        }
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn save_load_roundtrip_preserves_solo_entries() {
        let occ = machine_model::OccupancyModel::vega_like();
        let c = cfg(SchedulerKind::ParallelAco);
        let cache = ScheduleCache::new();
        let ddgs: Vec<Ddg> = (1..5).map(sample_ddg).collect();
        let fresh: Vec<RegionCompilation> = ddgs
            .iter()
            .map(|d| cache.compile_solo(d, &occ, &c))
            .collect();
        // A BaseAmd entry too (no ACO payload on its comp).
        let base = cfg(SchedulerKind::BaseAmd);
        let base_fresh = cache.compile_solo(&ddgs[0], &occ, &base);

        let dir = std::env::temp_dir().join("schedcache_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("roundtrip_{}.txt", std::process::id()));
        cache.save_to(&path).unwrap();
        let loaded = ScheduleCache::load_from(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.len(), cache.len());

        // Every lookup on the loaded cache is a certified hit with the
        // exact original compilation.
        for (d, f) in ddgs.iter().zip(&fresh) {
            let got = loaded.compile_solo(d, &occ, &c);
            assert!(comps_eq(f, &got));
        }
        assert!(comps_eq(
            &base_fresh,
            &loaded.compile_solo(&ddgs[0], &occ, &base)
        ));
        let s = loaded.stats();
        assert_eq!((s.hits, s.misses, s.bypasses), (5, 0, 0));
    }

    #[test]
    fn load_rejects_malformed_files() {
        let dir = std::env::temp_dir().join("schedcache_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("malformed_{}.txt", std::process::id()));
        std::fs::write(&path, "not a cache\n").unwrap();
        assert!(ScheduleCache::load_from(&path).is_err());
        std::fs::write(&path, "schedcache v1\nkey 0x12\ngarbage\n").unwrap();
        assert!(ScheduleCache::load_from(&path).is_err());
        // An empty file is missing even the header.
        std::fs::write(&path, "").unwrap();
        assert!(ScheduleCache::load_from(&path).is_err());
        // A well-formed body without the `eof` trailer is a truncation.
        std::fs::write(&path, "schedcache v1\n").unwrap();
        assert!(ScheduleCache::load_from(&path).is_err());
        // Trailer entry-count mismatches are rejected.
        std::fs::write(&path, "schedcache v1\neof 3\n").unwrap();
        assert!(ScheduleCache::load_from(&path).is_err());
        // Content after the trailer is rejected.
        std::fs::write(&path, "schedcache v1\neof 0\nkey 0x1\n").unwrap();
        assert!(ScheduleCache::load_from(&path).is_err());
        // The empty cache itself round-trips.
        std::fs::write(&path, "schedcache v1\neof 0\n").unwrap();
        assert_eq!(ScheduleCache::load_from(&path).unwrap().len(), 0);
        std::fs::remove_file(&path).ok();
    }

    /// A writer that accepts a bounded number of bytes and then fails, and
    /// can be told to fail on `flush` — models ENOSPC/EIO surfacing at the
    /// final buffered write, the exact error `BufWriter`'s drop swallows.
    struct FailingWriter {
        budget: usize,
        fail_flush: bool,
    }

    impl io::Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if buf.len() > self.budget {
                return Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"));
            }
            self.budget -= buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            if self.fail_flush {
                Err(io::Error::new(io::ErrorKind::StorageFull, "flush failed"))
            } else {
                Ok(())
            }
        }
    }

    /// The save path must report failures instead of returning `Ok(())`:
    /// both a mid-stream write error and a flush-time error (the historical
    /// bug — `BufWriter`'s drop silently discarded it).
    #[test]
    fn save_reports_write_and_flush_errors() {
        let occ = machine_model::OccupancyModel::vega_like();
        let c = cfg(SchedulerKind::BaseAmd);
        let cache = ScheduleCache::new();
        cache.compile_solo(&sample_ddg(3), &occ, &c);

        let mut out = FailingWriter {
            budget: 64,
            fail_flush: false,
        };
        let err = cache.save_to_writer(&mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);

        // Errors surfacing only at flush time (buffered tail write) must
        // propagate too.
        let mut out = io::BufWriter::new(FailingWriter {
            budget: usize::MAX,
            fail_flush: true,
        });
        let err = cache.save_to_writer(&mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
    }

    /// `save_to` goes through a sibling temp file + atomic rename: saving
    /// over an existing cache fully replaces it, leaves no temp droppings,
    /// and a save into a missing directory errors without touching
    /// anything.
    #[test]
    fn save_is_atomic_and_cleans_up() {
        let occ = machine_model::OccupancyModel::vega_like();
        let c = cfg(SchedulerKind::BaseAmd);
        let dir = std::env::temp_dir().join(format!("schedcache_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.txt");

        let first = ScheduleCache::new();
        first.compile_solo(&sample_ddg(1), &occ, &c);
        first.save_to(&path).unwrap();
        let second = ScheduleCache::new();
        second.compile_solo(&sample_ddg(2), &occ, &c);
        second.compile_solo(&sample_ddg(3), &occ, &c);
        second.save_to(&path).unwrap();

        // The target holds exactly the second save (byte-for-byte what the
        // writer emits) and the directory holds no temp file.
        let mut expect = Vec::new();
        second.save_to_writer(&mut expect).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), expect);
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["cache.txt".to_string()], "temp file leaked");

        // A failing save (missing parent directory) errors out loud.
        let missing = dir.join("nope").join("cache.txt");
        assert!(second.save_to(&missing).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The durability property the daemon's persist-on-shutdown depends
    /// on: a persisted cache truncated at *every* line boundary (and at
    /// assorted mid-line byte offsets) is rejected with a clean
    /// `InvalidData` error — never a panic, never a half-loaded cache that
    /// serves hits from the surviving prefix.
    #[test]
    fn truncation_fuzz_never_half_loads() {
        let occ = machine_model::OccupancyModel::vega_like();
        let c = cfg(SchedulerKind::ParallelAco);
        let base = cfg(SchedulerKind::BaseAmd);
        let cache = ScheduleCache::new();
        for seed in 1..4 {
            cache.compile_solo(&sample_ddg(seed), &occ, &c);
        }
        // A no-ACO entry too, so the fuzz crosses both comp layouts.
        cache.compile_solo(&sample_ddg(1), &occ, &base);
        let mut bytes = Vec::new();
        cache.save_to_writer(&mut bytes).unwrap();

        // The intact file loads completely.
        assert_eq!(
            ScheduleCache::load_from_reader(io::BufReader::new(&bytes[..]))
                .unwrap()
                .len(),
            cache.len()
        );

        // Every proper prefix ending at a line boundary must be rejected.
        let mut cut_points: Vec<usize> = bytes
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\n')
            .map(|(i, _)| i + 1)
            .filter(|&i| i < bytes.len())
            .collect();
        cut_points.push(0);
        // And a spread of mid-line offsets (never the full length).
        cut_points.extend((1..bytes.len()).step_by(97));
        for cut in cut_points {
            let prefix = &bytes[..cut];
            let err = match ScheduleCache::load_from_reader(io::BufReader::new(prefix)) {
                Err(e) => e,
                Ok(_) => panic!("truncation at byte {cut} must not load"),
            };
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "truncation at byte {cut} must be InvalidData, got {err}"
            );
        }
    }

    #[test]
    fn hand_edited_cache_file_cannot_poison() {
        let occ = machine_model::OccupancyModel::vega_like();
        let c = cfg(SchedulerKind::BaseAmd);
        let ddg = sample_ddg(23);
        let cache = ScheduleCache::new();
        let fresh = cache.compile_solo(&ddg, &occ, &c);
        let dir = std::env::temp_dir().join("schedcache_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("edited_{}.txt", std::process::id()));
        cache.save_to(&path).unwrap();
        // Lie about the final occupancy in the persisted claims.
        let text = std::fs::read_to_string(&path).unwrap();
        let edited: Vec<String> = text
            .lines()
            .map(|l| {
                if let Some(rest) = l.strip_prefix("comp ") {
                    let mut t: Vec<String> = rest.split_whitespace().map(str::to_string).collect();
                    t[2] = (t[2].parse::<u32>().unwrap() + 1).to_string();
                    format!("comp {}", t.join(" "))
                } else {
                    l.to_string()
                }
            })
            .collect();
        std::fs::write(&path, edited.join("\n") + "\n").unwrap();
        let loaded = ScheduleCache::load_from(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let got = loaded.compile_solo(&ddg, &occ, &c);
        assert!(comps_eq(&fresh, &got), "edited claims must be bypassed");
        assert_eq!(loaded.stats().bypasses, 1);
    }

    /// `lookup_solo` is the hit arm alone: it counts a hit when it adopts
    /// and nothing when it does not, so a caller that falls through to
    /// `compile_solo` books the request exactly once.
    #[test]
    fn lookup_solo_counts_a_hit_or_nothing() {
        let occ = machine_model::OccupancyModel::vega_like();
        let c = cfg(SchedulerKind::BaseAmd);
        let ddg = sample_ddg(29);
        let cache = ScheduleCache::new();
        assert!(cache.lookup_solo(&ddg, &occ, &c).is_none());
        assert_eq!(cache.stats(), CacheStats::default(), "absent: uncounted");
        let fresh = cache.compile_solo(&ddg, &occ, &c);
        let hit = cache.lookup_solo(&ddg, &occ, &c).expect("now memoized");
        assert!(comps_eq(&fresh, &hit));
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
        // Another config under the same region is absent, not a bypass.
        assert!(cache
            .lookup_solo(&ddg, &occ, &cfg(SchedulerKind::CriticalPath))
            .is_none());
        // A lying entry is never adopted and not counted here: the
        // `compile_solo` that follows counts the bypass and heals it.
        let key = solo_key(&ddg, &occ, &c);
        let mut lie = fresh.clone();
        lie.occupancy += 1;
        cache
            .shard(key)
            .insert(key, Arc::new(solo_entry(&ddg, &occ, &c, &lie)));
        let before = cache.stats();
        assert!(cache.lookup_solo(&ddg, &occ, &c).is_none());
        assert_eq!(cache.stats(), before, "rejected: uncounted");
        assert!(comps_eq(&fresh, &cache.compile_solo(&ddg, &occ, &c)));
        assert_eq!(cache.stats().since(before).bypasses, 1);
        assert!(cache.lookup_solo(&ddg, &occ, &c).is_some(), "healed");
    }

    /// Concurrent readers and writers on the sharded store, unbounded and
    /// under eviction pressure (4 threads inserting 4x the capacity): every
    /// returned compilation is the uncached one, the store never exceeds
    /// its capacity, and the counters add up.
    #[test]
    fn sharded_store_is_safe_under_concurrency() {
        let occ = machine_model::OccupancyModel::vega_like();
        let c = cfg(SchedulerKind::BaseAmd);
        for (cache, regions) in [
            (ScheduleCache::new(), 16),
            (ScheduleCache::with_capacity(SHARD_COUNT), 4 * SHARD_COUNT),
        ] {
            // Seeds may generate content-identical regions (that is the
            // point of the cache), so collect distinct fingerprints.
            let mut unique = std::collections::HashSet::new();
            let ddgs: Vec<Ddg> = (100..)
                .map(sample_ddg)
                .filter(|d| unique.insert(ddg_content_fingerprint(d)))
                .take(regions)
                .collect();
            let expected: Vec<RegionCompilation> =
                ddgs.iter().map(|d| compile_region(d, &occ, &c)).collect();
            let start = std::sync::Barrier::new(4);
            std::thread::scope(|s| {
                for t in 0..4 {
                    let (cache, ddgs, expected, c) = (&cache, &ddgs, &expected, &c);
                    let (occ, start) = (&occ, &start);
                    s.spawn(move || {
                        start.wait();
                        for round in 0..3 {
                            for i in 0..ddgs.len() {
                                // Stagger the order per thread so lookups,
                                // inserts and evictions interleave.
                                let i = (i + t * 5 + round) % ddgs.len();
                                let got = cache.compile_solo(&ddgs[i], occ, c);
                                assert!(comps_eq(&expected[i], &got));
                            }
                        }
                    });
                }
            });
            let s = cache.stats();
            assert_eq!(s.bypasses, 0);
            assert_eq!(s.hits + s.misses, 4 * 3 * regions as u64);
            if regions <= cache.capacity() {
                assert_eq!((cache.len(), s.evictions), (regions, 0));
            } else {
                assert!(cache.len() <= cache.capacity());
                assert!(s.evictions > 0, "overfilling must evict");
            }
        }
    }
}
