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
//! 1. **Full structural equality** — the entry stores its config and its
//!    region as a [`PackedDdg`]: one allocation holding what
//!    [`Ddg::content_eq`] compares, plus the names a saved file prints. A
//!    hit requires [`PackedDdg::matches`], which answers what `content_eq`
//!    answers, and exact config/machine-model equality, so a 64-bit
//!    collision can never smuggle in a wrong schedule.
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
//! # What is memoized
//!
//! A suite memoizes only compilations that run a colony
//! ([`SchedulerKind::runs_colony`]): solo ACO jobs, batch groups and the
//! kernel post filter's capped re-schedules. A list-scheduled suite job
//! (`BaseAmd`, `CriticalPath`) compiles directly in
//! [`crate::host_pool::run_job`]: on `frontend-large` a certified hit
//! (key fingerprint, equality gate, re-certification) costs about 12 µs and
//! the compile it replaces 11–14 µs, so the cache bought no time there and
//! held 3,230 entries. The single-region callers
//! ([`ScheduleCache::compile_solo`] from the daemon's `schedule` admission
//! and the CLI's `--cache`) memoize every kind: there a hit skips a queue
//! or survives a restart.
//!
//! # Concurrency
//!
//! The cache is shared read-mostly across the host job pool, so
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
//! entries in the `schedcache v1` line format (the workspace deliberately
//! vendors no serializer). Loaded entries pass through the same equality +
//! re-certification gates as in-memory ones, so a corrupted or hand-edited
//! cache file can cost misses, never wrong schedules. Group entries are
//! launch-geometry specific and are not persisted.
//!
//! Persistence is **durable** — a long-running server leans on it across
//! restarts (see `sched-serve`) — and goes through `sched_ir::record`, the
//! codec the serve protocol shares:
//!
//! * `save_to` is [`sched_ir::record::atomic_save`]: a sibling temporary
//!   file, flushed, synced and renamed over the target. A crash mid-save
//!   (even `kill -9`) leaves either the old file or the new one, never a
//!   truncated hybrid, and flush/sync errors surface as `Err`.
//! * The file ends with an `eof <count>` trailer, so `load_from` detects
//!   truncation by *any* means — a prefix cut at every line boundary (or
//!   mid-line) is rejected, never half-loaded. Every rejection is an
//!   `InvalidData` error naming its line (`schedcache: line 17: …`, or
//!   `line L, column C: …` inside a region's `ddg` block); a field that
//!   does not fit its width and a repeated key are rejections too.
//! * `load_from` streams the file through one reused line buffer and parses
//!   each `ddg` block where it lies in that buffer; boot-time loading never
//!   holds the whole file in memory alongside the parsed entries.
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

use crate::batch::compile_batch_group;
use crate::config::{PipelineConfig, SchedulerKind};
use crate::region::{compile_region, FinalChoice, RegionCompilation};
use aco::{batch_block_split, AcoConfig, AcoResult, GpuTuning, PassStats, Termination};
use gpu_sim::MemLayout;
use list_sched::{Heuristic, ScheduleResult};
use machine_model::OccupancyModel;
use reg_pressure::RegUniverse;
use sched_ir::bounds::BOUND_VERSION;
use sched_ir::record::{self, flag, Line, Records};
use sched_ir::{ddg_content_fingerprint, textir, Cycle, Ddg, Fnv64, InstrId, PackedDdg, Schedule};
use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

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
    Solo {
        ddg: PackedDdg,
        comp: RegionCompilation,
    },
    /// One cooperative batch group: per-member compilations in group
    /// order (member regions stored for the equality check).
    Group {
        ddgs: Vec<PackedDdg>,
        comps: Vec<RegionCompilation>,
    },
}

/// Everything a [`RegionCompilation`] depends on besides its region: the
/// scheduler kind, the ACO configuration, the revert knobs and the machine
/// model. The one definition of a configuration's identity: the key folds
/// its [`config_words`], the `cfg` line prints them, and a hit requires
/// equal `Inputs`.
type Inputs = (SchedulerKind, AcoConfig, (u32, u32), OccupancyModel);

fn inputs(cfg: &PipelineConfig, occ: &OccupancyModel) -> Inputs {
    // Every field is named, so a new one fails to build until it is placed.
    // The ones bound to `_` change no schedule, so configurations that
    // differ only there must share entries: the batching policy decides
    // group membership, which the group key already holds; the base
    // compile costs are added after compilation; host threads, the cache
    // and analysis are transparent by contract.
    let PipelineConfig {
        scheduler,
        aco,
        revert_occupancy_gain,
        revert_length_penalty,
        batching: _,
        base_cost_per_region_us: _,
        base_cost_per_instr_us: _,
        host_threads: _,
        cache: _,
        analyze: _,
    } = *cfg;
    let revert = (revert_occupancy_gain, revert_length_penalty);
    (scheduler, aco, revert, *occ)
}

/// One memoized compilation plus everything the equality gate compares.
#[derive(Debug)]
struct CacheEntry {
    inputs: Inputs,
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
    /// Default entry capacity of [`ScheduleCache::new`]. A `BaseAmd` entry
    /// for a 44-instruction region (the `frontend-large` mean) is about
    /// 1.7 KB, of which about 840 bytes is its [`PackedDdg`], so a full
    /// cache of such entries would hold about 28 MB. Only the single-region
    /// paths store such entries; a suite stores ACO entries only (see
    /// "What is memoized" above), each a larger compilation beside the
    /// same packed region.
    pub const DEFAULT_CAPACITY: usize = 16 * 1024;

    /// An empty cache holding at most [`Self::DEFAULT_CAPACITY`] entries.
    pub fn new() -> ScheduleCache {
        ScheduleCache::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// An empty cache bounded to roughly `capacity` entries (the bound is
    /// enforced per shard, as `max(1, capacity / 16)` for each of the 16
    /// shards, so the effective total is at least 16 and within one shard's
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
        let key = solo_key(ddg, occ, cfg);
        match self.lookup_solo_keyed(key, ddg, occ, cfg) {
            Ok(comp) => return comp,
            // Collision, config mismatch under a colliding key, or a
            // tampered entry: never adopt — recompute and self-heal.
            Err(Unadopted::Rejected) => self.bypasses.fetch_add(1, Ordering::Relaxed),
            Err(Unadopted::Absent) => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        let comp = compile_region(ddg, occ, cfg);
        self.store(key, solo_entry(ddg, occ, cfg, &comp));
        comp
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
        let key = solo_key(ddg, occ, cfg);
        self.lookup_solo_keyed(key, ddg, occ, cfg).ok()
    }

    /// The one hit arm of the solo paths; `Err` says why nothing was
    /// adopted and leaves the accounting to the caller.
    fn lookup_solo_keyed(
        &self,
        key: u64,
        ddg: &Ddg,
        occ: &OccupancyModel,
        cfg: &PipelineConfig,
    ) -> Result<RegionCompilation, Unadopted> {
        let entry = self.shard(key).get(key).ok_or(Unadopted::Absent)?;
        if let Payload::Solo {
            ddg: cached_ddg,
            comp,
        } = &entry.payload
        {
            if entry.inputs == inputs(cfg, occ)
                && cached_ddg.matches(ddg)
                && certify_hit(ddg, occ, comp)
            {
                self.hits.fetch_add(1, Ordering::Relaxed);
                entry.stamp.store(self.tick(), Ordering::Relaxed);
                return Ok(comp.clone());
            }
        }
        Err(Unadopted::Rejected)
    }

    /// Compiles one cooperative batch group through the cache. The key
    /// covers every member's content in group order (construction results
    /// depend on the whole group), and a hit re-certifies every member
    /// against its new region instance.
    pub(crate) fn compile_group(
        &self,
        members: &[&Ddg],
        occ: &OccupancyModel,
        cfg: &PipelineConfig,
    ) -> Vec<(PipelineConfig, RegionCompilation)> {
        let key = group_key(members, occ, cfg);
        if let Some(entry) = self.shard(key).get(key) {
            if let Payload::Group { ddgs, comps } = &entry.payload {
                let ok = entry.inputs == inputs(cfg, occ)
                    && ddgs.len() == members.len()
                    && ddgs
                        .iter()
                        .zip(members)
                        .all(|(cached, new)| cached.matches(new))
                    && comps
                        .iter()
                        .zip(members)
                        .all(|(comp, new)| certify_hit(new, occ, comp));
                if ok {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    entry.stamp.store(self.tick(), Ordering::Relaxed);
                    return attach_group_cfgs(comps.clone(), cfg);
                }
            }
            self.bypasses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        let outcomes = compile_batch_group(members, occ, cfg);
        self.store(
            key,
            CacheEntry {
                inputs: inputs(cfg, occ),
                stamp: AtomicU64::new(0),
                payload: Payload::Group {
                    ddgs: members.iter().copied().map(PackedDdg::new).collect(),
                    comps: outcomes.iter().map(|(_, c)| c.clone()).collect(),
                },
            },
        );
        outcomes
    }

    /// Writes every solo entry to `out` in the `schedcache v1` format,
    /// sorted by key, and flushes: a write or flush error surfaces as
    /// `Err`, not in a buffered writer's drop.
    pub fn save_to_writer(&self, out: &mut impl Write) -> io::Result<()> {
        let mut entries: Vec<(u64, Arc<CacheEntry>)> = Vec::new();
        for shard in &self.shards {
            for (&k, e) in shard.read().iter() {
                if matches!(e.payload, Payload::Solo { .. }) {
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
            write_cfg_line(out, &entry.inputs)?;
            let text = textir::to_text(&ddg.unpack());
            writeln!(out, "ddg {}", text.lines().count())?;
            out.write_all(text.as_bytes())?;
            write_comp(out, comp)?;
            writeln!(out, "end")?;
        }
        writeln!(out, "eof {count}")?;
        out.flush()
    }

    /// Persists the cache at `path` through [`record::atomic_save`].
    pub fn save_to(&self, path: &Path) -> io::Result<()> {
        record::atomic_save(path, "schedcache", |out| self.save_to_writer(out))
    }

    /// Loads a cache persisted by [`Self::save_to`], streaming it (see the
    /// module docs): a malformed or truncated file is an `InvalidData`
    /// error naming its line; an entry that is well formed but wrong
    /// survives loading and is rejected at hit time by re-certification.
    pub fn load_from(path: &Path) -> io::Result<ScheduleCache> {
        Self::load_from_reader(io::BufReader::new(std::fs::File::open(path)?))
    }

    /// [`Self::load_from`] over any buffered reader (the daemon's tests
    /// and tooling feed in-memory buffers through the same parser).
    pub fn load_from_reader(reader: impl BufRead) -> io::Result<ScheduleCache> {
        let mut r = Records::new(reader, "schedcache");
        let header = r.expect_line("header")?;
        if header.text.trim() != "schedcache v1" {
            return Err(header.at.err("not a schedcache v1 file"));
        }
        let cache = ScheduleCache::new();
        let mut keys = HashSet::new();
        loop {
            let line = r.expect_record("`eof` trailer")?;
            let at = line.at;
            if let Some(count) = line.text.trim().strip_prefix("eof ") {
                let (claimed, held) = (at.num::<usize>(count.trim(), "`eof` count")?, keys.len());
                if claimed != held {
                    let msg = format!("`eof` trailer claims {claimed} entries, file holds {held}");
                    return Err(at.err(msg));
                }
                break;
            }
            let key = at.hex_u64(line.after("key ")?, "key")?;
            if !keys.insert(key) {
                return Err(at.err(format_args!("repeated key {key:#018x}")));
            }
            let inputs = parse_cfg_line(r.expect_line("cfg")?)?;
            let ddg_line = r.expect_line("ddg")?;
            let lines = ddg_line.at.num(ddg_line.after("ddg ")?, "ddg line count")?;
            let ddg = r.ddg_block(lines)?;
            let comp = read_comp(&mut r, ddg.len())?;
            let end = r.expect_line("entry terminator")?;
            if end.text.trim() != "end" {
                return Err(end.at.err("missing entry terminator"));
            }
            cache.admit(
                key,
                CacheEntry {
                    inputs,
                    stamp: AtomicU64::new(0),
                    payload: Payload::Solo {
                        ddg: PackedDdg::new(&ddg),
                        comp,
                    },
                },
            );
        }
        r.finish()?;
        Ok(cache)
    }
}

/// Attaches the split-colony per-member configuration to cached group
/// compilations, mirroring what [`compile_batch_group`] returns.
fn attach_group_cfgs(
    comps: Vec<RegionCompilation>,
    cfg: &PipelineConfig,
) -> Vec<(PipelineConfig, RegionCompilation)> {
    let split = batch_block_split(cfg.aco.blocks, comps.len() as u32);
    split
        .into_iter()
        .zip(comps)
        .map(|(blocks, comp)| {
            let mut region_cfg = *cfg;
            region_cfg.aco.blocks = blocks;
            (region_cfg, comp)
        })
        .collect()
}

fn solo_entry(
    ddg: &Ddg,
    occ: &OccupancyModel,
    cfg: &PipelineConfig,
    comp: &RegionCompilation,
) -> CacheEntry {
    CacheEntry {
        inputs: inputs(cfg, occ),
        stamp: AtomicU64::new(0),
        payload: Payload::Solo {
            ddg: PackedDdg::new(ddg),
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

/// Folds the scheduling-relevant configuration ([`config_words`]) into a
/// hasher, after the length bound's [`BOUND_VERSION`]: entries store pass
/// statistics the bound decides, so an entry a build with another bound
/// persisted sits under another key and is a miss, never a replay. The
/// version is in the key only, not in the `cfg` line, so `schedcache v1`
/// files keep their format.
fn hash_config(h: &mut Fnv64, cfg: &PipelineConfig, occ: &OccupancyModel) {
    h.word(BOUND_VERSION);
    for w in config_words(&inputs(cfg, occ)) {
        h.word(w);
    }
}

/// Positions of the `f64` fields (as bits) in [`config_words`]; the
/// `schedcache` `cfg` line writes them in hexadecimal.
const FLOAT_WORDS: [usize; 9] = [7, 8, 9, 10, 11, 12, 13, 19, 25];
/// Position of the occupancy cap (`u64::MAX` for none, `-1` in a file).
const CAP_WORD: usize = 29;

/// The scheduling-relevant configuration as one word list, in the order
/// both the cache key and the `cfg` line of `schedcache v1` use: scheduler
/// kind, the revert knobs, every `AcoConfig` field, and the machine model's
/// full parameter signature.
///
/// The structs are destructured with no `..` and an unused binding is an
/// error, so a field added to `AcoConfig`, `Termination` or `GpuTuning`
/// does not build until it has a word here (and a slot in
/// [`parse_cfg_line`], whose struct literals are exhaustive too).
#[deny(unused_variables)]
fn config_words(&(scheduler, aco, (revert_gain, revert_penalty), occ): &Inputs) -> [u64; 37] {
    let AcoConfig {
        seed,
        sequential_ants,
        blocks,
        threads_per_block,
        decay,
        q0,
        beta,
        initial_pheromone,
        deposit,
        tau_min,
        tau_max,
        termination:
            Termination {
                small,
                medium,
                large,
                max_iterations,
            },
        heuristic,
        optional_stall_budget,
        tuning:
            GpuTuning {
                layout,
                preallocate,
                batched_transfer,
                tight_ready_ub,
                wavefront_level_choice,
                stall_wavefront_fraction,
                early_wavefront_termination,
                per_wavefront_heuristics,
            },
        pass2_gate_cycles,
        occupancy_cap,
    } = aco;
    let kind = SchedulerKind::ALL
        .iter()
        .position(|&k| k == scheduler)
        .expect("every kind is in ALL") as u64;
    let layout = match layout {
        MemLayout::Soa => 0,
        MemLayout::Aos => 1,
    };
    let head = [
        kind,
        revert_gain.into(),
        revert_penalty.into(),
        seed,
        sequential_ants.into(),
        blocks.into(),
        threads_per_block.into(),
        decay.to_bits(),
        q0.to_bits(),
        beta.to_bits(),
        initial_pheromone.to_bits(),
        deposit.to_bits(),
        tau_min.to_bits(),
        tau_max.to_bits(),
        small.into(),
        medium.into(),
        large.into(),
        max_iterations.into(),
        heuristic_index(heuristic),
        optional_stall_budget.to_bits(),
        layout,
        preallocate.into(),
        batched_transfer.into(),
        tight_ready_ub.into(),
        wavefront_level_choice.into(),
        stall_wavefront_fraction.to_bits(),
        early_wavefront_termination.into(),
        per_wavefront_heuristics.into(),
        pass2_gate_cycles.into(),
        occupancy_cap.map_or(u64::MAX, u64::from),
    ];
    let mut words = [0; 37];
    let sig = occ.signature().map(u64::from);
    words[..30].copy_from_slice(&head);
    words[30..].copy_from_slice(&sig);
    words
}

fn heuristic_index(heur: Heuristic) -> u64 {
    Heuristic::ALL
        .iter()
        .position(|h| *h == heur)
        .expect("every heuristic is in ALL") as u64
}

fn solo_key(ddg: &Ddg, occ: &OccupancyModel, cfg: &PipelineConfig) -> u64 {
    let mut h = Fnv64::new();
    h.word(1); // entry-kind tag
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

fn write_cfg_line(out: &mut impl Write, inputs: &Inputs) -> io::Result<()> {
    write!(out, "cfg")?;
    let words = config_words(inputs);
    for (i, w) in words.into_iter().enumerate() {
        match i {
            _ if FLOAT_WORDS.contains(&i) => write!(out, " {w:x}")?,
            CAP_WORD if w == u64::MAX => write!(out, " -1")?,
            _ => write!(out, " {w}")?,
        }
    }
    writeln!(out)
}

/// Parses a `cfg` line back into [`config_words`] and the configuration
/// they came from, each field at its declared width.
fn parse_cfg_line(line: Line) -> io::Result<Inputs> {
    let at = line.at;
    let toks = at.fields(line.after("cfg ")?, 37, "cfg")?;
    let mut w = [0u64; 37];
    for (i, (w, tok)) in w.iter_mut().zip(&toks).enumerate() {
        *w = match i {
            _ if FLOAT_WORDS.contains(&i) => at.f64_bits(tok, "cfg float")?.to_bits(),
            CAP_WORD => match at.num::<i64>(tok, "occupancy cap")? {
                -1 => u64::MAX,
                c => {
                    u64::try_from(c).map_err(|_| at.err(format_args!("bad occupancy cap `{c}`")))?
                }
            },
            _ => at.num(tok, "cfg integer")?,
        };
    }
    let int = |i: usize| {
        u32::try_from(w[i]).map_err(|e| at.err(format_args!("bad cfg integer `{}`: {e}", toks[i])))
    };
    let float = |i: usize| f64::from_bits(w[i]);
    let scheduler = *SchedulerKind::ALL
        .get(w[0] as usize)
        .ok_or_else(|| at.err("bad scheduler index"))?;
    let heuristic = *Heuristic::ALL
        .get(w[18] as usize)
        .ok_or_else(|| at.err("bad heuristic index"))?;
    let aco = AcoConfig {
        seed: w[3],
        sequential_ants: int(4)?,
        blocks: int(5)?,
        threads_per_block: int(6)?,
        decay: float(7),
        q0: float(8),
        beta: float(9),
        initial_pheromone: float(10),
        deposit: float(11),
        tau_min: float(12),
        tau_max: float(13),
        termination: Termination {
            small: int(14)?,
            medium: int(15)?,
            large: int(16)?,
            max_iterations: int(17)?,
        },
        heuristic,
        optional_stall_budget: float(19),
        tuning: GpuTuning {
            layout: match w[20] {
                0 => MemLayout::Soa,
                1 => MemLayout::Aos,
                _ => return Err(at.err("bad layout index")),
            },
            preallocate: w[21] != 0,
            batched_transfer: w[22] != 0,
            tight_ready_ub: w[23] != 0,
            wavefront_level_choice: w[24] != 0,
            stall_wavefront_fraction: float(25),
            early_wavefront_termination: w[26] != 0,
            per_wavefront_heuristics: w[27] != 0,
        },
        pass2_gate_cycles: int(28)?,
        occupancy_cap: match w[CAP_WORD] {
            u64::MAX => None,
            _ => Some(int(CAP_WORD)?),
        },
    };
    let mut sig = [0u32; 7];
    for (i, s) in sig.iter_mut().enumerate() {
        *s = int(30 + i)?;
    }
    Ok((
        scheduler,
        aco,
        (int(1)?, int(2)?),
        OccupancyModel::from_signature(sig),
    ))
}

/// Writes a schedule-result line: its claims, then every instruction's
/// cycle.
fn write_sres(
    out: &mut impl Write,
    tag: &str,
    occ: u32,
    len: u32,
    prp: [u32; 2],
    s: &Schedule,
) -> io::Result<()> {
    write!(out, "{tag} {occ} {len} {} {} :", prp[0], prp[1])?;
    for cycle in s.cycles() {
        write!(out, " {cycle}")?;
    }
    writeln!(out)
}

/// Parses a schedule-result line `<tag> <occ> <len> <prp> <prp> : <cycles>`;
/// `tag` carries its separating space.
fn read_sres(line: Line, tag: &str, n: usize) -> io::Result<ScheduleResult> {
    let at = line.at;
    let (head, cycles) = line
        .after(tag)?
        .split_once(':')
        .ok_or_else(|| at.err("missing cycle list"))?;
    let head = at.fields(head, 4, "schedule claims")?;
    let int = |s: &str| at.num::<u32>(s, "integer");
    let cycles: Vec<Cycle> = cycles
        .split_whitespace()
        .map(int)
        .collect::<io::Result<_>>()?;
    if cycles.len() != n {
        return Err(at.err("cycle list length mismatch"));
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

fn read_pass(line: Line) -> io::Result<PassStats> {
    let at = line.at;
    let toks = at.fields(line.after("pass ")?, 6, "pass")?;
    Ok(PassStats {
        iterations: at.num(toks[0], "iterations")?,
        improved: flag(toks[1]),
        hit_lb: flag(toks[2]),
        best_cost: at.num(toks[3], "best cost")?,
        time_us: at.f64_bits(toks[4], "pass time")?,
        gated: flag(toks[5]),
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
    let h = &c.heuristic;
    write_sres(out, "heur", h.occupancy, h.length, h.prp, &h.schedule)?;
    let Some(a) = &c.aco else {
        return writeln!(out, "aco none");
    };
    let (p, ops, t) = (a.prp, a.ops, a.time_us.to_bits());
    let (occ, len) = (a.occupancy, a.length);
    writeln!(out, "aco some {} {} {occ} {len} {ops} {t:x}", p[0], p[1])?;
    // The schedule line repeats the `aco some` claims (ignored on read).
    write_sres(out, "asched", occ, len, p, &a.schedule)?;
    let i = &a.initial;
    write_sres(out, "initial", i.occupancy, i.length, i.prp, &i.schedule)?;
    write_pass(out, &a.pass1)?;
    write_pass(out, &a.pass2)
}

/// Reads an entry's `comp` line and the result lines under it. Each line's
/// fields are parsed before the next line is read.
fn read_comp(r: &mut Records<impl BufRead>, n: usize) -> io::Result<RegionCompilation> {
    let line = r.expect_line("comp")?;
    let at = line.at;
    let toks = at.fields(line.after("comp ")?, 8, "comp")?;
    let size = at.num(toks[0], "size")?;
    let choice = [FinalChoice::Heuristic, FinalChoice::Aco][usize::from(flag(toks[1]))];
    let occupancy = at.num(toks[2], "occupancy")?;
    let length = at.num(toks[3], "length")?;
    let sched_time_us = at.f64_bits(toks[7], "sched time")?;
    let (pass1_processed, pass2_processed, reverted) =
        (flag(toks[4]), flag(toks[5]), flag(toks[6]));
    let heuristic = read_sres(r.expect_line("heuristic")?, "heur ", n)?;
    let line = r.expect_line("aco")?;
    let aco = if line.after("aco ")?.trim() == "none" {
        None
    } else {
        let at = line.at;
        let toks = at.fields(line.after("aco some ")?, 6, "aco")?;
        let int = |s: &str| at.num::<u32>(s, "integer");
        let (prp, occupancy, length) =
            ([int(toks[0])?, int(toks[1])?], int(toks[2])?, int(toks[3])?);
        let ops = at.num(toks[4], "ops")?;
        let time_us = at.f64_bits(toks[5], "aco time")?;
        let asched = read_sres(r.expect_line("aco schedule")?, "asched ", n)?;
        Some(AcoResult {
            schedule: asched.schedule,
            order: asched.order,
            prp,
            occupancy,
            length,
            initial: read_sres(r.expect_line("initial")?, "initial ", n)?,
            pass1: read_pass(r.expect_line("pass1")?)?,
            pass2: read_pass(r.expect_line("pass2")?)?,
            ops,
            time_us,
        })
    };
    Ok(RegionCompilation {
        size,
        heuristic,
        aco,
        choice,
        occupancy,
        length,
        pass1_processed,
        pass2_processed,
        sched_time_us,
        reverted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::compile_region;
    use workloads::{Suite, SuiteConfig};

    impl Shard {
        /// Uncapped insert: tests poke entries past the capacity discipline.
        fn insert(&self, key: u64, entry: Arc<CacheEntry>) {
            self.insert_capped(key, entry, usize::MAX);
        }
    }

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
        let members: Vec<&Ddg> = group.iter().map(|&ri| &kernel.regions[ri]).collect();
        let fresh = compile_batch_group(&members, &occ, &c);
        let miss = cache.compile_group(&members, &occ, &c);
        let hit = cache.compile_group(&members, &occ, &c);
        for (f, m) in [(&fresh, &miss), (&fresh, &hit)] {
            assert_eq!(f.len(), m.len());
            for ((cfg_a, comp_a), (cfg_b, comp_b)) in f.iter().zip(m.iter()) {
                assert_eq!(cfg_a, cfg_b, "split-colony config must be reconstructed");
                assert!(comps_eq(comp_a, comp_b));
            }
        }
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    fn seed_99(c: &PipelineConfig) -> PipelineConfig {
        PipelineConfig {
            aco: AcoConfig { seed: 99, ..c.aco },
            ..*c
        }
    }

    fn aco_order(r: &RegionCompilation) -> Option<Vec<InstrId>> {
        r.aco.as_ref().map(|a| a.order.clone())
    }

    /// The equality gate: an entry compiled under another configuration and
    /// stored under this one's key holds valid schedules of the same region,
    /// so re-certification passes it and only `inputs` equality keeps it out.
    #[test]
    fn a_solo_entry_of_another_seed_is_bypassed() {
        let occ = machine_model::OccupancyModel::vega_like();
        let c = cfg(SchedulerKind::ParallelAco);
        let other = seed_99(&c);
        let ddg = sample_ddg(7);
        let want = compile_region(&ddg, &occ, &c);
        let planted = compile_region(&ddg, &occ, &other);
        assert_ne!(
            aco_order(&want),
            aco_order(&planted),
            "the seeds must differ"
        );
        let cache = ScheduleCache::new();
        let key = solo_key(&ddg, &occ, &c);
        let entry = solo_entry(&ddg, &occ, &other, &planted);
        cache.shard(key).insert(key, Arc::new(entry));
        assert!(comps_eq(&want, &cache.compile_solo(&ddg, &occ, &c)));
        assert_eq!((cache.stats().hits, cache.stats().bypasses), (0, 1));
    }

    /// The same gate on a batch group's entry.
    #[test]
    fn a_group_entry_of_another_seed_is_bypassed() {
        let occ = machine_model::OccupancyModel::vega_like();
        let mut c = cfg(SchedulerKind::BatchedParallelAco);
        c.aco.blocks = 16;
        let other = seed_99(&c);
        let suite = Suite::generate(&SuiteConfig::scaled(7, 0.008));
        let members: Vec<&Ddg> = suite.kernels[0].regions.iter().take(3).collect();
        assert!(members.len() >= 2, "need a real group");
        let want = compile_batch_group(&members, &occ, &c);
        let planted = compile_batch_group(&members, &occ, &other);
        let orders = |g: &[(PipelineConfig, RegionCompilation)]| -> Vec<_> {
            g.iter().map(|(_, r)| aco_order(r)).collect()
        };
        assert_ne!(orders(&want), orders(&planted), "the seeds must differ");
        let cache = ScheduleCache::new();
        let key = group_key(&members, &occ, &c);
        let entry = CacheEntry {
            inputs: inputs(&other, &occ),
            stamp: AtomicU64::new(0),
            payload: Payload::Group {
                ddgs: members.iter().copied().map(PackedDdg::new).collect(),
                comps: planted.into_iter().map(|(_, comp)| comp).collect(),
            },
        };
        cache.shard(key).insert(key, Arc::new(entry));
        let got = cache.compile_group(&members, &occ, &c);
        assert_eq!(got.len(), want.len());
        for ((cfg_a, comp_a), (cfg_b, comp_b)) in want.iter().zip(&got) {
            assert_eq!(cfg_a, cfg_b);
            assert!(comps_eq(comp_a, comp_b));
        }
        assert_eq!((cache.stats().hits, cache.stats().bypasses), (0, 1));
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

    /// Every rejection is `InvalidData` naming the line it is about.
    #[test]
    fn load_rejects_malformed_files() {
        for (text, want) in [
            ("not a cache\n", "line 1: not a schedcache v1 file"),
            (
                "schedcache v1\nkey 0x12\ngarbage\n",
                "line 3: expected `cfg ...`, got `garbage`",
            ),
            (
                "schedcache v1\nkey 0xg\n",
                "line 2: bad key `0xg`: invalid digit found in string",
            ),
            // An empty file is missing even the header.
            ("", "line 1: truncated file: missing header"),
            // A well-formed body without the `eof` trailer is a truncation.
            (
                "schedcache v1\n\n",
                "line 3: truncated file: missing `eof` trailer",
            ),
            (
                "schedcache v1\neof 3\n",
                "line 2: `eof` trailer claims 3 entries, file holds 0",
            ),
            (
                "schedcache v1\neof 0\n\nkey 0x1\n",
                "line 4: content after `eof` trailer",
            ),
        ] {
            let err = ScheduleCache::load_from_reader(text.as_bytes())
                .err()
                .unwrap_or_else(|| panic!("{text:?} loaded"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{text:?}");
            assert_eq!(err.to_string(), format!("schedcache: {want}"), "{text:?}");
        }
        let err = ScheduleCache::load_from_reader(&b"schedcache v1\neof 0\n\xff\n"[..]).err();
        assert_eq!(err.unwrap().to_string(), "schedcache: line 3: not UTF-8");
        // The empty cache itself round-trips, CRLF, blank lines and all.
        for text in ["schedcache v1\neof 0\n", "schedcache v1\r\n\r\neof 0\r\n\n"] {
            assert_eq!(
                ScheduleCache::load_from_reader(text.as_bytes())
                    .unwrap()
                    .len(),
                0
            );
        }
    }

    /// A saved file of two BaseAmd entries and its lines.
    fn saved_lines() -> Vec<String> {
        let occ = machine_model::OccupancyModel::vega_like();
        let c = cfg(SchedulerKind::BaseAmd);
        let cache = ScheduleCache::new();
        cache.compile_solo(&sample_ddg(5), &occ, &c);
        cache.compile_solo(&sample_ddg(6), &occ, &c);
        let mut bytes = Vec::new();
        cache.save_to_writer(&mut bytes).unwrap();
        String::from_utf8(bytes)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    fn load_lines(lines: &[String]) -> io::Result<ScheduleCache> {
        ScheduleCache::load_from_reader((lines.join("\n") + "\n").as_bytes())
    }

    /// A value that does not fit its field is rejected where it stands: it
    /// used to be parsed as a `u64` and cast, so `blocks` 4294967301 loaded
    /// as 5 and an occupancy claim of 4294967297 as 1.
    #[test]
    fn a_value_past_its_field_width_is_a_positioned_error() {
        let lines = saved_lines();
        assert!(load_lines(&lines).is_ok());
        let cfg_at = lines.iter().position(|l| l.starts_with("cfg ")).unwrap();
        let comp_at = lines.iter().position(|l| l.starts_with("comp ")).unwrap();
        for (at, field, value, what) in [
            (cfg_at, 6, "4294967301", "cfg integer"),
            (cfg_at, 2, "4294967296", "cfg integer"),
            (cfg_at, 37, "4294967297", "cfg integer"),
            (cfg_at, 30, "4294967297", "cfg integer"),
            (comp_at, 3, "4294967297", "occupancy"),
            (comp_at, 4, "4294967296", "length"),
        ] {
            let mut edited = lines.clone();
            let mut toks: Vec<&str> = lines[at].split(' ').collect();
            toks[field] = value;
            edited[at] = toks.join(" ");
            let err = load_lines(&edited)
                .err()
                .expect("a wide value must not load");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            let want = format!("schedcache: line {}: bad {what} `{value}`", at + 1);
            assert!(msg.starts_with(&want), "{msg} vs {want}");
        }
        // The cap's own range check names its line too.
        let mut edited = lines.clone();
        let mut toks: Vec<&str> = lines[cfg_at].split(' ').collect();
        toks[30] = "-2";
        edited[cfg_at] = toks.join(" ");
        let err = load_lines(&edited).err().unwrap();
        assert_eq!(
            err.to_string(),
            format!("schedcache: line {}: bad occupancy cap `-2`", cfg_at + 1)
        );
    }

    /// A repeated key used to replace the earlier entry while the `eof`
    /// count counted both, so the file loaded and saved back one entry
    /// short. It is now an error at the second key.
    /// A `cfg` line gives back the configuration it was written from. Every
    /// field is off its `paper()` value and every word that is not a flag
    /// is distinct, so two fields that share a slot cannot both survive;
    /// the flags, which can only be 0 or 1, are set back one at a time.
    #[test]
    fn a_cfg_line_round_trips_every_field() {
        let base: Inputs = (
            SchedulerKind::BatchedParallelAco,
            AcoConfig {
                seed: 103,
                sequential_ants: 104,
                blocks: 105,
                threads_per_block: 106,
                decay: 0.5,
                q0: 0.75,
                beta: 3.5,
                initial_pheromone: 2.5,
                deposit: 1.5,
                tau_min: 0.125,
                tau_max: 16.0,
                termination: Termination {
                    small: 114,
                    medium: 115,
                    large: 116,
                    max_iterations: 117,
                },
                heuristic: Heuristic::AmdMaxOccupancy,
                optional_stall_budget: 0.625,
                tuning: GpuTuning {
                    layout: MemLayout::Aos,
                    preallocate: false,
                    batched_transfer: false,
                    tight_ready_ub: false,
                    wavefront_level_choice: false,
                    stall_wavefront_fraction: 0.375,
                    early_wavefront_termination: false,
                    per_wavefront_heuristics: false,
                },
                pass2_gate_cycles: 128,
                occupancy_cap: Some(129),
            },
            (101, 102),
            OccupancyModel::from_signature([131, 132, 133, 134, 135, 136, 137]),
        );
        let paper = inputs(
            &PipelineConfig::paper(SchedulerKind::ParallelAco, 0),
            &OccupancyModel::vega_like(),
        );
        const FLAGS: [usize; 7] = [20, 21, 22, 23, 24, 26, 27];
        let (words, paper_words) = (config_words(&base), config_words(&paper));
        assert!(words.iter().zip(&paper_words).all(|(w, p)| w != p));
        let others: HashSet<u64> = (0..words.len())
            .filter(|i| !FLAGS.contains(i))
            .map(|i| words[i])
            .collect();
        assert_eq!(others.len(), words.len() - FLAGS.len());

        let flag_backs: [fn(&mut GpuTuning); 7] = [
            |t| t.layout = MemLayout::Soa,
            |t| t.preallocate = true,
            |t| t.batched_transfer = true,
            |t| t.tight_ready_ub = true,
            |t| t.wavefront_level_choice = true,
            |t| t.early_wavefront_termination = true,
            |t| t.per_wavefront_heuristics = true,
        ];
        let variants = flag_backs.iter().map(|set| {
            let mut v = base;
            set(&mut v.1.tuning);
            v
        });
        for want in std::iter::once(base).chain(variants) {
            let mut line = Vec::new();
            write_cfg_line(&mut line, &want).unwrap();
            let mut r = Records::new(&line[..], "schedcache");
            let got = parse_cfg_line(r.expect_line("cfg").unwrap()).unwrap();
            assert_eq!(got, want, "{}", String::from_utf8_lossy(&line));
        }
    }

    #[test]
    fn a_repeated_key_is_a_positioned_error() {
        let lines = saved_lines();
        let second = lines.iter().rposition(|l| l.starts_with("key ")).unwrap();
        let eof = lines.len() - 1;
        let mut edited = lines[..second].to_vec();
        edited.extend_from_slice(&lines[..second][1..]);
        edited.push("eof 2".into());
        assert_eq!(lines[eof], "eof 2");
        let err = load_lines(&edited)
            .err()
            .expect("a repeated key must not load");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            format!(
                "schedcache: line {}: repeated key {}",
                second + 1,
                &lines[1][4..]
            )
        );
    }

    /// An error inside a `ddg` block keeps the text IR's column and gets
    /// the file's line; a region-wide error (a cycle) names the `ddg` line.
    #[test]
    fn a_ddg_block_error_names_the_file_line_and_column() {
        let lines = saved_lines();
        let ddg_at = lines.iter().position(|l| l.starts_with("ddg ")).unwrap();
        let mut edited = lines.clone();
        edited[ddg_at + 2] = "instr a defs q1".into();
        let err = load_lines(&edited).err().unwrap();
        assert_eq!(
            err.to_string(),
            format!(
                "schedcache: line {}, column 14: bad register class in `q1` (expected v<N> or s<N>)",
                ddg_at + 3
            )
        );
        let n: usize = lines[ddg_at][4..].parse().unwrap();
        let mut edited = lines.clone();
        edited[ddg_at] = format!("ddg {}", n + 2);
        edited.splice(
            ddg_at + 1 + n..ddg_at + 1 + n,
            ["edge 0 1 1".into(), "edge 1 0 1".into()],
        );
        let err = load_lines(&edited).err().unwrap();
        let msg = err.to_string();
        assert!(
            msg.starts_with(&format!("schedcache: line {}: ", ddg_at + 1)),
            "{msg}"
        );
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
            assert!(err.to_string().starts_with("schedcache: line "), "{err}");
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

    /// A panic while a shard's write guard is held poisons that lock. Here
    /// it strikes mid-insert: an entry is in the map, the eviction that
    /// would restore the cap has not run. The cache keeps serving the
    /// shard: the entry inserted before the panic still hits, an insert
    /// evicts back down to the cap, and `len` and saving read through the
    /// poison.
    #[test]
    fn a_shard_poisoned_mid_insert_keeps_serving() {
        let occ = machine_model::OccupancyModel::vega_like();
        let c = cfg(SchedulerKind::BaseAmd);
        let cache = ScheduleCache::with_capacity(SHARD_COUNT); // one per shard
        let before = sample_ddg(41);
        let fresh = cache.compile_solo(&before, &occ, &c);
        let key = solo_key(&before, &occ, &c);
        let shard = cache.shard(key);
        let stray = sample_ddg(42);
        let stray_entry = solo_entry(&stray, &occ, &c, &compile_region(&stray, &occ, &c));
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let mut map = shard.map.write().unwrap();
                // Same high bits, so the same shard: the cap is now exceeded.
                map.insert(key ^ 1, Arc::new(stray_entry));
                panic!("injected panic mid-insert");
            })
            .join()
        });
        assert!(panicked.is_err() && shard.map.is_poisoned());
        assert_eq!(cache.len(), 2, "the half-done insert is visible");

        let hit = cache
            .lookup_solo(&before, &occ, &c)
            .expect("stored before the panic");
        assert!(comps_eq(&fresh, &hit));
        assert!(comps_eq(&fresh, &cache.compile_solo(&before, &occ, &c)));
        assert_eq!((cache.stats().hits, cache.stats().misses), (2, 1));

        // A region of the poisoned shard: its insert evicts both stalest.
        let other = (100..)
            .map(sample_ddg)
            .find(|d| {
                let k = solo_key(d, &occ, &c);
                k != key && std::ptr::eq(cache.shard(k), shard)
            })
            .expect("some region keys into the shard");
        let compiled = cache.compile_solo(&other, &occ, &c);
        assert!(comps_eq(&compile_region(&other, &occ, &c), &compiled));
        assert_eq!((cache.stats().inserts, cache.stats().evictions), (2, 2));
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup_solo(&other, &occ, &c).is_some());

        let mut saved = Vec::new();
        cache
            .save_to_writer(&mut saved)
            .expect("saving reads through the poison");
        let loaded = ScheduleCache::load_from_reader(&saved[..]).expect("a saved cache loads");
        assert_eq!(loaded.len(), 1);
        assert!(comps_eq(
            &compiled,
            &loaded.lookup_solo(&other, &occ, &c).unwrap()
        ));
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
