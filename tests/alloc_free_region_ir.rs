//! A region costs O(1) allocations whatever its size: a counting global
//! allocator watches `textir::parse`, `Ddg::clone`, dropping a `Ddg` and
//! `textir::to_text` on a 20- and a 400-instruction region and must see the
//! same small number of events on both; every buffer of a parsed, cloned or
//! generated region is exact-fit (the bytes it holds are the bytes a clone
//! asks for). The same contract one level down from
//! `alloc_free_tracker.rs`: there the hot loop sees zero events, here the
//! front door sees a constant.
//!
//! The schedule cache's `PackedDdg` is held to one block per region and
//! none per comparison.
//!
//! Also here because it is about what the flat layout must not move: a
//! `schedcache v1` file written by the commit before the flat IR still
//! loads, saves back byte for byte, and answers every region it holds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;
use std::process::Command;

use gpu_aco::bench_workloads::{mutate, patterns, Suite, SuiteConfig};
use gpu_aco::compile::ScheduleCache;
use gpu_aco::ir::{textir, Ddg, PackedDdg};

/// What one thread asked of the allocator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    allocs: u64,
    reallocs: u64,
    frees: u64,
    /// Bytes requested minus bytes given back.
    net_bytes: i64,
}

thread_local! {
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts { allocs: 0, reallocs: 0, frees: 0, net_bytes: 0 })
    };
}

fn record(update: impl FnOnce(&mut Counts)) {
    COUNTS.with(|c| {
        let mut counts = c.get();
        update(&mut counts);
        c.set(counts);
    });
}

/// Counts, per thread, every allocation, reallocation and free, and the
/// bytes they hold.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(|c| (c.allocs, c.net_bytes) = (c.allocs + 1, c.net_bytes + layout.size() as i64));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(|c| (c.allocs, c.net_bytes) = (c.allocs + 1, c.net_bytes + layout.size() as i64));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size as i64 - layout.size() as i64;
        record(|c| (c.reallocs, c.net_bytes) = (c.reallocs + 1, c.net_bytes + grown));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(|c| (c.frees, c.net_bytes) = (c.frees + 1, c.net_bytes - layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f`; returns its result and what it asked of the allocator.
fn measure<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let before = COUNTS.with(Cell::get);
    let out = f();
    let after = COUNTS.with(Cell::get);
    let counts = Counts {
        allocs: after.allocs - before.allocs,
        reallocs: after.reallocs - before.reallocs,
        frees: after.frees - before.frees,
        net_bytes: after.net_bytes - before.net_bytes,
    };
    (out, counts)
}

/// The buffers of a `Ddg`: three of the instruction table (names,
/// registers, end offsets), then the offsets (successor, predecessor,
/// `pred_counts`), the orders (`topo_order`, roots) and the edges
/// (successor rows, predecessor rows).
const DDG_BUFFERS: u64 = 6;

/// Whether every buffer of `ddg` has `capacity == len`, given the bytes
/// that building it left allocated: a clone allocates `len` elements per
/// buffer and no buffer can hold fewer, so equal totals mean equal buffers.
fn assert_exact_fit(ddg: &Ddg, built: Counts, what: &str) -> Counts {
    let (copy, clone) = measure(|| ddg.clone());
    assert_eq!(clone.allocs, DDG_BUFFERS, "{what}: one block per buffer");
    assert_eq!(
        built.net_bytes, clone.net_bytes,
        "{what}: growth slack survives"
    );
    drop(copy);
    clone
}

/// Allocator events of the four operations on one region's text.
#[derive(Debug, PartialEq, Eq)]
struct Events {
    parse: [u64; 3],
    clone: [u64; 3],
    drop: [u64; 3],
    print: [u64; 3],
}

fn events(c: Counts) -> [u64; 3] {
    [c.allocs, c.reallocs, c.frees]
}

fn events_of(target: usize, seed: u64) -> Events {
    let (generated, built) = measure(|| patterns::sized(target, seed));
    assert_exact_fit(&generated, built, "generated");
    let text = textir::to_text(&generated);

    let (ddg, parse) = measure(|| textir::parse(&text).expect("printed text parses"));
    assert!(ddg.len() >= target * 4 / 5, "{target}: {}", ddg.len());
    let clone = assert_exact_fit(&ddg, parse, "parsed");
    let copy = ddg.clone();
    let ((), drop) = measure(move || drop(copy));
    assert_eq!(drop.net_bytes, -parse.net_bytes);
    let (printed, print) = measure(|| textir::to_text(&ddg));
    assert_eq!(printed, text);
    assert_eq!(
        printed.len(),
        printed.capacity(),
        "printed text is exact-fit"
    );
    Events {
        parse: events(parse),
        clone: events(clone),
        drop: events(drop),
        print: events(print),
    }
}

#[test]
fn a_region_is_a_constant_number_of_allocations_at_any_size() {
    let small = events_of(20, 3);
    assert_eq!(small, events_of(20, 11));
    assert_eq!(
        small,
        events_of(400, 3),
        "events must not grow with the region"
    );
    // One block per buffer to copy, one free per buffer to drop, nothing else.
    assert_eq!(small.clone, [DDG_BUFFERS, 0, 0]);
    assert_eq!(small.drop, [0, 0, DDG_BUFFERS]);
    // One reserved `String`, shrunk once.
    assert_eq!(small.print, [1, 1, 0]);
    // Parsing: the six buffers — the table's three reserved from a line
    // and comma count and shrunk once — plus spans, raw edges, the
    // builder's edge list and the sort's scratch, all freed.
    let [allocs, reallocs, frees] = small.parse;
    assert!(allocs + reallocs <= 20, "{small:?}");
    assert_eq!(
        allocs - frees,
        DDG_BUFFERS,
        "only the region survives: {small:?}"
    );
}

/// What the `frontend-large` corpus costs per instruction: its regions'
/// heap blocks plus their inline `Ddg`s, measured on a copy of every
/// region so that nothing but the layout counts.
#[test]
fn the_frontend_corpus_costs_at_most_63_bytes_per_instruction() {
    let suite = Suite::generate(&SuiteConfig::scaled(5, 0.15));
    let regions: Vec<&Ddg> = suite.regions().map(|(_, _, ddg)| ddg).collect();
    let instrs: usize = regions.iter().map(|ddg| ddg.len()).sum();
    let (copies, copied) = measure(|| regions.iter().map(|&ddg| ddg.clone()).collect::<Vec<_>>());
    assert_eq!(copies.len(), copies.capacity());
    let per_instr = copied.net_bytes as f64 / instrs as f64;
    println!(
        "{} regions, {instrs} instructions: {per_instr:.1} B/instr",
        regions.len()
    );
    // Measured 57.3 (69.7 with each dependence also kept as a predecessor
    // row; a `Ddg` of ten `Vec`s with 8-byte registers read 87.1); the
    // bound is that plus 10%.
    assert!(per_instr <= 63.0, "{per_instr:.1} B/instr");
}

/// The schedule cache's copy of a region is one allocation at any size,
/// and its equality gate allocates nothing, on a match or a mismatch.
#[test]
fn a_packed_region_is_one_allocation_and_matching_it_allocates_nothing() {
    for target in [20, 400] {
        let ddg = patterns::sized(target, 5);
        let other = mutate::with_orphan_node(&ddg).0;
        let (packed, pack) = measure(|| PackedDdg::new(&ddg));
        assert_eq!(events(pack), [1, 0, 0], "{target}: one block");
        let (answers, matching) = measure(|| (packed.matches(&ddg), packed.matches(&other)));
        assert_eq!(answers, (true, false));
        assert_eq!(events(matching), [0, 0, 0], "{target}: matching allocates");
        let ((), dropped) = measure(move || drop(packed));
        assert_eq!(events(dropped), [0, 0, 1]);
    }
}

#[test]
fn generated_and_mutated_regions_of_every_shape_are_exact_fit() {
    for seed in 0..4 {
        type Shape = fn(u64) -> Ddg;
        let shapes: [(&str, Shape); 6] = [
            ("reduction", |s| patterns::reduction(24, s)),
            ("scan", |s| patterns::scan(12, s)),
            ("transform_chain", |s| patterns::transform_chain(5, 6, s)),
            ("random_layered", |s| patterns::random_layered(6, 7, s)),
            ("orphan", |s| {
                mutate::with_orphan_node(&patterns::sized(50, s)).0
            }),
            ("redundant edge", |s| {
                let base = patterns::reduction(16, s);
                mutate::with_redundant_edge(&base, s)
                    .expect("reductions have chains")
                    .0
            }),
        ];
        for (what, shape) in shapes {
            let (ddg, built) = measure(|| shape(seed));
            assert_exact_fit(&ddg, built, what);
        }
    }
}

fn cli(args: &[&str], dir: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_gpu-aco-cli"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("running gpu-aco-cli")
}

#[test]
fn a_pre_flat_ir_schedcache_file_loads_then_misses_under_the_new_bound() {
    // Written by `gpu-aco-cli schedule <region> <flags> --cache` at a commit
    // before the flat IR, one entry per region file below, under the
    // earlier length bound.
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let written = std::fs::read(fixtures.join("parent_schedcache_v1.cache")).unwrap();

    // Same format, same keys, same printed regions: a load and a save give
    // the file back.
    let cache = ScheduleCache::load_from_reader(&written[..]).expect("the parent's file loads");
    assert_eq!(cache.len(), 3);
    let mut saved = Vec::new();
    cache.save_to_writer(&mut saved).unwrap();
    assert!(
        saved == written,
        "load + save must reproduce the parent's bytes"
    );

    let dir = std::env::temp_dir().join(format!("gpu-aco-flat-ir-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache_file = dir.join("sched.cache");
    std::fs::write(&cache_file, &written).unwrap();
    let cache_file = cache_file.to_string_lossy().into_owned();
    let runs = [
        ("parent_region_a.txt", &["--blocks", "4"][..]),
        ("parent_region_b.txt", &["--scheduler", "amd"][..]),
        (
            "parent_region_c.txt",
            &["--scheduler", "seq", "--seed", "7"][..],
        ),
    ];
    // The entries hold pass statistics of the earlier bound, and the
    // bound's version word in the key keeps them out: each region misses,
    // not bypasses, and prints what an uncached run prints. The second
    // round reads the file the first saved and hits.
    for expected in [
        "cache: 0 hits, 1 misses, 1 inserts, 0 bypasses",
        "cache: 1 hits, 0 misses, 0 inserts, 0 bypasses",
    ] {
        for (region, flags) in runs {
            let region = fixtures.join(region).to_string_lossy().into_owned();
            let mut args = vec!["schedule", &region];
            args.extend_from_slice(flags);
            let uncached = cli(&args, &dir);
            args.extend_from_slice(&["--cache", &cache_file, "--cache-stats"]);
            let out = cli(&args, &dir);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{region}: {stderr}");
            assert!(stderr.contains(expected), "{region}: {stderr}");
            assert!(
                uncached.status.success() && out.stdout == uncached.stdout,
                "{region}"
            );
        }
    }
    // Hits insert nothing: the file the second round saved holds the
    // parent's three entries and this build's three.
    let resaved = ScheduleCache::load_from(Path::new(&cache_file)).unwrap();
    assert_eq!(resaved.len(), 6);
    std::fs::remove_dir_all(&dir).unwrap();
}
