//! Pins what the schedule cache holds per stored instruction. Each entry
//! keeps its region as a `PackedDdg` (one allocation) next to its stored
//! compilation; this fill measured 44.2 heap bytes an instruction, all of
//! the entry counted, where a full `Ddg` clone per entry measured 109.7.
//! The bound is the measured value plus 25%, so storing a `Ddg` clone
//! again fails here.
//!
//! Live heap bytes are counted per thread: the cache is filled on the test
//! thread (`BaseAmd` never starts a pool), so everything it still holds
//! afterwards was allocated, and not freed, here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use machine_model::OccupancyModel;
use pipeline::{PipelineConfig, ScheduleCache, SchedulerKind};
use workloads::{Suite, SuiteConfig};

thread_local! {
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Tracks the bytes this thread has allocated and not yet freed.
struct CountingAlloc;

fn add(bytes: usize, sign: i64) {
    // `try_with`: a thread's own teardown may free after its slot is gone.
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + sign * bytes as i64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size(), 1);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size(), 1);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(layout.size(), -1);
        add(new_size, 1);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(layout.size(), -1);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap bytes per stored instruction measured when the bound was set.
const MEASURED: f64 = 44.2;

#[test]
fn a_cached_instruction_costs_a_bounded_number_of_heap_bytes() {
    let suite = Suite::generate(&SuiteConfig::scaled(3, 0.02));
    let occ = OccupancyModel::vega_like();
    let cfg = PipelineConfig::paper(SchedulerKind::BaseAmd, 0);
    let cache = ScheduleCache::new();
    let before = LIVE_BYTES.with(Cell::get);
    let mut stored_instrs = 0;
    for (_, _, ddg) in suite.regions() {
        let inserts = cache.stats().inserts;
        cache.compile_solo(ddg, &occ, &cfg);
        if cache.stats().inserts > inserts {
            stored_instrs += ddg.len();
        }
    }
    let held = LIVE_BYTES.with(Cell::get) - before;
    let entries = cache.len();
    assert!(
        entries > 100 && entries < suite.region_count(),
        "{entries} entries from {} regions: the suite must repeat content and fill the cache",
        suite.region_count()
    );
    let per_instr = held as f64 / stored_instrs as f64;
    println!("{entries} entries, {stored_instrs} instructions, {held} B: {per_instr:.1} B/instr");
    assert!(
        per_instr <= MEASURED * 1.25,
        "{per_instr:.1} heap bytes per cached instruction, bound {:.1}",
        MEASURED * 1.25
    );
}
