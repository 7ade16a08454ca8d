//! The pressure tracker's what-if cache is maintained without touching the
//! allocator: a counting global allocator watches `issue` (with every
//! toucher refresh it triggers), `reset` and `copy_from` and must see
//! **zero** events. The ant-level and job-level versions of this contract
//! (`crates/aco/tests/alloc_free_hot_loop.rs`,
//! `crates/pipeline/tests/alloc_free_run_job.rs`) rest on it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gpu_aco::bench_workloads::patterns;
use gpu_aco::pressure::{PressureTracker, RegUniverse};

thread_local! {
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every allocation and reallocation on this thread.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many allocator events it caused.
fn count_events(f: impl FnOnce()) -> u64 {
    let before = ALLOC_EVENTS.with(Cell::get);
    f();
    ALLOC_EVENTS.with(Cell::get) - before
}

#[test]
fn issue_reset_and_copy_from_allocate_nothing() {
    for (size, seed) in [(40, 3), (120, 13), (201, 201)] {
        let ddg = patterns::sized(size, seed);
        let order = ddg.topo_order();
        let universe = RegUniverse::new(&ddg);
        // The first tracker builds the universe's lazy side tables.
        let mut a = PressureTracker::new(&universe);
        let mut b = PressureTracker::new(&universe);
        let events = count_events(|| {
            for &id in order {
                a.issue(id);
            }
            a.reset();
            let last = *order.last().expect("generated regions are not empty");
            for &id in &order[..order.len() / 2] {
                a.issue(id);
                let _ = (a.peak_after(last), a.kills(last));
            }
            b.copy_from(&a);
            for &id in &order[order.len() / 2..] {
                b.issue(id);
            }
            b.reset();
        });
        assert_eq!(events, 0, "{size}-instruction region hit the allocator");
        assert_eq!(b.peak(), universe.live_in());
    }
}
