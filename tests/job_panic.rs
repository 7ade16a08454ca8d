//! A job that panics on a pool worker must fail the suite call, not hang it.
//!
//! Before the pool cancelled its slot table on unwind, the panicking job's
//! slot was never published and the in-order consumer waited on it forever
//! at `host_threads > 1`; the panic was only ever reported inline.

use machine_model::OccupancyModel;
use pipeline::host_pool::{plan_jobs, run_jobs_streaming, RegionJob};
use pipeline::{PipelineConfig, SchedulerKind};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;
use workloads::{Suite, SuiteConfig};

#[test]
fn a_job_that_panics_on_a_pool_worker_fails_the_call() {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let suite = Suite::generate(&SuiteConfig::scaled(7, 0.008));
        let occ = OccupancyModel::vega_like();
        let cfg = PipelineConfig::paper(SchedulerKind::BaseAmd, 0);
        let mut jobs = plan_jobs(&suite, &cfg);
        // A region index no kernel has: `run_job` panics on the lookup.
        jobs[3] = RegionJob::Solo {
            kernel: 0,
            region: 1 << 30,
        };
        let mut consumed = Vec::new();
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_jobs_streaming(&suite, &occ, &cfg, &jobs, 2, None, |i, _, _| {
                consumed.push(i)
            })
        }));
        let _ = tx.send((result.is_err(), consumed));
    });
    let (panicked, consumed) = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("a panicking job must fail the call, not hang it");
    assert!(panicked, "the worker's panic is re-raised on the caller");
    assert!(consumed.iter().copied().eq(0..consumed.len()));
    assert!(consumed.len() <= 3, "slot 3 was never published");
}
