//! The daemon's observability counters, served by the `stats` request.
//!
//! Everything is a monotone `AtomicU64` bumped with relaxed ordering —
//! the counters are diagnostics, not synchronization — and rendered into
//! the `stats` payload together with the shared cache's own
//! hit/miss/insert/bypass counters and the planner's live queue depth.
//! Suite requests additionally account wall-clock per phase: the
//! plan/jobs/merge(+overlap) split [`pipeline::SuiteWallclock`] measures
//! for the run; `suite_overlap_us` is the slice of merge time the
//! streaming consumer hid under still-running jobs.

use pipeline::CacheStats;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-lifetime serve counters. All fields monotone.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Requests read off connections (including ones later rejected).
    pub received: AtomicU64,
    /// Requests answered with `ok`.
    pub served: AtomicU64,
    /// Requests answered with `err`.
    pub errors: AtomicU64,
    /// Requests rejected with `overloaded` by admission control.
    pub overloaded: AtomicU64,
    /// Requests that out-waited their deadline in the queue.
    pub expired: AtomicU64,
    /// Explicit `flush` persists performed.
    pub flushes: AtomicU64,
    /// `schedule` requests answered with a compilation: compiled by a
    /// worker, or found in the cache at admission.
    pub regions: AtomicU64,
    /// Suite requests completed.
    pub suites: AtomicU64,
    /// Total queue wait across answered requests, microseconds: one wait
    /// per `schedule` or `suite`. An admission hit never queues and adds 0.
    pub queue_wait_us: AtomicU64,
    /// Total service time across answered requests, microseconds: in a
    /// worker, or from lookup to send for an admission hit.
    pub service_us: AtomicU64,
    /// Suite phase: planning (generate + plan_jobs), microseconds.
    pub suite_plan_us: AtomicU64,
    /// Suite phase: the job phase's wall span ([`pipeline::SuiteWallclock`]'s
    /// `jobs_s`), microseconds — not the summed time of the jobs.
    pub suite_jobs_us: AtomicU64,
    /// Suite phase: canonical merge, microseconds.
    pub suite_merge_us: AtomicU64,
    /// Portion of `suite_merge_us` that ran while suite jobs were still
    /// in flight — merge latency hidden by the streaming consumer.
    pub suite_overlap_us: AtomicU64,
}

impl ServeStats {
    /// Adds `n` to a counter.
    pub fn bump(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Renders the `stats` response payload.
    pub fn report(&self, cache: &CacheStats, queued: usize) -> String {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let avg = |total: u64, n: u64| total.checked_div(n).unwrap_or(0);
        let work_items = get(&self.regions) + get(&self.suites);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "requests: {} received, {} served, {} errors, {} overloaded, {} expired, {} flushes",
            get(&self.received),
            get(&self.served),
            get(&self.errors),
            get(&self.overloaded),
            get(&self.expired),
            get(&self.flushes),
        );
        let _ = writeln!(
            out,
            "cache: {} hits, {} misses, {} inserts, {} bypasses, {} evictions",
            cache.hits, cache.misses, cache.inserts, cache.bypasses, cache.evictions
        );
        let _ = writeln!(
            out,
            "queue: {queued} queued, {} regions compiled, {} suites",
            get(&self.regions),
            get(&self.suites),
        );
        let _ = writeln!(
            out,
            "latency_us: queue_wait {} (avg {}), service {} (avg {})",
            get(&self.queue_wait_us),
            avg(get(&self.queue_wait_us), work_items),
            get(&self.service_us),
            avg(get(&self.service_us), work_items),
        );
        let _ = writeln!(
            out,
            "suite_phases_us: plan {}, jobs {}, merge {} (overlapped {})",
            get(&self.suite_plan_us),
            get(&self.suite_jobs_us),
            get(&self.suite_merge_us),
            get(&self.suite_overlap_us),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_all_sections_with_averages() {
        let s = ServeStats::default();
        ServeStats::bump(&s.received, 5);
        ServeStats::bump(&s.served, 4);
        ServeStats::bump(&s.overloaded, 1);
        ServeStats::bump(&s.regions, 4);
        ServeStats::bump(&s.queue_wait_us, 400);
        ServeStats::bump(&s.service_us, 4000);
        let cache = CacheStats {
            hits: 3,
            misses: 1,
            inserts: 1,
            bypasses: 0,
            evictions: 2,
        };
        let r = s.report(&cache, 2);
        assert!(r.contains("requests: 5 received, 4 served, 0 errors, 1 overloaded"));
        assert!(r.contains("cache: 3 hits, 1 misses, 1 inserts, 0 bypasses, 2 evictions"));
        assert!(r.contains("queue: 2 queued, 4 regions compiled, 0 suites"));
        assert!(r.contains("queue_wait 400 (avg 100), service 4000 (avg 1000)"));
        assert!(r.contains("suite_phases_us: plan 0, jobs 0, merge 0 (overlapped 0)"));
        assert!(!r.contains("tuner:"), "no tuner line when tuning is off");
    }

    #[test]
    fn zero_work_items_avoid_division() {
        let s = ServeStats::default();
        let r = s.report(&CacheStats::default(), 0);
        assert!(r.contains("queue_wait 0 (avg 0), service 0 (avg 0)"));
    }
}
