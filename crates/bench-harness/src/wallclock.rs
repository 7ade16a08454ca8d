//! Host wall-clock measurement of suite compilation.
//!
//! Everything else in this harness reports **modeled GPU time** — the
//! simulated microseconds the cost model charges to launches, transfers
//! and construction steps. This module measures the other time domain:
//! real host seconds spent inside [`pipeline::compile_suite`], which is
//! what [`PipelineConfig::host_threads`] actually changes. The two domains
//! never mix: the modeled times inside the returned [`pipeline::SuiteRun`]
//! are byte-identical at any thread count (asserted here via result
//! checksums), while the wall-clock numbers scale with host cores.
//!
//! Results are emitted as a hand-rolled JSON report (`BENCH_wallclock.json`
//! via `scripts/bench.sh`) — the workspace deliberately vendors no JSON
//! serializer.

use machine_model::OccupancyModel;
use pipeline::host_pool::{plan_jobs, run_jobs};
use pipeline::{
    compile_suite_timed, merge_job_results, PipelineConfig, SchedulerKind, SuiteWallclock,
};
use sched_verify::suite_fingerprint;
use workloads::{Suite, SuiteConfig};

/// Version stamp of the JSON report layout. Bump on any key change.
/// v2: per-sample `oversubscribed` flag; `parallel_best_s`/`speedup`
/// consider non-oversubscribed samples only.
/// v3: streaming-merge split — per-sample `merge_overlap_s` (merge busy
/// time hidden under still-running jobs) and `critical_path_s`
/// (`plan + jobs + (merge − overlap)`); `total_s < jobs_s + merge_s`
/// at `threads ≥ 2` is the direct signature of a non-zero overlap.
pub const SCHEMA_VERSION: u32 = 3;

/// Wall-clock samples for one `host_threads` setting.
#[derive(Debug, Clone)]
pub struct ThreadSample {
    /// The `host_threads` value measured.
    pub threads: usize,
    /// Whether this sample requested more workers than the host has
    /// cores. Oversubscribed rows are reported (the scaling tail is
    /// informative) but never feed the headline speedup: claiming a
    /// "16-thread speedup" measured on 4 cores would be dishonest.
    pub oversubscribed: bool,
    /// End-to-end seconds of every repetition, in run order.
    pub all_total_s: Vec<f64>,
    /// Per-stage breakdown of the best (fastest) repetition.
    pub best: SuiteWallclock,
    /// The modeled compile time the run reports (identical across
    /// repetitions and thread counts — it lives in the simulated domain).
    pub modeled_compile_s: f64,
    /// FNV-1a fingerprint of the full `SuiteRun` (identical across
    /// repetitions and thread counts by construction; verified).
    pub checksum: u64,
}

/// A complete wall-clock benchmark report.
#[derive(Debug, Clone)]
pub struct WallclockReport {
    /// Host cores available to the pool (`std::thread::available_parallelism`).
    pub cores: usize,
    /// Scheduler kind the suite was compiled under.
    pub scheduler: SchedulerKind,
    /// Suite generation seed.
    pub suite_seed: u64,
    /// Suite scale factor (fraction of the paper-scale suite).
    pub suite_scale: f64,
    /// Kernel count of the generated suite.
    pub kernels: usize,
    /// Region count of the generated suite.
    pub regions: usize,
    /// Repetitions per thread count (best is reported).
    pub repetitions: usize,
    /// One sample per measured thread count, in measurement order.
    pub samples: Vec<ThreadSample>,
}

impl WallclockReport {
    /// Best end-to-end seconds of the 1-thread (sequential) sample.
    pub fn sequential_best_s(&self) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.threads <= 1)
            .map(|s| s.best.total_s)
    }

    /// Best end-to-end seconds over every multi-thread sample that the
    /// host could genuinely run in parallel (oversubscribed rows are
    /// excluded — their numbers measure scheduler thrash, not the pool).
    pub fn parallel_best_s(&self) -> Option<f64> {
        self.samples
            .iter()
            .filter(|s| s.threads > 1 && !s.oversubscribed)
            .map(|s| s.best.total_s)
            .min_by(f64::total_cmp)
    }

    /// Sequential / parallel best-time ratio (> 1 means the pool won).
    /// `None` when no honest (non-oversubscribed) parallel sample exists.
    pub fn speedup(&self) -> Option<f64> {
        match (self.sequential_best_s(), self.parallel_best_s()) {
            (Some(seq), Some(par)) if par > 0.0 => Some(seq / par),
            _ => None,
        }
    }

    /// Whether every sample produced the same result checksum.
    pub fn checksums_agree(&self) -> bool {
        let mut it = self.samples.iter().map(|s| s.checksum);
        match it.next() {
            Some(first) => it.all(|c| c == first),
            None => true,
        }
    }

    /// Renders the report as a JSON document (see module docs).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {},\n", SCHEMA_VERSION));
        out.push_str("  \"benchmark\": \"suite_compile_wallclock\",\n");
        out.push_str(&format!("  \"cores\": {},\n", self.cores));
        out.push_str(&format!("  \"scheduler\": \"{:?}\",\n", self.scheduler));
        out.push_str(&format!(
            "  \"suite\": {{\"seed\": {}, \"scale\": {}, \"kernels\": {}, \"regions\": {}}},\n",
            self.suite_seed, self.suite_scale, self.kernels, self.regions
        ));
        out.push_str(&format!("  \"repetitions\": {},\n", self.repetitions));
        let checksum = self.samples.first().map_or(0, |s| s.checksum);
        out.push_str(&format!("  \"checksum\": \"{checksum:#018x}\",\n"));
        out.push_str(&format!(
            "  \"checksums_agree\": {},\n",
            self.checksums_agree()
        ));
        out.push_str("  \"samples\": [\n");
        for (i, s) in self.samples.iter().enumerate() {
            let all: Vec<String> = s.all_total_s.iter().map(|t| format!("{t}")).collect();
            out.push_str(&format!(
                "    {{\"threads\": {}, \"oversubscribed\": {}, \
                 \"best_total_s\": {}, \"plan_s\": {}, \
                 \"jobs_s\": {}, \"merge_s\": {}, \"merge_overlap_s\": {}, \
                 \"critical_path_s\": {}, \"all_total_s\": [{}], \
                 \"modeled_compile_s\": {}}}{}\n",
                s.threads,
                s.oversubscribed,
                s.best.total_s,
                s.best.plan_s,
                s.best.jobs_s,
                s.best.merge_s,
                s.best.merge_overlap_s,
                s.best.critical_path_s(),
                all.join(", "),
                s.modeled_compile_s,
                if i + 1 < self.samples.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        let opt = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x}"));
        out.push_str(&format!(
            "  \"sequential_best_s\": {},\n",
            opt(self.sequential_best_s())
        ));
        out.push_str(&format!(
            "  \"parallel_best_s\": {},\n",
            opt(self.parallel_best_s())
        ));
        out.push_str(&format!("  \"speedup\": {}\n", opt(self.speedup())));
        out.push_str("}\n");
        out
    }
}

/// Keys every schema-3 report must contain. Used by the smoke gate (and
/// tests) as a cheap structural check without a JSON parser.
pub const SCHEMA_KEYS: &[&str] = &[
    "\"schema_version\"",
    "\"benchmark\"",
    "\"cores\"",
    "\"scheduler\"",
    "\"suite\"",
    "\"repetitions\"",
    "\"checksum\"",
    "\"checksums_agree\"",
    "\"samples\"",
    "\"threads\"",
    "\"oversubscribed\"",
    "\"best_total_s\"",
    "\"plan_s\"",
    "\"jobs_s\"",
    "\"merge_s\"",
    "\"merge_overlap_s\"",
    "\"critical_path_s\"",
    "\"all_total_s\"",
    "\"modeled_compile_s\"",
    "\"sequential_best_s\"",
    "\"parallel_best_s\"",
    "\"speedup\"",
];

/// Structural validation of a rendered report: every schema key present
/// and braces/brackets balanced. Returns the first problem found.
pub fn validate_schema(json: &str) -> Result<(), String> {
    for key in SCHEMA_KEYS {
        if !json.contains(key) {
            return Err(format!("missing key {key}"));
        }
    }
    let mut depth = (0i64, 0i64);
    let mut in_str = false;
    for c in json.chars() {
        match c {
            '"' => in_str = !in_str,
            '{' if !in_str => depth.0 += 1,
            '}' if !in_str => depth.0 -= 1,
            '[' if !in_str => depth.1 += 1,
            ']' if !in_str => depth.1 -= 1,
            _ => {}
        }
        if depth.0 < 0 || depth.1 < 0 {
            return Err("unbalanced braces".into());
        }
    }
    if depth != (0, 0) || in_str {
        return Err("unbalanced braces or unterminated string".into());
    }
    Ok(())
}

/// Fingerprint of the same suite configuration compiled through the
/// retained **barrier reference** merge (all jobs first, one serial merge
/// after, single-threaded) instead of the streaming path `measure` times.
/// The `--smoke` gate asserts this equals the streamed checksum, so every
/// CI run exercises both merge implementations against each other.
pub fn reference_checksum(suite_seed: u64, suite_scale: f64, scheduler: SchedulerKind) -> u64 {
    let suite = Suite::generate(&SuiteConfig::scaled(suite_seed, suite_scale));
    let occ = OccupancyModel::vega_like();
    let mut cfg = PipelineConfig::paper(scheduler, 0);
    cfg.aco.pass2_gate_cycles = 1;
    let cache = cfg.cache.enabled.then(pipeline::ScheduleCache::new);
    let jobs = plan_jobs(&suite, &cfg);
    let results = run_jobs(&suite, &occ, &cfg, &jobs, 1, cache.as_ref());
    let run = merge_job_results(
        &suite,
        &occ,
        &cfg,
        &jobs,
        results,
        cache.as_ref(),
        |_, _, _, _, _| {},
    );
    suite_fingerprint(&run)
}

/// Measures suite compilation wall-clock across `thread_counts`, running
/// `repetitions` repetitions per count and keeping the fastest.
///
/// Panics if any repetition's `SuiteRun` fingerprint deviates — a wall
/// clock benchmark that changes results would be measuring the wrong
/// thing.
pub fn measure(
    suite_seed: u64,
    suite_scale: f64,
    scheduler: SchedulerKind,
    thread_counts: &[usize],
    repetitions: usize,
) -> WallclockReport {
    let suite = Suite::generate(&SuiteConfig::scaled(suite_seed, suite_scale));
    let occ = OccupancyModel::vega_like();
    let base_cfg = {
        let mut c = PipelineConfig::paper(scheduler, 0);
        c.aco.pass2_gate_cycles = 1;
        c
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reps = repetitions.max(1);

    let mut samples = Vec::with_capacity(thread_counts.len());
    let mut reference: Option<u64> = None;
    for &threads in thread_counts {
        let cfg = base_cfg.with_host_threads(threads);
        let mut all_total_s = Vec::with_capacity(reps);
        let mut best: Option<SuiteWallclock> = None;
        let mut modeled = 0.0;
        let mut checksum = 0;
        for _ in 0..reps {
            let (run, wall) = compile_suite_timed(&suite, &occ, &cfg);
            checksum = suite_fingerprint(&run);
            match reference {
                None => reference = Some(checksum),
                Some(want) => assert_eq!(
                    checksum, want,
                    "result drifted at {threads} threads: the pool must be \
                     a pure wall-clock knob"
                ),
            }
            modeled = run.compile_time_s;
            all_total_s.push(wall.total_s);
            if best.is_none_or(|b| wall.total_s < b.total_s) {
                best = Some(wall);
            }
        }
        samples.push(ThreadSample {
            threads,
            oversubscribed: threads > cores,
            all_total_s,
            best: best.expect("at least one repetition"),
            modeled_compile_s: modeled,
            checksum,
        });
    }
    WallclockReport {
        cores,
        scheduler,
        suite_seed,
        suite_scale,
        kernels: suite.kernels.len(),
        regions: suite.region_count(),
        repetitions: reps,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_structurally_valid_and_checksums_agree() {
        let report = measure(3, 0.002, SchedulerKind::ParallelAco, &[1, 2], 1);
        assert!(report.checksums_agree());
        assert_eq!(report.samples.len(), 2);
        for s in &report.samples {
            assert!(
                s.best.merge_overlap_s >= 0.0 && s.best.merge_overlap_s <= s.best.merge_s,
                "overlap must be a sub-slice of merge time"
            );
            let cp = s.best.critical_path_s();
            let want = s.best.plan_s + s.best.jobs_s + (s.best.merge_s - s.best.merge_overlap_s);
            assert!((cp - want).abs() < 1e-12);
            if s.threads <= 1 {
                assert_eq!(
                    s.best.merge_overlap_s, 0.0,
                    "inline runs interleave but never overlap"
                );
            }
        }
        let json = report.to_json();
        validate_schema(&json).expect("schema-valid report");
        assert!(json.contains("\"schema_version\": 3"));
        assert!(report.sequential_best_s().is_some());
        if report.cores >= 2 {
            assert!(report.parallel_best_s().is_some());
        } else {
            // On a single-core host the 2-thread row is oversubscribed
            // and must not masquerade as a parallel measurement.
            assert!(report.parallel_best_s().is_none());
            assert!(report.speedup().is_none());
        }
    }

    #[test]
    fn streaming_and_barrier_reference_checksums_agree() {
        let report = measure(3, 0.002, SchedulerKind::ParallelAco, &[1], 1);
        let streamed = report.samples[0].checksum;
        assert_eq!(
            streamed,
            reference_checksum(3, 0.002, SchedulerKind::ParallelAco),
            "streaming merge and barrier reference disagree"
        );
    }

    #[test]
    fn validate_schema_rejects_truncation_and_missing_keys() {
        let report = measure(3, 0.002, SchedulerKind::BaseAmd, &[1], 1);
        let json = report.to_json();
        let truncated = &json[..json.len() - 3];
        assert!(validate_schema(truncated).is_err());
        let gutted = json.replace("\"speedup\"", "\"sidewaysup\"");
        assert!(validate_schema(&gutted).is_err());
    }

    #[test]
    fn oversubscribed_samples_are_labeled_and_excluded_from_speedup() {
        let mut report = measure(3, 0.002, SchedulerKind::BaseAmd, &[1, 2], 1);
        let cores = report.cores;
        for s in &report.samples {
            assert_eq!(s.oversubscribed, s.threads > cores);
        }
        // Fabricate an impossibly fast oversubscribed row: it must not
        // become the headline parallel time.
        let mut fake = report.samples[1].clone();
        fake.threads = cores * 4;
        fake.oversubscribed = true;
        fake.best.total_s = 1e-12;
        report.samples.push(fake);
        let honest = report
            .samples
            .iter()
            .filter(|s| s.threads > 1 && !s.oversubscribed)
            .map(|s| s.best.total_s)
            .min_by(f64::total_cmp);
        assert_eq!(report.parallel_best_s(), honest);
        assert_ne!(report.parallel_best_s(), Some(1e-12));
        assert!(report.to_json().contains("\"oversubscribed\": true"));
    }
}
