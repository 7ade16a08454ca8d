//! Search-effort benefit of the self-tuning ACO store.
//!
//! The tuner (`aco_tune`) attacks the same redundancy the schedule cache
//! does, but from the other side: where the cache answers *identical*
//! regions for free, the tuner transfers knowledge between *similar*
//! regions — same template class, different instance. Per feature class
//! it learns which `AcoConfig` arm reaches the fixed-config schedule
//! length in fewer iterations, and per structure fingerprint it records
//! the winning order so the next instance's pheromone trails start near
//! the answer instead of uniform (`WARM_NO_IMPROVE_BUDGET` then cuts the
//! convergence leash).
//!
//! This module measures the payoff on a duplicate-heavy suite with the
//! schedule cache **off** (so every region really searches): the suite is
//! compiled once per repetition with the fixed paper configuration and
//! once through a tuning store pre-warmed by `warmup_rounds` passes. The
//! report records total ACO iterations (pass 1 + pass 2 summed over every
//! region), total schedule length, and wall clock for both settings. The
//! headline claims are `iterations_saved` (tuned must search strictly
//! less) and `length_regression = false` (tuned must end at the same or
//! better total length).
//!
//! Results are emitted as a hand-rolled JSON report (`BENCH_tuning.json`
//! via `scripts/bench.sh --tuning-out`) — the workspace deliberately
//! vendors no JSON serializer.

use aco_tune::{TuneStore, TunerStats};
use machine_model::OccupancyModel;
use pipeline::{compile_suite_with_stores, PipelineConfig, SchedulerKind, SuiteRun};
use workloads::{Suite, SuiteConfig};

/// Version stamp of the JSON report layout. Bump on any key change.
pub const SCHEMA_VERSION: u32 = 1;

/// Aggregates of one suite compilation under one tuning setting.
#[derive(Debug, Clone)]
pub struct TuneSample {
    /// Whether the self-tuning store drove this sample.
    pub tuned: bool,
    /// ACO iterations summed over every region (pass 1 + pass 2) of the
    /// measured repetition — identical across repetitions of the same
    /// setting, the searches are deterministic.
    pub total_iterations: u64,
    /// Final schedule length summed over every region.
    pub total_length: u64,
    /// End-to-end seconds of every repetition, in run order.
    pub all_total_s: Vec<f64>,
    /// Best (fastest) end-to-end seconds.
    pub best_total_s: f64,
}

/// A complete tuning benchmark report: one duplicate-heavy suite compiled
/// with the fixed paper configuration and through a pre-warmed tuning
/// store, cache off in both settings.
#[derive(Debug, Clone)]
pub struct TuningReport {
    /// Host cores available to the pool.
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
    /// Content-distinct region count (full structural equality classes).
    pub distinct_regions: usize,
    /// Fraction of regions that are duplicates of an earlier one.
    pub dedup_ratio: f64,
    /// `host_threads` both settings used.
    pub threads: usize,
    /// Learning passes over the suite before the measured tuned run.
    pub warmup_rounds: usize,
    /// Repetitions per setting (best wall clock is reported).
    pub repetitions: usize,
    /// The fixed-configuration reference sample.
    pub fixed: TuneSample,
    /// The tuned sample (measured with the warmed store).
    pub tuned: TuneSample,
    /// Tuner counters accumulated over warmup + measurement.
    pub tuner: TunerStats,
}

impl TuningReport {
    /// Iterations the tuned run avoided relative to fixed (negative would
    /// mean the tuner searched *more*).
    pub fn iterations_saved(&self) -> i64 {
        self.fixed.total_iterations as i64 - self.tuned.total_iterations as i64
    }

    /// Whether the tuned run ended with a worse total schedule length.
    pub fn length_regression(&self) -> bool {
        self.tuned.total_length > self.fixed.total_length
    }

    /// Fixed / tuned best-wall-clock ratio (> 1 means tuning also won
    /// real time; ~1 means it was free).
    pub fn wallclock_ratio(&self) -> Option<f64> {
        if self.tuned.best_total_s > 0.0 {
            Some(self.fixed.best_total_s / self.tuned.best_total_s)
        } else {
            None
        }
    }

    /// Renders the report as a JSON document (see module docs).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {},\n", SCHEMA_VERSION));
        out.push_str("  \"benchmark\": \"suite_compile_tuning\",\n");
        out.push_str(&format!("  \"cores\": {},\n", self.cores));
        out.push_str(&format!("  \"scheduler\": \"{:?}\",\n", self.scheduler));
        out.push_str(&format!(
            "  \"suite\": {{\"seed\": {}, \"scale\": {}, \"kernels\": {}, \
             \"regions\": {}, \"distinct_regions\": {}, \"dedup_ratio\": {}}},\n",
            self.suite_seed,
            self.suite_scale,
            self.kernels,
            self.regions,
            self.distinct_regions,
            self.dedup_ratio
        ));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"warmup_rounds\": {},\n", self.warmup_rounds));
        out.push_str(&format!("  \"repetitions\": {},\n", self.repetitions));
        out.push_str("  \"samples\": [\n");
        for (i, s) in [&self.fixed, &self.tuned].into_iter().enumerate() {
            let all: Vec<String> = s.all_total_s.iter().map(|t| format!("{t}")).collect();
            out.push_str(&format!(
                "    {{\"tuned\": {}, \"total_iterations\": {}, \
                 \"total_length\": {}, \"best_total_s\": {}, \
                 \"all_total_s\": [{}]}}{}\n",
                s.tuned,
                s.total_iterations,
                s.total_length,
                s.best_total_s,
                all.join(", "),
                if i == 0 { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"tuner\": {{\"choices\": {}, \"explored\": {}, \"committed\": {}, \
             \"warm_hits\": {}, \"warm_misses\": {}, \"observations\": {}, \
             \"warm_records\": {}}},\n",
            self.tuner.choices,
            self.tuner.explored,
            self.tuner.committed,
            self.tuner.warm_hits,
            self.tuner.warm_misses,
            self.tuner.observations,
            self.tuner.warm_records
        ));
        out.push_str(&format!(
            "  \"iterations_saved\": {},\n",
            self.iterations_saved()
        ));
        out.push_str(&format!(
            "  \"length_regression\": {},\n",
            self.length_regression()
        ));
        let opt = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x}"));
        out.push_str(&format!(
            "  \"wallclock_ratio\": {}\n",
            opt(self.wallclock_ratio())
        ));
        out.push_str("}\n");
        out
    }
}

/// Keys every schema-1 report must contain. Used by the smoke gate (and
/// tests) as a cheap structural check without a JSON parser.
pub const SCHEMA_KEYS: &[&str] = &[
    "\"schema_version\"",
    "\"benchmark\"",
    "\"cores\"",
    "\"scheduler\"",
    "\"suite\"",
    "\"dedup_ratio\"",
    "\"distinct_regions\"",
    "\"threads\"",
    "\"warmup_rounds\"",
    "\"repetitions\"",
    "\"samples\"",
    "\"tuned\"",
    "\"total_iterations\"",
    "\"total_length\"",
    "\"best_total_s\"",
    "\"all_total_s\"",
    "\"tuner\"",
    "\"choices\"",
    "\"warm_hits\"",
    "\"observations\"",
    "\"iterations_saved\"",
    "\"length_regression\"",
    "\"wallclock_ratio\"",
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

/// Iterations (pass 1 + pass 2) summed over every region of a run.
fn total_iterations(run: &SuiteRun) -> u64 {
    run.regions
        .iter()
        .map(|r| r.pass1_iterations as u64 + r.pass2_iterations as u64)
        .sum()
}

/// Final schedule length summed over every region of a run.
fn total_length(run: &SuiteRun) -> u64 {
    run.regions.iter().map(|r| r.length as u64).sum()
}

/// Measures fixed-config vs tuned+warm-started suite compilation on a
/// duplicate-heavy suite, schedule cache off in both settings so every
/// region genuinely searches.
///
/// The tuned setting first learns for `warmup_rounds` full passes over
/// the suite (choices + observations accumulate in one store), then the
/// measured repetitions run against the warmed store. Wall clock is taken
/// around the same entry point ([`compile_suite_with_stores`]) in both
/// settings.
pub fn measure(
    suite_seed: u64,
    suite_scale: f64,
    scheduler: SchedulerKind,
    threads: usize,
    warmup_rounds: usize,
    repetitions: usize,
) -> TuningReport {
    use std::time::Instant;

    let suite = Suite::generate(&SuiteConfig::duplicate_heavy(suite_seed, suite_scale));
    let dup = suite.duplicate_stats();
    let occ = OccupancyModel::vega_like();
    let cfg = {
        let mut c = PipelineConfig::paper(scheduler, 0);
        c.aco.pass2_gate_cycles = 1;
        c.with_host_threads(threads)
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reps = repetitions.max(1);
    let warmup = warmup_rounds.max(1);

    let sample = |store: Option<&TuneStore>| -> TuneSample {
        let mut all_total_s = Vec::with_capacity(reps);
        let mut best_total_s = f64::INFINITY;
        let mut iterations = 0;
        let mut length = 0;
        for _ in 0..reps {
            let t = Instant::now();
            let (run, _) =
                compile_suite_with_stores(&suite, &occ, &cfg, None, store, |_, _, _, _, _| {});
            let wall = t.elapsed().as_secs_f64();
            iterations = total_iterations(&run);
            length = total_length(&run);
            all_total_s.push(wall);
            best_total_s = best_total_s.min(wall);
        }
        TuneSample {
            tuned: store.is_some(),
            total_iterations: iterations,
            total_length: length,
            all_total_s,
            best_total_s,
        }
    };

    let fixed = sample(None);

    // Learning phase: every pass feeds arm observations and warm-start
    // records back into one shared store; by the measured repetitions the
    // per-class bandit has committed and the warm hints are in place.
    let store = TuneStore::new();
    for _ in 0..warmup {
        let _ =
            compile_suite_with_stores(&suite, &occ, &cfg, None, Some(&store), |_, _, _, _, _| {});
    }
    let tuned = sample(Some(&store));

    TuningReport {
        cores,
        scheduler,
        suite_seed,
        suite_scale,
        kernels: suite.kernels.len(),
        regions: dup.regions,
        distinct_regions: dup.distinct,
        dedup_ratio: dup.dedup_ratio(),
        threads,
        warmup_rounds: warmup,
        repetitions: reps,
        fixed,
        tuned,
        tuner: store.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuned_run_searches_less_without_length_regression() {
        let report = measure(3, 0.004, SchedulerKind::ParallelAco, 2, 2, 1);
        assert!(!report.length_regression(), "tuned total length regressed");
        assert!(
            report.iterations_saved() > 0,
            "tuned run must search strictly fewer iterations \
             (fixed {}, tuned {})",
            report.fixed.total_iterations,
            report.tuned.total_iterations
        );
        assert!(report.tuner.warm_hits > 0, "warm hints never applied");
        let json = report.to_json();
        validate_schema(&json).expect("schema-valid report");
    }

    #[test]
    fn validate_schema_rejects_truncation_and_missing_keys() {
        let report = measure(3, 0.004, SchedulerKind::SequentialAco, 1, 1, 1);
        let json = report.to_json();
        let truncated = &json[..json.len() - 3];
        assert!(validate_schema(truncated).is_err());
        let gutted = json.replace("\"wallclock_ratio\"", "\"sidewaysup\"");
        assert!(validate_schema(&gutted).is_err());
    }
}
