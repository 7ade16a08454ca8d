//! Workload inputs: what each named workload compiles, and how `--seed`
//! enters it.
//!
//! **How seeds flow.** What every workload compiles is pinned: the suites
//! come from the repository's own generator at [`SUITE_SEED`] (the seed
//! its golden fingerprints and `BENCH_wallclock.json` use), the daemon's
//! request regions from a fixed size list, and every ACO colony runs under
//! RNG seed [`SUITE_SEED`] too. The schedules, and so `total_length` and
//! `total_occupancy`, are therefore the same on every run of one build,
//! whatever the seed; that is what lets their regression bound be "any
//! change". `--seed` sets the order work *arrives* in where the caller,
//! not the program, decides it: the order requests are sent and re-sent
//! in (`serve-mix`, `serve-warm`) and the kernel order of the text corpus
//! (`frontend-large`). On the three ACO suite workloads it changes
//! nothing, because each thing it could change was measured to swamp what
//! the benchmark is for: a generator seed per run spans 1.0–11.3 s a pass
//! over ten seeds (compile time on these generators is heavy-tailed), an
//! ACO seed per run moves `total_length` by 0.1%, and a kernel order per
//! run moves the two-thread critical path (1.34–1.98 s over eight orders
//! of `suite-unique`, jobs being started in suite order). The program
//! under test sees only the generated suites, text-IR and request lines;
//! it never sees the workload name.

use machine_model::OccupancyModel;
use pipeline::{PipelineConfig, SchedulerKind};
use sched_ir::{textir, Ddg};
use std::collections::BTreeSet;
use workloads::{patterns, Kernel, Suite, SuiteConfig};

/// Generator seed of every pinned suite, and RNG seed of every ACO colony.
pub const SUITE_SEED: u64 = 5;

/// Set-up is timed `SETUP_REPEATS` times before the first pass of a run
/// and then again between its timed passes, as often as keeps the time
/// gone into set-up at `SETUP_SHARE` of the time the passes have measured.
/// `setup_s` is the median of all of them: hundreds of samples of a 1 ms
/// set-up, spread over the whole run, so a burst of host noise at any one
/// point of it — the first second of a process is the likeliest — moves a
/// minority of them.
pub const SETUP_REPEATS: usize = 5;
pub const SETUP_SHARE: f64 = 0.1;

/// Timed passes of an untraced run: at least this many, then more until
/// `--seconds` is used up, never more than [`MAX_PASSES`].
pub const MIN_PASSES: usize = 3;
pub const MAX_PASSES: usize = 100;

/// Command-line options of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// Input sizes. Chosen once (README, "Sizing") so one timed pass takes
/// 0.25–2.3 s on two cores, and never changed per commit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    pub unique_scale: f64,
    pub dup_scale: f64,
    pub sequential_scale: f64,
    pub batched_scale: f64,
    pub frontend_scale: f64,
    /// Distinct `schedule` requests of the serve workloads.
    pub requests: usize,
    /// `suite` requests that follow the cold phase of `serve-mix`.
    pub suite_requests: usize,
    pub suite_request_scale: f64,
    /// Times the request set is re-sent in one `serve-warm` pass.
    pub warm_replays: usize,
}

pub const FULL: Sizes = Sizes {
    unique_scale: 0.01,
    dup_scale: 0.01,
    sequential_scale: 0.03,
    batched_scale: 0.013,
    frontend_scale: 0.15,
    requests: 40,
    suite_requests: 4,
    suite_request_scale: 0.008,
    warm_replays: 45,
};

pub const SMOKE: Sizes = Sizes {
    unique_scale: 0.004,
    dup_scale: 0.004,
    sequential_scale: 0.004,
    batched_scale: 0.004,
    frontend_scale: 0.004,
    requests: 30,
    suite_requests: 1,
    suite_request_scale: 0.004,
    warm_replays: 2,
};

impl Opts {
    pub fn sizes(&self) -> Sizes {
        if self.smoke {
            SMOKE
        } else {
            FULL
        }
    }
}

/// Host threads, daemon workers and client connections of an untraced run.
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// SplitMix64: the benchmark's own generator for orders and size draws
/// (the product's `rand` stand-in is not a dependency of this package).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`; the modulo bias is irrelevant at
    /// these ranges).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.range(0, i + 1));
        }
    }
}

/// One suite compilation of a pass: which suite, under which scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Part {
    pub kind: SchedulerKind,
    pub suite: SuiteConfig,
    /// The suite reaches the pipeline as text-IR that the pass parses, the
    /// pipeline runs its static analysis, and every pass certifies.
    pub front_end: bool,
}

/// The suite compilations that make up one pass of a suite workload, or
/// `None` for a workload that is not one.
pub fn suite_parts(workload: &str, sizes: &Sizes) -> Option<Vec<Part>> {
    let part = |kind, suite| Part {
        kind,
        suite,
        front_end: false,
    };
    Some(match workload {
        "suite-unique" => vec![part(
            SchedulerKind::ParallelAco,
            SuiteConfig::scaled(SUITE_SEED, sizes.unique_scale),
        )],
        "suite-dup" => vec![part(
            SchedulerKind::ParallelAco,
            SuiteConfig::duplicate_heavy(SUITE_SEED, sizes.dup_scale),
        )],
        "suite-variants" => vec![
            part(
                SchedulerKind::SequentialAco,
                SuiteConfig::scaled(SUITE_SEED, sizes.sequential_scale),
            ),
            part(
                SchedulerKind::BatchedParallelAco,
                SuiteConfig::scaled(SUITE_SEED, sizes.batched_scale),
            ),
        ],
        "frontend-large" => vec![Part {
            kind: SchedulerKind::BaseAmd,
            suite: SuiteConfig::scaled(SUITE_SEED, sizes.frontend_scale),
            front_end: true,
        }],
        _ => return None,
    })
}

/// The pipeline configuration of one part: the paper's, with pass 2 gated
/// at one cycle so ACO has work on a scaled suite (as the wall-clock bench
/// and the golden tests do).
pub fn pipeline_config(part: &Part, threads: usize) -> PipelineConfig {
    let mut cfg = PipelineConfig::paper(part.kind, SUITE_SEED)
        .with_host_threads(threads)
        .with_analyze(part.front_end);
    cfg.aco.pass2_gate_cycles = 1;
    cfg
}

/// The generated input of one part.
#[derive(Debug, Clone)]
pub struct PartInput {
    pub suite: Suite,
    /// Text-IR of every region, per kernel (front-end parts only).
    pub texts: Option<Vec<Vec<String>>>,
}

/// Generates one part's suite; a front-end part also gets its kernels put
/// in seeded order and every region rendered to text-IR.
pub fn build_part(part: &Part, seed: u64) -> PartInput {
    let mut suite = Suite::generate(&part.suite);
    if !part.front_end {
        return PartInput { suite, texts: None };
    }
    let mut tagged: Vec<(usize, Kernel)> = suite.kernels.drain(..).enumerate().collect();
    SplitMix64::new(seed).shuffle(&mut tagged);
    let mut new_index = vec![0usize; tagged.len()];
    for (new, (old, _)) in tagged.iter().enumerate() {
        new_index[*old] = new;
    }
    suite.kernels = tagged.into_iter().map(|(_, k)| k).collect();
    for b in &mut suite.benchmarks {
        for k in &mut b.kernels {
            *k = new_index[*k];
        }
    }
    let texts = suite
        .kernels
        .iter()
        .map(|k| k.regions.iter().map(textir::to_text).collect())
        .collect();
    PartInput {
        suite,
        texts: Some(texts),
    }
}

/// One `schedule` request of the serve workloads.
#[derive(Debug, Clone)]
pub struct Request {
    /// Wire bytes: header line plus text-IR payload.
    pub wire: String,
    /// The header line alone (for the protocol-parse replay).
    pub header: String,
    /// The region as the daemon will parse it.
    pub ddg: Ddg,
}

impl Request {
    /// The text-IR payload of the request.
    pub fn text(&self) -> &str {
        &self.wire[self.header.len()..]
    }
}

/// The distinct request regions: `n` regions, 60% of 8–49 instructions,
/// 25% of 50–99, 15% of 100–200, contents pairwise distinct.
pub fn build_requests(n: usize) -> Vec<Request> {
    let mut rng = SplitMix64::new(0x5e12_7e11);
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let i = out.len();
        // Bands by position so every prefix keeps the 60/25/15 mix.
        let size = match i % 20 {
            0..=11 => rng.range(8, 50),
            12..=16 => rng.range(50, 100),
            _ => rng.range(100, 201),
        };
        let ddg = patterns::sized(size, rng.next_u64());
        if !seen.insert(sched_ir::ddg_content_fingerprint(&ddg)) {
            continue;
        }
        let text = textir::to_text(&ddg);
        let header = format!(
            "req c{i} schedule seed={SUITE_SEED} ddg {}\n",
            text.lines().count()
        );
        let ddg = textir::parse(&text).expect("printed text-IR parses back");
        out.push(Request {
            wire: format!("{header}{text}"),
            header,
            ddg,
        });
    }
    out
}

/// The configuration the daemon compiles a `schedule seed=5` request
/// under (its documented defaults: parallel ACO, 32 blocks, Vega-like
/// occupancy) — what the one-shot reference must use too.
pub fn request_config() -> (PipelineConfig, OccupancyModel) {
    (
        PipelineConfig::paper(SchedulerKind::ParallelAco, SUITE_SEED),
        OccupancyModel::vega_like(),
    )
}

/// The suite and configuration the daemon compiles a default `suite
/// seed=<s> scale=<scale>` request under.
pub fn suite_request_inputs(suite_seed: u64, scale: f64) -> (Suite, PipelineConfig) {
    let suite = Suite::generate(&SuiteConfig::scaled(suite_seed, scale));
    let mut cfg = PipelineConfig::paper(SchedulerKind::ParallelAco, 0);
    cfg.aco.blocks = 4;
    cfg.aco.pass2_gate_cycles = 1;
    (suite, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_request_set_is_pinned() {
        let a = build_requests(20);
        let b = build_requests(20);
        assert_eq!(a.len(), 20);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.wire, y.wire);
        }
        assert!(a[0].header.starts_with("req c0 schedule seed=5 ddg "));
    }

    #[test]
    fn request_mix_follows_the_bands() {
        let reqs = build_requests(60);
        let band = |lo: usize, hi: usize| {
            reqs.iter()
                .filter(|r| (lo..hi).contains(&r.ddg.len()))
                .count()
        };
        // `patterns::sized` lands within ±20% of its target, so count with
        // that slack around the 100-instruction boundary.
        assert!(band(80, 400) >= 9, "15% of 60 are large");
        assert!(band(0, 60) >= 30, "the bulk are small");
        let distinct: BTreeSet<u64> = reqs
            .iter()
            .map(|r| sched_ir::ddg_content_fingerprint(&r.ddg))
            .collect();
        assert_eq!(distinct.len(), reqs.len());
    }

    #[test]
    fn front_end_kernel_order_is_a_seeded_permutation() {
        let part = suite_parts("frontend-large", &SMOKE).unwrap()[0];
        let a = build_part(&part, 1);
        let b = build_part(&part, 2);
        let again = build_part(&part, 1);
        let names = |p: &PartInput| -> Vec<String> {
            p.suite.kernels.iter().map(|k| k.name.clone()).collect()
        };
        assert_eq!(names(&a), names(&again));
        let (mut sa, mut sb) = (names(&a), names(&b));
        sa.sort();
        sb.sort();
        assert_eq!(sa, sb, "same kernels whatever the seed");
        // Benchmarks still name the kernels they named before the shuffle.
        let plain = Suite::generate(&part.suite);
        for (pb, sb) in plain.benchmarks.iter().zip(&a.suite.benchmarks) {
            let before: Vec<&str> = pb
                .kernels
                .iter()
                .map(|&k| plain.kernels[k].name.as_str())
                .collect();
            let after: Vec<&str> = sb
                .kernels
                .iter()
                .map(|&k| a.suite.kernels[k].name.as_str())
                .collect();
            assert_eq!(before, after);
        }
        assert_eq!(
            a.texts
                .as_ref()
                .unwrap()
                .iter()
                .map(Vec::len)
                .sum::<usize>(),
            a.suite.region_count()
        );
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<usize> = (0..100).collect();
        SplitMix64::new(3).shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn only_suite_workloads_have_parts() {
        for w in &crate::names::manifest().workloads {
            assert_eq!(
                suite_parts(w, &FULL).is_some(),
                !w.starts_with("serve-"),
                "{w}"
            );
        }
    }
}
