//! rocPRIM-like benchmark-suite generation with Table-1-shaped statistics.

use crate::patterns;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sched_ir::Ddg;

/// A GPU kernel: a set of scheduling regions plus the execution-model
/// parameters the pipeline needs to turn schedules into throughput.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Kernel name, e.g. `block_reduce_k17`.
    pub name: String,
    /// Scheduling regions of the kernel. Index 0 is the *hot* region: the
    /// innermost loop body dominating execution time.
    pub regions: Vec<Ddg>,
    /// Bytes moved per benchmark invocation (sets the throughput scale).
    pub bytes_per_launch: u64,
    /// Fraction of kernel run time bound by latency (vs bandwidth); higher
    /// values make occupancy and schedule length matter more.
    pub latency_bound: f64,
}

/// A benchmark: a named workload invoking one or more kernels.
///
/// Mirrors the paper's structure where "some kernels are invoked by
/// multiple benchmarks".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Benchmark {
    /// Benchmark name, e.g. `device_reduce_i32`.
    pub name: String,
    /// Indices into [`Suite::kernels`].
    pub kernels: Vec<usize>,
}

/// Configuration of suite generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteConfig {
    /// RNG seed; equal seeds give identical suites.
    pub seed: u64,
    /// Number of benchmarks (the paper's suite has 341).
    pub benchmarks: usize,
    /// Number of distinct kernels (the paper's suite has 269).
    pub kernels: usize,
    /// Mean number of scheduling regions per kernel (the paper's suite
    /// averages 181,883 / 269 ≈ 676).
    pub mean_regions_per_kernel: usize,
    /// Largest region size to generate (paper max: 2,223).
    pub max_region_size: usize,
    /// Fraction of regions instantiated from a shared template pool
    /// instead of generated fresh, in `[0, 1]`.
    ///
    /// Real suites are template-heavy: rocPRIM stamps out the same
    /// `block_reduce`/`block_scan` bodies across hundreds of type/size
    /// instantiations, so many scheduling regions are *content-identical*
    /// (same DDG up to instruction names). `0.0` (the default everywhere
    /// except [`SuiteConfig::duplicate_heavy`]) disables the post-pass
    /// entirely — generation is byte-identical to pre-knob suites.
    pub template_duplication: f64,
}

impl SuiteConfig {
    /// The paper-scale configuration (LARGE: ~180k regions; minutes to
    /// generate and schedule).
    pub fn paper_scale(seed: u64) -> SuiteConfig {
        SuiteConfig {
            seed,
            benchmarks: 341,
            kernels: 269,
            mean_regions_per_kernel: 676,
            max_region_size: 2223,
            template_duplication: 0.0,
        }
    }

    /// A scaled-down configuration preserving the shape: `scale` in
    /// `(0, 1]` multiplies benchmark/kernel/region counts (region *sizes*
    /// are preserved, except the tail is capped at `max_region_size`).
    pub fn scaled(seed: u64, scale: f64) -> SuiteConfig {
        let s = scale.clamp(0.002, 1.0);
        let full = SuiteConfig::paper_scale(seed);
        SuiteConfig {
            seed,
            benchmarks: ((full.benchmarks as f64 * s).round() as usize).max(1),
            kernels: ((full.kernels as f64 * s).round() as usize).max(1),
            // Regions-per-kernel scales gently (sqrt) so scaled suites keep
            // a paper-like regions:kernels ratio without quadratic blowup.
            mean_regions_per_kernel: ((full.mean_regions_per_kernel as f64 * s.sqrt()).round()
                as usize)
                .max(4),
            max_region_size: ((full.max_region_size as f64 * s.sqrt()).round() as usize).max(120),
            template_duplication: 0.0,
        }
    }

    /// A duplicate-heavy scaled suite: 60% of regions are template
    /// instantiations, the rocPRIM-like shape the schedule cache targets.
    pub fn duplicate_heavy(seed: u64, scale: f64) -> SuiteConfig {
        SuiteConfig::scaled(seed, scale).with_template_duplication(0.6)
    }

    /// The same configuration with the template-duplication fraction set.
    pub fn with_template_duplication(mut self, fraction: f64) -> SuiteConfig {
        self.template_duplication = fraction.clamp(0.0, 1.0);
        self
    }
}

impl Default for SuiteConfig {
    /// A small smoke-test scale (fractions of a second to generate).
    fn default() -> SuiteConfig {
        SuiteConfig::scaled(0, 0.01)
    }
}

/// A generated benchmark suite.
#[derive(Debug, Clone)]
pub struct Suite {
    /// All kernels, indexed by [`Benchmark::kernels`].
    pub kernels: Vec<Kernel>,
    /// All benchmarks.
    pub benchmarks: Vec<Benchmark>,
}

impl Suite {
    /// Generates a suite from the configuration. Deterministic in
    /// `config.seed`.
    pub fn generate(config: &SuiteConfig) -> Suite {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let mut kernels: Vec<Kernel> = (0..config.kernels)
            .map(|k| gen_kernel(k, config, &mut rng))
            .collect();
        instantiate_templates(&mut kernels, config);
        let benchmarks = (0..config.benchmarks)
            .map(|i| {
                // Most benchmarks drive one kernel; some drive 2-3 (e.g.
                // sort = partition + merge). Kernel reuse across benchmarks
                // arises naturally from sampling.
                let n = match rng.gen_range(0..10) {
                    0..=6 => 1,
                    7..=8 => 2,
                    _ => 3,
                };
                let kernels_of_b: Vec<usize> =
                    (0..n).map(|_| rng.gen_range(0..kernels.len())).collect();
                Benchmark {
                    name: format!("bench_{i:03}"),
                    kernels: kernels_of_b,
                }
            })
            .collect();
        Suite {
            kernels,
            benchmarks,
        }
    }

    /// Total number of scheduling regions across all kernels.
    pub fn region_count(&self) -> usize {
        self.kernels.iter().map(|k| k.regions.len()).sum()
    }

    /// Iterates over `(kernel index, region index, region)` triples.
    pub fn regions(&self) -> impl Iterator<Item = (usize, usize, &Ddg)> {
        self.kernels
            .iter()
            .enumerate()
            .flat_map(|(k, kern)| kern.regions.iter().enumerate().map(move |(r, d)| (k, r, d)))
    }

    /// Content-duplication statistics of the suite's regions, computed
    /// from canonical DDG fingerprints with a full [`Ddg::content_eq`]
    /// confirmation inside each fingerprint bucket (a 64-bit collision
    /// would otherwise under-count distinct content).
    pub fn duplicate_stats(&self) -> DuplicateStats {
        let mut buckets: std::collections::HashMap<u64, Vec<&Ddg>> =
            std::collections::HashMap::new();
        let mut regions = 0usize;
        for (_, _, ddg) in self.regions() {
            regions += 1;
            buckets
                .entry(sched_ir::ddg_content_fingerprint(ddg))
                .or_default()
                .push(ddg);
        }
        let mut distinct = 0usize;
        for group in buckets.values() {
            // Within a bucket, count equivalence classes by full equality.
            let mut reps: Vec<&Ddg> = Vec::new();
            for ddg in group {
                if !reps.iter().any(|r| r.content_eq(ddg)) {
                    reps.push(ddg);
                }
            }
            distinct += reps.len();
        }
        DuplicateStats { regions, distinct }
    }
}

/// How much of a suite's region content is duplicated (see
/// [`Suite::duplicate_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DuplicateStats {
    /// Total scheduling regions.
    pub regions: usize,
    /// Regions with pairwise-distinct scheduling content.
    pub distinct: usize,
}

impl DuplicateStats {
    /// Fraction of regions that are content-duplicates of another region,
    /// in `[0, 1]`: `1 - distinct/regions`.
    pub fn dedup_ratio(&self) -> f64 {
        if self.regions == 0 {
            0.0
        } else {
            1.0 - self.distinct as f64 / self.regions as f64
        }
    }
}

/// Pool key of a region size: exact below 50 (tiny sizes repeat naturally,
/// so per-size pools stay dense), band-preserving buckets above — `[50,100)`
/// by tens, `[100,∞)` by fifties. Two sizes share a key only within one
/// Table-1 size band, so template replacement preserves the suite's band
/// distribution; without the buckets the continuous large-tail sizes would
/// never pool, leaving the very regions that dominate compile time with
/// no duplicates at all.
fn template_pool_key(size: usize) -> usize {
    match size {
        0..=49 => size,
        50..=99 => 50 + (size - 50) / 10 * 10,
        _ => 100 + (size - 100) / 50 * 50,
    }
}

/// The template-instantiation post-pass: with probability
/// `template_duplication`, a region is replaced by a clone of an earlier
/// similar-sized region (the "template"), mimicking a library suite
/// stamping the same block primitive across many kernels. Pools are keyed
/// by [`template_pool_key`], which never crosses a size band. Runs on its
/// own RNG stream (derived from the seed) *after* generation, so a
/// fraction of `0.0` leaves suites byte-identical to pre-knob generation.
fn instantiate_templates(kernels: &mut [Kernel], config: &SuiteConfig) {
    let p = config.template_duplication.clamp(0.0, 1.0);
    if p <= 0.0 {
        return;
    }
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut pools: std::collections::HashMap<usize, Vec<Ddg>> = std::collections::HashMap::new();
    for kernel in kernels.iter_mut() {
        for region in &mut kernel.regions {
            let pool = pools.entry(template_pool_key(region.len())).or_default();
            if !pool.is_empty() && rng.gen::<f64>() < p {
                *region = pool[rng.gen_range(0..pool.len())].clone();
            } else {
                pool.push(region.clone());
            }
        }
    }
}

/// Samples a region size from the Table-1-like distribution: the bulk of
/// regions are tiny (straight-line glue code), a minority reach the 50–99
/// band, and a thin tail is large (hot loop bodies).
fn sample_region_size(rng: &mut SmallRng, max: usize) -> usize {
    let r: f64 = rng.gen();
    let size = if r < 0.80 {
        // tiny: 2-19, geometric-ish
        2 + (rng.gen::<f64>().powi(2) * 18.0) as usize
    } else if r < 0.93 {
        // small: 20-49
        rng.gen_range(20..50)
    } else if r < 0.975 {
        // medium: 50-99
        rng.gen_range(50..100)
    } else {
        // large tail: 100..max, power-law
        let t: f64 = rng.gen::<f64>().powi(3);
        100 + (t * (max.saturating_sub(100)) as f64) as usize
    };
    size.min(max).max(2)
}

fn gen_kernel(index: usize, config: &SuiteConfig, rng: &mut SmallRng) -> Kernel {
    // Regions per kernel: exponential around the mean, at least 1.
    let mean = config.mean_regions_per_kernel as f64;
    let count = ((-rng.gen::<f64>().max(1e-9).ln()) * mean).round() as usize;
    let count = count.clamp(1, config.mean_regions_per_kernel * 8);
    let mut regions = Vec::with_capacity(count);
    // Region 0 is the hot region: biased large so schedulers matter.
    let hot_size = sample_region_size(rng, config.max_region_size)
        .max(rng.gen_range(30..(config.max_region_size / 2).max(31)));
    regions.push(patterns::sized(hot_size, rng.gen()));
    for _ in 1..count {
        let size = sample_region_size(rng, config.max_region_size);
        regions.push(patterns::sized(size, rng.gen()));
    }
    Kernel {
        name: format!("kernel_{index:03}"),
        regions,
        bytes_per_launch: rng.gen_range(1u64..=64) * (1 << 20),
        // Scheduling-sensitive rocPRIM kernels are memory-latency bound;
        // occupancy buys them real time (purely bandwidth- or VALU-bound
        // kernels are the ones the paper's 3% CoV rule filters out).
        latency_bound: rng.gen_range(0.55..0.92),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SuiteConfig::default();
        let a = Suite::generate(&cfg);
        let b = Suite::generate(&cfg);
        assert_eq!(a.region_count(), b.region_count());
        assert_eq!(a.benchmarks, b.benchmarks);
        for (ka, kb) in a.kernels.iter().zip(&b.kernels) {
            assert_eq!(ka.name, kb.name);
            assert_eq!(ka.bytes_per_launch, kb.bytes_per_launch);
            assert_eq!(ka.regions.len(), kb.regions.len());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Suite::generate(&SuiteConfig::scaled(1, 0.01));
        let b = Suite::generate(&SuiteConfig::scaled(2, 0.01));
        assert_ne!(a.region_count(), b.region_count());
    }

    #[test]
    fn benchmarks_reference_valid_kernels() {
        let s = Suite::generate(&SuiteConfig::default());
        for b in &s.benchmarks {
            assert!(!b.kernels.is_empty());
            for &k in &b.kernels {
                assert!(k < s.kernels.len());
            }
        }
    }

    #[test]
    fn size_distribution_is_small_heavy_with_a_tail() {
        let s = Suite::generate(&SuiteConfig::scaled(7, 0.05));
        let sizes: Vec<usize> = s.regions().map(|(_, _, d)| d.len()).collect();
        assert!(
            sizes.len() > 200,
            "need a meaningful sample, got {}",
            sizes.len()
        );
        let tiny = sizes.iter().filter(|&&z| z < 50).count();
        let large = sizes.iter().filter(|&&z| z >= 100).count();
        assert!(
            tiny as f64 / sizes.len() as f64 > 0.75,
            "bulk must be small regions"
        );
        assert!(large > 0, "a large tail must exist");
    }

    #[test]
    fn hot_region_is_first_and_meaningfully_sized() {
        let s = Suite::generate(&SuiteConfig::default());
        for k in &s.kernels {
            assert!(!k.regions.is_empty());
            assert!(
                k.regions[0].len() >= 24,
                "hot region too small in {}",
                k.name
            );
        }
    }

    #[test]
    fn duplicate_heavy_suites_pin_a_high_dedup_ratio() {
        let stats = Suite::generate(&SuiteConfig::duplicate_heavy(5, 0.008)).duplicate_stats();
        assert!(
            stats.dedup_ratio() >= 0.30,
            "duplicate-heavy suite must be >=30% duplicates, got {:.3} ({} distinct / {})",
            stats.dedup_ratio(),
            stats.distinct,
            stats.regions
        );
        assert!(stats.distinct > 0 && stats.distinct < stats.regions);
    }

    #[test]
    fn template_instantiation_is_deterministic_and_off_by_default() {
        let cfg = SuiteConfig::duplicate_heavy(5, 0.008);
        let a = Suite::generate(&cfg);
        let b = Suite::generate(&cfg);
        for ((_, _, x), (_, _, y)) in a.regions().zip(b.regions()) {
            assert!(
                x.content_eq(y),
                "duplication post-pass must be deterministic"
            );
        }
        // The knob defaults to off, where suites keep the generator's
        // natural (near-total) content diversity; the post-pass only adds
        // duplicates, never fresh content.
        let off = Suite::generate(&SuiteConfig::scaled(5, 0.008)).duplicate_stats();
        let on = a.duplicate_stats();
        assert_eq!(off.regions, on.regions, "post-pass must not change counts");
        assert!(
            on.distinct < off.distinct,
            "duplication must reduce distinct content: {} vs {}",
            on.distinct,
            off.distinct
        );
        // Band distribution is preserved (pool buckets never cross a
        // Table-1 size band, though sizes inside a band may shift).
        let bands = |s: &Suite| {
            let mut c = [0usize; 3];
            for (_, _, d) in s.regions() {
                c[match d.len() {
                    0..=49 => 0,
                    50..=99 => 1,
                    _ => 2,
                }] += 1;
            }
            c
        };
        assert_eq!(
            bands(&a),
            bands(&Suite::generate(&SuiteConfig::scaled(5, 0.008)))
        );
    }

    #[test]
    fn config_scaling_clamps() {
        let tiny = SuiteConfig::scaled(0, 0.000001);
        assert!(tiny.benchmarks >= 1 && tiny.kernels >= 1);
        let full = SuiteConfig::scaled(0, 1.0);
        assert_eq!(full.benchmarks, 341);
        assert_eq!(full.kernels, 269);
        assert_eq!(full.max_region_size, 2223);
    }
}
