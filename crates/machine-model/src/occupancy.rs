//! Occupancy tables and the APRP cost function.

use sched_ir::{RegClass, REG_CLASS_COUNT};

/// Number of wavefronts resident per SIMD unit (the paper's *occupancy*).
pub type Waves = u32;

/// Per-class register-file parameters determining occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ClassFile {
    /// Registers available per SIMD unit for this class.
    budget: u32,
    /// Allocation granularity: usage is rounded up to a multiple of this.
    granule: u32,
    /// Architectural maximum a single wavefront may address.
    per_wave_max: u32,
}

impl ClassFile {
    fn occupancy(&self, prp: u32, cap: Waves) -> Waves {
        if prp == 0 {
            return cap;
        }
        if prp > self.per_wave_max {
            // Pressure beyond the addressable file would spill; model as the
            // worst (single wavefront) occupancy.
            return 1;
        }
        let alloc = prp.div_ceil(self.granule) * self.granule;
        (self.budget / alloc).clamp(1, cap)
    }
}

/// Occupancy model: maps per-class peak register pressure (PRP) to
/// wavefront occupancy, and PRP to **adjusted PRP** (APRP).
///
/// The APRP of a PRP value `x` is the maximum PRP that yields the same
/// occupancy as `x` (Section II-A). Using APRP rather than raw PRP as the
/// pass-1 cost stops the scheduler from chasing register savings that cannot
/// change occupancy.
///
/// # Example
///
/// The paper's Radeon VII example: "a PRP of 24 VGPRs or less gives the
/// maximum occupancy of 10, while PRP values in the range \[25–28\] give an
/// occupancy of 9".
///
/// ```
/// use machine_model::OccupancyModel;
/// use sched_ir::RegClass;
///
/// let m = OccupancyModel::vega_like();
/// assert_eq!(m.class_occupancy(RegClass::Vgpr, 24), 10);
/// assert_eq!(m.class_occupancy(RegClass::Vgpr, 25), 9);
/// assert_eq!(m.class_occupancy(RegClass::Vgpr, 28), 9);
/// assert_eq!(m.aprp(RegClass::Vgpr, 1), 24);
/// assert_eq!(m.aprp(RegClass::Vgpr, 25), 28);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancyModel {
    files: [ClassFile; REG_CLASS_COUNT],
    max_waves: Waves,
}

impl OccupancyModel {
    /// The Vega-20-like model used throughout the paper's evaluation:
    /// 256 VGPRs per SIMD lane (granule 4, per-wave max 256), 800 SGPRs
    /// (granule 16, per-wave max 102), at most 10 waves per SIMD.
    pub fn vega_like() -> OccupancyModel {
        OccupancyModel {
            files: [
                ClassFile {
                    budget: 256,
                    granule: 4,
                    per_wave_max: 256,
                },
                ClassFile {
                    budget: 800,
                    granule: 16,
                    per_wave_max: 102,
                },
            ],
            max_waves: 10,
        }
    }

    /// An identity-APRP model for fine-grained pressure studies and the
    /// paper's worked example: for PRP values up to 8, every PRP value is
    /// its own occupancy band, so `aprp(x) == x` and reducing PRP by one
    /// register always pays. The Figure-1 walkthrough (Section IV-C)
    /// treats PRP this way.
    ///
    /// ```
    /// use machine_model::OccupancyModel;
    /// use sched_ir::RegClass;
    /// let m = OccupancyModel::unit();
    /// for x in 1..=8 {
    ///     assert_eq!(m.aprp(RegClass::Vgpr, x), x);
    /// }
    /// ```
    pub fn unit() -> OccupancyModel {
        OccupancyModel::custom([64, 64], [1, 1], [64, 64], 64)
    }

    /// A custom model (same structure, different parameters). `budgets`,
    /// `granules` and `per_wave_max` are indexed by [`RegClass::index`].
    pub fn custom(
        budgets: [u32; REG_CLASS_COUNT],
        granules: [u32; REG_CLASS_COUNT],
        per_wave_max: [u32; REG_CLASS_COUNT],
        max_waves: Waves,
    ) -> OccupancyModel {
        let mk = |i: usize| ClassFile {
            budget: budgets[i],
            granule: granules[i].max(1),
            per_wave_max: per_wave_max[i],
        };
        OccupancyModel {
            files: [mk(0), mk(1)],
            max_waves,
        }
    }

    /// Maximum occupancy achievable on this machine.
    pub fn max_waves(&self) -> Waves {
        self.max_waves
    }

    /// The model's full parameter vector, flattened for fingerprinting and
    /// persistence: per-class `(budget, granule, per_wave_max)` in
    /// [`RegClass::index`] order, then `max_waves`. [`Self::from_signature`]
    /// inverts it.
    pub fn signature(&self) -> [u32; REG_CLASS_COUNT * 3 + 1] {
        let mut out = [0u32; REG_CLASS_COUNT * 3 + 1];
        for (i, f) in self.files.iter().enumerate() {
            out[i * 3] = f.budget;
            out[i * 3 + 1] = f.granule;
            out[i * 3 + 2] = f.per_wave_max;
        }
        out[REG_CLASS_COUNT * 3] = self.max_waves;
        out
    }

    /// Rebuilds a model from a [`Self::signature`] vector.
    pub fn from_signature(sig: [u32; REG_CLASS_COUNT * 3 + 1]) -> OccupancyModel {
        OccupancyModel::custom(
            [sig[0], sig[3]],
            [sig[1], sig[4]],
            [sig[2], sig[5]],
            sig[REG_CLASS_COUNT * 3],
        )
    }

    /// Occupancy permitted by a single class at the given PRP.
    pub fn class_occupancy(&self, class: RegClass, prp: u32) -> Waves {
        self.files[class.index()].occupancy(prp, self.max_waves)
    }

    /// Combined occupancy for per-class PRPs: the minimum over classes.
    pub fn occupancy(&self, prp: [u32; REG_CLASS_COUNT]) -> Waves {
        RegClass::ALL
            .iter()
            .map(|&c| self.class_occupancy(c, prp[c.index()]))
            .min()
            .unwrap_or(self.max_waves)
    }

    /// The adjusted PRP: the maximum PRP with the same occupancy as `prp`.
    pub fn aprp(&self, class: RegClass, prp: u32) -> u32 {
        let occ = self.class_occupancy(class, prp);
        self.max_prp_for_occupancy(class, occ).unwrap_or(prp)
    }

    /// The largest PRP of `class` that still yields occupancy `occ`, or
    /// `None` if no PRP yields exactly that occupancy.
    pub fn max_prp_for_occupancy(&self, class: RegClass, occ: Waves) -> Option<u32> {
        let file = &self.files[class.index()];
        if occ == 0 || occ > self.max_waves {
            return None;
        }
        // Largest allocation a with budget/a >= occ, rounded to granule,
        // clamped to the addressable file.
        let alloc = (file.budget / occ) / file.granule * file.granule;
        if alloc == 0 {
            return None;
        }
        let prp = alloc.min(file.per_wave_max);
        (self.class_occupancy(class, prp) == occ).then_some(prp)
    }

    /// Scalar pass-1 cost of a PRP vector: lost occupancy dominates, APRP
    /// breaks ties within an occupancy band.
    ///
    /// Lower is better. The occupancy term is scaled so that any occupancy
    /// improvement outweighs any APRP difference, matching the paper's
    /// objective ordering (occupancy is what the RP pass is really buying).
    pub fn rp_cost(&self, prp: [u32; REG_CLASS_COUNT]) -> u64 {
        let occ = self.occupancy(prp);
        let lost = (self.max_waves - occ) as u64;
        // Classes with zero pressure contribute nothing (their APRP band
        // max is a constant that would only obscure comparisons).
        let aprp_sum: u64 = RegClass::ALL
            .iter()
            .filter(|c| prp[c.index()] > 0)
            .map(|&c| self.aprp(c, prp[c.index()]) as u64)
            .sum();
        lost * 100_000 + aprp_sum
    }

    /// The best (lowest) possible [`Self::rp_cost`] given per-class PRP
    /// lower bounds — the pass-1 lower bound used to gate ACO.
    pub fn rp_cost_lb(&self, prp_lb: [usize; REG_CLASS_COUNT]) -> u64 {
        let prp = [prp_lb[0] as u32, prp_lb[1] as u32];
        self.rp_cost(prp)
    }
}

impl Default for OccupancyModel {
    fn default() -> OccupancyModel {
        OccupancyModel::vega_like()
    }
}

/// Dense per-class occupancy and APRP tables for one [`OccupancyModel`].
///
/// [`OccupancyModel::rp_cost`] costs a dozen-plus integer divisions
/// (occupancy banding plus the APRP band inversion), and schedule
/// construction calls it once per *candidate per step* — the pass-2
/// pressure-constraint check and the AMD heuristic's η both sit on it. The
/// PRP domain is tiny (bounded by each class's addressable file, 256 VGPRs
/// / 102 SGPRs on the paper's target), so the whole function tabulates:
/// build once per region, then every query is two array reads.
///
/// The tables cover PRP `0..=per_wave_max` exactly. Past the addressable
/// file the model is fixed: occupancy always spills to 1, and APRP is the
/// occupancy-1 band maximum when one exists, else the identity fallback of
/// [`OccupancyModel::aprp`]. All queries return exactly what the backing
/// model returns — verified by the equivalence tests below.
#[derive(Debug, Clone)]
pub struct OccupancyLut {
    /// `occ[c][prp]` = `class_occupancy(c, prp)` for `prp <= per_wave_max`.
    occ: [Vec<Waves>; REG_CLASS_COUNT],
    /// `aprp[c][prp]` = `aprp(c, prp)` for `prp <= per_wave_max`.
    aprp: [Vec<u32>; REG_CLASS_COUNT],
    /// `aprp` beyond the file: the occupancy-1 band maximum, or `None` for
    /// the model's identity fallback.
    aprp_overflow: [Option<u32>; REG_CLASS_COUNT],
    max_waves: Waves,
}

impl OccupancyLut {
    /// Tabulates the model. O(per-wave file sizes) with one division per
    /// allocation granule and one band inversion per occupancy value.
    pub fn new(model: &OccupancyModel) -> OccupancyLut {
        let table = |c: RegClass| {
            let file = &model.files[c.index()];
            let len = file.per_wave_max as usize + 1;
            let mut occ: Vec<Waves> = Vec::with_capacity(len);
            let mut aprp = Vec::with_capacity(len);
            // (occupancy, its band maximum) of the previous PRP.
            let mut band: Option<(Waves, Option<u32>)> = None;
            for prp in 0..len as u32 {
                // Occupancy is a function of the allocation, which only
                // changes on the first PRP of a granule (`1`, `1 + g`, ...).
                let o = match occ.last() {
                    Some(&o) if prp > 1 && (prp - 1) % file.granule != 0 => o,
                    _ => file.occupancy(prp, model.max_waves),
                };
                // `aprp` is `max_prp_for_occupancy` of the occupancy.
                let max = match band {
                    Some((b, max)) if b == o => max,
                    _ => model.max_prp_for_occupancy(c, o),
                };
                band = Some((o, max));
                occ.push(o);
                aprp.push(max.unwrap_or(prp));
            }
            (occ, aprp)
        };
        let (occ0, aprp0) = table(RegClass::ALL[0]);
        let (occ1, aprp1) = table(RegClass::ALL[1]);
        OccupancyLut {
            occ: [occ0, occ1],
            aprp: [aprp0, aprp1],
            aprp_overflow: [
                model.max_prp_for_occupancy(RegClass::ALL[0], 1),
                model.max_prp_for_occupancy(RegClass::ALL[1], 1),
            ],
            max_waves: model.max_waves,
        }
    }

    /// Table-lookup [`OccupancyModel::class_occupancy`].
    #[inline]
    pub fn class_occupancy(&self, class: RegClass, prp: u32) -> Waves {
        let t = &self.occ[class.index()];
        match t.get(prp as usize) {
            Some(&o) => o,
            None => 1, // past the addressable file: spill occupancy
        }
    }

    /// Table-lookup [`OccupancyModel::occupancy`].
    #[inline]
    pub fn occupancy(&self, prp: [u32; REG_CLASS_COUNT]) -> Waves {
        let a = self.class_occupancy(RegClass::ALL[0], prp[0]);
        let b = self.class_occupancy(RegClass::ALL[1], prp[1]);
        a.min(b)
    }

    /// Table-lookup [`OccupancyModel::aprp`].
    #[inline]
    pub fn aprp(&self, class: RegClass, prp: u32) -> u32 {
        let t = &self.aprp[class.index()];
        match t.get(prp as usize) {
            Some(&a) => a,
            None => self.aprp_overflow[class.index()].unwrap_or(prp),
        }
    }

    /// Table-lookup [`OccupancyModel::rp_cost`].
    #[inline]
    pub fn rp_cost(&self, prp: [u32; REG_CLASS_COUNT]) -> u64 {
        let occ = self.occupancy(prp);
        let lost = (self.max_waves - occ) as u64;
        let mut aprp_sum = 0u64;
        for c in RegClass::ALL {
            if prp[c.index()] > 0 {
                aprp_sum += self.aprp(c, prp[c.index()]) as u64;
            }
        }
        lost * 100_000 + aprp_sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_vgpr_bands() {
        let m = OccupancyModel::vega_like();
        for prp in 1..=24 {
            assert_eq!(m.class_occupancy(RegClass::Vgpr, prp), 10, "prp={prp}");
            assert_eq!(m.aprp(RegClass::Vgpr, prp), 24, "prp={prp}");
        }
        for prp in 25..=28 {
            assert_eq!(m.class_occupancy(RegClass::Vgpr, prp), 9, "prp={prp}");
            assert_eq!(m.aprp(RegClass::Vgpr, prp), 28, "prp={prp}");
        }
        assert_eq!(m.class_occupancy(RegClass::Vgpr, 32), 8);
        assert_eq!(m.class_occupancy(RegClass::Vgpr, 256), 1);
    }

    #[test]
    fn zero_pressure_gives_max_occupancy() {
        let m = OccupancyModel::vega_like();
        assert_eq!(m.class_occupancy(RegClass::Vgpr, 0), 10);
        assert_eq!(m.occupancy([0, 0]), 10);
    }

    #[test]
    fn combined_occupancy_is_min_of_classes() {
        let m = OccupancyModel::vega_like();
        // 40 VGPRs -> 256/40 -> 6; 16 SGPRs -> 800/16 -> 10 (capped)
        assert_eq!(m.occupancy([40, 16]), 6);
        // SGPR-limited case: 400 SGPRs is over the per-wave max -> occupancy 1
        assert_eq!(m.occupancy([1, 400]), 1);
    }

    #[test]
    fn aprp_is_idempotent_and_monotone_band_max() {
        let m = OccupancyModel::vega_like();
        for prp in 1..=256u32 {
            let a = m.aprp(RegClass::Vgpr, prp);
            assert!(a >= prp, "APRP must not be below PRP (prp={prp}, aprp={a})");
            assert_eq!(
                m.class_occupancy(RegClass::Vgpr, a),
                m.class_occupancy(RegClass::Vgpr, prp),
                "APRP must preserve occupancy (prp={prp})"
            );
            assert_eq!(m.aprp(RegClass::Vgpr, a), a, "APRP idempotent (prp={prp})");
        }
    }

    #[test]
    fn max_prp_for_occupancy_inverts_occupancy() {
        let m = OccupancyModel::vega_like();
        assert_eq!(m.max_prp_for_occupancy(RegClass::Vgpr, 10), Some(24));
        assert_eq!(m.max_prp_for_occupancy(RegClass::Vgpr, 9), Some(28));
        assert_eq!(m.max_prp_for_occupancy(RegClass::Vgpr, 0), None);
        assert_eq!(m.max_prp_for_occupancy(RegClass::Vgpr, 11), None);
    }

    #[test]
    fn rp_cost_prefers_occupancy_over_aprp() {
        let m = OccupancyModel::vega_like();
        // occupancy 10 with big SGPR use beats occupancy 9 with tiny use.
        let high_occ = m.rp_cost([24, 80]);
        let low_occ = m.rp_cost([25, 1]);
        assert!(high_occ < low_occ);
    }

    #[test]
    fn rp_cost_breaks_ties_by_aprp() {
        let m = OccupancyModel::vega_like();
        assert!(m.rp_cost([32, 0]) < m.rp_cost([36, 0])); // both occupancy 8
        assert_eq!(m.rp_cost([30, 0]), m.rp_cost([32, 0])); // same band
    }

    #[test]
    fn custom_model_respects_parameters() {
        let m = OccupancyModel::custom([64, 64], [1, 1], [64, 64], 4);
        assert_eq!(m.max_waves(), 4);
        assert_eq!(m.class_occupancy(RegClass::Vgpr, 16), 4);
        assert_eq!(m.class_occupancy(RegClass::Vgpr, 17), 3);
        assert_eq!(m.aprp(RegClass::Vgpr, 17), 21); // 64/3 = 21
    }

    #[test]
    fn lut_matches_model_exhaustively() {
        for m in [
            OccupancyModel::vega_like(),
            OccupancyModel::unit(),
            OccupancyModel::custom([64, 64], [1, 1], [64, 64], 4),
            OccupancyModel::custom([96, 800], [8, 16], [84, 102], 20),
        ] {
            let lut = OccupancyLut::new(&m);
            // Well past both per-wave maxima, to exercise the clamp rows.
            for p0 in 0..=300u32 {
                for c in RegClass::ALL {
                    assert_eq!(lut.class_occupancy(c, p0), m.class_occupancy(c, p0));
                    assert_eq!(lut.aprp(c, p0), m.aprp(c, p0));
                }
            }
            for p0 in (0..=300u32).step_by(7) {
                for p1 in (0..=150u32).step_by(3) {
                    assert_eq!(lut.occupancy([p0, p1]), m.occupancy([p0, p1]));
                    assert_eq!(lut.rp_cost([p0, p1]), m.rp_cost([p0, p1]));
                }
            }
        }
    }

    /// Holds every query of `OccupancyLut::new(m)` to `m`, a few PRPs past
    /// each per-wave maximum.
    fn assert_lut_matches(m: &OccupancyModel) {
        let lut = OccupancyLut::new(m);
        let past = |c: RegClass| m.files[c.index()].per_wave_max + 3;
        for c in RegClass::ALL {
            for prp in 0..=past(c) {
                assert_eq!(
                    (lut.class_occupancy(c, prp), lut.aprp(c, prp)),
                    (m.class_occupancy(c, prp), m.aprp(c, prp)),
                    "{m:?}: {c} at {prp}"
                );
            }
        }
        let steps = |c: RegClass| (past(c) / 12).max(1) as usize;
        for p0 in (0..=past(RegClass::Vgpr)).step_by(steps(RegClass::Vgpr)) {
            for p1 in (0..=past(RegClass::Sgpr)).step_by(steps(RegClass::Sgpr)) {
                assert_eq!(lut.occupancy([p0, p1]), m.occupancy([p0, p1]), "{m:?}");
                assert_eq!(lut.rp_cost([p0, p1]), m.rp_cost([p0, p1]), "{m:?}");
            }
        }
    }

    #[test]
    #[ignore = "long: run with --release -- --ignored (scripts/check.sh does)"]
    fn lut_matches_model_on_a_parameter_grid() {
        let mut models = 0;
        for granule in 1..=16u32 {
            // Budgets below, at and past the granule; per-wave maxima on
            // and off a multiple of it.
            let budgets = [0, granule - 1, granule, 3 * granule + 1, 64, 257, 800];
            let maxima = [1, granule, granule + 1, 5 * granule + 3, 102, 256];
            for budget in budgets {
                for per_wave_max in maxima {
                    for max_waves in 1..=20 {
                        // The SGPR file takes other parameters, so the two
                        // tables differ.
                        assert_lut_matches(&OccupancyModel::custom(
                            [budget, budget / 2 + 7],
                            [granule, 17 - granule],
                            [per_wave_max, per_wave_max / 3 + 1],
                            max_waves,
                        ));
                        models += 1;
                    }
                }
            }
        }
        assert_eq!(models, 16 * 7 * 6 * 20);
    }

    #[test]
    fn signature_roundtrips_every_model() {
        for m in [
            OccupancyModel::vega_like(),
            OccupancyModel::unit(),
            OccupancyModel::custom([31, 17], [3, 5], [20, 9], 7),
        ] {
            assert_eq!(OccupancyModel::from_signature(m.signature()), m);
        }
    }

    #[test]
    fn sgpr_band_example() {
        let m = OccupancyModel::vega_like();
        // 80 SGPRs -> 800/80 = 10 waves
        assert_eq!(m.class_occupancy(RegClass::Sgpr, 80), 10);
        // 96 SGPRs -> 800/96 = 8 waves
        assert_eq!(m.class_occupancy(RegClass::Sgpr, 96), 8);
    }
}
