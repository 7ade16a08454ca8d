//! DDG generators for kernel-shaped scheduling regions.
//!
//! Each generator produces an SSA-form [`Ddg`] with def→use edges labelled
//! with [`machine_model`] latencies. All generators are deterministic in
//! their seed.

use machine_model::{op_latency, OpKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sched_ir::{Ddg, DdgBuilder, InstrId, Reg};

/// Tracks SSA register allocation and the value-producing instruction of
/// each register while a pattern is being built.
struct GenCtx {
    b: DdgBuilder,
    next_vgpr: u32,
    next_sgpr: u32,
}

/// A value: the register holding it and the instruction that produced it
/// (None for live-in values).
#[derive(Clone, Copy)]
struct Val {
    reg: Reg,
    producer: Option<InstrId>,
    kind: OpKind,
}

impl GenCtx {
    fn new() -> GenCtx {
        GenCtx {
            b: DdgBuilder::new(),
            next_vgpr: 0,
            next_sgpr: 0,
        }
    }

    fn fresh_vgpr(&mut self) -> Reg {
        let r = Reg::vgpr(self.next_vgpr);
        self.next_vgpr += 1;
        r
    }

    fn fresh_sgpr(&mut self) -> Reg {
        let r = Reg::sgpr(self.next_sgpr);
        self.next_sgpr += 1;
        r
    }

    /// A live-in scalar value (e.g. a kernel argument / base pointer).
    fn live_in_sgpr(&mut self) -> Val {
        let reg = self.fresh_sgpr();
        Val {
            reg,
            producer: None,
            kind: OpKind::SaluAlu,
        }
    }

    /// Emits an instruction producing one fresh VGPR from `inputs`, adding
    /// def→use edges with the producer's latency.
    fn emit(&mut self, kind: OpKind, inputs: &[Val]) -> Val {
        let reg = self.fresh_vgpr();
        let id = self.b.instr(
            format_args!("{}_{}", kind.mnemonic(), self.b.len()),
            [reg],
            inputs.iter().map(|v| v.reg),
        );
        self.link(id, inputs);
        Val {
            reg,
            producer: Some(id),
            kind,
        }
    }

    /// Emits an instruction producing `ndefs` fresh VGPRs (a vector value,
    /// e.g. a `dwordx4` load) from `inputs`.
    fn emit_multi(&mut self, kind: OpKind, inputs: &[Val], ndefs: usize) -> Vec<Val> {
        let regs: Vec<Reg> = (0..ndefs).map(|_| self.fresh_vgpr()).collect();
        let id = self.b.instr(
            format_args!("{}_{}", kind.mnemonic(), self.b.len()),
            regs.iter().copied(),
            inputs.iter().map(|v| v.reg),
        );
        self.link(id, inputs);
        regs.into_iter()
            .map(|reg| Val {
                reg,
                producer: Some(id),
                kind,
            })
            .collect()
    }

    /// Emits a value-consuming instruction with no def (a store).
    fn emit_sink(&mut self, kind: OpKind, inputs: &[Val]) -> InstrId {
        let id = self.b.instr(
            format_args!("{}_{}", kind.mnemonic(), self.b.len()),
            [],
            inputs.iter().map(|v| v.reg),
        );
        self.link(id, inputs);
        id
    }

    fn link(&mut self, id: InstrId, inputs: &[Val]) {
        for v in inputs {
            if let Some(p) = v.producer {
                self.b
                    .edge(p, id, op_latency(v.kind))
                    .expect("generator edges are valid");
            }
        }
    }

    fn finish(self) -> Ddg {
        self.b
            .build()
            .expect("generated DDGs are acyclic by construction")
    }
}

/// A binary-tree reduction over `lanes` loaded elements
/// (`lanes` loads + `lanes - 1` adds + 1 store); the canonical rocPRIM
/// `block_reduce` shape: maximal ILP at the leaves, a latency-bound root.
///
/// # Panics
///
/// Panics if `lanes == 0`.
pub fn reduction(lanes: usize, seed: u64) -> Ddg {
    assert!(lanes > 0, "reduction needs at least one lane");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0FFEE);
    let mut g = GenCtx::new();
    let base = g.live_in_sgpr();
    let mut level: Vec<Val> = (0..lanes)
        .map(|_| g.emit(OpKind::VMemLoad, &[base]))
        .collect();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            if pair.len() == 2 {
                // Occasionally a fused op with longer latency.
                let kind = if rng.gen_bool(0.1) {
                    OpKind::VTrans
                } else {
                    OpKind::ValuAlu
                };
                next.push(g.emit(kind, &[pair[0], pair[1]]));
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
    }
    let root = level[0];
    g.emit_sink(OpKind::VMemStore, &[root, base]);
    g.finish()
}

/// A Kogge–Stone inclusive scan over `lanes` elements (`lanes` loads,
/// `lanes·⌈log2 lanes⌉` adds in dependent rounds, `lanes` stores) — the
/// rocPRIM `block_scan` shape: wide rounds with tight cross-round deps.
///
/// # Panics
///
/// Panics if `lanes == 0`.
pub fn scan(lanes: usize, seed: u64) -> Ddg {
    assert!(lanes > 0, "scan needs at least one lane");
    let _ = seed;
    let mut g = GenCtx::new();
    let base = g.live_in_sgpr();
    let mut vals: Vec<Val> = (0..lanes)
        .map(|_| g.emit(OpKind::VMemLoad, &[base]))
        .collect();
    let mut d = 1;
    while d < lanes {
        let prev = vals.clone();
        for i in d..lanes {
            vals[i] = g.emit(OpKind::ValuAlu, &[prev[i], prev[i - d]]);
        }
        d *= 2;
    }
    for v in &vals {
        g.emit_sink(OpKind::VMemStore, &[*v, base]);
    }
    g.finish()
}

/// `streams` independent load→ALU-chain→store pipelines of depth
/// `chain_len`; the rocPRIM `transform`/`for_each` shape. ILP comes from
/// interleaving streams; pressure from how many streams are in flight.
///
/// # Panics
///
/// Panics if `streams == 0`.
pub fn transform_chain(streams: usize, chain_len: usize, seed: u64) -> Ddg {
    assert!(streams > 0, "transform needs at least one stream");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xBEEF);
    let mut g = GenCtx::new();
    let base = g.live_in_sgpr();
    for _ in 0..streams {
        let mut v = g.emit(OpKind::VMemLoad, &[base]);
        for _ in 0..chain_len {
            let kind = if rng.gen_bool(0.15) {
                OpKind::VTrans
            } else {
                OpKind::ValuAlu
            };
            v = g.emit(kind, &[v]);
        }
        g.emit_sink(OpKind::VMemStore, &[v, base]);
    }
    g.finish()
}

/// `width` parallel pointer-chase chains of `depth` *dependent* loads each
/// (each load's address comes from the previous load), combined by a
/// reduction tree — the rocPRIM gather / binary-search shape. Dependent
/// long-latency loads make these regions stall-heavy: their heuristic
/// schedules sit far above the length lower bound, which is exactly the
/// population the paper's pass 2 processes.
///
/// # Panics
///
/// Panics if `width == 0` or `depth == 0`.
pub fn gather_chain(width: usize, depth: usize, seed: u64) -> Ddg {
    assert!(
        width > 0 && depth > 0,
        "gather needs at least one chain and one hop"
    );
    let _ = seed;
    let mut g = GenCtx::new();
    let base = g.live_in_sgpr();
    let mut heads = Vec::with_capacity(width);
    for _ in 0..width {
        let mut v = g.emit(OpKind::VMemLoad, &[base]);
        for _ in 1..depth {
            v = g.emit(OpKind::VMemLoad, &[v]);
        }
        heads.push(v);
    }
    while heads.len() > 1 {
        let mut next = Vec::with_capacity(heads.len().div_ceil(2));
        for pair in heads.chunks(2) {
            if pair.len() == 2 {
                next.push(g.emit(OpKind::ValuAlu, &[pair[0], pair[1]]));
            } else {
                next.push(pair[0]);
            }
        }
        heads = next;
    }
    g.emit_sink(OpKind::VMemStore, &[heads[0], base]);
    g.finish()
}

/// `streams` independent pipelines over `width`-register vector values
/// (dwordx`width` loads, per-lane ALU chains, vector stores) — the rocPRIM
/// `items_per_thread`-unrolled shape. Register pressure is roughly
/// `streams × width`, so even *small* regions can exceed the top occupancy
/// band and give ACO's RP pass something to do.
///
/// # Panics
///
/// Panics if `streams`, `chain_len` or `width` is 0.
pub fn vector_transform(streams: usize, chain_len: usize, width: usize, seed: u64) -> Ddg {
    assert!(streams > 0 && chain_len > 0 && width > 0);
    let _ = seed;
    let mut g = GenCtx::new();
    let base = g.live_in_sgpr();
    for _ in 0..streams {
        let mut vals = g.emit_multi(OpKind::VMemLoad, &[base], width);
        for _ in 0..chain_len {
            let inputs = vals.clone();
            vals = g.emit_multi(OpKind::ValuAlu, &inputs, width);
        }
        let mut store_inputs = vals;
        store_inputs.push(base);
        g.emit_sink(OpKind::VMemStore, &store_inputs);
    }
    g.finish()
}

/// A 1-D stencil producing `outputs` points from a window of `2·radius + 1`
/// neighbours; loads are shared between adjacent outputs (high reuse, LUC
/// matters).
///
/// # Panics
///
/// Panics if `outputs == 0`.
pub fn stencil(outputs: usize, radius: usize, seed: u64) -> Ddg {
    assert!(outputs > 0, "stencil needs at least one output");
    let _ = seed;
    let mut g = GenCtx::new();
    let base = g.live_in_sgpr();
    let width = 2 * radius + 1;
    let loads: Vec<Val> = (0..outputs + width - 1)
        .map(|_| g.emit(OpKind::VMemLoad, &[base]))
        .collect();
    for o in 0..outputs {
        let mut acc = loads[o];
        for w in 1..width {
            acc = g.emit(OpKind::ValuAlu, &[acc, loads[o + w]]);
        }
        g.emit_sink(OpKind::VMemStore, &[acc, base]);
    }
    g.finish()
}

/// A bitonic sorting network over `lanes` wires (compare-exchange pairs emit
/// a min and a max instruction); the rocPRIM `block_sort` shape.
///
/// # Panics
///
/// Panics if `lanes` is not a power of two or is zero.
pub fn sort_network(lanes: usize, seed: u64) -> Ddg {
    assert!(
        lanes > 0 && lanes.is_power_of_two(),
        "bitonic network needs a power of two"
    );
    let _ = seed;
    let mut g = GenCtx::new();
    let base = g.live_in_sgpr();
    let mut wires: Vec<Val> = (0..lanes)
        .map(|_| g.emit(OpKind::VMemLoad, &[base]))
        .collect();
    let mut k = 2;
    while k <= lanes {
        let mut j = k / 2;
        while j > 0 {
            for i in 0..lanes {
                let l = i ^ j;
                if l > i {
                    let (a, b) = (wires[i], wires[l]);
                    let lo = g.emit(OpKind::ValuAlu, &[a, b]); // min
                    let hi = g.emit(OpKind::ValuAlu, &[a, b]); // max
                    if (i & k) == 0 {
                        wires[i] = lo;
                        wires[l] = hi;
                    } else {
                        wires[i] = hi;
                        wires[l] = lo;
                    }
                }
            }
            j /= 2;
        }
        k *= 2;
    }
    for w in &wires {
        g.emit_sink(OpKind::VMemStore, &[*w, base]);
    }
    g.finish()
}

/// A layered random DAG: `layers` layers of width up to `width`, each node
/// consuming 1–3 values from earlier layers (biased to the previous one).
/// Op kinds are mixed (mostly ALU, some loads and transcendentals).
///
/// # Panics
///
/// Panics if `layers == 0` or `width == 0`.
pub fn random_layered(layers: usize, width: usize, seed: u64) -> Ddg {
    assert!(layers > 0 && width > 0);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xDA6);
    let mut g = GenCtx::new();
    let base = g.live_in_sgpr();
    let mut all: Vec<Val> = Vec::new();
    let mut prev_layer: Vec<Val> = Vec::new();
    for layer in 0..layers {
        let w = rng.gen_range(1..=width);
        let mut cur = Vec::with_capacity(w);
        for _ in 0..w {
            if layer == 0 || all.is_empty() || rng.gen_bool(0.15) {
                cur.push(g.emit(OpKind::VMemLoad, &[base]));
            } else {
                let k = rng.gen_range(1..=3usize);
                let mut inputs = Vec::with_capacity(k);
                for _ in 0..k {
                    let v = if !prev_layer.is_empty() && rng.gen_bool(0.7) {
                        prev_layer[rng.gen_range(0..prev_layer.len())]
                    } else {
                        all[rng.gen_range(0..all.len())]
                    };
                    inputs.push(v);
                }
                let kind = match rng.gen_range(0..10) {
                    0 => OpKind::VTrans,
                    1 => OpKind::Lds,
                    _ => OpKind::ValuAlu,
                };
                cur.push(g.emit(kind, &inputs));
            }
        }
        all.extend(cur.iter().copied());
        prev_layer = cur;
    }
    // Store the final layer so its values are consumed.
    for v in &prev_layer {
        g.emit_sink(OpKind::VMemStore, &[*v, base]);
    }
    g.finish()
}

/// The mixed-pattern region kinds [`sized`] chooses between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PatternKind {
    Reduction,
    Scan,
    Transform,
    VectorTransform,
    Stencil,
    Sort,
    Gather,
    Random,
}

/// Generates a mixed-pattern region of approximately `target` instructions
/// (within ±20%), choosing a pattern shape pseudo-randomly from the seed.
///
/// This is the workhorse used by the suite generator: the paper's region
/// sizes vary from a couple of instructions to thousands, and ACO's
/// behaviour depends mostly on the size and latency structure, not on which
/// library kernel the region came from.
///
/// # Panics
///
/// Panics if `target < 2`.
pub fn sized(target: usize, seed: u64) -> Ddg {
    assert!(target >= 2, "regions need at least two instructions");
    let mut rng = SmallRng::seed_from_u64(seed);
    let kind = match rng.gen_range(0..100) {
        0..=14 => PatternKind::Transform,
        15..=26 => PatternKind::VectorTransform,
        27..=40 => PatternKind::Reduction,
        41..=48 => PatternKind::Scan,
        49..=59 => PatternKind::Stencil,
        60..=66 => PatternKind::Sort,
        67..=81 => PatternKind::Gather,
        _ => PatternKind::Random,
    };
    let sub = rng.gen::<u64>();
    match kind {
        // reduction: n = 2*lanes exactly.
        PatternKind::Reduction if target >= 4 => reduction(target / 2, sub),
        // scan: n = lanes + Σ_d (lanes - d) + lanes; search the smallest
        // lane count whose exact cost reaches the target.
        PatternKind::Scan if target >= 8 => {
            let mut lanes = 2usize;
            while scan_cost(lanes) < target {
                lanes += 1;
            }
            scan(lanes, sub)
        }
        // transform: n = streams * (chain + 2) exactly; round streams.
        PatternKind::Transform if target >= 6 => {
            let chain = rng.gen_range(1..=6usize);
            let per = chain + 2;
            let streams = ((target + per / 2) / per).max(1);
            transform_chain(streams, chain, sub)
        }
        // stencil: n = (outputs + width - 1) + outputs*(width - 1) + outputs.
        PatternKind::Stencil if target >= 8 => {
            let radius_max = match target {
                0..=15 => 1,
                16..=23 => 2,
                _ => 3,
            };
            let radius = rng.gen_range(1..=radius_max);
            let width = 2 * radius + 1;
            let per = width + 1;
            let outputs = ((target.saturating_sub(width - 1) + per / 2) / per).max(1);
            stencil(outputs, radius, sub)
        }
        // sort: lane counts are powers of two, so the exact cost is coarse;
        // take the closest and fall back to a random DAG when the gap
        // exceeds ±20%.
        PatternKind::Sort if target >= 12 => {
            let mut best = (2usize, sort_cost(2));
            let mut lanes = 4usize;
            while sort_cost(lanes / 2) < target * 2 {
                if sort_cost(lanes).abs_diff(target) < best.1.abs_diff(target) {
                    best = (lanes, sort_cost(lanes));
                }
                lanes *= 2;
            }
            if best.1.abs_diff(target) * 5 <= target {
                sort_network(best.0, sub)
            } else {
                random_budget(target, &mut rng)
            }
        }
        // vector transform: n = streams * (chain + 2).
        PatternKind::VectorTransform if target >= 8 => {
            let chain = rng.gen_range(1..=4usize);
            let width = rng.gen_range(2..=4usize);
            let per = chain + 2;
            let streams = ((target + per / 2) / per).max(2);
            vector_transform(streams, chain, width, sub)
        }
        // gather: n = width*depth + (width-1) + 1 = width*(depth+1).
        PatternKind::Gather if target >= 6 => {
            let depth = rng.gen_range(2..=6usize);
            let width = target.div_ceil(depth + 1).max(1);
            gather_chain(width, depth, sub)
        }
        _ => random_budget(target, &mut rng),
    }
}

/// Exact instruction count of [`scan`] with the given lane count.
fn scan_cost(lanes: usize) -> usize {
    let mut adds = 0;
    let mut d = 1;
    while d < lanes {
        adds += lanes - d;
        d *= 2;
    }
    2 * lanes + adds
}

/// Exact instruction count of [`sort_network`] with the given lane count.
fn sort_cost(lanes: usize) -> usize {
    let stages: usize = (1..=lanes.ilog2() as usize).sum();
    2 * lanes + lanes * stages
}

/// A layered random DAG with an exact instruction budget: emits layers
/// until `target` instructions (including the trailing stores) are placed.
fn random_budget(target: usize, rng: &mut SmallRng) -> Ddg {
    let mut g = GenCtx::new();
    let base = g.live_in_sgpr();
    let width = rng.gen_range(2..=8usize).min(target);
    // Fix the store count up front so the total is exactly `target`.
    let stores = (target / 10).clamp(1, 8);
    let interior = target - stores;
    let mut all: Vec<Val> = Vec::new();
    let mut prev_layer: Vec<Val> = Vec::new();
    while g.b.len() < interior {
        let room = interior - g.b.len();
        let w = rng.gen_range(1..=width).min(room);
        let mut cur = Vec::with_capacity(w);
        for _ in 0..w {
            if all.is_empty() || rng.gen_bool(0.15) {
                cur.push(g.emit(OpKind::VMemLoad, &[base]));
            } else {
                let k = rng.gen_range(1..=3usize);
                let mut inputs = Vec::with_capacity(k);
                for _ in 0..k {
                    let v = if !prev_layer.is_empty() && rng.gen_bool(0.7) {
                        prev_layer[rng.gen_range(0..prev_layer.len())]
                    } else {
                        all[rng.gen_range(0..all.len())]
                    };
                    inputs.push(v);
                }
                let kind = match rng.gen_range(0..10) {
                    0 => OpKind::VTrans,
                    1 => OpKind::Lds,
                    _ => OpKind::ValuAlu,
                };
                cur.push(g.emit(kind, &inputs));
            }
        }
        all.extend(cur.iter().copied());
        prev_layer = cur;
    }
    // Store the most recently produced values (likely unconsumed).
    for i in 0..stores {
        let v = all[all.len() - 1 - (i % all.len())];
        g.emit_sink(OpKind::VMemStore, &[v, base]);
    }
    g.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_counts() {
        let g = reduction(16, 1);
        // 16 loads + 15 combines + 1 store
        assert_eq!(g.len(), 32);
        assert_eq!(g.leaves().count(), 1);
    }

    #[test]
    fn reduction_single_lane() {
        let g = reduction(1, 1);
        assert_eq!(g.len(), 2); // load + store
    }

    #[test]
    fn scan_counts() {
        let g = scan(8, 1);
        // 8 loads + (7+6+4) adds + 8 stores
        assert_eq!(g.len(), 8 + 17 + 8);
    }

    #[test]
    fn transform_chain_counts() {
        let g = transform_chain(4, 3, 1);
        assert_eq!(g.len(), 4 * (1 + 3 + 1));
        // Streams are independent: 4 roots.
        assert_eq!(g.roots().count(), 4);
    }

    #[test]
    fn stencil_shares_loads() {
        let g = stencil(4, 1, 1);
        // 6 loads + 4*2 adds + 4 stores
        assert_eq!(g.len(), 6 + 8 + 4);
    }

    #[test]
    fn sort_network_is_power_of_two_only() {
        let g = sort_network(4, 1);
        assert!(g.len() > 8);
        assert!(std::panic::catch_unwind(|| sort_network(3, 1)).is_err());
    }

    #[test]
    fn random_layered_is_deterministic() {
        let a = random_layered(10, 4, 99);
        let b = random_layered(10, 4, 99);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.edge_count(), b.edge_count());
    }

    #[test]
    fn all_patterns_validate_and_have_latencies() {
        let ddgs = [
            reduction(8, 2),
            scan(8, 2),
            transform_chain(3, 4, 2),
            stencil(5, 2, 2),
            sort_network(8, 2),
            random_layered(12, 5, 2),
        ];
        for g in &ddgs {
            assert!(g.len() >= 2);
            // Memory edges must carry long latencies somewhere.
            let max_lat = g
                .ids()
                .flat_map(|i| g.succs(i).iter().map(|&(_, l)| l))
                .max()
                .unwrap_or(0);
            assert!(
                max_lat >= op_latency(OpKind::VMemLoad),
                "latency structure missing"
            );
        }
    }

    #[test]
    fn sized_hits_target_within_20_percent() {
        for (target, seed) in [(20usize, 0u64), (50, 1), (100, 2), (200, 3), (400, 4)] {
            for s in 0..8u64 {
                let g = sized(target, seed * 100 + s);
                let lo = target * 8 / 10;
                let hi = target * 12 / 10 + 4;
                assert!(
                    g.len() >= lo.min(2) && g.len() <= hi,
                    "target {target} seed {s}: got {}",
                    g.len()
                );
            }
        }
    }

    #[test]
    fn vector_transform_has_wide_pressure() {
        let g = vector_transform(8, 3, 4, 1);
        assert_eq!(g.len(), 8 * 5);
        // Wide values: one load defines 4 registers.
        let max_defs = g.ids().map(|i| g.instr(i).defs().len()).max().unwrap();
        assert_eq!(max_defs, 4);
    }

    #[test]
    fn gather_chain_counts_and_shape() {
        let g = gather_chain(4, 3, 1);
        // 12 loads + 3 combines + 1 store
        assert_eq!(g.len(), 16);
        // Dependent loads: critical path far above the ALU-only depth.
        assert!(g.critical_path_length() >= 3 * op_latency(OpKind::VMemLoad) as u32);
        assert_eq!(g.roots().count(), 4);
    }

    #[test]
    fn sized_handles_tiny_regions() {
        for t in 2..=8usize {
            for s in 0..4u64 {
                let g = sized(t, s);
                assert!(
                    g.len() >= 2,
                    "target {t} seed {s} produced {} instrs",
                    g.len()
                );
            }
        }
    }
}
