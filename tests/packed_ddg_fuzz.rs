//! Property test of `PackedDdg`, the schedule cache's stored region, and
//! of the cache key's content fingerprint: on random regions, generated
//! ones, `workloads::mutate` mutants and pairs that differ only in names,
//! latencies or edge order,
//!
//! * `PackedDdg::new(a).matches(b)` is `a.content_eq(b)`,
//! * `ddg_content_fingerprint(a) == ddg_content_fingerprint(b)` is
//!   `a.content_eq(b)`, so the key separates exactly what the cache's
//!   equality gate compares, and
//! * `PackedDdg::new(a).unpack()` prints `a`'s text.
//!
//! Each case is generated from its own seed, so a failure names the one
//! case to replay. Tier-1 runs a few hundred cases; the long run is
//! `cargo test --release --test packed_ddg_fuzz -- --ignored`
//! (`scripts/check.sh` runs it).

use gpu_aco::bench_workloads::{mutate, patterns};
use gpu_aco::ir::textir::to_text;
use gpu_aco::ir::{ddg_content_fingerprint, Ddg, DdgBuilder, InstrId, PackedDdg, Reg, MAX_REG_ID};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Fisher–Yates.
fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

fn pick<'a, T>(v: &'a mut [T], rng: &mut SmallRng) -> Option<&'a mut T> {
    let i = rng.gen_range(0..v.len().max(1));
    v.get_mut(i)
}

/// One random instruction: a name and its def and use registers.
type Row = (String, Vec<Reg>, Vec<Reg>);

/// A region before it is built: rows, then edges in insertion order.
#[derive(Clone)]
struct Recipe {
    rows: Vec<Row>,
    edges: Vec<(u32, u32, u16)>,
}

impl Recipe {
    fn random(rng: &mut SmallRng) -> Recipe {
        let n = rng.gen_range(0..40usize);
        let reg = |rng: &mut SmallRng| {
            // Mostly small ids, sometimes ids that take several varint
            // bytes, up to the largest a register holds.
            let id = match rng.gen_range(0..10) {
                0 => rng.gen_range(0..=MAX_REG_ID),
                1 => MAX_REG_ID,
                _ => rng.gen_range(0..200),
            };
            if rng.gen_bool(0.5) {
                Reg::vgpr(id)
            } else {
                Reg::sgpr(id)
            }
        };
        let names = ["", "v_add_u32", "s_load_dword", "é", "名前", "x.y-z"];
        let rows = (0..n)
            .map(|i| {
                let name = format!("{}{i}", names[rng.gen_range(0..names.len())]);
                let defs = (0..rng.gen_range(0..4)).map(|_| reg(rng)).collect();
                let uses = (0..rng.gen_range(0..5)).map(|_| reg(rng)).collect();
                (name, defs, uses)
            })
            .collect();
        // Edges follow a random order of the nodes, so the region is
        // acyclic; repeats are merged by the builder.
        let mut order: Vec<u32> = (0..n as u32).collect();
        shuffle(&mut order, rng);
        let mut edges = Vec::new();
        if n > 1 {
            for _ in 0..rng.gen_range(0..3 * n) {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if a != b {
                    let (from, to) = (order[a.min(b)], order[a.max(b)]);
                    let latency = match rng.gen_range(0..8) {
                        0 => u16::MAX,
                        1 => rng.gen(),
                        _ => rng.gen_range(0..30),
                    };
                    edges.push((from, to, latency));
                }
            }
        }
        Recipe { rows, edges }
    }

    fn build(&self) -> Ddg {
        let mut b = DdgBuilder::new();
        for (name, defs, uses) in &self.rows {
            b.instr(name, defs.iter().copied(), uses.iter().copied());
        }
        for &(from, to, latency) in &self.edges {
            b.edge(InstrId(from), InstrId(to), latency)
                .expect("in range");
        }
        b.build().expect("edges follow one order")
    }
}

/// The regions of one case: a base region and its near misses.
fn regions(case: u64) -> Vec<Ddg> {
    let mut rng = SmallRng::seed_from_u64(case);
    let base = Recipe::random(&mut rng);
    let mut out = vec![base.build(), Recipe::random(&mut rng).build()];
    let mut variant = |change: &mut dyn FnMut(&mut Recipe, &mut SmallRng)| {
        let mut r = base.clone();
        change(&mut r, &mut rng);
        out.push(r.build());
    };
    // Names only: the same content.
    variant(&mut |r, rng| {
        for row in &mut r.rows {
            row.0 = format!("renamed_{}", rng.gen::<u16>());
        }
    });
    // One latency.
    variant(&mut |r, rng| {
        if let Some(e) = pick(&mut r.edges, rng) {
            e.2 = e.2.wrapping_add(rng.gen_range(1..3));
        }
    });
    // Edge order: the same edge set inserted in another order, which can
    // move edges within a successor row.
    variant(&mut |r, rng| shuffle(&mut r.edges, rng));
    variant(&mut |r, _| r.edges.reverse());
    // A register moved across the def/use split, or to the other class.
    variant(&mut |r, rng| {
        if let Some(row) = pick(&mut r.rows, rng) {
            if let Some(reg) = row.1.pop() {
                row.2.insert(0, reg);
            }
        }
    });
    variant(&mut |r, rng| {
        if let Some(reg) = pick(&mut r.rows, rng).and_then(|row| row.2.first_mut()) {
            *reg = if *reg == Reg::vgpr(reg.id()) {
                Reg::sgpr(reg.id())
            } else {
                Reg::vgpr(reg.id())
            };
        }
    });
    // One instruction fewer at the end.
    variant(&mut |r, _| {
        if let Some(last) = r.rows.len().checked_sub(1) {
            r.rows.pop();
            r.edges
                .retain(|e| e.0 as usize != last && e.1 as usize != last);
        }
    });
    // A generated region and what `mutate` plants in it.
    let generated = patterns::sized(rng.gen_range(2..60), case);
    out.extend(mutate::with_redundant_edge(&generated, case).map(|(d, _)| d));
    out.extend(mutate::with_corrupt_latency(&generated, case).map(|(d, _)| d));
    out.push(mutate::with_orphan_node(&generated).0);
    out.push(generated);
    out
}

/// Checks every ordered pair of one case; returns how many pairs were
/// content-equal and how many were not.
fn check(case: u64) -> (usize, usize) {
    let all = regions(case);
    let fps: Vec<u64> = all.iter().map(ddg_content_fingerprint).collect();
    let (mut equal, mut unequal) = (0, 0);
    for (i, a) in all.iter().enumerate() {
        let packed = PackedDdg::new(a);
        assert_eq!(
            to_text(&packed.unpack()),
            to_text(a),
            "case {case}, region {i}"
        );
        for (j, b) in all.iter().enumerate() {
            let want = a.content_eq(b);
            assert_eq!(packed.matches(b), want, "case {case}, regions {i} and {j}");
            assert_eq!(
                fps[i] == fps[j],
                want,
                "case {case}, regions {i} and {j}: fingerprints"
            );
            if want {
                equal += 1;
            } else {
                unequal += 1;
            }
        }
    }
    (equal, unequal)
}

fn run(cases: std::ops::Range<u64>) -> (usize, usize) {
    let tally = cases.map(check).fold((0, 0), |t, c| (t.0 + c.0, t.1 + c.1));
    println!("{} content-equal pairs, {} not", tally.0, tally.1);
    tally
}

#[test]
fn a_packed_region_answers_as_content_eq_and_prints_its_text() {
    let (equal, unequal) = run(0..300);
    // Both answers are exercised, "equal" well beyond the 300 cases' ~13
    // regions compared with themselves.
    assert!(equal > 5_000 && unequal > 40_000, "{equal} / {unequal}");
}

#[test]
#[ignore = "long run: --release -- --ignored (scripts/check.sh does)"]
fn a_packed_region_answers_as_content_eq_and_prints_its_text_long() {
    let (equal, unequal) = run(300..60_000);
    assert!(
        equal > 1_000_000 && unequal > 7_000_000,
        "{equal} / {unequal}"
    );
}
