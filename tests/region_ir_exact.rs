//! The flat region IR's front door is exact: on every text below,
//! `textir::parse_raw` → `RawRegion::into_ddg` (→ `DdgBuilder::build`) and
//! `textir::to_text` give the value the array-of-structures code they
//! replaced gives (`tests/oracle/mod.rs`, verbatim) — the same
//! `ParseTextError`, or the same names, defs, uses, `succs` stored order,
//! predecessor rows (derived from the successor rows), `pred_counts`,
//! `topo_order`, roots, `content_eq` answers and content fingerprint, and
//! byte-equal text. On every region built, `Schedule::from_order` over the
//! topological order and two random topological orders equals earliest fit
//! over the oracle's predecessor lists.
//!
//! Tier-1 runs a reduced corpus; the 9,941 regions of `frontend-large` run
//! with `cargo test --release --test region_ir_exact -- --ignored`
//! (`scripts/check.sh` does).

mod oracle;

use gpu_aco::bench_workloads::{mutate, patterns, Suite, SuiteConfig};
use gpu_aco::ir::textir::{self, ParseTextError};
use gpu_aco::ir::{ddg_content_fingerprint, Cycle, Ddg, Schedule};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What the comparison of one text found.
#[derive(Debug, Default, PartialEq, Eq)]
struct Tally {
    built: usize,
    rejected: usize,
    /// Texts the old parser panicked on (a multi-byte register class).
    old_panics: usize,
}

/// Field-for-field equality of an old and a flat region.
fn assert_same_region(old: &oracle::Ddg, new: &Ddg, what: &str) {
    assert_eq!(old.len(), new.len(), "{what}: len");
    assert_eq!(old.edge_count(), new.edge_count(), "{what}: edge count");
    for id in new.ids() {
        let (o, n) = (old.instr(id), new.instr(id));
        assert_eq!(o.name(), n.name(), "{what}: name of {id}");
        assert_eq!(o.defs(), n.defs(), "{what}: defs of {id}");
        assert_eq!(o.uses(), n.uses(), "{what}: uses of {id}");
        assert_eq!(old.succs(id), new.succs(id), "{what}: succs of {id}");
    }
    for (i, (old_row, row)) in oracle::pred_rows(old, new).iter().enumerate() {
        assert_eq!(old_row, row, "{what}: preds of i{i}");
    }
    assert_eq!(old.pred_counts, new.pred_counts(), "{what}: pred_counts");
    assert_eq!(old.topo, new.topo_order(), "{what}: topo_order");
    assert_eq!(old.roots, new.roots().collect::<Vec<_>>(), "{what}: roots");
    assert_eq!(
        oracle::ddg_content_fingerprint(old),
        ddg_content_fingerprint(new),
        "{what}: content fingerprint"
    );
    assert_eq!(
        oracle::to_text(old),
        textir::to_text(new),
        "{what}: to_text"
    );
}

/// `Schedule::from_order`, which derives each operand arrival as the
/// producers issue, against earliest fit over the oracle's predecessor
/// lists: on the topological order and on random ones drawn from `seed`.
fn assert_from_order_is_earliest_fit(old: &oracle::Ddg, new: &Ddg, what: &str, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut orders = vec![old.topo.clone()];
    for _ in 0..2 {
        let mut pending = old.pred_counts.clone();
        let mut ready = old.roots.clone();
        let mut order = Vec::with_capacity(old.len());
        while !ready.is_empty() {
            let id = ready.swap_remove(rng.gen_range(0..ready.len()));
            order.push(id);
            for &(s, _) in old.succs(id) {
                pending[s.index()] -= 1;
                if pending[s.index()] == 0 {
                    ready.push(s);
                }
            }
        }
        orders.push(order);
    }
    for order in orders {
        let mut want: Vec<Cycle> = vec![0; old.len()];
        let mut next_free = 0;
        for &id in &order {
            let arrival = old
                .preds(id)
                .iter()
                .map(|&(p, lat)| want[p.index()] + lat as Cycle);
            want[id.index()] = arrival.fold(next_free, Cycle::max);
            next_free = want[id.index()] + 1;
        }
        assert_eq!(
            Schedule::from_order(new, &order).cycles(),
            want,
            "{what}: from_order of {order:?}"
        );
    }
}

/// Holds the flat front door to the oracle on one text. `prev` is the last
/// region built, old and flat: `content_eq` has to answer alike on both
/// sides, both ways round.
fn check(text: &str, prev: &mut Option<(oracle::Ddg, Ddg)>, tally: &mut Tally) {
    let what = format!("{:?}", text.chars().take(120).collect::<String>());
    let Ok(old_raw) = catch_unwind(AssertUnwindSafe(|| oracle::parse_raw(text))) else {
        // The defect the flat parser fixed; what it answers instead is
        // pinned by `non_ascii_register_tokens_are_positioned_errors`.
        let e = textir::parse(text).expect_err("the old parser panicked here");
        assert!(e.message.starts_with("bad register"), "{what}: {e}");
        assert!(e.line > 0 && e.col > 0, "{what}: {e}");
        tally.old_panics += 1;
        return;
    };
    let new_raw = textir::parse_raw(text);
    let (old_raw, new_raw) = match (old_raw, new_raw) {
        (Err(o), Err(n)) => {
            assert_eq!(o, n, "{what}");
            assert_eq!(textir::parse(text).unwrap_err(), n, "{what}");
            tally.rejected += 1;
            return;
        }
        (Ok(o), Ok(n)) => (o, n),
        (o, n) => panic!("{what}: old {o:?} vs flat {n:?}"),
    };
    assert_eq!(old_raw.instrs.len(), new_raw.instrs.len(), "{what}");
    for (i, o) in old_raw.instrs.iter().enumerate() {
        let n = new_raw.instrs.get(i);
        assert_eq!(
            (o.name.as_str(), &o.defs[..], &o.uses[..], o.pos),
            (n.name(), n.defs(), n.uses(), new_raw.instr_pos[i]),
            "{what}: raw instr {i}"
        );
    }
    assert_eq!(old_raw.edges, new_raw.edges, "{what}: raw edges");
    let strict = textir::parse(text);
    match (old_raw.into_ddg(), new_raw.into_ddg()) {
        (Err(o), Err(n)) => {
            assert_eq!(o, n, "{what}");
            assert_eq!(strict.unwrap_err(), n, "{what}");
            tally.rejected += 1;
        }
        (Ok(old), Ok(new)) => {
            assert_same_region(&old, &new, &what);
            assert_from_order_is_earliest_fit(&old, &new, &what, tally.built as u64);
            let strict = strict.expect("parse is parse_raw + into_ddg");
            assert!(strict.content_eq(&new) && new.content_eq(&strict), "{what}");
            if let Some((prev_old, prev_new)) = prev {
                assert_eq!(old.content_eq(prev_old), new.content_eq(prev_new), "{what}");
                assert_eq!(
                    prev_old.content_eq(&old),
                    prev_new.content_eq(&new),
                    "{what}"
                );
            }
            *prev = Some((old, new));
            tally.built += 1;
        }
        (o, n) => panic!("{what}: old {:?} vs flat {:?}", o.err(), n.err()),
    }
}

/// The old struct holding what a flat region's accessors return, so the
/// old printer can render regions that never were text.
fn mirror(g: &Ddg) -> oracle::Ddg {
    let mut b = oracle::DdgBuilder::new();
    for id in g.ids() {
        let i = g.instr(id);
        b.instr(i.name(), i.defs().iter().copied(), i.uses().iter().copied());
    }
    for id in g.ids() {
        for &(s, lat) in g.succs(id) {
            b.edge(id, s, lat).expect("edges of a built region");
        }
    }
    b.build().expect("a built region is acyclic")
}

/// A generated region: printed byte for byte as the old printer prints it,
/// and (as text) through [`check`].
fn check_generated(g: &Ddg, prev: &mut Option<(oracle::Ddg, Ddg)>, tally: &mut Tally) {
    let text = textir::to_text(g);
    assert_eq!(text, oracle::to_text(&mirror(g)));
    assert_eq!(text.len(), text.capacity(), "printed text is exact-fit");
    check(&text, prev, tally);
}

/// The instruction lines of `text` followed by its edge lines shuffled,
/// with repeats at other latencies, reversed copies (cycles) and self
/// edges mixed in at the given per-edge odds.
fn reshuffled_edges(text: &str, rng: &mut SmallRng, repeat: f64, defect: f64) -> String {
    let (instrs, edges): (Vec<&str>, Vec<&str>) =
        text.lines().partition(|l| l.starts_with("instr"));
    let mut lines: Vec<String> = Vec::new();
    for e in edges {
        let f: Vec<&str> = e.split(' ').collect();
        lines.push(e.to_string());
        while rng.gen_bool(repeat) {
            lines.push(format!("edge {} {} {}", f[1], f[2], rng.gen_range(0..12)));
        }
        if rng.gen_bool(defect) {
            let to = if rng.gen_bool(0.5) { f[1] } else { f[2] };
            lines.push(format!("edge {} {to} 1", f[2]));
        }
    }
    for i in (1..lines.len()).rev() {
        lines.swap(i, rng.gen_range(0..i + 1));
    }
    // Edges first: every endpoint is a forward reference.
    let mut out = lines.join("\n");
    out.push('\n');
    out.push_str(&instrs.join("\n"));
    out
}

/// Byte-level variants of one valid text.
fn byte_mutations(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    // Truncation at every line boundary and inside every token.
    out.extend(
        (0..text.len())
            .filter(|&i| text.is_char_boundary(i))
            .map(|i| text[..i].to_string()),
    );
    out.push(text.replace('\n', "\r\n"));
    out.push(text.replace('\n', "\r"));
    for ws in [
        "\t", "\u{b}", "\u{c}", "  ", "\u{a0}", "\u{1680}", "\u{2003}", "\u{2028}", "\u{3000}",
        "\u{85}", "\u{200b}", "\u{feff}",
    ] {
        out.push(text.replace(' ', ws));
        out.push(text.replace('\n', &format!("{ws}\n{ws}")));
    }
    // A multi-byte character where a register class belongs: the inputs
    // the old parser panicked on.
    let reg_starts = [" defs ", " uses ", ","]
        .into_iter()
        .flat_map(|sep| text.match_indices(sep).map(|(i, sep)| i + sep.len()));
    for at in reg_starts.step_by(3) {
        out.push(format!("{}é{}", &text[..at], &text[at..]));
        out.push(format!("{}€{}", &text[..at], &text[at + 1..]));
    }
    // Every number in turn gains a `+`, a `-`, and grows past each range.
    let digits: Vec<usize> = text
        .char_indices()
        .filter(|&(i, c)| {
            c.is_ascii_digit() && !text[..i].ends_with(|p: char| p.is_ascii_digit() || p == '_')
        })
        .map(|(i, _)| i)
        .collect();
    for &i in digits.iter().step_by(3) {
        let end = i + text[i..]
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(text.len() - i);
        for with in [
            "+7",
            "-1",
            "4294967296",
            "4294967295",
            "65536",
            "65535",
            "1048576",
            "x",
            "",
        ] {
            out.push(format!("{}{with}{}", &text[..i], &text[end..]));
        }
        out.push(format!("{}+{}", &text[..i], &text[i..]));
    }
    out
}

/// Hand-written texts: each grammar corner the module docs promise, and
/// each rejection.
const CORNERS: &[&str] = &[
    "",
    "\n\n",
    "# only a comment",
    "   # indented comment\n\t#another\ninstr a",
    "instr",
    "instr a defs",
    "instr a uses",
    "instr a defs v0 uses",
    "instr a frobs v0",
    "instr a frobs",
    "instr a defs v0 frobs v1",
    "  instr a defs v0\n\tinstr b uses v0\n   edge 0 1 3",
    "instr a defs v0 defs v1",
    "instr a defs v0 uses s1 defs v1,v2 uses s2",
    "instr a uses s1 defs v0",
    "instr a uses s1 uses s2 defs v3 defs v4",
    "instr a defs q7 defs v0",
    "instr a defs v0 defs q7",
    "instr a defs ,",
    "instr a defs ,,v0,,v1,",
    "instr a defs v0, uses ,s1",
    "instr a defs v0,v0 uses v0,v0",
    "instr a defs v+1 uses s+0",
    "instr a defs v-1",
    "instr a defs v",
    "instr a defs 7",
    "instr a defs vv1",
    "instr a defs V1",
    "instr a defs v1048575",
    "instr a defs v1048576",
    "instr a defs v0,v1048576",
    "instr a defs v4294967295",
    "instr a defs v4294967296",
    "instr a defs v00000000000000000001",
    "instr defs defs v0",
    "instr instr uses s0",
    "instr # defs v0",
    "bogus",
    "   bogus x",
    "Instr a",
    "instr a\nedge",
    "instr a\nedge 0",
    "instr a\nedge 0 0",
    "instr a\nedge 0 0 1",
    "instr a\ninstr b\nedge 0 1",
    "instr a\ninstr b\nedge 0 1 x",
    "instr a\ninstr b\nedge x 1 1",
    "instr a\ninstr b\nedge 0 y 1",
    "instr a\ninstr b\nedge +0 +1 +7",
    "instr a\ninstr b\nedge 0 1 -1",
    "instr a\ninstr b\nedge 0 1 65535",
    "instr a\ninstr b\nedge 0 1 65536",
    "instr a\ninstr b\n  edge 0 1 65537",
    "instr a\ninstr b\nedge 0 1 4294967295",
    "instr a\ninstr b\nedge 0 1 4294967296",
    "instr a\ninstr b\nedge 4294967296 1 1",
    "instr a\ninstr b\nedge 0 2 1",
    "instr a\ninstr b\nedge 2 0 1",
    "instr a\ninstr b\nedge 0 1 1 trailing tokens are ignored",
    "edge 0 1 1\ninstr a\ninstr b",
    "edge 1 0 1\nedge 0 1 1\ninstr a\ninstr b",
    "instr a\ninstr b\nedge 0 1 1\nedge 0 1 5\nedge 0 1 3",
    "instr a\ninstr b\nedge 0 1 5\nedge 0 1 3\nedge 0 1 1",
    "instr a\ninstr b\ninstr c\nedge 1 2 7\nedge 0 2 3\nedge 0 1 1\nedge 0 2 9\nedge 1 2 2",
    "instr a\ninstr b\ninstr c\nedge 0 1 1\nedge 1 2 1\nedge 2 0 1",
    "instr a\ninstr b\nedge 1 1 1\nedge 0 1 1",
    "instr a\u{a0}defs\u{2003}v0\u{3000}uses\u{1680}s0",
    "\u{feff}instr a",
    "instr a\u{200b}defs v0",
    "instr a defs v0\u{85}instr b",
    "instr a defs v0\u{2028}instr b",
    "instr é defs v0 uses ß",
    "instr a defs é5",
    "instr a defs v0,€",
    "instr a uses €,v0",
    "instr a defs v0 uses v1,é",
    "instr a defs 5é",
    "instr a defs vé",
    "instr a defs v5é",
    "instr a defs v٣",
];

fn run_corpus(sizes: &[usize], seeds: std::ops::Range<u64>, mutated_bases: usize) -> Tally {
    let mut tally = Tally::default();
    let mut prev = None;
    for text in CORNERS {
        check(text, &mut prev, &mut tally);
    }
    let mut rng = SmallRng::seed_from_u64(0x1f1a7);
    let mut bases = Vec::new();
    for seed in seeds {
        for &size in sizes {
            let lanes = size / 4 + 1;
            let generated = [
                patterns::sized(size, seed),
                patterns::reduction(lanes, seed),
                patterns::transform_chain(lanes / 3 + 1, 4, seed),
                patterns::random_layered(lanes / 2 + 2, 5, seed),
            ];
            for g in &generated {
                check_generated(g, &mut prev, &mut tally);
                // The same region twice in a row: `content_eq` says yes.
                check_generated(g, &mut prev, &mut tally);
                if let Some((m, _)) = mutate::with_redundant_edge(g, seed) {
                    check_generated(&m, &mut prev, &mut tally);
                }
                check_generated(&mutate::with_orphan_node(g).0, &mut prev, &mut tally);
                if let Some((m, _)) = mutate::with_corrupt_latency(g, seed) {
                    check_generated(&m, &mut prev, &mut tally);
                }
                if let Some((text, _)) = mutate::with_cycle_text(g, seed) {
                    check(&text, &mut prev, &mut tally);
                }
                let text = textir::to_text(g);
                check(
                    &reshuffled_edges(&text, &mut rng, 0.3, 0.0),
                    &mut prev,
                    &mut tally,
                );
                check(
                    &reshuffled_edges(&text, &mut rng, 0.2, 0.02),
                    &mut prev,
                    &mut tally,
                );
            }
            bases.push(textir::to_text(&generated[0]));
        }
    }
    bases.sort_by_key(String::len);
    for base in bases.iter().take(mutated_bases) {
        for text in byte_mutations(base) {
            check(&text, &mut prev, &mut tally);
        }
    }
    tally
}

#[test]
fn flat_front_door_equals_the_old_one_on_the_reduced_corpus() {
    let tally = run_corpus(&[8, 24, 60, 130, 260], 0..4, 4);
    println!("{tally:?}");
    // Every outcome is exercised, none of them rarely.
    assert!(tally.built > 1_000, "{tally:?}");
    assert!(tally.rejected > 1_000, "{tally:?}");
    assert!(tally.old_panics > 50, "{tally:?}");
}

#[test]
#[ignore = "full corpus: run with --release -- --ignored (scripts/check.sh does)"]
fn flat_front_door_equals_the_old_one_on_the_frontend_large_corpus() {
    let tally = run_corpus(&[8, 24, 60, 130, 260, 400], 0..12, 8);
    println!("{tally:?}");
    assert!(tally.built > 3_000 && tally.rejected > 3_000, "{tally:?}");
    // The 9,941 regions `frontend-large` prints and parses.
    let suite = Suite::generate(&SuiteConfig::scaled(5, 0.15));
    assert_eq!(suite.region_count(), 9_941);
    let (mut tally, mut prev) = (Tally::default(), None);
    for region in suite.kernels.iter().flat_map(|k| &k.regions) {
        check_generated(region, &mut prev, &mut tally);
    }
    let all_built = Tally {
        built: 9_941,
        ..Tally::default()
    };
    assert_eq!(tally, all_built);
}

#[test]
fn rejections_are_the_same_values_not_just_the_same_kind() {
    // Spot checks that `check` compares what it should: message, line and
    // column of a few rejections, old and flat.
    for (text, line, col, message) in [
        (
            "instr a defs v0,q1",
            1,
            17,
            "bad register class in `q1` (expected v<N> or s<N>)",
        ),
        (
            "instr a\nedge 0 7 1",
            2,
            1,
            "edge endpoint 7 out of range (1 instructions)",
        ),
        (
            "instr a\ninstr b\nedge 0 1 1\nedge 1 0 1",
            0,
            0,
            "dependence graph contains a cycle",
        ),
        ("instr a\n edge 0 0 1", 2, 2, "self edge on instruction i0"),
        ("instr a uses", 1, 9, "uses needs a list"),
    ] {
        let want = ParseTextError {
            line,
            col,
            message: message.to_string(),
        };
        assert_eq!(textir::parse(text).unwrap_err(), want);
        let old = oracle::parse_raw(text).and_then(oracle::RawRegion::into_ddg);
        assert_eq!(old.unwrap_err(), want);
    }
}
