//! Every name the benchmark prints, read from `BENCHMARK.json`.
//!
//! `BENCHMARK.json` is the contract later changes are judged against, so
//! it is the one place workloads and metrics are declared: the file is
//! compiled into the binary, [`crate::report::Report`] refuses to set a
//! name it does not declare and prints exactly the names it does.

use crate::json::{self, Value};
use std::sync::OnceLock;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
}

/// The declarations of `BENCHMARK.json`, in file order.
#[derive(Debug)]
pub struct Manifest {
    pub workloads: Vec<String>,
    /// What a user of the compile service sees. Every workload reports
    /// every one of these, and none is ever 0.
    pub end_to_end: Vec<Metric>,
    /// What single layers do, from the `--trace 1` run. A layer the
    /// workload bypasses reads 0.
    pub per_layer: Vec<Metric>,
}

const MANIFEST_JSON: &str = include_str!("../../BENCHMARK.json");

fn field(entry: &Value, key: &str) -> String {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: an entry lacks `{key}`"))
        .to_string()
}

fn metrics(doc: &Value, key: &str) -> Vec<Metric> {
    doc.get(key)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no `{key}`"))
        .as_arr()
        .iter()
        .map(|m| Metric {
            name: field(m, "name"),
            unit: field(m, "unit"),
        })
        .collect()
}

/// The parsed manifest. Panics on a malformed file: that is a bug in the
/// benchmark, not a property of a run.
pub fn manifest() -> &'static Manifest {
    static MANIFEST: OnceLock<Manifest> = OnceLock::new();
    MANIFEST.get_or_init(|| {
        let doc = json::parse(MANIFEST_JSON).expect("BENCHMARK.json parses");
        Manifest {
            workloads: doc
                .get("workloads")
                .expect("BENCHMARK.json: no `workloads`")
                .as_arr()
                .iter()
                .map(|w| field(w, "name"))
                .collect(),
            end_to_end: metrics(&doc, "end_to_end"),
            per_layer: metrics(&doc, "per_layer"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn doc() -> Value {
        json::parse(MANIFEST_JSON).unwrap()
    }

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let m = manifest();
        let mut seen = BTreeSet::new();
        let all = m
            .workloads
            .iter()
            .chain(m.end_to_end.iter().map(|m| &m.name))
            .chain(m.per_layer.iter().map(|m| &m.name));
        for name in all {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in m.end_to_end.iter().chain(&m.per_layer) {
            assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "{}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
    }

    #[test]
    fn bounds_follow_the_contract() {
        let doc = doc();
        let mut setup = None;
        for m in doc.get("end_to_end").unwrap().as_arr() {
            let Some(Value::Num(bound)) = m.get("bound") else {
                panic!("{}: no bound", field(m, "name"));
            };
            assert!(*bound > 0.0 && *bound <= 0.25, "{}", field(m, "name"));
            assert!(matches!(field(m, "better").as_str(), "lower" | "higher"));
            if field(m, "name") == "setup_s" {
                setup = Some((field(m, "unit"), field(m, "better"), *bound));
            }
        }
        // Set-up time is declared, in seconds, with the largest bound.
        assert_eq!(setup, Some(("s".into(), "lower".into(), 0.25)));
        for m in doc.get("per_layer").unwrap().as_arr() {
            assert!(m.get("bound").is_none(), "per-layer metrics carry no bound");
        }
        for w in doc.get("workloads").unwrap().as_arr() {
            let why = field(w, "why");
            assert!(
                why.chars().count() <= 200 && !why.contains('\n'),
                "{}",
                field(w, "name")
            );
        }
    }
}
