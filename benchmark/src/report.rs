//! The result one run prints: a table for people, then the one JSON line
//! the driver reads.

use crate::names::{manifest, Metric};
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metric values of one run, held to a declared list of names.
#[derive(Debug)]
pub struct Report {
    declared: &'static [Metric],
    values: BTreeMap<&'static str, f64>,
    summaries: BTreeMap<&'static str, Summary>,
    /// Per-layer metrics an untraced run measured anyway: printed in the
    /// table under their declared names, not part of the driver's line.
    also: Vec<&'static str>,
    /// A per-layer report: an unset metric reads 0 (the workload bypassed
    /// the layer). In an end-to-end report an unset or zero metric is an
    /// error (every workload reports every one).
    per_layer: bool,
    /// Operations attempted and failed over the whole run.
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the person reading the output.
    pub failures: Vec<String>,
}

impl Report {
    pub fn end_to_end() -> Report {
        Report::new(&manifest().end_to_end, false)
    }

    pub fn per_layer() -> Report {
        Report::new(&manifest().per_layer, true)
    }

    fn new(declared: &'static [Metric], per_layer: bool) -> Report {
        Report {
            declared,
            values: BTreeMap::new(),
            summaries: BTreeMap::new(),
            also: Vec::new(),
            per_layer,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Sets a metric. Panics on an undeclared name: that is a bug in the
    /// benchmark, not a property of the run.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.declared.iter().any(|m| m.name == name),
            "metric `{name}` is not declared in BENCHMARK.json"
        );
        self.values.insert(name, value);
    }

    /// Records a per-layer metric in an end-to-end report, for the table
    /// only.
    pub fn also(&mut self, name: &'static str, value: f64, summary: Option<Summary>) {
        assert!(
            manifest().per_layer.iter().any(|m| m.name == name),
            "metric `{name}` is not declared in BENCHMARK.json"
        );
        self.values.insert(name, value);
        self.summaries.extend(summary.map(|s| (name, s)));
        self.also.push(name);
    }

    /// Sets a metric to the median of its samples and keeps the quartiles
    /// and sample count for the printed table.
    pub fn set_summary(&mut self, name: &'static str, s: Summary) {
        self.set(name, s.median);
        self.summaries.insert(name, s);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one operation.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Records `failed_share`, once every operation has been counted:
    /// failed operations as a share of those attempted (1 when nothing was
    /// attempted: a run that checked nothing proved nothing). It is
    /// declared per-layer because it must read 0 and an end-to-end metric
    /// may not; the driver's line carries the two counts themselves.
    pub fn close(&mut self) {
        let share = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        if self.per_layer {
            self.set("failed_share", share);
        } else {
            self.also("failed_share", share, None);
        }
    }

    /// The table for people: one line per metric, with quartiles and the
    /// sample count where the value is a median.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let also = manifest()
            .per_layer
            .iter()
            .filter(|m| self.also.contains(&m.name.as_str()));
        for m in self.declared.iter().chain(also) {
            let Some(v) = self
                .values
                .get(m.name.as_str())
                .copied()
                .or(self.per_layer.then_some(0.0))
            else {
                continue;
            };
            let _ = write!(out, "{:<40} {:>16} {}", m.name, format_value(v), m.unit);
            if let Some(s) = self.summaries.get(m.name.as_str()) {
                let _ = write!(
                    out,
                    "  (q1 {} q3 {} n {})",
                    format_value(s.q1),
                    format_value(s.q3),
                    s.n
                );
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "{} of {} operations failed",
            self.failed, self.attempted
        );
        for f in &self.failures {
            let _ = writeln!(out, "FAILED: {f}");
        }
        out
    }

    /// The driver's line. Errors when a declared end-to-end metric is
    /// unset or 0, so a workload cannot silently stop reporting one.
    pub fn json_line(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.declared.iter().enumerate() {
            let v = match self.values.get(m.name.as_str()) {
                Some(&v) => v,
                None if self.per_layer => 0.0,
                None => return Err(format!("metric `{}` was never set", m.name)),
            };
            if !v.is_finite() {
                return Err(format!("metric `{}` is not finite: {v}", m.name));
            }
            if !self.per_layer && v == 0.0 {
                return Err(format!("end-to-end metric `{}` reads 0", m.name));
            }
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                format_value(v),
                m.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// A number with all its digits (`{}` on an `f64` is the shortest string
/// that reads back exactly), integers without a trailing `.0`.
fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn names(metrics: &'static [Metric]) -> impl Iterator<Item = &'static str> {
        metrics.iter().map(|m| m.name.as_str())
    }

    #[test]
    fn end_to_end_line_has_exactly_the_declared_metrics() {
        let mut r = Report::end_to_end();
        for (i, name) in names(&manifest().end_to_end).enumerate() {
            r.set(name, 1.5 + i as f64);
        }
        r.op(true, String::new);
        let doc = json::parse(&r.json_line().unwrap()).unwrap();
        let Value::Obj(top) = &doc else { panic!() };
        assert_eq!(
            top.keys().map(String::as_str).collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        let Some(Value::Obj(metrics)) = doc.get("metrics") else {
            panic!()
        };
        assert_eq!(metrics.len(), manifest().end_to_end.len());
        for m in &manifest().end_to_end {
            assert_eq!(
                metrics[&m.name].get("unit").and_then(Value::as_str),
                Some(m.unit.as_str())
            );
        }
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
    }

    #[test]
    fn end_to_end_metrics_must_all_be_set_and_nonzero() {
        let mut r = Report::end_to_end();
        r.op(true, String::new);
        assert!(r.json_line().unwrap_err().contains("never set"));
        for name in names(&manifest().end_to_end) {
            r.set(name, 0.0);
        }
        assert!(r.json_line().unwrap_err().contains("reads 0"));
    }

    #[test]
    fn bypassed_layers_read_zero() {
        let mut r = Report::per_layer();
        r.op(true, String::new);
        let doc = json::parse(&r.json_line().unwrap()).unwrap();
        let Some(Value::Obj(metrics)) = doc.get("metrics") else {
            panic!()
        };
        assert_eq!(metrics.len(), manifest().per_layer.len());
        assert!(metrics
            .values()
            .all(|m| m.get("value") == Some(&Value::Num(0.0))));
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let mut r = Report::per_layer();
        r.op(true, String::new);
        r.op(false, || "region 3 failed certification".into());
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert!(r.table().contains("FAILED: region 3"));
        assert!(r.json_line().unwrap().contains("\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_names_are_a_bug() {
        Report::end_to_end().set("made_up", 1.0);
    }

    #[test]
    fn values_keep_all_their_digits() {
        assert_eq!(format_value(1.2034567891234), "1.2034567891234");
        assert_eq!(format_value(37610.0), "37610");
        assert_eq!(format_value(0.1 + 0.2), "0.30000000000000004");
    }
}
