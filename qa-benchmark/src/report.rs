//! Run results: operation accounting, named metrics, and the one-line
//! JSON result the benchmark prints last.

use crate::catalog::Def;

/// Failure accounting over every operation a run attempted.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: a non-200 answer, a transport error, a
    /// non-zero exit, or an answer that differs from the reference.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

/// Failure messages kept per run.
const KEPT_FAILURES: usize = 8;

impl Outcome {
    /// Count one operation.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = verdict {
            self.failed += 1;
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(msg);
            }
        }
    }

    /// Fold another outcome into this one.
    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for msg in other.failures {
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(msg);
            }
        }
    }
}

/// A run's result: declared metrics, plus informational values that are
/// printed and recorded but not declared in `BENCHMARK.json`.
#[derive(Debug)]
pub struct Run {
    /// Operation accounting.
    pub outcome: Outcome,
    /// `(name, value, unit)` of every declared metric; in declaration
    /// order, with units, once [`Run::conform`] ran.
    pub metrics: Vec<(String, f64, String)>,
    /// `(name, value, unit)` of every informational value.
    pub info: Vec<(String, f64, String)>,
    /// Reasons the run is not correct beyond failed operations.
    pub violations: Vec<String>,
}

impl Run {
    /// An empty result over `outcome`.
    pub fn new(outcome: Outcome) -> Run {
        Run {
            outcome,
            metrics: Vec::new(),
            info: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// Set metric `name`.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value, String::new()));
    }

    /// Record informational value `name`.
    pub fn info(&mut self, name: &str, value: f64, unit: &str) {
        self.info.push((name.to_string(), value, unit.to_string()));
    }

    /// Put the metrics in the order and units of `declared`. A declared
    /// metric the run did not set becomes `NaN`, and one it set without a
    /// declaration is a violation; either makes the run incorrect.
    pub fn conform(&mut self, declared: &[Def]) {
        for (name, _, _) in &self.metrics {
            if !declared.iter().any(|d| d.name == *name) {
                self.violations
                    .push(format!("{name} is not declared in BENCHMARK.json"));
            }
        }
        self.metrics = declared
            .iter()
            .map(|d| {
                let value = self
                    .metrics
                    .iter()
                    .find(|(name, _, _)| *name == d.name)
                    .map_or(f64::NAN, |m| m.1);
                (d.name.clone(), value, d.unit.clone())
            })
            .collect();
    }

    /// Whether every operation succeeded, every check held, and every
    /// metric is a finite number.
    pub fn correct(&self) -> bool {
        self.outcome.failed == 0
            && self.outcome.attempted > 0
            && self.violations.is_empty()
            && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                    number(*value)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{metrics}}}}}"#,
            self.correct(),
            self.outcome.attempted,
            self.outcome.failed
        )
    }
}

/// A JSON number with every digit Rust prints for the `f64`; non-finite
/// values become `null` (and make the run incorrect).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Better;

    fn declared(names: &[&str]) -> Vec<Def> {
        names
            .iter()
            .map(|n| Def {
                name: n.to_string(),
                unit: "ms".into(),
                better: Better::Lower,
                bound: Some(0.1),
            })
            .collect()
    }

    fn ok_run() -> Run {
        let mut out = Outcome::default();
        out.record(Ok(()));
        Run::new(out)
    }

    #[test]
    fn conform_orders_by_declaration_and_flags_drift() {
        let mut run = ok_run();
        run.metric("b_ms", 2.0);
        run.metric("a_ms", 1.5);
        run.conform(&declared(&["a_ms", "b_ms"]));
        assert!(run.correct());
        assert_eq!(
            run.result_json(),
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"a_ms": {"value": 1.5, "unit": "ms"}, "b_ms": {"value": 2, "unit": "ms"}}}"#
        );

        let mut missing = ok_run();
        missing.metric("a_ms", 1.0);
        missing.conform(&declared(&["a_ms", "b_ms"]));
        assert!(!missing.correct());

        let mut undeclared = ok_run();
        undeclared.metric("a_ms", 1.0);
        undeclared.metric("c_ms", 1.0);
        undeclared.conform(&declared(&["a_ms"]));
        assert!(!undeclared.correct());
    }
}
