//! The metric declarations of the root `BENCHMARK.json`: name, unit,
//! direction and, for end-to-end metrics, the regression bound. That file
//! is the one list of metrics; runs take their units from it and
//! `compare` its directions and bounds.

use std::path::Path;

use qa_obs::json::{self, Value};

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput, attribution share).
    Higher,
}

/// One metric's declaration.
#[derive(Clone, Debug)]
pub struct Def {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Share of the base median the metric may worsen by; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

/// Every declared metric.
#[derive(Debug)]
pub struct Catalog {
    /// What a user of the system sees, measured with tracing off.
    pub end_to_end: Vec<Def>,
    /// Single layers, measured in the traced run.
    pub per_layer: Vec<Def>,
}

impl Catalog {
    /// Read and check `BENCHMARK.json`.
    pub fn load(path: &Path) -> Result<Catalog, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Catalog::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parse `BENCHMARK.json` text. Every metric needs a name, a unit and
    /// a direction, every end-to-end metric a bound, and no name may
    /// repeat.
    pub fn parse(text: &str) -> Result<Catalog, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        let list = |key: &str| -> Result<Vec<Def>, String> {
            let items = v
                .get(key)
                .and_then(Value::as_arr)
                .ok_or(format!("no `{key}` list"))?;
            items
                .iter()
                .map(|m| {
                    let text = |k: &str| {
                        m.get(k)
                            .and_then(Value::as_str)
                            .map(str::to_string)
                            .ok_or(format!("a `{key}` entry has no `{k}`"))
                    };
                    let name = text("name")?;
                    let better = match text("better")?.as_str() {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("{name}: `better` is {other:?}")),
                    };
                    let bound = m.get("bound").and_then(Value::as_f64);
                    if key == "end_to_end" && bound.is_none() {
                        return Err(format!("{name} has no bound"));
                    }
                    Ok(Def {
                        unit: text("unit")?,
                        name,
                        better,
                        bound,
                    })
                })
                .collect()
        };
        let catalog = Catalog {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        };
        let mut names: Vec<&str> = catalog.all().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("{} is declared twice", w[0]));
        }
        Ok(catalog)
    }

    /// The metrics a run reports: per-layer when traced, else end-to-end.
    pub fn reported(&self, traced: bool) -> &[Def] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Every declaration, end-to-end first.
    pub fn all(&self) -> impl Iterator<Item = &Def> {
        self.end_to_end.iter().chain(&self.per_layer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_declarations_and_rejects_bad_ones() {
        let good = r#"{"end_to_end": [{"name": "a_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
                       "per_layer": [{"name": "b", "unit": "count", "better": "higher"}]}"#;
        let c = Catalog::parse(good).unwrap();
        assert_eq!(c.reported(false)[0].bound, Some(0.1));
        assert_eq!(c.reported(true)[0].better, Better::Higher);
        let twice = good.replace(r#""name": "b""#, r#""name": "a_ms""#);
        assert!(Catalog::parse(&twice).unwrap_err().contains("twice"));
        let unbounded = good.replace(r#", "bound": 0.1"#, "");
        assert!(Catalog::parse(&unbounded).unwrap_err().contains("no bound"));
        let sideways = good.replace(r#""higher""#, r#""up""#);
        assert!(Catalog::parse(&sideways).is_err());
    }

    #[test]
    fn the_repository_benchmark_json_parses() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let c = Catalog::load(&path).unwrap();
        assert!(c.end_to_end.iter().any(|d| d.name == "setup_s"));
    }
}
