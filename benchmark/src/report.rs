//! Metric values and the one-line JSON result the driver reads.

use fatih_obs::json::{fmt_f64, write_string};
use fatih_obs::JsonValue;

/// One measured value, by name and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured, all digits.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; a value that is not finite (an undefined ratio) reads 0.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

/// What one run prints as its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Whether the protocol's outputs were correct.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// End-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub metrics: Vec<Metric>,
}

impl RunReport {
    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_string(&mut out, m.name);
            out.push_str(&format!(": {{\"value\": {}, \"unit\": ", fmt_f64(m.value)));
            write_string(&mut out, m.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Parses a result line back (the suite reads its children's).
    pub fn parse(line: &str) -> Result<ParsedReport, String> {
        let doc = JsonValue::parse(line).map_err(|e| e.to_string())?;
        let field = |k: &str| doc.get(k).ok_or_else(|| format!("result line lacks {k:?}"));
        let JsonValue::Object(members) = field("metrics")? else {
            return Err("\"metrics\" is not an object".into());
        };
        let metrics = members
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(JsonValue::as_f64);
                let unit = m.get("unit").and_then(JsonValue::as_str);
                match (value, unit) {
                    (Some(v), Some(u)) => Ok((name.clone(), v, u.to_string())),
                    _ => Err(format!("metric {name:?} lacks a value or a unit")),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ParsedReport {
            correct: field("correct")?
                .as_bool()
                .ok_or("\"correct\" is not a bool")?,
            attempted: field("attempted")?
                .as_u64()
                .ok_or("\"attempted\" is not a count")?,
            failed: field("failed")?
                .as_u64()
                .ok_or("\"failed\" is not a count")?,
            metrics,
        })
    }
}

/// A result line as read back: metric (name, value, unit) triples.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedReport {
    /// Whether the outputs were correct.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// (name, value, unit).
    pub metrics: Vec<(String, f64, String)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_round_trips_with_all_digits() {
        let report = RunReport {
            correct: true,
            attempted: 24_123,
            failed: 0,
            metrics: vec![
                Metric::new("delivered_pps", 1_987.416_666_666_666_7, "1/s"),
                Metric::new("setup_s", 0.081_273_4, "s"),
                Metric::new("undefined", f64::NAN, "count"),
            ],
        };
        let line = report.to_json_line();
        assert!(!line.contains('\n'));
        let back = RunReport::parse(&line).unwrap();
        assert_eq!(
            (back.correct, back.attempted, back.failed),
            (true, 24_123, 0)
        );
        assert_eq!(
            back.metrics,
            vec![
                (
                    "delivered_pps".into(),
                    1_987.416_666_666_666_7,
                    "1/s".into()
                ),
                ("setup_s".into(), 0.081_273_4, "s".into()),
                ("undefined".into(), 0.0, "count".into()),
            ]
        );
        let doc = JsonValue::parse(&line).unwrap();
        let JsonValue::Object(keys) = doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn a_malformed_line_is_an_error_not_a_panic() {
        assert!(RunReport::parse("warming up").is_err());
        assert!(RunReport::parse("{\"correct\": true}").is_err());
        assert!(RunReport::parse(
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 1}}}"
        )
        .is_err());
    }
}
