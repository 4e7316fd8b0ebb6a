//! What one benchmark run reports: metrics with units, operation counts,
//! and human-readable lines printed before the result object.

use baryon_sim::json::Json;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Operations attempted (runs, probes, checkpoints, jobs, checks).
    pub attempted: u64,
    /// Operations that failed (see the glossary in `perfbench/README.md`).
    pub failed: u64,
    /// Lines printed before the result object: bases of ratios, sample
    /// counts, the statistics digest, failure reasons.
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts one attempted operation, and a failure with its reason when
    /// `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let reason = what();
            self.notes.push(format!("FAILED: {reason}"));
        }
    }

    /// Failed over attempted operations.
    pub fn failed_frac(&self) -> f64 {
        crate::stats::ratio(self.failed, self.attempted)
    }

    /// The result object: `correct`, `attempted`, `failed` and `metrics`.
    /// A non-finite value (a latency made infinite by failures) prints as
    /// the largest finite number, since JSON has no infinity.
    pub fn result_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let value = if m.value.is_finite() {
                m.value
            } else {
                f64::MAX
            };
            (
                m.name.clone(),
                Json::obj([("value", Json::F64(value)), ("unit", Json::from(m.unit))]),
            )
        });
        Json::obj([
            (
                "correct",
                Json::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted", Json::from(self.attempted.max(1))),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(metrics.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.check(false, || "result differs".to_owned());
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert_eq!(r.failed_frac(), 0.5);
        let text = r.result_json().render();
        assert!(text.starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1"));
        assert!(r.notes[0].contains("result differs"));
    }

    #[test]
    fn infinite_values_stay_valid_json() {
        let mut r = Report::default();
        r.check(true, String::new);
        r.metric("interactive_p50_ms", f64::INFINITY, "ms");
        let text = r.result_json().render();
        assert!(!text.contains("null"), "{text}");
    }
}
