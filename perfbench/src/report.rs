//! Sample statistics and the lines a run prints.
//!
//! Every run prints a config header, one accounting line per serving
//! phase, and last the result line the benchmark contract fixes:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

use std::fmt::Write as _;

/// A JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form keeps
/// (non-finite values, which JSON cannot carry, become `null`).
pub fn jnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// A JSON object from already-rendered values, keys in the given order.
pub fn jobj(pairs: &[(&str, String)]) -> String {
    let body: Vec<String> = pairs.iter().map(|(k, v)| format!("{}: {v}", jstr(k))).collect();
    format!("{{{}}}", body.join(", "))
}

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A nearest-rank percentile with the sample count behind it.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    /// The value at the percentile's rank (0 for no samples).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

impl Percentile {
    /// Nearest-rank `q`-quantile of `values`.
    pub fn of(values: &[f64], q: f64) -> Percentile {
        if values.is_empty() {
            return Percentile { value: 0.0, samples: 0, beyond: 0 };
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Percentile { value: sorted[rank - 1], samples: sorted.len(), beyond: sorted.len() - rank }
    }

    /// Whether at least ten samples lie beyond the rank, the least a tail
    /// percentile is reported on.
    pub fn supported(&self) -> bool {
        self.beyond >= 10
    }

    /// `{"value": …, "unit": …, "samples": n}`, with a note in place of
    /// the value when fewer than ten samples lie beyond the rank.
    pub fn render(&self, unit: &str) -> String {
        let value = if self.supported() {
            jnum(self.value)
        } else {
            jstr(&format!("insufficient: {} beyond the rank", self.beyond))
        };
        jobj(&[("value", value), ("unit", jstr(unit)), ("samples", self.samples.to_string())])
    }
}

/// The outcome of one run: metrics, operation accounting and the lines
/// printed before the result.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted (fuzzed inputs, served requests, checks).
    pub attempted: u64,
    /// Operations that failed or did not pass verification.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
    /// Header and accounting lines, printed before the result line.
    pub lines: Vec<String>,
}

impl Report {
    /// Records a metric; later values of the same name replace earlier ones.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// The metrics recorded so far, in order.
    pub fn metrics(&self) -> &[(String, f64, &'static str)] {
        &self.metrics
    }

    /// The value of metric `name`, if recorded.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|&(_, v, _)| v)
    }

    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what.into());
        }
    }

    /// Counts `n` more failed operations without descriptions.
    pub fn fail_many(&mut self, n: u64) {
        self.failed += n;
    }

    /// Whether every operation passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Succeeded-and-verified operations over attempted ones.
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted as f64
    }

    /// The contract's result line.
    pub fn result_line(&self) -> String {
        let metrics: Vec<(&str, String)> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (name.as_str(), jobj(&[("value", jnum(*value)), ("unit", jstr(unit))]))
            })
            .collect();
        jobj(&[
            ("correct", self.correct().to_string()),
            ("attempted", self.attempted.max(1).to_string()),
            ("failed", self.failed.to_string()),
            ("metrics", jobj(&metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_counts_samples_beyond_the_rank() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = Percentile::of(&values, 0.99);
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.beyond, 10);
        assert!(p99.supported());
        assert!(!Percentile::of(&values[..999], 0.99).supported());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut report = Report::default();
        report.attempt(2);
        report.metric("setup_s", 0.5, "s");
        let line = report.result_line();
        let doc = hdc_serve::json::parse(line.as_bytes()).expect("valid JSON");
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).expect("metric");
        assert_eq!(setup.get("unit").and_then(|u| u.as_str()), Some("s"));
    }
}
