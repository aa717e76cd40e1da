//! What one benchmark run reports: named metrics with units and sample
//! counts, the operation tally, correctness verdicts, and the one-line
//! JSON result printed last on standard output.

use crate::procfs;
use crate::stats::{self, Sample};

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit (`ms`, `1/s`, `count`, …).
    pub unit: &'static str,
    /// The measured value, unrounded.
    pub value: f64,
    /// Samples behind the value (operations, spans or repeats).
    pub samples: u64,
    /// Whether the metric is part of the result line; context-only
    /// metrics are printed but not gated.
    pub gated: bool,
}

/// Everything a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed, were refused or never completed.
    pub failed: u64,
    /// Failed correctness checks, one line each (empty = correct).
    pub violations: Vec<String>,
    /// Free-form context lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: u64,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            samples,
            gated: true,
        });
    }

    /// Adds a context-only metric: printed with the others, left out of
    /// the result line.
    pub fn context_metric(&mut self, name: &str, unit: &'static str, value: f64, samples: u64) {
        self.metric(name, unit, value, samples);
        self.metrics.last_mut().expect("just pushed").gated = false;
    }

    /// Records a correctness violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Adds a context note.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Measurements of one timed phase.
pub struct Timed {
    /// Completed operations with their completion times and latencies.
    pub samples: Vec<Sample>,
    /// Length of the timed phase, seconds.
    pub elapsed_s: f64,
    /// Process CPU (user + system, all threads) over the phase, seconds.
    pub cpu_s: f64,
    /// Peak resident memory once a fixed number of operations completed.
    pub rss: procfs::RssProbe,
    /// Duration of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Host conditions over the phase (context line).
    pub host: String,
}

/// Samples per throughput/latency window (p99 keeps ten beyond it).
const SAMPLES_PER_WINDOW: usize = 1000;
/// Most windows a timed phase is split into.
const MAX_WINDOWS: usize = 20;

impl Outcome {
    /// The end-to-end metrics shared by every workload. Throughput and
    /// latency percentiles are medians over equal-count windows of the
    /// phase, so a short stall of the machine moves one window, not the
    /// result; `failed_frac` is carried by `attempted` and `failed`.
    pub fn end_to_end(&mut self, timed: Timed) {
        let ops: u64 = timed.samples.iter().map(|s| s.ops).sum();
        let n = timed.samples.len() as u64;
        self.note(timed.host.clone());
        let windows = stats::windows(&timed.samples, SAMPLES_PER_WINDOW, MAX_WINDOWS);
        let median_of = |f: fn(&stats::Window) -> f64| {
            stats::median(&windows.iter().map(f).collect::<Vec<_>>())
        };
        match (
            median_of(|w| w.ops_per_s),
            median_of(|w| w.p50_ms),
            median_of(|w| w.p99_ms),
        ) {
            (Some(ops_per_s), Some(p50), Some(p99)) => {
                self.metric("ops_per_s", "1/s", ops_per_s, ops);
                self.metric("latency_p50_ms", "ms", p50, n);
                // The tail swings with the shared host's fsync and CPU
                // steal (0.12 to 0.30 quartile spread across seeds), so
                // it is reported but not gated.
                self.context_metric("latency_p99_ms", "ms", p99, n);
            }
            _ => self.check(false, || {
                format!(
                    "{n} latency samples: too few for a p99 with {} samples beyond it",
                    stats::MIN_TAIL
                )
            }),
        }
        self.metric(
            "cpu_us_per_op",
            "us",
            timed.cpu_s * 1e6 / ops.max(1) as f64,
            ops,
        );
        match timed.rss.peak_mb() {
            Some(mb) => self.metric("peak_rss_mb", "MB", mb, timed.rss.target()),
            None => self.check(false, || {
                format!(
                    "the timed phase never reached the {} operations peak_rss_mb is read at",
                    timed.rss.target()
                )
            }),
        }
        self.note(format!("set-up times, s: {:?}", timed.setup_s));
        let setup = stats::median(&timed.setup_s).expect("set-up ran");
        self.metric("setup_s", "s", setup, timed.setup_s.len() as u64);

        self.note(format!(
            "window ops/s: {:?}",
            windows
                .iter()
                .map(|w| w.ops_per_s.round())
                .collect::<Vec<_>>()
        ));
        let all = stats::sorted(timed.samples.iter().map(|s| s.latency_ms).collect());
        let tail = stats::highest_reportable(all.len(), &[0.9, 0.99, 0.999])
            .map_or("none".to_string(), |q| format!("p{}", q * 100.0));
        self.note(format!(
            "timed phase {:.3} s: {ops} ops over {n} latency samples in {} windows; whole-phase \
             p50 {:.4} ms, p99 {:.4} ms; highest percentile with >= {} samples beyond: {tail}",
            timed.elapsed_s,
            windows.len(),
            stats::percentile(&all, 0.5).unwrap_or(f64::NAN),
            stats::percentile(&all, 0.99).unwrap_or(f64::NAN),
            stats::MIN_TAIL
        ));
    }
}

/// Escapes `raw` as a JSON string body.
pub fn json_escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A finite `f64` as a JSON number with all its digits.
fn json_number(value: f64) -> String {
    assert!(value.is_finite(), "metric values are finite");
    format!("{value:?}")
}

/// The one-line result object: `correct`, `attempted`, `failed` and
/// `metrics` (`name → {value, unit}`).
pub fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .filter(|m| m.gated)
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_escape(&m.name),
                json_number(m.value),
                json_escape(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome {
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        outcome.metric("latency_p50_ms", "ms", 1.25, 9);
        outcome.metric("setup_s", "s", 0.5, 3);
        outcome.context_metric("latency_p99_ms", "ms", 9.0, 9);
        let line = result_json(&outcome);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        outcome.check(false, || "bad".into());
        assert!(result_json(&outcome).starts_with("{\"correct\": false"));
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(3.0), "3.0");
    }

    #[test]
    fn strings_escape_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\n\u{1}"), "a\\\"b\\\\c\\n\\u0001");
    }
}
