//! The metrics registry: atomic counters, gauges and log2-bucket
//! histograms keyed by `(name, sorted labels)`, with a consistent
//! snapshot API and Prometheus-text-format exposition.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `k`
/// (1..=64) holds values in `[2^(k-1), 2^k - 1]`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket index for `value` under the log2 scheme.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The largest value falling in bucket `index` (inclusive).
///
/// # Panics
///
/// Panics if `index >= HISTOGRAM_BUCKETS`.
pub fn bucket_upper_bound(index: usize) -> u64 {
    assert!(index < HISTOGRAM_BUCKETS, "bucket index out of range");
    match index {
        0 => 0,
        64 => u64::MAX,
        k => (1u64 << k) - 1,
    }
}

/// A monotonically increasing counter. Disabled handles (from a
/// disabled [`crate::Telemetry`]) ignore every operation.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A handle that ignores everything.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A gauge: a signed value that can move both ways.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// A handle that ignores everything.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Shared storage of one histogram.
#[derive(Debug)]
pub(crate) struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        Self {
            buckets: [(); HISTOGRAM_BUCKETS].map(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    fn observe(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// A log2-bucket histogram of `u64` observations.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// A handle that ignores everything.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        if let Some(core) = &self.0 {
            core.observe(value);
        }
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0
            .as_ref()
            .map_or_else(HistogramSnapshot::default, |c| c.snapshot())
    }
}

/// A point-in-time copy of one histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts, indexed by [`bucket_index`].
    pub buckets: Vec<u64>,
    /// Sum of all observed values (wrapping on overflow).
    pub sum: u64,
    /// Total number of observations.
    pub count: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            sum: 0,
            count: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Nearest-rank quantile estimate: the upper bound of the first
    /// bucket whose cumulative count reaches `ceil(q * count)`. Returns
    /// 0 for an empty histogram; `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Mean of the observed values (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCore>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

type MetricKey = (String, Vec<(String, String)>);

/// A registry key: the name with its labels sorted.
fn metric_key(name: &str, mut labels: Vec<(String, String)>) -> MetricKey {
    labels.sort();
    (name.to_string(), labels)
}

/// The shared metrics registry of one cluster: every node's
/// [`crate::Telemetry`] handle publishes into the same registry, so one
/// snapshot covers the whole deployment.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<MetricKey, Metric>>,
}

/// One metric in a [`Registry::snapshot`].
#[derive(Debug, Clone)]
pub struct Sample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// The value at snapshot time.
    pub value: SampleValue,
}

/// The value of one [`Sample`].
#[derive(Debug, Clone)]
pub enum SampleValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading.
    Gauge(i64),
    /// A histogram state.
    Histogram(HistogramSnapshot),
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves (registering on first use) the counter `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if the same name/labels were already registered as a
    /// different metric type — that is a programming error.
    pub fn counter(&self, name: &str, labels: &[(String, String)]) -> Counter {
        match self.resolve(name, labels, || {
            Metric::Counter(Arc::new(AtomicU64::new(0)))
        }) {
            Metric::Counter(cell) => Counter(Some(cell)),
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// Resolves (registering on first use) the gauge `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics on a metric-type mismatch, as for [`Registry::counter`].
    pub fn gauge(&self, name: &str, labels: &[(String, String)]) -> Gauge {
        match self.resolve(name, labels, || Metric::Gauge(Arc::new(AtomicI64::new(0)))) {
            Metric::Gauge(cell) => Gauge(Some(cell)),
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    /// Resolves (registering on first use) the histogram `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics on a metric-type mismatch, as for [`Registry::counter`].
    pub fn histogram(&self, name: &str, labels: &[(String, String)]) -> Histogram {
        match self.resolve(name, labels, || {
            Metric::Histogram(Arc::new(HistogramCore::new()))
        }) {
            Metric::Histogram(core) => Histogram(Some(core)),
            other => panic!("{name} already registered as a {}", other.kind()),
        }
    }

    fn resolve(
        &self,
        name: &str,
        labels: &[(String, String)],
        create: impl FnOnce() -> Metric,
    ) -> Metric {
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        metrics
            .entry(metric_key(name, labels.to_vec()))
            .or_insert_with(create)
            .clone()
    }

    /// Reads one counter's current value, if registered.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.lookup(name, labels)? {
            Metric::Counter(cell) => Some(cell.load(Ordering::Relaxed)),
            _ => None,
        }
    }

    /// Reads one gauge's current value, if registered.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        match self.lookup(name, labels)? {
            Metric::Gauge(cell) => Some(cell.load(Ordering::Relaxed)),
            _ => None,
        }
    }

    /// Reads one histogram's current state, if registered.
    pub fn histogram_snapshot(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<HistogramSnapshot> {
        match self.lookup(name, labels)? {
            Metric::Histogram(core) => Some(core.snapshot()),
            _ => None,
        }
    }

    fn lookup(&self, name: &str, labels: &[(&str, &str)]) -> Option<Metric> {
        let labels = labels.iter().map(|(k, v)| (k.to_string(), v.to_string()));
        let key = metric_key(name, labels.collect());
        self.metrics
            .lock()
            .expect("registry poisoned")
            .get(&key)
            .cloned()
    }

    /// A consistent point-in-time copy of every registered metric,
    /// sorted by `(name, labels)`.
    pub fn snapshot(&self) -> Vec<Sample> {
        let metrics = self.metrics.lock().expect("registry poisoned");
        metrics
            .iter()
            .map(|((name, labels), metric)| Sample {
                name: name.clone(),
                labels: labels.clone(),
                value: match metric {
                    Metric::Counter(c) => SampleValue::Counter(c.load(Ordering::Relaxed)),
                    Metric::Gauge(g) => SampleValue::Gauge(g.load(Ordering::Relaxed)),
                    Metric::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                },
            })
            .collect()
    }

    /// Renders the registry in the Prometheus text exposition format:
    /// one `# TYPE` comment per metric name, `name{labels} value` lines,
    /// and the `_bucket`/`_sum`/`_count` expansion (with cumulative
    /// `le` buckets) for histograms.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<String> = None;
        for sample in self.snapshot() {
            if last_name.as_deref() != Some(sample.name.as_str()) {
                let kind = match sample.value {
                    SampleValue::Counter(_) => "counter",
                    SampleValue::Gauge(_) => "gauge",
                    SampleValue::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# TYPE {} {kind}\n", sample.name));
                last_name = Some(sample.name.clone());
            }
            match &sample.value {
                SampleValue::Counter(v) => {
                    out.push_str(&format!(
                        "{}{} {v}\n",
                        sample.name,
                        render_labels(&sample.labels, None)
                    ));
                }
                SampleValue::Gauge(v) => {
                    out.push_str(&format!(
                        "{}{} {v}\n",
                        sample.name,
                        render_labels(&sample.labels, None)
                    ));
                }
                SampleValue::Histogram(h) => {
                    // Standard Prometheus ingestion expects a *dense*
                    // cumulative series: every `le` boundary up to the
                    // highest populated bucket, so rate()/quantile math
                    // never interpolates across silently-missing
                    // boundaries. Buckets past the last observation are
                    // elided (they would all repeat the total, which
                    // `+Inf` already carries) — that keeps a log2
                    // histogram at ≤ 1 + highest-populated-index lines
                    // instead of a fixed 65.
                    let highest = h.buckets.iter().rposition(|&n| n != 0).map_or(0, |i| i + 1);
                    let mut cumulative = 0u64;
                    for (i, &n) in h.buckets.iter().enumerate().take(highest) {
                        cumulative += n;
                        let le = bucket_upper_bound(i).to_string();
                        out.push_str(&format!(
                            "{}_bucket{} {cumulative}\n",
                            sample.name,
                            render_labels(&sample.labels, Some(&le))
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        sample.name,
                        render_labels(&sample.labels, Some("+Inf")),
                        h.count
                    ));
                    for (suffix, value) in [("sum", h.sum), ("count", h.count)] {
                        let labels = render_labels(&sample.labels, None);
                        out.push_str(&format!("{}_{suffix}{labels} {value}\n", sample.name));
                    }
                }
            }
        }
        out
    }
}

fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// One data line parsed back out of the exposition format.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSample {
    /// Metric name as written (histogram lines keep their
    /// `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Label pairs in written order (including `le` for buckets).
    pub labels: Vec<(String, String)>,
    /// The numeric value (`+Inf` bucket counts are finite, so `f64`
    /// covers every value we emit).
    pub value: f64,
}

/// Parses Prometheus-text exposition output: `#` comment lines are
/// skipped, every other non-empty line must be `name{labels} value`.
/// Used by the round-trip tests and the CI smoke job.
pub fn parse_prometheus(text: &str) -> Result<Vec<ParsedSample>, String> {
    let mut samples = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        samples.push(parse_sample_line(line).map_err(|e| format!("line {}: {e}", idx + 1))?);
    }
    Ok(samples)
}

fn parse_sample_line(line: &str) -> Result<ParsedSample, String> {
    let name_end = line
        .find(|c: char| c == '{' || c.is_ascii_whitespace())
        .ok_or("missing value")?;
    let name = &line[..name_end];
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return Err(format!("invalid metric name {name:?}"));
    }
    let rest = &line[name_end..];
    let (labels, rest) = if let Some(body) = rest.strip_prefix('{') {
        let close = body.find('}').ok_or("unterminated label set")?;
        (parse_labels(&body[..close])?, &body[close + 1..])
    } else {
        (Vec::new(), rest)
    };
    let value_text = rest.trim();
    let value: f64 = if value_text == "+Inf" {
        f64::INFINITY
    } else {
        value_text
            .parse()
            .map_err(|e| format!("bad value {value_text:?}: {e}"))?
    };
    Ok(ParsedSample {
        name: name.to_string(),
        labels,
        value,
    })
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        let mut key = String::new();
        while let Some(&c) = chars.peek() {
            if c == '=' {
                break;
            }
            key.push(c);
            chars.next();
        }
        if key.is_empty() {
            return Err("empty label name".into());
        }
        if chars.next() != Some('=') || chars.next() != Some('"') {
            return Err(format!("label {key:?} missing =\"...\""));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                None => return Err("unterminated label value".into()),
                Some('"') => break,
                Some('\\') => match chars.next() {
                    Some('"') => value.push('"'),
                    Some('\\') => value.push('\\'),
                    Some('n') => value.push('\n'),
                    other => return Err(format!("bad label escape {other:?}")),
                },
                Some(c) => value.push(c),
            }
        }
        labels.push((key, value));
        match chars.next() {
            None => return Ok(labels),
            Some(',') => continue,
            Some(c) => return Err(format!("expected ',' between labels, got {c:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn bucket_scheme_covers_the_domain() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn registry_reuses_and_type_checks_metrics() {
        let registry = Registry::new();
        let a = registry.counter("zugchain_x_total", &labels(&[("node", "0")]));
        let b = registry.counter("zugchain_x_total", &labels(&[("node", "0")]));
        a.inc();
        b.add(2);
        assert_eq!(
            registry.counter_value("zugchain_x_total", &[("node", "0")]),
            Some(3)
        );
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            registry.gauge("zugchain_x_total", &labels(&[("node", "0")]))
        }));
        assert!(panicked.is_err(), "type mismatch must panic");
    }

    #[test]
    fn histogram_quantiles_are_bucket_upper_bounds() {
        let registry = Registry::new();
        let h = registry.histogram("zugchain_h", &[]);
        for v in [0u64, 1, 1, 5, 9] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 16);
        assert_eq!(snap.quantile(0.0), 0);
        assert_eq!(snap.quantile(0.5), 1);
        assert_eq!(snap.quantile(1.0), 15);
    }

    #[test]
    fn multi_label_lines_round_trip_with_escaping() {
        let registry = Registry::new();
        let tricky = "a\"b\\c\nd";
        registry
            .counter(
                "zugchain_archive_segments_total",
                &labels(&[("node", "0"), ("train", "12"), ("note", tricky)]),
            )
            .add(4);
        let text = registry.render_prometheus();
        let parsed = parse_prometheus(&text).expect("escaped multi-label line parses");
        let sample = parsed
            .iter()
            .find(|s| s.name == "zugchain_archive_segments_total")
            .expect("sample present");
        assert_eq!(sample.value, 4.0);
        // Labels come back sorted (registry key order) and byte-exact
        // through escaping.
        assert_eq!(
            sample.labels,
            labels(&[("node", "0"), ("note", tricky), ("train", "12")])
        );
    }

    #[test]
    fn histogram_exposition_is_dense_cumulative_with_inf_sum_count() {
        let registry = Registry::new();
        let h = registry.histogram("zugchain_stage_latency_ms", &labels(&[("node", "0")]));
        // Sparse observations: buckets 1 and 9 populated, everything
        // between empty — the interior boundaries must still be emitted.
        h.observe(1);
        h.observe(300);
        h.observe(400);
        let text = registry.render_prometheus();
        let parsed = parse_prometheus(&text).expect("exposition parses");
        let buckets: Vec<&ParsedSample> = parsed
            .iter()
            .filter(|s| s.name == "zugchain_stage_latency_ms_bucket")
            .collect();
        // Dense through bucket_index(400) = 9, plus +Inf: boundaries
        // 0,1,3,7,15,31,63,127,255,511,+Inf.
        let les: Vec<String> = buckets
            .iter()
            .map(|s| {
                s.labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| v.clone())
                    .expect("bucket line has le")
            })
            .collect();
        let expected: Vec<String> = (0..=9)
            .map(|i| bucket_upper_bound(i).to_string())
            .chain(std::iter::once("+Inf".to_string()))
            .collect();
        assert_eq!(les, expected, "dense le boundaries:\n{text}");
        // Cumulative and monotone, ending at the total.
        let counts: Vec<f64> = buckets.iter().map(|s| s.value).collect();
        assert!(
            counts.windows(2).all(|w| w[0] <= w[1]),
            "cumulative counts must be monotone: {counts:?}"
        );
        assert_eq!(*counts.last().unwrap(), 3.0, "+Inf carries the total");
        // _sum/_count present and consistent.
        let get = |name: &str| {
            parsed
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("{name} line present"))
                .value
        };
        assert_eq!(get("zugchain_stage_latency_ms_count"), 3.0);
        assert_eq!(get("zugchain_stage_latency_ms_sum"), 701.0);
        // An empty histogram exposes just +Inf/_sum/_count zeros.
        registry.histogram("zugchain_empty_ms", &labels(&[("node", "0")]));
        let parsed = parse_prometheus(&registry.render_prometheus()).expect("parses");
        let empty: Vec<&ParsedSample> = parsed
            .iter()
            .filter(|s| s.name == "zugchain_empty_ms_bucket")
            .collect();
        assert_eq!(empty.len(), 1);
        assert_eq!(empty[0].value, 0.0);
    }

    #[test]
    fn exposition_round_trips() {
        let registry = Registry::new();
        registry
            .counter("zugchain_pbft_decided_total", &labels(&[("node", "0")]))
            .add(7);
        registry
            .gauge("zugchain_pbft_view", &labels(&[("node", "0")]))
            .set(-2);
        let h = registry.histogram("zugchain_archive_ingest_ms", &labels(&[("node", "1")]));
        h.observe(0);
        h.observe(300);
        let text = registry.render_prometheus();
        let parsed = parse_prometheus(&text).expect("every emitted line parses");
        assert!(parsed
            .iter()
            .any(|s| s.name == "zugchain_pbft_decided_total" && s.value == 7.0));
        assert!(parsed
            .iter()
            .any(|s| s.name == "zugchain_pbft_view" && s.value == -2.0));
        assert!(parsed
            .iter()
            .any(|s| s.name == "zugchain_archive_ingest_ms_count" && s.value == 2.0));
        let inf_bucket = parsed
            .iter()
            .find(|s| {
                s.name == "zugchain_archive_ingest_ms_bucket"
                    && s.labels.iter().any(|(k, v)| k == "le" && v == "+Inf")
            })
            .expect("+Inf bucket present");
        assert_eq!(inf_bucket.value, 2.0);
    }
}
