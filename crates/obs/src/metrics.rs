//! A metrics registry: counters, gauges, and log-binned histograms, with
//! deterministic text export (and parsing, for round-trip verification).
//!
//! Keys live in a `BTreeMap`, so export order is sorted and two runs with
//! the same seed produce byte-identical files.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use vine_simcore::trace::LogHistogram;

/// One registered metric.
#[derive(Clone, Debug)]
pub enum Metric {
    /// A monotonically-increasing count.
    Counter(u64),
    /// A point-in-time value.
    Gauge(f64),
    /// A log₂-binned histogram of positive values.
    Histogram(LogHistogram),
}

/// A named collection of metrics.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    items: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to counter `name` (creating it at zero).
    pub fn counter_add(&mut self, name: &str, n: u64) {
        match self
            .items
            .entry(name.to_string())
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(c) => *c = c.saturating_add(n),
            other => *other = Metric::Counter(n),
        }
    }

    /// Set gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        self.items.insert(name.to_string(), Metric::Gauge(v));
    }

    /// Record `v` into histogram `name`, creating it with `min`/`bins`
    /// if absent.
    pub fn histogram_record(&mut self, name: &str, min: f64, bins: usize, v: f64) {
        match self
            .items
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(LogHistogram::new(min, bins)))
        {
            Metric::Histogram(h) => h.record(v),
            other => {
                let mut h = LogHistogram::new(min, bins);
                h.record(v);
                *other = Metric::Histogram(h);
            }
        }
    }

    /// Look up a metric.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.items.get(name)
    }

    /// The value of counter `name`, or `None` if absent or not a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.items.get(name) {
            Some(Metric::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// The value of gauge `name`, or `None` if absent or not a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.items.get(name) {
            Some(Metric::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterate metrics in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.items.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Render as the deterministic text format:
    ///
    /// ```text
    /// # vine-obs metrics v1
    /// counter tasks.executed 25
    /// gauge makespan_s 123.5
    /// hist task_time_s min=0.0625 counts=0,1,2
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::from("# vine-obs metrics v1\n");
        for (name, m) in &self.items {
            match m {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "counter {name} {c}");
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "gauge {name} {g}");
                }
                Metric::Histogram(h) => {
                    let counts: Vec<String> = h.counts().iter().map(|c| c.to_string()).collect();
                    let _ = writeln!(
                        out,
                        "hist {name} min={} counts={}",
                        h.bin_lo(0),
                        counts.join(",")
                    );
                }
            }
        }
        out
    }

    /// Parse the text format back. Strict: unknown lines are errors.
    pub fn parse_text(text: &str) -> Result<Self, String> {
        let mut reg = MetricsRegistry::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let kind = parts.next().unwrap_or_default();
            let name = parts
                .next()
                .ok_or_else(|| format!("line {}: missing metric name", i + 1))?;
            match kind {
                "counter" => {
                    let v: u64 = parts
                        .next()
                        .ok_or_else(|| format!("line {}: missing value", i + 1))?
                        .parse()
                        .map_err(|e| format!("line {}: {e}", i + 1))?;
                    reg.items.insert(name.to_string(), Metric::Counter(v));
                }
                "gauge" => {
                    let v: f64 = parts
                        .next()
                        .ok_or_else(|| format!("line {}: missing value", i + 1))?
                        .parse()
                        .map_err(|e| format!("line {}: {e}", i + 1))?;
                    reg.items.insert(name.to_string(), Metric::Gauge(v));
                }
                "hist" => {
                    let mut min = None;
                    let mut counts: Option<Vec<u64>> = None;
                    for p in parts {
                        if let Some(v) = p.strip_prefix("min=") {
                            min = Some(
                                v.parse::<f64>()
                                    .map_err(|e| format!("line {}: bad min: {e}", i + 1))?,
                            );
                        } else if let Some(v) = p.strip_prefix("counts=") {
                            counts = Some(
                                v.split(',')
                                    .map(|c| c.parse::<u64>())
                                    .collect::<Result<_, _>>()
                                    .map_err(|e| format!("line {}: bad counts: {e}", i + 1))?,
                            );
                        } else {
                            return Err(format!("line {}: unknown hist field {p}", i + 1));
                        }
                    }
                    let min = min.ok_or_else(|| format!("line {}: hist missing min", i + 1))?;
                    if min.is_nan() || min <= 0.0 {
                        return Err(format!("line {}: hist min must be > 0", i + 1));
                    }
                    let counts =
                        counts.ok_or_else(|| format!("line {}: hist missing counts", i + 1))?;
                    let h = LogHistogram::from_counts(min, counts);
                    reg.items.insert(name.to_string(), Metric::Histogram(h));
                }
                other => return Err(format!("line {}: unknown metric kind {other}", i + 1)),
            }
        }
        Ok(reg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let mut r = MetricsRegistry::new();
        r.counter_add("tasks", 3);
        r.counter_add("tasks", 2);
        r.gauge_set("makespan_s", 1.5);
        r.gauge_set("makespan_s", 2.5);
        assert_eq!(r.counter("tasks"), Some(5));
        assert_eq!(r.gauge("makespan_s"), Some(2.5));
        assert_eq!(r.counter("makespan_s"), None);
    }

    #[test]
    fn text_export_is_sorted_and_round_trips() {
        let mut r = MetricsRegistry::new();
        r.gauge_set("z.last", 9.25);
        r.counter_add("a.first", 7);
        r.histogram_record("m.hist", 0.5, 4, 0.6);
        r.histogram_record("m.hist", 0.5, 4, 3.0);
        let text = r.to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "# vine-obs metrics v1");
        assert_eq!(lines[1], "counter a.first 7");
        assert!(lines[2].starts_with("hist m.hist min=0.5 counts="));
        assert_eq!(lines[3], "gauge z.last 9.25");

        let back = MetricsRegistry::parse_text(&text).unwrap();
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(MetricsRegistry::parse_text("bogus line here").is_err());
        assert!(MetricsRegistry::parse_text("counter only_name").is_err());
        assert!(MetricsRegistry::parse_text("hist h min=1.0").is_err());
    }

    #[test]
    fn export_is_deterministic_across_insertion_orders() {
        let mut a = MetricsRegistry::new();
        a.counter_add("x", 1);
        a.gauge_set("y", 2.0);
        let mut b = MetricsRegistry::new();
        b.gauge_set("y", 2.0);
        b.counter_add("x", 1);
        assert_eq!(a.to_text(), b.to_text());
    }
}
