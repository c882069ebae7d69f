//! Export surface: the Prometheus text exposition format.

use std::fmt::Write as _;

use crate::metrics::{bucket_bound, HistogramSnapshot};
use crate::registry::{MetricValue, MetricsRegistry};

/// Escapes a Prometheus label value (`\`, `"`, newline).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

/// Renders a label set as `{k="v",...}` (empty string for no labels),
/// with `extra` appended last when given.
fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn render_histogram_prometheus(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    h: &HistogramSnapshot,
) {
    let mut cumulative = 0u64;
    for (i, &n) in h.buckets.iter().enumerate() {
        cumulative += n;
        let le = bucket_bound(i).to_string();
        let lb = label_block(labels, Some(("le", &le)));
        let _ = writeln!(out, "{name}_bucket{lb} {cumulative}");
    }
    cumulative += h.overflow;
    let lb = label_block(labels, Some(("le", "+Inf")));
    let _ = writeln!(out, "{name}_bucket{lb} {cumulative}");
    let lb = label_block(labels, None);
    let _ = writeln!(out, "{name}_sum{lb} {}", h.sum);
    let _ = writeln!(out, "{name}_count{lb} {}", h.count);
}

/// Renders the registry in the Prometheus text exposition format.
///
/// Histograms use nanosecond `le` bounds (the crate-wide latency unit);
/// one `# TYPE` line precedes each metric name. Output is
/// deterministic: series are ordered by (name, sorted labels).
#[must_use]
pub fn render_prometheus(registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    let mut current_name: Option<String> = None;
    for sample in registry.samples() {
        if current_name.as_deref() != Some(sample.name.as_str()) {
            let _ = writeln!(
                out,
                "# TYPE {} {}",
                sample.name,
                sample.value.kind().prometheus_type()
            );
            current_name = Some(sample.name.clone());
        }
        match &sample.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                let lb = label_block(&sample.labels, None);
                let _ = writeln!(out, "{}{lb} {v}", sample.name);
            }
            MetricValue::Histogram(h) => {
                render_histogram_prometheus(&mut out, &sample.name, &sample.labels, h);
            }
        }
    }
    out
}

impl MetricsRegistry {
    /// Prometheus text-format rendering; see
    /// [`crate::export::render_prometheus`].
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        render_prometheus(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HISTOGRAM_BUCKETS;

    #[test]
    fn prometheus_golden_output() {
        let reg = MetricsRegistry::new();
        reg.counter("drange_served_bits_total", &[]).add(800);
        reg.gauge("drange_pool_bits", &[]).set(4096);
        let h = reg.histogram(
            "drange_stage_latency_ns",
            &[("stage", "harvest"), ("worker", "0")],
        );
        h.record_ns(1);
        h.record_ns(3);
        h.record_ns(3);

        let text = reg.render_prometheus();
        let expected_head = "\
# TYPE drange_pool_bits gauge
drange_pool_bits 4096
# TYPE drange_served_bits_total counter
drange_served_bits_total 800
# TYPE drange_stage_latency_ns histogram
drange_stage_latency_ns_bucket{stage=\"harvest\",worker=\"0\",le=\"1\"} 1
drange_stage_latency_ns_bucket{stage=\"harvest\",worker=\"0\",le=\"2\"} 1
drange_stage_latency_ns_bucket{stage=\"harvest\",worker=\"0\",le=\"4\"} 3
drange_stage_latency_ns_bucket{stage=\"harvest\",worker=\"0\",le=\"8\"} 3";
        assert!(
            text.starts_with(expected_head),
            "unexpected prefix:\n{}",
            &text[..expected_head.len().min(text.len())]
        );
        let expected_tail = "\
drange_stage_latency_ns_bucket{stage=\"harvest\",worker=\"0\",le=\"+Inf\"} 3
drange_stage_latency_ns_sum{stage=\"harvest\",worker=\"0\"} 7
drange_stage_latency_ns_count{stage=\"harvest\",worker=\"0\"} 3
";
        assert!(text.ends_with(expected_tail), "unexpected suffix:\n{text}");
        // One bucket line per finite bucket plus +Inf.
        let bucket_lines = text.lines().filter(|l| l.contains("_bucket{")).count();
        assert_eq!(bucket_lines, HISTOGRAM_BUCKETS + 1);
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[]);
        h.record_ns(1);
        h.record_ns(100);
        h.record_ns(u64::MAX);
        let text = reg.render_prometheus();
        assert!(text.contains("lat_bucket{le=\"1\"} 1"));
        assert!(text.contains("lat_bucket{le=\"128\"} 2"));
        let last_finite = bucket_bound(HISTOGRAM_BUCKETS - 1);
        assert!(text.contains(&format!("lat_bucket{{le=\"{last_finite}\"}} 2")));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_count 3"));
    }

    #[test]
    fn label_escaping() {
        let reg = MetricsRegistry::new();
        reg.counter("c", &[("k", "a\"b\\c\nd")]).inc();
        let text = reg.render_prometheus();
        assert!(text.contains(r#"c{k="a\"b\\c\nd"} 1"#), "{text}");
    }

    /// The exposition format requires exactly three escapes in label
    /// values — backslash, double-quote, and line feed — each checked
    /// in isolation so a regression in one cannot hide behind the
    /// others.
    #[test]
    fn label_escaping_covers_each_required_character() {
        let reg = MetricsRegistry::new();
        reg.counter("c", &[("path", r"C:\temp\x")]).inc();
        assert!(
            reg.render_prometheus()
                .contains(r#"c{path="C:\\temp\\x"} 1"#),
            "backslash: {}",
            reg.render_prometheus()
        );

        let reg = MetricsRegistry::new();
        reg.counter("c", &[("q", "say \"hi\"")]).inc();
        assert!(
            reg.render_prometheus().contains(r#"c{q="say \"hi\""} 1"#),
            "double quote: {}",
            reg.render_prometheus()
        );

        let reg = MetricsRegistry::new();
        reg.counter("c", &[("n", "line1\nline2")]).inc();
        let text = reg.render_prometheus();
        assert!(text.contains(r#"c{n="line1\nline2"} 1"#), "newline: {text}");
        // The escape keeps the series on one physical line — a raw
        // newline would split it and corrupt the whole exposition.
        assert!(
            text.lines()
                .any(|l| l.starts_with("c{") && l.ends_with(" 1")),
            "{text}"
        );
    }

    /// A backslash that already looks like an escape sequence must
    /// still be doubled — the format has no pass-through.
    #[test]
    fn label_escaping_doubles_preescaped_input() {
        let reg = MetricsRegistry::new();
        reg.counter("c", &[("k", r"already\nescaped")]).inc();
        let text = reg.render_prometheus();
        assert!(text.contains(r#"c{k="already\\nescaped"} 1"#), "{text}");
    }

    /// Escaping applies to every label slot, including the synthesized
    /// `le` path used for histogram buckets (the `extra` argument of
    /// `label_block`).
    #[test]
    fn histogram_series_escape_user_labels_in_every_line() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[("src", "a\\b\"c")]);
        h.record_ns(1);
        let text = reg.render_prometheus();
        assert!(
            text.contains(r#"lat_bucket{src="a\\b\"c",le="1"} 1"#),
            "{text}"
        );
        assert!(
            text.contains(r#"lat_bucket{src="a\\b\"c",le="+Inf"} 1"#),
            "{text}"
        );
        assert!(text.contains(r#"lat_sum{src="a\\b\"c"} 1"#), "{text}");
        assert!(text.contains(r#"lat_count{src="a\\b\"c"} 1"#), "{text}");
    }

    #[test]
    fn empty_registry_renders_empty() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.render_prometheus(), "");
    }
}
