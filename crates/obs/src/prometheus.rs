//! Prometheus text-format exposition (version 0.0.4) over the MHETA
//! metric registries.
//!
//! Renders [`Metrics`] (simulation runs) and [`ServiceMetrics`] (the
//! serving layer) snapshots as the plain-text scrape format every
//! Prometheus-compatible collector ingests:
//!
//! * counters keep their registry name, sanitized
//!   (`events.disk_read` → `mheta_events_disk_read_total`);
//! * per-rank time buckets and memory peaks become labeled gauges;
//! * the log₂ [`LatencyHistogram`]s become cumulative
//!   `le`-bucketed Prometheus histograms in **seconds** (bucket `i`'s
//!   upper bound is `2^i` ns), each with the mandatory `_sum` and
//!   `_count` series and a terminal `le="+Inf"` bucket.
//!
//! The naming scheme (see DESIGN.md §12): every series starts with
//! `mheta_`, serving-layer series with `mheta_serve_`; durations are
//! `_seconds`, sizes `_bytes`, monotonic tallies `_total`.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use mheta_dist::LatencyHistogram;

use crate::metrics::Metrics;
use crate::service::ServiceMetrics;

/// Incremental builder for one exposition document. Emits `# HELP` /
/// `# TYPE` headers once per metric family, however many labeled
/// series the family gets.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
    seen: BTreeSet<String>,
}

/// Replace every character Prometheus forbids in metric names.
fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        s.insert(0, '_');
    }
    s
}

/// Escape a label value per the exposition format.
fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize(k), escape_label(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

impl PromText {
    /// An empty document.
    #[must_use]
    pub fn new() -> Self {
        PromText::default()
    }

    fn header(&mut self, name: &str, help: &str, typ: &str) {
        if self.seen.insert(name.to_string()) {
            let _ = writeln!(self.out, "# HELP {name} {help}");
            let _ = writeln!(self.out, "# TYPE {name} {typ}");
        }
    }

    /// One counter sample (name is sanitized; `_total` is NOT appended
    /// automatically — pass the full family name).
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        let name = sanitize(name);
        self.header(&name, help, "counter");
        let _ = writeln!(self.out, "{name}{} {value}", render_labels(labels));
    }

    /// One gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        let name = sanitize(name);
        self.header(&name, help, "gauge");
        let _ = writeln!(self.out, "{name}{} {value}", render_labels(labels));
    }

    /// One histogram series from log₂ ns buckets: bucket `i` counts
    /// samples in `[2^(i-1), 2^i)` ns (bucket 0: zero-valued samples),
    /// rendered as cumulative `le` buckets in seconds plus `_sum` /
    /// `_count`. Trailing empty buckets collapse into `le="+Inf"`.
    pub fn histogram_log2(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        buckets: &[u64],
        count: u64,
        sum_ns: u64,
    ) {
        let name = sanitize(name);
        self.header(&name, help, "histogram");
        let labelstr = render_labels(labels);
        let highest = buckets.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        let mut cumulative = 0u64;
        for (i, &c) in buckets.iter().take(highest).enumerate() {
            cumulative += c;
            let le = if i == 0 {
                "0".to_string()
            } else if i >= 64 {
                "+Inf".to_string()
            } else {
                format!("{}", (1u64 << i) as f64 / 1e9)
            };
            if le == "+Inf" {
                break;
            }
            let _ = writeln!(
                self.out,
                "{name}_bucket{} {cumulative}",
                render_bucket_labels(labels, &le)
            );
        }
        let _ = writeln!(
            self.out,
            "{name}_bucket{} {count}",
            render_bucket_labels(labels, "+Inf")
        );
        let _ = writeln!(self.out, "{name}_sum{labelstr} {}", sum_ns as f64 / 1e9);
        let _ = writeln!(self.out, "{name}_count{labelstr} {count}");
    }

    /// The finished document.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }
}

fn render_bucket_labels(labels: &[(&str, &str)], le: &str) -> String {
    let mut all: Vec<(&str, &str)> = labels.to_vec();
    all.push(("le", le));
    render_labels(&all)
}

/// Render a run-metrics registry ([`Metrics`]) as one exposition
/// document: every counter, every latency histogram, and per-rank
/// time/memory gauges.
#[must_use]
pub fn metrics_text(m: &Metrics) -> String {
    let mut p = PromText::new();
    for (name, &value) in &m.counters {
        p.counter(
            &format!("mheta_{name}_total"),
            "Run counter from the MHETA metrics registry.",
            &[],
            value,
        );
    }
    for (name, h) in &m.histograms {
        p.histogram_log2(
            &format!("mheta_{name}_seconds"),
            "Run latency histogram (log2 ns buckets).",
            &[],
            &h.buckets,
            h.count,
            h.sum_ns,
        );
    }
    for b in &m.breakdowns {
        let rank = b.rank.to_string();
        for (bucket, ns) in b.buckets() {
            p.gauge(
                "mheta_rank_time_seconds",
                "Per-rank virtual-time partition by bucket.",
                &[("rank", &rank), ("bucket", bucket)],
                ns as f64 / 1e9,
            );
        }
        p.gauge(
            "mheta_rank_peak_mem_bytes",
            "Per-rank peak memory high-water mark.",
            &[("rank", &rank)],
            b.peak_mem_bytes as f64,
        );
    }
    p.finish()
}

/// Render a serving-layer registry ([`ServiceMetrics`]) as one
/// exposition document: lifecycle counters (per request source),
/// cache-pressure counters, and the per-stage latency histograms.
#[must_use]
pub fn service_text(m: &ServiceMetrics) -> String {
    let mut p = PromText::new();
    p.counter(
        "mheta_serve_requests_total",
        "Planning requests finished, by outcome source.",
        &[("source", "fresh")],
        m.requests()
            .saturating_sub(m.cache_hits() + m.coalesced() + m.shed() + m.failures()),
    );
    for (source, value) in [
        ("cache", m.cache_hits()),
        ("coalesced", m.coalesced()),
        ("shed", m.shed()),
        ("failed", m.failures()),
    ] {
        p.counter(
            "mheta_serve_requests_total",
            "Planning requests finished, by outcome source.",
            &[("source", source)],
            value,
        );
    }
    p.counter(
        "mheta_serve_searches_total",
        "Portfolio searches started.",
        &[],
        m.searches(),
    );
    p.counter(
        "mheta_serve_degraded_total",
        "Requests answered with a deadline-truncated incumbent plan.",
        &[],
        m.degraded(),
    );
    p.counter(
        "mheta_serve_deadline_exceeded_total",
        "Requests whose deadline expired with no incumbent plan.",
        &[],
        m.deadline_exceeded(),
    );
    p.counter(
        "mheta_serve_spans_dropped_total",
        "Request spans dropped from the bounded trace ring.",
        &[],
        m.spans_dropped(),
    );
    p.counter(
        "mheta_serve_delta_hits_total",
        "Search evaluations answered from cached delta leaves.",
        &[],
        m.delta_hits(),
    );
    p.counter(
        "mheta_serve_delta_full_evals_total",
        "Search evaluations that recomputed every rank's leaves.",
        &[],
        m.delta_full_evals(),
    );
    p.counter(
        "mheta_serve_delta_terms_reused_total",
        "Cost leaves reused from delta caches instead of recomputed.",
        &[],
        m.delta_terms_reused(),
    );
    for (kind, value) in [
        ("structural", m.delta_fallbacks()),
        ("error", m.delta_fallback_errors()),
    ] {
        p.counter(
            "mheta_serve_delta_fallbacks_total",
            "Delta evaluations that fell back to a full evaluation.",
            &[("kind", kind)],
            value,
        );
    }
    for (stage, h) in m.stage_histograms() {
        latency_histogram(
            &mut p,
            "mheta_serve_stage_seconds",
            "Request stage latency (log2 ns buckets).",
            &[("stage", stage)],
            &h,
        );
    }
    p.finish()
}

/// Append one `LatencyHistogram` as a labeled Prometheus histogram.
pub fn latency_histogram(
    p: &mut PromText,
    name: &str,
    help: &str,
    labels: &[(&str, &str)],
    h: &LatencyHistogram,
) {
    p.histogram_log2(name, help, labels, &h.buckets, h.count, h.sum_ns);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal exposition-format sanity: parse the text back into
    /// (name, labels, value) samples and check histogram invariants.
    fn samples(text: &str) -> Vec<(String, String, f64)> {
        text.lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(|l| {
                let (series, value) = l.rsplit_once(' ').expect("sample line");
                let (name, labels) = match series.find('{') {
                    Some(i) => (series[..i].to_string(), series[i..].to_string()),
                    None => (series.to_string(), String::new()),
                };
                (name, labels, value.parse().expect("numeric value"))
            })
            .collect()
    }

    #[test]
    fn sanitizes_names_and_escapes_labels() {
        let mut p = PromText::new();
        p.counter("mheta.events/disk read", "h", &[("app", "a\"b\\c")], 3);
        let text = p.finish();
        assert!(text.contains("mheta_events_disk_read{app=\"a\\\"b\\\\c\"} 3"));
        assert!(text.contains("# TYPE mheta_events_disk_read counter"));
    }

    #[test]
    fn headers_emit_once_per_family() {
        let mut p = PromText::new();
        p.counter("mheta_x_total", "h", &[("s", "a")], 1);
        p.counter("mheta_x_total", "h", &[("s", "b")], 2);
        let text = p.finish();
        assert_eq!(text.matches("# TYPE mheta_x_total counter").count(), 1);
        assert_eq!(text.matches("mheta_x_total{").count(), 2);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_complete() {
        let mut h = LatencyHistogram::default();
        for ns in [0u64, 1, 3, 3, 900, 5_000_000] {
            h.record(ns);
        }
        let mut p = PromText::new();
        latency_histogram(&mut p, "mheta_t_seconds", "h", &[], &h);
        let text = p.finish();
        let s = samples(&text);
        let buckets: Vec<f64> = s
            .iter()
            .filter(|(n, _, _)| n == "mheta_t_seconds_bucket")
            .map(|&(_, _, v)| v)
            .collect();
        assert!(
            buckets.windows(2).all(|w| w[0] <= w[1]),
            "buckets must be cumulative: {buckets:?}"
        );
        assert_eq!(*buckets.last().unwrap(), 6.0, "+Inf bucket equals count");
        assert!(text.contains("le=\"+Inf\""));
        let count = s
            .iter()
            .find(|(n, _, _)| n == "mheta_t_seconds_count")
            .unwrap()
            .2;
        assert_eq!(count, 6.0);
        let sum = s
            .iter()
            .find(|(n, _, _)| n == "mheta_t_seconds_sum")
            .unwrap()
            .2;
        assert!((sum - 5_000_907.0 / 1e9).abs() < 1e-12);
    }

    #[test]
    fn service_text_exposes_delta_counters() {
        let m = ServiceMetrics::new();
        m.on_delta(&mheta_dist::DeltaStats {
            delta_hits: 7,
            full_evals: 2,
            terms_reused: 91,
            fallback_cold: 2,
            fallback_error: 1,
            ..Default::default()
        });
        let text = service_text(&m);
        assert!(text.contains("mheta_serve_delta_hits_total 7"));
        assert!(text.contains("mheta_serve_delta_full_evals_total 2"));
        assert!(text.contains("mheta_serve_delta_terms_reused_total 91"));
        assert!(text.contains("mheta_serve_delta_fallbacks_total{kind=\"structural\"} 2"));
        assert!(text.contains("mheta_serve_delta_fallbacks_total{kind=\"error\"} 1"));
    }

    #[test]
    fn metrics_text_covers_counters_histograms_and_ranks() {
        let mut m = Metrics::default();
        m.incr("events.disk_read", 4);
        m.observe("latency.disk_read", 1500);
        m.breakdowns.push(crate::metrics::RankBreakdown {
            rank: 0,
            finish_ns: 100,
            compute_ns: 60,
            idle_ns: 40,
            peak_mem_bytes: 4096,
            ..Default::default()
        });
        let text = metrics_text(&m);
        assert!(text.contains("mheta_events_disk_read_total 4"));
        assert!(text.contains("mheta_latency_disk_read_seconds_count 1"));
        assert!(text.contains("mheta_rank_time_seconds{rank=\"0\",bucket=\"compute\"} 0.00000006"));
        assert!(text.contains("mheta_rank_peak_mem_bytes{rank=\"0\"} 4096"));
    }
}
