//! Prometheus text exposition for `GET /api/metrics`.
//!
//! Renders the simulator's live counters — event throughput, virtual time,
//! buffer depths, per-event-kind counts, and the [`akita::trace`] latency
//! histograms — in the Prometheus text format (version 0.0.4), so any
//! off-the-shelf scraper can watch a simulation the way the dashboard does.
//!
//! Histograms follow the exposition rules exactly: `_bucket` series carry
//! *cumulative* counts with an `le` upper bound in **seconds of virtual
//! time**, always ending in `le="+Inf"`, alongside `_sum` and `_count`.
//! Derived p50/p95/p99 quantiles are exported as a separate gauge family
//! (`akita_task_latency_quantile_seconds`) because Prometheus histograms
//! do not carry server-side quantiles.

use std::fmt::Write as _;

use akita::trace::{bucket_upper_ps, TaskTraceReport};

use crate::monitor::{BufferSort, Monitor};

const PS_PER_SEC: f64 = 1e12;

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline must be backslash-escaped.
#[must_use]
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Renders the task-latency histograms and drop counters from `report`.
///
/// Split out from [`render`] so tests can drive it with a synthetic
/// report, without a live engine behind a [`Monitor`].
pub fn render_report(report: &TaskTraceReport, out: &mut String) {
    header(
        out,
        "akita_tracing_enabled",
        "Whether task tracing is collecting (1) or disabled (0).",
        "gauge",
    );
    let _ = writeln!(out, "akita_tracing_enabled {}", u8::from(report.enabled));
    header(
        out,
        "akita_trace_spans_dropped_total",
        "Completed spans discarded because a span ring filled.",
        "counter",
    );
    let _ = writeln!(
        out,
        "akita_trace_spans_dropped_total {}",
        report.spans_dropped
    );
    header(
        out,
        "akita_trace_open_dropped_total",
        "Task begins discarded because an open-task table filled.",
        "counter",
    );
    let _ = writeln!(
        out,
        "akita_trace_open_dropped_total {}",
        report.open_dropped
    );
    if report.histograms.is_empty() {
        return;
    }
    header(
        out,
        "akita_task_latency_seconds",
        "Task latency per site, kind, and phase, in seconds of virtual time.",
        "histogram",
    );
    for h in &report.histograms {
        let labels = format!(
            "site=\"{}\",kind=\"{}\",phase=\"{}\"",
            escape_label(&h.site),
            escape_label(&h.kind),
            h.phase.label()
        );
        let mut cumulative = 0u64;
        for (i, &c) in h.buckets.iter().enumerate() {
            // Dense log2 buckets: skip leading/trailing empties but keep
            // cumulative counts exact by only emitting occupied bounds.
            cumulative += c;
            if c == 0 {
                continue;
            }
            let le = bucket_upper_ps(i) as f64 / PS_PER_SEC;
            let _ = writeln!(
                out,
                "akita_task_latency_seconds_bucket{{{labels},le=\"{le}\"}} {cumulative}"
            );
        }
        let _ = writeln!(
            out,
            "akita_task_latency_seconds_bucket{{{labels},le=\"+Inf\"}} {}",
            h.count
        );
        let _ = writeln!(
            out,
            "akita_task_latency_seconds_sum{{{labels}}} {}",
            h.sum_ps as f64 / PS_PER_SEC
        );
        let _ = writeln!(
            out,
            "akita_task_latency_seconds_count{{{labels}}} {}",
            h.count
        );
    }
    header(
        out,
        "akita_task_latency_quantile_seconds",
        "Derived latency quantiles (bucket upper bounds), seconds of virtual time.",
        "gauge",
    );
    for h in &report.histograms {
        // A site that has completed zero tasks has no latency distribution;
        // publishing a quantile for it is at best 0 and at worst a bucket
        // sentinel (~2^47 ps). Omit the gauges entirely — Prometheus treats
        // an absent series correctly, a bogus value poisons dashboards.
        if h.count == 0 {
            continue;
        }
        let labels = format!(
            "site=\"{}\",kind=\"{}\",phase=\"{}\"",
            escape_label(&h.site),
            escape_label(&h.kind),
            h.phase.label()
        );
        for (q, ps) in [("0.5", h.p50_ps), ("0.95", h.p95_ps), ("0.99", h.p99_ps)] {
            let _ = writeln!(
                out,
                "akita_task_latency_quantile_seconds{{{labels},q=\"{q}\"}} {}",
                ps as f64 / PS_PER_SEC
            );
        }
    }
}

/// Renders the full scrape body for one monitor.
#[must_use]
pub fn render(m: &Monitor) -> String {
    let mut out = String::with_capacity(4096);
    header(
        &mut out,
        "akita_events_total",
        "Events dispatched by the engine since start.",
        "counter",
    );
    let _ = writeln!(out, "akita_events_total {}", m.client().events_handled());
    header(
        &mut out,
        "akita_virtual_time_seconds",
        "Current virtual time of the simulation.",
        "gauge",
    );
    let _ = writeln!(out, "akita_virtual_time_seconds {}", m.now().as_sec());
    header(
        &mut out,
        "akita_events_per_second",
        "Wall-clock event throughput over the monitor's sliding window.",
        "gauge",
    );
    let _ = writeln!(out, "akita_events_per_second {}", m.events_per_sec());
    if let Some(counts) = m.event_counts() {
        header(
            &mut out,
            "akita_events_by_kind_total",
            "Events dispatched per event kind (EventCountHook).",
            "counter",
        );
        for (kind, n) in counts {
            let _ = writeln!(
                out,
                "akita_events_by_kind_total{{kind=\"{}\"}} {n}",
                escape_label(&kind)
            );
        }
    }
    if let Ok(buffers) = m.buffers(BufferSort::Size, None) {
        header(
            &mut out,
            "akita_buffer_depth",
            "Current element count of each live buffer.",
            "gauge",
        );
        for b in &buffers {
            let _ = writeln!(
                out,
                "akita_buffer_depth{{buffer=\"{}\"}} {}",
                escape_label(&b.name),
                b.size
            );
        }
        header(
            &mut out,
            "akita_buffer_capacity",
            "Capacity of each live buffer.",
            "gauge",
        );
        for b in &buffers {
            let _ = writeln!(
                out,
                "akita_buffer_capacity{{buffer=\"{}\"}} {}",
                escape_label(&b.name),
                b.capacity
            );
        }
    }
    render_report(&m.task_trace(0, 0), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use akita::trace::{HistogramSnapshot, Phase};

    fn hist(site: &str, kind: &str, phase: Phase) -> HistogramSnapshot {
        // Three observations: 1 ps, 3 ps, 1000 ps.
        let mut buckets = vec![0u64; akita::trace::HIST_BUCKETS];
        buckets[0] = 1; // 0..=1 ps
        buckets[1] = 1; // 2..=3 ps
        buckets[9] = 1; // 512..=1023 ps
        HistogramSnapshot {
            site: site.into(),
            kind: kind.into(),
            phase,
            count: 3,
            sum_ps: 1004,
            buckets,
            p50_ps: 3,
            p95_ps: 1023,
            p99_ps: 1023,
        }
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let report = TaskTraceReport {
            enabled: true,
            histograms: vec![hist("GPU.L2", "read", Phase::Service)],
            ..TaskTraceReport::default()
        };
        let mut out = String::new();
        render_report(&report, &mut out);
        let buckets: Vec<&str> = out
            .lines()
            .filter(|l| l.starts_with("akita_task_latency_seconds_bucket"))
            .collect();
        assert_eq!(buckets.len(), 4, "3 occupied buckets + +Inf:\n{out}");
        // Cumulative: 1, 2, 3, then +Inf carries the total count.
        assert!(buckets[0].ends_with(" 1"), "{}", buckets[0]);
        assert!(buckets[1].ends_with(" 2"), "{}", buckets[1]);
        assert!(buckets[2].ends_with(" 3"), "{}", buckets[2]);
        assert!(buckets[3].contains("le=\"+Inf\""), "{}", buckets[3]);
        assert!(buckets[3].ends_with(" 3"), "{}", buckets[3]);
        assert!(out.contains(
            "akita_task_latency_seconds_count{site=\"GPU.L2\",kind=\"read\",phase=\"service\"} 3"
        ));
        assert!(out.contains("akita_task_latency_quantile_seconds{site=\"GPU.L2\",kind=\"read\",phase=\"service\",q=\"0.5\"}"));
    }

    #[test]
    fn empty_histogram_publishes_no_quantiles() {
        // Regression: a site with zero completed tasks used to publish
        // p50/p95/p99 gauges anyway — 0 at best, a ~2^47 ps bucket
        // sentinel at worst — wrecking dashboard autoscaling. The gauge
        // family must be absent for count == 0 sites and present for the
        // occupied ones.
        let empty = HistogramSnapshot {
            site: "GPU.Idle".into(),
            kind: "read".into(),
            phase: Phase::Service,
            count: 0,
            sum_ps: 0,
            buckets: vec![0u64; akita::trace::HIST_BUCKETS],
            p50_ps: 0,
            p95_ps: 0,
            p99_ps: 0,
        };
        let report = TaskTraceReport {
            enabled: true,
            histograms: vec![empty, hist("GPU.L2", "read", Phase::Service)],
            ..TaskTraceReport::default()
        };
        let mut out = String::new();
        render_report(&report, &mut out);
        assert!(
            !out.contains("akita_task_latency_quantile_seconds{site=\"GPU.Idle\""),
            "zero-count site must not publish quantile gauges:\n{out}"
        );
        assert!(
            out.contains("akita_task_latency_quantile_seconds{site=\"GPU.L2\""),
            "occupied site keeps its quantiles:\n{out}"
        );
        // The histogram family itself stays (count 0 is honest there).
        assert!(out.contains(
            "akita_task_latency_seconds_count{site=\"GPU.Idle\",kind=\"read\",phase=\"service\"} 0"
        ));
    }

    #[test]
    fn every_line_is_comment_or_sample() {
        let report = TaskTraceReport {
            enabled: false,
            histograms: vec![
                hist("a", "read", Phase::Queue),
                hist("b\"q", "write", Phase::Transit),
            ],
            spans_dropped: 7,
            open_dropped: 2,
            ..TaskTraceReport::default()
        };
        let mut out = String::new();
        render_report(&report, &mut out);
        for line in out.lines() {
            assert!(!line.is_empty());
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment: {line}"
                );
            } else {
                // name{labels} value — value parses as a float.
                let value = line.rsplit(' ').next().unwrap();
                assert!(value.parse::<f64>().is_ok(), "bad sample: {line}");
            }
        }
        assert!(out.contains("akita_trace_spans_dropped_total 7"));
        assert!(out.contains("akita_trace_open_dropped_total 2"));
    }
}
