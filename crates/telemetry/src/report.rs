//! Report rendering and regression comparison over telemetry exports.
//!
//! This module is the library behind the `fair-report` CLI: a
//! deterministic human-readable summary of a trace ([`render_summary`]),
//! a parser for `fair-telemetry-metrics/1` documents
//! ([`parse_metrics`]), and a threshold-based regression diff
//! ([`compare_metrics`]) used against committed `results/BENCH_*.json`
//! baselines. Everything renders byte-identically for a given input:
//! integer math for percentages, sorted orderings, canonical float
//! formatting from [`crate::json`].

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::analysis::{critical_path, stragglers, utilization_metrics, Phase, TraceModel};
use crate::digest::DigestSet;
use crate::jsonin::{self, Value};

/// Builds span-duration digests from a trace model (one observation per
/// span under `span_us.<category>`). Counter digests require a live
/// [`crate::Snapshot`] — a trace document does not carry counters.
pub fn digests_from_model(model: &TraceModel) -> DigestSet {
    let mut set = DigestSet::new();
    for span in &model.spans {
        set.observe(&format!("span_us.{}", span.category), span.dur_us);
    }
    set
}

fn write_us(out: &mut String, us: u64) {
    let _ = write!(out, "{us} us");
    if us >= 1000 {
        // integer milli-second rendering: no float formatting involved
        let ms10 = us / 100;
        let _ = write!(out, " ({}.{} ms)", ms10 / 10, ms10 % 10);
    }
}

/// Tenths of a percent of `part` in `total`, via integer math.
fn pct10(part: u64, total: u64) -> u64 {
    part.saturating_mul(1000).checked_div(total).unwrap_or(0)
}

/// Options for [`render_summary`].
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryOptions {
    /// Span category scanned for stragglers.
    pub straggler_category: String,
    /// A span is a straggler beyond this multiple of the shard median.
    pub straggler_factor: f64,
    /// Maximum critical-path segments listed (the phase totals always
    /// cover the full path).
    pub max_segments: usize,
}

impl Default for SummaryOptions {
    fn default() -> Self {
        SummaryOptions {
            straggler_category: "attempt".to_string(),
            straggler_factor: 2.0,
            max_segments: 40,
        }
    }
}

/// Renders the deterministic human-readable summary of a trace.
///
/// Equivalent to [`render_summary_with_theme`] with the plain theme —
/// goldens pin these bytes.
pub fn render_summary(model: &TraceModel, options: &SummaryOptions) -> String {
    render_summary_with_theme(model, options, &crate::render::Theme::plain())
}

/// [`render_summary`] with themed headings. The plain theme paints
/// nothing, so `render_summary_with_theme(m, o, &Theme::plain())` is
/// byte-identical to the historical un-themed output.
pub fn render_summary_with_theme(
    model: &TraceModel,
    options: &SummaryOptions,
    theme: &crate::render::Theme,
) -> String {
    let mut out = String::new();
    theme.paint(
        theme.header,
        "== fair-report: campaign trace summary ==",
        &mut out,
    );
    out.push('\n');
    let _ = writeln!(
        out,
        "tracks: {}  spans: {}  instants: {}",
        model.track_names.len(),
        model.spans.len(),
        model.instants.len()
    );

    // span categories
    let mut cats: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for span in &model.spans {
        let entry = cats.entry(span.category.as_str()).or_insert((0, 0, 0));
        entry.0 += 1;
        entry.1 += span.dur_us;
        entry.2 = entry.2.max(span.dur_us);
    }
    out.push('\n');
    theme.paint(theme.section, "-- span categories --", &mut out);
    out.push('\n');
    if cats.is_empty() {
        out.push_str("  (none)\n");
    }
    for (cat, (count, total, max)) in &cats {
        let _ = write!(out, "  {cat}: count={count} total=");
        write_us(&mut out, *total);
        out.push_str(" max=");
        write_us(&mut out, *max);
        out.push('\n');
    }

    // critical path
    let path = critical_path(model);
    let shard_label = if path.shard.is_empty() {
        "serial".to_string()
    } else {
        path.shard.clone()
    };
    out.push('\n');
    theme.paint(
        theme.section,
        &format!("-- critical path ({shard_label}) --"),
        &mut out,
    );
    out.push_str("\n  total: ");
    write_us(&mut out, path.total_us);
    out.push('\n');
    for phase in Phase::ALL {
        let us = path.phase_us.get(phase.key()).copied().unwrap_or(0);
        if us == 0 {
            continue;
        }
        let p = pct10(us, path.total_us);
        let _ = write!(out, "  {}: ", phase.key());
        write_us(&mut out, us);
        let _ = writeln!(out, " [{}.{}%]", p / 10, p % 10);
    }
    let shown = path.segments.len().min(options.max_segments);
    let _ = writeln!(out, "  segments ({} of {}):", shown, path.segments.len());
    for seg in path.segments.iter().take(options.max_segments) {
        let _ = write!(
            out,
            "    {:>12} {} @{} ",
            seg.phase.key(),
            seg.label,
            seg.start_us
        );
        write_us(&mut out, seg.dur_us);
        out.push('\n');
    }
    if path.segments.len() > options.max_segments {
        let _ = writeln!(
            out,
            "    ... {} more",
            path.segments.len() - options.max_segments
        );
    }

    // span-duration digests
    let digests = digests_from_model(model);
    out.push('\n');
    theme.paint(theme.section, "-- span duration digests --", &mut out);
    out.push('\n');
    if digests.is_empty() {
        out.push_str("  (none)\n");
    }
    for (key, digest) in digests.iter() {
        let _ = writeln!(
            out,
            "  {key}: count={} p50={} p90={} p99={} max={}",
            digest.count(),
            digest.quantile(0.50).unwrap_or(0),
            digest.quantile(0.90).unwrap_or(0),
            digest.quantile(0.99).unwrap_or(0),
            digest.max().unwrap_or(0)
        );
    }

    // sampled utilization
    let metrics = utilization_metrics(model);
    if !metrics.is_empty() {
        out.push('\n');
        theme.paint(theme.section, "-- sampled utilization metrics --", &mut out);
        out.push('\n');
        for metric in &metrics {
            let samples = model
                .instants
                .iter()
                .filter(|i| i.category == "util" && &i.name == metric)
                .count();
            let _ = writeln!(out, "  {metric}: {samples} samples");
        }
    }

    // stragglers
    let flagged = stragglers(model, &options.straggler_category, options.straggler_factor);
    out.push('\n');
    theme.paint(
        theme.section,
        &format!(
            "-- stragglers ({} > {}x shard median) --",
            options.straggler_category, options.straggler_factor
        ),
        &mut out,
    );
    out.push('\n');
    if flagged.is_empty() {
        out.push_str("  none\n");
    }
    for s in &flagged {
        let shard = if s.shard.is_empty() {
            "serial"
        } else {
            &s.shard
        };
        let _ = write!(out, "  {} [{}]: ", s.name, shard);
        write_us(&mut out, s.dur_us);
        out.push_str(" vs median ");
        write_us(&mut out, s.median_us);
        out.push('\n');
    }
    out
}

/// Per-category span aggregate from a metrics document.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpanStats {
    /// Number of spans.
    pub count: f64,
    /// Summed duration, microseconds.
    pub total_us: f64,
    /// Longest span, microseconds.
    pub max_us: f64,
}

/// A parsed `fair-telemetry-metrics/1` document.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsDoc {
    /// Counter totals by name.
    pub counters: BTreeMap<String, f64>,
    /// Span aggregates by category.
    pub spans: BTreeMap<String, SpanStats>,
}

/// Parses a `fair-telemetry-metrics/1` document (the format
/// [`crate::metrics_json`] writes and `results/BENCH_*.json` commits).
pub fn parse_metrics(doc: &str) -> Result<MetricsDoc, String> {
    let root = jsonin::parse(doc)?;
    let schema = root.get("schema").and_then(Value::as_str).unwrap_or("");
    if schema != "fair-telemetry-metrics/1" {
        return Err(format!(
            "not a fair-telemetry-metrics/1 document (schema: {schema:?})"
        ));
    }
    let mut parsed = MetricsDoc::default();
    if let Some(counters) = root.get("counters").and_then(Value::as_obj) {
        for (name, value) in counters {
            parsed
                .counters
                .insert(name.clone(), value.as_f64().unwrap_or(f64::NAN));
        }
    }
    if let Some(spans) = root.get("spans").and_then(Value::as_obj) {
        for (category, agg) in spans {
            let field = |key: &str| agg.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
            parsed.spans.insert(
                category.clone(),
                SpanStats {
                    count: field("count"),
                    total_us: field("total_us"),
                    max_us: field("max_us"),
                },
            );
        }
    }
    Ok(parsed)
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareLine {
    /// Metric key (`counter.<name>` or `span.<category>.<field>`).
    pub key: String,
    /// Baseline value.
    pub old: f64,
    /// Candidate value.
    pub new: f64,
    /// Relative change (`(new - old) / |old|`; infinite when the
    /// baseline is zero and the candidate is not).
    pub rel: f64,
    /// True when `|rel|` exceeded the threshold.
    pub breach: bool,
}

/// Result of a regression comparison.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompareReport {
    /// Every compared metric, in key order.
    pub lines: Vec<CompareLine>,
    /// Keys present on only one side (`-key` removed, `+key` added) —
    /// reported but not a breach.
    pub drift: Vec<String>,
    /// The threshold the comparison ran with.
    pub threshold: f64,
}

impl CompareReport {
    /// True when no metric moved beyond the threshold.
    pub fn passed(&self) -> bool {
        self.lines.iter().all(|l| !l.breach)
    }

    /// Renders the deterministic diff report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== fair-report: regression diff (threshold {}%) ==",
            fmt_pct(self.threshold)
        );
        for line in &self.lines {
            let marker = if line.breach { "BREACH" } else { "ok" };
            let _ = writeln!(
                out,
                "  [{marker}] {}: {} -> {} ({}{}%)",
                line.key,
                fmt_num(line.old),
                fmt_num(line.new),
                if line.rel >= 0.0 { "+" } else { "" },
                fmt_pct(line.rel)
            );
        }
        for key in &self.drift {
            let _ = writeln!(out, "  [drift] {key}");
        }
        let breaches = self.lines.iter().filter(|l| l.breach).count();
        let _ = writeln!(
            out,
            "result: {} ({} compared, {} breached, {} drifted)",
            if self.passed() { "PASS" } else { "FAIL" },
            self.lines.len(),
            breaches,
            self.drift.len()
        );
        out
    }
}

fn fmt_num(v: f64) -> String {
    let mut out = String::new();
    crate::json::write_f64(&mut out, v);
    out
}

fn fmt_pct(rel: f64) -> String {
    if !rel.is_finite() {
        return "inf".to_string();
    }
    // integer tenths of a percent, deterministic
    let tenths = (rel.abs() * 1000.0).round() as u64;
    format!(
        "{}{}.{}",
        if rel < 0.0 { "-" } else { "" },
        tenths / 10,
        tenths % 10
    )
}

fn compare_one(key: &str, old: f64, new: f64, threshold: f64) -> CompareLine {
    let rel = if old == 0.0 {
        if new == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (new - old) / old.abs()
    };
    CompareLine {
        key: key.to_string(),
        old,
        new,
        rel,
        // NaN-safe: an incomparable ratio counts as a breach
        breach: rel.is_nan() || rel.abs() > threshold,
    }
}

/// Diffs two metrics documents. Every key present in both documents is
/// compared; a relative change beyond `threshold` (e.g. `0.2` = 20 %)
/// is a breach. Keys on one side only are reported as drift, not
/// breaches, so baselines regenerated after a change to the seeded
/// draws fail only on real regressions.
pub fn compare_metrics(old: &MetricsDoc, new: &MetricsDoc, threshold: f64) -> CompareReport {
    let mut report = CompareReport {
        threshold,
        ..CompareReport::default()
    };
    for (name, &old_v) in &old.counters {
        match new.counters.get(name) {
            Some(&new_v) => report.lines.push(compare_one(
                &format!("counter.{name}"),
                old_v,
                new_v,
                threshold,
            )),
            None => report.drift.push(format!("-counter.{name}")),
        }
    }
    for name in new.counters.keys() {
        if !old.counters.contains_key(name) {
            report.drift.push(format!("+counter.{name}"));
        }
    }
    for (category, old_s) in &old.spans {
        match new.spans.get(category) {
            Some(new_s) => {
                for (field, o, n) in [
                    ("count", old_s.count, new_s.count),
                    ("total_us", old_s.total_us, new_s.total_us),
                    ("max_us", old_s.max_us, new_s.max_us),
                ] {
                    report.lines.push(compare_one(
                        &format!("span.{category}.{field}"),
                        o,
                        n,
                        threshold,
                    ));
                }
            }
            None => report.drift.push(format!("-span.{category}")),
        }
    }
    for category in new.spans.keys() {
        if !old.spans.contains_key(category) {
            report.drift.push(format!("+span.{category}"));
        }
    }
    report.drift.sort();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics_json;
    use crate::{SpanEvent, Telemetry};

    fn doc(queue: f64, attempts: f64) -> MetricsDoc {
        let (tel, rec) = Telemetry::recording();
        tel.count("queue_wait_us", queue);
        tel.count("attempts", attempts);
        tel.span(SpanEvent {
            category: "attempt",
            name: "r-0".into(),
            track: 0,
            start_us: 0,
            dur_us: 100,
            args: vec![],
        });
        parse_metrics(&metrics_json(&rec.snapshot())).expect("parses")
    }

    #[test]
    fn parse_metrics_reads_writer_output() {
        let parsed = doc(1500.0, 3.0);
        assert_eq!(parsed.counters["queue_wait_us"], 1500.0);
        assert_eq!(parsed.spans["attempt"].count, 1.0);
        assert_eq!(parsed.spans["attempt"].total_us, 100.0);
        assert!(parse_metrics("{\"schema\": \"other\"}").is_err());
    }

    #[test]
    fn compare_flags_threshold_breaches_only() {
        let old = doc(1000.0, 4.0);
        let new = doc(1100.0, 8.0);
        let report = compare_metrics(&old, &new, 0.2);
        assert!(!report.passed());
        let breached: Vec<&str> = report
            .lines
            .iter()
            .filter(|l| l.breach)
            .map(|l| l.key.as_str())
            .collect();
        assert_eq!(breached, ["counter.attempts"]);
        assert!(compare_metrics(&old, &old, 0.0).passed());
        let rendered = report.render();
        assert!(rendered.contains("[BREACH] counter.attempts: 4 -> 8 (+100.0%)"));
        assert!(rendered.contains("result: FAIL"));
        assert_eq!(rendered, report.render());
    }

    #[test]
    fn summary_renders_deterministically() {
        let (tel, rec) = Telemetry::recording();
        tel.name_track(0, "allocations");
        tel.span(SpanEvent {
            category: "allocation",
            name: "alloc-0".into(),
            track: 0,
            start_us: 5,
            dur_us: 95,
            args: vec![],
        });
        let model = TraceModel::from_snapshot(&rec.snapshot());
        let options = SummaryOptions::default();
        let a = render_summary(&model, &options);
        assert_eq!(a, render_summary(&model, &options));
        // the plain theme is the identity on bytes; a color theme only
        // ever adds escape sequences around existing text
        assert_eq!(
            a,
            render_summary_with_theme(&model, &options, &crate::render::Theme::plain())
        );
        let themed = render_summary_with_theme(&model, &options, &crate::render::Theme::savanna());
        assert!(themed.contains('\x1b'));
        assert!(a.contains("critical path (serial)"));
        assert!(a.contains("total: 100 us"));
        assert!(a.contains("queue_wait: 5 us [5.0%]"));
        assert!(a.contains("span_us.allocation"));
        assert!(a.contains("none"), "no stragglers expected:\n{a}");
    }
}
