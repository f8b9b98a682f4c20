//! Output modes and themes for CLI rendering.
//!
//! Every CLI in this workspace that writes for humans routes through
//! this module's three-way mode switch:
//!
//! * [`OutputMode::Text`] — plain bytes, no escape sequences, **byte
//!   stable**: the same model renders to the same bytes on every
//!   machine, which is what goldens and CI compare against;
//! * [`OutputMode::Term`] — ANSI-styled output using a named
//!   [`Theme`];
//! * [`OutputMode::Auto`] — resolves to `Term` only when stdout is a
//!   terminal, `TERM` is set to something other than `dumb`, and
//!   `NO_COLOR` is unset; otherwise `Text`. Piping a themed command
//!   into a file can therefore never leak escape bytes into a golden.
//!
//! Styling is additive-only by construction: a [`Theme`] wraps
//! *existing* text in escape sequences and the plain theme wraps in
//! nothing, so for any renderer written against [`Theme::paint`],
//! `Text` output is byte-identical to the pre-theme rendering.

use std::fmt::Write as _;

use crate::stream::LiveModel;

/// User-facing output mode selection (the `--mode` flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputMode {
    /// Detect: `Term` on an interactive terminal, `Text` otherwise.
    Auto,
    /// Force ANSI-styled terminal output.
    Term,
    /// Force plain byte-stable output.
    Text,
}

/// A resolved mode: what actually gets rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RenderMode {
    /// ANSI-styled output.
    Term,
    /// Plain byte-stable output.
    Text,
}

impl OutputMode {
    /// Parses a `--mode` argument value.
    pub fn parse(s: &str) -> Option<OutputMode> {
        match s {
            "auto" => Some(OutputMode::Auto),
            "term" => Some(OutputMode::Term),
            "text" => Some(OutputMode::Text),
            _ => None,
        }
    }

    /// Resolves `Auto` against the ambient terminal capabilities.
    pub fn resolve(self) -> RenderMode {
        match self {
            OutputMode::Term => RenderMode::Term,
            OutputMode::Text => RenderMode::Text,
            OutputMode::Auto => {
                use std::io::IsTerminal as _;
                let tty = std::io::stdout().is_terminal();
                let term_ok = match std::env::var("TERM") {
                    Ok(t) => !t.is_empty() && t != "dumb",
                    Err(_) => false,
                };
                let no_color = std::env::var_os("NO_COLOR").is_some();
                if tty && term_ok && !no_color {
                    RenderMode::Term
                } else {
                    RenderMode::Text
                }
            }
        }
    }
}

/// One ANSI style: the escape sequence that turns it on (empty = no
/// styling, and [`Theme::paint`] emits the text bytes unchanged).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Style(pub &'static str);

impl Style {
    /// No styling at all.
    pub const NONE: Style = Style("");
}

const RESET: &str = "\x1b[0m";

/// A named set of styles. Built-ins: `plain` (no escapes), `savanna`
/// (the default color theme), `mono` (bold/dim only, for monochrome
/// terminals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Theme {
    /// Theme name as selectable via `--theme`.
    pub name: &'static str,
    /// Top-level `== .. ==` titles.
    pub header: Style,
    /// `-- .. --` section headings.
    pub section: Style,
    /// Emphasized values (progress numbers, throughput).
    pub value: Style,
    /// Good news (completed runs, PASS).
    pub good: Style,
    /// Worth attention (stragglers, retries).
    pub warn: Style,
    /// Bad news (failed runs, corruption).
    pub bad: Style,
    /// De-emphasized detail.
    pub dim: Style,
}

impl Theme {
    /// The no-escape theme: painting with it is the identity on bytes.
    pub fn plain() -> Theme {
        Theme {
            name: "plain",
            header: Style::NONE,
            section: Style::NONE,
            value: Style::NONE,
            good: Style::NONE,
            warn: Style::NONE,
            bad: Style::NONE,
            dim: Style::NONE,
        }
    }

    /// The default color theme.
    pub fn savanna() -> Theme {
        Theme {
            name: "savanna",
            header: Style("\x1b[1;36m"), // bold cyan
            section: Style("\x1b[36m"),  // cyan
            value: Style("\x1b[1m"),     // bold
            good: Style("\x1b[32m"),     // green
            warn: Style("\x1b[33m"),     // yellow
            bad: Style("\x1b[1;31m"),    // bold red
            dim: Style("\x1b[2m"),       // faint
        }
    }

    /// Bold/faint only — for terminals without color.
    pub fn mono() -> Theme {
        Theme {
            name: "mono",
            header: Style("\x1b[1m"),
            section: Style("\x1b[4m"), // underline
            value: Style("\x1b[1m"),
            good: Style("\x1b[1m"),
            warn: Style("\x1b[7m"), // reverse video
            bad: Style("\x1b[1;7m"),
            dim: Style("\x1b[2m"),
        }
    }

    /// Looks a theme up by name.
    pub fn named(name: &str) -> Option<Theme> {
        match name {
            "plain" => Some(Theme::plain()),
            "savanna" => Some(Theme::savanna()),
            "mono" => Some(Theme::mono()),
            _ => None,
        }
    }

    /// The theme a resolved mode uses when none was named explicitly:
    /// `savanna` for terminals, `plain` for text.
    pub fn for_mode(mode: RenderMode) -> Theme {
        match mode {
            RenderMode::Term => Theme::savanna(),
            RenderMode::Text => Theme::plain(),
        }
    }

    /// True when painting with this theme emits no escape bytes.
    pub fn is_plain(&self) -> bool {
        [
            self.header,
            self.section,
            self.value,
            self.good,
            self.warn,
            self.bad,
            self.dim,
        ]
        .iter()
        .all(|s| s.0.is_empty())
    }

    /// Appends `text` to `out`, wrapped in `style` (identity when the
    /// style is empty — the byte-stability guarantee).
    pub fn paint(&self, style: Style, text: &str, out: &mut String) {
        if style.0.is_empty() {
            out.push_str(text);
        } else {
            out.push_str(style.0);
            out.push_str(text);
            out.push_str(RESET);
        }
    }
}

/// ANSI sequence that clears the screen and homes the cursor — what
/// `fair-top --follow` prints between frames in `Term` mode.
pub const CLEAR_SCREEN: &str = "\x1b[2J\x1b[H";

// ---------------------------------------------------------------------
// Live view rendering
// ---------------------------------------------------------------------

fn fmt_us(us: u64) -> String {
    let mut out = format!("{us} us");
    if us >= 1_000_000 {
        let secs = us / 1_000_000;
        let _ = write!(
            out,
            " ({}h {:02}m {:02}s)",
            secs / 3600,
            (secs % 3600) / 60,
            secs % 60
        );
    }
    out
}

fn fmt_f64(v: f64) -> String {
    let mut out = String::new();
    crate::json::write_f64(&mut out, v);
    out
}

fn fmt_gauge_mean(mean_x10: Option<u64>) -> String {
    match mean_x10 {
        Some(m) => format!("{}.{}", m / 10, m % 10),
        None => "-".to_string(),
    }
}

/// Straggler threshold used by [`render_live`], in tenths (20 = 2.0×
/// the running median attempt duration).
pub const LIVE_STRAGGLER_FACTOR_X10: u64 = 20;

/// Renders a [`LiveModel`] as the `fair-top` status page.
///
/// Pure function of the model and theme: with the plain theme the
/// output is byte-stable across machines and runs, which is what the
/// committed goldens pin.
pub fn render_live(model: &LiveModel, theme: &Theme) -> String {
    let mut out = String::new();
    let campaign = model.campaign.as_deref().unwrap_or("(no meta)");
    theme.paint(
        theme.header,
        &format!("== fair-top: {campaign} =="),
        &mut out,
    );
    out.push('\n');

    // state line
    out.push_str("state: ");
    if model.complete {
        theme.paint(theme.good, "complete", &mut out);
    } else {
        theme.paint(theme.warn, "running", &mut out);
    }
    let _ = write!(
        out,
        "  records: {}  tracks: {}",
        model.records,
        model.tracks.len()
    );
    out.push('\n');

    // progress bar
    let done = model.runs_done();
    out.push_str("progress: ");
    match (model.total_runs, model.progress_pct10()) {
        (Some(total), Some(pct10)) => {
            const WIDTH: u64 = 40;
            let filled = (pct10 * WIDTH / 1000).min(WIDTH) as usize;
            out.push('[');
            theme.paint(theme.good, &"#".repeat(filled), &mut out);
            theme.paint(theme.dim, &".".repeat(WIDTH as usize - filled), &mut out);
            out.push(']');
            theme.paint(
                theme.value,
                &format!(" {done}/{total} runs {}.{}%", pct10 / 10, pct10 % 10),
                &mut out,
            );
        }
        _ => theme.paint(theme.dim, "(campaign size unknown)", &mut out),
    }
    out.push('\n');

    // pace line
    out.push_str("virtual now: ");
    out.push_str(&fmt_us(model.last_event_us));
    let tp = model.throughput_milli();
    theme.paint(
        theme.value,
        &format!("   throughput: {}.{:03} runs/s", tp / 1000, tp % 1000),
        &mut out,
    );
    match model.eta_us() {
        Some(eta) => {
            out.push_str("   eta: ~");
            out.push_str(&fmt_us(eta));
        }
        None => out.push_str("   eta: -"),
    }
    out.push('\n');

    // runs line
    out.push_str("runs: ");
    theme.paint(theme.good, &format!("done={done}"), &mut out);
    let _ = write!(out, " timed_out={}", model.runs_timed_out());
    let failed = model.runs_failed();
    out.push(' ');
    if failed > 0 {
        theme.paint(theme.bad, &format!("failed={failed}"), &mut out);
    } else {
        let _ = write!(out, "failed={failed}");
    }
    let retried = model.retried_attempts();
    out.push(' ');
    if retried > 0 {
        theme.paint(theme.warn, &format!("retried={retried}"), &mut out);
    } else {
        let _ = write!(out, "retried={retried}");
    }
    out.push('\n');

    // allocations
    let _ = write!(
        out,
        "allocations: {}  completed={} timed_out={}",
        model.epochs.count, model.epochs.completed, model.epochs.timed_out
    );
    if let Some((name, end_us)) = &model.epochs.last {
        let _ = write!(out, "  last {name} @ {end_us} us");
    }
    out.push('\n');

    // utilization gauges
    out.push_str("utilization: ");
    if model.busy_nodes.samples == 0 && model.queue_depth.samples == 0 {
        theme.paint(theme.dim, "(no samples)", &mut out);
    } else {
        let _ = write!(
            out,
            "busy_nodes last={} mean={} ({} samples)   queue_depth last={} mean={} ({} samples)",
            fmt_f64(model.busy_nodes.last),
            fmt_gauge_mean(model.busy_nodes.mean_x10()),
            model.busy_nodes.samples,
            fmt_f64(model.queue_depth.last),
            fmt_gauge_mean(model.queue_depth.mean_x10()),
            model.queue_depth.samples
        );
    }
    out.push('\n');

    // span categories
    out.push('\n');
    theme.paint(theme.section, "-- span categories --", &mut out);
    out.push('\n');
    if model.span_stats.is_empty() {
        out.push_str("  (none)\n");
    }
    for (cat, stats) in &model.span_stats {
        let _ = writeln!(
            out,
            "  {cat}: count={} total={} max={}",
            stats.count,
            fmt_us(stats.total_us),
            fmt_us(stats.max_us)
        );
    }

    // counters
    out.push('\n');
    theme.paint(theme.section, "-- counters --", &mut out);
    out.push('\n');
    if model.counters.is_empty() {
        out.push_str("  (none)\n");
    }
    for (name, value) in &model.counters {
        let _ = writeln!(out, "  {name}: {}", fmt_f64(*value));
    }

    // stragglers
    out.push('\n');
    theme.paint(
        theme.section,
        &format!(
            "-- straggler candidates (attempt >= {}.{}x p50) --",
            LIVE_STRAGGLER_FACTOR_X10 / 10,
            LIVE_STRAGGLER_FACTOR_X10 % 10
        ),
        &mut out,
    );
    out.push('\n');
    let p50 = model.attempt_p50_us().unwrap_or(0);
    let candidates = model.straggler_candidates(LIVE_STRAGGLER_FACTOR_X10);
    if candidates.is_empty() {
        out.push_str("  none\n");
    }
    for (name, dur_us) in &candidates {
        out.push_str("  ");
        theme.paint(theme.warn, name, &mut out);
        let _ = writeln!(out, ": {} vs p50 {}", fmt_us(*dur_us), fmt_us(p50));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamRecord;

    fn model() -> LiveModel {
        let mut m = LiveModel::new();
        m.fold(&StreamRecord::Meta {
            campaign: "unit".into(),
            total_runs: 10,
        });
        m.fold(&StreamRecord::Track {
            track: 0,
            name: "allocations".into(),
        });
        m.fold(&StreamRecord::Span(crate::SpanEvent {
            category: "allocation",
            name: "alloc-0".into(),
            track: 0,
            start_us: 0,
            dur_us: 1_000_000,
            args: vec![
                ("completed", crate::ArgValue::UInt(4)),
                ("timed_out", crate::ArgValue::UInt(1)),
            ],
        }));
        m.fold(&StreamRecord::Count {
            name: "completed_runs".into(),
            delta: 4.0,
        });
        m
    }

    #[test]
    fn text_mode_is_byte_stable_and_escape_free() {
        let m = model();
        let plain = Theme::plain();
        let a = render_live(&m, &plain);
        let b = render_live(&m, &plain);
        assert_eq!(a, b);
        assert!(!a.contains('\x1b'), "plain theme must emit no escapes");
        assert!(a.contains("== fair-top: unit =="));
        assert!(a.contains("4/10 runs 40.0%"));
    }

    #[test]
    fn term_theme_adds_only_escapes() {
        let m = model();
        let plain = render_live(&m, &Theme::plain());
        let themed = render_live(&m, &Theme::savanna());
        assert!(themed.contains('\x1b'));
        // stripping escape sequences recovers the plain bytes exactly
        let stripped = strip_ansi(&themed);
        assert_eq!(stripped, plain);
    }

    fn strip_ansi(s: &str) -> String {
        let mut out = String::new();
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if c == '\x1b' {
                for c2 in chars.by_ref() {
                    if c2.is_ascii_alphabetic() {
                        break;
                    }
                }
            } else {
                out.push(c);
            }
        }
        out
    }

    #[test]
    fn mode_parse_and_forced_resolution() {
        assert_eq!(OutputMode::parse("auto"), Some(OutputMode::Auto));
        assert_eq!(OutputMode::parse("term"), Some(OutputMode::Term));
        assert_eq!(OutputMode::parse("text"), Some(OutputMode::Text));
        assert_eq!(OutputMode::parse("fancy"), None);
        assert_eq!(OutputMode::Term.resolve(), RenderMode::Term);
        assert_eq!(OutputMode::Text.resolve(), RenderMode::Text);
        // Auto in a test harness (stdout not a tty) resolves to Text
        assert_eq!(OutputMode::Auto.resolve(), RenderMode::Text);
    }

    #[test]
    fn themes_are_nameable() {
        for name in ["plain", "savanna", "mono"] {
            let theme = Theme::named(name).expect("known theme");
            assert_eq!(theme.name, name);
        }
        assert!(Theme::named("disco").is_none());
        assert!(Theme::plain().is_plain());
        assert!(!Theme::savanna().is_plain());
        assert_eq!(Theme::for_mode(RenderMode::Text).name, "plain");
        assert_eq!(Theme::for_mode(RenderMode::Term).name, "savanna");
    }
}
