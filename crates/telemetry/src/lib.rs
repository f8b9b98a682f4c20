//! **telemetry**: structured execution telemetry for campaign runs.
//!
//! The paper's reusability argument rests on being able to *compare*
//! campaign executions (checkpoint overhead, staging throughput, iRF-LOOP
//! speedup). Comparison needs machine-readable execution metadata — the
//! provenance tier FAIR-workflow ecosystems treat as a first-class
//! service. This crate is that layer for the workspace: a lightweight
//! spans + counters API with two stable, deterministic export formats:
//!
//! * **Chrome-trace JSON** ([`chrome_trace_json`]) — a per-campaign
//!   timeline loadable in `chrome://tracing` / Perfetto,
//! * **flat metrics JSON** ([`metrics_json`]) — sorted counters and
//!   per-category span aggregates, the format `crates/bench` commits as
//!   `BENCH_*.json` baselines.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** [`Telemetry::disabled`] carries no
//!    sink; every recording method checks one `Option` and returns. The
//!    lazy variants ([`Telemetry::span_with`], [`Telemetry::instant_with`])
//!    don't even build the event.
//! 2. **Deterministic.** Telemetry never reads a clock or generates ids;
//!    producers supply timestamps (virtual time for simulations). A seeded
//!    campaign therefore exports byte-identical documents on every run —
//!    telemetry output is itself replayable and diffable across PRs.
//! 3. **No external dependencies.** JSON is written by [`json`], the
//!    workspace's one canonical writer and exact reader, so export bytes
//!    can never drift with a serializer upgrade.
//!
//! Producers in this workspace: `savanna`'s simulated drivers (per-attempt
//! spans with failure causes, backoff waits, rework counters), its
//! `LocalExecutor` (wall-clock attempt spans, pool statistics), and
//! `hpcsim`'s queue, filesystem and fault models (job outcomes, stall
//! windows, crash instants).

#![deny(missing_docs)]

pub mod analysis;
pub mod chrome;
#[cfg(test)]
mod differential;
pub mod digest;
pub mod event;
pub mod framing;
pub mod json;
pub mod jsonin;
pub mod merge;
pub mod metrics;
pub mod render;
pub mod report;
pub mod sink;
pub mod snapjson;
pub mod stream;

use std::sync::Arc;

pub use analysis::{
    critical_path, folded_stacks, stragglers, utilization_csv, utilization_points, CriticalPath,
    Phase, Straggler, TraceModel,
};
pub use chrome::chrome_trace_json;
pub use digest::{digest_json, Digest, DigestSet};
pub use event::{ArgValue, InstantEvent, SpanEvent};
pub use merge::{lane_collisions, merge_snapshots, replay, TrackLane};
pub use metrics::{metrics_json, metrics_keys, span_aggregates, SpanAggregate};
pub use render::{OutputMode, RenderMode, Theme};
pub use report::{
    compare_metrics, digests_from_model, parse_metrics, render_summary, render_summary_with_theme,
    CompareReport, MetricsDoc, SummaryOptions,
};
pub use sink::{Fanout, Recorder, Sink, Snapshot};
pub use snapjson::{snapshot_from_json, snapshot_json, SNAPSHOT_SCHEMA};
pub use stream::{
    read_stream, replay_stream, scan_stream_bytes, LiveModel, StreamError, StreamOptions,
    StreamReader, StreamRecord, StreamScan, StreamSink, StreamStats, StreamWriter, STREAM_SCHEMA,
};

/// The recording handle threaded through executors.
///
/// Cloning is cheap (an `Option<Arc>`); a disabled handle is a no-op
/// sink. Producers hold a `Telemetry` and call [`Telemetry::span`],
/// [`Telemetry::instant`], and [`Telemetry::count`]; whoever wants the
/// data creates the handle with [`Telemetry::recording`] and exports the
/// recorder's snapshot afterwards.
#[derive(Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<dyn Sink>>,
    /// Present when the handle is backed by (or tees through) the
    /// built-in [`Recorder`] — the hook live streaming taps.
    recorder: Option<Arc<Recorder>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.sink.is_some())
            .finish()
    }
}

impl Telemetry {
    /// A no-op handle: nothing is recorded, nothing is allocated.
    pub fn disabled() -> Self {
        Self {
            sink: None,
            recorder: None,
        }
    }

    /// An enabled handle backed by a fresh in-memory [`Recorder`];
    /// returns both so the caller can export after the run.
    pub fn recording() -> (Self, Arc<Recorder>) {
        let recorder = Recorder::new();
        (
            Self {
                sink: Some(recorder.clone()),
                recorder: Some(recorder.clone()),
            },
            recorder,
        )
    }

    /// The [`Recorder`] behind this handle, when it was created by
    /// [`Telemetry::recording`] (tees preserve it). Live streaming
    /// ([`stream::StreamSink`]) attaches here: the stream exports the
    /// recorder's event log rather than intercepting producer calls, so
    /// recording stays exactly as cheap with a stream attached as
    /// without.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.recorder.as_ref()
    }

    /// A handle that records to this handle's sink **and** `other`, in
    /// that order (a [`Fanout`]); both sinks observe the identical call
    /// sequence. On a disabled handle the result records to `other`
    /// alone. The [`Recorder`] association (if any) is preserved.
    pub fn tee(&self, other: Arc<dyn Sink>) -> Telemetry {
        let sink = match &self.sink {
            Some(existing) => Fanout::new(vec![existing.clone(), other]) as Arc<dyn Sink>,
            None => other,
        };
        Telemetry {
            sink: Some(sink),
            recorder: self.recorder.clone(),
        }
    }

    /// True when events are actually recorded. Use to guard expensive
    /// argument construction at call sites (or use the `_with` variants).
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records a completed span.
    pub fn span(&self, span: SpanEvent) {
        if let Some(sink) = &self.sink {
            sink.record_span(span);
        }
    }

    /// Records the span built by `f` — `f` runs only when enabled.
    pub fn span_with(&self, f: impl FnOnce() -> SpanEvent) {
        if let Some(sink) = &self.sink {
            sink.record_span(f());
        }
    }

    /// Records a point event.
    pub fn instant(&self, event: InstantEvent) {
        if let Some(sink) = &self.sink {
            sink.record_instant(event);
        }
    }

    /// Records the point event built by `f` — `f` runs only when enabled.
    pub fn instant_with(&self, f: impl FnOnce() -> InstantEvent) {
        if let Some(sink) = &self.sink {
            sink.record_instant(f());
        }
    }

    /// Adds `delta` to the named counter.
    pub fn count(&self, name: &str, delta: f64) {
        if let Some(sink) = &self.sink {
            sink.add_to_counter(name, delta);
        }
    }

    /// Names a timeline track (Chrome-trace lane).
    pub fn name_track(&self, track: u32, name: &str) {
        if let Some(sink) = &self.sink {
            sink.name_track(track, name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing_and_skips_closures() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.count("x", 1.0);
        tel.span_with(|| unreachable!("closure must not run when disabled"));
        tel.instant_with(|| unreachable!("closure must not run when disabled"));
    }

    #[test]
    fn recording_round_trip() {
        let (tel, rec) = Telemetry::recording();
        assert!(tel.is_enabled());
        tel.name_track(0, "campaign");
        tel.span(SpanEvent {
            category: "attempt",
            name: "g/i-0".into(),
            track: 0,
            start_us: 100,
            dur_us: 50,
            args: vec![("attempt", 1u64.into())],
        });
        tel.instant(InstantEvent {
            category: "fault",
            name: "node-crash".into(),
            track: 0,
            at_us: 120,
            args: vec![("node", 3u64.into())],
        });
        tel.count("failed_attempts", 1.0);
        tel.count("failed_attempts", 1.0);

        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.instants.len(), 1);
        assert_eq!(snap.counters["failed_attempts"], 2.0);

        // both exports are deterministic
        assert_eq!(chrome_trace_json(&snap), chrome_trace_json(&snap));
        assert_eq!(metrics_json(&snap), metrics_json(&snap));
    }

    #[test]
    fn clones_share_the_sink() {
        let (tel, rec) = Telemetry::recording();
        let clone = tel.clone();
        clone.count("shared", 2.0);
        tel.count("shared", 3.0);
        assert_eq!(rec.counter("shared"), 5.0);
    }
}
