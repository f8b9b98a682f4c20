//! Differential harness for the live telemetry stream.
//!
//! The observability claim worth testing is not "a stream file exists"
//! but "the live view is the truth": a campaign that streams telemetry
//! to disk while recording in memory must produce a stream whose replay
//! is **byte-identical** (as `fair-telemetry-snapshot/1` JSON) to the
//! end-of-run recorder snapshot, across serial, resilient, and sharded
//! drivers, with and without a thread pool. And when the campaign is
//! `kill -9`'d mid-run, the recovered stream prefix must agree with the
//! durability journal's recovered prefix — the two append-only files
//! tell one story about how far the campaign got.

mod common;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use common::{grid_manifest, ramp_durations};
use fair_workflows::cheetah::journal::{recover, FsyncPolicy, JournalRecord};
use fair_workflows::cheetah::manifest::CampaignManifest;
use fair_workflows::cheetah::status::StatusBoard;
use fair_workflows::exec::ThreadPool;
use fair_workflows::hpcsim::batch::BatchJob;
use fair_workflows::hpcsim::time::SimDuration;
use fair_workflows::savanna::pilot::PilotScheduler;
use fair_workflows::savanna::resilience::{FaultPlan, ResiliencePolicy};
use fair_workflows::savanna::{
    attach_stream, Driver, FaultSpec, JournalSpec, SeriesSpec, ShardPlan, StreamSpec,
};
use fair_workflows::telemetry::stream::StreamRecord;
use fair_workflows::telemetry::{
    read_stream, replay_stream, snapshot_json, ArgValue, LiveModel, SpanEvent, Telemetry,
};

const SEED: u64 = 41;

fn spath(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("fair-stream-diff-{}-{tag}-{n}", std::process::id()))
}

fn faulty_inputs(runs: i64) -> (CampaignManifest, BTreeMap<String, SimDuration>) {
    let manifest = grid_manifest("stream-diff", runs);
    let durations = ramp_durations(&manifest, 900, 120);
    (manifest, durations)
}

fn faulty_policy() -> ResiliencePolicy {
    ResiliencePolicy {
        retry_budget: 3,
        backoff_base: SimDuration::from_mins(10),
        ..ResiliencePolicy::default()
    }
}

/// Hash-based run errors only: no sampled crash or stall streams.
fn faulty_plan() -> FaultPlan {
    FaultPlan {
        run_faults: FaultSpec::new(0.35, 23),
        node_mttf: None,
        stalls: None,
        seed: 23,
    }
}

/// The core differential: the stream's replay must equal the recorder's
/// end-of-run snapshot byte-for-byte, and the fold must headline the
/// same campaign state the board reports.
fn assert_stream_matches(label: &str, path: &Path, rec_snapshot_json: &str, board: &StatusBoard) {
    let scan = read_stream(path).expect("completed stream scans cleanly");
    assert!(scan.complete, "{label}: stream missing Complete record");
    assert_eq!(
        scan.torn_bytes, 0,
        "{label}: completed stream has a torn tail"
    );
    assert_eq!(
        snapshot_json(&replay_stream(&scan.records)),
        rec_snapshot_json,
        "{label}: stream replay differs from the end-of-run recorder snapshot"
    );

    let mut model = LiveModel::new();
    model.fold_all(&scan.records);
    let summary = board.summary();
    assert!(model.complete, "{label}: fold missed the Complete record");
    assert_eq!(
        model.runs_done(),
        summary.done as u64,
        "{label}: fold's runs-done disagrees with the StatusBoard"
    );
    assert_eq!(
        model.runs_timed_out(),
        summary.timed_out as u64,
        "{label}: fold's timed-out disagrees with the StatusBoard"
    );
    assert_eq!(
        model.runs_failed(),
        summary.failed as u64,
        "{label}: fold's failed disagrees with the StatusBoard"
    );
    assert_eq!(
        model.total_runs,
        Some(summary.total() as u64),
        "{label}: Meta total_runs disagrees with the StatusBoard"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn serial_sim_stream_replay_matches_recorder() {
    let manifest = grid_manifest("stream-serial", 12);
    let durations = ramp_durations(&manifest, 600, 180);
    let mut series = SeriesSpec::instant(BatchJob::new(8, SimDuration::from_hours(2))).build(SEED);
    let mut board = StatusBoard::for_manifest(&manifest);
    let (tel, rec) = Telemetry::recording();
    let path = spath("serial.stream");
    let outcome = Driver::new(&manifest, &durations, 64)
        .sim(&PilotScheduler::new())
        .serial(&mut series)
        .traced(&tel)
        .stream(&StreamSpec::new(&path))
        .run(&mut board)
        .expect("streamed serial campaign");
    let stream = outcome.stream.expect("streamed");
    assert!(stream.records > 0 && stream.bytes > 0);
    assert_stream_matches("serial sim", &path, &snapshot_json(&rec.snapshot()), &board);
}

#[test]
fn serial_resilient_stream_replay_matches_recorder() {
    let (manifest, durations) = faulty_inputs(10);
    let mut series = SeriesSpec::instant(BatchJob::new(8, SimDuration::from_hours(2))).build(SEED);
    let mut board = StatusBoard::for_manifest(&manifest);
    let (tel, rec) = Telemetry::recording();
    let path = spath("resilient.stream");
    Driver::new(&manifest, &durations, 64)
        .resilient(&PilotScheduler::new(), &faulty_policy(), &faulty_plan())
        .serial(&mut series)
        .traced(&tel)
        .stream(&StreamSpec::new(&path))
        .run(&mut board)
        .expect("streamed resilient campaign");
    assert_stream_matches(
        "serial resilient",
        &path,
        &snapshot_json(&rec.snapshot()),
        &board,
    );
}

#[test]
fn sharded_stream_replay_matches_recorder_inline_and_pooled() {
    for (label, pool) in [("inline", None), ("pool", Some(ThreadPool::new(3)))] {
        let manifest = grid_manifest("stream-par", 12);
        let durations = ramp_durations(&manifest, 600, 180);
        let spec = SeriesSpec::instant(BatchJob::new(8, SimDuration::from_hours(2)));
        let plan = ShardPlan::contiguous(manifest.total_runs(), 3);
        let mut board = StatusBoard::for_manifest(&manifest);
        let (tel, rec) = Telemetry::recording();
        let path = spath("par.stream");
        Driver::new(&manifest, &durations, 64)
            .sim(&PilotScheduler::new())
            .sharded(&spec, SEED, &plan, pool.as_ref())
            .traced(&tel)
            .stream(&StreamSpec::new(&path))
            .run(&mut board)
            .expect("streamed sharded campaign");
        assert_stream_matches(
            &format!("par {label}"),
            &path,
            &snapshot_json(&rec.snapshot()),
            &board,
        );
    }
}

/// A streamed run and a recorder-only run of the same campaign must
/// leave the recorder with identical snapshots — the tee is observably
/// free at the event level.
#[test]
fn teed_stream_does_not_perturb_the_recording() {
    let manifest = grid_manifest("stream-inert", 8);
    let durations = ramp_durations(&manifest, 600, 180);

    let mut series = SeriesSpec::instant(BatchJob::new(8, SimDuration::from_hours(2))).build(SEED);
    let mut board = StatusBoard::for_manifest(&manifest);
    let (tel, rec) = Telemetry::recording();
    let path = spath("inert.stream");
    Driver::new(&manifest, &durations, 64)
        .sim(&PilotScheduler::new())
        .serial(&mut series)
        .traced(&tel)
        .stream(&StreamSpec::new(&path))
        .run(&mut board)
        .expect("streamed run");
    std::fs::remove_file(&path).ok();

    let mut series = SeriesSpec::instant(BatchJob::new(8, SimDuration::from_hours(2))).build(SEED);
    let mut board = StatusBoard::for_manifest(&manifest);
    let (tel, rec_plain) = Telemetry::recording();
    Driver::new(&manifest, &durations, 64)
        .sim(&PilotScheduler::new())
        .serial(&mut series)
        .traced(&tel)
        .run(&mut board)
        .expect("recorder-only run");

    assert_eq!(
        snapshot_json(&rec.snapshot()),
        snapshot_json(&rec_plain.snapshot()),
        "attaching a stream changed what the recorder observed"
    );
}

// ---------------------------------------------------------------------
// kill -9: the stream prefix must agree with the journal prefix
// ---------------------------------------------------------------------

const KILL_CHILD_ENV: &str = "FAIR_KILL_CHILD_STREAM";
const KILL_RUNS: i64 = 120;

fn kill_inputs() -> (CampaignManifest, BTreeMap<String, SimDuration>) {
    let manifest = grid_manifest("stream-kill9", KILL_RUNS);
    let durations = ramp_durations(&manifest, 900, 30);
    (manifest, durations)
}

/// Runs the resilient journaled campaign with a live stream attached:
/// journal fsyncs per record and the stream writes through, so a
/// `kill -9` leaves maximal durable prefixes in both files.
fn run_kill_campaign(base: &Path) {
    let (manifest, durations) = kill_inputs();
    let mut series = SeriesSpec::instant(BatchJob::new(8, SimDuration::from_hours(2))).build(SEED);
    let mut board = StatusBoard::for_manifest(&manifest);
    let journal = JournalSpec {
        path: base.with_extension("journal"),
        snapshot_every: 2,
        fsync: FsyncPolicy::PerRecord,
        crash: None,
    };
    let spec = StreamSpec::write_through(base.with_extension("stream"));
    let (tel, _rec) = Telemetry::recording();
    let sink = attach_stream(&manifest, &tel, &spec).expect("attach stream");
    Driver::new(&manifest, &durations, 64)
        .resilient(&PilotScheduler::new(), &faulty_policy(), &faulty_plan())
        .serial(&mut series)
        .traced(&tel)
        .journal(&journal)
        .run(&mut board)
        .expect("kill campaign");
    sink.finish().expect("finish stream");
}

/// `(epoch index, completed, timed_out)` from the journal's durable
/// prefix, in append order.
fn journal_epochs(records: &[JournalRecord]) -> Vec<(u64, u64, u64)> {
    records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Epoch {
                index,
                completed,
                timed_out,
                ..
            } => Some((*index, *completed, *timed_out)),
            _ => None,
        })
        .collect()
}

fn span_arg(span: &SpanEvent, name: &str) -> Option<u64> {
    span.args.iter().find_map(|(n, v)| match v {
        ArgValue::UInt(u) if *n == name => Some(*u),
        _ => None,
    })
}

/// The same triples from the stream's valid prefix: allocation spans
/// named `alloc-{index}` carrying `completed`/`timed_out` args.
fn stream_epochs(records: &[StreamRecord]) -> Vec<(u64, u64, u64)> {
    records
        .iter()
        .filter_map(|r| match r {
            StreamRecord::Span(span) if span.category == "allocation" => Some((
                span.name
                    .strip_prefix("alloc-")
                    .and_then(|i| i.parse::<u64>().ok())
                    .expect("allocation span named alloc-{index}"),
                span_arg(span, "completed").unwrap_or(0),
                span_arg(span, "timed_out").unwrap_or(0),
            )),
            _ => None,
        })
        .collect()
}

/// The child half of the `kill -9` test: a no-op (instant pass) in a
/// normal test run; only the re-invoked child executes the body.
#[test]
fn stream_kill_child_campaign() {
    let Ok(base) = std::env::var(KILL_CHILD_ENV) else {
        return;
    };
    run_kill_campaign(Path::new(&base));
}

#[test]
fn kill_nine_stream_prefix_agrees_with_journal_prefix() {
    use std::process::{Command, Stdio};

    let base = spath("kill9");
    let stream_path = base.with_extension("stream");
    let journal_path = base.with_extension("journal");
    let exe = std::env::current_exe().expect("current_exe");
    let mut child = Command::new(&exe)
        .args(["stream_kill_child_campaign", "--exact", "--nocapture"])
        .env(KILL_CHILD_ENV, &base)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn child campaign");

    // let both files grow past a threshold, then kill without warning
    let start = std::time::Instant::now();
    let mut child_finished = false;
    loop {
        if let Ok(Some(_)) = child.try_wait() {
            child_finished = true;
            break;
        }
        let slen = std::fs::metadata(&stream_path)
            .map(|m| m.len())
            .unwrap_or(0);
        let jlen = std::fs::metadata(&journal_path)
            .map(|m| m.len())
            .unwrap_or(0);
        if slen >= 16 * 1024 && jlen >= 16 * 1024 {
            break;
        }
        assert!(
            start.elapsed() < std::time::Duration::from_secs(120),
            "child campaign never grew the stream+journal past the threshold"
        );
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    if !child_finished {
        child.kill().expect("kill -9 the child");
    }
    let _ = child.wait();
    if child_finished {
        eprintln!(
            "kill -9 stream test note: child completed before the kill; \
             comparing the complete files instead"
        );
    }

    // both recoveries must be total: torn tails, never panics
    let journal = recover(&journal_path).expect("journal recovers after kill -9");
    let scan = read_stream(&stream_path).expect("stream scans after kill -9");

    // the two append-only files must tell the same epoch story on their
    // shared prefix; either may be at most in-flight epochs ahead
    let jepochs = journal_epochs(&journal.records);
    let sepochs = stream_epochs(&scan.records);
    let shared = jepochs.len().min(sepochs.len());
    assert!(
        child_finished || shared > 0,
        "kill -9 left no shared epoch prefix to compare"
    );
    assert_eq!(
        &jepochs[..shared],
        &sepochs[..shared],
        "journal and stream disagree on the shared epoch prefix"
    );

    // the journal's recovered board must account for at least every run
    // the stream's shared prefix saw finish
    let shared_done: u64 = sepochs[..shared].iter().map(|(_, c, _)| *c).sum();
    let shared_timed_out: u64 = sepochs[..shared].iter().map(|(_, _, t)| *t).sum();
    let summary = journal.board.summary();
    assert!(
        (summary.done + summary.timed_out) as u64 >= shared_done + shared_timed_out,
        "journal board ({} settled) lags the stream's shared prefix ({})",
        summary.done + summary.timed_out,
        shared_done + shared_timed_out
    );

    // and the fold of the recovered stream prefix reports exactly what
    // the prefix contains
    let mut model = LiveModel::new();
    model.fold_all(&scan.records);
    assert_eq!(model.campaign.as_deref(), Some("stream-kill9"));
    assert_eq!(model.total_runs, Some(KILL_RUNS as u64));
    assert_eq!(
        model.epochs.completed,
        sepochs.iter().map(|(_, c, _)| *c).sum::<u64>()
    );
    if child_finished {
        assert!(
            scan.complete,
            "uninterrupted child must Complete its stream"
        );
    }

    std::fs::remove_file(&stream_path).ok();
    std::fs::remove_file(&journal_path).ok();
}
