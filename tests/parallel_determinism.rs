//! Determinism-differential harness for the sharded parallel drivers.
//!
//! Reuse claims are only credible when re-execution is verifiable — the
//! FAIR-workflow literature makes *bitwise-comparable outputs* the test
//! of reproduction. This harness establishes exactly that for the
//! parallel campaign path: for a grid of (campaign size × thread count ∈
//! {1, 2, 8} × fault injection on/off), the pooled execution of a
//! sharded plan must produce **byte-identical** `StatusBoard` canonical
//! JSON, identical `ResilienceReport`s, and byte-identical telemetry
//! exports (metrics *and* Chrome trace) compared to the serial (inline,
//! `pool = None`) execution of the same plan.
//!
//! Determinism here is the test oracle: any scheduling leak — a merge
//! order depending on completion order, a seed depending on thread
//! identity, shared mutable state between shards — shows up as a byte
//! difference at some thread count.

mod common;

use common::{grid_manifest, ramp_durations};
use fair_workflows::cheetah::status::StatusBoard;
use fair_workflows::exec::ThreadPool;
use fair_workflows::hpcsim::batch::BatchJob;
use fair_workflows::hpcsim::time::SimDuration;
use fair_workflows::savanna::pilot::PilotScheduler;
use fair_workflows::savanna::resilience::{
    FaultPlan, ResiliencePolicy, RestartStrategy, StallSpec,
};
use fair_workflows::savanna::{CampaignReport, Driver, FaultSpec, SeriesSpec, ShardPlan};
use fair_workflows::telemetry::{chrome_trace_json, metrics_json, Telemetry};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const CAMPAIGN_SIZES: [i64; 2] = [5, 24];
const SEED: u64 = 97;

/// Everything one execution produces, flattened to comparable bytes
/// (board JSON, metrics export, Chrome-trace export) plus the
/// parsed board for sanity checks.
struct Artifacts {
    board_json: String,
    metrics: String,
    trace: String,
    board: StatusBoard,
}

fn spec() -> SeriesSpec {
    // stochastic queue waits on purpose: the differential compares two
    // executions of the same build, so generator draws must match too
    SeriesSpec::new(
        BatchJob::new(8, SimDuration::from_hours(2)),
        SimDuration::from_mins(20),
        0.5,
    )
}

fn fault_plan() -> FaultPlan {
    FaultPlan {
        run_faults: FaultSpec::new(0.25, SEED),
        node_mttf: Some(SimDuration::from_hours(8)),
        stalls: Some(StallSpec {
            mean_between: SimDuration::from_mins(40),
            duration: SimDuration::from_mins(5),
            slowdown: 4.0,
            io_fraction: 0.25,
        }),
        seed: SEED,
    }
}

fn policy() -> ResiliencePolicy {
    ResiliencePolicy {
        retry_budget: 4,
        backoff_base: SimDuration::from_mins(5),
        restart: RestartStrategy::FromCheckpoint {
            interval: SimDuration::from_mins(10),
        },
        ..ResiliencePolicy::default()
    }
}

/// Runs the plain sharded driver and flattens its outputs.
fn run_plain(runs: i64, pool: Option<&ThreadPool>) -> (Artifacts, String) {
    let manifest = grid_manifest("det-plain", runs);
    let durations = ramp_durations(&manifest, 600, 90);
    let plan = ShardPlan::contiguous(manifest.total_runs(), 4);
    let mut board = StatusBoard::for_manifest(&manifest);
    let (tel, rec) = Telemetry::recording();
    let report = Driver::new(&manifest, &durations, 64)
        .sim(&PilotScheduler::new())
        .sharded(&spec(), SEED, &plan, pool)
        .traced(&tel)
        .run(&mut board)
        .expect("durations modeled");
    let snapshot = rec.snapshot();
    (
        Artifacts {
            board_json: board.canonical_json(),
            metrics: metrics_json(&snapshot),
            trace: chrome_trace_json(&snapshot),
            board,
        },
        format!("{report:?}"),
    )
}

/// Runs the resilient sharded driver (fault injection on) and flattens
/// its outputs; the full `CampaignReport` rides along for
/// `ResilienceReport` equality checks.
fn run_faulty(runs: i64, pool: Option<&ThreadPool>) -> (Artifacts, CampaignReport) {
    let manifest = grid_manifest("det-faulty", runs);
    let durations = ramp_durations(&manifest, 900, 120);
    let plan = ShardPlan::contiguous(manifest.total_runs(), 4);
    let mut board = StatusBoard::for_manifest(&manifest);
    let (tel, rec) = Telemetry::recording();
    let report = Driver::new(&manifest, &durations, 64)
        .resilient(&PilotScheduler::new(), &policy(), &fault_plan())
        .sharded(&spec(), SEED, &plan, pool)
        .traced(&tel)
        .run(&mut board)
        .expect("durations modeled");
    let snapshot = rec.snapshot();
    (
        Artifacts {
            board_json: board.canonical_json(),
            metrics: metrics_json(&snapshot),
            trace: chrome_trace_json(&snapshot),
            board,
        },
        report,
    )
}

fn assert_identical(label: &str, serial: &Artifacts, parallel: &Artifacts) {
    assert_eq!(
        serial.board_json, parallel.board_json,
        "{label}: StatusBoard JSON differs from serial"
    );
    assert_eq!(
        serial.metrics, parallel.metrics,
        "{label}: metrics export differs from serial"
    );
    assert_eq!(
        serial.trace, parallel.trace,
        "{label}: Chrome-trace export differs from serial"
    );
}

#[test]
fn plain_campaign_is_byte_identical_at_every_thread_count() {
    for &runs in &CAMPAIGN_SIZES {
        let (serial, serial_report) = run_plain(runs, None);
        assert!(
            serial.board.iter().next().is_some(),
            "serial run produced an empty board"
        );
        for &threads in &THREAD_COUNTS {
            let pool = ThreadPool::new(threads);
            let (parallel, parallel_report) = run_plain(runs, Some(&pool));
            assert_identical(
                &format!("plain runs={runs} threads={threads}"),
                &serial,
                &parallel,
            );
            assert_eq!(
                serial_report, parallel_report,
                "plain runs={runs} threads={threads}: report differs from serial"
            );
        }
    }
}

#[test]
fn faulty_campaign_is_byte_identical_at_every_thread_count() {
    for &runs in &CAMPAIGN_SIZES {
        let (serial, serial_report) = run_faulty(runs, None);
        for &threads in &THREAD_COUNTS {
            let pool = ThreadPool::new(threads);
            let (parallel, parallel_report) = run_faulty(runs, Some(&pool));
            let label = format!("faulty runs={runs} threads={threads}");
            assert_identical(&label, &serial, &parallel);
            // merged resilience accounting is PartialEq: exact equality
            assert_eq!(
                serial_report.resilience, parallel_report.resilience,
                "{label}: merged ResilienceReport differs from serial"
            );
            // per-shard resilience reports must match one-to-one too
            assert_eq!(
                serial_report.shards.len(),
                parallel_report.shards.len(),
                "{label}: shard count differs"
            );
            for (s, p) in serial_report.shards.iter().zip(&parallel_report.shards) {
                assert_eq!(s.shard, p.shard, "{label}: shard order differs");
                assert_eq!(
                    format!("{:?}", s.report),
                    format!("{:?}", p.report),
                    "{label}: shard {} loop report differs",
                    s.shard
                );
                assert_eq!(
                    s.resilience, p.resilience,
                    "{label}: shard {} resilience differs",
                    s.shard
                );
            }
        }
    }
}

#[test]
fn thread_counts_agree_with_each_other() {
    // transitivity sanity: beyond serial-vs-parallel, every pooled pair
    // must agree (catches nondeterminism that cancels against serial)
    let runs = 24;
    let mut exports = Vec::new();
    for &threads in &THREAD_COUNTS {
        let pool = ThreadPool::new(threads);
        let (artifacts, _) = run_faulty(runs, Some(&pool));
        exports.push((threads, artifacts.metrics, artifacts.board_json));
    }
    for pair in exports.windows(2) {
        assert_eq!(
            pair[0].1, pair[1].1,
            "metrics differ between {} and {} threads",
            pair[0].0, pair[1].0
        );
        assert_eq!(
            pair[0].2, pair[1].2,
            "board JSON differs between {} and {} threads",
            pair[0].0, pair[1].0
        );
    }
}

#[test]
fn repeated_parallel_runs_are_byte_identical() {
    let pool = ThreadPool::new(8);
    let (a, _) = run_faulty(24, Some(&pool));
    let (b, _) = run_faulty(24, Some(&pool));
    assert_identical("repeat threads=8", &a, &b);
}
