//! Golden for a resubmitted sharded campaign: a non-contiguous
//! [`ShardPlan::round_robin`] plan run twice on the same board, on both
//! backends, compared byte-for-byte against committed files under
//! `tests/fixtures/resubmission/`.
//!
//! Every other campaign golden runs a contiguous plan on a fresh board.
//! Here the board already holds what a resubmission carries — attempts,
//! failure counts and causes, telemetry and digest refs, and every
//! status — before the first submission, and the first submission is
//! capped at two allocations per shard, so the resubmission starts from
//! a board the shards themselves left behind. Each shard takes every
//! third run, mixing 1-node and 2-node runs, so the shard boards are
//! copied and merged back out of manifest order.
//!
//! For each backend the files are the board's canonical JSON and the
//! metrics export, after the first submission (`first`) and after the
//! resubmission (`final`):
//!
//! * `sim.{first,final}.{board,metrics}.json` — the plain loop, traced;
//! * `resilient.{first,final}.{board,metrics}.json` — the fault-tolerant
//!   loop, traced, with run errors, filesystem stalls, a hang timeout,
//!   backoff and checkpoint restart.
//!
//! Nothing draws from the seeded generator (instant allocation series,
//! hash-drawn run errors and stalls, no node crashes), so the bytes
//! hold in every build. Regenerate after an intentional behaviour change with
//! `UPDATE_FIXTURES=1 cargo test --test resubmission_golden`.

use std::collections::BTreeMap;
use std::path::PathBuf;

use fair_workflows::cheetah::campaign::{AppDef, Campaign, SweepGroup};
use fair_workflows::cheetah::manifest::CampaignManifest;
use fair_workflows::cheetah::param::SweepSpec;
use fair_workflows::cheetah::status::{RunStatus, StatusBoard};
use fair_workflows::cheetah::sweep::Sweep;
use fair_workflows::exec::ThreadPool;
use fair_workflows::hpcsim::batch::BatchJob;
use fair_workflows::hpcsim::time::SimDuration;
use fair_workflows::savanna::pilot::PilotScheduler;
use fair_workflows::savanna::resilience::{
    FaultPlan, ResiliencePolicy, RestartStrategy, StallSpec,
};
use fair_workflows::savanna::{Driver, FaultSpec, SeriesSpec, ShardPlan};
use fair_workflows::telemetry::{metrics_json, Telemetry};

/// Shards in the round-robin plan.
const SHARDS: usize = 3;
/// Allocations per shard in the first submission.
const FIRST_CAP: u32 = 2;
/// Allocations per shard in the resubmission.
const FINAL_CAP: u32 = 12;

fn group(name: &str, runs: i64, per_run_nodes: u32) -> SweepGroup {
    SweepGroup::new(
        name,
        Sweep::new().with(
            "p",
            SweepSpec::IntRange {
                start: 0,
                end: runs - 1,
                step: 1,
            },
        ),
        4,
        per_run_nodes,
        7200,
    )
}

/// 20 one-node runs, then 10 two-node runs.
fn manifest() -> CampaignManifest {
    Campaign::new("resubmission", "inst", AppDef::new("irf", "irf.exe"))
        .with_group(group("one", 20, 1))
        .with_group(group("two", 10, 2))
        .manifest()
        .expect("valid campaign")
}

/// `20 + step · ((i · 37) mod 11)` minutes in manifest order, no RNG.
/// With `step = 9` every run fits a 2 h allocation (the plain loop has
/// no checkpoints, so a longer run could never finish); with `step = 17`
/// some runs outlast the hang deadline and the walltime.
fn durations(m: &CampaignManifest, step: u64) -> BTreeMap<String, SimDuration> {
    m.groups
        .iter()
        .flat_map(|g| g.runs.iter())
        .enumerate()
        .map(|(i, r)| {
            let mins = 20 + step * ((i as u64 * 37) % 11);
            (r.id.clone(), SimDuration::from_mins(mins))
        })
        .collect()
}

/// The board before the first submission: what an earlier campaign on
/// another machine left behind.
fn starting_board(m: &CampaignManifest) -> StatusBoard {
    let mut board = StatusBoard::for_manifest(m);
    board.record_attempt("one/p-0");
    board.set("one/p-0", RunStatus::Done);
    board.record_telemetry_ref("one/p-0", "trace.json#7");
    board.record_digest_ref("one/p-0", "digest#span_us.attempt");
    for _ in 0..2 {
        board.record_attempt("one/p-4");
        board.record_failure("one/p-4", "node-crash");
    }
    board.record_attempt("two/p-1");
    board.set("two/p-1", RunStatus::TimedOut);
    board.record_telemetry_ref("two/p-1", "trace.json#3");
    board.set("two/p-5", RunStatus::Running);
    board
}

fn spec() -> SeriesSpec {
    SeriesSpec::instant(BatchJob::new(4, SimDuration::from_hours(2)))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    Sim,
    Resilient,
}

impl Backend {
    fn name(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Resilient => "resilient",
        }
    }
}

fn policy() -> ResiliencePolicy {
    ResiliencePolicy {
        retry_budget: 2,
        backoff_base: SimDuration::from_mins(10),
        backoff_factor: 2.0,
        max_backoff: SimDuration::from_hours(2),
        quarantine_threshold: 2,
        hang_timeout_fraction: 0.75,
        restart: RestartStrategy::FromCheckpoint {
            interval: SimDuration::from_mins(15),
        },
    }
}

fn faults() -> FaultPlan {
    FaultPlan {
        run_faults: FaultSpec::new(0.3, 29),
        node_mttf: None,
        stalls: Some(StallSpec {
            mean_between: SimDuration::from_mins(30),
            duration: SimDuration::from_mins(6),
            slowdown: 3.0,
            io_fraction: 0.4,
        }),
        seed: 29,
    }
}

/// One submission of the campaign on `board`: returns the metrics
/// export and whether every run completed.
fn submit(
    backend: Backend,
    m: &CampaignManifest,
    d: &BTreeMap<String, SimDuration>,
    cap: u32,
    board: &mut StatusBoard,
    pool: Option<&ThreadPool>,
) -> (String, bool) {
    let plan = ShardPlan::round_robin(m.total_runs(), SHARDS);
    let spec = spec();
    let pilot = PilotScheduler::new();
    let (policy, faults) = (policy(), faults());
    let (tel, rec) = Telemetry::recording();
    let driver = Driver::new(m, d, cap);
    let driver = match backend {
        Backend::Sim => driver.sim(&pilot),
        Backend::Resilient => driver.resilient(&pilot, &policy, &faults),
    };
    let report = driver
        .sharded(&spec, 43, &plan, pool)
        .traced(&tel)
        .run(board)
        .expect("durations modeled");
    (metrics_json(&rec.snapshot()), report.is_complete())
}

/// Both submissions: `(first board, first metrics, final board, final
/// metrics)`, boards as canonical JSON lines.
fn run_campaign(backend: Backend, pool: Option<&ThreadPool>) -> [String; 4] {
    let m = manifest();
    let d = durations(
        &m,
        match backend {
            Backend::Sim => 9,
            Backend::Resilient => 17,
        },
    );
    let mut board = starting_board(&m);
    let (first_metrics, _) = submit(backend, &m, &d, FIRST_CAP, &mut board, pool);
    let first_board = board.canonical_json() + "\n";
    let (final_metrics, _) = submit(backend, &m, &d, FINAL_CAP, &mut board, pool);
    [
        first_board,
        first_metrics,
        board.canonical_json() + "\n",
        final_metrics,
    ]
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/resubmission")
        .join(name)
}

fn check(name: &str, actual: &str) {
    let path = fixture(name);
    if std::env::var_os("UPDATE_FIXTURES").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create fixture dir");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e} (run UPDATE_FIXTURES=1 to generate)",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from the committed fixture"
    );
}

fn check_backend(backend: Backend) {
    let [first_board, first_metrics, final_board, final_metrics] = run_campaign(backend, None);
    let name = backend.name();
    check(&format!("{name}.first.board.json"), &first_board);
    check(&format!("{name}.first.metrics.json"), &first_metrics);
    check(&format!("{name}.final.board.json"), &final_board);
    check(&format!("{name}.final.metrics.json"), &final_metrics);
}

#[test]
fn resubmitted_sim_campaign_matches_committed_golden() {
    check_backend(Backend::Sim);
}

#[test]
fn resubmitted_resilient_campaign_matches_committed_golden() {
    check_backend(Backend::Resilient);
}

#[test]
fn pooled_resubmission_reproduces_the_golden() {
    let pool = ThreadPool::new(2);
    for backend in [Backend::Sim, Backend::Resilient] {
        assert_eq!(
            run_campaign(backend, Some(&pool)),
            run_campaign(backend, None),
            "{}: pooled resubmission diverged from inline",
            backend.name()
        );
    }
}

/// The golden is only worth its bytes if the campaigns start where it
/// says they do; this pins that, independently of the bytes.
#[test]
fn golden_campaigns_resubmit_a_non_fresh_board() {
    let m = manifest();
    let plan = ShardPlan::round_robin(m.total_runs(), SHARDS);
    assert_eq!(plan.num_shards(), SHARDS);
    assert!(
        (0..SHARDS).all(|s| plan.assignment(s).windows(2).all(|w| w[1] - w[0] == SHARDS)),
        "every shard takes every third run"
    );
    for backend in [Backend::Sim, Backend::Resilient] {
        let d = durations(
            &m,
            match backend {
                Backend::Sim => 9,
                Backend::Resilient => 17,
            },
        );
        let mut board = starting_board(&m);
        let (_, complete) = submit(backend, &m, &d, FIRST_CAP, &mut board, None);
        let name = backend.name();
        assert!(!complete, "{name}: the first submission is cut by its cap");
        let summary = board.summary();
        assert!(
            summary.done > 0,
            "{name}: the first submission finishes runs"
        );
        assert!(
            summary.pending + summary.timed_out > 0,
            "{name}: the first submission leaves runs to resubmit"
        );
        // provenance recorded before the first submission survives it
        assert_eq!(board.get("one/p-0"), RunStatus::Done);
        assert_eq!(board.attempts("one/p-0"), 1);
        assert_eq!(board.digest_ref("one/p-0"), Some("digest#span_us.attempt"));
        assert!(board.failures("one/p-4") >= 2, "{name}: failures carried");
        assert!(board.last_failure_cause("one/p-4").is_some());
        if backend == Backend::Resilient {
            assert!(
                board.failures("one/p-4") > 2 || board.attempts("one/p-4") > 2,
                "the resilient loop reruns a failed run within its budget"
            );
            assert!(
                board
                    .telemetry_ref("two/p-1")
                    .is_some_and(|r| r != "trace.json#3"),
                "the traced resilient loop overwrites an old telemetry ref"
            );
        } else {
            assert_eq!(board.get("one/p-4"), RunStatus::Failed, "sim leaves Failed");
            assert_eq!(board.telemetry_ref("two/p-1"), Some("trace.json#3"));
        }
        let before = board.clone();
        submit(backend, &m, &d, FINAL_CAP, &mut board, None);
        assert_ne!(board, before, "{name}: the resubmission makes progress");
        assert!(
            board.summary().done > before.summary().done,
            "{name}: the resubmission finishes more runs"
        );
    }
}
