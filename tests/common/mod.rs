//! Shared helpers for the integration suite: campaign builders and the
//! golden-fixture corpus under `tests/fixtures/`.
//!
//! Three small checked-in campaigns — a plain sweep, a fault-injected
//! campaign, and a checkpoint-restart campaign — each with committed
//! expected `StatusBoard` JSON and telemetry metrics. Every fixture is
//! **rand-free**: instant allocation series (no queue-wait draws) and
//! hash-based run faults only (no node-crash or stall streams), so the
//! committed expectations do not depend on the generator's stream.
//! Regenerate with:
//!
//! ```text
//! UPDATE_FIXTURES=1 cargo test --test golden_fixtures
//! ```
//!
//! Not every integration binary that mounts this module uses every
//! helper, hence the file-level `dead_code` allow.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use fair_workflows::cheetah::campaign::{AppDef, Campaign, SweepGroup};
use fair_workflows::cheetah::manifest::CampaignManifest;
use fair_workflows::cheetah::param::SweepSpec;
use fair_workflows::cheetah::status::StatusBoard;
use fair_workflows::cheetah::sweep::Sweep;
use fair_workflows::exec::ThreadPool;
use fair_workflows::hpcsim::batch::BatchJob;
use fair_workflows::hpcsim::time::SimDuration;
use fair_workflows::savanna::pilot::PilotScheduler;
use fair_workflows::savanna::resilience::{FaultPlan, ResiliencePolicy, RestartStrategy};
use fair_workflows::savanna::{
    CampaignReport, Driver, FaultSpec, MemoConfig, SeriesSpec, ShardPlan,
};
use fair_workflows::telemetry::{metrics_json, Snapshot, Telemetry};

/// Builds a one-group sweep campaign with `runs` integer-swept runs.
pub fn grid_manifest(name: &str, runs: i64) -> CampaignManifest {
    Campaign::new(name, "inst", AppDef::new("irf", "irf.exe"))
        .with_group(SweepGroup::new(
            "grid",
            Sweep::new().with(
                "p",
                SweepSpec::IntRange {
                    start: 0,
                    end: runs - 1,
                    step: 1,
                },
            ),
            8,
            1,
            7200,
        ))
        .manifest()
        .expect("valid campaign")
}

/// Deterministic per-run durations: `base + step * index` seconds, in
/// manifest order. No RNG, so fixture expectations are build-independent.
pub fn ramp_durations(
    manifest: &CampaignManifest,
    base_secs: u64,
    step_secs: u64,
) -> BTreeMap<String, SimDuration> {
    manifest
        .groups
        .iter()
        .flat_map(|g| g.runs.iter())
        .enumerate()
        .map(|(i, r)| {
            (
                r.id.clone(),
                SimDuration::from_secs(base_secs + step_secs * i as u64),
            )
        })
        .collect()
}

/// The golden-fixture corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fixture {
    /// Plain sharded sweep, no faults: 12 runs over 3 shards.
    Sweep,
    /// Hash-based injected run errors with a retry budget: 10 runs over
    /// 2 shards (no node/stall streams — those draw from the seeded
    /// generator).
    Faulty,
    /// Runs longer than the allocation walltime, resumed from periodic
    /// checkpoints across allocations: 4 runs over 2 shards.
    Checkpointed,
}

impl Fixture {
    /// All fixtures, in corpus order.
    pub const ALL: [Fixture; 3] = [Fixture::Sweep, Fixture::Faulty, Fixture::Checkpointed];

    /// File-name stem under `tests/fixtures/`.
    pub fn name(self) -> &'static str {
        match self {
            Fixture::Sweep => "sweep",
            Fixture::Faulty => "faulty",
            Fixture::Checkpointed => "checkpointed",
        }
    }
}

/// Executes a fixture campaign through the sharded drivers (inline, no
/// pool unless one is given) and returns the final board plus the
/// telemetry metrics export.
pub fn run_fixture(fixture: Fixture, pool: Option<&ThreadPool>) -> (StatusBoard, String) {
    let (board, metrics, _) = run_fixture_full(fixture, pool);
    (board, metrics)
}

/// [`run_fixture`] plus the raw telemetry snapshot, for the analysis
/// layer (`fair-report`) fixtures that derive summaries, digests, and
/// folded stacks from the trace itself.
pub fn run_fixture_full(
    fixture: Fixture,
    pool: Option<&ThreadPool>,
) -> (StatusBoard, String, Snapshot) {
    let (tel, rec) = Telemetry::recording();
    let board = match fixture {
        Fixture::Sweep => {
            let manifest = grid_manifest("fixture-sweep", 12);
            let durations = ramp_durations(&manifest, 600, 180);
            let spec = SeriesSpec::instant(BatchJob::new(8, SimDuration::from_hours(2)));
            let plan = ShardPlan::contiguous(manifest.total_runs(), 3);
            let mut board = StatusBoard::for_manifest(&manifest);
            Driver::new(&manifest, &durations, 64)
                .sim(&PilotScheduler::new())
                .sharded(&spec, 41, &plan, pool)
                .traced(&tel)
                .run(&mut board)
                .expect("fixture durations modeled");
            board
        }
        Fixture::Faulty => {
            let manifest = grid_manifest("fixture-faulty", 10);
            let durations = ramp_durations(&manifest, 900, 120);
            let spec = SeriesSpec::instant(BatchJob::new(8, SimDuration::from_hours(2)));
            let plan = ShardPlan::contiguous(manifest.total_runs(), 2);
            let policy = ResiliencePolicy {
                retry_budget: 3,
                backoff_base: SimDuration::from_mins(10),
                ..ResiliencePolicy::default()
            };
            // hash-based run errors only: no sampled crash or stall streams
            let faults = FaultPlan {
                run_faults: FaultSpec::new(0.35, 23),
                node_mttf: None,
                stalls: None,
                seed: 23,
            };
            let mut board = StatusBoard::for_manifest(&manifest);
            Driver::new(&manifest, &durations, 64)
                .resilient(&PilotScheduler::new(), &policy, &faults)
                .sharded(&spec, 41, &plan, pool)
                .traced(&tel)
                .run(&mut board)
                .expect("fixture durations modeled");
            board
        }
        Fixture::Checkpointed => {
            let manifest = grid_manifest("fixture-checkpointed", 4);
            // 3h+ runs inside 2h allocations: every run needs walltime
            // cuts and checkpoint-preserved resumption to finish
            let durations = ramp_durations(&manifest, 10_800, 1_800);
            let spec = SeriesSpec::instant(BatchJob::new(8, SimDuration::from_hours(2)));
            let plan = ShardPlan::contiguous(manifest.total_runs(), 2);
            let policy = ResiliencePolicy {
                restart: RestartStrategy::FromCheckpoint {
                    interval: SimDuration::from_mins(15),
                },
                ..ResiliencePolicy::default()
            };
            let faults = FaultPlan::none(7);
            let mut board = StatusBoard::for_manifest(&manifest);
            Driver::new(&manifest, &durations, 64)
                .resilient(&PilotScheduler::new(), &policy, &faults)
                .sharded(&spec, 41, &plan, pool)
                .traced(&tel)
                .run(&mut board)
                .expect("fixture durations modeled");
            board
        }
    };
    let snapshot = rec.snapshot();
    let metrics = metrics_json(&snapshot);
    (board, metrics, snapshot)
}

/// The fixture's resilience policy, when the resilient driver runs it.
fn fixture_policy(fixture: Fixture) -> Option<ResiliencePolicy> {
    match fixture {
        Fixture::Sweep => None,
        Fixture::Faulty => Some(ResiliencePolicy {
            retry_budget: 3,
            backoff_base: SimDuration::from_mins(10),
            ..ResiliencePolicy::default()
        }),
        Fixture::Checkpointed => Some(ResiliencePolicy {
            restart: RestartStrategy::FromCheckpoint {
                interval: SimDuration::from_mins(15),
            },
            ..ResiliencePolicy::default()
        }),
    }
}

/// The fixture's campaign inputs (manifest + durations), shared by the
/// sharded and memoized runners so both execute the identical campaign.
pub fn fixture_inputs(fixture: Fixture) -> (CampaignManifest, BTreeMap<String, SimDuration>) {
    match fixture {
        Fixture::Sweep => {
            let m = grid_manifest("fixture-sweep", 12);
            let d = ramp_durations(&m, 600, 180);
            (m, d)
        }
        Fixture::Faulty => {
            let m = grid_manifest("fixture-faulty", 10);
            let d = ramp_durations(&m, 900, 120);
            (m, d)
        }
        Fixture::Checkpointed => {
            let m = grid_manifest("fixture-checkpointed", 4);
            let d = ramp_durations(&m, 10_800, 1_800);
            (m, d)
        }
    }
}

/// Executes a fixture campaign through the *memoized* drivers against
/// the content-addressed store at `store_path` (tracing on), and returns
/// the final board, the metrics export, the raw snapshot, and the memo
/// report. Campaign inputs are [`fixture_inputs`] with the same seeds,
/// policies, and fault plans as [`run_fixture_full`]; only the execution
/// layer differs (unit shards + cache).
pub fn run_fixture_memo(
    fixture: Fixture,
    store_path: &Path,
    pool: Option<&ThreadPool>,
) -> (StatusBoard, String, Snapshot, CampaignReport) {
    let (manifest, durations) = fixture_inputs(fixture);
    run_memo_campaign(fixture, &manifest, &durations, store_path, pool)
}

/// [`run_fixture_memo`] over caller-edited campaign inputs — the
/// partial-warm differential edits one run's duration or extends the
/// sweep and must drive the memo layer with the modified campaign.
pub fn run_memo_campaign(
    fixture: Fixture,
    manifest: &CampaignManifest,
    durations: &BTreeMap<String, SimDuration>,
    store_path: &Path,
    pool: Option<&ThreadPool>,
) -> (StatusBoard, String, Snapshot, CampaignReport) {
    let (tel, rec) = Telemetry::recording();
    let spec = SeriesSpec::instant(BatchJob::new(8, SimDuration::from_hours(2)));
    let memo = MemoConfig::new(store_path);
    let mut board = StatusBoard::for_manifest(manifest);
    let report = match fixture_policy(fixture) {
        None => Driver::new(manifest, durations, 64)
            .sim(&PilotScheduler::new())
            .memoized(&spec, 41, pool, &memo)
            .traced(&tel)
            .run(&mut board)
            .expect("fixture durations modeled"),
        Some(policy) => {
            let faults = match fixture {
                Fixture::Faulty => FaultPlan {
                    run_faults: FaultSpec::new(0.35, 23),
                    node_mttf: None,
                    stalls: None,
                    seed: 23,
                },
                _ => FaultPlan::none(7),
            };
            Driver::new(manifest, durations, 64)
                .resilient(&PilotScheduler::new(), &policy, &faults)
                .memoized(&spec, 41, pool, &memo)
                .traced(&tel)
                .run(&mut board)
                .expect("fixture durations modeled")
        }
    };
    let snapshot = rec.snapshot();
    let metrics = metrics_json(&snapshot);
    (board, metrics, snapshot, report)
}

/// Absolute path of a committed fixture artifact.
pub fn fixture_path(fixture: Fixture, kind: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{}.{kind}.json", fixture.name()))
}

/// Absolute path of a committed plain-text fixture artifact (fair-report
/// summaries, folded flamegraph stacks).
pub fn fixture_text_path(fixture: Fixture, kind: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{}.{kind}.txt", fixture.name()))
}

/// A committed expected plain-text artifact, byte-exact.
pub fn expected_text(fixture: Fixture, kind: &str) -> String {
    let path = fixture_text_path(fixture, kind);
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e} (run UPDATE_FIXTURES=1 to generate)",
            path.display()
        )
    })
}

/// The committed expected board bytes (the canonical-JSON form of
/// [`StatusBoard::canonical_json`], plus a trailing newline).
pub fn expected_board_json(fixture: Fixture) -> String {
    let path = fixture_path(fixture, "board");
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e} (run UPDATE_FIXTURES=1 to generate)",
            path.display()
        )
    })
}

/// The committed expected metrics document, byte-exact.
pub fn expected_metrics(fixture: Fixture) -> String {
    let path = fixture_path(fixture, "metrics");
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e} (run UPDATE_FIXTURES=1 to generate)",
            path.display()
        )
    })
}
