//! Warm/cold differential harness for content-addressed memoization.
//!
//! The memoization contract (ISSUE 9) is *byte-identity*: a campaign
//! replayed against a warm store must produce exactly the bytes a cold
//! execution produces — same `StatusBoard` canonical JSON, same metrics
//! export, same `fair-telemetry-digest/1` document — while executing
//! zero runs when every spec hits. These tests prove the contract over
//! the fixture corpus (sweep, faulty, checkpointed), across the serial
//! and `_par` drivers, for fully-warm, partially-warm (one edited
//! duration, one appended sweep point), and corrupted-store replays.

mod common;

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use common::{
    fixture_inputs, grid_manifest, ramp_durations, run_fixture_memo, run_memo_campaign, Fixture,
};
use fair_workflows::cheetah::status::StatusBoard;
use fair_workflows::exec::ThreadPool;
use fair_workflows::hpcsim::batch::BatchJob;
use fair_workflows::hpcsim::time::SimDuration;
use fair_workflows::savanna::pilot::PilotScheduler;
use fair_workflows::savanna::{CampaignReport, Driver, MemoConfig, MemoReport, SeriesSpec};
use fair_workflows::telemetry::{digest_json, DigestSet, Snapshot, Telemetry};

/// The memo layer's section of a memoized campaign's report.
fn memo(report: &CampaignReport) -> &MemoReport {
    report.memo.as_ref().expect("memoized")
}

/// A unique scratch store path per call (parallel test binaries share
/// the temp dir, so the name folds in the pid).
fn scratch_store(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "fair-memo-diff-{}-{tag}-{n}.cas",
        std::process::id()
    ))
}

/// The three byte-level artifacts the differential compares.
fn artifacts(board: &StatusBoard, metrics: &str, snapshot: &Snapshot) -> (String, String, String) {
    (
        board.canonical_json(),
        metrics.to_string(),
        digest_json(&DigestSet::from_snapshot(snapshot)),
    )
}

/// Asserts two memo executions produced byte-identical outputs.
fn assert_identical(
    label: &str,
    cold: &(StatusBoard, String, Snapshot, CampaignReport),
    warm: &(StatusBoard, String, Snapshot, CampaignReport),
) {
    let (cb, cm, cd) = artifacts(&cold.0, &cold.1, &cold.2);
    let (wb, wm, wd) = artifacts(&warm.0, &warm.1, &warm.2);
    assert_eq!(cb, wb, "{label}: board canonical JSON diverged");
    assert_eq!(cm, wm, "{label}: metrics export diverged");
    assert_eq!(cd, wd, "{label}: telemetry digest diverged");
}

#[test]
fn every_fixture_fully_warm_rerun_is_byte_identical_and_executes_nothing() {
    for fixture in Fixture::ALL {
        let store = scratch_store(fixture.name());
        let cold = run_fixture_memo(fixture, &store, None);
        assert_eq!(
            memo(&cold.3).cached_runs,
            0,
            "{}: a fresh store cannot hit",
            fixture.name()
        );
        assert_eq!(memo(&cold.3).executed_runs, memo(&cold.3).runs.len());
        assert!(cold.3.is_complete(), "{}: fixtures finish", fixture.name());

        let warm = run_fixture_memo(fixture, &store, None);
        assert_eq!(
            memo(&warm.3).executed_runs,
            0,
            "{}: a fully-warm rerun must execute nothing",
            fixture.name()
        );
        assert!(memo(&warm.3).fully_cached(), "{}", fixture.name());
        assert_identical(fixture.name(), &cold, &warm);

        // the provenance DAG must agree run-for-run on keys and digests,
        // differing only in the cached flag
        for (c, w) in memo(&cold.3).runs.iter().zip(memo(&warm.3).runs.iter()) {
            assert_eq!(c.run_id, w.run_id);
            assert_eq!(c.key, w.key, "{}: cache key unstable", fixture.name());
            assert!(!c.cached && w.cached);
        }
        std::fs::remove_file(&store).ok();
    }
}

#[test]
fn parallel_and_serial_memo_drivers_agree_warm_and_cold() {
    let pool = ThreadPool::new(4);
    for fixture in Fixture::ALL {
        let serial_store = scratch_store("serial");
        let par_store = scratch_store("par");
        let cold_serial = run_fixture_memo(fixture, &serial_store, None);
        let cold_par = run_fixture_memo(fixture, &par_store, Some(&pool));
        assert_identical(fixture.name(), &cold_serial, &cold_par);

        // warm across drivers: serial store replayed by the pooled
        // driver and vice versa — the cache is layout-independent
        let warm_cross = run_fixture_memo(fixture, &serial_store, Some(&pool));
        assert_eq!(memo(&warm_cross.3).executed_runs, 0);
        assert_identical(fixture.name(), &cold_serial, &warm_cross);
        let warm_cross2 = run_fixture_memo(fixture, &par_store, None);
        assert_eq!(memo(&warm_cross2.3).executed_runs, 0);
        assert_identical(fixture.name(), &cold_par, &warm_cross2);
        std::fs::remove_file(&serial_store).ok();
        std::fs::remove_file(&par_store).ok();
    }
}

#[test]
fn editing_one_duration_reexecutes_exactly_that_run() {
    let store = scratch_store("edit");
    let (manifest, mut durations) = fixture_inputs(Fixture::Sweep);
    let cold = run_memo_campaign(Fixture::Sweep, &manifest, &durations, &store, None);
    assert_eq!(memo(&cold.3).executed_runs, manifest.total_runs());

    // lengthen one mid-sweep run by a second: its key must change, and
    // only its key
    let edited_id = memo(&cold.3).runs[5].run_id.clone();
    let bumped = SimDuration(durations[&edited_id].0 + 1_000_000);
    durations.insert(edited_id.clone(), bumped);

    let warm = run_memo_campaign(Fixture::Sweep, &manifest, &durations, &store, None);
    assert_eq!(
        memo(&warm.3).executed_runs,
        1,
        "exactly the edited run re-runs"
    );
    assert_eq!(memo(&warm.3).cached_runs, manifest.total_runs() - 1);
    let executed: Vec<&str> = memo(&warm.3)
        .runs
        .iter()
        .filter(|r| !r.cached)
        .map(|r| r.run_id.as_str())
        .collect();
    assert_eq!(executed, vec![edited_id.as_str()]);

    // the hit set is exactly the unchanged runs, key-for-key
    let cold_keys: BTreeSet<(&str, &str)> = memo(&cold.3)
        .runs
        .iter()
        .filter(|r| r.run_id != edited_id)
        .map(|r| (r.run_id.as_str(), r.key.as_str()))
        .collect();
    let warm_hits: BTreeSet<(&str, &str)> = memo(&warm.3)
        .runs
        .iter()
        .filter(|r| r.cached)
        .map(|r| (r.run_id.as_str(), r.key.as_str()))
        .collect();
    assert_eq!(cold_keys, warm_hits);

    // and the partially-warm output is byte-identical to a cold run of
    // the *edited* campaign
    let fresh_store = scratch_store("edit-fresh");
    let fresh = run_memo_campaign(Fixture::Sweep, &manifest, &durations, &fresh_store, None);
    assert_identical("edited sweep", &fresh, &warm);
    std::fs::remove_file(&store).ok();
    std::fs::remove_file(&fresh_store).ok();
}

#[test]
fn extending_the_sweep_reuses_every_existing_run() {
    let store = scratch_store("extend");
    let (manifest12, durations12) = fixture_inputs(Fixture::Sweep);
    let cold12 = run_memo_campaign(Fixture::Sweep, &manifest12, &durations12, &store, None);
    assert_eq!(memo(&cold12.3).executed_runs, 12);

    // the same sweep with one more grid point: the first twelve specs
    // (ids, params, durations, seed derivations) are unchanged
    let manifest13 = grid_manifest("fixture-sweep", 13);
    let durations13 = ramp_durations(&manifest13, 600, 180);
    let warm13 = run_memo_campaign(Fixture::Sweep, &manifest13, &durations13, &store, None);
    assert_eq!(memo(&warm13.3).cached_runs, 12, "every old point must hit");
    assert_eq!(memo(&warm13.3).executed_runs, 1, "only the new point runs");
    let new_run = memo(&warm13.3)
        .runs
        .iter()
        .find(|r| !r.cached)
        .expect("one miss");
    assert!(
        memo(&cold12.3)
            .runs
            .iter()
            .all(|r| r.run_id != new_run.run_id),
        "the miss must be the appended sweep point"
    );

    let fresh_store = scratch_store("extend-fresh");
    let fresh13 = run_memo_campaign(
        Fixture::Sweep,
        &manifest13,
        &durations13,
        &fresh_store,
        None,
    );
    assert_identical("extended sweep", &fresh13, &warm13);
    std::fs::remove_file(&store).ok();
    std::fs::remove_file(&fresh_store).ok();
}

#[test]
fn a_poisoned_store_is_a_cache_miss_not_an_error() {
    let store = scratch_store("poison");
    let cold = run_fixture_memo(Fixture::Sweep, &store, None);
    assert_eq!(memo(&cold.3).executed_runs, 12);

    // flip one byte mid-file: the CRC layer must demote every frame it
    // can no longer trust to a miss, never to an error or a panic
    let mut bytes = std::fs::read(&store).expect("store exists after cold run");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&store, &bytes).expect("rewrite poisoned store");

    let warm = run_fixture_memo(Fixture::Sweep, &store, None);
    assert!(
        memo(&warm.3).executed_runs >= 1,
        "damaged frames must re-execute, got {} executed",
        memo(&warm.3).executed_runs
    );
    assert_identical("poisoned sweep", &cold, &warm);

    // re-executed puts repair the store: the next replay is fully warm
    let healed = run_fixture_memo(Fixture::Sweep, &store, None);
    assert_eq!(
        memo(&healed.3).executed_runs,
        0,
        "repair must restore full hits"
    );
    assert_identical("healed sweep", &cold, &healed);
    std::fs::remove_file(&store).ok();
}

#[test]
fn stochastic_series_memoize_byte_identically_once_acknowledged() {
    // queue-wait draws come from the seeded generator, which the memo key
    // does not pin: memoizing them requires the explicit FW208 opt-in,
    // after which the seeded streams are deterministic and the
    // differential must hold
    let store = scratch_store("stochastic");
    let manifest = grid_manifest("stochastic-sweep", 6);
    let durations = ramp_durations(&manifest, 600, 300);
    let spec = SeriesSpec::new(
        BatchJob::new(8, SimDuration::from_hours(2)),
        SimDuration::from_mins(5),
        0.5,
    );
    let run = || {
        let (tel, rec) = Telemetry::recording();
        let mut board = StatusBoard::for_manifest(&manifest);
        let report = Driver::new(&manifest, &durations, 64)
            .sim(&PilotScheduler::new())
            .memoized(
                &spec,
                41,
                None,
                &MemoConfig::new(&store).acknowledge_rand_nondeterminism(),
            )
            .traced(&tel)
            .run(&mut board)
            .expect("acknowledged stochastic campaign runs");
        let snapshot = rec.snapshot();
        let metrics = fair_workflows::telemetry::metrics_json(&snapshot);
        (board, metrics, snapshot, report)
    };
    let cold = run();
    assert_eq!(memo(&cold.3).executed_runs, 6);
    let warm = run();
    assert_eq!(memo(&warm.3).executed_runs, 0);
    assert!(memo(&warm.3).fully_cached());
    assert_identical("stochastic sweep", &cold, &warm);
    std::fs::remove_file(&store).ok();
}
