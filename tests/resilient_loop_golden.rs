//! Golden for the resilient allocation loop: one serial, traced
//! `Driver::resilient` campaign that walks every branch of the loop's
//! fold that a campaign without generator draws can reach, compared
//! byte-for-byte against three committed files under
//! `tests/fixtures/resilient/`:
//!
//! * `loop.board.json` — the final board's canonical JSON;
//! * `loop.metrics.json` — the telemetry metrics export;
//! * `loop.report.txt` — a canonical text rendering of the
//!   serial loop's report and resilience accounting, written by
//!   [`render_report`] below: every
//!   history (empty ones too), the counters, the quarantine set, the
//!   exhausted runs and every allocation record with its busy-node trace.
//!   Each `f64` is written as its bit pattern, so the file pins values
//!   exactly.
//!
//! The campaign mixes 1-node and 2-node runs on an instant allocation
//! series with run errors, filesystem stalls, a hang timeout, backoff,
//! checkpoint restart and a retry budget that some runs exhaust. Its
//! starting board already holds a `Done` run, `Failed` runs within and
//! past the budget and a `TimedOut` run, and an allocation cap leaves
//! some runs never started. Node crashes, drawn from the seeded
//! generator, are left to the loop's unit tests.
//!
//! Regenerate after an intentional behaviour change with
//! `UPDATE_FIXTURES=1 cargo test --test resilient_loop_golden`.

use std::collections::BTreeMap;
use std::path::PathBuf;

use fair_workflows::cheetah::campaign::{AppDef, Campaign, SweepGroup};
use fair_workflows::cheetah::manifest::CampaignManifest;
use fair_workflows::cheetah::param::SweepSpec;
use fair_workflows::cheetah::status::{RunStatus, StatusBoard};
use fair_workflows::cheetah::sweep::Sweep;
use fair_workflows::hpcsim::batch::{AllocationSeries, BatchJob};
use fair_workflows::hpcsim::time::SimDuration;
use fair_workflows::savanna::pilot::PilotScheduler;
use fair_workflows::savanna::resilience::{
    AttemptOutcome, FaultPlan, ResiliencePolicy, RestartStrategy, StallSpec,
};
use fair_workflows::savanna::CampaignReport;
use fair_workflows::savanna::{Driver, FaultSpec};
use fair_workflows::telemetry::{metrics_json, Telemetry};

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
        6,
        per_run_nodes,
        7200,
    )
}

/// 14 one-node runs, then 8 two-node runs.
fn manifest() -> CampaignManifest {
    Campaign::new("resilient-loop", "inst", AppDef::new("irf", "irf.exe"))
        .with_group(group("one", 14, 1))
        .with_group(group("two", 8, 2))
        .manifest()
        .expect("valid campaign")
}

/// 20 min to a little over 3 h, spread over the manifest without an RNG
/// (`i * 37 mod 11` steps of 17 minutes), so some runs outlast the hang
/// deadline and the walltime.
fn durations(m: &CampaignManifest) -> BTreeMap<String, SimDuration> {
    m.groups
        .iter()
        .flat_map(|g| g.runs.iter())
        .enumerate()
        .map(|(i, r)| {
            let mins = 20 + 17 * ((i as u64 * 37) % 11);
            (r.id.clone(), SimDuration::from_mins(mins))
        })
        .collect()
}

/// The starting board: one run of each state a resubmitted campaign can
/// carry. The `Failed` and `TimedOut` runs sit late in the manifest, so
/// allocations offer them without starting them; the last two never
/// start before the cap.
fn starting_board(m: &CampaignManifest) -> StatusBoard {
    let mut board = StatusBoard::for_manifest(m);
    // done before the resubmission: never a candidate
    board.record_attempt("one/p-0");
    board.set("one/p-0", RunStatus::Done);
    // failed three times: past the budget, never offered, exhausted
    for _ in 0..3 {
        board.record_attempt("one/p-6");
        board.record_failure("one/p-6", "hang");
    }
    // failed once: within the budget of 2, so they rerun; a run that is
    // offered and not started stays Failed
    for id in ["two/p-5", "two/p-7"] {
        board.record_attempt(id);
        board.record_failure(id, "run-error");
    }
    // cut at a walltime before the resubmission: reruns, and goes back
    // to Pending when offered and not started
    board.record_attempt("two/p-6");
    board.set("two/p-6", RunStatus::TimedOut);
    board
}

fn run_campaign() -> (StatusBoard, String, CampaignReport) {
    let m = manifest();
    let d = durations(&m);
    let mut board = starting_board(&m);
    let mut series = AllocationSeries::instant(BatchJob::new(6, SimDuration::from_hours(2)), 5);
    let policy = ResiliencePolicy {
        retry_budget: 2,
        backoff_base: SimDuration::from_mins(10),
        backoff_factor: 2.0,
        max_backoff: SimDuration::from_hours(2),
        quarantine_threshold: 2,
        hang_timeout_fraction: 0.75,
        restart: RestartStrategy::FromCheckpoint {
            interval: SimDuration::from_mins(15),
        },
    };
    let faults = FaultPlan {
        run_faults: FaultSpec::new(0.3, 17),
        node_mttf: None,
        stalls: Some(StallSpec {
            mean_between: SimDuration::from_mins(30),
            duration: SimDuration::from_mins(6),
            slowdown: 3.0,
            io_fraction: 0.4,
        }),
        seed: 17,
    };
    let (tel, rec) = Telemetry::recording();
    let report = Driver::new(&m, &d, 4)
        .resilient(&PilotScheduler::new(), &policy, &faults)
        .serial(&mut series)
        .traced(&tel)
        .run(&mut board)
        .expect("durations modeled");
    let metrics = metrics_json(&rec.snapshot());
    (board, metrics, report)
}

fn outcome_text(outcome: &AttemptOutcome) -> String {
    match outcome {
        AttemptOutcome::Completed => "completed".to_string(),
        AttemptOutcome::WalltimeCut { preserved } => {
            format!("walltime-cut preserved_us={}", preserved.0)
        }
        AttemptOutcome::Failed { cause, preserved } => {
            format!(
                "failed cause={} preserved_us={}",
                cause.as_str(),
                preserved.0
            )
        }
    }
}

/// The canonical text form of a report: one line per field, runs in id
/// order, allocations in index order, `f64`s as `0x` bit patterns.
fn render_report(report: &CampaignReport) -> String {
    let bits = |x: f64| format!("{:#018x}", x.to_bits());
    let r = &report.shards[0].report;
    let mut lines = vec![
        format!("scheduler {}", r.scheduler),
        format!("completed_runs {}", r.completed_runs),
        format!("remaining_runs {}", r.remaining_runs),
        format!("total_span_us {}", r.total_span.0),
    ];
    for a in &r.allocations {
        lines.push(format!(
            "allocation {} start_us={} end_us={} completed={} timed_out={} utilization={} \
             idle_node_hours={} finished_at_us={}",
            a.index,
            a.start.0,
            a.end.0,
            a.completed,
            a.timed_out,
            bits(a.utilization),
            bits(a.idle_node_hours),
            a.finished_at.0,
        ));
        let points: String = a
            .trace
            .series()
            .points()
            .iter()
            .map(|(t, v)| format!(" {}:{}", t.0, bits(*v)))
            .collect();
        lines.push(format!("  trace{points}"));
    }
    let res = &report.resilience;
    for (id, h) in &res.histories {
        lines.push(format!(
            "history {id} completed={} exhausted={} attempts={}",
            h.completed,
            h.exhausted,
            h.attempts.len()
        ));
        for a in &h.attempts {
            lines.push(format!(
                "  attempt {} allocation={} started_us={} ended_us={} {}",
                a.attempt,
                a.allocation,
                a.started_at.0,
                a.ended_at.0,
                outcome_text(&a.outcome)
            ));
        }
    }
    lines.extend([
        format!("quarantined {:?}", res.quarantined),
        format!("node_crashes {}", res.node_crashes),
        format!("crash_kills {}", res.crash_kills),
        format!("hang_kills {}", res.hang_kills),
        format!("run_errors {}", res.run_errors),
        format!("walltime_cuts {}", res.walltime_cuts),
        format!("failed_attempts {}", res.failed_attempts),
        format!("exhausted {:?}", res.exhausted),
        format!(
            "rework_lost_node_hours {}",
            bits(res.rework_lost_node_hours)
        ),
        format!(
            "rework_saved_node_hours {}",
            bits(res.rework_saved_node_hours)
        ),
    ]);
    lines.join("\n") + "\n"
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/resilient")
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

#[test]
fn resilient_loop_matches_committed_golden() {
    let (board, metrics, report) = run_campaign();
    check("loop.board.json", &(board.canonical_json() + "\n"));
    check("loop.metrics.json", &metrics);
    check("loop.report.txt", &render_report(&report));
}

/// The golden is only worth its bytes if the campaign reaches the
/// branches it claims to; this pins that, independently of the bytes.
#[test]
fn golden_campaign_covers_the_loop_branches() {
    let (board, _, report) = run_campaign();
    let res = &report.resilience;
    assert!(res.run_errors > 0, "run errors drawn");
    assert!(res.hang_kills > 0, "hang deadline fired");
    assert!(res.walltime_cuts > 0, "walltime cut");
    assert!(
        res.rework_saved_node_hours > 0.0,
        "checkpoints carried progress"
    );
    assert!(res.exhausted.len() >= 2, "budget exhausted in the loop too");
    assert!(
        res.exhausted.iter().any(|id| id == "one/p-6") && !res.histories.contains_key("one/p-6"),
        "a run failed past the budget at entry is exhausted and never offered"
    );
    assert!(
        !res.histories.contains_key("one/p-0"),
        "a done run is never offered"
    );
    assert!(
        res.histories.values().any(|h| h.attempts.is_empty()),
        "the cap leaves an offered run never started"
    );
    assert!(!report.is_complete(), "the cap cuts the campaign");
    assert_eq!(report.total_allocations(), 4);
    assert!(
        res.histories
            .iter()
            .any(|(id, h)| id.starts_with("two/") && !h.attempts.is_empty()),
        "two-node runs start"
    );
    assert_eq!(board.get("one/p-0"), RunStatus::Done);
    for (id, status) in [
        ("two/p-6", RunStatus::Pending),
        ("two/p-7", RunStatus::Failed),
    ] {
        assert!(
            res.histories[id].attempts.is_empty() && board.get(id) == status,
            "{id} is offered, never started, and ends {status:?}"
        );
    }
}
