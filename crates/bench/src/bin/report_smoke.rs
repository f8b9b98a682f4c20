//! Seeded trace exporter for the CI report-smoke step.
//!
//! Runs one small, fully deterministic sharded campaign — instant
//! allocation series (no queue-wait draws) and hash-based run faults
//! only, the same rand-free recipe the golden fixtures use — and writes
//! its `fair-telemetry-trace/1` export to the given path. `devtools/ci.sh`
//! feeds that file through `fair-report` (summary, `--digest`,
//! `--flamegraph`) and byte-compares two generations, so this bin must
//! stay deterministic.
//!
//! Usage: `report_smoke OUT_TRACE.json`

use std::collections::BTreeMap;

use cheetah::campaign::{AppDef, Campaign, SweepGroup};
use cheetah::manifest::CampaignManifest;
use cheetah::param::SweepSpec;
use cheetah::status::StatusBoard;
use cheetah::sweep::Sweep;
use hpcsim::batch::BatchJob;
use hpcsim::time::SimDuration;
use savanna::pilot::PilotScheduler;
use savanna::resilience::{FaultPlan, ResiliencePolicy};
use savanna::{Driver, FaultSpec, SeriesSpec, ShardPlan};
use telemetry::{chrome_trace_json, Telemetry};

fn manifest() -> CampaignManifest {
    Campaign::new("report-smoke", "inst", AppDef::new("irf", "irf.exe"))
        .with_group(SweepGroup::new(
            "grid",
            Sweep::new().with(
                "p",
                SweepSpec::IntRange {
                    start: 0,
                    end: 7,
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

fn main() {
    let out = std::env::args()
        .nth(1)
        .expect("usage: report_smoke OUT_TRACE.json");
    let manifest = manifest();
    let durations: BTreeMap<String, SimDuration> = manifest
        .groups
        .iter()
        .flat_map(|g| g.runs.iter())
        .enumerate()
        .map(|(i, r)| (r.id.clone(), SimDuration::from_secs(900 + 150 * i as u64)))
        .collect();
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
    let (tel, rec) = Telemetry::recording();
    let report = Driver::new(&manifest, &durations, 64)
        .resilient(&PilotScheduler::new(), &policy, &faults)
        .sharded(&spec, 41, &plan, None)
        .traced(&tel)
        .run(&mut board)
        .expect("durations modeled");
    assert!(report.is_complete(), "smoke campaign must complete");
    std::fs::write(&out, chrome_trace_json(&rec.snapshot())).expect("write trace export");
    println!(
        "report_smoke: wrote {out} ({} runs, {} shards)",
        report.completed_runs,
        plan.num_shards()
    );
}
