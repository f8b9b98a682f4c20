//! Byte-level goldens for `fair-top --once --mode text`.
//!
//! The text renderer is the scriptable face of live observability: CI
//! and notebooks diff its output, so its bytes must be identical across
//! runs, builds, and PRs unless the change is intentional. These tests re-run the deterministic smoke campaign
//! that `stream_overhead --smoke` streams (same manifest, durations,
//! faults, and seeds — `devtools/ci.sh` cross-checks the two against
//! the same fixture), fold the stream exactly as `fair-top --once`
//! does, and pin the text render against the committed golden
//! (`tests/fixtures/stream/smoke.top.txt`). After an *intentional*
//! render change, regenerate with `UPDATE_FIXTURES=1 cargo test --test
//! fair_top_goldens` and review the fixture diff as the review of the
//! output break.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use fair_workflows::cheetah::campaign::{AppDef, Campaign, SweepGroup};
use fair_workflows::cheetah::manifest::CampaignManifest;
use fair_workflows::cheetah::param::SweepSpec;
use fair_workflows::cheetah::status::StatusBoard;
use fair_workflows::cheetah::sweep::Sweep;
use fair_workflows::hpcsim::batch::BatchJob;
use fair_workflows::hpcsim::time::SimDuration;
use fair_workflows::savanna::pilot::PilotScheduler;
use fair_workflows::savanna::resilience::{FaultPlan, ResiliencePolicy};
use fair_workflows::savanna::{Driver, FaultSpec, SeriesSpec, StreamSpec};
use fair_workflows::telemetry::render::render_live;
use fair_workflows::telemetry::{read_stream, LiveModel, RenderMode, Telemetry, Theme};

/// Fixture directory.
fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/stream")
}

fn updating() -> bool {
    std::env::var_os("UPDATE_FIXTURES").is_some_and(|v| v == "1")
}

/// The `stream_overhead --smoke` campaign: 8 retried runs, hash-based
/// run faults only, instant allocation series — every source of
/// nondeterminism (generator draws, thread interleaving) excluded, so
/// the stream and its render are byte-stable everywhere.
fn smoke_manifest() -> CampaignManifest {
    Campaign::new("observe-smoke", "inst", AppDef::new("irf", "irf.exe"))
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

/// Streams the smoke campaign to `out` and returns the stream's text
/// render — what `fair-top --once --mode text` prints for it.
fn smoke_render(out: &Path) -> String {
    let manifest = smoke_manifest();
    let durations: BTreeMap<String, SimDuration> = manifest
        .groups
        .iter()
        .flat_map(|g| g.runs.iter())
        .enumerate()
        .map(|(i, r)| (r.id.clone(), SimDuration::from_secs(900 + 150 * i as u64)))
        .collect();
    let mut series = SeriesSpec::instant(BatchJob::new(8, SimDuration::from_hours(2))).build(41);
    let policy = ResiliencePolicy {
        retry_budget: 3,
        backoff_base: SimDuration::from_mins(10),
        ..ResiliencePolicy::default()
    };
    let faults = FaultPlan {
        run_faults: FaultSpec::new(0.35, 23),
        node_mttf: None,
        stalls: None,
        seed: 23,
    };
    let mut board = StatusBoard::for_manifest(&manifest);
    let (tel, _rec) = Telemetry::recording();
    Driver::new(&manifest, &durations, 64)
        .resilient(&PilotScheduler::new(), &policy, &faults)
        .serial(&mut series)
        .traced(&tel)
        .stream(&StreamSpec::new(out))
        .run(&mut board)
        .expect("smoke campaign");

    let scan = read_stream(out).expect("smoke stream scans cleanly");
    assert!(scan.complete, "smoke stream missing Complete record");
    let mut model = LiveModel::new();
    model.fold_all(&scan.records);
    render_live(&model, &Theme::for_mode(RenderMode::Text))
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "fair-top-golden-{}-{tag}.stream",
        std::process::id()
    ))
}

#[test]
fn text_render_matches_the_committed_golden() {
    let golden = fixture_dir().join("smoke.top.txt");
    let path = scratch("golden");
    let rendered = smoke_render(&path);
    std::fs::remove_file(&path).ok();

    // Text mode is for pipes and diffs: no ANSI escapes, ever.
    assert!(
        !rendered.contains('\u{1b}'),
        "text render leaked ANSI escapes"
    );
    if updating() {
        std::fs::create_dir_all(fixture_dir()).expect("fixture dir");
        std::fs::write(&golden, &rendered).expect("write golden");
        eprintln!("updated {}", golden.display());
        return;
    }
    let committed = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun UPDATE_FIXTURES=1 cargo test --test fair_top_goldens to generate",
            golden.display()
        )
    });
    assert_eq!(
        rendered, committed,
        "fair-top text render drifted from the committed golden. If the \
         change is intentional, regenerate with UPDATE_FIXTURES=1 and \
         review the diff."
    );
}

#[test]
fn text_render_is_byte_stable_across_runs() {
    let (a, b) = (scratch("stable-a"), scratch("stable-b"));
    let first = smoke_render(&a);
    let second = smoke_render(&b);
    let bytes_a = std::fs::read(&a).expect("stream a");
    let bytes_b = std::fs::read(&b).expect("stream b");
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
    assert_eq!(bytes_a, bytes_b, "smoke stream bytes drifted between runs");
    assert_eq!(first, second, "text render drifted between identical runs");
}

#[test]
fn render_of_a_stream_prefix_is_stable_and_incomplete() {
    // fair-top renders mid-campaign prefixes all the time; a prefix
    // fold must be deterministic too, and must not claim completion.
    let path = scratch("prefix");
    let _ = smoke_render(&path);
    let scan = read_stream(&path).expect("smoke stream scans cleanly");
    std::fs::remove_file(&path).ok();
    let prefix = &scan.records[..scan.records.len() / 2];
    let theme = Theme::for_mode(RenderMode::Text);
    let mut one = LiveModel::new();
    one.fold_all(prefix);
    let mut two = LiveModel::new();
    two.fold_all(prefix);
    let (ra, rb) = (render_live(&one, &theme), render_live(&two, &theme));
    assert_eq!(ra, rb);
    assert!(
        !ra.contains("state: complete"),
        "a prefix render must not claim the campaign completed"
    );
}
