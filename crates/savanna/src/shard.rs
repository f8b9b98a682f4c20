//! Sharded parallel campaign execution.
//!
//! A serial loop walks a campaign's runs one allocation at a time.
//! Savanna's whole point is the opposite: campaign members dispatch
//! *concurrently across allocations* (PAPER §V). A
//! [`Driver::sharded`](crate::Driver::sharded) campaign adds that layer
//! without giving up the workspace's core invariant — seeded output is
//! byte-identical however the work is scheduled:
//!
//! 1. **Partition** — a [`ShardPlan`] splits the campaign's run indices
//!    into disjoint shards. A shard is its list of indices into the
//!    campaign's run table, the rows the driver's entry pass resolved
//!    once (run, group width, board status, failure count, duration);
//!    every worker gathers its rows and derives its own
//!    sub-[`StatusBoard`] from them and the caller's board (no manifest
//!    or board is built just to be cloned across the handoff).
//! 2. **Derive** — every shard's stochastic inputs (queue waits, fault
//!    streams) come from [`SeedStream`]
//!    children of the campaign seed, a pure function of `(seed, shard
//!    index)` — never of thread count or completion order.
//! 3. **Execute** — shards run the *unchanged* serial loops, each on its
//!    own [`AllocationSeries`], board, telemetry recorder and journal
//!    sub-log, on the [`exec::ThreadPool`] (or inline when no pool is
//!    given).
//! 4. **Merge** — results fold back in shard-index order: board deltas
//!    via [`StatusBoard::merge_from`], telemetry via
//!    [`telemetry::merge_snapshots`] with plan-derived track offsets,
//!    resilience accounting via field-wise sums/unions over `BTreeMap`s.
//!    The memo layer ([`crate::memo`]) runs its unit shards through the
//!    same body and the same merge.
//!
//! Because each shard's output is a pure function of `(shard rows,
//! derived seed, starting board)` and the merge is a pure function of the
//! ordered shard outputs, the merged result is identical for 1 thread,
//! N threads, or no pool at all — the property `tests/parallel_determinism.rs`
//! verifies byte-for-byte, and the test oracle that makes the parallel
//! path trustworthy for reuse.

use cheetah::journal::BoardRecord;
use cheetah::status::StatusBoard;
use exec::ThreadPool;
use fair_lint::{SchedulePlan, ShardDriver};
use hpcsim::batch::{AllocationSeries, BatchJob};
use hpcsim::seed::SeedStream;
use hpcsim::time::SimDuration;
use telemetry::{merge_snapshots, replay, Snapshot, Telemetry};

use crate::driver::{Backend, CampaignReport, CampaignSimReport, RunRow, ShardReport};
use crate::error::SavannaError;
use crate::journal::{JournalSession, JournalSpec, JournalStats};
use crate::resilience::{FaultPlan, ResiliencePolicy, ResilienceReport};

/// A disjoint partition of a campaign's run indices into shards.
///
/// Indices are positions in the manifest's canonical run order (groups in
/// manifest order, runs in group order) — the same order
/// [`cheetah::manifest::CampaignManifest::total_runs`] counts. Every run index appears in
/// exactly one shard; constructors never produce empty shards.
///
/// [`ShardPlan::from_assignments`] and
/// [`ShardPlan::with_track_offsets`] can describe plans the constructors
/// never build (gaps, overlaps, colliding telemetry lanes, another
/// manifest's run count); [`crate::Driver::run`] lints every plan with
/// `fair-lint`'s schedule rules (`FW501`–`FW506`) and refuses defective
/// ones before any run executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    assignments: Vec<Vec<usize>>,
    total_runs: usize,
    /// Explicit telemetry track offsets per shard; `None` = the driver's
    /// packed defaults (collision-free by construction).
    track_offsets: Option<Vec<u32>>,
}

impl ShardPlan {
    /// Splits `0..total_runs` into at most `shards` contiguous blocks of
    /// near-equal size (the first `total_runs % shards` blocks get one
    /// extra). Empty blocks are dropped, so fewer shards than requested
    /// may result when `total_runs < shards`.
    pub fn contiguous(total_runs: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let base = total_runs / shards;
        let extra = total_runs % shards;
        let mut assignments = Vec::new();
        let mut next = 0usize;
        for s in 0..shards {
            let len = base + usize::from(s < extra);
            if len == 0 {
                continue;
            }
            assignments.push((next..next + len).collect());
            next += len;
        }
        Self {
            assignments,
            total_runs,
            track_offsets: None,
        }
    }

    /// Deals `0..total_runs` round-robin across at most `shards` shards —
    /// useful when run durations correlate with manifest position and
    /// contiguous blocks would be imbalanced.
    pub fn round_robin(total_runs: usize, shards: usize) -> Self {
        let shards = shards.max(1).min(total_runs.max(1));
        let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for i in 0..total_runs {
            assignments[i % shards].push(i);
        }
        assignments.retain(|a| !a.is_empty());
        Self {
            assignments,
            total_runs,
            track_offsets: None,
        }
    }

    /// Builds a plan directly from explicit per-shard assignments. No
    /// validation happens here — [`crate::Driver::run`] lints the plan
    /// (`FW501`–`FW506`) and refuses a defective one at preflight.
    pub fn from_assignments(assignments: Vec<Vec<usize>>, total_runs: usize) -> Self {
        Self {
            assignments,
            total_runs,
            track_offsets: None,
        }
    }

    /// Overrides the telemetry track offset of each shard in the merged
    /// timeline (builder-style). The default packed offsets are always
    /// collision-free; explicit offsets are linted (`FW503`) before any
    /// run executes.
    #[must_use]
    pub fn with_track_offsets(mut self, offsets: Vec<u32>) -> Self {
        self.track_offsets = Some(offsets);
        self
    }

    /// The explicit track offsets, when set.
    pub fn track_offsets(&self) -> Option<&[u32]> {
        self.track_offsets.as_deref()
    }

    /// Number of (non-empty) shards.
    pub fn num_shards(&self) -> usize {
        self.assignments.len()
    }

    /// The run indices assigned to `shard`, in ascending order.
    pub fn assignment(&self, shard: usize) -> &[usize] {
        &self.assignments[shard]
    }

    /// Total runs the plan partitions.
    pub fn total_runs(&self) -> usize {
        self.total_runs
    }

    /// Projects the plan into `fair-lint`'s schedule-determinism model
    /// for the plain sim driver (one telemetry track per shard, no
    /// faults or retries).
    pub fn schedule_plan_sim(
        &self,
        campaign_seed: u64,
        max_allocations_per_shard: u32,
    ) -> SchedulePlan {
        SchedulePlan {
            assignments: self.assignments.clone(),
            total_runs: self.total_runs,
            campaign_seed,
            fault_seed: None,
            stream_ids: None,
            track_offsets: self.track_offsets.clone(),
            driver: ShardDriver::Sim,
            retry_budget: 0,
            faults_enabled: false,
            max_allocations_per_shard,
        }
    }

    /// Projects the plan into `fair-lint`'s schedule-determinism model
    /// for the resilient driver (`2 + runs` telemetry tracks per shard,
    /// the policy's retry budget, and the fault plan's seed/streams).
    pub fn schedule_plan_resilient(
        &self,
        campaign_seed: u64,
        max_allocations_per_shard: u32,
        policy: &ResiliencePolicy,
        faults: &FaultPlan,
    ) -> SchedulePlan {
        let faults_enabled = faults.run_faults.failure_probability > 0.0
            || faults.node_mttf.is_some()
            || faults.stalls.is_some();
        SchedulePlan {
            assignments: self.assignments.clone(),
            total_runs: self.total_runs,
            campaign_seed,
            fault_seed: Some(faults.seed),
            stream_ids: None,
            track_offsets: self.track_offsets.clone(),
            driver: ShardDriver::Resilient,
            retry_budget: policy.retry_budget,
            faults_enabled,
            max_allocations_per_shard,
        }
    }
}

/// The allocation-series recipe a sharded or memoized campaign stamps
/// out per shard.
///
/// A serial campaign runs on a live `&mut AllocationSeries`; a sharded
/// one needs one series *per shard*, each with its own derived seed, so
/// it takes the recipe instead. A zero `mean_queue_wait` builds
/// [`AllocationSeries::instant`] — no RNG draws at all, which keeps
/// golden-fixture expectations independent of the generator's stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesSpec {
    /// The allocation request each shard repeatedly submits.
    pub job: BatchJob,
    /// Mean queue wait before each allocation ([`SimDuration::ZERO`] for
    /// an instant, draw-free queue).
    pub mean_queue_wait: SimDuration,
    /// Coefficient of variation of the queue wait (ignored when the mean
    /// is zero).
    pub queue_cv: f64,
}

impl SeriesSpec {
    /// A spec with lognormal queue waits.
    pub fn new(job: BatchJob, mean_queue_wait: SimDuration, queue_cv: f64) -> Self {
        Self {
            job,
            mean_queue_wait,
            queue_cv,
        }
    }

    /// A spec whose queue grants instantly and draws no random numbers.
    pub fn instant(job: BatchJob) -> Self {
        Self {
            job,
            mean_queue_wait: SimDuration::ZERO,
            queue_cv: 0.0,
        }
    }

    /// Builds the series for one shard from its derived seed.
    pub fn build(&self, seed: u64) -> AllocationSeries {
        if self.mean_queue_wait == SimDuration::ZERO {
            AllocationSeries::instant(self.job, seed)
        } else {
            AllocationSeries::new(self.job, self.mean_queue_wait, self.queue_cv, seed)
        }
    }
}

/// Runs `run_shard` for every shard — on the pool when one is given and
/// there is more than one shard, inline otherwise — and returns the
/// outputs **in shard-index order** regardless of completion order
/// (results are scattered by shard index).
///
/// On the pool, shards are handed out one at a time in *longest-first*
/// order (`sizes[s]` = runs in shard `s`): the classic LPT heuristic, so
/// the heaviest shard starts first and a straggler cannot end up queued
/// behind short shards at the tail. Workers that finish early pull the
/// next shard from the shared handout (and the pool itself work-steals
/// at job granularity), while the scatter-by-index collection keeps the
/// merged output identical for any completion order.
pub(crate) fn execute_shards<T: Send>(
    pool: Option<&ThreadPool>,
    sizes: &[usize],
    run_shard: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let shards = sizes.len();
    match pool {
        Some(pool) if shards > 1 => {
            let mut order: Vec<usize> = (0..shards).collect();
            // Stable sort: equal-size shards keep plan order.
            order.sort_by_key(|&s| std::cmp::Reverse(sizes[s]));
            pool.map_index_ordered(shards, &order, run_shard)
        }
        _ => (0..shards).map(run_shard).collect(),
    }
}

/// What every shard of one campaign shares: the inputs of the per-shard
/// body and of the merge step.
pub(crate) struct Shards<'a> {
    pub(crate) backend: Backend<'a>,
    pub(crate) spec: &'a SeriesSpec,
    pub(crate) seeds: SeedStream,
    pub(crate) max_allocations: u32,
    pub(crate) pool: Option<&'a ThreadPool>,
    pub(crate) traced: bool,
    pub(crate) journal: Option<&'a JournalSpec>,
    /// Each shard's telemetry track offset in the merged timeline.
    pub(crate) offsets: Vec<u32>,
}

/// One shard's output as the merge step takes it: an executed shard's,
/// or a memo hit's as the store kept it.
pub(crate) struct ShardOut {
    pub(crate) completed: usize,
    pub(crate) remaining: usize,
    pub(crate) span: SimDuration,
    /// The shard's board in its local form: refs not yet rebased.
    pub(crate) board: StatusBoard,
    /// The shard's private recording: track names not yet prefixed.
    pub(crate) snapshot: Option<Snapshot>,
    /// The loop's report and resilience accounting; `None` for memo
    /// outputs.
    pub(crate) report: Option<(CampaignSimReport, ResilienceReport)>,
    /// The shard sub-log's accounting, when journaled.
    pub(crate) journal: Option<JournalStats>,
}

impl Shards<'_> {
    /// The per-shard body: derives shard `s`'s sub-board from `board`
    /// and its `rows`, its series (and, for the resilient loop, its fault
    /// streams) from the shard's child seeds, gives it a private recorder
    /// when traced and a `<path>.shard<s>` sub-log when journaled (the
    /// crash point tears the main log only), and runs the serial loop
    /// over `rows`.
    pub(crate) fn run_shard(
        &self,
        s: usize,
        rows: &[RunRow<'_>],
        board: &StatusBoard,
    ) -> Result<ShardOut, SavannaError> {
        let mut shard_board = board.sub_board(rows.iter().map(|row| (row.id(), row.status)));
        let mut series = self.spec.build(self.seeds.child(s as u64).seed());
        let (tel, recorder) = if self.traced {
            let (t, r) = Telemetry::recording();
            (t, Some(r))
        } else {
            (Telemetry::disabled(), None)
        };
        let journal = self.journal.map(|journal| JournalSpec {
            path: journal.shard_path(s),
            snapshot_every: journal.snapshot_every,
            fsync: journal.fsync,
            crash: None,
        });
        let (report, resilience, journal) = self.backend.for_shard(s).run_loop(
            rows,
            &mut series,
            &mut shard_board,
            self.max_allocations,
            &tel,
            journal.as_ref(),
            &Telemetry::disabled(),
        )?;
        Ok(ShardOut {
            completed: report.completed_runs,
            remaining: report.remaining_runs,
            span: report.total_span,
            board: shard_board,
            snapshot: recorder.map(|r| r.take_snapshot()),
            report: Some((report, resilience)),
            journal,
        })
    }
}

/// The merge step: folds shard outputs into the caller's board and one
/// report, in plan order, whether a shard executed or was served from
/// the memo store.
pub(crate) struct Merge<'a> {
    shards: &'a Shards<'a>,
    /// Only the resilient loop publishes `trace#<track>` refs, and only
    /// when traced.
    rebase: bool,
    snapshots: Vec<(u32, Snapshot)>,
    report: CampaignReport,
}

impl<'a> Merge<'a> {
    pub(crate) fn new(shards: &'a Shards<'a>) -> Self {
        Self {
            rebase: shards.traced && matches!(shards.backend, Backend::Resilient { .. }),
            snapshots: Vec::new(),
            report: CampaignReport::default(),
            shards,
        }
    }

    /// Folds in shard `s`'s output; `run_ids` are the shard's runs. The
    /// board's refs are rebased into the merged track space in place and
    /// the board is journaled as the shard's `ShardMerged` record (the
    /// main log alone then recovers the caller-visible board) and moved
    /// into `board`: one rebase, no board copy.
    pub(crate) fn add<'i>(
        &mut self,
        s: usize,
        run_ids: impl IntoIterator<Item = &'i str>,
        mut out: ShardOut,
        board: &mut StatusBoard,
        session: Option<&mut JournalSession>,
    ) -> Result<(), SavannaError> {
        let offset = self.shards.offsets[s];
        if self.rebase {
            rebase_telemetry_refs(&mut out.board, run_ids, offset);
        }
        if let Some(session) = session {
            session.step_board(BoardRecord::ShardMerged(s as u64, &out.board))?;
        }
        board.merge_from(out.board);
        if let Some(mut snapshot) = out.snapshot {
            prefix_track_names(&mut snapshot, s);
            self.snapshots.push((offset, snapshot));
        }
        let report = &mut self.report;
        report.completed_runs += out.completed;
        report.remaining_runs += out.remaining;
        report.makespan = report.makespan.max(out.span);
        if let Some(stats) = out.journal {
            report.journal.get_or_insert_default().absorb(&stats);
        }
        if let Some((loop_report, resilience)) = out.report {
            report.shards.push(ShardReport {
                shard: s,
                report: loop_report,
                resilience,
            });
        }
        Ok(())
    }

    /// Merges the resilience accounting and replays the merged snapshot
    /// into `tel`, once.
    pub(crate) fn finish(mut self, tel: &Telemetry) -> CampaignReport {
        if self.shards.traced {
            replay(merge_snapshots(std::mem::take(&mut self.snapshots)), tel);
        }
        self.report.resilience = merge_resilience(self.report.shards.iter().map(|s| &s.resilience));
        self.report
    }
}

/// The sharded execution: the per-shard body for each shard of `plan`
/// over the shard's rows of `rows` (on the pool or inline), and the merge
/// in plan order.
///
/// Journaled, the main log at `journal.path` holds the initial board
/// snapshot, every shard's final sub-board as a
/// [`cheetah::journal::JournalRecord::ShardMerged`] in plan order, and the
/// completion marker, so `cheetah::journal::recover` on the main log
/// alone reproduces the final merged board; each shard appends to its
/// own `<path>.shard<s>` sub-log, so a crash mid-shard loses nothing a
/// shard had framed.
pub(crate) fn run_sharded(
    cx: &Shards<'_>,
    rows: &[RunRow<'_>],
    plan: &ShardPlan,
    board: &mut StatusBoard,
    tel: &Telemetry,
    recovery_tel: &Telemetry,
) -> Result<CampaignReport, SavannaError> {
    let sizes: Vec<usize> = (0..plan.num_shards())
        .map(|s| plan.assignment(s).len())
        .collect();
    let mut session = cx.journal.map(JournalSession::open).transpose()?;
    if let Some(session) = session.as_mut() {
        session.step_board(BoardRecord::Snapshot(board))?;
    }
    let board_view: &StatusBoard = board;
    let outputs = execute_shards(cx.pool, &sizes, |s| {
        let shard_rows: Vec<RunRow<'_>> = plan.assignment(s).iter().map(|&i| rows[i]).collect();
        cx.run_shard(s, &shard_rows, board_view)
    });
    let mut merge = Merge::new(cx);
    for (s, out) in outputs.into_iter().enumerate() {
        let run_ids = plan.assignment(s).iter().map(|&i| rows[i].id());
        merge.add(s, run_ids, out?, board, session.as_mut())?;
    }
    let main = match session {
        Some(mut session) => {
            session.complete()?;
            Some(session.finish(recovery_tel)?)
        }
        None => None,
    };
    let mut report = merge.finish(tel);
    if let Some(main) = main {
        report.journal.get_or_insert_default().absorb(&main);
    }
    Ok(report)
}

/// Rewrites a shard board's own telemetry refs (`trace#<local>`) into
/// the merged track space (`trace#<local + offset>`), in place.
fn rebase_telemetry_refs<'i>(
    board: &mut StatusBoard,
    run_ids: impl IntoIterator<Item = &'i str>,
    offset: u32,
) {
    for id in run_ids {
        let rebased = board
            .telemetry_ref(id)
            .and_then(|r| r.strip_prefix("trace#"))
            .and_then(|t| t.parse::<u32>().ok())
            .map(|local| format!("trace#{}", local + offset));
        if let Some(reference) = rebased {
            board.record_telemetry_ref(id, reference);
        }
    }
}

/// Prefixes a shard snapshot's track names with `shard<index>/` so the
/// merged timeline keeps one uniquely-named lane per shard track.
fn prefix_track_names(snapshot: &mut Snapshot, shard: usize) {
    snapshot.track_names = snapshot
        .track_names
        .iter()
        .map(|(t, n)| (*t, format!("shard{shard}/{n}")))
        .collect();
}

/// Field-wise merge of per-shard resilience accounting (see
/// [`CampaignReport::resilience`] for the semantics of each field).
/// The per-shard reports stay in [`CampaignReport::shards`], so the
/// merged accounting necessarily copies — a single cold-path pass per
/// campaign, with the growable fields pre-sized from the parts.
fn merge_resilience<'a>(
    parts: impl Iterator<Item = &'a ResilienceReport> + Clone,
) -> ResilienceReport {
    let mut merged = ResilienceReport::default();
    merged
        .exhausted
        .reserve(parts.clone().map(|p| p.exhausted.len()).sum());
    for part in parts {
        for (id, history) in &part.histories {
            merged.histories.insert(id.clone(), history.clone());
        }
        merged.quarantined.extend(part.quarantined.iter().copied());
        merged.node_crashes += part.node_crashes;
        merged.crash_kills += part.crash_kills;
        merged.hang_kills += part.hang_kills;
        merged.run_errors += part.run_errors;
        merged.walltime_cuts += part.walltime_cuts;
        merged.failed_attempts += part.failed_attempts;
        merged.exhausted.extend(part.exhausted.iter().cloned());
        merged.rework_lost_node_hours += part.rework_lost_node_hours;
        merged.rework_saved_node_hours += part.rework_saved_node_hours;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Driver, PilotScheduler};
    use cheetah::campaign::{AppDef, Campaign, SweepGroup};
    use cheetah::manifest::CampaignManifest;
    use cheetah::param::SweepSpec;
    use cheetah::sweep::Sweep;
    use hpcsim::time::SimDuration;
    use std::collections::BTreeMap;

    fn manifest(runs: i64) -> CampaignManifest {
        Campaign::new("shardtest", "inst", AppDef::new("app", "app.exe"))
            .with_group(SweepGroup::new(
                "g",
                Sweep::new().with(
                    "n",
                    SweepSpec::IntRange {
                        start: 0,
                        end: runs - 1,
                        step: 1,
                    },
                ),
                4,
                1,
                3600,
            ))
            .manifest()
            .expect("valid campaign")
    }

    fn durations(m: &CampaignManifest, secs: u64) -> BTreeMap<String, SimDuration> {
        m.groups
            .iter()
            .flat_map(|g| g.runs.iter())
            .map(|r| (r.id.clone(), SimDuration::from_secs(secs)))
            .collect()
    }

    #[test]
    fn contiguous_plan_partitions_every_run_once() {
        let plan = ShardPlan::contiguous(10, 3);
        assert_eq!(plan.num_shards(), 3);
        let mut seen: Vec<usize> = (0..plan.num_shards())
            .flat_map(|s| plan.assignment(s).iter().copied())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn plans_drop_empty_shards() {
        assert_eq!(ShardPlan::contiguous(2, 8).num_shards(), 2);
        assert_eq!(ShardPlan::round_robin(2, 8).num_shards(), 2);
        assert_eq!(ShardPlan::contiguous(0, 4).num_shards(), 0);
    }

    #[test]
    fn sharded_run_completes_the_whole_campaign() {
        let m = manifest(9);
        let d = durations(&m, 600);
        let spec = SeriesSpec::instant(BatchJob::new(4, SimDuration::from_hours(2)));
        let mut board = StatusBoard::for_manifest(&m);
        let plan = ShardPlan::contiguous(m.total_runs(), 3);
        let report = Driver::new(&m, &d, 50)
            .sim(&PilotScheduler::new())
            .sharded(&spec, 7, &plan, None)
            .run(&mut board)
            .expect("modeled");
        assert!(report.is_complete());
        assert_eq!(report.completed_runs, 9);
        assert!(board.summary().is_complete());
        assert!(report.makespan > SimDuration::ZERO);
    }

    #[test]
    fn schedule_projections_reproduce_driver_track_layout() {
        let plan = ShardPlan::contiguous(7, 3); // shards of 3, 2, 2
        let sim = plan.schedule_plan_sim(42, 8);
        // plain driver: one track per shard
        assert_eq!(sim.planned_offsets(), vec![0, 1, 2]);
        let policy = ResiliencePolicy::default();
        let faults = FaultPlan::none(11);
        let res = plan.schedule_plan_resilient(42, 8, &policy, &faults);
        // resilient driver: 2 + runs_in_shard tracks per shard
        assert_eq!(res.planned_offsets(), vec![0, 5, 9]);
        // explicit offsets pass through verbatim
        let custom = ShardPlan::contiguous(7, 3).with_track_offsets(vec![0, 10, 20]);
        assert_eq!(
            custom.schedule_plan_sim(42, 8).planned_offsets(),
            vec![0, 10, 20]
        );
    }

    #[test]
    fn constructor_plans_lint_clean() {
        for plan in [ShardPlan::contiguous(9, 4), ShardPlan::round_robin(9, 4)] {
            let schedule = plan.schedule_plan_sim(7, 50);
            assert!(fair_lint::lint_schedule(&schedule, &fair_lint::LintConfig::new()).is_clean());
        }
    }

    #[test]
    fn colliding_track_offsets_are_rejected_before_any_run() {
        let m = manifest(6);
        let d = durations(&m, 600);
        let spec = SeriesSpec::instant(BatchJob::new(4, SimDuration::from_hours(2)));
        let mut board = StatusBoard::for_manifest(&m);
        let plan = ShardPlan::contiguous(m.total_runs(), 2).with_track_offsets(vec![3, 3]);
        let err = Driver::new(&m, &d, 50)
            .sim(&PilotScheduler::new())
            .sharded(&spec, 7, &plan, None)
            .run(&mut board)
            .expect_err("colliding lanes must refuse");
        match err {
            SavannaError::Preflight(blocked) => {
                assert!(blocked
                    .diagnostics
                    .iter()
                    .any(|diag| diag.code == fair_lint::rules::schedule::TRACK_COLLISION));
            }
            other => panic!("expected Preflight, got {other:?}"),
        }
        // nothing ran
        assert_eq!(board.summary().pending, 6);
    }

    #[test]
    fn gapped_assignments_are_rejected_before_any_run() {
        let m = manifest(4);
        let d = durations(&m, 600);
        let spec = SeriesSpec::instant(BatchJob::new(4, SimDuration::from_hours(2)));
        let mut board = StatusBoard::for_manifest(&m);
        // run 2 missing, run 1 duplicated
        let plan = ShardPlan::from_assignments(vec![vec![0, 1], vec![1, 3]], 4);
        let err = Driver::new(&m, &d, 50)
            .sim(&PilotScheduler::new())
            .sharded(&spec, 7, &plan, None)
            .run(&mut board)
            .expect_err("gap + overlap must refuse");
        match err {
            SavannaError::Preflight(blocked) => {
                let codes: Vec<&str> = blocked
                    .diagnostics
                    .iter()
                    .map(|diag| diag.code.as_str())
                    .collect();
                assert!(codes.contains(&fair_lint::rules::schedule::SHARD_GAP));
                assert!(codes.contains(&fair_lint::rules::schedule::SHARD_OVERLAP));
            }
            other => panic!("expected Preflight, got {other:?}"),
        }
        assert_eq!(board.summary().pending, 4);
    }

    #[test]
    fn unmodeled_run_fails_before_any_shard_executes() {
        let m = manifest(4);
        let mut d = durations(&m, 600);
        d.remove("g/n-2");
        let spec = SeriesSpec::instant(BatchJob::new(4, SimDuration::from_hours(2)));
        let mut board = StatusBoard::for_manifest(&m);
        let plan = ShardPlan::contiguous(m.total_runs(), 2);
        let err = Driver::new(&m, &d, 50)
            .sim(&PilotScheduler::new())
            .sharded(&spec, 7, &plan, None)
            .run(&mut board)
            .expect_err("missing duration must refuse");
        assert!(matches!(err, SavannaError::UnmodeledRun { .. }));
        // nothing ran
        assert_eq!(board.summary().pending, 4);
    }
}
