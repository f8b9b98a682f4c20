//! Campaign execution: one [`Driver`] builder over one core.
//!
//! "If all runs in the SweepGroup cannot be run in the allotted time, the
//! SweepGroup is simply re-submitted, and Savanna resumes execution of
//! the experiments" (§V-D). The serial loop obtains an allocation from
//! the batch queue, schedules the still-incomplete runs with the chosen
//! [`AllocationScheduler`], folds the outcome into the status board, and
//! repeats until the group completes (or an allocation cap is hit).
//!
//! A [`Driver`] names what a campaign runs with: the backend (the plain
//! loop, [`Driver::sim`], or the fault-tolerant one,
//! [`Driver::resilient`]), the execution (one loop on the caller's
//! series, a [`ShardPlan`] of loops, or memoized unit shards) and the
//! optional layers (telemetry, journal, stream, lint gate).
//! [`Driver::run`] runs every entry check once, attaches the stream,
//! executes, and returns one [`CampaignReport`].

use std::collections::{BTreeMap, HashSet};

use cheetah::manifest::{CampaignManifest, RunManifest};
use cheetah::status::{RunStatus, StatusBoard};
use exec::ThreadPool;
use fair_lint::{DiagnosticSet, SchedulePlan};
use hpcsim::batch::AllocationSeries;
use hpcsim::seed::SeedStream;
use hpcsim::time::{SimDuration, SimTime};
use hpcsim::trace::UtilizationTrace;
use telemetry::Telemetry;

use crate::error::SavannaError;
use crate::journal::{faults_enabled, JournalSession, JournalSpec, JournalStats};
use crate::memo::{memo_lint_plan, MemoConfig, MemoReport};
use crate::pilot::PilotScheduler;
use crate::resilience::{
    run_campaign_resilient_observed, FaultPlan, ResiliencePolicy, ResilienceReport,
};
use crate::shard::{SeriesSpec, ShardPlan, Shards};
use crate::stream::{attach_stream, StreamSpec};
use crate::task::{AllocationScheduler, SimTask, TaskResult};
use telemetry::stream::StreamStats;

/// One manifest run as the entry pass resolved it. The rows of a campaign
/// are its runs in manifest order, the one table every later step
/// addresses by index: a shard is a list of row indices, a memoized
/// run's unit shard is one row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunRow<'m> {
    pub(crate) run: &'m RunManifest,
    /// The run's group, as an index into the manifest's groups.
    pub(crate) group: usize,
    /// Nodes the run occupies: its group's `per_run_nodes`.
    pub(crate) width: u32,
    /// The run's status on the caller's board at entry.
    pub(crate) status: RunStatus,
    /// The run's failure count on the caller's board at entry.
    pub(crate) failures: u32,
    /// The modeled duration; `None` for a run the entry pass did not
    /// look up, which the execution never schedules.
    pub(crate) duration: Option<SimDuration>,
}

impl<'m> RunRow<'m> {
    pub(crate) fn id(&self) -> &'m str {
        &self.run.id
    }

    /// The modeled duration of a run the execution schedules.
    ///
    /// # Panics
    ///
    /// When the entry pass did not look it up: scheduling a run its
    /// `needs_duration` did not select is a bug, and running it at zero
    /// would hide it.
    pub(crate) fn duration(&self) -> SimDuration {
        match self.duration {
            Some(duration) => duration,
            None => panic!(
                "run {} is scheduled but its duration was not looked up at entry",
                self.run.id
            ),
        }
    }
}

/// The entry pass: one [`RunRow`] per manifest run, with its status and
/// failure count read off `board` once and its duration looked up when
/// `needs_duration(status, failures)` selects it. Fails on the first
/// selected run, in manifest order, that `durations` does not model; then
/// on a run id the manifest lists twice (the status board keeps one
/// entry per id, so two positions would share one run's state). One pass
/// over the runs, with no sort: a sweep has tens of thousands. Run ids
/// come from outside the program, so the repeated-id set uses the
/// standard library's default, randomly keyed hasher.
pub(crate) fn resolve_runs<'m>(
    manifest: &'m CampaignManifest,
    durations: &BTreeMap<String, SimDuration>,
    board: &StatusBoard,
    needs_duration: impl Fn(RunStatus, u32) -> bool,
) -> Result<Vec<RunRow<'m>>, SavannaError> {
    let total = manifest.total_runs();
    let mut rows = Vec::with_capacity(total);
    let mut seen: HashSet<&str> = HashSet::with_capacity(total);
    let mut repeated = None;
    for (group, g) in manifest.groups.iter().enumerate() {
        for run in &g.runs {
            let status = board.get(&run.id);
            let failures = board.failures(&run.id);
            let duration = if needs_duration(status, failures) {
                Some(
                    *durations
                        .get(&run.id)
                        .ok_or_else(|| SavannaError::UnmodeledRun {
                            run_id: run.id.clone(),
                        })?,
                )
            } else {
                None
            };
            if !seen.insert(&run.id) && repeated.is_none() {
                repeated = Some(&run.id);
            }
            rows.push(RunRow {
                run,
                group,
                width: g.per_run_nodes,
                status,
                failures,
                duration,
            });
        }
    }
    match repeated {
        Some(id) => Err(SavannaError::DuplicateRun { run_id: id.clone() }),
        None => Ok(rows),
    }
}

/// Refuses execution on any error-severity finding.
fn refuse_unless_clean(diagnostics: DiagnosticSet) -> Result<(), SavannaError> {
    if diagnostics.is_clean() {
        Ok(())
    } else {
        Err(SavannaError::Preflight(PreflightBlocked { diagnostics }))
    }
}

/// A driver progress event handed to an [`EpochObserver`]: the hook the
/// journaling layer uses to persist board state at every point the
/// serial loops mutate it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum EpochEvent<'e> {
    /// Campaign validated, about to request the first allocation.
    Setup,
    /// One allocation (epoch) fully folded into the board.
    Allocation {
        /// Allocation index within the campaign.
        index: u64,
        /// Simulated clock (µs) when the allocation went quiet.
        now_us: u64,
        /// Runs completed in this allocation.
        completed: u64,
        /// Runs timed out in this allocation.
        timed_out: u64,
        /// Every run id the allocation may have mutated on the board
        /// (unsorted, duplicates allowed). Lets the journal diff only
        /// the touched runs instead of scanning the whole board.
        touched: Vec<&'e str>,
    },
    /// The driver loop ended (campaign complete or cap hit).
    Complete,
}

/// Observer the serial loops call after every board mutation point,
/// with the board in its post-event state. An error aborts the campaign
/// mid-flight — exactly what a journal crash injection needs.
pub(crate) type EpochObserver<'o> =
    &'o mut dyn FnMut(&StatusBoard, &EpochEvent<'_>) -> Result<(), SavannaError>;

/// What happened inside one allocation.
#[derive(Debug, Clone)]
pub struct AllocationRecord {
    /// Allocation index within the campaign.
    pub index: u32,
    /// Allocation start (includes queue wait).
    pub start: SimTime,
    /// Allocation walltime end.
    pub end: SimTime,
    /// Runs completed in this allocation.
    pub completed: usize,
    /// Runs cut off at the walltime boundary.
    pub timed_out: usize,
    /// Mean node utilization over the *active* span (start → finished_at).
    pub utilization: f64,
    /// Idle node-hours over the active span.
    pub idle_node_hours: f64,
    /// Instant the allocation went quiet (early release point).
    pub finished_at: SimTime,
    /// Busy-node trace for figure plotting.
    pub trace: UtilizationTrace,
}

/// One serial loop's execution report.
#[derive(Debug, Clone)]
pub struct CampaignSimReport {
    /// Scheduler used.
    pub scheduler: &'static str,
    /// Per-allocation records.
    pub allocations: Vec<AllocationRecord>,
    /// Runs completed over the whole campaign.
    pub completed_runs: usize,
    /// Runs still incomplete when the driver stopped.
    pub remaining_runs: usize,
    /// Total campaign span from first submission to last activity,
    /// including queue waits.
    pub total_span: SimDuration,
}

impl CampaignSimReport {
    /// Mean completed runs per allocation (the Fig. 7 metric:
    /// "average number of parameters explored in 2-hour allocations").
    pub fn runs_per_allocation(&self) -> f64 {
        if self.allocations.is_empty() {
            return 0.0;
        }
        self.completed_runs as f64 / self.allocations.len() as f64
    }

    /// True when every run completed.
    pub fn is_complete(&self) -> bool {
        self.remaining_runs == 0
    }
}

/// One serial loop inside a [`CampaignReport`].
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// The shard's index in the plan; 0 for a serial run.
    pub shard: usize,
    /// The loop's allocation records and totals.
    pub report: CampaignSimReport,
    /// The shard's own resilience accounting. Empty for the sim backend,
    /// and for a serial run, whose accounting is
    /// [`CampaignReport::resilience`].
    pub resilience: ResilienceReport,
}

/// What one [`Driver::run`] did.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// The serial loops' reports: the one loop of a serial run, or each
    /// shard's in plan order. None when memoized: a cached run has no
    /// fresh allocation records, and inventing them would break the
    /// warm/cold equivalence the memo layer guarantees.
    pub shards: Vec<ShardReport>,
    /// Runs completed across the campaign.
    pub completed_runs: usize,
    /// Runs still incomplete when the campaign stopped.
    pub remaining_runs: usize,
    /// Campaign makespan: the serial loop's span, or the maximum shard
    /// span. Shards submit to *independent* allocation series from the
    /// same time origin — the model of a campaign fanning out over
    /// concurrent allocations — so the campaign finishes when the
    /// slowest shard does.
    pub makespan: SimDuration,
    /// Resilience accounting: the serial loop's, or the shards' merged —
    /// histories unioned (run ids are disjoint across shards), counters
    /// and rework node-hours summed, `exhausted` concatenated in shard
    /// order, `quarantined` the set union (node ids are
    /// allocation-local, so the union reads as "quarantined in at least
    /// one shard"). Empty for the sim backend and for memoized runs.
    pub resilience: ResilienceReport,
    /// Journal accounting (the main log plus every shard sub-log), when
    /// journaled.
    pub journal: Option<JournalStats>,
    /// The stream's totals after its final flush, when streamed.
    pub stream: Option<StreamStats>,
    /// Per-run cache outcomes and the provenance DAG, when memoized.
    pub memo: Option<MemoReport>,
}

impl CampaignReport {
    /// True when every run completed.
    pub fn is_complete(&self) -> bool {
        self.remaining_runs == 0
    }

    /// Total allocations consumed across all serial loops.
    pub fn total_allocations(&self) -> usize {
        self.shards.iter().map(|s| s.report.allocations.len()).sum()
    }
}

/// Why a gated campaign was refused before any allocation was requested.
///
/// Carries the full diagnostic set — warnings and hints included — so the
/// caller can render everything the linter saw, but only error-severity
/// findings trigger the refusal.
#[derive(Debug, Clone)]
pub struct PreflightBlocked {
    /// Everything the pre-flight lint pass reported.
    pub diagnostics: fair_lint::DiagnosticSet,
}

impl std::fmt::Display for PreflightBlocked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "campaign refused by pre-flight lint ({} error(s)):",
            self.diagnostics.errors().count()
        )?;
        for d in self.diagnostics.errors() {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for PreflightBlocked {}

/// Whether (and with what context) to lint a campaign before launching.
///
/// The gate is **opt-out**: [`PreflightGate::enforce`] is the intended
/// default, and [`PreflightGate::Skip`] exists for callers that have
/// already linted or that deliberately execute a defective campaign
/// (e.g. fault-injection studies).
#[derive(Debug, Clone, Default)]
pub enum PreflightGate<'a> {
    /// Lint with this context and configuration; refuse on any
    /// error-severity finding.
    Enforce {
        /// Cross-checking context (graph, app, machine, …).
        context: fair_lint::PreflightContext<'a>,
        /// Per-rule configuration and thresholds.
        config: fair_lint::LintConfig,
    },
    /// Launch without linting.
    #[default]
    Skip,
}

impl<'a> PreflightGate<'a> {
    /// An enforcing gate with the given context and the default rule
    /// configuration.
    pub fn enforce(context: fair_lint::PreflightContext<'a>) -> Self {
        PreflightGate::Enforce {
            context,
            config: fair_lint::LintConfig::new(),
        }
    }
}

/// Which serial loop executes the campaign.
#[derive(Clone, Copy)]
pub(crate) enum Backend<'a> {
    Sim {
        scheduler: &'a (dyn AllocationScheduler + Sync),
    },
    Resilient {
        pilot: &'a PilotScheduler,
        policy: ResiliencePolicy,
        faults: FaultPlan,
    },
}

impl Backend<'_> {
    /// The driver family, as memo keys and provenance name it.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Backend::Sim { .. } => "sim",
            Backend::Resilient { .. } => "resilient",
        }
    }

    pub(crate) fn policy(&self) -> Option<&ResiliencePolicy> {
        match self {
            Backend::Sim { .. } => None,
            Backend::Resilient { policy, .. } => Some(policy),
        }
    }

    pub(crate) fn faults(&self) -> Option<&FaultPlan> {
        match self {
            Backend::Sim { .. } => None,
            Backend::Resilient { faults, .. } => Some(faults),
        }
    }

    /// The backend shard `s` runs. Node-crash and stall streams come from
    /// `SeedStream::new(faults.seed).child(s)` — each shard is its own
    /// machine-weather environment, matching its own allocation series.
    /// Per-run error draws do not change: [`crate::FaultSpec`] hashes
    /// `(run id, attempt)` statelessly, so a given run fails on the same
    /// attempts in every shard plan.
    pub(crate) fn for_shard(self, s: usize) -> Self {
        match self {
            Backend::Resilient {
                pilot,
                policy,
                faults,
            } => Backend::Resilient {
                pilot,
                policy,
                faults: FaultPlan {
                    seed: SeedStream::new(faults.seed).child(s as u64).seed(),
                    ..faults
                },
            },
            sim => sim,
        }
    }

    /// `plan` projected into `fair-lint`'s schedule model for this
    /// backend, checked against the manifest's run count rather than the
    /// plan's own, so a plan sized for another manifest is a gap (`FW501`)
    /// instead of a panic.
    fn schedule(
        &self,
        plan: &ShardPlan,
        manifest: &CampaignManifest,
        seed: u64,
        max_allocations: u32,
    ) -> SchedulePlan {
        let mut schedule = match self {
            Backend::Sim { .. } => plan.schedule_plan_sim(seed, max_allocations),
            Backend::Resilient { policy, faults, .. } => {
                plan.schedule_plan_resilient(seed, max_allocations, policy, faults)
            }
        };
        schedule.total_runs = manifest.total_runs();
        schedule
    }

    /// Runs the serial loop over `rows` on `series`, journaling every
    /// board mutation to `journal` when given; returns the loop's report,
    /// its resilience accounting and the journal's.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_loop(
        &self,
        rows: &[RunRow<'_>],
        series: &mut AllocationSeries,
        board: &mut StatusBoard,
        max_allocations: u32,
        tel: &Telemetry,
        journal: Option<&JournalSpec>,
        recovery_tel: &Telemetry,
    ) -> Result<(CampaignSimReport, ResilienceReport, Option<JournalStats>), SavannaError> {
        let mut session = journal.map(JournalSession::open).transpose()?;
        let mut observe = |board: &StatusBoard, event: &EpochEvent<'_>| match session.as_mut() {
            Some(session) => session.observe(board, event),
            None => Ok(()),
        };
        let (report, resilience) = match *self {
            Backend::Sim { scheduler } => (
                run_campaign_sim_observed(
                    rows,
                    scheduler,
                    series,
                    board,
                    max_allocations,
                    tel,
                    &mut observe,
                )?,
                ResilienceReport::default(),
            ),
            Backend::Resilient {
                pilot,
                policy,
                faults,
            } => run_campaign_resilient_observed(
                rows,
                pilot,
                series,
                board,
                max_allocations,
                &policy,
                &faults,
                tel,
                &mut observe,
            )?,
        };
        let journal = session.map(|s| s.finish(recovery_tel)).transpose()?;
        Ok((report, resilience, journal))
    }
}

/// How the serial loops are laid out over the campaign's runs.
pub(crate) enum Execution<'a> {
    Serial(&'a mut AllocationSeries),
    Sharded {
        spec: &'a SeriesSpec,
        seed: u64,
        plan: &'a ShardPlan,
        pool: Option<&'a ThreadPool>,
    },
    Memoized {
        spec: &'a SeriesSpec,
        seed: u64,
        pool: Option<&'a ThreadPool>,
        memo: &'a MemoConfig,
    },
}

/// A campaign execution, assembled layer by layer and started with
/// [`Driver::run`]:
///
/// ```text
/// Driver::new(&manifest, &durations, max_allocations)
///     .resilient(&pilot, &policy, &faults)   // or .sim(&scheduler)
///     .sharded(&spec, seed, &plan, pool)     // or .serial(&mut series), .memoized(..)
///     .traced(&tel)                          // + .recovery_telemetry(&rtel)
///     .journal(&journal_spec)
///     .stream(&stream_spec)
///     .gate(&gate)
///     .run(&mut board)?
/// ```
///
/// Every setting is optional except the backend and the execution.
#[must_use]
pub struct Driver<'a> {
    manifest: &'a CampaignManifest,
    durations: &'a BTreeMap<String, SimDuration>,
    max_allocations: u32,
    backend: Option<Backend<'a>>,
    execution: Option<Execution<'a>>,
    tel: Option<&'a Telemetry>,
    recovery_tel: Option<&'a Telemetry>,
    journal: Option<&'a JournalSpec>,
    stream: Option<&'a StreamSpec>,
    gate: Option<&'a PreflightGate<'a>>,
}

impl<'a> Driver<'a> {
    /// A campaign over `manifest`'s runs. `durations` maps run ids to
    /// modeled execution times; a run the execution needs that is
    /// missing from the map is refused with
    /// [`SavannaError::UnmodeledRun`] before any allocation.
    /// `max_allocations` caps each serial loop: the whole campaign when
    /// serial, each shard when sharded, each run when memoized.
    pub fn new(
        manifest: &'a CampaignManifest,
        durations: &'a BTreeMap<String, SimDuration>,
        max_allocations: u32,
    ) -> Self {
        Self {
            manifest,
            durations,
            max_allocations,
            backend: None,
            execution: None,
            tel: None,
            recovery_tel: None,
            journal: None,
            stream: None,
            gate: None,
        }
    }

    /// The plain loop: `scheduler` places the incomplete runs into each
    /// allocation; runs cut at the walltime resume in the next.
    pub fn sim(mut self, scheduler: &'a (dyn AllocationScheduler + Sync)) -> Self {
        self.backend = Some(Backend::Sim { scheduler });
        self
    }

    /// The fault-tolerant loop ([`crate::resilience`]): injected faults
    /// from `faults`, retries, backoff, quarantine and checkpoint-aware
    /// restart per `policy`. The policy is validated at entry (see
    /// [`ResiliencePolicy::validate`]).
    pub fn resilient(
        mut self,
        pilot: &'a PilotScheduler,
        policy: &ResiliencePolicy,
        faults: &FaultPlan,
    ) -> Self {
        self.backend = Some(Backend::Resilient {
            pilot,
            policy: *policy,
            faults: *faults,
        });
        self
    }

    /// One loop on the caller's `series`, recording straight into the
    /// telemetry handle.
    pub fn serial(mut self, series: &'a mut AllocationSeries) -> Self {
        self.execution = Some(Execution::Serial(series));
        self
    }

    /// One loop per shard of `plan` ([`crate::shard`]): shard `s` runs on
    /// `spec.build(SeedStream::new(seed).child(s))`, on `pool` or inline
    /// when `None` (the output is the same either way), and the shards
    /// merge in plan order.
    pub fn sharded(
        mut self,
        spec: &'a SeriesSpec,
        seed: u64,
        plan: &'a ShardPlan,
        pool: Option<&'a ThreadPool>,
    ) -> Self {
        self.execution = Some(Execution::Sharded {
            spec,
            seed,
            plan,
            pool,
        });
        self
    }

    /// One shard per run, each keyed by its full input identity and
    /// served from `memo`'s store when cached ([`crate::memo`]); misses
    /// run on `pool` (or inline) and are stored for next time.
    pub fn memoized(
        mut self,
        spec: &'a SeriesSpec,
        seed: u64,
        pool: Option<&'a ThreadPool>,
        memo: &'a MemoConfig,
    ) -> Self {
        self.execution = Some(Execution::Memoized {
            spec,
            seed,
            pool,
            memo,
        });
        self
    }

    /// Records campaign telemetry into `tel`. A serial loop records
    /// straight into it; shards record into private recorders whose
    /// merged snapshot is replayed into `tel` once, after the merge.
    pub fn traced(mut self, tel: &'a Telemetry) -> Self {
        self.tel = Some(tel);
        self
    }

    /// Where a journaled campaign's recovery accounting goes: a handle
    /// of its own, so campaign metrics stay byte-identical whether or not
    /// a recovery happened.
    pub fn recovery_telemetry(mut self, recovery_tel: &'a Telemetry) -> Self {
        self.recovery_tel = Some(recovery_tel);
        self
    }

    /// Journals every board mutation to `journal` ([`crate::journal`]):
    /// a crashed campaign rerun with the same inputs validates the
    /// durable records and resumes appending.
    pub fn journal(mut self, journal: &'a JournalSpec) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Streams the telemetry live to `stream` ([`crate::stream`]). Needs
    /// a recording handle from [`Driver::traced`].
    pub fn stream(mut self, stream: &'a StreamSpec) -> Self {
        self.stream = Some(stream);
        self
    }

    /// Lints the campaign first and refuses it on any error-severity
    /// finding, before any other check.
    pub fn gate(mut self, gate: &'a PreflightGate<'a>) -> Self {
        self.gate = Some(gate);
        self
    }

    /// Runs the campaign, folding its outcome into `board`.
    ///
    /// Refusals come before any allocation, journal record or stream
    /// file, in this order: a memoized campaign with a journal
    /// ([`SavannaError::JournaledMemo`]) or with a non-finite float input
    /// to its keys ([`SavannaError::NonFiniteMemoInput`]); then the
    /// gate's findings (with
    /// the shard plan's, when sharded or memoized); the policy's
    /// validation; a missing
    /// duration (every run when memoized, since the duration is part of
    /// each key; the incomplete runs otherwise); a repeated run id; then
    /// the `FW207` durability, `FW208` memo and `FW501`–`FW506` schedule
    /// lints.
    ///
    /// # Panics
    /// Without a backend ([`Driver::sim`], [`Driver::resilient`]) or an
    /// execution ([`Driver::serial`], [`Driver::sharded`],
    /// [`Driver::memoized`]), with a zero allocation cap, or on a policy
    /// [`ResiliencePolicy::validate`] rejects.
    pub fn run(mut self, board: &mut StatusBoard) -> Result<CampaignReport, SavannaError> {
        let backend = self
            .backend
            .expect("a campaign needs a backend: Driver::sim or Driver::resilient");
        let execution = self.execution.take().expect(
            "a campaign needs an execution: Driver::serial, Driver::sharded or Driver::memoized",
        );
        if let Execution::Memoized { spec, .. } = &execution {
            if self.journal.is_some() {
                return Err(SavannaError::JournaledMemo);
            }
            crate::memo::check_key_inputs(spec, backend.faults())?;
        }
        let (rows, offsets) = self.check_entry(&backend, &execution, board)?;
        let disabled = Telemetry::disabled();
        let tel = self.tel.unwrap_or(&disabled);
        let recovery_tel = self.recovery_tel.unwrap_or(&disabled);
        let sink = self
            .stream
            .map(|spec| attach_stream(self.manifest, tel, spec))
            .transpose()?;
        let shards = |spec, seed, pool| Shards {
            backend,
            spec,
            seeds: SeedStream::new(seed),
            max_allocations: self.max_allocations,
            pool,
            traced: tel.is_enabled(),
            journal: self.journal,
            offsets,
        };
        let mut report = match execution {
            Execution::Serial(series) => {
                let (report, resilience, journal) = backend.run_loop(
                    &rows,
                    series,
                    board,
                    self.max_allocations,
                    tel,
                    self.journal,
                    recovery_tel,
                )?;
                CampaignReport {
                    completed_runs: report.completed_runs,
                    remaining_runs: report.remaining_runs,
                    makespan: report.total_span,
                    shards: vec![ShardReport {
                        shard: 0,
                        report,
                        resilience: ResilienceReport::default(),
                    }],
                    resilience,
                    journal,
                    ..CampaignReport::default()
                }
            }
            Execution::Sharded {
                spec,
                seed,
                plan,
                pool,
            } => crate::shard::run_sharded(
                &shards(spec, seed, pool),
                &rows,
                plan,
                board,
                tel,
                recovery_tel,
            )?,
            Execution::Memoized {
                spec,
                seed,
                pool,
                memo,
            } => crate::memo::run_memoized(
                &shards(spec, seed, pool),
                &rows,
                self.manifest,
                seed,
                memo,
                board,
                tel,
            )?,
        };
        if let Some(sink) = sink {
            report.stream = Some(sink.finish()?);
        }
        Ok(report)
    }

    /// The entry checks, in the order [`Driver::run`] documents; returns
    /// the campaign's rows and each shard's telemetry track offset when
    /// sharded or memoized.
    fn check_entry(
        &self,
        backend: &Backend<'_>,
        execution: &Execution<'_>,
        board: &StatusBoard,
    ) -> Result<(Vec<RunRow<'a>>, Vec<u32>), SavannaError> {
        let manifest = self.manifest;
        let schedule = match execution {
            Execution::Serial(_) => None,
            Execution::Sharded { seed, plan, .. } => {
                Some(backend.schedule(plan, manifest, *seed, self.max_allocations))
            }
            // one run per shard, shard index == run index (crate::memo)
            Execution::Memoized { seed, .. } => {
                let total = manifest.total_runs();
                let plan = ShardPlan::contiguous(total, total);
                Some(backend.schedule(&plan, manifest, *seed, self.max_allocations))
            }
        };
        if let Some(PreflightGate::Enforce { context, config }) = self.gate {
            let mut diagnostics =
                fair_lint::preflight_campaign(manifest, Some(self.durations), context, config);
            if let Some(schedule) = &schedule {
                diagnostics.extend(fair_lint::lint_schedule(schedule, config));
                diagnostics.sort();
            }
            refuse_unless_clean(diagnostics)?;
        }
        if let Some(policy) = backend.policy() {
            policy.validate();
        }
        let (durations, budget) = (self.durations, backend.policy().map(|p| p.retry_budget));
        let rows = match (execution, budget) {
            (Execution::Memoized { .. }, _) => {
                resolve_runs(manifest, durations, board, |_, _| true)
            }
            (_, None) => resolve_runs(manifest, durations, board, |status, _| status.needs_rerun()),
            (_, Some(budget)) => resolve_runs(manifest, durations, board, |status, failures| {
                status.needs_rerun_with_budget(failures, budget)
            }),
        }?;
        if let Some(journal) = self.journal {
            let faulted = backend.faults().is_some_and(faults_enabled);
            refuse_unless_clean(fair_lint::lint_durability_plan(
                &match execution {
                    Execution::Sharded { plan, .. } => {
                        journal.durability_plan_sharded(faulted, plan.num_shards())
                    }
                    _ => journal.durability_plan(faulted),
                },
                &fair_lint::LintConfig::new(),
            ))?;
        }
        if let Execution::Memoized { spec, memo, .. } = execution {
            refuse_unless_clean(fair_lint::lint_memo_plan(
                &memo_lint_plan(memo, spec, backend.faults()),
                &fair_lint::LintConfig::new(),
            ))?;
        }
        let offsets = match schedule {
            Some(schedule) => {
                refuse_unless_clean(fair_lint::lint_schedule(
                    &schedule,
                    &fair_lint::LintConfig::new(),
                ))?;
                schedule.planned_offsets()
            }
            None => Vec::new(),
        };
        Ok((rows, offsets))
    }
}

/// The plain serial loop, calling `observer` at every board mutation
/// point — the seam the journaling layer hangs off.
///
/// With an enabled handle, each allocation's active window becomes a span
/// on track 0 ("allocations") and campaign counters (`allocations`,
/// `completed_runs`, `timed_out_runs`, `queue_wait_us`) accumulate in the
/// sink. The engine's sampled resource series land on the same track as
/// `"util"` instants: per-allocation `busy_nodes` occupancy steps and a
/// `queue_depth` sample at each submission (instants only — the metrics
/// key set is untouched). All timestamps are virtual simulation time, so
/// exports are byte-identical across runs with the same seed. With a
/// disabled handle, event closures never execute.
///
/// Each row's status lives in a slot read once from its [`RunRow`]. The
/// loop is the board's only writer between `Setup` and `Complete`
/// (observers get `&StatusBoard`), so the slots mirror the board, and an
/// allocation writes the board, and touches the journal, only for the
/// runs whose status it changes: a run left `Pending` costs no lookup.
pub(crate) fn run_campaign_sim_observed(
    rows: &[RunRow<'_>],
    scheduler: &dyn AllocationScheduler,
    series: &mut AllocationSeries,
    board: &mut StatusBoard,
    max_allocations: u32,
    tel: &Telemetry,
    observer: EpochObserver<'_>,
) -> Result<CampaignSimReport, SavannaError> {
    assert!(max_allocations > 0);
    let mut slots: Vec<RunStatus> = rows.iter().map(|row| row.status).collect();
    // The schedulable set only shrinks as the campaign progresses
    // (completions leave; timed-out and never-started runs stay), so the
    // task list, and each task's row, is built exactly once and pruned in
    // place after each allocation.
    let mut tasks: Vec<SimTask> = Vec::new();
    let mut task_rows: Vec<usize> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        if row.status.needs_rerun() {
            tasks.push(SimTask::new(row.id(), row.width, row.duration()));
            task_rows.push(i);
        }
    }
    tel.name_track(0, "allocations");
    observer(board, &EpochEvent::Setup)?;
    let mut allocations = Vec::new();
    let mut completed_total = 0usize;
    let first_submission = series.now();
    let mut last_activity = first_submission;

    for _ in 0..max_allocations {
        if tasks.is_empty() {
            break;
        }
        let submitted = series.now();
        hpcsim::telemetry::record_queue_depth(tel, 0, submitted, tasks.len() as f64);
        let alloc = series.next_allocation();
        tel.count("queue_wait_us", alloc.start.since(submitted).0 as f64);
        let outcome = scheduler.schedule(&tasks, &alloc);
        hpcsim::telemetry::record_utilization_series(tel, 0, "busy_nodes", outcome.trace.series());

        let mut completed_here = 0usize;
        let mut timed_out_here = 0usize;
        let mut touched: Vec<&str> = Vec::new();
        for (result, &i) in outcome.results.iter().zip(&task_rows) {
            let status = match result {
                TaskResult::Completed { .. } => {
                    completed_here += 1;
                    RunStatus::Done
                }
                TaskResult::TimedOut => {
                    timed_out_here += 1;
                    RunStatus::TimedOut
                }
                TaskResult::NotStarted => RunStatus::Pending,
            };
            // Most of a large campaign sits in `NotStarted` every epoch;
            // only a write that changes the board is made and touched,
            // so the journal diff stays O(changed), not O(incomplete).
            if slots[i] != status {
                slots[i] = status;
                board.set(rows[i].id(), status);
                touched.push(rows[i].id());
            }
        }
        completed_total += completed_here;
        let active_end = outcome.finished_at.max(alloc.start);
        if active_end < alloc.end {
            series.release_early(active_end);
        }
        last_activity = last_activity.max(active_end);
        let span_for_util = if active_end > alloc.start {
            active_end
        } else {
            alloc.end
        };
        tel.span_with(|| telemetry::SpanEvent {
            category: "allocation",
            name: format!("alloc-{}", alloc.index),
            track: 0,
            start_us: alloc.start.0,
            dur_us: span_for_util.since(alloc.start).0,
            args: vec![
                ("completed", (completed_here as u64).into()),
                ("timed_out", (timed_out_here as u64).into()),
            ],
        });
        tel.count("allocations", 1.0);
        tel.count("completed_runs", completed_here as f64);
        tel.count("timed_out_runs", timed_out_here as f64);
        allocations.push(AllocationRecord {
            index: alloc.index,
            start: alloc.start,
            end: alloc.end,
            completed: completed_here,
            timed_out: timed_out_here,
            utilization: outcome.trace.mean_utilization(alloc.start, span_for_util),
            idle_node_hours: outcome.trace.idle_node_hours(alloc.start, span_for_util),
            finished_at: active_end,
            trace: outcome.trace,
        });
        observer(
            board,
            &EpochEvent::Allocation {
                index: u64::from(alloc.index),
                now_us: active_end.0,
                completed: completed_here as u64,
                timed_out: timed_out_here as u64,
                touched,
            },
        )?;
        // Drop completed tasks, preserving manifest order.
        let mut kept = 0;
        for k in 0..tasks.len() {
            if !matches!(outcome.results[k], TaskResult::Completed { .. }) {
                tasks.swap(kept, k);
                task_rows[kept] = task_rows[k];
                kept += 1;
            }
        }
        tasks.truncate(kept);
        task_rows.truncate(kept);
    }

    observer(board, &EpochEvent::Complete)?;
    Ok(CampaignSimReport {
        scheduler: scheduler.name(),
        allocations,
        completed_runs: completed_total,
        remaining_runs: slots.iter().filter(|s| s.needs_rerun()).count(),
        total_span: last_activity.since(first_submission),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pilot::PilotScheduler;
    use crate::setsync::SetSyncScheduler;
    use cheetah::campaign::{AppDef, Campaign, SweepGroup};
    use cheetah::param::SweepSpec;
    use cheetah::sweep::Sweep;
    use hpcsim::batch::BatchJob;

    fn campaign(runs: i64) -> CampaignManifest {
        Campaign::new("irf", "inst", AppDef::new("irf", "irf.exe"))
            .with_group(SweepGroup::new(
                "features",
                Sweep::new().with(
                    "feature",
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
            .unwrap()
    }

    fn uniform_durations(manifest: &CampaignManifest, secs: u64) -> BTreeMap<String, SimDuration> {
        manifest
            .groups
            .iter()
            .flat_map(|g| g.runs.iter())
            .map(|r| (r.id.clone(), SimDuration::from_secs(secs)))
            .collect()
    }

    fn series() -> AllocationSeries {
        AllocationSeries::new(
            BatchJob::new(4, SimDuration::from_hours(1)),
            SimDuration::from_mins(30),
            0.5,
            7,
        )
    }

    #[test]
    fn campaign_completes_within_one_allocation() {
        let m = campaign(8);
        let durations = uniform_durations(&m, 600);
        let mut board = StatusBoard::for_manifest(&m);
        let report = Driver::new(&m, &durations, 10)
            .sim(&PilotScheduler::new())
            .serial(&mut series())
            .run(&mut board)
            .expect("durations modeled");
        assert!(report.is_complete());
        assert_eq!(report.total_allocations(), 1);
        assert_eq!(report.completed_runs, 8);
        assert!(board.summary().is_complete());
    }

    #[test]
    fn resubmission_finishes_large_campaigns() {
        let m = campaign(40);
        // 40 × 600 s on 4 nodes = 6000 s of work per node-row → needs
        // multiple 1 h allocations
        let durations = uniform_durations(&m, 600);
        let mut board = StatusBoard::for_manifest(&m);
        let report = Driver::new(&m, &durations, 10)
            .sim(&PilotScheduler::new())
            .serial(&mut series())
            .run(&mut board)
            .expect("durations modeled");
        assert!(report.is_complete(), "remaining={}", report.remaining_runs);
        assert!(report.total_allocations() >= 2);
        assert_eq!(report.completed_runs, 40);
        // every allocation contributed
        let allocations = &report.shards[0].report.allocations;
        assert!(allocations.iter().all(|a| a.completed > 0));
    }

    #[test]
    fn allocation_cap_stops_early() {
        let m = campaign(400);
        let durations = uniform_durations(&m, 3000);
        let mut board = StatusBoard::for_manifest(&m);
        let report = Driver::new(&m, &durations, 2)
            .sim(&PilotScheduler::new())
            .serial(&mut series())
            .run(&mut board)
            .expect("durations modeled");
        assert!(!report.is_complete());
        assert_eq!(report.total_allocations(), 2);
        assert_eq!(report.completed_runs + report.remaining_runs, 400);
    }

    #[test]
    fn pilot_needs_no_more_allocations_than_setsync() {
        // heterogeneous durations: deterministic pseudo-random heavy tail
        let m = campaign(60);
        let durations: BTreeMap<String, SimDuration> = m
            .groups
            .iter()
            .flat_map(|g| g.runs.iter())
            .enumerate()
            .map(|(i, r)| {
                let base = 300 + (i * 937 % 1700) as u64; // 300..2000 s
                (r.id.clone(), SimDuration::from_secs(base))
            })
            .collect();
        let run = |sched: &(dyn AllocationScheduler + Sync)| {
            let mut board = StatusBoard::for_manifest(&m);
            let report = Driver::new(&m, &durations, 50)
                .sim(sched)
                .serial(&mut series())
                .run(&mut board)
                .expect("durations modeled");
            report.shards[0].report.clone()
        };
        let pilot = run(&PilotScheduler::new());
        let sync = run(&SetSyncScheduler::new(4));
        assert!(pilot.is_complete() && sync.is_complete());
        assert!(
            pilot.allocations.len() <= sync.allocations.len(),
            "pilot {} allocs vs sync {}",
            pilot.allocations.len(),
            sync.allocations.len()
        );
        assert!(pilot.total_span <= sync.total_span);
        assert!(pilot.runs_per_allocation() >= sync.runs_per_allocation());
    }

    #[test]
    fn missing_duration_is_a_typed_error_not_a_panic() {
        // Regression: this used to panic inside the allocation loop; now
        // it is SavannaError::UnmodeledRun raised before any allocation
        // is consumed.
        let m = campaign(2);
        let durations = BTreeMap::new();
        let mut board = StatusBoard::for_manifest(&m);
        let mut s = series();
        let before = s.now();
        let err = Driver::new(&m, &durations, 1)
            .sim(&PilotScheduler::new())
            .serial(&mut s)
            .run(&mut board)
            .unwrap_err();
        assert!(
            matches!(err, SavannaError::UnmodeledRun { ref run_id } if run_id.starts_with("features/")),
            "{err:?}"
        );
        assert_eq!(s.now(), before, "no allocation consumed on refusal");
    }

    #[test]
    fn traced_driver_records_allocation_spans_deterministically() {
        let m = campaign(8);
        let durations = uniform_durations(&m, 600);
        let export = || {
            let mut board = StatusBoard::for_manifest(&m);
            let (tel, rec) = Telemetry::recording();
            Driver::new(&m, &durations, 10)
                .sim(&PilotScheduler::new())
                .serial(&mut series())
                .traced(&tel)
                .run(&mut board)
                .expect("durations modeled");
            let snap = rec.snapshot();
            assert!(!snap.spans.is_empty(), "allocation spans recorded");
            assert!(snap.counters.contains_key("completed_runs"));
            telemetry::chrome_trace_json(&snap)
        };
        assert_eq!(export(), export(), "seeded exports are byte-identical");
    }

    #[test]
    fn early_release_shortens_the_series() {
        let m = campaign(2);
        let durations = uniform_durations(&m, 60);
        let mut board = StatusBoard::for_manifest(&m);
        let mut s = series();
        let report = Driver::new(&m, &durations, 5)
            .sim(&PilotScheduler::new())
            .serial(&mut s)
            .run(&mut board)
            .expect("durations modeled");
        assert!(report.is_complete());
        let rec = &report.shards[0].report.allocations[0];
        assert!(
            rec.finished_at < rec.end,
            "2×60 s should finish well before 1 h"
        );
        assert_eq!(s.now(), rec.finished_at);
    }

    /// Paths no refused campaign may leave behind.
    struct Files {
        journal: std::path::PathBuf,
        stream: std::path::PathBuf,
        store: std::path::PathBuf,
    }

    impl Files {
        fn new(tag: &str) -> Self {
            let base =
                std::env::temp_dir().join(format!("savanna-entry-{tag}-{}", std::process::id()));
            let files = Self {
                journal: base.with_extension("journal"),
                stream: base.with_extension("stream"),
                store: base.with_extension("cas"),
            };
            files.assert_absent("before");
            files
        }

        fn assert_absent(&self, label: &str) {
            let shard0 = JournalSpec::new(&self.journal).shard_path(0);
            for path in [&self.journal, &shard0, &self.stream, &self.store] {
                assert!(!path.exists(), "{label}: {} exists", path.display());
            }
        }
    }

    /// Runs `manifest` under every backend × execution × layer
    /// combination that exists — with `plans` as the sharded executions,
    /// and the serial and memoized ones unless `sharded_only` — and
    /// hands each refusal to `check` with a label.
    fn refuse_everywhere(
        manifest: &CampaignManifest,
        durations: &BTreeMap<String, SimDuration>,
        plans: &[ShardPlan],
        sharded_only: bool,
        files: &Files,
        check: impl Fn(&str, SavannaError),
    ) {
        let pilot = PilotScheduler::new();
        let policy = ResiliencePolicy::new();
        let faults = FaultPlan::none(1);
        let spec = SeriesSpec::instant(BatchJob::new(4, SimDuration::from_hours(2)));
        let journal = JournalSpec::new(&files.journal);
        let stream = StreamSpec::new(&files.stream);
        let memo = MemoConfig::new(&files.store);
        let (tel, _rec) = Telemetry::recording();
        for resilient in [false, true] {
            // 0 = serial, 1.. = the sharded plans, then memoized
            for execution in 0..plans.len() + 2 {
                for (journaled, streamed) in [(false, false), (true, false), (false, true)] {
                    let memoized = execution == plans.len() + 1;
                    let sharded = execution > 0 && !memoized;
                    if (memoized && journaled) || (sharded_only && !sharded) {
                        continue;
                    }
                    let mut board = StatusBoard::for_manifest(manifest);
                    let before = board.clone();
                    let mut s = series();
                    let start = s.now();
                    let mut driver = Driver::new(manifest, durations, 50);
                    driver = if resilient {
                        driver.resilient(&pilot, &policy, &faults)
                    } else {
                        driver.sim(&pilot)
                    };
                    driver = match execution {
                        0 => driver.serial(&mut s),
                        _ if memoized => driver.memoized(&spec, 7, None, &memo),
                        e => driver.sharded(&spec, 7, &plans[e - 1], None),
                    };
                    if journaled {
                        driver = driver.journal(&journal);
                    }
                    if streamed {
                        driver = driver.traced(&tel).stream(&stream);
                    }
                    let label = format!(
                        "resilient={resilient} execution={execution} journaled={journaled} \
                         streamed={streamed}"
                    );
                    let err = driver.run(&mut board).expect_err(&label);
                    check(&label, err);
                    assert_eq!(board, before, "{label}: board untouched");
                    assert_eq!(s.now(), start, "{label}: no allocation consumed");
                    files.assert_absent(&label);
                }
            }
        }
    }

    #[test]
    fn repeated_run_ids_are_refused_in_every_combination() {
        // features/feature-1 twice, at positions 1 and 2
        let mut m = campaign(4);
        let twin = m.groups[0].runs[1].clone();
        let twin_id = twin.id.clone();
        m.groups[0].runs.insert(2, twin);
        let durations = uniform_durations(&m, 600);
        let plans = [
            // the twins in one shard, then in two
            ShardPlan::from_assignments(vec![vec![0, 1, 2], vec![3, 4]], 5),
            ShardPlan::from_assignments(vec![vec![0, 1], vec![2, 3, 4]], 5),
        ];
        let files = Files::new("twins");
        refuse_everywhere(&m, &durations, &plans, false, &files, |label, err| {
            assert!(
                matches!(err, SavannaError::DuplicateRun { ref run_id } if *run_id == twin_id),
                "{label}: {err:?}"
            );
        });
    }

    #[test]
    fn drivers_outside_the_builder_refuse_repeated_run_ids() {
        use crate::faults::{run_campaign_sim_with_faults, FailureHandling, FaultSpec};
        // features/feature-1 twice, at positions 1 and 2
        let mut m = campaign(4);
        let twin = m.groups[0].runs[1].clone();
        let twin_id = twin.id.clone();
        m.groups[0].runs.insert(2, twin);
        let durations = uniform_durations(&m, 600);
        let mut board = StatusBoard::for_manifest(&m);
        let before = board.clone();
        let mut s = series();
        let start = s.now();
        let err = run_campaign_sim_with_faults(
            &m,
            &durations,
            &PilotScheduler::new(),
            &mut s,
            &mut board,
            50,
            FaultSpec::new(0.2, 3),
            FailureHandling::AutoRequeue,
        )
        .unwrap_err();
        assert!(
            matches!(err, SavannaError::DuplicateRun { ref run_id } if *run_id == twin_id),
            "{err:?}"
        );
        assert_eq!(board, before, "faults: board untouched");
        assert_eq!(s.now(), start, "faults: no allocation consumed");
    }

    #[test]
    fn shard_plans_sized_for_another_manifest_are_refused_with_fw501() {
        let m = campaign(5);
        let durations = uniform_durations(&m, 600);
        let plans = [
            ShardPlan::contiguous(m.total_runs() - 1, 2),
            ShardPlan::contiguous(m.total_runs() + 1, 2),
        ];
        let files = Files::new("fw501");
        refuse_everywhere(
            &m,
            &durations,
            &plans,
            true,
            &files,
            |label, err| match err {
                SavannaError::Preflight(blocked) => assert!(
                    blocked
                        .diagnostics
                        .errors()
                        .any(|d| d.code == fair_lint::rules::schedule::SHARD_GAP),
                    "{label}: {blocked}"
                ),
                other => panic!("{label}: expected FW501, got {other:?}"),
            },
        );
    }
}
