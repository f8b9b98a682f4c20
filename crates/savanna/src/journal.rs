//! The journal layer: crash-safe durability for the simulated campaign
//! family.
//!
//! The serial loops mutate a [`StatusBoard`] in memory; kill the process
//! mid-campaign and every completed run is forgotten. A
//! [`Driver::journal`](crate::Driver::journal) campaign wires the loops'
//! [`EpochObserver`](crate::driver) seam to `cheetah`'s append-only
//! [`journal`](cheetah::journal), so campaign progress survives a crash
//! and a rerun picks up where the log ends.
//!
//! # Recovery model: validated replay-resume
//!
//! The simulated loops are *deterministic*: the full record stream a
//! campaign produces is a pure function of `(manifest, durations, seed,
//! policy, initial board)`. Resume exploits that instead of fighting it —
//! a journaled campaign always re-simulates from its initial
//! state, and the durable journal is the **oracle**, not the restart
//! point:
//!
//! 1. [`cheetah::journal::recover_for_append`] scans the log, truncates a
//!    torn tail (a crash mid-`write`), and hands back the durable record
//!    prefix plus a writer positioned after it.
//! 2. The campaign re-runs; every record it derives is compared against the
//!    durable prefix in order. A mismatch is a hard
//!    [`JournalError::Diverged`] — the caller changed the seed, the
//!    manifest, or the fault plan, and silently "resuming" would fabricate
//!    history.
//! 3. Once the cursor passes the durable prefix, derived records are
//!    *appended*: the journal grows exactly as it would have in the
//!    uninterrupted run, so the recovered campaign's board, report, and
//!    journal bytes are all identical to a never-crashed run with the
//!    same inputs — the property `tests/crash_recovery.rs` checks
//!    byte-for-byte.
//!
//! Re-simulation costs simulated work only (the loops model time, they
//! don't sleep through it); what durability buys is the *board* — the
//! authoritative record of which real runs completed — plus the framed
//! mutation history auditors can replay.
//!
//! A resume therefore takes the same *initial* inputs as the original
//! launch: a fresh board (`StatusBoard::for_manifest`), a fresh
//! allocation series with the same seed, and identical manifest,
//! durations, policy, and telemetry enablement. Passing the partially
//! mutated board a crashed run left behind would derive a different
//! record stream and fail the `Diverged` check — by design.
//!
//! # Gate
//!
//! A journaled campaign projects its [`JournalSpec`] to a `fair-lint`
//! [`DurabilityPlan`] and refuses launch on any `FW207` finding
//! (degenerate snapshot cadence, shard journal-path collisions) — the
//! same preflight posture as the schedule lint of a sharded campaign.

use std::path::{Path, PathBuf};

use cheetah::journal::{
    diff_board_runs, recover_for_append, BoardRecord, CrashPoint, FsyncPolicy, JournalError,
    JournalRecord, JournalWriter,
};
use cheetah::status::StatusBoard;
use fair_lint::DurabilityPlan;
use telemetry::{SpanEvent, Telemetry};

use crate::driver::EpochEvent;
use crate::error::SavannaError;
use crate::resilience::FaultPlan;

/// Where and how a journaled campaign persists its state.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalSpec {
    /// The journal file. A sharded campaign derives per-shard sub-logs as
    /// `<path>.shard<index>`.
    pub path: PathBuf,
    /// Epochs (allocations) between snapshot-compaction records. `0` and
    /// `usize::MAX` are misconfigurations `FW207` refuses.
    pub snapshot_every: usize,
    /// When appended frames are fsynced.
    pub fsync: FsyncPolicy,
    /// Crash-injection point for the differential harness: the append
    /// that would cross this absolute journal offset is torn mid-frame
    /// and the campaign aborts with [`JournalError::CrashInjected`].
    pub crash: Option<CrashPoint>,
}

impl JournalSpec {
    /// A spec with the default cadence: snapshot every 8 epochs, fsync
    /// per snapshot, no crash injection.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            snapshot_every: 8,
            fsync: FsyncPolicy::PerSnapshot,
            crash: None,
        }
    }

    /// Overrides the snapshot-compaction cadence (builder-style).
    #[must_use]
    pub fn with_snapshot_every(mut self, epochs: usize) -> Self {
        self.snapshot_every = epochs;
        self
    }

    /// Overrides the fsync policy (builder-style).
    #[must_use]
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// The sub-log path shard `index` of a sharded campaign appends to.
    pub fn shard_path(&self, index: usize) -> PathBuf {
        PathBuf::from(format!("{}.shard{index}", self.path.display()))
    }

    /// Projects the spec down to `fair-lint`'s durability model for a
    /// serial campaign (one journal path).
    pub fn durability_plan(&self, faults_enabled: bool) -> DurabilityPlan {
        DurabilityPlan {
            journaling_enabled: true,
            faults_enabled,
            snapshot_every: self.snapshot_every,
            journal_paths: vec![self.path.display().to_string()],
        }
    }

    /// Projects the spec down to `fair-lint`'s durability model for a
    /// sharded campaign: the main journal plus every shard sub-log.
    pub fn durability_plan_sharded(&self, faults_enabled: bool, shards: usize) -> DurabilityPlan {
        let mut journal_paths = vec![self.path.display().to_string()];
        journal_paths.extend((0..shards).map(|s| self.shard_path(s).display().to_string()));
        DurabilityPlan {
            journaling_enabled: true,
            faults_enabled,
            snapshot_every: self.snapshot_every,
            journal_paths,
        }
    }
}

/// What the journal did during one journaled campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalStats {
    /// Durable records recovered from an existing log before execution.
    pub recovered_records: usize,
    /// Records appended during this execution.
    pub appended_records: u64,
    /// Snapshot-compaction records appended during this execution.
    pub snapshots_taken: usize,
    /// Bytes of torn tail truncated during recovery.
    pub torn_bytes: u64,
    /// Epoch markers validated against the durable prefix (the stretch
    /// of campaign history this execution replayed rather than appended).
    pub replayed_epochs: u64,
    /// Final journal size in bytes.
    pub bytes: u64,
}

impl JournalStats {
    /// Field-wise accumulation — how a sharded campaign folds shard
    /// sub-log accounting into the main journal's.
    pub fn absorb(&mut self, other: &JournalStats) {
        self.recovered_records += other.recovered_records;
        self.appended_records += other.appended_records;
        self.snapshots_taken += other.snapshots_taken;
        self.torn_bytes += other.torn_bytes;
        self.replayed_epochs += other.replayed_epochs;
        self.bytes += other.bytes;
    }
}

/// The catch-up state machine behind every journaled campaign: derived
/// records are validated against the durable prefix while the cursor is
/// inside it, appended once past it.
pub(crate) struct JournalSession {
    writer: JournalWriter,
    durable: Vec<JournalRecord>,
    cursor: usize,
    /// The board the next epoch diffs against; empty on a sharded
    /// campaign's main log, which never diffs.
    prev_board: StatusBoard,
    epoch_count: u64,
    snapshot_every: usize,
    snapshots_taken: usize,
    replayed_epochs: u64,
    /// Simulated clock (µs) of the last *replayed* epoch — the span of
    /// history recovery validated instead of re-persisting.
    replayed_until_us: u64,
    torn_bytes: u64,
    recovered_records: usize,
}

impl JournalSession {
    /// Opens (or creates) the journal at `spec.path`. An existing file is
    /// recovered — torn tail truncated with a warning, mid-log corruption
    /// a hard error — and its records become the validation prefix. The
    /// crash point installs *after* recovery, so the differential harness
    /// tears appends, never recovery itself.
    pub(crate) fn open(spec: &JournalSpec) -> Result<Self, JournalError> {
        let (durable, torn_bytes, mut writer) = if spec.path.exists() {
            let (scan, writer) = recover_for_append(&spec.path, spec.fsync)?;
            (scan.records, scan.torn_bytes, writer)
        } else {
            (
                Vec::new(),
                0,
                JournalWriter::create(&spec.path, spec.fsync)?,
            )
        };
        writer.set_crash_point(spec.crash);
        Ok(Self {
            writer,
            recovered_records: durable.len(),
            durable,
            cursor: 0,
            prev_board: StatusBoard::default(),
            epoch_count: 0,
            snapshot_every: spec.snapshot_every,
            snapshots_taken: 0,
            replayed_epochs: 0,
            replayed_until_us: 0,
            torn_bytes,
        })
    }

    /// Advances the session by one derived record: validated against the
    /// durable prefix while the cursor is inside it, appended past it.
    fn step(&mut self, record: JournalRecord) -> Result<(), JournalError> {
        let Some(durable) = self.durable.get(self.cursor) else {
            return self.writer.append(&record);
        };
        if *durable != record {
            return Err(self.diverged(record.encode()));
        }
        if let JournalRecord::Epoch { now_us, .. } = record {
            self.replayed_epochs += 1;
            self.replayed_until_us = now_us.max(self.replayed_until_us);
        }
        self.cursor += 1;
        Ok(())
    }

    /// [`JournalSession::step`] for a snapshot or shard-merge record,
    /// which borrows the caller's board: compared with the durable record
    /// or encoded in place, never copied. A sharded campaign's main log
    /// opens with a snapshot stepped here, without the shadow board
    /// [`EpochEvent::Setup`] keeps.
    pub(crate) fn step_board(&mut self, record: BoardRecord<'_>) -> Result<(), JournalError> {
        let Some(durable) = self.durable.get(self.cursor) else {
            self.snapshots_taken += usize::from(matches!(record, BoardRecord::Snapshot(_)));
            return self.writer.append_board(record);
        };
        if !record.matches(durable) {
            let mut derived = String::new();
            record.encode_into(&mut derived);
            return Err(self.diverged(derived));
        }
        self.cursor += 1;
        Ok(())
    }

    /// The error for a derived record, `derived` encoded, that is not
    /// the durable one at the cursor.
    fn diverged(&self, derived: String) -> JournalError {
        JournalError::Diverged {
            record: self.cursor as u64,
            detail: format!(
                "re-simulation derived {derived} but the durable journal holds {} — the \
                 campaign inputs (seed, manifest, durations, or policy) changed since the \
                 journal was written",
                self.durable[self.cursor].encode()
            ),
        }
    }

    /// The driver observer: turns each epoch event into the derived
    /// record stream and steps through it.
    pub(crate) fn observe(
        &mut self,
        board: &StatusBoard,
        event: &EpochEvent,
    ) -> Result<(), SavannaError> {
        match event {
            EpochEvent::Setup => {
                self.prev_board = board.clone();
                self.step_board(BoardRecord::Snapshot(board))?;
            }
            EpochEvent::Allocation {
                index,
                now_us,
                completed,
                timed_out,
                touched,
            } => {
                let mut records = diff_board_runs(&self.prev_board, board, touched.iter().copied());
                // Advance the shadow board by replaying the diff instead
                // of cloning the full board every epoch: diff ∘ apply
                // reconstructs the new board exactly (the same invariant
                // recovery replay depends on), and both the diff and its
                // replay are sized by what the epoch touched, not by
                // campaign size.
                for record in &records {
                    record.apply(&mut self.prev_board);
                }
                debug_assert_eq!(
                    &self.prev_board, board,
                    "diff_boards/apply drifted from the live board"
                );
                records.push(JournalRecord::Epoch {
                    index: *index,
                    now_us: *now_us,
                    completed: *completed,
                    timed_out: *timed_out,
                });
                for record in records {
                    self.step(record)?;
                }
                self.epoch_count += 1;
                if self.snapshot_every > 0
                    && self.epoch_count.is_multiple_of(self.snapshot_every as u64)
                {
                    self.step_board(BoardRecord::Snapshot(board))?;
                }
            }
            EpochEvent::Complete => self.step(JournalRecord::Complete)?,
        }
        Ok(())
    }

    /// Appends the completion marker (sharded campaigns only — serial
    /// loops emit it through [`EpochEvent::Complete`]).
    pub(crate) fn complete(&mut self) -> Result<(), JournalError> {
        self.step(JournalRecord::Complete)
    }

    /// Syncs the log and closes the session, emitting recovery telemetry
    /// (when anything was recovered) and returning the accounting.
    pub(crate) fn finish(mut self, recovery_tel: &Telemetry) -> Result<JournalStats, JournalError> {
        self.writer.finish()?;
        let stats = JournalStats {
            recovered_records: self.recovered_records,
            appended_records: self.writer.records_appended(),
            snapshots_taken: self.snapshots_taken,
            torn_bytes: self.torn_bytes,
            replayed_epochs: self.replayed_epochs,
            bytes: self.writer.len(),
        };
        if stats.recovered_records > 0 {
            record_recovery(recovery_tel, &stats, self.replayed_until_us);
        }
        Ok(stats)
    }
}

/// Records recovery accounting on a dedicated telemetry handle — its own
/// "recovery" track and `journal_*` counters — so campaign metrics stay
/// byte-identical between interrupted-then-recovered and uninterrupted
/// executions.
fn record_recovery(tel: &Telemetry, stats: &JournalStats, replayed_until_us: u64) {
    if !tel.is_enabled() {
        return;
    }
    tel.name_track(0, "recovery");
    tel.span(SpanEvent {
        category: "recovery",
        name: "journal-replay".to_string(),
        track: 0,
        start_us: 0,
        dur_us: replayed_until_us,
        args: Vec::new(),
    });
    tel.count("journal_recovered_records", stats.recovered_records as f64);
    tel.count("journal_replayed_epochs", stats.replayed_epochs as f64);
    tel.count("journal_torn_bytes", stats.torn_bytes as f64);
    tel.count("journal_appended_records", stats.appended_records as f64);
}

/// Whether a fault plan injects anything — the `faults_enabled` input to
/// the `FW207` projection (mirrors
/// [`ShardPlan::schedule_plan_resilient`](crate::ShardPlan)).
pub(crate) fn faults_enabled(faults: &FaultPlan) -> bool {
    faults.run_faults.failure_probability > 0.0
        || faults.node_mttf.is_some()
        || faults.stalls.is_some()
}

/// Removes a campaign's journal files (main log plus any shard sub-logs)
/// — the "start over" escape hatch when a resume must *not* validate
/// against old history. Missing files are fine; other I/O errors are not.
pub fn discard_journal(path: &Path) -> Result<(), JournalError> {
    let mut targets = vec![path.to_path_buf()];
    if let (Some(dir), Some(name)) = (path.parent(), path.file_name().and_then(|n| n.to_str())) {
        let prefix = format!("{name}.shard");
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                if let Some(entry_name) = entry.file_name().to_str() {
                    if entry_name.starts_with(&prefix) {
                        targets.push(entry.path());
                    }
                }
            }
        }
    }
    for target in targets {
        match std::fs::remove_file(&target) {
            Ok(()) => {}
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => {}
            Err(err) => return Err(JournalError::Io(err)),
        }
    }
    Ok(())
}
