//! **Savanna**: campaign execution (§IV).
//!
//! > "Savanna, the execution engine of the toolset, runs all experiments
//! > in a campaign on the target system. It translates a high-level
//! > campaign description into actual system and scheduler calls, and
//! > provides a simple pilot runner to run experiments on available
//! > resources. … It consists of a resource manager that dynamically
//! > schedules and tracks runs on the allocated nodes, thereby no longer
//! > requiring synchronizing runs and leading to better resource
//! > utilization."
//!
//! Two executor families live here:
//!
//! * **Simulated** ([`pilot`], [`setsync`], [`driver`]) — schedule runs
//!   with known (modeled) durations onto `hpcsim` allocations. The
//!   [`pilot::PilotScheduler`] is Savanna's dynamic resource manager; the
//!   [`setsync::SetSyncScheduler`] is the paper's *original* iRF-LOOP
//!   workflow (submit scripts in sets with a barrier at the end of each
//!   set) — the Fig. 6/7 baseline.
//! * **Local** ([`local`]) — run real Rust closures for each campaign run
//!   on the [`exec`] work-stealing pool, with the same status-board
//!   bookkeeping, so examples and integration tests exercise identical
//!   campaign mechanics end-to-end.
//!
//! One [`Driver`] builder runs every simulated campaign: it picks the
//! backend (the plain loop or the fault-tolerant one), the execution
//! (serial, sharded, or memoized) and the layers, runs the entry checks
//! once, and returns one [`CampaignReport`].
//!
//! The [`resilience`] module layers fault tolerance over the simulated
//! family: injected node crashes and filesystem stalls, retry budgets
//! with backoff, node quarantine, hang detection, and checkpoint-aware
//! restart, with full attempt-history reporting.
//!
//! The [`journal`] layer makes the simulated family *crash-safe*: a
//! journaled campaign persists every StatusBoard mutation to an
//! append-only, CRC-framed log with periodic snapshot compaction, and a
//! rerun after a crash recovers the log, validates it against a
//! deterministic re-simulation, and resumes appending — yielding output
//! byte-identical to a never-interrupted run.
//!
//! The [`memo`] layer makes campaigns *reusable at run granularity*: a
//! memoized campaign keys every run by a content hash of its full input
//! identity (parameters, seeds, policy, environment pins), splices cache
//! hits from a durable content-addressed store instead of executing
//! them, and assembles a `fair-provenance/1` DAG — with warm output
//! byte-identical to cold.

#![deny(missing_docs)]

pub mod compat;
pub mod driver;
pub mod error;
pub mod faults;
pub mod journal;
pub mod local;
pub mod memo;
pub mod pilot;
pub mod resilience;
pub mod setsync;
pub mod shard;
pub mod stream;
pub mod task;

pub use compat::{
    run_campaign_resilient_journaled_par_traced, run_campaign_resilient_memo_par,
    run_campaign_resilient_par_traced, run_campaign_sim_par, JournaledOutcome, MemoCampaignReport,
    ParCampaignReport, ParResilientReport,
};
pub use driver::{
    AllocationRecord, CampaignReport, CampaignSimReport, Driver, PreflightBlocked, PreflightGate,
    ShardReport,
};
pub use error::SavannaError;
pub use faults::{run_campaign_sim_with_faults, FailureHandling, FaultSpec, FaultyCampaignReport};
pub use journal::{discard_journal, JournalSpec, JournalStats};
pub use local::{LocalExecutor, LocalReport, LocalRunPolicy, ResilientLocalReport};
pub use memo::{
    memo_lint_plan, MemoConfig, MemoReport, MemoRunOutcome, MEMO_KEY_SCHEMA, MEMO_PAYLOAD_SCHEMA,
};
pub use pilot::{PilotScheduler, PlacementPolicy};
pub use resilience::{
    resilience_lint_plan, AttemptOutcome, AttemptRecord, FailureCause, FaultPlan, ResiliencePolicy,
    ResilienceReport, RestartStrategy, RunHistory, StallSpec,
};
pub use setsync::SetSyncScheduler;
pub use shard::{SeriesSpec, ShardPlan};
pub use stream::{attach_stream, fold_stream, StreamSpec};
pub use task::{AllocationScheduler, ScheduleOutcome, SimTask, TaskResult};
