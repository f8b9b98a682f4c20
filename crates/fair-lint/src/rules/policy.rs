//! Resilience-policy rules (`FW201`–`FW203`, `FW207`–`FW208`):
//! failure-model sanity checks against the Young/Daly analysis in the
//! `checkpoint` crate, retry-budget checks against the declared fault
//! environment, durability-configuration checks for journaled
//! campaigns, and memoization-safety checks for cached campaigns.

use checkpoint::daly::young_daly_interval;
use hpcsim::time::SimDuration;

use crate::config::LintConfig;
use crate::diag::{DiagnosticSet, Location, Severity};

/// `FW201` — a checkpoint plan that cannot make progress under its own
/// failure model.
pub const INFEASIBLE_CHECKPOINTING: &str = "FW201";
/// `FW202` — a feasible interval far from the Young/Daly optimum.
pub const SUBOPTIMAL_INTERVAL: &str = "FW202";
/// `FW203` — a fault environment the resilience policy cannot survive.
pub const NO_RETRY_UNDER_FAULTS: &str = "FW203";
/// `FW207` — a durability configuration that defeats its own purpose.
pub const DURABILITY_MISCONFIGURATION: &str = "FW207";
/// `FW208` — a campaign configuration that makes cache reuse unsafe.
pub const MEMOIZATION_UNSAFE: &str = "FW208";

/// A declared checkpoint plan: how often checkpoints are taken, what one
/// costs, and the failure rate it must survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPlan {
    /// Compute time between checkpoints.
    pub interval: SimDuration,
    /// Wall-clock cost of writing one checkpoint.
    pub dump_cost: SimDuration,
    /// Mean time to failure of the platform.
    pub mttf: SimDuration,
}

/// Runs the checkpoint-policy rules on one plan.
pub fn lint_checkpoint_plan(plan: &CheckpointPlan, config: &LintConfig) -> DiagnosticSet {
    let mut set = DiagnosticSet::new();
    if plan.interval == SimDuration::ZERO
        || plan.dump_cost == SimDuration::ZERO
        || plan.mttf == SimDuration::ZERO
    {
        set.report(
            config,
            INFEASIBLE_CHECKPOINTING,
            Severity::Error,
            "checkpoint plan has a zero interval, dump cost, or MTTF".to_string(),
            Location::none(),
        );
        return set; // the remaining analysis divides by these
    }
    let mut feasible = true;
    if plan.interval + plan.dump_cost >= plan.mttf {
        feasible = false;
        set.report(
            config,
            INFEASIBLE_CHECKPOINTING,
            Severity::Error,
            format!(
                "a checkpoint segment ({} compute + {} dump) is at least the MTTF ({}) — the run expects to fail before it can save progress",
                plan.interval, plan.dump_cost, plan.mttf
            ),
            Location::none(),
        );
    }
    if plan.dump_cost >= plan.interval {
        feasible = false;
        set.report(
            config,
            INFEASIBLE_CHECKPOINTING,
            Severity::Error,
            format!(
                "dump cost ({}) is at least the checkpoint interval ({}) — the run spends more time saving than computing",
                plan.dump_cost, plan.interval
            ),
            Location::none(),
        );
    }
    if feasible {
        let daly = young_daly_interval(plan.mttf, plan.dump_cost);
        let ratio = plan.interval.as_secs_f64() / daly.as_secs_f64();
        let tol = config.daly_tolerance;
        if ratio > tol || ratio < 1.0 / tol {
            let direction = if ratio > tol { "sparser" } else { "denser" };
            set.report(
                config,
                SUBOPTIMAL_INTERVAL,
                Severity::Warn,
                format!(
                    "checkpoint interval {} is {ratio:.1}x the Young/Daly optimum {daly} — more than {tol}x {direction} than the failure model justifies",
                    plan.interval
                ),
                Location::none(),
            );
        }
    }
    set
}

/// The resilience knobs a campaign declares, as far as the linter needs
/// them: the retry budget and the fault environment it is expected to
/// survive. Execution engines (e.g. `savanna`) project their richer
/// policy types down to this.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResiliencePlan {
    /// Extra attempts allowed after failures (`0` = a single attempt).
    pub retry_budget: u32,
    /// Per-attempt run-failure probability in `[0, 1]`.
    pub run_failure_probability: f64,
    /// Whether node crashes are injected (a per-node MTTF is declared).
    pub node_faults: bool,
}

/// Runs the resilience-policy rules (`FW203`) on one plan.
///
/// A campaign that injects faults but never retries is statically known
/// to lose runs: the first failure of any run is permanent. Catching the
/// mismatch before launch is exactly the pre-flight story of the
/// checkpoint rules, applied to the retry budget.
pub fn lint_resilience_plan(plan: &ResiliencePlan, config: &LintConfig) -> DiagnosticSet {
    let mut set = DiagnosticSet::new();
    let faulty = plan.run_failure_probability > 0.0 || plan.node_faults;
    if plan.retry_budget == 0 && faulty {
        let source = match (plan.run_failure_probability > 0.0, plan.node_faults) {
            (true, true) => format!(
                "run failures at p = {} and node crashes",
                plan.run_failure_probability
            ),
            (true, false) => format!("run failures at p = {}", plan.run_failure_probability),
            _ => "node crashes".to_string(),
        };
        set.report(
            config,
            NO_RETRY_UNDER_FAULTS,
            Severity::Error,
            format!(
                "resilience policy has a zero retry budget while the fault model injects {source} — the first failure of any run is permanent"
            ),
            Location::none(),
        );
    }
    if plan.run_failure_probability >= 1.0 {
        set.report(
            config,
            NO_RETRY_UNDER_FAULTS,
            Severity::Error,
            format!(
                "every attempt fails (p = {}): no retry budget can complete this campaign",
                plan.run_failure_probability
            ),
            Location::none(),
        );
    }
    set
}

/// The durability knobs a campaign declares, as far as the linter needs
/// them: whether the StatusBoard journal is on, whether faults are
/// injected, the snapshot-compaction cadence, and the journal paths each
/// shard appends to. Execution engines (e.g. `savanna`'s `*_journaled`
/// drivers) project their `JournalSpec` down to this.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DurabilityPlan {
    /// Whether StatusBoard mutations are journaled to disk.
    pub journaling_enabled: bool,
    /// Whether the campaign injects faults (crashes, hangs, run errors).
    pub faults_enabled: bool,
    /// Epochs between snapshot records (`0` and `usize::MAX` are both
    /// misconfigurations — see [`lint_durability_plan`]).
    pub snapshot_every: usize,
    /// Journal path per shard (one entry for a serial campaign).
    pub journal_paths: Vec<String>,
}

/// Runs the durability rules (`FW207`) on one plan.
///
/// Three ways a durability setup defeats itself, all statically visible:
/// journaling off while faults are on (the campaign most likely to crash
/// is the one with no durable state to recover), a snapshot interval of
/// `0` (every epoch is a full snapshot — the "log" is pure overhead) or
/// `usize::MAX` (compaction never happens and recovery replays the
/// entire mutation history), and two shards configured to append to the
/// same journal path (interleaved frames corrupt both logs).
pub fn lint_durability_plan(plan: &DurabilityPlan, config: &LintConfig) -> DiagnosticSet {
    let mut set = DiagnosticSet::new();
    if !plan.journaling_enabled && plan.faults_enabled {
        set.report(
            config,
            DURABILITY_MISCONFIGURATION,
            Severity::Error,
            "fault injection is enabled but journaling is disabled — the campaign most \
             likely to crash has no durable state to recover"
                .to_string(),
            Location::none(),
        );
    }
    if plan.journaling_enabled {
        if plan.snapshot_every == 0 {
            set.report(
                config,
                DURABILITY_MISCONFIGURATION,
                Severity::Error,
                "snapshot interval is 0 — every epoch would be a full snapshot, which is \
                 pure overhead with no incremental log"
                    .to_string(),
                Location::none(),
            );
        }
        if plan.snapshot_every == usize::MAX {
            set.report(
                config,
                DURABILITY_MISCONFIGURATION,
                Severity::Error,
                "snapshot interval is usize::MAX — compaction never happens and recovery \
                 replays the campaign's entire mutation history"
                    .to_string(),
                Location::none(),
            );
        }
    }
    let mut seen = std::collections::BTreeSet::new();
    for path in &plan.journal_paths {
        if !seen.insert(path) {
            set.report(
                config,
                DURABILITY_MISCONFIGURATION,
                Severity::Error,
                format!(
                    "journal path {path:?} is assigned to more than one shard — \
                     interleaved appends would corrupt both logs"
                ),
                Location::none(),
            );
        }
    }
    set
}

/// The memoization knobs a campaign declares, as far as the linter needs
/// them: whether a content-addressed store is configured, whether seeds
/// and the environment are pinned into the cache key, and which inputs
/// are sampled at execution time. Execution engines (e.g. `savanna`'s
/// `*_memo` drivers) project their `MemoConfig` down to this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoPlan {
    /// Whether a content-addressed store path is configured.
    pub store_configured: bool,
    /// Whether every run's seed derivation is part of the cache key.
    pub seeds_pinned: bool,
    /// Whether environment pins (toolkit version, schema ids) are part
    /// of the cache key.
    pub environment_pinned: bool,
    /// Whether allocation queue waits are sampled at execution time (a
    /// nonzero mean queue wait).
    pub rand_queue_draws: bool,
    /// Whether node-crash or stall streams are sampled at execution time
    /// (a node MTTF or stall model is declared).
    pub rand_fault_streams: bool,
    /// Whether the caller explicitly acknowledged that sampled inputs
    /// make cached results valid only while the sampler code is
    /// unchanged: the cache key pins the toolkit version, not the
    /// samplers.
    pub nondeterminism_acknowledged: bool,
}

/// Runs the memoization-safety rules (`FW208`) on one plan.
///
/// A cached result is only as trustworthy as the identity of the inputs
/// that produced it. Three ways a memoized campaign silently serves
/// wrong answers, all statically visible: an unpinned seed derivation
/// (two campaigns with different seeds would share cache entries), an
/// unpinned environment (a key survives schema or toolkit changes that
/// alter the output), and unacknowledged sampled inputs (queue waits,
/// node crashes and stall windows come from the seeded generator
/// `hpcsim::seed::SplitMix64`, whose stream changes only with the
/// repository's code — but the key pins the toolkit version, not that
/// code, so a persistent cache can outlive a change to the draws).
pub fn lint_memo_plan(plan: &MemoPlan, config: &LintConfig) -> DiagnosticSet {
    let mut set = DiagnosticSet::new();
    if !plan.store_configured {
        set.report(
            config,
            MEMOIZATION_UNSAFE,
            Severity::Error,
            "memoization is requested but no content-addressed store is configured".to_string(),
            Location::none(),
        );
    }
    if !plan.seeds_pinned {
        set.report(
            config,
            MEMOIZATION_UNSAFE,
            Severity::Error,
            "run seed derivations are not part of the cache key — campaigns with \
             different seeds would share cache entries"
                .to_string(),
            Location::none(),
        );
    }
    if !plan.environment_pinned {
        set.report(
            config,
            MEMOIZATION_UNSAFE,
            Severity::Error,
            "environment pins (toolkit version, schema ids) are not part of the cache \
             key — a key would survive changes that alter the output"
                .to_string(),
            Location::none(),
        );
    }
    if (plan.rand_queue_draws || plan.rand_fault_streams) && !plan.nondeterminism_acknowledged {
        let source = match (plan.rand_queue_draws, plan.rand_fault_streams) {
            (true, true) => "queue-wait and fault-stream draws",
            (true, false) => "queue-wait draws",
            _ => "fault-stream draws",
        };
        set.report(
            config,
            MEMOIZATION_UNSAFE,
            Severity::Error,
            format!(
                "campaign inputs include sampled {source}, which the cache key does \
                 not pin: it names the toolkit version, not the sampler code — a \
                 persistent cache can outlive a change to the draws; acknowledge \
                 explicitly to memoize anyway"
            ),
            Location::none(),
        );
    }
    set
}
