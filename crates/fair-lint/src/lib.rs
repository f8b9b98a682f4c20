//! **fair-lint**: static analysis for FAIR workflows.
//!
//! The paper's thesis is that reusability comes from making workflow
//! knowledge *machine-actionable* (§I). This crate is that principle
//! applied to defect detection: once graphs, campaigns, checkpoint plans
//! and gauge profiles are explicit data, a whole class of mistakes can be
//! caught **before** any allocation is requested — the same way a
//! compiler rejects a program before it runs.
//!
//! Six rule layers, each with stable `FW` codes:
//!
//! | Codes | Layer | Checks |
//! |-------|-------|--------|
//! | `FW000` | [`config`] | configuration overrides naming unknown rule codes |
//! | `FW001`–`FW007` | [`rules::graph`] | cycles, dangling/duplicate edges, schema mismatches, unwired ports, isolated nodes, motif near-misses |
//! | `FW101`–`FW104` | [`rules::campaign`] | dead parameters, empty/explosive sweeps, oversubscribed resource envelopes, unmodeled runs |
//! | `FW201`–`FW203`, `FW207`–`FW208` | [`rules::policy`] | infeasible and suboptimal checkpoint plans (vs Young/Daly), zero-retry policies under injected faults, durability misconfiguration (journaling off under faults, degenerate snapshot intervals, shard journal-path collisions), memoization-unsafe campaigns (unpinned seeds/environment, unacknowledged sampled inputs) |
//! | `FW301`–`FW302` | [`rules::gauge`] | components below a declared minimum profile, catalog regressions |
//! | `FW401`–`FW408` | [`rules::dataflow`] | fixpoint reaching-definitions/liveness over ports: dead outputs, undefined inputs, write-write conflicts, unused sources, unobservable sweep axes, incomplete provenance, unpinned config |
//! | `FW501`–`FW506` | [`rules::schedule`] | shard-plan determinism: gaps/overlaps in run coverage, telemetry lane collisions, seed-stream collisions, merge-order sensitivity, retry starvation |
//!
//! Findings are [`diag::Diagnostic`]s — code, severity, message, and a
//! structured location — collected into a [`diag::DiagnosticSet`] that
//! renders as text or stable JSON. [`config::LintConfig`] allows,
//! escalates, or re-levels individual rules and carries the numeric
//! thresholds.
//!
//! [`preflight_campaign`] bundles all layers; `savanna`'s campaign
//! driver (`Driver::gate`) uses it as an opt-out launch gate, and the
//! `fair-lint` binary exposes the same pass as a CI-enforceable CLI over
//! JSON bundles (`--json`, `--deny`/`--allow`, exit code 1 on findings
//! at deny level).

pub mod config;
pub mod diag;
pub mod rules;

use std::collections::BTreeMap;

use cheetah::manifest::CampaignManifest;
use fair_core::catalog::Catalog;
use fair_core::component::ComponentDescriptor;
use fair_core::profile::GaugeProfile;
use fair_core::workflow::WorkflowGraph;
use hpcsim::cluster::ClusterSpec;
use hpcsim::time::SimDuration;

pub use config::{known_codes, LintConfig, RuleSetting, UNKNOWN_RULE_CODE};
pub use diag::{Diagnostic, DiagnosticSet, Location, Severity};
pub use rules::campaign::{lint_campaign_plan, lint_manifest};
pub use rules::dataflow::lint_dataflow;
pub use rules::gauge::{lint_catalog_regressions, lint_minimum_profile};
pub use rules::graph::lint_graph;
pub use rules::policy::{
    lint_checkpoint_plan, lint_durability_plan, lint_memo_plan, lint_resilience_plan,
    CheckpointPlan, DurabilityPlan, MemoPlan, ResiliencePlan,
};
pub use rules::schedule::{lint_schedule, SchedulePlan, ShardDriver};

/// Everything the linter may cross-check a campaign against. Each field
/// is optional; rules that need an absent field are skipped, so callers
/// provide exactly as much context as they have.
#[derive(Debug, Clone, Copy, Default)]
pub struct PreflightContext<'a> {
    /// The workflow graph the campaign drives (graph + gauge rules).
    pub graph: Option<&'a WorkflowGraph>,
    /// The application descriptor (dead-parameter checks).
    pub app: Option<&'a ComponentDescriptor>,
    /// Metadata catalog (regression checks).
    pub catalog: Option<&'a Catalog>,
    /// Minimum gauge profile every workflow component must satisfy.
    pub minimum_profile: Option<&'a GaugeProfile>,
    /// The target machine (resource-envelope checks).
    pub machine: Option<&'a ClusterSpec>,
    /// The checkpoint plan runs will use (Young/Daly checks).
    pub checkpoint: Option<CheckpointPlan>,
    /// The retry budget vs. the fault environment (FW203).
    pub resilience: Option<ResiliencePlan>,
    /// The sharded execution plan (schedule-determinism rules).
    pub schedule: Option<&'a SchedulePlan>,
    /// The durability setup: journaling, snapshot cadence, journal
    /// paths (FW207). A reference (like `schedule`) so the context stays
    /// `Copy`.
    pub durability: Option<&'a DurabilityPlan>,
    /// The memoization setup: store, key pinning, sampled inputs
    /// (FW208).
    pub memo: Option<MemoPlan>,
}

/// Runs every applicable rule layer over a compiled campaign manifest and
/// its context. The result is sorted into canonical order.
pub fn preflight_campaign(
    manifest: &CampaignManifest,
    durations: Option<&BTreeMap<String, SimDuration>>,
    ctx: &PreflightContext<'_>,
    config: &LintConfig,
) -> DiagnosticSet {
    let mut set = lint_manifest(manifest, durations, ctx.app, ctx.machine, config);
    if let Some(graph) = ctx.graph {
        set.extend(lint_graph(graph, config));
        set.extend(lint_dataflow(graph, Some(manifest), config));
        if let Some(minimum) = ctx.minimum_profile {
            set.extend(lint_minimum_profile(graph, minimum, config));
        }
    }
    if let Some(catalog) = ctx.catalog {
        set.extend(lint_catalog_regressions(catalog, config));
    }
    if let Some(plan) = &ctx.checkpoint {
        set.extend(lint_checkpoint_plan(plan, config));
    }
    if let Some(plan) = &ctx.resilience {
        set.extend(lint_resilience_plan(plan, config));
    }
    if let Some(plan) = ctx.schedule {
        set.extend(lint_schedule(plan, config));
    }
    if let Some(plan) = ctx.durability {
        set.extend(lint_durability_plan(plan, config));
    }
    if let Some(plan) = &ctx.memo {
        set.extend(lint_memo_plan(plan, config));
    }
    set.extend(config.lint_unknown_codes());
    set.sort();
    set
}
