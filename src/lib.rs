//! # fair-workflows
//!
//! A Rust reproduction of *"Reusability First: Toward FAIR Workflows"*
//! (Wolf, Logan, Mehta, et al., IEEE CLUSTER 2021).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`fair_core`] — the six gauge properties, metadata catalog, assessment,
//!   and technical-debt accounting (the paper's primary contribution).
//! * [`fair_lint`] — static analysis over workflows, campaigns, checkpoint
//!   plans and gauge profiles, with a pre-execution gate in `savanna`.
//! * [`skel`] — model-driven code generation.
//! * [`cheetah`] — campaign composition (sweeps, sweep groups, manifests).
//! * [`savanna`] — campaign execution (pilot manager, executors).
//! * [`hpcsim`] — allocation-stepped HPC cluster simulator substrate.
//! * [`checkpoint`] — checkpoint-restart policies + Gray-Scott mini-app.
//! * [`dataflow`] — pub/sub virtual data queues with runtime policies.
//! * [`iorf`] — iterative random forests and iRF-LOOP.
//! * [`tabular`] — tables, TSV, two-phase paste, GWAS-lite.
//! * [`exec`] — work-stealing thread pool.
//! * [`telemetry`] — spans/counters with Chrome-trace and flat-metrics
//!   JSON exports (see DESIGN.md "Observability").
//! * [`provenance`] — the campaign provenance DAG (`fair-provenance/1`)
//!   behind `savanna`'s memoized drivers (see DESIGN.md §6g).
//!
//! The facade also owns [`bridge`]: conversions between the tabular and
//! iorf data models plus published result tables.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! figure-by-figure reproduction record.

pub mod bridge;

pub use checkpoint;
pub use cheetah;
pub use dataflow;
pub use exec;
pub use fair_core;
pub use fair_lint;
pub use hpcsim;
pub use iorf;
pub use provenance;
pub use savanna;
pub use skel;
pub use tabular;
pub use telemetry;
