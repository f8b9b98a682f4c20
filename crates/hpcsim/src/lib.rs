//! Deterministic, allocation-stepped HPC cluster simulator.
//!
//! The paper's experiments ran on Oak Ridge machines (Summit: 128 nodes /
//! 4096 MPI ranks writing to a shared parallel filesystem; a 20-node
//! institutional allocation for iRF-LOOP). This crate is the substitute
//! substrate: it models exactly the aspects of those machines that the
//! paper's claims depend on —
//!
//! * an **integer virtual clock** ([`time`]) so campaign-scale runs
//!   (2-hour × 20-node allocations) execute in microseconds,
//! * **nodes and allocations** ([`cluster`], [`batch`]): a campaign
//!   advances one granted allocation at a time, resubmitting after a
//!   stochastic queue wait, so schedulers can be compared on idle-node
//!   accounting,
//! * a **shared-bandwidth filesystem** with stochastic background load
//!   ([`fs`]) so overhead-driven checkpoint policies see the same
//!   fluctuating I/O cost signal they saw on GPFS,
//! * **failure injection** ([`failure`]) for checkpoint/restart stories,
//! * **telemetry bridges** ([`telemetry`]) that put jobs, stalls, and
//!   crashes on the campaign trace timeline,
//! * **distribution samplers** ([`dist`]) for heavy-tailed task runtimes,
//! * **time-series traces** ([`trace`]) for utilization figures.
//!
//! Everything is seeded and deterministic: the same seed reproduces the
//! same timeline bit-for-bit.

#![deny(missing_docs)]

pub mod batch;
pub mod cluster;
pub mod dist;
pub mod failure;
pub mod fs;
pub mod machine;
pub mod seed;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use batch::{Allocation, AllocationSeries, BatchJob, BatchQueue};
pub use cluster::{ClusterSpec, NodeId};
pub use failure::{CrashPlan, FailureModel, NodeCrash, NodeFaultInjector};
pub use fs::{FsLoad, SharedFs, StallSchedule, StallWindow};
pub use machine::{simulate_queue, JobOutcome, JobRequest, QueuePolicy};
pub use seed::SeedStream;
pub use time::{SimDuration, SimTime};
pub use trace::{TimeSeries, UtilizationTrace};
