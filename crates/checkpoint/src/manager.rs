//! The checkpoint manager: policy + filesystem + accounting.
//!
//! The manager sits where the paper's I/O middleware sits: the
//! application reports the end of each timestep; the manager prices a
//! write that would start now at the filesystem's current bandwidth,
//! consults the policy and, when it fires, writes the checkpoint through
//! the shared filesystem model, charging the observed write time to the
//! run's I/O account — which in turn feeds back into the next decision.
//! That feedback loop (slow filesystem → higher observed overhead → fewer
//! checkpoints) is the mechanism behind Figs. 3 and 4.

use hpcsim::fs::SharedFs;
use hpcsim::time::{SimDuration, SimTime};

use crate::policy::{CheckpointPolicy, StepContext};

/// What happened at the end of one step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Whether a checkpoint was written.
    pub wrote: bool,
    /// Time the write took ([`SimDuration::ZERO`] if none).
    pub io_time: SimDuration,
    /// Virtual time after the step (and any write).
    pub now: SimTime,
}

/// Cumulative accounting for a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunAccounting {
    /// Steps completed.
    pub steps: u32,
    /// Checkpoints written.
    pub checkpoints: u32,
    /// Total compute time.
    pub compute_time: SimDuration,
    /// Total checkpoint-I/O time.
    pub io_time: SimDuration,
}

impl RunAccounting {
    /// Final observed overhead fraction.
    pub fn overhead(&self) -> f64 {
        let total = self.compute_time.as_secs_f64() + self.io_time.as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.io_time.as_secs_f64() / total
        }
    }
}

/// Drives checkpoint decisions for one simulated application run.
pub struct CheckpointManager<P> {
    policy: P,
    /// Bytes written per checkpoint.
    pub checkpoint_bytes: f64,
    /// Concurrent writer groups (MPI ranks) for the collective write.
    pub writers: u32,
    now: SimTime,
    accounting: RunAccounting,
    steps_since_checkpoint: u32,
    last_checkpoint_at: SimTime,
}

impl<P: CheckpointPolicy> CheckpointManager<P> {
    /// Creates a manager starting at t = 0.
    pub fn new(policy: P, checkpoint_bytes: f64, writers: u32) -> Self {
        assert!(checkpoint_bytes > 0.0, "checkpoint size must be positive");
        Self {
            policy,
            checkpoint_bytes,
            writers,
            now: SimTime::ZERO,
            accounting: RunAccounting::default(),
            steps_since_checkpoint: 0,
            last_checkpoint_at: SimTime::ZERO,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Accounting so far.
    pub fn accounting(&self) -> RunAccounting {
        self.accounting
    }

    /// Reports one completed timestep of `compute` duration; the manager
    /// advances time, consults the policy, and possibly writes through
    /// `fs`.
    pub fn step(&mut self, compute: SimDuration, fs: &mut SharedFs) -> StepOutcome {
        self.now += compute;
        self.accounting.compute_time += compute;
        self.accounting.steps += 1;
        self.steps_since_checkpoint += 1;

        let ctx = StepContext {
            step: self.accounting.steps - 1,
            now: self.now,
            compute_time: self.accounting.compute_time,
            io_time: self.accounting.io_time,
            steps_since_checkpoint: self.steps_since_checkpoint,
            last_checkpoint_at: self.last_checkpoint_at,
            next_write: SimDuration::from_secs_f64(
                self.checkpoint_bytes / fs.effective_total_bandwidth(self.now),
            ),
        };
        if self.policy.should_checkpoint(&ctx) {
            let io = fs.write_duration(self.now, self.checkpoint_bytes, self.writers);
            self.now += io;
            self.accounting.io_time += io;
            self.accounting.checkpoints += 1;
            self.steps_since_checkpoint = 0;
            self.last_checkpoint_at = self.now;
            StepOutcome {
                wrote: true,
                io_time: io,
                now: self.now,
            }
        } else {
            StepOutcome {
                wrote: false,
                io_time: SimDuration::ZERO,
                now: self.now,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FixedInterval, OverheadBudget};
    use hpcsim::fs::FsLoad;

    fn quiet_fs(bw: f64) -> SharedFs {
        SharedFs::new(bw, FsLoad::quiet(), 1)
    }

    #[test]
    fn fixed_interval_writes_expected_count() {
        let mut mgr = CheckpointManager::new(FixedInterval::new(10), 1e9, 4);
        let mut fs = quiet_fs(1e9);
        for _ in 0..50 {
            mgr.step(SimDuration::from_secs(10), &mut fs);
        }
        let acc = mgr.accounting();
        assert_eq!(acc.steps, 50);
        assert_eq!(acc.checkpoints, 5);
        assert_eq!(acc.io_time, SimDuration::from_secs(5));
        assert_eq!(acc.compute_time, SimDuration::from_secs(500));
    }

    #[test]
    fn overhead_budget_self_limits() {
        // 1 GB checkpoints at 0.1 GB/s = 10 s each; 10 s compute steps.
        // Unlimited checkpointing would be 50% overhead; a 20% budget must
        // keep the final observed overhead near 20%.
        let mut mgr = CheckpointManager::new(OverheadBudget::new(0.20), 1e9, 1);
        let mut fs = quiet_fs(1e8);
        for _ in 0..200 {
            mgr.step(SimDuration::from_secs(10), &mut fs);
        }
        let acc = mgr.accounting();
        assert!(acc.checkpoints > 5, "got {}", acc.checkpoints);
        assert!(acc.checkpoints < 100, "got {}", acc.checkpoints);
        let overhead = acc.overhead();
        assert!(
            (0.10..=0.25).contains(&overhead),
            "final overhead {overhead} should hover near the 0.20 budget"
        );
    }

    #[test]
    fn bigger_budget_more_checkpoints() {
        let run = |budget: f64| {
            let mut mgr = CheckpointManager::new(OverheadBudget::new(budget), 1e9, 1);
            let mut fs = quiet_fs(1e8);
            for _ in 0..100 {
                mgr.step(SimDuration::from_secs(10), &mut fs);
            }
            mgr.accounting().checkpoints
        };
        let low = run(0.05);
        let high = run(0.30);
        assert!(high > low, "high-budget {high} vs low-budget {low}");
    }

    #[test]
    fn slow_filesystem_reduces_checkpoints() {
        let run = |bw: f64| {
            let mut mgr = CheckpointManager::new(OverheadBudget::new(0.10), 1e9, 1);
            let mut fs = quiet_fs(bw);
            for _ in 0..100 {
                mgr.step(SimDuration::from_secs(10), &mut fs);
            }
            mgr.accounting().checkpoints
        };
        let fast = run(1e9); // 1 s per checkpoint
        let slow = run(5e7); // 20 s per checkpoint
        assert!(fast > slow, "fast-fs {fast} vs slow-fs {slow}");
    }

    #[test]
    fn time_advances_through_compute_and_io() {
        let mut mgr = CheckpointManager::new(FixedInterval::new(1), 1e9, 1);
        let mut fs = quiet_fs(1e9);
        let out = mgr.step(SimDuration::from_secs(10), &mut fs);
        assert!(out.wrote);
        assert_eq!(out.io_time, SimDuration::from_secs(1));
        assert_eq!(mgr.now(), SimTime::from_secs(11));
    }
}
