//! Checkpoint decision policies.
//!
//! Policies are pure deciders: given the run's observed state at the end
//! of a timestep, should a checkpoint be written now? Exposing "the right
//! set of parameters" (wall-clock gap, I/O overhead budget) is exactly the
//! reusability step §V-B argues for: the same component re-tunes itself
//! on a new machine instead of shipping a hard-coded `every N steps`.

use hpcsim::time::{SimDuration, SimTime};

/// Observed run state offered to a policy after each timestep.
#[derive(Debug, Clone, Copy)]
pub struct StepContext {
    /// Timestep index just completed (0-based).
    pub step: u32,
    /// Virtual time now.
    pub now: SimTime,
    /// Total compute time accumulated so far.
    pub compute_time: SimDuration,
    /// Total checkpoint-I/O time accumulated so far.
    pub io_time: SimDuration,
    /// Steps since the last checkpoint (`step + 1` if none yet).
    pub steps_since_checkpoint: u32,
    /// Virtual time of the last checkpoint (run start if none yet).
    pub last_checkpoint_at: SimTime,
    /// Cost of a checkpoint write that starts now, at the filesystem's
    /// current bandwidth — what an I/O middleware probe would measure.
    pub next_write: SimDuration,
}

impl StepContext {
    /// I/O overhead fraction once a write of `next_write` starting now
    /// completes: (io + next_write) / (compute + io + next_write). With
    /// `next_write` zero, the overhead observed so far; zero before any
    /// I/O happens.
    pub fn observed_overhead(&self) -> f64 {
        let io = self.io_time.as_secs_f64() + self.next_write.as_secs_f64();
        let total = self.compute_time.as_secs_f64() + io;
        if total == 0.0 {
            0.0
        } else {
            io / total
        }
    }
}

/// Progress that survives a kill `elapsed` into a run checkpointing every
/// `interval`: work up to the last completed checkpoint boundary. This is
/// the restart side of the policy contract — a scheduler that kills a run
/// (node crash, walltime, hang timeout) resumes it from this point rather
/// than from zero.
pub fn checkpointed_progress(elapsed: SimDuration, interval: SimDuration) -> SimDuration {
    assert!(interval > SimDuration::ZERO, "interval must be positive");
    SimDuration((elapsed.0 / interval.0) * interval.0)
}

/// A checkpoint decision policy.
pub trait CheckpointPolicy: Send {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Decides whether to checkpoint at the end of this step.
    fn should_checkpoint(&mut self, ctx: &StepContext) -> bool;
}

/// The traditional baseline: checkpoint every `every` timesteps.
#[derive(Debug, Clone, Copy)]
pub struct FixedInterval {
    /// Steps between checkpoints.
    pub every: u32,
}

impl FixedInterval {
    /// Creates a fixed-interval policy.
    pub fn new(every: u32) -> Self {
        assert!(every > 0, "interval must be positive");
        Self { every }
    }
}

impl CheckpointPolicy for FixedInterval {
    fn name(&self) -> &'static str {
        "fixed-interval"
    }
    fn should_checkpoint(&mut self, ctx: &StepContext) -> bool {
        (ctx.step + 1).is_multiple_of(self.every)
    }
}

/// Checkpoint when at least `gap` of wall-clock has passed since the last
/// checkpoint — parameter 1 of §V-B ("wall clock time gap between
/// checkpoints").
#[derive(Debug, Clone, Copy)]
pub struct WallClockGap {
    /// Minimum time between checkpoints.
    pub gap: SimDuration,
}

impl WallClockGap {
    /// Creates a wall-clock-gap policy.
    pub fn new(gap: SimDuration) -> Self {
        assert!(gap > SimDuration::ZERO, "gap must be positive");
        Self { gap }
    }
}

impl CheckpointPolicy for WallClockGap {
    fn name(&self) -> &'static str {
        "wall-clock-gap"
    }
    fn should_checkpoint(&mut self, ctx: &StepContext) -> bool {
        ctx.now.since(ctx.last_checkpoint_at) >= self.gap
    }
}

/// The paper's policy: checkpoint only while the I/O overhead, counting
/// the write about to start, stays within `max_overhead` (parameter 2 of
/// §V-B, used for Figs. 3–4). Counting the write before making it keeps
/// one slow write on a loaded filesystem from overshooting a small
/// budget, which would then starve it while a larger budget wrote on.
#[derive(Debug, Clone, Copy)]
pub struct OverheadBudget {
    /// Maximum allowed `io / (compute + io)` fraction, in `(0, 1)`.
    pub max_overhead: f64,
}

impl OverheadBudget {
    /// Creates an overhead-budget policy.
    pub fn new(max_overhead: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&max_overhead) && max_overhead > 0.0,
            "overhead budget must be in (0,1)"
        );
        Self { max_overhead }
    }
}

impl CheckpointPolicy for OverheadBudget {
    fn name(&self) -> &'static str {
        "overhead-budget"
    }
    fn should_checkpoint(&mut self, ctx: &StepContext) -> bool {
        ctx.observed_overhead() <= self.max_overhead
    }
}

/// Combinator adding §V-B's "further fine-tuning … to ensure a certain
/// minimum frequency of checkpointing": defer to the inner policy, but
/// force a checkpoint whenever `floor_steps` have passed without one.
pub struct MinFrequencyFloor<P> {
    inner: P,
    /// Force a checkpoint after this many steps without one.
    pub floor_steps: u32,
}

impl<P: CheckpointPolicy> MinFrequencyFloor<P> {
    /// Wraps `inner` with a step-count floor.
    pub fn new(inner: P, floor_steps: u32) -> Self {
        assert!(floor_steps > 0, "floor must be positive");
        Self { inner, floor_steps }
    }
}

impl<P: CheckpointPolicy> CheckpointPolicy for MinFrequencyFloor<P> {
    fn name(&self) -> &'static str {
        "min-frequency-floor"
    }
    fn should_checkpoint(&mut self, ctx: &StepContext) -> bool {
        if ctx.steps_since_checkpoint >= self.floor_steps {
            return true;
        }
        self.inner.should_checkpoint(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(step: u32, compute_s: u64, io_s: u64, since: u32) -> StepContext {
        StepContext {
            step,
            now: SimTime::from_secs(compute_s + io_s),
            compute_time: SimDuration::from_secs(compute_s),
            io_time: SimDuration::from_secs(io_s),
            steps_since_checkpoint: since,
            last_checkpoint_at: SimTime::ZERO,
            next_write: SimDuration::ZERO,
        }
    }

    #[test]
    fn fixed_interval_fires_periodically() {
        let mut p = FixedInterval::new(5);
        let fires: Vec<bool> = (0..10)
            .map(|s| p.should_checkpoint(&ctx(s, 100, 0, 0)))
            .collect();
        assert_eq!(
            fires,
            vec![false, false, false, false, true, false, false, false, false, true]
        );
    }

    #[test]
    fn overhead_budget_blocks_when_over() {
        let mut p = OverheadBudget::new(0.10);
        // 10 s of io over 100 s total = 10% → allowed (inclusive)
        assert!(p.should_checkpoint(&ctx(3, 90, 10, 1)));
        // 20 s io over 100 s total = 20% → blocked
        assert!(!p.should_checkpoint(&ctx(3, 80, 20, 1)));
        // no io yet → always allowed
        assert!(p.should_checkpoint(&ctx(0, 50, 0, 1)));
    }

    #[test]
    fn overhead_math() {
        assert_eq!(ctx(0, 0, 0, 0).observed_overhead(), 0.0);
        assert!((ctx(0, 80, 20, 0).observed_overhead() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn wall_clock_gap() {
        let mut p = WallClockGap::new(SimDuration::from_secs(60));
        let mut c = ctx(0, 30, 0, 1);
        assert!(!p.should_checkpoint(&c));
        c.now = SimTime::from_secs(61);
        assert!(p.should_checkpoint(&c));
    }

    #[test]
    fn floor_forces_when_inner_refuses() {
        // inner always refuses
        struct Never;
        impl CheckpointPolicy for Never {
            fn name(&self) -> &'static str {
                "never"
            }
            fn should_checkpoint(&mut self, _: &StepContext) -> bool {
                false
            }
        }
        let mut p = MinFrequencyFloor::new(Never, 4);
        assert!(!p.should_checkpoint(&ctx(0, 10, 0, 3)));
        assert!(p.should_checkpoint(&ctx(0, 10, 0, 4)));
    }

    #[test]
    #[should_panic(expected = "overhead budget")]
    fn degenerate_budget_rejected() {
        OverheadBudget::new(0.0);
    }

    #[test]
    fn checkpointed_progress_floors_to_boundary() {
        let i = SimDuration::from_mins(10);
        assert_eq!(
            checkpointed_progress(SimDuration::from_mins(25), i),
            SimDuration::from_mins(20)
        );
        assert_eq!(
            checkpointed_progress(SimDuration::from_mins(9), i),
            SimDuration::ZERO
        );
        assert_eq!(
            checkpointed_progress(SimDuration::from_mins(30), i),
            SimDuration::from_mins(30)
        );
    }
}
