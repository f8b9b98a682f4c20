//! Multi-stage pipeline composition.
//!
//! Fig. 5's subgraph — collect → schedule → forward — composes: a queue's
//! output can feed another scheduler ("forwarded further along paths in
//! the workflow graph"). [`Pipeline`] wires [`crate::scheduler`] stages in
//! series with forwarding threads, so multi-hop workflows (instrument →
//! triage → analysis fan-out) run on the same generated communication
//! substrate with per-stage policies, each still steerable at runtime.

use std::thread::JoinHandle;

use crate::message::DataItem;
use crate::policy::SelectionPolicy;
use crate::scheduler::{self, SchedulerHandle, SchedulerStats};

/// One stage: a named queue with its initial policy.
pub struct StageSpec {
    /// Stage name (also its queue name).
    pub name: String,
    /// Initial policy for the stage's queue.
    pub policy: Box<dyn SelectionPolicy>,
}

impl StageSpec {
    /// Creates a stage spec.
    pub fn new(name: impl Into<String>, policy: Box<dyn SelectionPolicy>) -> Self {
        Self {
            name: name.into(),
            policy,
        }
    }
}

/// A running multi-stage pipeline.
///
/// Data sent to [`Pipeline::send`] flows through every stage in order;
/// each stage's queue applies its policy and the survivors are forwarded
/// to the next stage. Subscribe to any stage to tap its output.
pub struct Pipeline {
    stages: Vec<(String, SchedulerHandle)>,
    forwarders: Vec<JoinHandle<u64>>,
}

impl Pipeline {
    /// Builds and starts a pipeline from stage specs (at least one).
    pub fn start(specs: Vec<StageSpec>) -> Self {
        assert!(!specs.is_empty(), "a pipeline needs at least one stage");
        let mut stages: Vec<(String, SchedulerHandle)> = Vec::with_capacity(specs.len());
        for spec in specs {
            let handle = scheduler::spawn();
            handle.install(&spec.name, spec.policy);
            stages.push((spec.name, handle));
        }
        // forwarding threads: stage k's queue output → stage k+1's input
        let mut forwarders = Vec::new();
        for k in 0..stages.len() - 1 {
            let rx = stages[k].1.subscribe(&stages[k].0);
            let tx = stages[k + 1].1.data_sender();
            let name = format!("forward-{}-to-{}", stages[k].0, stages[k + 1].0);
            forwarders.push(
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || {
                        let mut forwarded = 0u64;
                        for item in rx {
                            tx.send(item);
                            forwarded += 1;
                        }
                        forwarded
                    })
                    .expect("failed to spawn forwarder"),
            );
        }
        Self { stages, forwarders }
    }

    /// Sends an item into the first stage.
    pub fn send(&self, item: DataItem) {
        self.stages[0].1.send(item);
    }

    /// Subscribes to a stage's output by name.
    ///
    /// # Panics
    /// If the stage does not exist.
    pub fn subscribe(&self, stage: &str) -> std::sync::mpsc::Receiver<DataItem> {
        let (_, handle) = self
            .stages
            .iter()
            .find(|(name, _)| name == stage)
            .unwrap_or_else(|| panic!("no stage named {stage:?}"));
        handle.subscribe(stage)
    }

    /// Handle to a stage for runtime steering (install/punctuate/…).
    ///
    /// # Panics
    /// If the stage does not exist.
    pub fn stage(&self, stage: &str) -> &SchedulerHandle {
        &self
            .stages
            .iter()
            .find(|(name, _)| name == stage)
            .unwrap_or_else(|| panic!("no stage named {stage:?}"))
            .1
    }

    /// Shuts the pipeline down front-to-back, draining each stage before
    /// the next, and returns per-stage statistics in order.
    pub fn shutdown(self) -> Vec<(String, SchedulerStats)> {
        let mut stats = Vec::with_capacity(self.stages.len());
        let mut forwarders = self.forwarders.into_iter();
        for (name, handle) in self.stages {
            let s = handle.shutdown(); // drains; drops the stage's senders
            if let Some(f) = forwarders.next() {
                // the forwarder's rx disconnects once the stage is gone
                let _ = f.join();
            }
            stats.push((name, s));
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{EveryN, ForwardAll, WindowCount};

    fn item(seq: u64) -> DataItem {
        DataItem::text(seq, "ins", "frame", "x")
    }

    #[test]
    fn two_stage_pipeline_composes_policies() {
        // stage 1 decimates by 10, stage 2 forwards: end-to-end = 1/10th
        let pipe = Pipeline::start(vec![
            StageSpec::new("triage", Box::new(EveryN::new(10))),
            StageSpec::new("analysis", Box::new(ForwardAll)),
        ]);
        let tap = pipe.subscribe("analysis");
        for s in 1..=1000 {
            pipe.send(item(s));
        }
        let stats = pipe.shutdown();
        let delivered: Vec<u64> = tap.try_iter().map(|i| i.seq).collect();
        assert_eq!(delivered.len(), 100);
        assert!(delivered.iter().all(|s| s % 10 == 0));
        assert_eq!(stats[0].1.received, 1000);
        assert_eq!(stats[1].1.received, 100, "stage 2 sees only survivors");
    }

    #[test]
    fn three_stage_decimation_multiplies() {
        let pipe = Pipeline::start(vec![
            StageSpec::new("a", Box::new(EveryN::new(5))),
            StageSpec::new("b", Box::new(EveryN::new(4))),
            StageSpec::new("c", Box::new(ForwardAll)),
        ]);
        let tap = pipe.subscribe("c");
        for s in 1..=1000 {
            pipe.send(item(s));
        }
        pipe.shutdown();
        assert_eq!(tap.try_iter().count(), 1000 / 5 / 4);
    }

    #[test]
    fn mid_pipeline_taps_see_stage_output() {
        let pipe = Pipeline::start(vec![
            StageSpec::new("first", Box::new(EveryN::new(2))),
            StageSpec::new("second", Box::new(EveryN::new(2))),
        ]);
        let mid = pipe.subscribe("first");
        let end = pipe.subscribe("second");
        for s in 1..=100 {
            pipe.send(item(s));
        }
        pipe.shutdown();
        assert_eq!(mid.try_iter().count(), 50);
        assert_eq!(end.try_iter().count(), 25);
    }

    #[test]
    fn runtime_steering_of_an_inner_stage() {
        let pipe = Pipeline::start(vec![
            StageSpec::new("front", Box::new(ForwardAll)),
            StageSpec::new("back", Box::new(ForwardAll)),
        ]);
        let tap = pipe.subscribe("back");
        for s in 0..10 {
            pipe.send(item(s));
        }
        // swap the back stage to a window policy mid-stream. The install
        // goes directly onto `back`'s ordered stream, so it races items
        // still in flight through the forwarder — let the forwarder drain
        // before swapping to make the split deterministic.
        std::thread::sleep(std::time::Duration::from_millis(50));
        pipe.stage("back")
            .install("back", Box::new(WindowCount::new(2)));
        for s in 10..20 {
            pipe.send(item(s));
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
        pipe.stage("back").punctuate(Some("back"));
        pipe.shutdown();
        let got: Vec<u64> = tap.try_iter().map(|i| i.seq).collect();
        // first 10 forwarded live; after the swap, only the final window of 2
        assert!(got.len() >= 12, "got {got:?}");
        assert_eq!(&got[got.len() - 2..], &[18, 19]);
    }

    #[test]
    fn single_stage_pipeline_is_a_scheduler() {
        let pipe = Pipeline::start(vec![StageSpec::new("only", Box::new(ForwardAll))]);
        let tap = pipe.subscribe("only");
        pipe.send(item(1));
        let stats = pipe.shutdown();
        assert_eq!(stats.len(), 1);
        assert_eq!(tap.try_iter().count(), 1);
    }

    #[test]
    #[should_panic(expected = "no stage named")]
    fn unknown_stage_panics() {
        let pipe = Pipeline::start(vec![StageSpec::new("a", Box::new(ForwardAll))]);
        pipe.subscribe("nope");
    }
}
