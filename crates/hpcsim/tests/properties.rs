//! Property tests: time arithmetic, traces, allocation series.

use hpcsim::batch::{AllocationSeries, BatchJob};
use hpcsim::time::{SimDuration, SimTime};
use hpcsim::trace::TimeSeries;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn duration_arithmetic_consistent(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let da = SimDuration(a);
        let db = SimDuration(b);
        prop_assert_eq!((da + db).0, a + b);
        prop_assert_eq!(da.saturating_sub(db).0, a.saturating_sub(b));
        let t = SimTime(a) + db;
        prop_assert_eq!(t - SimTime(a), db);
    }

    #[test]
    fn from_secs_f64_roundtrip(secs in 0.0f64..1e6) {
        let d = SimDuration::from_secs_f64(secs);
        prop_assert!((d.as_secs_f64() - secs).abs() < 1e-6 + secs * 1e-9);
    }

    #[test]
    fn timeseries_integral_is_additive(
        points in proptest::collection::vec((0u64..10_000, -100.0f64..100.0), 1..30),
        split in 0u64..10_000,
    ) {
        let mut sorted = points.clone();
        sorted.sort_by_key(|&(t, _)| t);
        sorted.dedup_by_key(|&mut (t, _)| t);
        let mut ts = TimeSeries::new();
        for &(t, v) in &sorted {
            ts.record(SimTime(t), v);
        }
        let end = SimTime(20_000);
        let mid = SimTime(split.min(20_000));
        let whole = ts.integrate(SimTime(0), end);
        let parts = ts.integrate(SimTime(0), mid) + ts.integrate(mid, end);
        prop_assert!((whole - parts).abs() < 1e-6 * (1.0 + whole.abs()));
    }

    // Regression (PR 3): `integrate` and `resample` each had private
    // before-first-sample semantics; both now query through the single
    // documented helper `value_at_or_baseline`, so a Riemann sum over any
    // partition refining the breakpoints reproduces the integral exactly.
    #[test]
    fn timeseries_integral_agrees_with_resampled_riemann_sum(
        points in proptest::collection::vec((1u64..200, -100.0f64..100.0), 1..20),
    ) {
        let mut sorted = points.clone();
        sorted.sort_by_key(|&(t, _)| t);
        sorted.dedup_by_key(|&mut (t, _)| t);
        let mut ts = TimeSeries::new();
        for &(t, v) in &sorted {
            // grid-aligned breakpoints so a fine resample lands on them
            ts.record(SimTime(t * 100), v);
        }
        let start = SimTime(0);
        let end = SimTime(20_000);
        // one sample per grid cell: every step boundary is a sample point
        let n = 201usize;
        let samples = ts.resample(start, end, n);
        // each sample must agree with the documented helper …
        for &(t, v) in &samples {
            prop_assert_eq!(v, ts.value_at_or_baseline(t));
        }
        // … and the step-function sum over the sample partition must be
        // the integral (left-value × cell width, exact for step series)
        let riemann: f64 = samples
            .windows(2)
            .map(|w| w[0].1 * (w[1].0 - w[0].0).as_secs_f64())
            .sum();
        let integral = ts.integrate(start, end);
        prop_assert!(
            (riemann - integral).abs() < 1e-6 * (1.0 + integral.abs()),
            "riemann {riemann} vs integral {integral}"
        );
    }

    #[test]
    fn allocation_series_is_monotone_and_sized(
        nodes in 1u32..100,
        walltime_mins in 1u64..600,
        n in 1usize..12,
        seed in 0u64..1000,
    ) {
        let mut series = AllocationSeries::new(
            BatchJob::new(nodes, SimDuration::from_mins(walltime_mins)),
            SimDuration::from_mins(17),
            0.6,
            seed,
        );
        let mut prev_end = SimTime::ZERO;
        for k in 0..n {
            let a = series.next_allocation();
            prop_assert_eq!(a.index as usize, k);
            prop_assert_eq!(a.nodes, nodes);
            prop_assert!(a.start >= prev_end);
            prop_assert_eq!(a.end - a.start, SimDuration::from_mins(walltime_mins));
            prev_end = a.end;
        }
    }
}

mod seed_props {
    use hpcsim::seed::SeedStream;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // Sharded execution (PR 4): the parallel drivers assume each
        // shard's derived seed is unique and reproducible. Pairwise
        // distinctness over arbitrary index sets …
        #[test]
        fn seed_children_are_pairwise_distinct(
            root in any::<u64>(),
            indices in proptest::collection::btree_set(0u64..1_000_000, 2..64),
        ) {
            let stream = SeedStream::new(root);
            let seeds: BTreeSet<u64> = indices.iter().map(|&i| stream.child(i).seed()).collect();
            prop_assert_eq!(seeds.len(), indices.len(), "seed collision among children");
        }

        // … and stability across calls (child() is pure, no hidden state)
        #[test]
        fn seed_children_are_stable_across_calls(root in any::<u64>(), index in any::<u64>()) {
            let a = SeedStream::new(root).child(index).seed();
            let b = SeedStream::new(root).child(index).seed();
            prop_assert_eq!(a, b);
            // and across reuse of one stream value
            let s = SeedStream::new(root);
            prop_assert_eq!(s.child(index).seed(), s.child(index).seed());
        }

        #[test]
        fn derive_equals_manual_child_chain(
            root in any::<u64>(),
            path in proptest::collection::vec(any::<u64>(), 0..6),
        ) {
            let manual = path.iter().fold(SeedStream::new(root), |s, &i| s.child(i)).seed();
            prop_assert_eq!(SeedStream::derive(root, &path), manual);
        }

        #[test]
        fn distinct_roots_decorrelate_children(
            root in any::<u64>(),
            delta in 1u64..1_000,
            index in 0u64..1_000,
        ) {
            let a = SeedStream::new(root).child(index).seed();
            let b = SeedStream::new(root.wrapping_add(delta)).child(index).seed();
            prop_assert_ne!(a, b, "same child under different roots collided");
        }
    }
}

mod machine_props {
    use hpcsim::cluster::ClusterSpec;
    use hpcsim::machine::{simulate_queue, JobRequest, QueuePolicy};
    use hpcsim::time::{SimDuration, SimTime};
    use proptest::prelude::*;

    fn arb_jobs(max_nodes: u32) -> impl Strategy<Value = Vec<JobRequest>> {
        proptest::collection::vec((1..=max_nodes, 1u64..120, 1u64..120, 0u64..500), 1..40).prop_map(
            |specs| {
                specs
                    .into_iter()
                    .enumerate()
                    .map(|(i, (nodes, wall, run, submit))| {
                        JobRequest::new(
                            format!("j{i}"),
                            nodes,
                            SimDuration::from_mins(wall),
                            SimDuration::from_mins(run),
                            SimTime::ZERO + SimDuration::from_mins(submit),
                        )
                    })
                    .collect()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn scheduler_invariants(jobs in arb_jobs(16), easy in any::<bool>()) {
            let machine = ClusterSpec::new("m", 16, 32, 1e10);
            let policy = if easy { QueuePolicy::EasyBackfill } else { QueuePolicy::Fcfs };
            let outcomes = simulate_queue(&machine, &jobs, policy);
            // every job scheduled exactly once
            prop_assert_eq!(outcomes.len(), jobs.len());
            for o in &outcomes {
                // causality: no job starts before submission
                prop_assert!(o.start >= o.submit, "{} started early", o.id);
                // duration honored (runtime clamped to walltime at construction)
                let req = jobs.iter().find(|j| j.id == o.id).unwrap();
                prop_assert_eq!(o.finish - o.start, req.runtime);
                // capacity never exceeded at any start instant
                let in_flight: u32 = outcomes
                    .iter()
                    .filter(|p| p.start <= o.start && p.finish > o.start)
                    .map(|p| p.nodes)
                    .sum();
                prop_assert!(in_flight <= 16, "{} nodes busy at {}", in_flight, o.start);
            }
        }

        #[test]
        fn fcfs_never_reorders_starts_against_submissions(jobs in arb_jobs(16)) {
            // under strict FCFS, if a submitted strictly earlier than b and
            // both waited in queue together, a must not start after b …
            // except when a was still unsubmitted at b's start. Simplest
            // sound invariant: among jobs waiting at the same instant, the
            // earliest-submitted starts first → check pairwise.
            let machine = ClusterSpec::new("m", 16, 32, 1e10);
            let outcomes = simulate_queue(&machine, &jobs, QueuePolicy::Fcfs);
            for a in &outcomes {
                for b in &outcomes {
                    if a.submit < b.submit && a.start > b.start {
                        // b started while a was already submitted & waiting → violation
                        prop_assert!(
                            b.start < a.submit,
                            "FCFS violated: {} (submit {}) started after {} (submit {})",
                            a.id, a.submit, b.id, b.submit
                        );
                    }
                }
            }
        }

        #[test]
        fn backfill_dominates_fcfs_on_mean_wait(jobs in arb_jobs(12)) {
            let machine = ClusterSpec::new("m", 12, 32, 1e10);
            let fcfs = simulate_queue(&machine, &jobs, QueuePolicy::Fcfs);
            let easy = simulate_queue(&machine, &jobs, QueuePolicy::EasyBackfill);
            let mean = |o: &[hpcsim::machine::JobOutcome]| {
                o.iter().map(|x| x.wait().as_secs_f64()).sum::<f64>() / o.len() as f64
            };
            // EASY's guarantee is "never delay the head"; the mean wait is
            // overwhelmingly ≤ FCFS. With truncated runtimes (< walltime)
            // rare inversions are possible, so allow a small tolerance.
            prop_assert!(mean(&easy) <= mean(&fcfs) * 1.25 + 60.0);
        }
    }
}
