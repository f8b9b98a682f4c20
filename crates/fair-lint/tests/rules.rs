//! One firing and one non-firing case for every `FW` rule, plus the
//! stable-JSON snapshot.

use std::collections::BTreeMap;

use cheetah::campaign::{AppDef, Campaign, SweepGroup};
use cheetah::manifest::CampaignManifest;
use cheetah::param::SweepSpec;
use cheetah::sweep::Sweep;
use fair_core::catalog::Catalog;
use fair_core::component::{
    AccessProtocol, ComponentDescriptor, ComponentKind, ConfigVariable, DataDescriptor,
    PortDescriptor, SchemaInfo,
};
use fair_core::profile::GaugeProfile;
use fair_core::workflow::{NodeIdx, WorkflowGraph};
use fair_lint::rules::{campaign, dataflow, gauge, graph, policy, schedule};
use fair_lint::{
    lint_campaign_plan, lint_catalog_regressions, lint_checkpoint_plan, lint_dataflow,
    lint_durability_plan, lint_graph, lint_manifest, lint_memo_plan, lint_minimum_profile,
    lint_resilience_plan, lint_schedule, CheckpointPlan, DurabilityPlan, LintConfig, MemoPlan,
    ResiliencePlan, SchedulePlan, Severity, ShardDriver,
};
use hpcsim::cluster::ClusterSpec;
use hpcsim::time::SimDuration;

fn comp(name: &str, inputs: &[&str], outputs: &[&str]) -> ComponentDescriptor {
    let mut c = ComponentDescriptor::new(name, "0", ComponentKind::Executable);
    for i in inputs {
        c.inputs.push(PortDescriptor {
            name: (*i).into(),
            data: DataDescriptor::default(),
        });
    }
    for o in outputs {
        c.outputs.push(PortDescriptor {
            name: (*o).into(),
            data: DataDescriptor::default(),
        });
    }
    c
}

fn cfg() -> LintConfig {
    LintConfig::new()
}

// ---------------------------------------------------------------- graph

#[test]
fn fw001_cycle_fires_with_path() {
    let mut g = WorkflowGraph::new();
    let a = g.add(comp("a", &["i"], &["o"]));
    let b = g.add(comp("b", &["i"], &["o"]));
    g.connect_unchecked(a, "o", b, "i");
    g.connect_unchecked(b, "o", a, "i");
    let set = lint_graph(&g, &cfg());
    let d = set.with_code(graph::CYCLE).next().expect("cycle reported");
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("a -> b -> a"), "{}", d.message);
    assert!(!set.is_clean());
}

#[test]
fn fw001_quiet_on_dag() {
    let mut g = WorkflowGraph::new();
    let a = g.add(comp("a", &[], &["o"]));
    let b = g.add(comp("b", &["i"], &[]));
    g.connect_unchecked(a, "o", b, "i");
    assert!(lint_graph(&g, &cfg())
        .with_code(graph::CYCLE)
        .next()
        .is_none());
}

#[test]
fn fw002_dangling_node_and_port_fire() {
    let mut g = WorkflowGraph::new();
    let a = g.add(comp("a", &[], &["o"]));
    let b = g.add(comp("b", &["i"], &[]));
    g.connect_unchecked(a, "o", NodeIdx(7), "i"); // node 7 does not exist
    g.connect_unchecked(a, "nope", b, "i"); // port "nope" does not exist
    let set = lint_graph(&g, &cfg());
    let dangling: Vec<_> = set.with_code(graph::DANGLING_EDGE).collect();
    assert_eq!(dangling.len(), 2, "{}", set.render_text());
    assert!(dangling.iter().all(|d| d.severity == Severity::Error));
}

#[test]
fn fw002_quiet_on_valid_wiring() {
    let mut g = WorkflowGraph::new();
    let a = g.add(comp("a", &[], &["o"]));
    let b = g.add(comp("b", &["i"], &[]));
    g.connect_unchecked(a, "o", b, "i");
    assert!(lint_graph(&g, &cfg())
        .with_code(graph::DANGLING_EDGE)
        .next()
        .is_none());
}

#[test]
fn fw003_duplicate_edge_fires() {
    let mut g = WorkflowGraph::new();
    let a = g.add(comp("a", &[], &["o"]));
    let b = g.add(comp("b", &["i"], &[]));
    g.connect_unchecked(a, "o", b, "i");
    g.connect_unchecked(a, "o", b, "i");
    let set = lint_graph(&g, &cfg());
    let d = set
        .with_code(graph::DUPLICATE_EDGE)
        .next()
        .expect("duplicate reported");
    assert_eq!(d.severity, Severity::Warn);
    assert!(d.message.contains("2 times"), "{}", d.message);
}

#[test]
fn fw003_quiet_on_distinct_edges() {
    let mut g = WorkflowGraph::new();
    let a = g.add(comp("a", &[], &["o1", "o2"]));
    let b = g.add(comp("b", &["i1", "i2"], &[]));
    g.connect_unchecked(a, "o1", b, "i1");
    g.connect_unchecked(a, "o2", b, "i2");
    assert!(lint_graph(&g, &cfg())
        .with_code(graph::DUPLICATE_EDGE)
        .next()
        .is_none());
}

#[test]
fn fw004_schema_mismatch_fires() {
    let mut g = WorkflowGraph::new();
    let mut producer = comp("p", &[], &["o"]);
    producer.outputs[0].data.schema = Some(SchemaInfo::Named {
        format: "csv".into(),
    });
    let mut consumer = comp("c", &["i"], &[]);
    consumer.inputs[0].data.schema = Some(SchemaInfo::Named {
        format: "hdf5".into(),
    });
    let p = g.add(producer);
    let c = g.add(consumer);
    g.connect_unchecked(p, "o", c, "i");
    let d = lint_graph(&g, &cfg());
    let m = d
        .with_code(graph::SCHEMA_MISMATCH)
        .next()
        .expect("mismatch reported");
    assert_eq!(m.severity, Severity::Error);
    assert_eq!(m.location.node.as_deref(), Some("c"));
    assert_eq!(m.location.port.as_deref(), Some("i"));
}

#[test]
fn fw004_quiet_when_self_describing_bridges() {
    let mut g = WorkflowGraph::new();
    let mut producer = comp("p", &[], &["o"]);
    producer.outputs[0].data.schema = Some(SchemaInfo::SelfDescribing {
        container: "adios".into(),
    });
    let mut consumer = comp("c", &["i"], &[]);
    consumer.inputs[0].data.schema = Some(SchemaInfo::Named {
        format: "csv".into(),
    });
    let p = g.add(producer);
    let c = g.add(consumer);
    g.connect_unchecked(p, "o", c, "i");
    assert!(lint_graph(&g, &cfg())
        .with_code(graph::SCHEMA_MISMATCH)
        .next()
        .is_none());
}

#[test]
fn fw005_partially_wired_node_fires_both_ways() {
    let mut g = WorkflowGraph::new();
    let a = g.add(comp("a", &[], &["o"]));
    // b has two inputs but only one is fed, and two outputs but only one
    // is consumed
    let b = g.add(comp("b", &["fed", "starved"], &["used", "dead"]));
    let c = g.add(comp("c", &["i"], &[]));
    g.connect_unchecked(a, "o", b, "fed");
    g.connect_unchecked(b, "used", c, "i");
    let set = lint_graph(&g, &cfg());
    let findings: Vec<_> = set.with_code(graph::UNWIRED_PORT).collect();
    assert_eq!(findings.len(), 2, "{}", set.render_text());
    let starved = findings
        .iter()
        .find(|d| d.location.port.as_deref() == Some("starved"));
    assert_eq!(
        starved.expect("starved input reported").severity,
        Severity::Warn
    );
    let dead = findings
        .iter()
        .find(|d| d.location.port.as_deref() == Some("dead"));
    assert_eq!(dead.expect("dead output reported").severity, Severity::Hint);
}

#[test]
fn fw005_quiet_for_pure_sources_and_sinks() {
    let mut g = WorkflowGraph::new();
    // source with an input nobody feeds (an entry point) and a sink with
    // an output nobody consumes (an exit point): both legitimate
    let a = g.add(comp("a", &["entry"], &["o"]));
    let b = g.add(comp("b", &["i"], &["exit"]));
    g.connect_unchecked(a, "o", b, "i");
    assert!(lint_graph(&g, &cfg())
        .with_code(graph::UNWIRED_PORT)
        .next()
        .is_none());
}

#[test]
fn fw006_isolated_node_fires() {
    let mut g = WorkflowGraph::new();
    let a = g.add(comp("a", &[], &["o"]));
    let b = g.add(comp("b", &["i"], &[]));
    g.add(comp("loner", &[], &[]));
    g.connect_unchecked(a, "o", b, "i");
    let set = lint_graph(&g, &cfg());
    let d = set
        .with_code(graph::ISOLATED_NODE)
        .next()
        .expect("isolated reported");
    assert_eq!(d.location.node.as_deref(), Some("loner"));
}

#[test]
fn fw006_quiet_on_single_node_graph() {
    let mut g = WorkflowGraph::new();
    g.add(comp("only", &[], &[]));
    assert!(lint_graph(&g, &cfg())
        .with_code(graph::ISOLATED_NODE)
        .next()
        .is_none());
}

#[test]
fn fw007_motif_near_miss_fires() {
    let mut g = WorkflowGraph::new();
    let s1 = g.add(comp("instrument-1", &[], &["o"]));
    let s2 = g.add(comp("instrument-2", &[], &["o"]));
    let sched = g.add(comp("scheduler", &["i"], &["o"]));
    let relay = g.add(comp("relay", &["i"], &["o"])); // forwards onward: not a pure sink
    let sink = g.add(comp("archive", &["i"], &[]));
    g.connect_unchecked(s1, "o", sched, "i");
    g.connect_unchecked(s2, "o", sched, "i");
    g.connect_unchecked(sched, "o", relay, "i");
    g.connect_unchecked(relay, "o", sink, "i");
    let set = lint_graph(&g, &cfg());
    let d = set
        .with_code(graph::MOTIF_NEAR_MISS)
        .next()
        .expect("near-miss reported");
    assert_eq!(d.severity, Severity::Hint);
    assert!(d.message.contains("relay"), "{}", d.message);
}

#[test]
fn fw007_quiet_on_complete_motif() {
    let mut g = WorkflowGraph::new();
    let s1 = g.add(comp("instrument-1", &[], &["o"]));
    let s2 = g.add(comp("instrument-2", &[], &["o"]));
    let sched = g.add(comp("scheduler", &["i"], &["o"]));
    let sink = g.add(comp("archive", &["i"], &[]));
    g.connect_unchecked(s1, "o", sched, "i");
    g.connect_unchecked(s2, "o", sched, "i");
    g.connect_unchecked(sched, "o", sink, "i");
    assert!(lint_graph(&g, &cfg())
        .with_code(graph::MOTIF_NEAR_MISS)
        .next()
        .is_none());
}

// ------------------------------------------------------------- campaign

fn app_with_config(params: &[&str]) -> ComponentDescriptor {
    let mut app = ComponentDescriptor::new("irf", "1", ComponentKind::Executable);
    for p in params {
        app.config.push(ConfigVariable {
            name: (*p).into(),
            var_type: "int".into(),
            default: None,
            description: String::new(),
            related_to: Vec::new(),
        });
    }
    app
}

fn manifest_with(sweep: Sweep, nodes: u32, per_run: u32, walltime: u64) -> CampaignManifest {
    Campaign::new("c", "m", AppDef::new("irf", "irf.exe"))
        .with_group(SweepGroup::new("g", sweep, nodes, per_run, walltime))
        .manifest()
        .expect("valid campaign")
}

#[test]
fn fw101_undeclared_parameter_fires() {
    let m = manifest_with(
        Sweep::new().with("trees", SweepSpec::list([1i64, 2])),
        4,
        1,
        600,
    );
    let app = app_with_config(&["feature"]);
    let set = lint_manifest(&m, None, Some(&app), None, &cfg());
    let d = set
        .with_code(campaign::DEAD_PARAMETER)
        .next()
        .expect("dead param reported");
    assert_eq!(d.severity, Severity::Warn);
    assert_eq!(d.location.param.as_deref(), Some("trees"));
    assert_eq!(d.location.group.as_deref(), Some("g"));
}

#[test]
fn fw101_quiet_for_declared_params_and_black_box_apps() {
    let m = manifest_with(
        Sweep::new().with("feature", SweepSpec::list([1i64, 2])),
        4,
        1,
        600,
    );
    let declared = app_with_config(&["feature"]);
    assert!(lint_manifest(&m, None, Some(&declared), None, &cfg())
        .with_code(campaign::DEAD_PARAMETER)
        .next()
        .is_none());
    // a black-box app declares nothing: the rule stands down entirely
    let black_box = app_with_config(&[]);
    assert!(lint_manifest(&m, None, Some(&black_box), None, &cfg())
        .with_code(campaign::DEAD_PARAMETER)
        .next()
        .is_none());
}

#[test]
fn fw101_inconsistent_assignment_across_group_fires() {
    // two sweeps in one group, only one assigns "extra"
    let mut group = SweepGroup::new(
        "g",
        Sweep::new().with("n", SweepSpec::fixed(1i64)),
        4,
        1,
        600,
    );
    group.sweeps.push(
        Sweep::new()
            .with("n", SweepSpec::fixed(2i64))
            .with("extra", SweepSpec::fixed(7i64)),
    );
    let m = Campaign::new("c", "m", AppDef::new("a", "a.exe"))
        .with_group(group)
        .manifest()
        .expect("valid campaign");
    let set = lint_manifest(&m, None, None, None, &cfg());
    let d = set
        .with_code(campaign::DEAD_PARAMETER)
        .next()
        .expect("inconsistency reported");
    assert!(d.message.contains("only 1 of 2 runs"), "{}", d.message);
}

#[test]
fn fw102_empty_sweep_fires_as_error() {
    let m = manifest_with(Sweep::new().with("a", SweepSpec::List(vec![])), 4, 1, 600);
    let set = lint_manifest(&m, None, None, None, &cfg());
    let d = set
        .with_code(campaign::DEGENERATE_SWEEP)
        .next()
        .expect("empty sweep reported");
    assert_eq!(d.severity, Severity::Error);
    assert!(!set.is_clean());
}

#[test]
fn fw102_explosive_sweep_fires_pre_expansion() {
    // 100 × 100 × 100 = 1e6 runs, never expanded: the plan linter sees it
    // through cardinality alone
    let sweep = Sweep::new()
        .with(
            "a",
            SweepSpec::IntRange {
                start: 1,
                end: 100,
                step: 1,
            },
        )
        .with(
            "b",
            SweepSpec::IntRange {
                start: 1,
                end: 100,
                step: 1,
            },
        )
        .with(
            "c",
            SweepSpec::IntRange {
                start: 1,
                end: 100,
                step: 1,
            },
        );
    let plan = Campaign::new("c", "m", AppDef::new("a", "a.exe"))
        .with_group(SweepGroup::new("g", sweep, 4, 1, 600));
    let set = lint_campaign_plan(&plan, None, None, &cfg());
    let d = set
        .with_code(campaign::DEGENERATE_SWEEP)
        .next()
        .expect("explosion reported");
    assert_eq!(d.severity, Severity::Warn);
    assert!(d.message.contains("1000000"), "{}", d.message);
}

#[test]
fn fw102_quiet_on_reasonable_sweeps() {
    let m = manifest_with(
        Sweep::new().with("a", SweepSpec::list([1i64, 2, 3])),
        4,
        1,
        600,
    );
    assert!(lint_manifest(&m, None, None, None, &cfg())
        .with_code(campaign::DEGENERATE_SWEEP)
        .next()
        .is_none());
}

#[test]
fn fw103_oversubscription_fires_three_ways() {
    // per-run nodes exceed the group allocation: build via manifest structs
    // directly since Campaign::validate would reject it
    let mut m = manifest_with(Sweep::new().with("a", SweepSpec::fixed(1i64)), 4, 1, 600);
    m.groups[0].per_run_nodes = 8;
    let set = lint_manifest(&m, None, None, None, &cfg());
    assert!(set
        .with_code(campaign::OVERSUBSCRIBED)
        .any(|d| d.message.contains("only 4")));

    // the group wants more nodes than the machine has
    let m = manifest_with(Sweep::new().with("a", SweepSpec::fixed(1i64)), 64, 1, 600);
    let machine = ClusterSpec::institutional(20);
    let set = lint_manifest(&m, None, None, Some(&machine), &cfg());
    assert!(set
        .with_code(campaign::OVERSUBSCRIBED)
        .any(|d| d.message.contains("has only 20")));

    // a run modeled longer than the walltime can never finish
    let m = manifest_with(Sweep::new().with("a", SweepSpec::fixed(1i64)), 4, 1, 600);
    let durations: BTreeMap<String, SimDuration> = m.groups[0]
        .runs
        .iter()
        .map(|r| (r.id.clone(), SimDuration::from_secs(7200)))
        .collect();
    let set = lint_manifest(&m, Some(&durations), None, None, &cfg());
    assert!(set
        .with_code(campaign::OVERSUBSCRIBED)
        .any(|d| d.message.contains("never finish")));
}

#[test]
fn fw104_unmodeled_run_fires_as_error() {
    // the duration map covers nothing: every run is a hole the driver
    // would refuse at execution time
    let m = manifest_with(
        Sweep::new().with("a", SweepSpec::list([1i64, 2])),
        4,
        1,
        600,
    );
    let durations: BTreeMap<String, SimDuration> = BTreeMap::new();
    let set = lint_manifest(&m, Some(&durations), None, None, &cfg());
    let findings: Vec<_> = set.with_code(campaign::UNMODELED_RUN).collect();
    assert_eq!(findings.len(), m.groups[0].runs.len());
    assert!(findings.iter().all(|d| d.severity == Severity::Error));
    assert!(
        findings[0].message.contains("UnmodeledRun"),
        "{}",
        findings[0].message
    );
}

#[test]
fn fw104_quiet_without_a_duration_model() {
    // no model supplied at all: nothing to check against, rule stands down
    let m = manifest_with(Sweep::new().with("a", SweepSpec::fixed(1i64)), 4, 1, 600);
    assert!(lint_manifest(&m, None, None, None, &cfg())
        .with_code(campaign::UNMODELED_RUN)
        .next()
        .is_none());
}

#[test]
fn fw103_quiet_when_resources_fit() {
    let m = manifest_with(Sweep::new().with("a", SweepSpec::fixed(1i64)), 4, 1, 3600);
    let machine = ClusterSpec::institutional(20);
    let durations: BTreeMap<String, SimDuration> = m.groups[0]
        .runs
        .iter()
        .map(|r| (r.id.clone(), SimDuration::from_secs(600)))
        .collect();
    let set = lint_manifest(&m, Some(&durations), None, Some(&machine), &cfg());
    assert!(
        set.with_code(campaign::OVERSUBSCRIBED).next().is_none(),
        "{}",
        set.render_text()
    );
}

// --------------------------------------------------------------- policy

#[test]
fn fw201_infeasible_plans_fire() {
    // a checkpoint segment at least as long as the MTTF
    let plan = CheckpointPlan {
        interval: SimDuration::from_hours(3),
        dump_cost: SimDuration::from_hours(1),
        mttf: SimDuration::from_hours(2),
    };
    let set = lint_checkpoint_plan(&plan, &cfg());
    assert!(set
        .with_code(policy::INFEASIBLE_CHECKPOINTING)
        .next()
        .is_some());
    assert!(!set.is_clean());

    // dumping costs more than the compute it protects
    let plan = CheckpointPlan {
        interval: SimDuration::from_mins(2),
        dump_cost: SimDuration::from_mins(5),
        mttf: SimDuration::from_hours(100),
    };
    let set = lint_checkpoint_plan(&plan, &cfg());
    assert!(set
        .with_code(policy::INFEASIBLE_CHECKPOINTING)
        .any(|d| d.message.contains("more time saving")));

    // degenerate zero plan short-circuits instead of dividing by zero
    let plan = CheckpointPlan {
        interval: SimDuration::ZERO,
        dump_cost: SimDuration::from_mins(1),
        mttf: SimDuration::from_hours(1),
    };
    assert!(!lint_checkpoint_plan(&plan, &cfg()).is_clean());
}

#[test]
fn fw201_quiet_on_feasible_plan() {
    let plan = CheckpointPlan {
        interval: SimDuration::from_mins(30),
        dump_cost: SimDuration::from_mins(2),
        mttf: SimDuration::from_hours(4),
    };
    assert!(lint_checkpoint_plan(&plan, &cfg())
        .with_code(policy::INFEASIBLE_CHECKPOINTING)
        .next()
        .is_none());
}

#[test]
fn fw202_interval_far_from_daly_fires_both_directions() {
    let mttf = SimDuration::from_hours(4);
    let dump = SimDuration::from_mins(2);
    // Young/Daly optimum ≈ 31 min; 4 min is > 4x denser, 3 h is > 4x
    // sparser (while still feasible: 3 h + 2 min < the 4 h MTTF)
    for interval in [SimDuration::from_mins(4), SimDuration::from_hours(3)] {
        let plan = CheckpointPlan {
            interval,
            dump_cost: dump,
            mttf,
        };
        let set = lint_checkpoint_plan(&plan, &cfg());
        let d = set
            .with_code(policy::SUBOPTIMAL_INTERVAL)
            .next()
            .expect("flagged");
        assert_eq!(d.severity, Severity::Warn);
        assert!(set.is_clean(), "suboptimal is a warning, not an error");
    }
}

#[test]
fn fw202_quiet_near_the_optimum() {
    let mttf = SimDuration::from_hours(4);
    let dump = SimDuration::from_mins(2);
    let plan = CheckpointPlan {
        interval: SimDuration::from_mins(31),
        dump_cost: dump,
        mttf,
    };
    assert!(lint_checkpoint_plan(&plan, &cfg())
        .with_code(policy::SUBOPTIMAL_INTERVAL)
        .next()
        .is_none());
}

#[test]
fn fw203_zero_retry_budget_under_faults_fires() {
    // run faults but no retries: error
    let plan = ResiliencePlan {
        retry_budget: 0,
        run_failure_probability: 0.3,
        node_faults: false,
    };
    let set = lint_resilience_plan(&plan, &cfg());
    let d = set
        .with_code(policy::NO_RETRY_UNDER_FAULTS)
        .next()
        .expect("flagged");
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("p = 0.3"), "{}", d.message);
    assert!(!set.is_clean());

    // node crashes alone also count as a fault source
    let plan = ResiliencePlan {
        retry_budget: 0,
        run_failure_probability: 0.0,
        node_faults: true,
    };
    let set = lint_resilience_plan(&plan, &cfg());
    assert!(set
        .with_code(policy::NO_RETRY_UNDER_FAULTS)
        .any(|d| d.message.contains("node crashes")));
}

#[test]
fn fw203_certain_failure_is_unwinnable_regardless_of_budget() {
    let plan = ResiliencePlan {
        retry_budget: 1000,
        run_failure_probability: 1.0,
        node_faults: false,
    };
    let set = lint_resilience_plan(&plan, &cfg());
    assert!(set
        .with_code(policy::NO_RETRY_UNDER_FAULTS)
        .any(|d| d.message.contains("no retry budget")));
}

#[test]
fn fw203_quiet_with_budget_or_without_faults() {
    // a budget covers the faults
    let plan = ResiliencePlan {
        retry_budget: 3,
        run_failure_probability: 0.3,
        node_faults: true,
    };
    assert!(lint_resilience_plan(&plan, &cfg()).is_empty());
    // no faults: zero budget is fine
    let plan = ResiliencePlan {
        retry_budget: 0,
        run_failure_probability: 0.0,
        node_faults: false,
    };
    assert!(lint_resilience_plan(&plan, &cfg()).is_empty());
}

#[test]
fn fw207_journaling_off_under_faults_fires() {
    let plan = DurabilityPlan {
        journaling_enabled: false,
        faults_enabled: true,
        snapshot_every: 4,
        journal_paths: vec![],
    };
    let set = lint_durability_plan(&plan, &cfg());
    let d = set
        .with_code(policy::DURABILITY_MISCONFIGURATION)
        .next()
        .expect("flagged");
    assert_eq!(d.severity, Severity::Error);
    assert!(
        d.message.contains("journaling is disabled"),
        "{}",
        d.message
    );
    assert!(!set.is_clean());
}

#[test]
fn fw207_degenerate_snapshot_intervals_fire() {
    for every in [0, usize::MAX] {
        let plan = DurabilityPlan {
            journaling_enabled: true,
            faults_enabled: false,
            snapshot_every: every,
            journal_paths: vec!["c.journal".into()],
        };
        let set = lint_durability_plan(&plan, &cfg());
        assert!(
            set.with_code(policy::DURABILITY_MISCONFIGURATION)
                .any(|d| d.severity == Severity::Error),
            "snapshot_every={every} should fire"
        );
    }
    // the degenerate interval is moot while journaling is off
    let plan = DurabilityPlan {
        journaling_enabled: false,
        faults_enabled: false,
        snapshot_every: 0,
        journal_paths: vec![],
    };
    assert!(lint_durability_plan(&plan, &cfg()).is_empty());
}

#[test]
fn fw207_shard_journal_path_collision_fires() {
    let plan = DurabilityPlan {
        journaling_enabled: true,
        faults_enabled: true,
        snapshot_every: 4,
        journal_paths: vec![
            "c.journal.shard0".into(),
            "c.journal.shard1".into(),
            "c.journal.shard0".into(),
        ],
    };
    let set = lint_durability_plan(&plan, &cfg());
    assert!(set
        .with_code(policy::DURABILITY_MISCONFIGURATION)
        .any(|d| d.message.contains("c.journal.shard0")));
}

#[test]
fn fw207_quiet_on_sane_durability() {
    let plan = DurabilityPlan {
        journaling_enabled: true,
        faults_enabled: true,
        snapshot_every: 4,
        journal_paths: vec!["c.journal.shard0".into(), "c.journal.shard1".into()],
    };
    assert!(lint_durability_plan(&plan, &cfg()).is_empty());
}

fn safe_memo_plan() -> MemoPlan {
    MemoPlan {
        store_configured: true,
        seeds_pinned: true,
        environment_pinned: true,
        rand_queue_draws: false,
        rand_fault_streams: false,
        nondeterminism_acknowledged: false,
    }
}

#[test]
fn fw208_unpinned_key_inputs_fire() {
    for (plan, needle) in [
        (
            MemoPlan {
                store_configured: false,
                ..safe_memo_plan()
            },
            "no content-addressed store",
        ),
        (
            MemoPlan {
                seeds_pinned: false,
                ..safe_memo_plan()
            },
            "seed derivations",
        ),
        (
            MemoPlan {
                environment_pinned: false,
                ..safe_memo_plan()
            },
            "environment pins",
        ),
    ] {
        let set = lint_memo_plan(&plan, &cfg());
        let d = set
            .with_code(policy::MEMOIZATION_UNSAFE)
            .next()
            .expect("flagged");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains(needle), "{}", d.message);
    }
}

#[test]
fn fw208_rand_inputs_need_acknowledgement() {
    // unacknowledged sampled inputs fire, naming the source
    let plan = MemoPlan {
        rand_queue_draws: true,
        rand_fault_streams: true,
        ..safe_memo_plan()
    };
    let set = lint_memo_plan(&plan, &cfg());
    assert!(set
        .with_code(policy::MEMOIZATION_UNSAFE)
        .any(|d| d.message.contains("queue-wait and fault-stream draws")));
    // the explicit acknowledgement silences exactly that finding
    let plan = MemoPlan {
        nondeterminism_acknowledged: true,
        ..plan
    };
    assert!(lint_memo_plan(&plan, &cfg()).is_empty());
}

#[test]
fn fw208_quiet_on_sane_memoization() {
    assert!(lint_memo_plan(&safe_memo_plan(), &cfg()).is_empty());
}

// ---------------------------------------------------------------- gauge

#[test]
fn fw301_below_minimum_profile_fires_with_gaps() {
    let mut g = WorkflowGraph::new();
    g.add(comp("black-box", &[], &[]));
    let minimum = GaugeProfile::from_pairs([(
        fair_core::gauge::Gauge::DataAccess,
        fair_core::gauge::Tier(1),
    )]);
    let set = lint_minimum_profile(&g, &minimum, &cfg());
    let d = set
        .with_code(gauge::BELOW_MINIMUM_PROFILE)
        .next()
        .expect("gap reported");
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("data.access"), "{}", d.message);
}

#[test]
fn fw301_quiet_when_minimum_is_met() {
    let mut g = WorkflowGraph::new();
    let mut c = comp("annotated", &["i"], &[]);
    c.inputs[0].data.protocol = Some(AccessProtocol::PosixFile);
    g.add(c);
    let minimum = GaugeProfile::from_pairs([(
        fair_core::gauge::Gauge::DataAccess,
        fair_core::gauge::Tier(1),
    )]);
    assert!(lint_minimum_profile(&g, &minimum, &cfg()).is_empty());
}

#[test]
fn fw302_catalog_regression_fires() {
    let mut cat = Catalog::new();
    let mut strong = comp("drifter", &["i"], &[]);
    strong.inputs[0].data.protocol = Some(AccessProtocol::PosixFile);
    cat.register(strong);
    // re-register as a black box: knowledge was lost
    cat.register(ComponentDescriptor::new(
        "drifter",
        "0",
        ComponentKind::Executable,
    ));
    let set = lint_catalog_regressions(&cat, &cfg());
    let d = set
        .with_code(gauge::PROFILE_REGRESSION)
        .next()
        .expect("regression reported");
    assert_eq!(d.severity, Severity::Warn);
    assert_eq!(d.location.node.as_deref(), Some("drifter"));
}

#[test]
fn fw302_quiet_on_monotone_history() {
    let mut cat = Catalog::new();
    cat.register(comp("grower", &[], &[]));
    let mut better = comp("grower", &["i"], &[]);
    better.inputs[0].data.protocol = Some(AccessProtocol::PosixFile);
    cat.register(better);
    assert!(lint_catalog_regressions(&cat, &cfg()).is_empty());
}

// ------------------------------------------------------ config plumbing

#[test]
fn allow_and_deny_reshape_findings() {
    let mut g = WorkflowGraph::new();
    let a = g.add(comp("a", &[], &["o"]));
    let b = g.add(comp("b", &["i"], &[]));
    g.connect_unchecked(a, "o", b, "i");
    g.connect_unchecked(a, "o", b, "i"); // FW003 warn by default

    let allowed = lint_graph(&g, &LintConfig::new().allow(graph::DUPLICATE_EDGE));
    assert!(allowed.is_empty(), "{}", allowed.render_text());

    let denied = lint_graph(&g, &LintConfig::new().deny(graph::DUPLICATE_EDGE));
    assert!(!denied.is_clean(), "denied rule must block");
}

// ------------------------------------------------------- JSON snapshot

#[test]
fn diagnostics_serialize_to_stable_json() {
    let mut g = WorkflowGraph::new();
    let a = g.add(comp("a", &["i"], &["o"]));
    let b = g.add(comp("b", &["i"], &["o"]));
    g.connect_unchecked(a, "o", b, "i");
    g.connect_unchecked(b, "o", a, "i");
    let set = lint_graph(&g, &cfg());
    assert_eq!(
        set.to_json(),
        r#"[
  {
    "code": "FW001",
    "severity": "error",
    "message": "workflow graph contains a cycle through 2 node(s): a -> b -> a",
    "location": {
      "node": "a"
    }
  }
]"#
    );
}

#[test]
fn json_renders_multi_field_locations_and_no_location() {
    let mut set = fair_lint::DiagnosticSet::new();
    let config = cfg();
    set.report(
        &config,
        "FW101",
        Severity::Warn,
        "parameter \"trees\" is undeclared",
        fair_lint::Location::param("g", "trees"),
    );
    set.report(
        &config,
        "FW201",
        Severity::Error,
        "plan infeasible",
        fair_lint::Location::none(),
    );
    assert_eq!(
        set.to_json(),
        r#"[
  {
    "code": "FW101",
    "severity": "warn",
    "message": "parameter \"trees\" is undeclared",
    "location": {
      "param": "trees",
      "group": "g"
    }
  },
  {
    "code": "FW201",
    "severity": "error",
    "message": "plan infeasible"
  }
]"#
    );
}

// ------------------------------------------------------------- dataflow

/// Adds no-default config variables to a component.
fn with_config(mut c: ComponentDescriptor, params: &[&str]) -> ComponentDescriptor {
    for p in params {
        c.config.push(ConfigVariable {
            name: (*p).into(),
            var_type: "int".into(),
            default: None,
            description: String::new(),
            related_to: Vec::new(),
        });
    }
    c
}

/// `source.o -> blocked.a` is fine, but `blocked.b` is fed only by an
/// edge from a nonexistent node, so `blocked` can never execute: its
/// terminal output has no provenance (FW407), its wired input is
/// undefined on every path (FW402), and `source.o` is computed for a
/// consumer that can never run (FW401).
fn dead_path_graph() -> WorkflowGraph {
    let mut g = WorkflowGraph::new();
    let source = g.add(comp("source", &[], &["o"]));
    let blocked = g.add(comp("blocked", &["a", "b"], &["r"]));
    g.connect_unchecked(source, "o", blocked, "a");
    g.connect_unchecked(NodeIdx(99), "x", blocked, "b");
    g
}

#[test]
fn fw401_dead_output_fires_behind_blocked_consumer() {
    let set = lint_dataflow(&dead_path_graph(), None, &cfg());
    let d = set
        .with_code(dataflow::DEAD_OUTPUT)
        .next()
        .expect("dead output reported");
    assert_eq!(d.severity, Severity::Warn);
    assert_eq!(d.location.node.as_deref(), Some("source"));
    assert_eq!(d.location.port.as_deref(), Some("o"));
}

#[test]
fn fw402_undefined_input_fires_on_invalid_only_producers() {
    let set = lint_dataflow(&dead_path_graph(), None, &cfg());
    let d = set
        .with_code(dataflow::UNDEFINED_INPUT)
        .next()
        .expect("undefined input reported");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.location.node.as_deref(), Some("blocked"));
    assert_eq!(d.location.port.as_deref(), Some("b"));
}

#[test]
fn fw407_provenance_incomplete_fires_on_blocked_terminal() {
    let set = lint_dataflow(&dead_path_graph(), None, &cfg());
    let d = set
        .with_code(dataflow::PROVENANCE_INCOMPLETE)
        .next()
        .expect("provenance reported");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.location.node.as_deref(), Some("blocked"));
    assert_eq!(d.location.port.as_deref(), Some("r"));
}

#[test]
fn fw401_402_407_quiet_on_straight_pipeline() {
    let mut g = WorkflowGraph::new();
    let a = g.add(comp("a", &[], &["o"]));
    let b = g.add(comp("b", &["i"], &["o"]));
    let c = g.add(comp("c", &["i"], &[]));
    g.connect_unchecked(a, "o", b, "i");
    g.connect_unchecked(b, "o", c, "i");
    let set = lint_dataflow(&g, None, &cfg());
    assert!(set.is_clean(), "{}", set.render_text());
    assert!(set.iter().next().is_none());
}

#[test]
fn fw403_write_write_conflict_fires_on_incompatible_schemas() {
    let mut g = WorkflowGraph::new();
    let mut p1 = comp("p1", &[], &["a"]);
    p1.outputs[0].data.schema = Some(SchemaInfo::Named {
        format: "csv".into(),
    });
    let mut p2 = comp("p2", &[], &["b"]);
    p2.outputs[0].data.schema = Some(SchemaInfo::Named {
        format: "hdf5".into(),
    });
    let p1 = g.add(p1);
    let p2 = g.add(p2);
    let sink = g.add(comp("sink", &["x"], &[]));
    g.connect_unchecked(p1, "a", sink, "x");
    g.connect_unchecked(p2, "b", sink, "x");
    let set = lint_dataflow(&g, None, &cfg());
    let d = set
        .with_code(dataflow::WRITE_WRITE_CONFLICT)
        .next()
        .expect("conflict reported");
    assert_eq!(d.severity, Severity::Warn);
    assert_eq!(d.location.port.as_deref(), Some("x"));
    assert!(d.message.contains("p1.a"), "{}", d.message);
    assert!(d.message.contains("p2.b"), "{}", d.message);
}

#[test]
fn fw403_quiet_on_plain_fan_in() {
    // undeclared schemas: the collect-select-forward motif depends on
    // multi-writer inputs, so only provable conflicts may fire
    let mut g = WorkflowGraph::new();
    let p1 = g.add(comp("p1", &[], &["a"]));
    let p2 = g.add(comp("p2", &[], &["b"]));
    let sink = g.add(comp("sink", &["x"], &[]));
    g.connect_unchecked(p1, "a", sink, "x");
    g.connect_unchecked(p2, "b", sink, "x");
    assert!(lint_dataflow(&g, None, &cfg())
        .with_code(dataflow::WRITE_WRITE_CONFLICT)
        .next()
        .is_none());
}

#[test]
fn fw404_unused_source_input_fires_when_node_feeds_nothing_live() {
    // ingest's external input flows into mixer, but mixer can never
    // execute (ghost producer on b), so the supplied data is lost
    let mut g = WorkflowGraph::new();
    let ingest = g.add(comp("ingest", &["raw"], &["o"]));
    let mixer = g.add(comp("mixer", &["a", "b"], &[]));
    g.connect_unchecked(ingest, "o", mixer, "a");
    g.connect_unchecked(NodeIdx(99), "x", mixer, "b");
    let set = lint_dataflow(&g, None, &cfg());
    let d = set
        .with_code(dataflow::UNUSED_SOURCE_INPUT)
        .next()
        .expect("unused source reported");
    assert_eq!(d.severity, Severity::Warn);
    assert_eq!(d.location.node.as_deref(), Some("ingest"));
    assert_eq!(d.location.port.as_deref(), Some("raw"));
}

#[test]
fn fw404_quiet_when_source_reaches_a_sink() {
    let mut g = WorkflowGraph::new();
    let ingest = g.add(comp("ingest", &["raw"], &["o"]));
    let sink = g.add(comp("sink", &["i"], &[]));
    g.connect_unchecked(ingest, "o", sink, "i");
    assert!(lint_dataflow(&g, None, &cfg())
        .with_code(dataflow::UNUSED_SOURCE_INPUT)
        .next()
        .is_none());
}

/// A manifest sweeping `resolution` (two values) with `aggregation`
/// pinned to one value.
fn sweeping_manifest() -> CampaignManifest {
    manifest_with(
        Sweep::new()
            .with(
                "resolution",
                SweepSpec::IntRange {
                    start: 1,
                    end: 2,
                    step: 1,
                },
            )
            .with("aggregation", SweepSpec::List(vec![7.into()])),
        4,
        1,
        3600,
    )
}

#[test]
fn fw405_swept_param_bound_only_to_dead_node_fires() {
    // "doomed" declares `resolution` but can never execute (ghost
    // producer), so the whole sweep axis is unobservable
    let mut g = WorkflowGraph::new();
    let doomed = g.add(with_config(
        comp("doomed", &["in"], &["out"]),
        &["resolution", "aggregation"],
    ));
    g.connect_unchecked(NodeIdx(99), "x", doomed, "in");
    let set = lint_dataflow(&g, Some(&sweeping_manifest()), &cfg());
    let d = set
        .with_code(dataflow::SWEPT_PARAM_NO_EFFECT)
        .next()
        .expect("no-effect reported");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.location.param.as_deref(), Some("resolution"));
    assert!(d.message.contains("doomed"), "{}", d.message);
}

#[test]
fn fw405_quiet_when_a_useful_node_declares_the_axis() {
    let mut g = WorkflowGraph::new();
    let sim = g.add(with_config(
        comp("sim", &[], &["field"]),
        &["resolution", "aggregation"],
    ));
    let sink = g.add(comp("sink", &["i"], &[]));
    g.connect_unchecked(sim, "field", sink, "i");
    assert!(lint_dataflow(&g, Some(&sweeping_manifest()), &cfg())
        .with_code(dataflow::SWEPT_PARAM_NO_EFFECT)
        .next()
        .is_none());
}

#[test]
fn fw406_swept_param_declared_by_no_node_fires() {
    let mut g = WorkflowGraph::new();
    // declares *a* config var (so the layer is active) but not the axis
    let sim = g.add(with_config(comp("sim", &[], &["field"]), &["aggregation"]));
    let sink = g.add(comp("sink", &["i"], &[]));
    g.connect_unchecked(sim, "field", sink, "i");
    let set = lint_dataflow(&g, Some(&sweeping_manifest()), &cfg());
    let d = set
        .with_code(dataflow::SWEPT_PARAM_UNBOUND)
        .next()
        .expect("unbound reported");
    assert_eq!(d.severity, Severity::Warn);
    assert_eq!(d.location.param.as_deref(), Some("resolution"));
}

#[test]
fn fw406_stands_down_on_black_box_graphs() {
    // no node declares any config variable: nothing to check against
    let mut g = WorkflowGraph::new();
    let sim = g.add(comp("sim", &[], &["field"]));
    let sink = g.add(comp("sink", &["i"], &[]));
    g.connect_unchecked(sim, "field", sink, "i");
    let set = lint_dataflow(&g, Some(&sweeping_manifest()), &cfg());
    assert!(set.is_clean(), "{}", set.render_text());
}

#[test]
fn fw408_unpinned_config_fires_on_unassigned_no_default_var() {
    let mut g = WorkflowGraph::new();
    let sim = g.add(with_config(
        comp("sim", &[], &["field"]),
        &["resolution", "aggregation", "tuning"],
    ));
    let sink = g.add(comp("sink", &["i"], &[]));
    g.connect_unchecked(sim, "field", sink, "i");
    let set = lint_dataflow(&g, Some(&sweeping_manifest()), &cfg());
    let d = set
        .with_code(dataflow::UNPINNED_CONFIG)
        .next()
        .expect("unpinned reported");
    assert_eq!(d.severity, Severity::Warn);
    assert_eq!(d.location.node.as_deref(), Some("sim"));
    assert_eq!(d.location.param.as_deref(), Some("tuning"));
    // resolution and aggregation are assigned by the campaign: quiet
    assert_eq!(set.with_code(dataflow::UNPINNED_CONFIG).count(), 1);
}

#[test]
fn fw408_quiet_when_defaulted() {
    let mut g = WorkflowGraph::new();
    let mut node = with_config(comp("sim", &[], &["field"]), &["resolution", "aggregation"]);
    node.config.push(ConfigVariable {
        name: "tuning".into(),
        var_type: "int".into(),
        default: Some("1".into()),
        description: String::new(),
        related_to: Vec::new(),
    });
    let sim = g.add(node);
    let sink = g.add(comp("sink", &["i"], &[]));
    g.connect_unchecked(sim, "field", sink, "i");
    assert!(lint_dataflow(&g, Some(&sweeping_manifest()), &cfg())
        .with_code(dataflow::UNPINNED_CONFIG)
        .next()
        .is_none());
}

#[test]
fn dataflow_stands_down_on_cyclic_graphs() {
    let mut g = WorkflowGraph::new();
    let a = g.add(comp("a", &["i"], &["o"]));
    let b = g.add(comp("b", &["i"], &["o"]));
    g.connect_unchecked(a, "o", b, "i");
    g.connect_unchecked(b, "o", a, "i");
    // FW001 owns the cycle; the dataflow layer must stay silent
    assert!(lint_dataflow(&g, None, &cfg()).is_clean());
}

// ------------------------------------------------------------- schedule

/// A well-formed two-shard sim plan; each test mutates one aspect.
fn base_plan() -> SchedulePlan {
    SchedulePlan {
        assignments: vec![vec![0, 1], vec![2, 3]],
        total_runs: 4,
        campaign_seed: 42,
        fault_seed: None,
        stream_ids: None,
        track_offsets: None,
        driver: ShardDriver::Sim,
        retry_budget: 0,
        faults_enabled: false,
        max_allocations_per_shard: 8,
    }
}

#[test]
fn schedule_base_plan_is_clean() {
    let set = lint_schedule(&base_plan(), &cfg());
    assert!(set.is_clean(), "{}", set.render_text());
    assert!(set.iter().next().is_none());
}

#[test]
fn fw501_gap_and_out_of_range_fire() {
    let mut plan = base_plan();
    plan.assignments = vec![vec![0, 1], vec![3, 7]]; // 2 missing, 7 beyond
    let set = lint_schedule(&plan, &cfg());
    let gaps: Vec<_> = set.with_code(schedule::SHARD_GAP).collect();
    assert_eq!(gaps.len(), 2, "{}", set.render_text());
    assert!(gaps.iter().all(|d| d.severity == Severity::Error));
    assert!(gaps.iter().any(|d| d.message.contains("run index 7")));
    assert!(gaps
        .iter()
        .any(|d| d.message.contains("assigned to no shard: 2")));
}

#[test]
fn fw502_overlap_fires_with_owning_shards() {
    let mut plan = base_plan();
    plan.assignments = vec![vec![0, 1, 2], vec![2, 3]];
    let set = lint_schedule(&plan, &cfg());
    let d = set
        .with_code(schedule::SHARD_OVERLAP)
        .next()
        .expect("overlap reported");
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("run index 2"), "{}", d.message);
    assert_eq!(d.location.shard, Some(1));
}

#[test]
fn fw503_colliding_and_mismatched_offsets_fire() {
    let mut plan = base_plan();
    plan.track_offsets = Some(vec![3, 3]);
    let d = lint_schedule(&plan, &cfg())
        .with_code(schedule::TRACK_COLLISION)
        .next()
        .cloned()
        .expect("collision reported");
    assert_eq!(d.severity, Severity::Error);
    assert!(
        d.message.contains("overlapping telemetry lanes"),
        "{}",
        d.message
    );

    plan.track_offsets = Some(vec![0]); // one entry for two shards
    let d = lint_schedule(&plan, &cfg())
        .with_code(schedule::TRACK_COLLISION)
        .next()
        .cloned()
        .expect("mismatch reported");
    assert!(
        d.message.contains("1 entries for 2 shard(s)"),
        "{}",
        d.message
    );
}

#[test]
fn fw503_quiet_on_packed_and_disjoint_offsets() {
    let mut plan = base_plan();
    assert!(lint_schedule(&plan, &cfg())
        .with_code(schedule::TRACK_COLLISION)
        .next()
        .is_none());
    plan.track_offsets = Some(vec![10, 0]); // disjoint, order-free
    assert!(lint_schedule(&plan, &cfg())
        .with_code(schedule::TRACK_COLLISION)
        .next()
        .is_none());
}

#[test]
fn fw504_duplicate_stream_ids_fire() {
    let mut plan = base_plan();
    plan.stream_ids = Some(vec![5, 5]);
    let d = lint_schedule(&plan, &cfg())
        .with_code(schedule::SEED_COLLISION)
        .next()
        .cloned()
        .expect("collision reported");
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("share stream id 5"), "{}", d.message);
}

#[test]
fn fw504_fault_seed_reuse_warns_only_under_faults() {
    let mut plan = base_plan();
    plan.driver = ShardDriver::Resilient;
    plan.fault_seed = Some(plan.campaign_seed);
    plan.faults_enabled = false;
    assert!(lint_schedule(&plan, &cfg())
        .with_code(schedule::SEED_COLLISION)
        .next()
        .is_none());
    plan.faults_enabled = true;
    let d = lint_schedule(&plan, &cfg())
        .with_code(schedule::SEED_COLLISION)
        .next()
        .cloned()
        .expect("reuse reported");
    assert_eq!(d.severity, Severity::Warn);
    assert!(
        d.message.contains("reuse the campaign seed"),
        "{}",
        d.message
    );
}

#[test]
fn fw505_unsorted_and_empty_shards_fire() {
    let mut plan = base_plan();
    plan.assignments = vec![vec![1, 0], vec![2, 3], vec![]];
    let set = lint_schedule(&plan, &cfg());
    let findings: Vec<_> = set.with_code(schedule::MERGE_ORDER_SENSITIVE).collect();
    assert_eq!(findings.len(), 2, "{}", set.render_text());
    let unsorted = findings
        .iter()
        .find(|d| d.severity == Severity::Error)
        .expect("unsorted reported");
    assert!(
        unsorted.message.contains("not strictly ascending"),
        "{}",
        unsorted.message
    );
    assert_eq!(unsorted.location.shard, Some(0));
    let empty = findings
        .iter()
        .find(|d| d.severity == Severity::Warn)
        .expect("empty reported");
    assert_eq!(empty.location.shard, Some(2));
}

#[test]
fn fw506_retry_starvation_fires_on_single_allocation_cap() {
    let mut plan = base_plan();
    plan.driver = ShardDriver::Resilient;
    plan.faults_enabled = true;
    plan.fault_seed = Some(7);
    plan.retry_budget = 3;
    plan.max_allocations_per_shard = 1;
    let d = lint_schedule(&plan, &cfg())
        .with_code(schedule::RETRY_STARVATION)
        .next()
        .cloned()
        .expect("starvation reported");
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("retry budget 3"), "{}", d.message);

    plan.max_allocations_per_shard = 0;
    assert!(lint_schedule(&plan, &cfg())
        .with_code(schedule::RETRY_STARVATION)
        .next()
        .is_some());
}

#[test]
fn fw506_quiet_with_allocation_headroom_or_no_faults() {
    let mut plan = base_plan();
    plan.driver = ShardDriver::Resilient;
    plan.faults_enabled = true;
    plan.fault_seed = Some(7);
    plan.retry_budget = 3;
    plan.max_allocations_per_shard = 2;
    assert!(lint_schedule(&plan, &cfg())
        .with_code(schedule::RETRY_STARVATION)
        .next()
        .is_none());
    plan.max_allocations_per_shard = 1;
    plan.faults_enabled = false;
    assert!(lint_schedule(&plan, &cfg())
        .with_code(schedule::RETRY_STARVATION)
        .next()
        .is_none());
}
