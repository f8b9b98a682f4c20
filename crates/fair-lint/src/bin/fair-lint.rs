//! `fair-lint` — the workflow linter as a CI-enforceable command.
//!
//! ```text
//! fair-lint [--json] [--strict] [--deny CODE]... [--allow CODE]... FILE
//! ```
//!
//! `FILE` is a JSON *lint bundle* (`"schema": "fair-lint-input/1"`)
//! whose sections are all optional and mirror [`PreflightContext`]:
//!
//! * `manifest` — a compiled campaign: `campaign`, `machine`, `app`
//!   (`{name, executable}`), `schema_version`, and `groups` of runs; run
//!   `params` are plain JSON scalars.
//! * `durations_secs` — run id → modeled duration; the key `"*"` is a
//!   default for every run not listed explicitly.
//! * `app` — the application descriptor: `name` plus declared `config`
//!   variables (`{name, type?, default?}`).
//! * `machine` — `{name, nodes}` (institutional-class defaults for the
//!   per-node figures).
//! * `graph` — workflow nodes (`{name, inputs, outputs, config}`, ports
//!   as strings or `{name, format}`) and `edges` as
//!   `[fromNode, fromPort, toNode, toPort]` name quadruples; an unknown
//!   node name deliberately becomes a dangling edge for `FW002`.
//! * `schedule` — a shard plan: `total_runs`, `shards` (arrays of run
//!   indices), `campaign_seed`, `driver` (`"sim"`/`"resilient"`), and
//!   the optional knobs (`track_offsets`, `stream_ids`, `retry_budget`,
//!   `faults`, `fault_seed`, `max_allocations_per_shard`).
//! * `durability` — the journaling setup: `journaling` and `faults`
//!   booleans, `snapshot_every` epochs between compaction snapshots,
//!   and `journal_paths` (one per shard) — checked by `FW207`.
//! * `memo` — the memoization setup: `store`, `seeds_pinned`,
//!   `environment_pinned`, `rand_queue_draws` and `rand_fault_streams`
//!   (queue waits and fault streams sampled at execution time), and
//!   `acknowledged` booleans — checked by `FW208`.
//!
//! With a `manifest` the full [`preflight_campaign`] pass runs;
//! otherwise each supplied layer is linted on its own. `--strict` denies
//! `FW000`, so a typo'd `--deny`/`--allow` code fails the gate instead
//! of being silently inert.
//!
//! Exit codes: **0** no error-level findings, **1** at least one
//! error-level finding, **2** usage or input error. Output is the
//! deterministic text renderer, or the byte-stable JSON renderer under
//! `--json` (what the lint-corpus CI step snapshots).
//!
//! JSON input is read with `telemetry::jsonin`, which keeps integers
//! exact: seeds and stream ids above 2^53 are read as written, and a
//! `fault_seed` that is not an unsigned 64-bit integer is an input error.

use std::collections::BTreeMap;
use std::process::ExitCode;

use cheetah::campaign::AppDef;
use cheetah::manifest::{CampaignManifest, GroupManifest, RunManifest};
use cheetah::param::ParamValue;
use cheetah::sweep::RunConfig;
use fair_core::component::{
    ComponentDescriptor, ComponentKind, ConfigVariable, PortDescriptor, SchemaInfo,
};
use fair_core::workflow::{NodeIdx, WorkflowGraph};
use fair_lint::{
    lint_dataflow, lint_durability_plan, lint_graph, lint_memo_plan, lint_schedule,
    preflight_campaign, DiagnosticSet, DurabilityPlan, LintConfig, MemoPlan, PreflightContext,
    SchedulePlan, ShardDriver, UNKNOWN_RULE_CODE,
};
use hpcsim::cluster::ClusterSpec;
use hpcsim::time::SimDuration;
use telemetry::jsonin::{self, FromJson, Value};

/// Bundle format identifier this binary accepts.
const INPUT_SCHEMA: &str = "fair-lint-input/1";

const USAGE: &str = "usage: fair-lint [--json] [--strict] [--deny CODE]... [--allow CODE]... FILE";

struct Args {
    json: bool,
    config: LintConfig,
    file: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut json = false;
    let mut config = LintConfig::new();
    let mut files = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--strict" => config = config.deny(UNKNOWN_RULE_CODE),
            "--deny" => {
                let code = it.next().ok_or("--deny needs a rule code")?;
                config = config.deny(code.clone());
            }
            "--allow" => {
                let code = it.next().ok_or("--allow needs a rule code")?;
                config = config.allow(code.clone());
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            file => files.push(file.to_string()),
        }
    }
    match files.len() {
        1 => Ok(Args {
            json,
            config,
            file: files.remove(0),
        }),
        0 => Err("no input file".to_string()),
        _ => Err("exactly one input file per invocation".to_string()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fair-lint: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let doc = match std::fs::read_to_string(&args.file) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("fair-lint: cannot read {:?}: {e}", args.file);
            return ExitCode::from(2);
        }
    };
    let diagnostics = match lint_bundle(&doc, &args.config) {
        Ok(set) => set,
        Err(e) => {
            eprintln!("fair-lint: {}: {e}", args.file);
            return ExitCode::from(2);
        }
    };
    if args.json {
        println!("{}", diagnostics.to_json());
    } else {
        print!("{}", diagnostics.render_text());
    }
    if diagnostics.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Parses the bundle and runs every layer it supplies.
fn lint_bundle(doc: &str, config: &LintConfig) -> Result<DiagnosticSet, String> {
    let root = jsonin::parse(doc)?;
    match root.get("schema").and_then(Value::as_str) {
        Some(INPUT_SCHEMA) => {}
        Some(other) => return Err(format!("unsupported input schema {other:?}")),
        None => return Err(format!("missing \"schema\" (expected {INPUT_SCHEMA:?})")),
    }

    let manifest = root.get("manifest").map(parse_manifest).transpose()?;
    let app = root.get("app").map(parse_app).transpose()?;
    let machine = root.get("machine").map(parse_machine).transpose()?;
    let graph = root.get("graph").map(parse_graph).transpose()?;
    let schedule = root.get("schedule").map(parse_schedule).transpose()?;
    let durability = root.get("durability").map(parse_durability).transpose()?;
    let memo = root.get("memo").map(parse_memo).transpose()?;
    let durations = match (&manifest, root.get("durations_secs")) {
        (Some(manifest), Some(section)) => Some(parse_durations(section, manifest)?),
        (None, Some(_)) => return Err("durations_secs needs a manifest".to_string()),
        _ => None,
    };

    if let Some(manifest) = &manifest {
        let ctx = PreflightContext {
            graph: graph.as_ref(),
            app: app.as_ref(),
            machine: machine.as_ref(),
            schedule: schedule.as_ref(),
            durability: durability.as_ref(),
            memo,
            ..PreflightContext::default()
        };
        return Ok(preflight_campaign(
            manifest,
            durations.as_ref(),
            &ctx,
            config,
        ));
    }

    // No manifest: lint each supplied layer on its own.
    let mut set = DiagnosticSet::new();
    if let Some(graph) = &graph {
        set.extend(lint_graph(graph, config));
        set.extend(lint_dataflow(graph, None, config));
    }
    if let Some(plan) = &schedule {
        set.extend(lint_schedule(plan, config));
    }
    if let Some(plan) = &durability {
        set.extend(lint_durability_plan(plan, config));
    }
    if let Some(plan) = &memo {
        set.extend(lint_memo_plan(plan, config));
    }
    set.extend(config.lint_unknown_codes());
    set.sort();
    Ok(set)
}

// ---- section parsers -------------------------------------------------

fn parse_manifest(v: &Value) -> Result<CampaignManifest, String> {
    let app = v.get("app").ok_or("manifest.app missing")?;
    let mut groups = Vec::new();
    for (gi, g) in arr_field(v, "groups")?.iter().enumerate() {
        let mut runs = Vec::new();
        for (ri, r) in arr_field(g, "runs")?.iter().enumerate() {
            let params = r
                .get("params")
                .and_then(Value::as_obj)
                .ok_or_else(|| format!("run #{ri} of group #{gi}: params must be an object"))?
                .iter()
                .map(|(name, value)| Ok((name.clone(), parse_param_value(value)?)))
                .collect::<Result<BTreeMap<_, _>, String>>()?;
            runs.push(RunManifest {
                id: str_field(r, "id")?.to_string(),
                group: str_field(g, "name")?.to_string(),
                params: RunConfig { params },
                workdir: r
                    .get("workdir")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string(),
            });
        }
        groups.push(GroupManifest {
            name: str_field(g, "name")?.to_string(),
            nodes: u32_field(g, "nodes")?,
            per_run_nodes: u32_field(g, "per_run_nodes")?,
            walltime_secs: u64_field(g, "walltime_secs")?,
            runs,
        });
    }
    let manifest = CampaignManifest {
        campaign: str_field(v, "campaign")?.to_string(),
        machine: str_field(v, "machine")?.to_string(),
        app: AppDef::new(str_field(app, "name")?, str_field(app, "executable")?),
        schema_version: u32_field(v, "schema_version")?,
        groups,
    };
    if manifest.schema_version != CampaignManifest::SCHEMA_VERSION {
        return Err(format!(
            "unsupported manifest schema version {}",
            manifest.schema_version
        ));
    }
    Ok(manifest)
}

/// A parameter value as the manifest codec reads it: an integer in
/// `i64` range stays exact, any other number is a float.
fn parse_param_value(v: &Value) -> Result<ParamValue, String> {
    match v {
        Value::Arr(_) | Value::Obj(_) | Value::Null => {
            Err("parameter values must be JSON scalars".to_string())
        }
        scalar => ParamValue::from_value(scalar),
    }
}

/// Run id → duration; the `"*"` entry fills in every run the map does
/// not list explicitly.
fn parse_durations(
    v: &Value,
    manifest: &CampaignManifest,
) -> Result<BTreeMap<String, SimDuration>, String> {
    let members = v.as_obj().ok_or("durations_secs must be an object")?;
    let mut out = BTreeMap::new();
    let mut default = None;
    for (key, value) in members {
        let secs = value
            .as_f64()
            .filter(|s| s.is_finite() && *s >= 0.0)
            .ok_or_else(|| format!("durations_secs[{key:?}] must be a non-negative number"))?;
        let duration = SimDuration::from_secs_f64(secs);
        if key == "*" {
            default = Some(duration);
        } else {
            out.insert(key.clone(), duration);
        }
    }
    if let Some(default) = default {
        for group in &manifest.groups {
            for run in &group.runs {
                out.entry(run.id.clone()).or_insert(default);
            }
        }
    }
    Ok(out)
}

fn parse_app(v: &Value) -> Result<ComponentDescriptor, String> {
    let mut app = ComponentDescriptor::new(str_field(v, "name")?, "0", ComponentKind::Executable);
    if let Some(config) = v.get("config") {
        app.config = parse_config_vars(config)?;
    }
    Ok(app)
}

fn parse_machine(v: &Value) -> Result<ClusterSpec, String> {
    Ok(ClusterSpec::new(
        str_field(v, "name")?,
        u32_field(v, "nodes")?,
        32,
        4.0e10,
    ))
}

fn parse_graph(v: &Value) -> Result<WorkflowGraph, String> {
    let mut graph = WorkflowGraph::new();
    let mut by_name: BTreeMap<String, NodeIdx> = BTreeMap::new();
    for (ni, n) in arr_field(v, "nodes")?.iter().enumerate() {
        let name = str_field(n, "name")?;
        let mut component = ComponentDescriptor::new(name, "0", ComponentKind::Executable);
        if let Some(ports) = n.get("inputs") {
            component.inputs = parse_ports(ports, ni, "inputs")?;
        }
        if let Some(ports) = n.get("outputs") {
            component.outputs = parse_ports(ports, ni, "outputs")?;
        }
        if let Some(config) = n.get("config") {
            component.config = parse_config_vars(config)?;
        }
        let idx = graph.add(component);
        by_name.insert(name.to_string(), idx);
    }
    for (ei, e) in v
        .get("edges")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .enumerate()
    {
        let quad = e
            .as_arr()
            .filter(|q| q.len() == 4)
            .ok_or_else(|| format!("edge #{ei} must be [fromNode, fromPort, toNode, toPort]"))?;
        let part = |i: usize| {
            quad[i]
                .as_str()
                .ok_or_else(|| format!("edge #{ei}: element {i} must be a string"))
        };
        // An unknown node name maps to an out-of-range index: the edge
        // is materialized dangling and FW002 reports it.
        let resolve = |name: &str| by_name.get(name).copied().unwrap_or(NodeIdx(graph.len()));
        let (from, from_port, to, to_port) =
            (resolve(part(0)?), part(1)?, resolve(part(2)?), part(3)?);
        graph.connect_unchecked(from, from_port, to, to_port);
    }
    Ok(graph)
}

/// Ports are strings, or `{name, format}` to declare a named schema.
fn parse_ports(v: &Value, node: usize, section: &str) -> Result<Vec<PortDescriptor>, String> {
    let items = v
        .as_arr()
        .ok_or_else(|| format!("node #{node}: {section} must be an array"))?;
    let mut ports = Vec::new();
    for item in items {
        let mut port = PortDescriptor {
            name: String::new(),
            data: Default::default(),
        };
        match item {
            Value::Str(name) => port.name = name.clone(),
            Value::Obj(_) => {
                port.name = str_field(item, "name")?.to_string();
                if let Some(format) = item.get("format").and_then(Value::as_str) {
                    port.data.schema = Some(SchemaInfo::Named {
                        format: format.to_string(),
                    });
                }
            }
            _ => {
                return Err(format!(
                    "node #{node}: {section} entries must be strings or objects"
                ))
            }
        }
        ports.push(port);
    }
    Ok(ports)
}

/// Config variables: `{name, type?, default?}`.
fn parse_config_vars(v: &Value) -> Result<Vec<ConfigVariable>, String> {
    let items = v.as_arr().ok_or("config must be an array")?;
    let mut vars = Vec::new();
    for item in items {
        vars.push(ConfigVariable {
            name: str_field(item, "name")?.to_string(),
            var_type: item
                .get("type")
                .and_then(Value::as_str)
                .unwrap_or("str")
                .to_string(),
            default: item
                .get("default")
                .and_then(Value::as_str)
                .map(str::to_string),
            description: String::new(),
            related_to: Vec::new(),
        });
    }
    Ok(vars)
}

fn parse_schedule(v: &Value) -> Result<SchedulePlan, String> {
    let mut assignments = Vec::new();
    for (si, shard) in arr_field(v, "shards")?.iter().enumerate() {
        let runs = shard
            .as_arr()
            .ok_or_else(|| format!("shard #{si} must be an array of run indices"))?
            .iter()
            .map(|r| {
                r.as_u64()
                    .and_then(|r| usize::try_from(r).ok())
                    .ok_or_else(|| format!("shard #{si}: run indices must be integers"))
            })
            .collect::<Result<Vec<usize>, String>>()?;
        assignments.push(runs);
    }
    let driver = match str_field(v, "driver")? {
        "sim" => ShardDriver::Sim,
        "resilient" => ShardDriver::Resilient,
        other => return Err(format!("unknown driver {other:?} (sim|resilient)")),
    };
    let u64_list = |key: &str| -> Result<Option<Vec<u64>>, String> {
        match v.get(key) {
            None => Ok(None),
            Some(list) => list
                .as_arr()
                .ok_or_else(|| format!("{key} must be an array"))?
                .iter()
                .map(|x| {
                    x.as_u64()
                        .ok_or_else(|| format!("{key} entries must be integers"))
                })
                .collect::<Result<Vec<u64>, String>>()
                .map(Some),
        }
    };
    let fault_seed = match v.get("fault_seed") {
        None => None,
        Some(seed) => Some(
            seed.as_u64()
                .ok_or("fault_seed must be an unsigned 64-bit integer")?,
        ),
    };
    let track_offsets = match u64_list("track_offsets")? {
        None => None,
        Some(offsets) => Some(
            offsets
                .into_iter()
                .map(|o| u32::try_from(o).map_err(|_| format!("track offset {o} exceeds u32")))
                .collect::<Result<Vec<u32>, String>>()?,
        ),
    };
    Ok(SchedulePlan {
        assignments,
        total_runs: usize::try_from(u64_field(v, "total_runs")?)
            .map_err(|_| "total_runs exceeds usize")?,
        campaign_seed: u64_field(v, "campaign_seed")?,
        fault_seed,
        stream_ids: u64_list("stream_ids")?,
        track_offsets,
        driver,
        retry_budget: match v.get("retry_budget") {
            None => 0,
            Some(_) => u32_field(v, "retry_budget")?,
        },
        faults_enabled: matches!(v.get("faults"), Some(Value::Bool(true))),
        max_allocations_per_shard: u32_field(v, "max_allocations_per_shard")?,
    })
}

/// The durability setup: `journaling` / `faults` booleans,
/// `snapshot_every` (an epoch count, or the string `"never"` for a
/// journal that is never compacted), and the per-shard `journal_paths`.
fn parse_durability(v: &Value) -> Result<DurabilityPlan, String> {
    let snapshot_every = match v.get("snapshot_every") {
        Some(Value::Str(s)) if s == "never" => usize::MAX,
        Some(n) => n
            .as_u64()
            .ok_or("snapshot_every must be an integer or \"never\"")? as usize,
        None => return Err("missing field \"snapshot_every\"".to_string()),
    };
    let journal_paths = match v.get("journal_paths") {
        None => Vec::new(),
        Some(list) => list
            .as_arr()
            .ok_or("journal_paths must be an array")?
            .iter()
            .enumerate()
            .map(|(i, p)| {
                p.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("journal_paths[{i}] must be a string"))
            })
            .collect::<Result<Vec<String>, String>>()?,
    };
    Ok(DurabilityPlan {
        journaling_enabled: matches!(v.get("journaling"), Some(Value::Bool(true))),
        faults_enabled: matches!(v.get("faults"), Some(Value::Bool(true))),
        snapshot_every,
        journal_paths,
    })
}

/// The memoization setup: all-boolean knobs mirroring [`MemoPlan`].
/// `store` says whether a content-addressed store path is configured;
/// `acknowledged` opts into caching despite sampled inputs, which the
/// cache key does not pin (`rand_queue_draws`, `rand_fault_streams`).
fn parse_memo(v: &Value) -> Result<MemoPlan, String> {
    let flag = |key: &str| -> Result<bool, String> {
        match v.get(key) {
            None => Ok(false),
            Some(Value::Bool(b)) => Ok(*b),
            Some(_) => Err(format!("memo.{key} must be a boolean")),
        }
    };
    Ok(MemoPlan {
        store_configured: flag("store")?,
        seeds_pinned: flag("seeds_pinned")?,
        environment_pinned: flag("environment_pinned")?,
        rand_queue_draws: flag("rand_queue_draws")?,
        rand_fault_streams: flag("rand_fault_streams")?,
        nondeterminism_acknowledged: flag("acknowledged")?,
    })
}

// ---- jsonin accessors with contextual errors -------------------------

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

fn u32_field(v: &Value, key: &str) -> Result<u32, String> {
    u32::try_from(u64_field(v, key)?).map_err(|_| format!("field {key:?} exceeds u32"))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

fn arr_field<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    v.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("missing or non-array field {key:?}"))
}
