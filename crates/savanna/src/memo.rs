//! Content-addressed campaign memoization with a provenance DAG.
//!
//! The FAIR argument for caching is an argument about *identity*: a run's
//! result is reusable exactly when every input that could change it is
//! named, pinned, and hashed (PAPER §II, "machine-actionable knowledge").
//! A [`Driver::memoized`](crate::Driver::memoized) campaign makes that
//! literal. Before execution, every run in
//! the campaign is projected to a canonical [`MEMO_KEY_SCHEMA`] JSON
//! document — resolved parameters, modeled duration, allocation-series
//! recipe, the full seed-derivation chain, driver family, resilience
//! policy and fault environment, and the toolkit/schema
//! [`EnvironmentPins`] — and hashed with
//! [`fair_hash128`](cheetah::cas::fair_hash128) into its cache key.
//! Keys are looked up in a [`CasStore`]; hits are spliced back without
//! executing, misses execute and are stored for next time.
//!
//! **The warm/cold invariant.** A memoized rerun must be byte-identical
//! to a cold one: same StatusBoard canonical JSON, same telemetry
//! snapshot, same digests. Two design rules buy that property:
//!
//! 1. **Unit shards.** A memoized campaign always executes under a
//!    one-run-per-shard [`ShardPlan`](crate::ShardPlan) (shard index ==
//!    global run index), so every
//!    run's series seed (`SeedStream::new(campaign_seed).child(i)`),
//!    fault-stream seed, and telemetry track offset are pure functions
//!    of the manifest position — independent of which *other* runs hit
//!    the cache.
//! 2. **One merge path.** The store holds each run's *local* output
//!    (unprefixed track names, unrebased board refs). Cached and
//!    executed runs then flow through the sharded execution's merge step
//!    ([`crate::shard`]) — rebase refs, merge boards, prefix tracks,
//!    merge snapshots at plan-derived offsets — so a hit is
//!    indistinguishable from the execution it replaced. Misses run
//!    through the sharded execution's per-shard body.
//!
//! Corruption of the store is never an error: a frame that fails its CRC,
//! a payload that does not decode, or an embedded board that does not
//! round-trip is simply a **miss** and the run re-executes (the same
//! advisory posture as [`cheetah::journal`] recovery).
//!
//! Every memoized campaign also assembles a [`CampaignProvenance`] DAG —
//! per-run records linking parameters, seeds, cache keys, output digests,
//! and policy/fault context to the campaign entity — exported as a
//! canonical `fair-provenance/1` document for archival next to results.
//!
//! A memoized campaign is never journaled ([`SavannaError::JournaledMemo`]):
//! cache hits never run, so their shard sub-logs would not exist, and a
//! resume could not validate a campaign whose executed set depends on
//! the store.
//!
//! Safety is gated statically: `fair-lint`'s `FW208` rule refuses
//! memoization when the key would be unsound (see [`memo_lint_plan`]),
//! e.g. sampled queue waits or fault streams without an explicit
//! [`MemoConfig::acknowledge_rand_nondeterminism`] opt-in.

use std::path::PathBuf;

use cheetah::cas::{fair_hash128, CasStore, Hash128};
use cheetah::manifest::{CampaignManifest, RunManifest};
use cheetah::param::ParamValue;
use cheetah::status::StatusBoard;
use fair_lint::MemoPlan;
use hpcsim::seed::SeedStream;
use hpcsim::time::SimDuration;
use provenance::{
    CampaignProvenance, CodeIdentity, EnvironmentPins, FaultSummary, ProvenanceRecord,
    ResilienceSummary, SeedDerivation, StallSummary,
};
use telemetry::json::{write_f64, write_str, write_u64, write_u64_str, Cursor};
use telemetry::{snapshot_from_json, snapshot_json, Telemetry};

use crate::driver::{CampaignReport, RunRow};
use crate::error::SavannaError;
use crate::resilience::{FaultPlan, ResiliencePolicy, RestartStrategy};
use crate::shard::{execute_shards, Merge, SeriesSpec, ShardOut, Shards};

/// Schema id of the canonical cache-key document.
pub const MEMO_KEY_SCHEMA: &str = "fair-memo-key/1";
/// Schema id of the cached run-output payload.
pub const MEMO_PAYLOAD_SCHEMA: &str = "fair-memo/1";

/// Where and how a campaign memoizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoConfig {
    /// Path of the content-addressed store file.
    pub store_path: PathBuf,
    /// Whether the caller acknowledges that sampled inputs (queue waits,
    /// node-crash/stall streams) tie cached results to the sampler code
    /// that drew them: the key pins the toolkit version, not
    /// `hpcsim::seed::SplitMix64` and the samplers over it. Without this,
    /// `FW208` refuses such campaigns at preflight.
    pub allow_rand_nondeterminism: bool,
}

impl MemoConfig {
    /// A config storing at `store_path`, with no nondeterminism opt-in.
    pub fn new(store_path: impl Into<PathBuf>) -> Self {
        Self {
            store_path: store_path.into(),
            allow_rand_nondeterminism: false,
        }
    }

    /// Opts into caching sampled inputs (builder-style). The cache then
    /// remains valid only while the samplers are unchanged — see
    /// `FW208`'s message for why the opt-in is explicit.
    #[must_use]
    pub fn acknowledge_rand_nondeterminism(mut self) -> Self {
        self.allow_rand_nondeterminism = true;
        self
    }
}

/// How one run was satisfied: from the cache or by execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoRunOutcome {
    /// Run id from the manifest.
    pub run_id: String,
    /// The run's cache key, 32 lowercase hex digits.
    pub key: String,
    /// True when the result was served from the store.
    pub cached: bool,
}

/// What the memo layer adds to a [`CampaignReport`].
#[derive(Debug, Clone)]
pub struct MemoReport {
    /// Runs that actually executed (cache misses).
    pub executed_runs: usize,
    /// Runs served from the store (cache hits).
    pub cached_runs: usize,
    /// Per-run outcome (key + hit/miss), in manifest order.
    pub runs: Vec<MemoRunOutcome>,
    /// The campaign's provenance DAG.
    pub provenance: CampaignProvenance,
}

impl MemoReport {
    /// True when no run had to execute.
    pub fn fully_cached(&self) -> bool {
        self.executed_runs == 0
    }
}

/// Projects a memoized campaign's configuration down to the linter's
/// [`MemoPlan`], so `FW208` can gate it before launch
/// ([`crate::Driver::run`] calls this; it is public for
/// [`fair_lint::PreflightContext`] users who gate earlier). `faults` is
/// `None` for the sim backend.
pub fn memo_lint_plan(
    memo: &MemoConfig,
    spec: &SeriesSpec,
    faults: Option<&FaultPlan>,
) -> MemoPlan {
    MemoPlan {
        store_configured: !memo.store_path.as_os_str().is_empty(),
        // Both are structural properties of these drivers: every key doc
        // embeds the full seed chain and the environment pins.
        seeds_pinned: true,
        environment_pinned: true,
        rand_queue_draws: spec.mean_queue_wait > SimDuration::ZERO,
        rand_fault_streams: faults.is_some_and(|f| f.node_mttf.is_some() || f.stalls.is_some()),
        nondeterminism_acknowledged: memo.allow_rand_nondeterminism,
    }
}

/// The environment pins every memoized run is keyed under: the toolkit
/// version plus the schema ids of every format that shapes the cached
/// bytes. Deliberately *portable* (no OS/arch) — the simulation is pure,
/// so the same inputs yield the same bytes on any machine, and the
/// committed key goldens stay machine-independent.
fn memo_environment(manifest: &CampaignManifest) -> EnvironmentPins {
    EnvironmentPins::portable()
        .pin_schema("fair-manifest", &manifest.schema_version.to_string())
        .pin_schema("fair-memo-key", MEMO_KEY_SCHEMA)
        .pin_schema("fair-memo", MEMO_PAYLOAD_SCHEMA)
        .pin_schema("fair-telemetry-snapshot", telemetry::SNAPSHOT_SCHEMA)
}

/// Refuses a campaign whose key documents would hold a non-finite
/// float: `write_f64` writes every one of them as `null`, so NaN, inf and
/// -inf campaigns would share keys.
pub(crate) fn check_key_inputs(
    spec: &SeriesSpec,
    faults: Option<&FaultPlan>,
) -> Result<(), SavannaError> {
    let stalls = faults.and_then(|f| f.stalls.as_ref());
    let inputs = [
        ("queue_cv", Some(spec.queue_cv)),
        ("slowdown", stalls.map(|s| s.slowdown)),
        ("io_fraction", stalls.map(|s| s.io_fraction)),
    ];
    for (field, value) in inputs {
        if let Some(value) = value.filter(|v| !v.is_finite()) {
            return Err(SavannaError::NonFiniteMemoInput { field, value });
        }
    }
    Ok(())
}

// --- canonical JSON writing (key docs and payloads) -------------------------
//
// With `telemetry::json`: `u64`s as quoted strings, `f64`s as numbers. No
// float is non-finite here: `check_key_inputs` refused such a campaign.

fn param_tag(value: &ParamValue) -> &'static str {
    match value {
        ParamValue::Int(_) => "i",
        ParamValue::Float(_) => "f",
        ParamValue::Bool(_) => "b",
        ParamValue::Str(_) => "s",
    }
}

/// The canonical [`MEMO_KEY_SCHEMA`] documents of one campaign's runs.
///
/// A key document names every input that can change a run's observable
/// output, in a fixed field order; hashing it *is* the cache key. Most
/// of those inputs are the same for every run of a campaign — its
/// identity, the series recipe, the driver, the policy and the fault
/// environment, the environment pins — so they are rendered once here,
/// and [`KeyTemplate::render`] writes only a run's own fields (id,
/// group, workdir, params, duration and seeds) between them.
struct KeyTemplate {
    /// From the schema id up to the run's id.
    head: String,
    /// Each group's sizing, in manifest order.
    groups: Vec<String>,
    /// The series recipe up to the run's seed index.
    series: String,
    /// From the driver up to the run's derived fault seed, or through
    /// a `null` fault environment.
    context: String,
    /// Whether a derived fault seed follows `context`.
    faulted: bool,
    /// The environment pins and the closing braces.
    tail: String,
}

impl KeyTemplate {
    #[allow(clippy::too_many_arguments)] // one field per pinned input, by design
    fn new(
        manifest: &CampaignManifest,
        spec: &SeriesSpec,
        campaign_seed: u64,
        driver: &str,
        traced: bool,
        max_allocations: u32,
        policy: Option<&ResiliencePolicy>,
        faults: Option<&FaultPlan>,
        env: &EnvironmentPins,
    ) -> Self {
        use std::fmt::Write;
        let mut head = String::with_capacity(256);
        head.push_str("{\"schema\":\"");
        head.push_str(MEMO_KEY_SCHEMA);
        head.push_str("\",\"campaign\":");
        write_str(&mut head, &manifest.campaign);
        head.push_str(",\"machine\":");
        write_str(&mut head, &manifest.machine);
        head.push_str(",\"app\":{\"name\":");
        write_str(&mut head, &manifest.app.name);
        head.push_str(",\"executable\":");
        write_str(&mut head, &manifest.app.executable);
        let _ = write!(head, "}},\"manifest_schema\":{}", manifest.schema_version);
        head.push_str(",\"run\":{\"id\":");

        let groups = manifest
            .groups
            .iter()
            .map(|group| {
                format!(
                    ",\"group\":{{\"nodes\":{},\"per_run_nodes\":{},\"walltime_secs\":{}}}",
                    group.nodes, group.per_run_nodes, group.walltime_secs
                )
            })
            .collect();

        let mut series = String::with_capacity(192);
        let _ = write!(series, ",\"series\":{{\"job_nodes\":{}", spec.job.nodes);
        series.push_str(",\"job_walltime_us\":");
        write_u64_str(&mut series, spec.job.walltime.0);
        series.push_str(",\"mean_queue_wait_us\":");
        write_u64_str(&mut series, spec.mean_queue_wait.0);
        series.push_str(",\"queue_cv\":");
        write_f64(&mut series, spec.queue_cv);
        series.push_str("},\"seed\":{\"campaign\":");
        write_u64_str(&mut series, campaign_seed);
        series.push_str(",\"index\":");

        let mut context = String::with_capacity(512);
        let _ = write!(
            context,
            "}},\"driver\":\"{driver}\",\"traced\":{traced},\"max_allocations\":{max_allocations}"
        );
        context.push_str(",\"policy\":");
        match policy {
            None => context.push_str("null"),
            Some(p) => {
                let _ = write!(context, "{{\"retry_budget\":{}", p.retry_budget);
                context.push_str(",\"backoff_base_us\":");
                write_u64_str(&mut context, p.backoff_base.0);
                context.push_str(",\"backoff_factor\":");
                write_f64(&mut context, p.backoff_factor);
                context.push_str(",\"max_backoff_us\":");
                write_u64_str(&mut context, p.max_backoff.0);
                let _ = write!(
                    context,
                    ",\"quarantine_threshold\":{}",
                    p.quarantine_threshold
                );
                context.push_str(",\"hang_timeout_fraction\":");
                write_f64(&mut context, p.hang_timeout_fraction);
                context.push_str(",\"restart\":");
                write_str(&mut context, &restart_name(&p.restart));
                context.push('}');
            }
        }
        context.push_str(",\"faults\":");
        match faults {
            None => context.push_str("null"),
            Some(f) => {
                context.push_str("{\"failure_probability\":");
                write_f64(&mut context, f.run_faults.failure_probability);
                context.push_str(",\"spec_seed\":");
                write_u64_str(&mut context, f.run_faults.seed);
                context.push_str(",\"node_mttf_us\":");
                match f.node_mttf {
                    None => context.push_str("null"),
                    Some(mttf) => write_u64_str(&mut context, mttf.0),
                }
                context.push_str(",\"stalls\":");
                match &f.stalls {
                    None => context.push_str("null"),
                    Some(s) => {
                        context.push_str("{\"mean_between_us\":");
                        write_u64_str(&mut context, s.mean_between.0);
                        context.push_str(",\"duration_us\":");
                        write_u64_str(&mut context, s.duration.0);
                        context.push_str(",\"slowdown\":");
                        write_f64(&mut context, s.slowdown);
                        context.push_str(",\"io_fraction\":");
                        write_f64(&mut context, s.io_fraction);
                        context.push('}');
                    }
                }
                context.push_str(",\"plan_seed\":");
                write_u64_str(&mut context, f.seed);
                context.push_str(",\"derived_seed\":");
            }
        }

        let mut tail = String::with_capacity(256);
        if faults.is_some() {
            tail.push('}');
        }
        tail.push_str(",\"environment\":{\"toolkit\":");
        write_str(&mut tail, &env.toolkit_version);
        tail.push_str(",\"schemas\":{");
        for (i, (name, id)) in env.schemas.iter().enumerate() {
            if i > 0 {
                tail.push(',');
            }
            write_str(&mut tail, name);
            tail.push(':');
            write_str(&mut tail, id);
        }
        tail.push_str("},\"os\":");
        match &env.os {
            None => tail.push_str("null"),
            Some(os) => write_str(&mut tail, os),
        }
        tail.push_str(",\"arch\":");
        match &env.arch {
            None => tail.push_str("null"),
            Some(arch) => write_str(&mut tail, arch),
        }
        tail.push_str("}}");

        Self {
            head,
            groups,
            series,
            context,
            faulted: faults.is_some(),
            tail,
        }
    }

    /// Appends the key document of `run`, the `group`-th group's run at
    /// manifest position `seed.index`. `fault_seed` is the run's derived
    /// fault-stream seed, present exactly when the campaign has a fault
    /// environment.
    fn render(
        &self,
        out: &mut String,
        group: usize,
        run: &RunManifest,
        duration: SimDuration,
        seed: SeedDerivation,
        fault_seed: Option<u64>,
    ) {
        out.push_str(&self.head);
        write_str(out, &run.id);
        out.push_str(",\"group\":");
        write_str(out, &run.group);
        out.push_str(",\"workdir\":");
        write_str(out, &run.workdir);
        out.push_str(",\"params\":[");
        for (i, (name, value)) in run.params.params.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            write_str(out, name);
            out.push_str(",\"");
            out.push_str(param_tag(value));
            out.push_str("\",");
            write_str(out, &value.render());
            out.push(']');
        }
        out.push_str("]}");
        out.push_str(&self.groups[group]);
        out.push_str(",\"duration_us\":");
        write_u64_str(out, duration.0);
        out.push_str(&self.series);
        write_u64_str(out, seed.index);
        out.push_str(",\"derived\":");
        write_u64_str(out, seed.derived);
        out.push_str(&self.context);
        debug_assert_eq!(self.faulted, fault_seed.is_some());
        if let Some(derived) = fault_seed {
            write_u64_str(out, derived);
        }
        out.push_str(&self.tail);
    }
}

fn restart_name(restart: &RestartStrategy) -> String {
    match restart {
        RestartStrategy::FromScratch => "from-scratch".to_string(),
        RestartStrategy::FromCheckpoint { interval } => {
            format!("from-checkpoint/{}", interval.0)
        }
    }
}

// --- cached payloads --------------------------------------------------------

/// Encodes a run's output, in its *local* form (the one-run board exactly
/// as the serial loop left it, no ref rebase, no track prefix), for the
/// store; `board_json` is its board's canonical JSON, which the caller
/// has already rendered for the digest.
fn encode_payload(run_id: &str, out: &ShardOut, board_json: &str) -> String {
    let mut doc = String::with_capacity(512);
    doc.push_str("{\"schema\":\"");
    doc.push_str(MEMO_PAYLOAD_SCHEMA);
    doc.push_str("\",\"run_id\":");
    write_str(&mut doc, run_id);
    doc.push_str(",\"completed\":");
    write_u64(&mut doc, out.completed as u64);
    doc.push_str(",\"remaining\":");
    write_u64(&mut doc, out.remaining as u64);
    doc.push_str(",\"span_us\":");
    write_u64_str(&mut doc, out.span.0);
    doc.push_str(",\"board\":");
    write_str(&mut doc, board_json);
    doc.push_str(",\"snapshot\":");
    match &out.snapshot {
        None => doc.push_str("null"),
        Some(snap) => write_str(&mut doc, &snapshot_json(snap)),
    }
    doc.push('}');
    doc
}

/// Decodes a stored payload back into a spliceable output and its digest,
/// the hash of the board's canonical JSON.
///
/// The store only ever holds what [`encode_payload`] wrote, so this
/// reads exactly that layout with `telemetry::json`'s cursor — its fields
/// in its order, strings with only the escapes the writer writes — in one
/// pass, and parses the board once, from its unescaped text in `scratch`
/// (a buffer the caller reuses across runs). Any defect — another layout,
/// wrong schema, wrong run, a board that is not exactly canonical JSON, a
/// snapshot/traced mismatch — yields `None`, which the driver treats as
/// a cache miss (the entry is poisoned; the run re-executes and the
/// store heals on the next put).
fn decode_payload(
    bytes: &[u8],
    run_id: &str,
    traced: bool,
    scratch: &mut String,
) -> Option<(ShardOut, Hash128)> {
    let mut c = Cursor::new(std::str::from_utf8(bytes).ok()?);
    c.lit("{\"schema\":")?;
    if c.str_ref()? != MEMO_PAYLOAD_SCHEMA {
        return None;
    }
    if c.member("run_id")?.str_ref()? != run_id {
        return None;
    }
    let completed = usize::try_from(c.member("completed")?.u64()?).ok()?;
    let remaining = usize::try_from(c.member("remaining")?.u64()?).ok()?;
    let span = SimDuration(c.member("span_us")?.u64_str()?);
    // exact, so the stored text is the canonical form the digest hashes
    scratch.clear();
    c.member("board")?.str_into(scratch)?;
    let digest = fair_hash128(scratch.as_bytes());
    let board = StatusBoard::from_exact_canonical_json(scratch)?;
    c.member("snapshot")?;
    let snapshot = if c.eat("null") {
        None
    } else {
        scratch.clear();
        c.str_into(scratch)?;
        Some(snapshot_from_json(scratch).ok()?)
    };
    if !(c.eat("}") && c.at_end()) {
        return None;
    }
    // `traced` is part of the key, so a mismatch here means the frame
    // was poisoned after the fact — miss, don't splice.
    if traced != snapshot.is_some() {
        return None;
    }
    Some((
        ShardOut {
            completed,
            remaining,
            span,
            board,
            snapshot,
            report: None,
            journal: None,
        },
        digest,
    ))
}

// --- the memoized execution ------------------------------------------------

/// The memoized execution: keys every run, probes the store, runs the
/// misses through the per-shard body (one row per shard), stores their
/// local outputs, and merges hits and fresh outputs in manifest order on
/// the same merge step. `rows` are the manifest's runs, in order; `cx`
/// carries the unit plan's offsets.
pub(crate) fn run_memoized(
    cx: &Shards<'_>,
    rows: &[RunRow<'_>],
    manifest: &CampaignManifest,
    campaign_seed: u64,
    memo: &MemoConfig,
    board: &mut StatusBoard,
    tel: &Telemetry,
) -> Result<CampaignReport, SavannaError> {
    let total = rows.len();
    let (policy, faults) = (cx.backend.policy(), cx.backend.faults());
    let env = memo_environment(manifest);
    let fault_stream = faults.map(|f| SeedStream::new(f.seed));

    // Key every run.
    let template = KeyTemplate::new(
        manifest,
        cx.spec,
        campaign_seed,
        cx.backend.name(),
        cx.traced,
        cx.max_allocations,
        policy,
        faults,
        &env,
    );
    let mut doc = String::new();
    let mut keys: Vec<Hash128> = Vec::with_capacity(total);
    let mut seeds: Vec<SeedDerivation> = Vec::with_capacity(total);
    for (i, row) in rows.iter().enumerate() {
        let seed = SeedDerivation {
            campaign_seed,
            index: i as u64,
            derived: cx.seeds.child(i as u64).seed(),
        };
        let fault_seed = fault_stream
            .as_ref()
            .map(|stream| stream.child(i as u64).seed());
        doc.clear();
        template.render(
            &mut doc,
            row.group,
            row.run,
            row.duration(),
            seed,
            fault_seed,
        );
        keys.push(fair_hash128(doc.as_bytes()));
        seeds.push(seed);
    }

    // Probe: decode hits up front (a frame that fails to decode is a
    // miss, not an error).
    let mut store = CasStore::open(&memo.store_path)?;
    let mut scratch = String::new();
    let mut cached: Vec<Option<(ShardOut, Hash128)>> = (0..total)
        .map(|i| {
            store
                .get(keys[i])
                .and_then(|bytes| decode_payload(bytes, rows[i].id(), cx.traced, &mut scratch))
        })
        .collect();
    let misses: Vec<usize> = (0..total).filter(|&i| cached[i].is_none()).collect();

    // Execute exactly the misses, one run per shard. The board is
    // rendered and the payload encoded in the worker.
    let board_view: &StatusBoard = board;
    let run_miss = |j: usize| -> Result<(ShardOut, Hash128, String), SavannaError> {
        let s = misses[j];
        // a unit shard is one row of the table
        let mut out = cx.run_shard(s, std::slice::from_ref(&rows[s]), board_view)?;
        // a cached run has no loop report, so an executed one keeps none
        out.report = None;
        let board_json = out.board.canonical_json();
        let payload = encode_payload(rows[s].id(), &out, &board_json);
        Ok((out, fair_hash128(board_json.as_bytes()), payload))
    };
    let outputs = execute_shards(cx.pool, &vec![1usize; misses.len()], run_miss);

    // Store every fresh output (local form — this is what a future warm
    // run splices), then scatter back to global run index.
    let mut executed: Vec<Option<(ShardOut, Hash128)>> = (0..total).map(|_| None).collect();
    for (j, output) in outputs.into_iter().enumerate() {
        let (out, digest, payload) = output?;
        let s = misses[j];
        store.put(keys[s], payload.as_bytes())?;
        executed[s] = Some((out, digest));
    }
    // one fsync for the whole batch — per-put durability would cost an
    // fsync per run for no benefit (a torn tail is just a future miss)
    store.sync()?;

    // Merge in full plan order, hits and fresh outputs interleaved on
    // the identical path.
    let resilience_summary = policy.map(|p| ResilienceSummary {
        retry_budget: p.retry_budget,
        backoff_base_us: p.backoff_base.0,
        backoff_factor: p.backoff_factor,
        max_backoff_us: p.max_backoff.0,
        quarantine_threshold: p.quarantine_threshold,
        hang_timeout_fraction: p.hang_timeout_fraction,
        restart: restart_name(&p.restart),
    });
    let fault_summary = faults.map(|f| FaultSummary {
        failure_probability: f.run_faults.failure_probability,
        spec_seed: f.run_faults.seed,
        node_mttf_us: f.node_mttf.map(|d| d.0),
        stalls: f.stalls.as_ref().map(|s| StallSummary {
            mean_between_us: s.mean_between.0,
            duration_us: s.duration.0,
            slowdown: s.slowdown,
            io_fraction: s.io_fraction,
        }),
        plan_seed: f.seed,
    });
    let mut merge = Merge::new(cx);
    let mut outcomes = Vec::with_capacity(total);
    let mut records = Vec::with_capacity(total);
    for i in 0..total {
        let was_cached = executed[i].is_none();
        let (out, digest) = executed[i]
            .take()
            .or_else(|| cached[i].take())
            .expect("every run is either cached or executed");
        let run = rows[i].run;
        // Digest and status come from the *local* board — the same bytes
        // the store holds, so warm and cold agree.
        let status = out.board.get(&run.id).as_str().to_string();
        merge.add(i, [run.id.as_str()], out, board, None)?;
        let cache_key = keys[i].to_hex();
        outcomes.push(MemoRunOutcome {
            run_id: run.id.clone(),
            key: cache_key.clone(),
            cached: was_cached,
        });
        records.push(ProvenanceRecord {
            run_id: run.id.clone(),
            group: run.group.clone(),
            params: run
                .params
                .params
                .iter()
                .map(|(name, value)| (name.clone(), param_tag(value).to_string(), value.render()))
                .collect(),
            cache_key,
            output_digest: digest.to_hex(),
            seed: seeds[i],
            driver: cx.backend.name().to_string(),
            traced: cx.traced,
            cached: was_cached,
            status,
            resilience: resilience_summary.clone(),
            faults: fault_summary.clone(),
        });
    }
    let mut report = merge.finish(tel);
    report.memo = Some(MemoReport {
        executed_runs: misses.len(),
        cached_runs: total - misses.len(),
        runs: outcomes,
        provenance: CampaignProvenance {
            campaign: manifest.campaign.clone(),
            machine: manifest.machine.clone(),
            code: CodeIdentity {
                app: manifest.app.name.clone(),
                executable: manifest.app.executable.clone(),
            },
            campaign_seed,
            environment: env,
            runs: records,
        },
    });
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::StallSpec;
    use crate::{Driver, PilotScheduler};
    use cheetah::campaign::{AppDef, Campaign, SweepGroup};
    use cheetah::manifest::GroupManifest;
    use cheetah::param::SweepSpec;
    use cheetah::sweep::Sweep;
    use hpcsim::batch::BatchJob;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static SCRATCH: AtomicUsize = AtomicUsize::new(0);

    fn scratch_store(tag: &str) -> PathBuf {
        let n = SCRATCH.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("savanna-memo-{tag}-{}-{n}.cas", std::process::id()))
    }

    fn manifest(runs: i64) -> CampaignManifest {
        Campaign::new("memotest", "inst", AppDef::new("app", "app.exe"))
            .with_group(SweepGroup::new(
                "g",
                Sweep::new().with(
                    "n",
                    SweepSpec::IntRange {
                        start: 0,
                        end: runs - 1,
                        step: 1,
                    },
                ),
                4,
                1,
                3600,
            ))
            .manifest()
            .expect("valid campaign")
    }

    fn durations(m: &CampaignManifest, secs: u64) -> BTreeMap<String, SimDuration> {
        m.groups
            .iter()
            .flat_map(|g| g.runs.iter())
            .map(|r| (r.id.clone(), SimDuration::from_secs(secs)))
            .collect()
    }

    fn spec() -> SeriesSpec {
        SeriesSpec::instant(BatchJob::new(4, SimDuration::from_hours(2)))
    }

    fn reference_js(out: &mut String, s: &str) {
        use std::fmt::Write;
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn reference_ju(out: &mut String, v: u64) {
        use std::fmt::Write;
        let _ = write!(out, "\"{v}\"");
    }

    /// The `Display` form the key writer uses for a finite `f64`.
    fn reference_jf(out: &mut String, v: f64) {
        use std::fmt::Write;
        assert!(v.is_finite(), "the reference covers finite floats");
        let _ = write!(out, "{v}");
    }

    /// The per-run key document renderer the template replaced, kept
    /// verbatim (with its char-at-a-time `js`, formatter `ju` and `Display`
    /// floats) as the reference of
    /// `key_template_renders_the_reference_documents`.
    #[allow(clippy::too_many_arguments)] // one field per pinned input, by design
    fn reference_key_doc(
        manifest: &CampaignManifest,
        group: &GroupManifest,
        run: &RunManifest,
        duration: SimDuration,
        spec: &SeriesSpec,
        seed: SeedDerivation,
        driver: &str,
        traced: bool,
        max_allocations: u32,
        policy: Option<&ResiliencePolicy>,
        faults: Option<(&FaultPlan, u64)>,
        env: &EnvironmentPins,
    ) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(768);
        out.push_str("{\"schema\":\"");
        out.push_str(MEMO_KEY_SCHEMA);
        out.push_str("\",\"campaign\":");
        reference_js(&mut out, &manifest.campaign);
        out.push_str(",\"machine\":");
        reference_js(&mut out, &manifest.machine);
        out.push_str(",\"app\":{\"name\":");
        reference_js(&mut out, &manifest.app.name);
        out.push_str(",\"executable\":");
        reference_js(&mut out, &manifest.app.executable);
        let _ = write!(out, "}},\"manifest_schema\":{}", manifest.schema_version);
        out.push_str(",\"run\":{\"id\":");
        reference_js(&mut out, &run.id);
        out.push_str(",\"group\":");
        reference_js(&mut out, &run.group);
        out.push_str(",\"workdir\":");
        reference_js(&mut out, &run.workdir);
        out.push_str(",\"params\":[");
        for (i, (name, value)) in run.params.params.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            reference_js(&mut out, name);
            let _ = write!(out, ",\"{}\",", param_tag(value));
            reference_js(&mut out, &value.render());
            out.push(']');
        }
        let _ = write!(
            out,
            "]}},\"group\":{{\"nodes\":{},\"per_run_nodes\":{},\"walltime_secs\":{}}}",
            group.nodes, group.per_run_nodes, group.walltime_secs
        );
        out.push_str(",\"duration_us\":");
        reference_ju(&mut out, duration.0);
        let _ = write!(out, ",\"series\":{{\"job_nodes\":{}", spec.job.nodes);
        out.push_str(",\"job_walltime_us\":");
        reference_ju(&mut out, spec.job.walltime.0);
        out.push_str(",\"mean_queue_wait_us\":");
        reference_ju(&mut out, spec.mean_queue_wait.0);
        out.push_str(",\"queue_cv\":");
        reference_jf(&mut out, spec.queue_cv);
        out.push_str("},\"seed\":{\"campaign\":");
        reference_ju(&mut out, seed.campaign_seed);
        out.push_str(",\"index\":");
        reference_ju(&mut out, seed.index);
        out.push_str(",\"derived\":");
        reference_ju(&mut out, seed.derived);
        let _ = write!(
            out,
            "}},\"driver\":\"{driver}\",\"traced\":{traced},\"max_allocations\":{max_allocations}"
        );
        out.push_str(",\"policy\":");
        match policy {
            None => out.push_str("null"),
            Some(p) => {
                let _ = write!(out, "{{\"retry_budget\":{}", p.retry_budget);
                out.push_str(",\"backoff_base_us\":");
                reference_ju(&mut out, p.backoff_base.0);
                out.push_str(",\"backoff_factor\":");
                reference_jf(&mut out, p.backoff_factor);
                out.push_str(",\"max_backoff_us\":");
                reference_ju(&mut out, p.max_backoff.0);
                let _ = write!(out, ",\"quarantine_threshold\":{}", p.quarantine_threshold);
                out.push_str(",\"hang_timeout_fraction\":");
                reference_jf(&mut out, p.hang_timeout_fraction);
                out.push_str(",\"restart\":");
                reference_js(&mut out, &restart_name(&p.restart));
                out.push('}');
            }
        }
        out.push_str(",\"faults\":");
        match faults {
            None => out.push_str("null"),
            Some((f, derived_seed)) => {
                out.push_str("{\"failure_probability\":");
                reference_jf(&mut out, f.run_faults.failure_probability);
                out.push_str(",\"spec_seed\":");
                reference_ju(&mut out, f.run_faults.seed);
                out.push_str(",\"node_mttf_us\":");
                match f.node_mttf {
                    None => out.push_str("null"),
                    Some(mttf) => reference_ju(&mut out, mttf.0),
                }
                out.push_str(",\"stalls\":");
                match &f.stalls {
                    None => out.push_str("null"),
                    Some(s) => {
                        out.push_str("{\"mean_between_us\":");
                        reference_ju(&mut out, s.mean_between.0);
                        out.push_str(",\"duration_us\":");
                        reference_ju(&mut out, s.duration.0);
                        out.push_str(",\"slowdown\":");
                        reference_jf(&mut out, s.slowdown);
                        out.push_str(",\"io_fraction\":");
                        reference_jf(&mut out, s.io_fraction);
                        out.push('}');
                    }
                }
                out.push_str(",\"plan_seed\":");
                reference_ju(&mut out, f.seed);
                out.push_str(",\"derived_seed\":");
                reference_ju(&mut out, derived_seed);
                out.push('}');
            }
        }
        out.push_str(",\"environment\":{\"toolkit\":");
        reference_js(&mut out, &env.toolkit_version);
        out.push_str(",\"schemas\":{");
        for (i, (name, id)) in env.schemas.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            reference_js(&mut out, name);
            out.push(':');
            reference_js(&mut out, id);
        }
        out.push_str("},\"os\":");
        match &env.os {
            None => out.push_str("null"),
            Some(os) => reference_js(&mut out, os),
        }
        out.push_str(",\"arch\":");
        match &env.arch {
            None => out.push_str("null"),
            Some(arch) => reference_js(&mut out, arch),
        }
        out.push_str("}}");
        out
    }

    #[test]
    fn key_template_renders_the_reference_documents() {
        use cheetah::param::ParamValue;
        let mut m = Campaign::new("c\"amp\tx", "inst\u{1}", AppDef::new("a\\pp", "é.exe"))
            .with_group(SweepGroup::new(
                "g",
                Sweep::new().with(
                    "n",
                    SweepSpec::IntRange {
                        start: -2,
                        end: 2,
                        step: 1,
                    },
                ),
                4,
                1,
                3600,
            ))
            .with_group(SweepGroup::new(
                "h",
                Sweep::new().with("k", SweepSpec::list([7i64, 8])),
                8,
                2,
                7200,
            ))
            .manifest()
            .expect("valid campaign");
        let params = &mut m.groups[1].runs[0].params.params;
        params.insert("f".into(), ParamValue::Float(0.1));
        params.insert("b".into(), ParamValue::Bool(true));
        params.insert("s".into(), ParamValue::Str("q\"u\\o\nte\u{1f}é".into()));
        m.groups[1].runs[1].workdir.push_str("/\r");
        let runs: Vec<(usize, &RunManifest)> = m
            .groups
            .iter()
            .enumerate()
            .flat_map(|(g, group)| group.runs.iter().map(move |r| (g, r)))
            .collect();
        let specs = [
            spec(),
            SeriesSpec::new(
                BatchJob::new(4, SimDuration::from_hours(2)),
                SimDuration::from_mins(5),
                0.5,
            ),
        ];
        let policies = [
            None,
            Some(ResiliencePolicy::default()),
            Some(ResiliencePolicy {
                retry_budget: 9,
                backoff_base: SimDuration::from_secs(30),
                backoff_factor: 1.5,
                quarantine_threshold: 1,
                hang_timeout_fraction: 0.25,
                restart: RestartStrategy::FromCheckpoint {
                    interval: SimDuration::from_mins(15),
                },
                ..ResiliencePolicy::default()
            }),
        ];
        let stormy = FaultPlan {
            run_faults: crate::FaultSpec::new(0.25, 11),
            node_mttf: Some(SimDuration::from_hours(40)),
            stalls: Some(crate::resilience::StallSpec {
                mean_between: SimDuration::from_hours(3),
                duration: SimDuration::from_mins(10),
                slowdown: 4.0,
                io_fraction: 0.3,
            }),
            seed: u64::MAX,
        };
        let faults = [None, Some(FaultPlan::none(3)), Some(stormy)];
        let mut captured = memo_environment(&m);
        captured.os = Some("li\"nux".into());
        captured.arch = Some("x86_64".into());
        let envs = [memo_environment(&m), captured];
        let mut checked = 0;
        for spec in &specs {
            for policy in &policies {
                for fault in &faults {
                    for env in &envs {
                        for (traced, campaign_seed) in [(false, 7), (true, u64::MAX)] {
                            let template = KeyTemplate::new(
                                &m,
                                spec,
                                campaign_seed,
                                "resilient",
                                traced,
                                256,
                                policy.as_ref(),
                                fault.as_ref(),
                                env,
                            );
                            let mut doc = String::new();
                            for (i, &(g, run)) in runs.iter().enumerate() {
                                let duration = SimDuration(i as u64 * 999_999_937);
                                let seed = SeedDerivation {
                                    campaign_seed,
                                    index: i as u64,
                                    derived: SeedStream::new(campaign_seed).child(i as u64).seed(),
                                };
                                let fault_seed = fault.as_ref().map(|_| u64::MAX - i as u64);
                                doc.clear();
                                template.render(&mut doc, g, run, duration, seed, fault_seed);
                                let expected = reference_key_doc(
                                    &m,
                                    &m.groups[g],
                                    run,
                                    duration,
                                    spec,
                                    seed,
                                    "resilient",
                                    traced,
                                    256,
                                    policy.as_ref(),
                                    fault.as_ref().zip(fault_seed),
                                    env,
                                );
                                assert_eq!(doc, expected);
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(checked, 2 * 3 * 3 * 2 * 2 * 7);
    }

    /// Runs a memoized resilient campaign on `spec` with `stalls` and
    /// returns its refusal, checking that the store was never opened.
    fn refusal(tag: &str, spec: &SeriesSpec, stalls: Option<StallSpec>) -> SavannaError {
        let m = manifest(1);
        let d = durations(&m, 600);
        let store = scratch_store(tag);
        let faults = FaultPlan {
            run_faults: crate::FaultSpec::new(0.0, 1),
            node_mttf: None,
            stalls,
            seed: 3,
        };
        let (pilot, policy) = (PilotScheduler::new(), ResiliencePolicy::default());
        let mut board = StatusBoard::for_manifest(&m);
        let err = Driver::new(&m, &d, 50)
            .resilient(&pilot, &policy, &faults)
            .memoized(spec, 7, None, &MemoConfig::new(&store))
            .run(&mut board)
            .expect_err("a non-finite key input must refuse");
        assert!(!store.exists(), "refused before the store opens");
        err
    }

    fn stalls(slowdown: f64, io_fraction: f64) -> Option<StallSpec> {
        Some(StallSpec {
            mean_between: SimDuration::from_hours(3),
            duration: SimDuration::from_mins(10),
            slowdown,
            io_fraction,
        })
    }

    #[test]
    fn a_non_finite_queue_cv_is_refused_before_the_store_opens() {
        let nan_cv = SeriesSpec::new(
            BatchJob::new(4, SimDuration::from_hours(2)),
            SimDuration::ZERO,
            f64::NAN,
        );
        match refusal("nan-cv", &nan_cv, None) {
            SavannaError::NonFiniteMemoInput { field, value } => {
                assert_eq!(field, "queue_cv");
                assert!(value.is_nan());
            }
            other => panic!("expected NonFiniteMemoInput, got {other:?}"),
        }
    }

    #[test]
    fn a_non_finite_stall_slowdown_is_refused_before_the_store_opens() {
        match refusal("inf-slowdown", &spec(), stalls(f64::INFINITY, 0.3)) {
            SavannaError::NonFiniteMemoInput { field, value } => {
                assert_eq!((field, value), ("slowdown", f64::INFINITY));
            }
            other => panic!("expected NonFiniteMemoInput, got {other:?}"),
        }
    }

    #[test]
    fn a_non_finite_stall_io_fraction_is_refused_before_the_store_opens() {
        match refusal("ninf-io", &spec(), stalls(4.0, f64::NEG_INFINITY)) {
            SavannaError::NonFiniteMemoInput { field, value } => {
                assert_eq!((field, value), ("io_fraction", f64::NEG_INFINITY));
            }
            other => panic!("expected NonFiniteMemoInput, got {other:?}"),
        }
    }

    #[test]
    fn payload_decoding_accepts_exactly_what_encoding_writes() {
        let m = manifest(2);
        let mut board = StatusBoard::for_manifest(&m);
        board.record_attempt("g/n-0");
        board.record_failure("g/n-0", "fs-stall \"hang\"\n\u{1}");
        board.set("g/n-1", cheetah::status::RunStatus::Done);
        let json = board.canonical_json();
        let (tel, rec) = Telemetry::recording();
        tel.count("attempts", 2.0);
        for snapshot in [None, Some(rec.snapshot())] {
            let traced = snapshot.is_some();
            let out = ShardOut {
                completed: 1,
                remaining: 1,
                span: SimDuration(42),
                board: board.clone(),
                snapshot,
                report: None,
                journal: None,
            };
            let payload = encode_payload("g/n-0", &out, &json);
            let mut scratch = String::new();
            let (back, digest) = decode_payload(payload.as_bytes(), "g/n-0", traced, &mut scratch)
                .expect("an encoded payload decodes");
            assert_eq!(
                (back.completed, back.remaining, back.span, digest),
                (1, 1, SimDuration(42), fair_hash128(json.as_bytes()))
            );
            assert_eq!(back.board, board);
            assert_eq!(
                back.snapshot.as_ref().map(snapshot_json),
                out.snapshot.as_ref().map(snapshot_json)
            );
            let decodes = |doc: &str, run: &str, traced: bool| {
                decode_payload(doc.as_bytes(), run, traced, &mut String::new()).is_some()
            };
            assert!(!decodes(&payload, "g/n-1", traced), "another run's entry");
            assert!(!decodes(&payload, "g/n-0", !traced), "another trace mode");
            // valid JSON that the encoder never writes is a miss
            for edited in [
                payload.replacen(',', ", ", 1),
                format!("{payload}\n"),
                payload.replacen("\\\"statuses\\\":{", "\\\"statuses\\\": {", 1),
                payload.replacen("\\\"g/n-0\\\":1", "\\\"g/n-0\\\":01", 1),
                payload.replacen("\"completed\":1", "\"completed\":01", 1),
                payload.replacen("\"span_us\":\"42\"", "\"span_us\":\"+42\"", 1),
            ] {
                assert_ne!(edited, payload);
                assert!(!decodes(&edited, "g/n-0", traced), "{edited}");
            }
        }
    }

    #[test]
    fn warm_rerun_executes_nothing_and_matches_cold() {
        let m = manifest(6);
        let d = durations(&m, 600);
        let store = scratch_store("warm");
        let memo = MemoConfig::new(&store);

        let mut cold_board = StatusBoard::for_manifest(&m);
        let cold = Driver::new(&m, &d, 50)
            .sim(&PilotScheduler::new())
            .memoized(&spec(), 7, None, &memo)
            .run(&mut cold_board)
            .expect("cold run");
        let cold_memo = cold.memo.as_ref().expect("memoized");
        assert_eq!(cold_memo.executed_runs, 6);
        assert_eq!(cold_memo.cached_runs, 0);
        assert!(cold.is_complete());

        let mut warm_board = StatusBoard::for_manifest(&m);
        let warm = Driver::new(&m, &d, 50)
            .sim(&PilotScheduler::new())
            .memoized(&spec(), 7, None, &memo)
            .run(&mut warm_board)
            .expect("warm run");
        let warm_memo = warm.memo.as_ref().expect("memoized");
        assert!(warm_memo.fully_cached());
        assert_eq!(warm_memo.cached_runs, 6);
        assert_eq!(warm_board.canonical_json(), cold_board.canonical_json());
        assert_eq!(warm.completed_runs, cold.completed_runs);
        assert_eq!(warm.makespan, cold.makespan);
        let _ = std::fs::remove_file(&store);
    }

    #[test]
    fn distinct_seeds_and_trace_modes_never_share_keys() {
        let m = manifest(3);
        let d = durations(&m, 600);
        let store = scratch_store("keys");
        let memo = MemoConfig::new(&store);
        let run = |seed: u64, traced: bool| -> Vec<String> {
            let mut board = StatusBoard::for_manifest(&m);
            let tel = if traced {
                Telemetry::recording().0
            } else {
                Telemetry::disabled()
            };
            Driver::new(&m, &d, 50)
                .sim(&PilotScheduler::new())
                .memoized(&spec(), seed, None, &memo)
                .traced(&tel)
                .run(&mut board)
                .expect("run")
                .memo
                .expect("memoized")
                .runs
                .into_iter()
                .map(|r| r.key)
                .collect()
        };
        let a = run(7, false);
        let b = run(8, false);
        let c = run(7, true);
        assert!(a.iter().all(|k| !b.contains(k)), "seed must change keys");
        assert!(a.iter().all(|k| !c.contains(k)), "tracing must change keys");
        let _ = std::fs::remove_file(&store);
    }

    #[test]
    fn provenance_dag_validates_and_marks_cached_runs() {
        let m = manifest(4);
        let d = durations(&m, 600);
        let store = scratch_store("prov");
        let memo = MemoConfig::new(&store);
        let mut board = StatusBoard::for_manifest(&m);
        let cold = Driver::new(&m, &d, 50)
            .sim(&PilotScheduler::new())
            .memoized(&spec(), 7, None, &memo)
            .run(&mut board)
            .expect("cold run")
            .memo
            .expect("memoized");
        let check = provenance::validate_provenance_json(&cold.provenance.to_json())
            .expect("valid provenance doc");
        assert_eq!(check.runs, 4);
        assert_eq!(check.cached_runs, 0);

        let mut warm_board = StatusBoard::for_manifest(&m);
        let warm = Driver::new(&m, &d, 50)
            .sim(&PilotScheduler::new())
            .memoized(&spec(), 7, None, &memo)
            .run(&mut warm_board)
            .expect("warm run")
            .memo
            .expect("memoized");
        let check = provenance::validate_provenance_json(&warm.provenance.to_json())
            .expect("valid provenance doc");
        assert_eq!(check.cached_runs, 4);
        // cached-ness is the *only* provenance difference
        for (a, b) in cold.provenance.runs.iter().zip(&warm.provenance.runs) {
            assert_eq!(a.output_digest, b.output_digest);
            assert_eq!(a.cache_key, b.cache_key);
        }
        let _ = std::fs::remove_file(&store);
    }

    #[test]
    fn rand_dependent_inputs_are_refused_without_acknowledgement() {
        let m = manifest(2);
        let d = durations(&m, 600);
        let store = scratch_store("fw208");
        let stochastic = SeriesSpec::new(
            BatchJob::new(4, SimDuration::from_hours(2)),
            SimDuration::from_mins(5),
            0.5,
        );
        let mut board = StatusBoard::for_manifest(&m);
        let err = Driver::new(&m, &d, 50)
            .sim(&PilotScheduler::new())
            .memoized(&stochastic, 7, None, &MemoConfig::new(&store))
            .run(&mut board)
            .expect_err("unacknowledged rand inputs must refuse");
        match err {
            SavannaError::Preflight(blocked) => {
                assert!(blocked
                    .diagnostics
                    .iter()
                    .any(|diag| diag.code == fair_lint::rules::policy::MEMOIZATION_UNSAFE));
            }
            other => panic!("expected Preflight, got {other:?}"),
        }
        // the explicit opt-in unlocks execution
        let mut board = StatusBoard::for_manifest(&m);
        Driver::new(&m, &d, 50)
            .sim(&PilotScheduler::new())
            .memoized(
                &stochastic,
                7,
                None,
                &MemoConfig::new(&store).acknowledge_rand_nondeterminism(),
            )
            .run(&mut board)
            .expect("acknowledged run");
        let _ = std::fs::remove_file(&store);
    }
}
