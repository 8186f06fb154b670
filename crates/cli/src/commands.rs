//! The `mnemo` subcommands.

use crate::args::Parsed;
use crate::error::CliError;
use cloudcost::{Provider, ProviderKind};
use kvsim::StoreKind;
use mnemo::advisor::{Advisor, AdvisorConfig, Consultation, OrderingKind};
use mnemo::sensitivity::SensitivityEngine;
use mnemo::ModelKind;
use mnemo_faults::FaultPlan;
use mnemo_serve::{engine::ServeConfig, ServeError};
use mnemo_stream::{Drift, DriftConfig, OnlineAdvisor, Readvice, StreamConfig};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use ycsb::{Trace, WorkloadSpec};

/// The option names a command reads, in groups, without their dashes.
/// Each list is declared next to the code that reads those options.
pub type Options = &'static [&'static [&'static str]];

/// A command's entry point.
pub type Handler = fn(&mut Parsed) -> Result<String, CliError>;

/// The command `name`: the options it reads besides the global `--help`
/// and `--jobs`, and its entry point. `None` for an unknown command.
pub fn lookup(name: &str) -> Option<(Options, Handler)> {
    Some(match name {
        "workloads" => (&[], |_| workloads()),
        "generate" => (GENERATE_OPTIONS, generate),
        "consult" => (CONSULT_CMD_OPTIONS, consult),
        "watch" => (WATCH_OPTIONS, watch),
        "serve" => (SERVE_OPTIONS, serve),
        "chaos" => (CHAOS_OPTIONS, chaos),
        "trace" => (TRACE_OPTIONS, trace_cmd),
        "tier" => (TIER_OPTIONS, tier),
        "analyze" => (&[], analyze),
        "downsample" => (DOWNSAMPLE_OPTIONS, downsample),
        "plan" => (PLAN_OPTIONS, plan),
        "lint" => (LINT_OPTIONS, lint),
        "perf" => (PERF_OPTIONS, perf),
        _ => return None,
    })
}

fn load_trace(path: &str) -> Result<Trace, CliError> {
    let file = File::open(path).map_err(|e| CliError::Io(format!("cannot open '{path}': {e}")))?;
    ycsb::fileio::read_trace(BufReader::new(file))
        .map_err(|e| CliError::Parse(format!("'{path}': {e}")))
}

fn save_trace(trace: &Trace, path: &str) -> Result<(), CliError> {
    let file =
        File::create(path).map_err(|e| CliError::Io(format!("cannot create '{path}': {e}")))?;
    ycsb::fileio::write_trace(trace, BufWriter::new(file))
        .map_err(|e| CliError::Io(format!("'{path}': {e}")))
}

/// Read by [`load_fault_plan_with`].
const FAULT_OPTIONS: &[&str] = &["faults"];

/// Load the `--faults` plan when the flag is present. Distinguishes an
/// unreadable path (exit 3) from a malformed plan (exit 4, with the
/// offending line number in the message).
fn load_fault_plan(parsed: &Parsed) -> Result<Option<FaultPlan>, CliError> {
    load_fault_plan_with(parsed, &mnemo_faults::TierNames::legacy())
}

/// [`load_fault_plan`] with tier names resolved against a specific
/// hierarchy (for `mnemo tier`, where plans may name tiers like
/// `"optane"` from the hierarchy spec).
fn load_fault_plan_with(
    parsed: &Parsed,
    tiers: &mnemo_faults::TierNames,
) -> Result<Option<FaultPlan>, CliError> {
    match parsed.options.get("faults").filter(|s| !s.is_empty()) {
        None => {
            if parsed.flag("faults") {
                return Err(CliError::Usage(
                    "--faults needs a plan file (TOML or JSON)".into(),
                ));
            }
            Ok(None)
        }
        Some(path) => {
            let plan =
                FaultPlan::load_with(std::path::Path::new(path), tiers).map_err(|e| match e {
                    mnemo_faults::LoadError::Io(io) => {
                        CliError::Io(format!("cannot read fault plan '{path}': {io}"))
                    }
                    mnemo_faults::LoadError::Parse(p) => {
                        CliError::Parse(format!("fault plan '{path}': {p}"))
                    }
                })?;
            Ok(Some(plan))
        }
    }
}

fn parse_store(s: &str) -> Result<StoreKind, String> {
    match s.to_lowercase().as_str() {
        "redis" => Ok(StoreKind::Redis),
        "memcached" => Ok(StoreKind::Memcached),
        "dynamo" | "dynamodb" => Ok(StoreKind::Dynamo),
        other => Err(format!(
            "unknown store '{other}' (redis|memcached|dynamodb)"
        )),
    }
}

fn parse_provider(s: &str) -> Result<ProviderKind, String> {
    match s.to_lowercase().as_str() {
        "aws" => Ok(ProviderKind::Aws),
        "gcp" | "google" => Ok(ProviderKind::Gcp),
        "azure" => Ok(ProviderKind::Azure),
        other => Err(format!("unknown provider '{other}' (aws|gcp|azure)")),
    }
}

/// `mnemo workloads`
pub fn workloads() -> Result<String, CliError> {
    let mut out = String::from("built-in workload presets:\n\n  Table III (the paper's suite):\n");
    for w in WorkloadSpec::table3() {
        let _ = writeln!(
            out,
            "    {:<18} {:<18} {:>3.0}% reads  — {}",
            w.name,
            w.distribution.name(),
            w.read_fraction() * 100.0,
            w.use_case
        );
    }
    out.push_str("\n  YCSB core:\n");
    for w in WorkloadSpec::ycsb_core_suite() {
        let _ = writeln!(
            out,
            "    {:<18} {:<18} {:>3.0}% reads  — {}",
            w.name,
            w.distribution.name(),
            w.read_fraction() * 100.0,
            w.use_case
        );
    }
    out.push_str("\n  Tier scenarios (stress presets for `mnemo tier` / tier_matrix):\n");
    for w in WorkloadSpec::tier_suite().into_iter().skip(1) {
        let _ = writeln!(
            out,
            "    {:<18} {:<18} {:>3.0}% reads  — {}",
            w.name,
            w.distribution.name(),
            w.read_fraction() * 100.0,
            w.use_case
        );
    }
    Ok(out)
}

/// Preset sizing, read by `generate`, `trace` and `tier`.
const PRESET_OPTIONS: &[&str] = &["keys", "requests", "seed"];

const GENERATE_OPTIONS: Options = &[PRESET_OPTIONS, &["o"]];

/// `mnemo generate <preset> --keys N --requests N --seed S -o <file>`
pub fn generate(parsed: &mut Parsed) -> Result<String, CliError> {
    let preset = parsed.positional_required("preset name")?.to_string();
    let spec = WorkloadSpec::by_name(&preset)
        .ok_or_else(|| format!("unknown preset '{preset}' (see `mnemo workloads`)"))?;
    let keys = parsed.number_or("keys", spec.keys)?;
    let requests = parsed.number_or("requests", spec.requests)?;
    let seed = parsed.number_or("seed", 42u64)?;
    let output = parsed.require("o")?;
    let trace = spec.scaled(keys, requests).generate(seed);
    save_trace(&trace, output)?;
    Ok(format!(
        "wrote '{}': {} keys, {} requests, {:.1} MB dataset -> {}",
        trace.name,
        trace.keys(),
        trace.len(),
        trace.dataset_bytes() as f64 / 1e6,
        output
    ))
}

/// Read by [`parse_config`].
const CONSULT_OPTIONS: &[&str] = &["store", "slo", "price", "ordering", "model", "cache-aware"];

/// Parse the advisor-related options (validated before any file I/O so
/// usage errors surface first).
fn parse_config(parsed: &Parsed) -> Result<(StoreKind, f64, AdvisorConfig), String> {
    let store = parse_store(parsed.get_or("store", "redis"))?;
    let slo: f64 = parsed.number_or("slo", 0.10)?;
    if !(0.0..=1.0).contains(&slo) {
        return Err(format!("--slo {slo} out of [0,1]"));
    }
    let price: f64 = parsed.number_or("price", 0.20)?;
    if !(0.0..1.0).contains(&price) || price == 0.0 {
        return Err(format!("--price {price} out of (0,1)"));
    }
    let ordering = match parsed.get_or("ordering", "mnemot").to_lowercase().as_str() {
        "mnemot" | "weight" => OrderingKind::MnemoT,
        "touch" => OrderingKind::TouchOrder,
        "hotness" | "hot" => OrderingKind::Hotness,
        other => return Err(format!("unknown ordering '{other}' (mnemot|touch|hotness)")),
    };
    let model = match parsed.get_or("model", "global").to_lowercase().as_str() {
        "global" | "global-average" => ModelKind::GlobalAverage,
        "size-aware" | "sizeaware" => ModelKind::SizeAware,
        other => return Err(format!("unknown model '{other}' (global|size-aware)")),
    };
    let mut config = AdvisorConfig {
        price_factor: price,
        ordering,
        model,
        ..AdvisorConfig::default()
    };
    if parsed.flag("cache-aware") {
        config = config.cache_aware();
    }
    Ok((store, slo, config))
}

fn consultation_from(
    parsed: &Parsed,
    trace: &Trace,
) -> Result<(StoreKind, f64, Consultation), CliError> {
    let (store, slo, config) = parse_config(parsed)?;
    let consultation = Advisor::new(config)
        .consult(store, trace)
        .map_err(|e| CliError::Engine(format!("consultation failed: {e}")))?;
    Ok((store, slo, consultation))
}

const CONSULT_CMD_OPTIONS: Options = &[CONSULT_OPTIONS, &["csv", "report"]];

/// `mnemo consult <trace> [--store ...] [--slo ...] [--csv file]`
pub fn consult(parsed: &mut Parsed) -> Result<String, CliError> {
    let path = parsed.positional_required("trace file")?.to_string();
    parse_config(parsed)?; // surface option errors before file I/O
    let trace = load_trace(&path)?;
    let (store, slo, consultation) = consultation_from(parsed, &trace)?;

    let mut out = String::new();
    let b = &consultation.baselines;
    let _ = writeln!(out, "workload '{}' on {}:", trace.name, store);
    let _ = writeln!(
        out,
        "  baselines: FastMem-only {:.0} ops/s, SlowMem-only {:.0} ops/s ({:+.1}%)",
        b.fast.throughput_ops_s(),
        b.slow.throughput_ops_s(),
        b.sensitivity() * 100.0
    );
    let _ = writeln!(out, "\n  cost/performance frontier:");
    for rec in consultation.frontier(&[0.02, 0.05, slo, 0.25]) {
        let _ = writeln!(
            out,
            "    {:4.0}% slowdown budget -> {:5.1}% FastMem bytes, cost {:.2}x",
            rec.est_slowdown.max(0.0) * 100.0,
            rec.fast_ratio * 100.0,
            rec.cost_reduction
        );
    }
    let rec = consultation
        .recommend(slo)
        .ok_or_else(|| CliError::Engine("empty curve".into()))?;
    let _ = writeln!(
        out,
        "\n  recommendation @{:.0}% SLO: {} of {} keys in FastMem ({:.1}% of bytes)",
        slo * 100.0,
        rec.prefix,
        trace.keys(),
        rec.fast_ratio * 100.0
    );
    let _ = writeln!(
        out,
        "  memory cost: {:.0}% of FastMem-only; est. {:.0} ops/s ({:.1}% below best)",
        rec.cost_reduction * 100.0,
        rec.est_throughput_ops_s,
        rec.est_slowdown * 100.0
    );
    if let Some(csv_path) = parsed.options.get("csv").filter(|s| !s.is_empty()) {
        std::fs::write(csv_path, consultation.curve.to_csv())
            .map_err(|e| CliError::Io(format!("cannot write '{csv_path}': {e}")))?;
        let _ = writeln!(out, "\n  estimate curve written to {csv_path}");
    }
    if let Some(report_path) = parsed.options.get("report").filter(|s| !s.is_empty()) {
        std::fs::write(report_path, mnemo::report::markdown(&consultation, slo))
            .map_err(|e| CliError::Io(format!("cannot write '{report_path}': {e}")))?;
        let _ = writeln!(out, "  markdown report written to {report_path}");
    }
    Ok(out)
}

fn drift_label(drift: &Drift) -> String {
    match drift {
        Drift::Initial => "initial epoch".into(),
        Drift::Theta { from, to } => format!("skew drift (theta {from:.2} -> {to:.2})"),
        Drift::HotSet { overlap } => {
            format!("hot-set rotation ({:.0}% overlap)", overlap * 100.0)
        }
        Drift::Stable => "stable".into(),
    }
}

const WATCH_OPTIONS: Options = &[
    CONSULT_OPTIONS,
    FAULT_OPTIONS,
    &["epoch", "budget-kib", "telemetry", "follow", "rows"],
];

/// `mnemo watch <trace> [--epoch N] [--budget-kib N] [--telemetry DIR]`
/// plus the consult options.
pub fn watch(parsed: &mut Parsed) -> Result<String, CliError> {
    // `--follow <socket>`: instead of replaying a trace locally, attach
    // to a running `mnemo serve` daemon and stream its advice rows.
    if parsed.flag("follow") {
        return watch_follow(parsed);
    }
    let path = parsed.positional_required("trace file")?.to_string();
    let (store, slo, mut config) = parse_config(parsed)?;
    let fault_plan = load_fault_plan(parsed)?;
    config.fault_plan = fault_plan.clone();
    let epoch_len: u64 = parsed.number_or("epoch", DriftConfig::default().epoch_len)?;
    if epoch_len == 0 {
        return Err(CliError::Usage("--epoch must be >= 1".into()));
    }
    let budget_kib: usize = parsed.number_or("budget-kib", 64usize)?;
    if budget_kib < 4 {
        return Err(CliError::Usage(
            "--budget-kib must be >= 4 (no useful summary fits below that)".into(),
        ));
    }
    let telemetry_dir = parsed
        .options
        .get("telemetry")
        .filter(|s| !s.is_empty())
        .cloned();
    let trace = load_trace(&path)?;

    // The Sensitivity Engine's two baseline runs happen once, up front;
    // from then on the stream profiler carries the whole pipeline. Under
    // --faults the baselines describe the faulted testbed.
    let mut sensitivity = SensitivityEngine::new(config.spec.clone(), config.noise);
    if let Some(plan) = &fault_plan {
        sensitivity = sensitivity.with_fault_plan(plan.clone());
    }
    let baselines = sensitivity
        .measure(store, &trace)
        .map_err(|e| CliError::Engine(format!("baseline measurement failed: {e}")))?;
    let mut stream_config = StreamConfig::with_budget_bytes(budget_kib * 1024);
    stream_config.drift.epoch_len = epoch_len;
    let mut online = OnlineAdvisor::new(stream_config, Advisor::new(config), baselines, slo);

    // Replay the trace through a live server, tapping every served
    // request into the online advisor — the same hook a production
    // deployment would use. Drift decisions and advise emissions go
    // through the telemetry recorder, not just the printed summary.
    let mut tel = mnemo_telemetry::Recorder::new();
    let mut advice: Vec<Readvice> = Vec::new();
    let mut server = kvsim::Server::build(store, &trace, kvsim::Placement::AllFast)
        .map_err(|e| CliError::Engine(format!("cannot build server: {e}")))?;
    if let Some(plan) = &fault_plan {
        // The live replay suffers the plan's degradation windows and
        // shard-0 crashes, so the profiled stream is the faulted one.
        server.install_fault_plan(plan);
    }
    let report = server.run_with_tap(&trace, &mut |event| {
        advice.extend(online.on_event_telemetered(&event, &mut tel));
    });
    let mut final_forced = false;
    if advice.is_empty() {
        // Stream shorter than one epoch: advise from what we saw.
        let forced = online.readvise(Drift::Initial);
        mnemo_stream::telemetry::record_readvice(&mut tel, &forced);
        advice.push(forced);
        final_forced = true;
    }
    mnemo_stream::telemetry::record_profiler(&mut tel, online.profiler());
    let snap = tel.take_snapshot(0);

    let mut out = String::new();
    let profiler = online.profiler();
    let _ = writeln!(
        out,
        "watched '{}' on {}: {} requests at {:.0} ops/s",
        trace.name,
        store,
        report.requests,
        report.throughput_ops_s()
    );
    let _ = writeln!(
        out,
        "profiler: {:.1} KiB of {budget_kib} KiB budget, ~{} distinct keys, epochs of {epoch_len} events",
        profiler.memory_bytes() as f64 / 1024.0,
        profiler.distinct_keys(),
    );
    if let Some(plan) = &fault_plan {
        let _ = writeln!(
            out,
            "fault plan: {} event(s), seed {} (applied to baselines and the live replay)",
            plan.events.len(),
            plan.seed
        );
    }
    let _ = writeln!(
        out,
        "telemetry: {} epochs closed, {} significant drifts, {} advise emissions",
        snap.counter("stream.epochs"),
        snap.counter("stream.drift.significant"),
        snap.counter("stream.advise.emitted"),
    );
    let _ = writeln!(
        out,
        "consultations: {} (re-advising only on drift)\n",
        online.consultations()
    );
    for a in &advice {
        let at = if final_forced {
            "stream end".to_string()
        } else {
            format!("event {}", a.at_event)
        };
        match &a.recommendation {
            Some(rec) => {
                let _ = writeln!(
                    out,
                    "  {at}: {} -> {:.1}% FastMem bytes, cost {:.2}x, est slowdown {:.1}%",
                    drift_label(&a.trigger),
                    rec.fast_ratio * 100.0,
                    rec.cost_reduction,
                    rec.est_slowdown * 100.0
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  {at}: {} -> no recommendation",
                    drift_label(&a.trigger)
                );
            }
        }
    }
    if let Some(dir) = telemetry_dir {
        let _ = writeln!(out, "\n{}", export_telemetry(&dir, &[snap])?);
    }
    Ok(out)
}

/// Classify a serve-layer failure onto the CLI exit-code ladder.
fn serve_error(e: ServeError) -> CliError {
    match e {
        ServeError::Usage(m) => CliError::Usage(m),
        ServeError::Io(m) => CliError::Io(m),
        ServeError::Proto { .. } => CliError::Parse(e.to_string()),
        ServeError::Corrupt { .. } => CliError::Parse(e.to_string()),
        ServeError::Engine(m) => CliError::Engine(m),
    }
}

/// `mnemo watch --follow <socket> [--rows N]` — attach to a running
/// serve daemon and copy its advice rows to stdout as they are emitted.
/// If the daemon socket drops mid-tail, reconnects with capped
/// exponential backoff instead of bailing out.
fn watch_follow(parsed: &mut Parsed) -> Result<String, CliError> {
    let sock = parsed
        .options
        .get("follow")
        .filter(|s| !s.is_empty())
        .cloned()
        .ok_or_else(|| CliError::Usage("--follow needs the serve socket path".into()))?;
    let rows: u64 = parsed.number_or("rows", 0u64)?;
    let limit = if rows == 0 { None } else { Some(rows) };
    let mut stdout = std::io::stdout();
    let n = mnemo_serve::follow_retry(std::path::Path::new(&sock), limit, &mut stdout)
        .map_err(serve_error)?;
    Ok(format!("followed {n} row(s) from {sock}"))
}

/// Read by [`parse_serve_config`] itself; it also reads the consult and
/// fault options.
const SERVE_CONFIG_OPTIONS: &[&str] = &[
    "epoch",
    "drift-epoch",
    "budget-kib",
    "queue",
    "replan-every",
    "max-tenants",
    "share-mib",
];

/// Assemble the daemon configuration shared by every `serve` front end.
fn parse_serve_config(parsed: &Parsed) -> Result<ServeConfig, CliError> {
    let (store, slo, advisor) = parse_config(parsed)?;
    let faults = load_fault_plan(parsed)?;
    let tick_events: u64 = parsed.number_or("epoch", 2_048u64)?;
    if tick_events == 0 {
        return Err(CliError::Usage("--epoch must be >= 1".into()));
    }
    let drift_epoch: u64 = parsed.number_or("drift-epoch", 1_024u64)?;
    if drift_epoch == 0 {
        return Err(CliError::Usage("--drift-epoch must be >= 1".into()));
    }
    let budget_kib: usize = parsed.number_or("budget-kib", 64usize)?;
    if budget_kib < 4 {
        return Err(CliError::Usage(
            "--budget-kib must be >= 4 (no useful summary fits below that)".into(),
        ));
    }
    let queue_cap: usize = parsed.number_or("queue", 8_192usize)?;
    if queue_cap == 0 {
        return Err(CliError::Usage("--queue must be >= 1".into()));
    }
    let replan_every: u64 = parsed.number_or("replan-every", 1u64)?;
    if replan_every == 0 {
        return Err(CliError::Usage("--replan-every must be >= 1".into()));
    }
    let max_tenants: usize = parsed.number_or("max-tenants", 64usize)?;
    let share_mib: u64 = parsed.number_or("share-mib", 64u64)?;
    let mut stream = StreamConfig::with_budget_bytes(budget_kib * 1024);
    stream.drift.epoch_len = drift_epoch;
    Ok(ServeConfig {
        store,
        slo,
        advisor,
        stream,
        tick_events,
        queue_cap,
        max_tenants,
        share_bytes: share_mib << 20,
        replan_every,
        faults,
        ..ServeConfig::default()
    })
}

/// Read by [`parse_journal_policy`].
const JOURNAL_OPTIONS: &[&str] = &["journal", "journal-segment-kib", "journal-sync-every"];

/// Parse the `--journal DIR [--journal-segment-kib N]
/// [--journal-sync-every N]` flags into a [`mnemo_serve::JournalPolicy`]
/// (validated before any file I/O).
fn parse_journal_policy(parsed: &Parsed) -> Result<Option<mnemo_serve::JournalPolicy>, CliError> {
    let dir = match parsed.options.get("journal").filter(|s| !s.is_empty()) {
        None => {
            if parsed.flag("journal") {
                return Err(CliError::Usage("--journal needs a directory path".into()));
            }
            return Ok(None);
        }
        Some(d) => d.clone(),
    };
    let segment_kib: u64 = parsed.number_or("journal-segment-kib", 64u64)?;
    let sync_every: u64 = parsed.number_or("journal-sync-every", 1u64)?;
    let config = mnemo_serve::JournalConfig {
        segment_bytes: segment_kib * 1024,
        sync_every,
    };
    config.validate().map_err(serve_error)?;
    Ok(Some(mnemo_serve::JournalPolicy {
        dir: std::path::PathBuf::from(dir),
        config,
    }))
}

const SERVE_OPTIONS: Options = &[
    CONSULT_OPTIONS,
    FAULT_OPTIONS,
    SERVE_CONFIG_OPTIONS,
    JOURNAL_OPTIONS,
    &["replay", "socket", "state", "state-every", "telemetry"],
];

/// `mnemo serve [--replay file | --socket path]` — the long-lived
/// multi-tenant advisor daemon. With `--replay` the request log runs on
/// the virtual clock and the transcript (byte-identical for any
/// `--jobs N`) is the whole output; with `--socket` the daemon listens
/// on a framed Unix socket until a `shutdown` command; with neither it
/// reads newline-delimited requests from stdin.
pub fn serve(parsed: &mut Parsed) -> Result<String, CliError> {
    let config = parse_serve_config(parsed)?;
    let journal = parse_journal_policy(parsed)?;
    let telemetry_dir = parsed
        .options
        .get("telemetry")
        .filter(|s| !s.is_empty())
        .cloned();
    let state_path = parsed
        .options
        .get("state")
        .filter(|s| !s.is_empty())
        .cloned();
    let state_every: u64 = parsed.number_or("state-every", 16u64)?;
    if journal.is_some() && parsed.options.get("socket").is_none_or(|s| s.is_empty()) {
        return Err(CliError::Usage(
            "--journal needs --socket (replay/stdin transcripts are already reproducible; \
             use `mnemo chaos` to exercise journaled recovery offline)"
                .into(),
        ));
    }

    if let Some(path) = parsed
        .options
        .get("replay")
        .filter(|s| !s.is_empty())
        .cloned()
    {
        let input = std::fs::read_to_string(&path)
            .map_err(|e| CliError::Io(format!("cannot read request log '{path}': {e}")))?;
        let outcome = mnemo_serve::run_replay(&input, config).map_err(serve_error)?;
        if let Some(state) = &state_path {
            let dump = mnemo_serve::state::dump(&outcome.engine);
            mnemo_serve::state::write_atomic(std::path::Path::new(state), &dump)
                .map_err(serve_error)?;
        }
        if let Some(dir) = &telemetry_dir {
            // Silent on success: stdout stays a pure row transcript so
            // it can be byte-diffed against a golden file.
            export_telemetry(dir, outcome.engine.snapshots())?;
        }
        // `main` appends one newline; hand it the rows without the
        // trailing one so stdout is exactly the transcript.
        return Ok(outcome.transcript.trim_end_matches('\n').to_string());
    }

    let policy = mnemo_serve::StatePolicy {
        path: state_path.as_ref().map(std::path::PathBuf::from),
        every_ticks: state_every,
        journal,
    };
    if let Some(sock) = parsed
        .options
        .get("socket")
        .filter(|s| !s.is_empty())
        .cloned()
    {
        let mut served = mnemo_serve::ServeLoop::bind(std::path::Path::new(&sock), config, policy)
            .map_err(serve_error)?;
        // Announce readiness immediately; `run` blocks until shutdown.
        println!("serving on {sock} (send {{\"v\":1,\"cmd\":\"shutdown\"}} to stop)");
        use std::io::Write as _;
        std::io::stdout()
            .flush()
            .map_err(|e| CliError::Io(format!("stdout: {e}")))?;
        let rows = served.run().map_err(serve_error)?;
        let mut out = String::new();
        for row in rows {
            let _ = writeln!(out, "{row}");
        }
        if let Some(dir) = &telemetry_dir {
            let _ = writeln!(
                out,
                "{}",
                export_telemetry(dir, served.engine().snapshots())?
            );
        }
        let _ = writeln!(out, "shutdown after {} tick(s)", served.engine().ticks());
        return Ok(out);
    }

    let mut input = String::new();
    std::io::Read::read_to_string(&mut std::io::stdin().lock(), &mut input)
        .map_err(|e| CliError::Io(format!("cannot read stdin: {e}")))?;
    let outcome = mnemo_serve::run_replay(&input, config).map_err(serve_error)?;
    if let Some(state) = &state_path {
        let dump = mnemo_serve::state::dump(&outcome.engine);
        mnemo_serve::state::write_atomic(std::path::Path::new(state), &dump)
            .map_err(serve_error)?;
    }
    if let Some(dir) = &telemetry_dir {
        export_telemetry(dir, outcome.engine.snapshots())?;
    }
    Ok(outcome.transcript.trim_end_matches('\n').to_string())
}

const CHAOS_OPTIONS: Options = &[
    CONSULT_OPTIONS,
    FAULT_OPTIONS,
    SERVE_CONFIG_OPTIONS,
    &[
        "seed",
        "kills",
        "workdir",
        "state-every",
        "segment-kib",
        "sync-every",
    ],
];

/// `mnemo chaos <request-log> [--workdir DIR]` — deterministic
/// kill/restart harness over the durable serve path. Runs the request
/// log once uninterrupted (the golden run), then again with seeded
/// kills (always including one mid-state-dump and one mid-segment-
/// rotation when the input produces them), restarting each time from
/// the state dump plus the journal tail, and byte-diffs the final
/// transcript and state dump against the golden run. Storage faults
/// from `--faults` (torn_write, bit_flip, fsync_fail, dump_corrupt)
/// strike at each kill point. Exits 7 when the runs diverge.
pub fn chaos(parsed: &mut Parsed) -> Result<String, CliError> {
    let path = parsed.positional_required("request log")?.to_string();
    let config = parse_serve_config(parsed)?;
    let defaults = mnemo_serve::chaos::ChaosConfig::default();
    let seed: u64 = parsed.number_or("seed", defaults.seed)?;
    let kills: usize = parsed.number_or("kills", defaults.kills)?;
    if kills == 0 {
        return Err(CliError::Usage("--kills must be >= 1".into()));
    }
    let every_ticks: u64 = parsed.number_or("state-every", defaults.every_ticks)?;
    let segment_kib: u64 =
        parsed.number_or("segment-kib", defaults.journal.segment_bytes / 1024)?;
    let sync_every: u64 = parsed.number_or("sync-every", defaults.journal.sync_every)?;
    let workdir = match parsed.options.get("workdir").filter(|s| !s.is_empty()) {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("mnemo-chaos-{}", std::process::id())),
    };
    let chaos_config = mnemo_serve::chaos::ChaosConfig {
        seed,
        kills,
        every_ticks,
        journal: mnemo_serve::JournalConfig {
            segment_bytes: segment_kib * 1024,
            sync_every,
        },
    };
    let input = std::fs::read_to_string(&path)
        .map_err(|e| CliError::Io(format!("cannot read request log '{path}': {e}")))?;
    let report = mnemo_serve::chaos::run_chaos(&input, config, &workdir, &chaos_config)
        .map_err(serve_error)?;
    let mut out = report.render();
    if report.converged() {
        Ok(out)
    } else {
        // Append the first diverging transcript line pair so a CI log
        // shows *where* the recovered run went wrong, not just that it
        // did; the full transcripts stay on disk under the workdir.
        if !report.transcript_identical {
            let diverged = report
                .golden_transcript
                .lines()
                .map(Some)
                .chain(std::iter::repeat(None))
                .zip(
                    report
                        .final_transcript
                        .lines()
                        .map(Some)
                        .chain(std::iter::repeat(None)),
                )
                .take_while(|(g, c)| g.is_some() || c.is_some())
                .enumerate()
                .find(|(_, (g, c))| g != c);
            if let Some((line, (golden, chaotic))) = diverged {
                let _ = write!(
                    out,
                    "\ntranscripts diverge at row {}:\n  golden: {}\n  chaos:  {}",
                    line + 1,
                    golden.unwrap_or("<missing>"),
                    chaotic.unwrap_or("<missing>")
                );
            }
        }
        let _ = write!(out, "\nworkdir kept for inspection: {}", workdir.display());
        Err(CliError::Chaos(out))
    }
}

fn export_telemetry(dir: &str, snaps: &[mnemo_telemetry::Snapshot]) -> Result<String, CliError> {
    mnemo_telemetry::export::write_dir(std::path::Path::new(dir), snaps)
        .map_err(|e| CliError::Io(format!("cannot write telemetry to '{dir}': {e}")))?;
    Ok(format!(
        "telemetry written to {dir} (telemetry.jsonl, telemetry.csv, schema.csv, columns/)"
    ))
}

/// One rendered row of the `mnemo trace` table. With `faults` the row
/// grows the recovery columns: requests served inside an active
/// degradation window and shard crashes recovered this epoch.
fn trace_row(out: &mut String, label: &str, snap: &mnemo_telemetry::Snapshot, faults: bool) {
    use mnemo_telemetry::MetricHistogram;
    let requests = snap.counter("kv.requests");
    let (p50, p99, ops) = match snap.histogram("kv.request.service_ns") {
        Some(h) if h.count() > 0 => {
            let sum_s = h.value_sum() / 1e9;
            (
                h.quantile_value(0.50),
                h.quantile_value(0.99),
                requests as f64 / sum_s.max(f64::MIN_POSITIVE),
            )
        }
        _ => (0.0, 0.0, 0.0),
    };
    let fast = snap.counter("kv.tier.fast_hits");
    let slow = snap.counter("kv.tier.slow_hits");
    let llc_hits = snap.counter("kv.llc.hits");
    let llc_total = llc_hits + snap.counter("kv.llc.misses");
    let llc_pct = if llc_total > 0 {
        llc_hits as f64 / llc_total as f64 * 100.0
    } else {
        0.0
    };
    let _ = write!(
        out,
        "  {label:>6}  {requests:>9}  {p50:>9.0}  {p99:>9.0}  {ops:>11.0}  {fast:>9}  {slow:>9}  {llc_pct:>7.1}"
    );
    if faults {
        let degraded = snap.counter("kv.fault.degraded_requests");
        let crashes = snap.counter("kv.fault.shard_crashes");
        let _ = write!(out, "  {degraded:>9}  {crashes:>7}");
    }
    out.push('\n');
}

const TRACE_OPTIONS: Options = &[
    CONSULT_OPTIONS,
    PRESET_OPTIONS,
    FAULT_OPTIONS,
    &["epoch", "placement", "telemetry"],
];

/// `mnemo trace <trace-file|preset> [--epoch N]`
/// `[--placement fast|slow|advised] [--telemetry DIR]`
/// plus the consult options.
pub fn trace_cmd(parsed: &mut Parsed) -> Result<String, CliError> {
    let source = parsed
        .positional_required("trace file or preset name")?
        .to_string();
    let (store, slo, mut config) = parse_config(parsed)?;
    let fault_plan = load_fault_plan(parsed)?;
    config.fault_plan = fault_plan.clone();
    let epoch_len: u64 = parsed.number_or("epoch", 20_000u64)?;
    let placement_kind = parsed.get_or("placement", "advised").to_lowercase();
    let telemetry_dir = parsed
        .options
        .get("telemetry")
        .filter(|s| !s.is_empty())
        .cloned();

    // Accept a trace file, or any preset from `mnemo workloads`
    // (generated in place, scaled by --keys/--requests/--seed).
    let trace = if std::path::Path::new(&source).is_file() {
        load_trace(&source)?
    } else if let Some(spec) = WorkloadSpec::by_name(&source) {
        let keys = parsed.number_or("keys", spec.keys)?;
        let requests = parsed.number_or("requests", spec.requests)?;
        let seed = parsed.number_or("seed", 42u64)?;
        spec.scaled(keys, requests).generate(seed)
    } else {
        return Err(CliError::Usage(format!(
            "'{source}' is neither a trace file nor a preset (see `mnemo workloads`)"
        )));
    };

    let (placement, placement_desc) = match placement_kind.as_str() {
        "fast" => (kvsim::Placement::AllFast, "all keys in FastMem".to_string()),
        "slow" => (kvsim::Placement::AllSlow, "all keys in SlowMem".to_string()),
        "advised" => {
            let consultation = Advisor::new(config)
                .consult(store, &trace)
                .map_err(|e| CliError::Engine(format!("consultation failed: {e}")))?;
            // The resilient path never fails: under a fault plan that
            // makes the SLO unattainable, the nearest-feasible split is
            // used and the degradation is called out.
            let resilient = consultation.recommend_resilient(slo);
            let rec = resilient.recommendation;
            let mut desc = format!(
                "advised @{:.0}% SLO: {} of {} keys ({:.1}% of bytes) in FastMem",
                slo * 100.0,
                rec.prefix,
                trace.keys(),
                rec.fast_ratio * 100.0
            );
            if let Some(reason) = resilient.degraded {
                let _ = write!(desc, "; degraded: {reason:?}");
            }
            (
                kvsim::Placement::fast_prefix(&consultation.order, rec.prefix),
                desc,
            )
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown placement '{other}' (fast|slow|advised)"
            )))
        }
    };

    let mut server = kvsim::Server::build(store, &trace, placement)
        .map_err(|e| CliError::Engine(format!("cannot build server: {e}")))?;
    if let Some(plan) = &fault_plan {
        server.install_fault_plan(plan);
    }
    let (report, snaps) = server.run_telemetered(&trace, epoch_len);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "traced '{}' on {}: {} requests, epochs of {} ({})",
        trace.name,
        store,
        report.requests,
        if epoch_len == 0 {
            "the whole run".to_string()
        } else {
            format!("{epoch_len} requests")
        },
        placement_desc
    );
    let faults_active = fault_plan.is_some();
    if let Some(plan) = &fault_plan {
        let _ = writeln!(
            out,
            "fault plan: {} event(s), seed {} — degraded/crash recovery shown per epoch",
            plan.events.len(),
            plan.seed
        );
    }
    let _ = write!(
        out,
        "\n  {:>6}  {:>9}  {:>9}  {:>9}  {:>11}  {:>9}  {:>9}  {:>7}",
        "epoch", "requests", "p50_ns", "p99_ns", "ops/s", "fast_hits", "slow_hits", "llc_hit%"
    );
    if faults_active {
        let _ = write!(out, "  {:>9}  {:>7}", "degraded", "crashes");
    }
    out.push('\n');
    let mut total = mnemo_telemetry::Snapshot::empty(0);
    for snap in &snaps {
        trace_row(&mut out, &snap.epoch().to_string(), snap, faults_active);
        total.fold(snap);
    }
    if snaps.len() > 1 {
        trace_row(&mut out, "total", &total, faults_active);
    }
    if let Some(dir) = telemetry_dir {
        let _ = writeln!(out, "\n{}", export_telemetry(&dir, &snaps)?);
    }
    Ok(out)
}

const TIER_OPTIONS: Options = &[
    PRESET_OPTIONS,
    FAULT_OPTIONS,
    &["hierarchy", "policy", "epoch", "csv"],
];

/// `mnemo tier <trace|preset>` — N-tier hierarchy simulation with a
/// pluggable tiering policy (or the full policy catalog with
/// `--policy all`).
pub fn tier(parsed: &mut Parsed) -> Result<String, CliError> {
    use kvsim::{tiered::trace_windows, Server};
    use mnemo_tier::PolicyKind;

    let source = parsed
        .positional_required("trace file or preset name")?
        .to_string();
    let hierarchy_arg = parsed.get_or("hierarchy", "dram_optane_ssd").to_string();
    let policy_arg = parsed.get_or("policy", "greedy").to_lowercase();
    let epoch: u64 = parsed.number_or("epoch", 0u64)?;
    let seed: u64 = parsed.number_or("seed", 42u64)?;
    let csv_path = parsed.options.get("csv").filter(|s| !s.is_empty()).cloned();

    // Hierarchy: a named preset, else a TOML-subset spec file with
    // line-numbered parse errors.
    let spec = match mnemo_tier::preset(&hierarchy_arg) {
        Some(s) => s,
        None => {
            mnemo_tier::load_hierarchy(std::path::Path::new(&hierarchy_arg)).map_err(
                |e| match e {
                    mnemo_tier::HierarchyLoadError::Io(io) => CliError::Io(format!(
                        "cannot read hierarchy '{hierarchy_arg}' (not a preset: {}): {io}",
                        mnemo_tier::PRESETS.join("|")
                    )),
                    mnemo_tier::HierarchyLoadError::Parse(p) => {
                        CliError::Parse(format!("hierarchy '{hierarchy_arg}': {p}"))
                    }
                },
            )?
        }
    };

    // Fault plans may name tiers by the hierarchy's own names.
    let names: Vec<&str> = spec.tiers.iter().map(|t| t.name.as_str()).collect();
    let fault_plan = load_fault_plan_with(parsed, &mnemo_faults::TierNames::from_names(&names))?;

    let trace = if std::path::Path::new(&source).is_file() {
        load_trace(&source)?
    } else if let Some(w) = WorkloadSpec::by_name(&source) {
        let keys = parsed.number_or("keys", w.keys)?;
        let requests = parsed.number_or("requests", w.requests)?;
        w.scaled(keys, requests).generate(seed)
    } else {
        return Err(CliError::Usage(format!(
            "'{source}' is neither a trace file nor a preset (see `mnemo workloads`)"
        )));
    };

    let kinds: Vec<PolicyKind> = if policy_arg == "all" {
        PolicyKind::ALL.to_vec()
    } else {
        policy_arg
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|name| {
                PolicyKind::by_name(name).ok_or_else(|| {
                    CliError::Usage(format!(
                        "unknown policy '{name}' (greedy|lru|asym|random|oracle|all, comma-separable)"
                    ))
                })
            })
            .collect::<Result<_, _>>()?
    };
    if kinds.is_empty() {
        return Err(CliError::Usage("no policy named in --policy".to_string()));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "tiering '{}' over '{hierarchy_arg}' ({} tiers, ${:.2}): {} requests{}",
        trace.name,
        spec.tiers.len(),
        spec.cost_usd(),
        trace.len(),
        if epoch > 0 {
            format!(", re-planning every {epoch} requests")
        } else {
            ", static placement".to_string()
        }
    );
    for t in &spec.tiers {
        let _ = writeln!(
            out,
            "  {:<10} {:>9.1} MiB  ${:.2}/GiB  {:>7.0} ns read latency",
            t.name,
            t.capacity_bytes as f64 / (1 << 20) as f64,
            t.price_per_gib,
            t.spec.read_latency_ns
        );
    }
    if fault_plan.is_some() {
        let _ = writeln!(out, "  fault plan installed");
    }

    let header = format!(
        "policy,runtime_ns,throughput_ops_s,cost_usd,cost_efficiency,moved_keys,moved_bytes,{}",
        spec.tiers
            .iter()
            .map(|t| format!("{}_bytes", t.name))
            .collect::<Vec<_>>()
            .join(",")
    );
    let mut csv_rows = Vec::new();
    let _ = writeln!(
        out,
        "\n  {:<8} {:>14} {:>12} {:>12} {:>7}  occupancy (top→bottom)",
        "policy", "runtime_ns", "ops/s", "ops/s/$", "moved"
    );
    for kind in kinds {
        let windows = trace_windows(&trace, epoch);
        let mut server = Server::build_tiered(
            StoreKind::Redis,
            spec.clone(),
            hybridmem::clock::NoiseConfig::disabled(),
            &trace,
            kind.build(seed, &windows),
            epoch,
        )
        .map_err(|e| CliError::Engine(format!("cannot build tiered server: {e}")))?;
        if let Some(plan) = &fault_plan {
            server.install_fault_plan(plan);
        }
        let report = server.run(&trace);
        let mig = server.migration_stats();
        let throughput = report.throughput_ops_s();
        let cost_eff = throughput / spec.cost_usd();
        let occupancy: Vec<u64> = (0..spec.tiers.len())
            .map(|i| {
                server
                    .engine()
                    .bytes_in(hybridmem::TierId(u8::try_from(i).unwrap_or(u8::MAX)))
            })
            .collect();
        let _ = writeln!(
            out,
            "  {:<8} {:>14.0} {:>12.0} {:>12.1} {:>7}  {}",
            kind.name(),
            report.runtime_ns,
            throughput,
            cost_eff,
            mig.moved_keys,
            occupancy
                .iter()
                .map(|b| format!("{:.1} MiB", *b as f64 / (1 << 20) as f64))
                .collect::<Vec<_>>()
                .join(" / ")
        );
        csv_rows.push(format!(
            "{},{:.0},{:.3},{:.6},{:.6},{},{},{}",
            kind.name(),
            report.runtime_ns,
            throughput,
            spec.cost_usd(),
            cost_eff,
            mig.moved_keys,
            mig.moved_bytes,
            occupancy
                .iter()
                .map(|b| b.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ));
    }
    if let Some(path) = csv_path {
        let text = format!("{header}\n{}\n", csv_rows.join("\n"));
        std::fs::write(&path, text)
            .map_err(|e| CliError::Io(format!("cannot write '{path}': {e}")))?;
        let _ = writeln!(out, "\n  [csv] {path}");
    }
    Ok(out)
}

/// `mnemo analyze <trace>`
pub fn analyze(parsed: &mut Parsed) -> Result<String, CliError> {
    let path = parsed.positional_required("trace file")?.to_string();
    let trace = load_trace(&path)?;
    let report = ycsb::fit::SkewReport::analyze(&trace);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload '{}': {} keys, {} requests, {:.1} MB dataset",
        trace.name,
        trace.keys(),
        trace.len(),
        trace.dataset_bytes() as f64 / 1e6
    );
    let _ = writeln!(
        out,
        "  read fraction:      {:.1}%",
        trace.read_fraction() * 100.0
    );
    let _ = writeln!(
        out,
        "  hottest 10% mass:   {:.1}%",
        report.hot10_mass * 100.0
    );
    let _ = writeln!(
        out,
        "  hottest 20% mass:   {:.1}%",
        report.hot20_mass * 100.0
    );
    let _ = writeln!(
        out,
        "  hottest 50% mass:   {:.1}%",
        report.hot50_mass * 100.0
    );
    let _ = writeln!(out, "  gini coefficient:   {:.3}", report.gini);
    if let Some(theta) = report.zipf_theta {
        let _ = writeln!(out, "  fitted zipf theta:  {theta:.2}");
    }
    let _ = writeln!(
        out,
        "  untouched keys:     {:.1}%",
        report.untouched_fraction * 100.0
    );
    let suggestion = report.suggest_distribution();
    let _ = writeln!(
        out,
        "
  synthetic equivalent: {} ({suggestion:?})",
        suggestion.name()
    );
    Ok(out)
}

const DOWNSAMPLE_OPTIONS: Options = &[&["factor", "seed", "o"]];

/// `mnemo downsample <trace> --factor N -o <file>`
pub fn downsample(parsed: &mut Parsed) -> Result<String, CliError> {
    let path = parsed.positional_required("trace file")?.to_string();
    let factor: usize = parsed.number_or("factor", 2usize)?;
    if factor < 1 {
        return Err(CliError::Usage("--factor must be >= 1".into()));
    }
    let seed = parsed.number_or("seed", 1u64)?;
    let output = parsed.require("o")?;
    let trace = load_trace(&path)?;
    let sampled = ycsb::sample::downsample(&trace, factor, seed);
    save_trace(&sampled, output)?;
    Ok(format!(
        "kept {} of {} requests (1/{} sample) -> {}",
        sampled.len(),
        trace.len(),
        factor,
        output
    ))
}

const PLAN_OPTIONS: Options = &[CONSULT_OPTIONS, &["provider", "deploy-gib"]];

/// `mnemo plan <trace> [--provider ...] [--deploy-gib N]`
pub fn plan(parsed: &mut Parsed) -> Result<String, CliError> {
    let path = parsed.positional_required("trace file")?.to_string();
    parse_config(parsed)?; // surface option errors before file I/O
    let trace = load_trace(&path)?;
    let (_, slo, consultation) = consultation_from(parsed, &trace)?;
    let rec = consultation
        .recommend(slo)
        .ok_or_else(|| CliError::Engine("empty curve".into()))?;
    let price: f64 = parsed.number_or("price", 0.20)?;

    // Scale the recommended ratio to the deployment size (default: the
    // dataset itself).
    let deploy_gib: f64 = parsed.number_or(
        "deploy-gib",
        trace.dataset_bytes() as f64 / (1u64 << 30) as f64,
    )?;
    let total = (deploy_gib * (1u64 << 30) as f64) as u64;
    let fast = (total as f64 * rec.fast_ratio) as u64;
    let slow = total - fast;

    let providers: Vec<ProviderKind> = match parsed.options.get("provider") {
        Some(p) if !p.is_empty() => vec![parse_provider(p)?],
        _ => ProviderKind::ALL.to_vec(),
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "deployment: {:.0} GiB total, {:.1}% DRAM ({:.1} GiB) + NVM at {:.0}% DRAM price",
        deploy_gib,
        rec.fast_ratio * 100.0,
        fast as f64 / (1u64 << 30) as f64,
        price * 100.0
    );
    for kind in providers {
        let provider = Provider::new(kind);
        match cloudcost::planner::plan(&provider, fast, slow, price) {
            Ok(p) => {
                let _ = writeln!(
                    out,
                    "  {:<24} {} + {}  ${:.3}/h vs ${:.3}/h all-DRAM ({:.1}% saved)",
                    kind.name(),
                    p.dram_instance,
                    p.nvm_instance.as_deref().unwrap_or("-"),
                    p.hourly_usd,
                    p.dram_only_hourly_usd,
                    p.savings() * 100.0
                );
            }
            Err(e) => {
                let _ = writeln!(out, "  {:<24} cannot plan: {e}", kind.name());
            }
        }
    }
    Ok(out)
}

const LINT_OPTIONS: Options = &[&["root", "format", "deny-warnings", "cache-dir", "explain"]];

/// `mnemo lint [--root DIR] [--format human|json|sarif] [--deny-warnings]
///             [--cache-dir DIR] [--explain CODE]`
///
/// Runs the workspace determinism/robustness linter (the same engine as
/// the standalone `mnemo-lint` binary). `--explain CODE` short-circuits
/// to the rule's documentation page. `--cache-dir` memoizes per-file
/// analyses keyed on content hashes so warm re-runs only re-lex changed
/// files. The rendered report is returned on success; when unallowed
/// findings exist it comes back as [`CliError::Lint`] so the process
/// exits 1 with the report on stdout.
pub fn lint(parsed: &mut Parsed) -> Result<String, CliError> {
    if let Some(code) = parsed.options.get("explain").filter(|v| !v.is_empty()) {
        return mnemo_lint::explain_code(code).map_err(CliError::Usage);
    }
    let root = parsed.get_or("root", ".").to_string();
    let format = match parsed.options.get("format").filter(|v| !v.is_empty()) {
        None => mnemo_lint::Format::Human,
        Some(v) => mnemo_lint::Format::parse(v)
            .ok_or_else(|| CliError::Usage(format!("unknown format '{v}' (human|json|sarif)")))?,
    };
    let deny_warnings = parsed.flag("deny-warnings");
    let cache_dir = parsed
        .options
        .get("cache-dir")
        .filter(|v| !v.is_empty())
        .map(std::path::PathBuf::from);
    let report = mnemo_lint::lint_tree_cached(std::path::Path::new(&root), cache_dir.as_deref())
        .map_err(|e| CliError::Io(format!("cannot scan '{root}': {e}")))?;
    let rendered = mnemo_lint::render(&report, format);
    if report.is_failure(deny_warnings) {
        Err(CliError::Lint(rendered))
    } else {
        Ok(rendered)
    }
}

const PERF_OPTIONS: Options = &[&[
    "suite",
    "scale",
    "out",
    "findings",
    "wall-tolerance",
    "alloc-tolerance",
]];

/// `mnemo perf [run|baseline|compare] ...`
///
/// The perf-audit harness: `run` executes the pinned bench suite and
/// prints the trajectory, `baseline` additionally writes it to a JSON
/// file for later comparison, and `compare` diffs two trajectory files
/// into findings — exiting 6 ([`CliError::Perf`]) when any finding
/// fails the gate (wall-clock regression over the tolerance, any
/// deterministic-counter drift, a missing bench).
pub fn perf(parsed: &mut Parsed) -> Result<String, CliError> {
    let sub = if parsed.positional.is_empty() {
        "run".to_string()
    } else {
        parsed.positional.remove(0)
    };
    match sub.as_str() {
        "run" => perf_run(parsed, None),
        "baseline" => {
            let out = parsed.get_or("out", "perf/BENCH_CORE.json").to_string();
            perf_run(parsed, Some(out))
        }
        "compare" => perf_compare(parsed),
        other => Err(CliError::Usage(format!(
            "unknown perf subcommand '{other}' (run|baseline|compare)"
        ))),
    }
}

fn perf_run(parsed: &mut Parsed, out_override: Option<String>) -> Result<String, CliError> {
    let suite_name = parsed.get_or("suite", "smoke").to_string();
    let spec = mnemo_bench::perf::suite_spec(&suite_name)
        .ok_or_else(|| CliError::Usage(format!("unknown suite '{suite_name}' (smoke|core)")))?;
    let scale: u64 = parsed.number_or("scale", spec.default_scale)?;
    if scale == 0 {
        return Err(CliError::Usage("--scale needs a positive integer".into()));
    }
    let out = out_override.or_else(|| parsed.options.get("out").filter(|v| !v.is_empty()).cloned());
    let report = mnemo_bench::perf::run_suite(spec, scale).map_err(CliError::Engine)?;
    let mut summary = mnemo_bench::perf::run_summary(&report);
    if let Some(path) = &out {
        write_creating_parents(path, &report.to_json())?;
        summary.push_str(&format!("trajectory -> {path}\n"));
    }
    Ok(summary)
}

fn perf_compare(parsed: &mut Parsed) -> Result<String, CliError> {
    let base_path = parsed
        .positional_required("baseline trajectory JSON")?
        .to_string();
    parsed.positional.remove(0);
    let cur_path = parsed
        .positional_required("current trajectory JSON")?
        .to_string();
    parsed.positional.remove(0);
    let defaults = mnemo_bench::perf::Thresholds::default();
    let thresholds = mnemo_bench::perf::Thresholds {
        wall_tolerance: parsed.number_or("wall-tolerance", defaults.wall_tolerance)?,
        alloc_tolerance: parsed.number_or("alloc-tolerance", defaults.alloc_tolerance)?,
        ..defaults
    };
    if !thresholds.wall_tolerance.is_finite() || thresholds.wall_tolerance < 1.0 {
        return Err(CliError::Usage("--wall-tolerance must be >= 1.0".into()));
    }
    if !thresholds.alloc_tolerance.is_finite() || thresholds.alloc_tolerance < 0.0 {
        return Err(CliError::Usage("--alloc-tolerance must be >= 0".into()));
    }
    let baseline = load_trajectory(&base_path)?;
    let current = load_trajectory(&cur_path)?;
    let cmp = mnemo_bench::perf::compare(&baseline, &current, &thresholds);
    if let Some(path) = parsed
        .options
        .get("findings")
        .filter(|v| !v.is_empty())
        .cloned()
    {
        write_creating_parents(&path, &mnemo_bench::perf::findings_json(&cmp, &thresholds))?;
    }
    let summary = mnemo_bench::perf::human_summary(&baseline, &current, &cmp);
    if cmp.failures() > 0 {
        Err(CliError::Perf(summary))
    } else {
        Ok(summary)
    }
}

fn load_trajectory(path: &str) -> Result<mnemo_bench::perf::CoreReport, CliError> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
    mnemo_bench::perf::CoreReport::from_json(&src)
        .map_err(|e| CliError::Parse(format!("{path}: {e}")))
}

fn write_creating_parents(path: &str, contents: &str) -> Result<(), CliError> {
    let p = std::path::Path::new(path);
    if let Some(dir) = p.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::Io(format!("cannot create {}: {e}", dir.display())))?;
    }
    std::fs::write(p, contents).map_err(|e| CliError::Io(format!("cannot write {path}: {e}")))
}
