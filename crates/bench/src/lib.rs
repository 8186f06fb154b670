//! Shared experiment-harness utilities.
//!
//! Every `src/bin/<experiment>` binary regenerates one of the paper's
//! tables or figures (see DESIGN.md's per-experiment index); this library
//! holds what they share: the paper-scale workload set, the measurement
//! configuration, the bounded parallel sweep helpers (`--jobs N` /
//! `MNEMO_JOBS`, see [`harness_args`]), per-stage [`SweepTimer`]
//! instrumentation and plain-text table/CSV output.

#![deny(unsafe_code)]
#![warn(missing_docs)]

// The one unsafe item in the harness: the counting global allocator the
// perf trajectory reports allocation counts through (GlobalAlloc is an
// unsafe trait). Everything else stays unsafe-free under the deny above.
#[allow(unsafe_code)]
pub mod alloc_track;
pub mod perf;
pub mod suite;

use hybridmem::clock::NoiseConfig;
use hybridmem::StackSpec;
use kvsim::{Server, StoreKind};
use mnemo::accuracy::EvalPoint;
use mnemo::advisor::{Advisor, AdvisorConfig, Consultation, OrderingKind};
use mnemo::ModelKind;
pub use mnemo_par::SweepTimer;
use mnemo_tier::DecayPolicy;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Mutex;
use ycsb::{Trace, WorkloadSpec};

/// Harness-level error: a human-readable message. Experiment mains
/// return `Result<(), HarnessError>` so failures exit nonzero through
/// `main`'s `Termination` instead of panicking mid-run.
pub type HarnessError = String;

static TELEMETRY_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Paper scale: Table III uses 10,000 keys and 100,000 requests. The
/// harness honours `MNEMO_SCALE` (a divisor, default 1) so CI can run a
/// reduced sweep: scale 10 → 1,000 keys / 10,000 requests.
pub fn scale_divisor() -> u64 {
    std::env::var("MNEMO_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&d| d >= 1)
        .unwrap_or(1)
}

/// The Table III workloads at harness scale.
pub fn paper_workloads() -> Vec<WorkloadSpec> {
    paper_workloads_at(scale_divisor())
}

/// The Table III workloads at an explicit scale divisor. The perf
/// harness pins its suites to fixed divisors through this entry point
/// instead of mutating `MNEMO_SCALE` process-wide.
pub fn paper_workloads_at(d: u64) -> Vec<WorkloadSpec> {
    WorkloadSpec::table3()
        .into_iter()
        .map(|w| {
            let keys = (w.keys / d.max(1)).max(10);
            let requests = (w.requests / d.max(1) as usize).max(100);
            w.scaled(keys, requests)
        })
        .collect()
}

/// One named workload at harness scale. Unknown names report the
/// available set instead of panicking, so experiment binaries can fail
/// with an actionable message.
pub fn paper_workload(name: &str) -> Result<WorkloadSpec, String> {
    paper_workload_at(scale_divisor(), name)
}

/// One named workload at an explicit scale divisor.
pub fn paper_workload_at(d: u64, name: &str) -> Result<WorkloadSpec, String> {
    let all = paper_workloads_at(d);
    if let Some(w) = all.iter().find(|w| w.name == name) {
        return Ok(w.clone());
    }
    let available: Vec<&str> = all.iter().map(|w| w.name.as_str()).collect();
    Err(format!(
        "unknown workload '{name}' (available: {})",
        available.join(", ")
    ))
}

/// The measurement testbed: the paper's Table I spec with the LLC scaled
/// to keep the paper's cache:dataset proportion when `MNEMO_SCALE`
/// shrinks the dataset.
pub fn testbed_for(trace: &Trace) -> StackSpec {
    let mut spec = StackSpec::paper_testbed();
    let dataset = trace.dataset_bytes();
    // Paper proportion: 12 MB LLC for a ~1 GB dataset (ratio ~85).
    spec.cache.capacity_bytes = spec.cache.capacity_bytes.min((dataset / 85).max(1 << 16));
    spec
}

/// Requests between the migrating tierer's re-plans in the experiments
/// that compare against it: 50 epochs per trace, so 2,000 requests at
/// paper scale and still several epochs at smoke scale.
pub fn tierer_epoch(trace: &Trace) -> u64 {
    (trace.len() as u64 / 50).max(1)
}

/// The migrating tierer Mnemo is set against (paper Fig. 2b) as a Redis
/// server on `testbed`: every key starts in SlowMem and a
/// [`DecayPolicy`] refills `budget` logical FastMem bytes every `epoch`
/// requests, each copy charged to the run.
pub fn decay_server(
    trace: &Trace,
    testbed: &StackSpec,
    budget: u64,
    epoch: u64,
) -> Result<Server, String> {
    Server::build_tiered(
        StoreKind::Redis,
        testbed.clone(),
        NoiseConfig::disabled(),
        trace,
        Box::new(DecayPolicy::new(budget)),
        epoch,
    )
    .map_err(|e| format!("decay server build failed: {e}"))
}

/// Default measurement jitter (the paper reports means of repeated runs;
/// the jitter stands in for run-to-run variability).
pub fn measurement_noise(seed: u64) -> NoiseConfig {
    NoiseConfig::default_jitter(seed)
}

/// The advisor configured as the paper runs it.
pub fn paper_advisor(trace: &Trace, ordering: OrderingKind, model: ModelKind) -> Advisor {
    Advisor::new(AdvisorConfig {
        spec: testbed_for(trace),
        noise: measurement_noise(7),
        price_factor: 0.2,
        model,
        ordering,
        cache_correction: None,
        fault_plan: None,
    })
}

/// Consult with the standard configuration.
pub fn consult(
    store: StoreKind,
    trace: &Trace,
    ordering: OrderingKind,
) -> Result<Consultation, HarnessError> {
    paper_advisor(trace, ordering, ModelKind::GlobalAverage)
        .consult(store, trace)
        .map_err(|e| format!("consultation failed: {e}"))
}

/// Measured-vs-estimated points along a consultation's curve.
pub fn eval_points(
    store: StoreKind,
    trace: &Trace,
    consultation: &Consultation,
    points: usize,
) -> Result<Vec<EvalPoint>, HarnessError> {
    mnemo::accuracy::evaluate(
        store,
        trace,
        consultation,
        &testbed_for(trace),
        measurement_noise(1234),
        points,
    )
    .map_err(|e| format!("evaluation failed: {e}"))
}

/// Run `jobs` closures as coarse jobs on the bounded worker pool and
/// return their results in order. Unlike the old one-thread-per-job
/// helper, a 64-point sweep on a 4-worker pool runs 4 threads, not 64;
/// results are byte-identical for any `--jobs` value.
pub fn parallel<T: Send, F: Fn(usize) -> T + Sync>(jobs: usize, f: F) -> Vec<T> {
    mnemo_par::Pool::current().run_jobs(jobs, f)
}

/// Experiment-binary startup: honour the shared `--jobs N` flag (also
/// `--jobs=N`; `MNEMO_JOBS` is the environment-variable equivalent) and
/// the shared `--telemetry DIR` flag (`MNEMO_TELEMETRY` equivalent),
/// and return the remaining command-line arguments in order, so
/// binaries with positional arguments (e.g. `fig5 [a|b|c]`) keep
/// working.
pub fn harness_args() -> Result<Vec<String>, HarnessError> {
    let (jobs, rest) = strip_jobs_flag(std::env::args().skip(1).collect())?;
    if let Some(n) = jobs {
        mnemo_par::set_jobs(n);
    }
    let (telemetry, rest) = strip_telemetry_flag(rest)?;
    if let Some(dir) = telemetry {
        *lock_telemetry_dir() = Some(PathBuf::from(dir));
    }
    Ok(rest)
}

/// The telemetry-directory override cell; poison recovery keeps the
/// harness total even if a panicking test held the lock.
fn lock_telemetry_dir() -> std::sync::MutexGuard<'static, Option<PathBuf>> {
    TELEMETRY_DIR
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Split the `--telemetry DIR` / `--telemetry=DIR` flag out of an
/// argument vector (last occurrence wins), mirroring
/// [`strip_jobs_flag`].
pub fn strip_telemetry_flag(
    mut args: Vec<String>,
) -> Result<(Option<String>, Vec<String>), HarnessError> {
    let mut dir = None;
    let mut i = 0;
    while i < args.len() {
        if let Some(v) = args[i].strip_prefix("--telemetry=") {
            dir = Some(v.to_string());
            args.remove(i);
        } else if args[i] == "--telemetry" {
            dir = Some(
                args.get(i + 1)
                    .ok_or("--telemetry needs a directory")?
                    .clone(),
            );
            args.drain(i..=i + 1);
        } else {
            i += 1;
        }
    }
    Ok((dir, args))
}

/// Where telemetry exports land, if enabled: the `--telemetry DIR`
/// flag (stripped by [`harness_args`]) or, failing that, the
/// `MNEMO_TELEMETRY` environment variable. `None` means telemetry
/// export is off.
pub fn telemetry_dir() -> Option<PathBuf> {
    if let Some(dir) = lock_telemetry_dir().clone() {
        return Some(dir);
    }
    std::env::var("MNEMO_TELEMETRY")
        .ok()
        .filter(|s| !s.is_empty())
        .map(PathBuf::from)
}

/// Export an experiment's telemetry snapshots to
/// `<telemetry-dir>/telemetry-<label>/` when telemetry export is
/// enabled; a no-op otherwise. Sim-domain artifacts in the export are
/// byte-deterministic; wall-clock files carry the `timing-` filename
/// prefix the CI determinism/golden gates exclude.
pub fn export_telemetry(
    label: &str,
    snaps: &[mnemo_telemetry::Snapshot],
) -> Result<(), HarnessError> {
    let Some(base) = telemetry_dir() else {
        return Ok(());
    };
    let dir = base.join(format!("telemetry-{label}"));
    mnemo_telemetry::export::write_dir(&dir, snaps)
        .map_err(|e| format!("cannot write telemetry export to {}: {e}", dir.display()))?;
    println!("  [telemetry] {}", dir.display());
    Ok(())
}

/// Split the `--jobs N` / `--jobs=N` flag out of an argument vector.
/// Returns the requested worker count (last occurrence wins) and the
/// remaining arguments in their original order.
pub fn strip_jobs_flag(
    mut args: Vec<String>,
) -> Result<(Option<usize>, Vec<String>), HarnessError> {
    let parse = |v: &str| -> Result<usize, HarnessError> {
        v.parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("--jobs needs a positive integer, got '{v}'"))
    };
    let mut jobs = None;
    let mut i = 0;
    while i < args.len() {
        if let Some(v) = args[i].strip_prefix("--jobs=") {
            jobs = Some(parse(v)?);
            args.remove(i);
        } else if args[i] == "--jobs" {
            let v = args.get(i + 1).ok_or("--jobs needs a value")?.clone();
            jobs = Some(parse(&v)?);
            args.drain(i..=i + 1);
        } else {
            i += 1;
        }
    }
    Ok((jobs, args))
}

/// Write a [`SweepTimer`]'s per-stage wall-clock summary as
/// `timing-<label>.csv` in the experiment output dir and log a one-line
/// summary to stderr. Timing artifacts are intentionally prefixed so the
/// CI determinism/golden gates can exclude them — wall-clock values are
/// not byte-stable.
pub fn write_timing(timer: &SweepTimer) -> Result<(), HarnessError> {
    let path = out_dir()?.join(format!("timing-{}.csv", timer.label()));
    fs::write(&path, timer.to_csv())
        .map_err(|e| format!("cannot write timing csv {}: {e}", path.display()))?;
    eprintln!("{} -> {}", timer.summary(), path.display());
    Ok(())
}

/// Where experiment CSVs land.
pub fn out_dir() -> Result<PathBuf, HarnessError> {
    let dir =
        PathBuf::from(std::env::var("MNEMO_OUT").unwrap_or_else(|_| "target/experiments".into()));
    fs::create_dir_all(&dir)
        .map_err(|e| format!("cannot create experiment output dir {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Write a CSV artifact and report its path on stdout.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> Result<(), HarnessError> {
    let path = out_dir()?.join(name);
    let err = |e: std::io::Error| format!("cannot write csv {}: {e}", path.display());
    let mut f = fs::File::create(&path).map_err(err)?;
    writeln!(f, "{header}").map_err(err)?;
    for row in rows {
        writeln!(f, "{row}").map_err(err)?;
    }
    println!("  [csv] {}", path.display());
    Ok(())
}

/// Print an aligned plain-text table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// The three stores in presentation order.
pub fn stores() -> [StoreKind; 3] {
    [StoreKind::Redis, StoreKind::Dynamo, StoreKind::Memcached]
}

/// Deterministic per-workload seed.
pub fn seed_for(name: &str) -> u64 {
    mnemo_codec::fnv64(name.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_workloads_have_five_entries() {
        assert_eq!(paper_workloads().len(), 5);
    }

    #[test]
    fn unknown_workload_lists_the_available_names() {
        let err = paper_workload("frobnicate").unwrap_err();
        assert!(err.contains("frobnicate"), "{err}");
        assert!(err.contains("available:"), "{err}");
        assert!(err.contains("trending"), "{err}");
    }

    #[test]
    fn testbed_keeps_cache_proportion() {
        let t = paper_workload("trending")
            .unwrap()
            .scaled(100, 500)
            .generate(1);
        let spec = testbed_for(&t);
        assert!(spec.cache.capacity_bytes <= t.dataset_bytes() / 85 + (1 << 16));
    }

    #[test]
    fn parallel_preserves_order() {
        let out = parallel(8, |i| i * i);
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    }

    #[test]
    fn parallel_is_bounded_and_deterministic() {
        // Regardless of pool width, job results land in index order.
        let a = parallel(64, |i| i as u64 * 3);
        let b: Vec<u64> = (0..64).map(|i| i * 3).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn jobs_flag_is_stripped_in_both_forms() {
        let argv = |parts: &[&str]| parts.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let (jobs, rest) = strip_jobs_flag(argv(&["a", "--jobs", "3", "b"])).unwrap();
        assert_eq!(jobs, Some(3));
        assert_eq!(rest, argv(&["a", "b"]));
        let (jobs, rest) = strip_jobs_flag(argv(&["--jobs=7"])).unwrap();
        assert_eq!(jobs, Some(7));
        assert!(rest.is_empty());
        let (jobs, rest) = strip_jobs_flag(argv(&["fig5", "a"])).unwrap();
        assert_eq!(jobs, None);
        assert_eq!(rest, argv(&["fig5", "a"]));
    }

    #[test]
    fn jobs_flag_rejects_garbage() {
        let err = strip_jobs_flag(vec!["--jobs=zero".to_string()]).unwrap_err();
        assert!(err.contains("positive integer"), "{err}");
    }

    #[test]
    fn telemetry_flag_is_stripped_in_both_forms() {
        let argv = |parts: &[&str]| parts.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let (dir, rest) = strip_telemetry_flag(argv(&["a", "--telemetry", "out", "b"])).unwrap();
        assert_eq!(dir.as_deref(), Some("out"));
        assert_eq!(rest, argv(&["a", "b"]));
        let (dir, rest) = strip_telemetry_flag(argv(&["--telemetry=x/y"])).unwrap();
        assert_eq!(dir.as_deref(), Some("x/y"));
        assert!(rest.is_empty());
        let (dir, rest) = strip_telemetry_flag(argv(&["fig5", "a"])).unwrap();
        assert_eq!(dir, None);
        assert_eq!(rest, argv(&["fig5", "a"]));
    }

    #[test]
    fn export_telemetry_writes_under_the_configured_dir() {
        let base = std::env::temp_dir().join(format!("mnemo-bench-tel-{}", std::process::id()));
        *lock_telemetry_dir() = Some(base.clone());
        let mut tel = mnemo_telemetry::Recorder::new();
        tel.count("x", 3);
        export_telemetry("unit", &[tel.snapshot(0)]).unwrap();
        *lock_telemetry_dir() = None;
        let exported = base.join("telemetry-unit");
        assert!(exported.join("telemetry.jsonl").exists());
        assert!(exported.join("schema.csv").exists());
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn seeds_are_stable_and_distinct() {
        assert_eq!(seed_for("trending"), seed_for("trending"));
        assert_ne!(seed_for("trending"), seed_for("timeline"));
    }
}
