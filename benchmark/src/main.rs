//! The repository benchmark (see `benchmark/README.md`).
//!
//! ```text
//! benchmark --workload NAME --seed N [--seconds S] --trace 0|1 [--work DIR]
//! benchmark compare BASE_DIR NEW_DIR [--spec BENCHMARK.json]
//! benchmark list
//! ```
//!
//! A run generates its inputs from `--seed`, measures for at least
//! `--seconds` (by default `run_seconds` from `BENCHMARK.json` in the
//! working directory), checks every output, prints one `name value unit` line
//! per metric and, as its last line, the result object. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` makes a separate traced
//! run that reports the per-layer metrics and writes its span records
//! under the work directory. Exit codes: 0 all checks passed, 1 a check
//! failed (the result is still printed), 2 usage, 3 the run could not
//! complete.

mod calib;
mod compare;
mod consult;
mod metrics;
mod os;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "consult-paper",
    "consult-ycsb",
    "serve-ingest",
    "serve-mixed",
];

/// What one run produced.
pub struct Outcome {
    /// Checks made.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// FNV-64 over outputs that depend only on the seed.
    pub digest: u64,
    /// End-to-end samples.
    pub e2e: metrics::EndToEnd,
    /// Per-layer quantities besides the spans.
    pub layers: metrics::Layers,
    /// The spans (empty when untraced).
    pub tracer: trace::Tracer,
    /// Sample counts and sim-domain results, printed as `#` lines.
    pub info: Vec<String>,
}

const USAGE: &str =
    "usage: benchmark --workload NAME --seed N [--seconds S] --trace 0|1 [--work DIR]
       benchmark compare BASE_DIR NEW_DIR [--spec BENCHMARK.json]
       benchmark list";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
}

/// Parse `--flag value` pairs; every flag is known and given once.
fn flags<'a>(args: &'a [String], known: &[&str]) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut out: Vec<(&str, &str)> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .filter(|n| known.contains(n))
            .ok_or_else(|| format!("unknown argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        if out.iter().any(|(n, _)| *n == name) {
            return Err(format!("--{name} given twice"));
        }
        out.push((name, value));
    }
    Ok(out)
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let given = flags(args, &["workload", "seed", "seconds", "trace", "work"])?;
    let get = |name: &str| given.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    let need = |name: &str| get(name).ok_or_else(|| format!("--{name} is required"));
    let workload = need("workload")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds: f64 = match get("seconds") {
        Some(s) => s.parse().map_err(|_| "--seconds needs a number")?,
        None => compare::read_spec(Path::new("BENCHMARK.json"))?.run_seconds,
    };
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds needs a non-negative number".into());
    }
    Ok(RunArgs {
        workload: workload.to_string(),
        seed: need("seed")?
            .parse()
            .map_err(|_| "--seed needs an unsigned integer")?,
        seconds,
        trace: match need("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
        },
        work: PathBuf::from(get("work").unwrap_or(".bench_work")),
    })
}

/// The `mnemo` binary built next to this one.
fn mnemo_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let mnemo = exe.with_file_name("mnemo");
    if !mnemo.exists() {
        return Err(format!(
            "{} is missing; build with benchmark/run.sh",
            mnemo.display()
        ));
    }
    Ok(mnemo)
}

fn run_workload(a: &RunArgs, work: &Path, cpu: usize) -> Result<Outcome, String> {
    // Enough consultations for a p90 with ten beyond it.
    let min_ops = stats::min_samples(0.90);
    let run_consult =
        |specs: Vec<_>| consult::run(&specs, a.seed, a.seconds, min_ops, a.trace, cpu);
    let run_serve = |w: serve::ServeWorkload| {
        serve::run(&w, &mnemo_binary()?, work, a.seed, a.seconds, a.trace, cpu)
    };
    match a.workload.as_str() {
        "consult-paper" => run_consult(consult::paper_specs()),
        "consult-ycsb" => run_consult(consult::ycsb_specs()),
        "serve-ingest" => run_serve(serve::ingest()),
        "serve-mixed" => run_serve(serve::mixed()),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn run(a: &RunArgs) -> Result<bool, String> {
    os::fix_mmap_threshold()?;
    // Every workload runs single-worker in the benchmark process too,
    // pinned with the daemons it spawns to one processor (see `calib`).
    mnemo_par::set_jobs(1);
    let cpu = os::pin_to_one_cpu()?;
    let work = a
        .work
        .join(format!("{}-{}", a.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let machine0 = os::all_cpu_ticks()?;
    let pinned = calib::StealMeter::start(cpu)?;
    let outcome = run_workload(a, &work, cpu);
    let _ = std::fs::remove_dir_all(&work);
    let outcome = outcome?;
    for line in &outcome.info {
        println!("# {line}");
    }
    // Time the host took the processors away, over the whole machine and
    // on the one this run used.
    let (steal, total) = os::all_cpu_ticks()?;
    println!(
        "# steal_frac {} (processor {cpu}: {})",
        (steal - machine0.0) as f64 / (total - machine0.1).max(1) as f64,
        1.0 - pinned.kept()?
    );
    println!("output_digest {:016x}", outcome.digest);
    let metrics = if a.trace {
        let spans = a
            .work
            .join(format!("spans-{}-seed{}.jsonl", a.workload, a.seed));
        std::fs::write(&spans, outcome.tracer.records_jsonl())
            .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
        println!("# spans {}", spans.display());
        metrics::layer_metrics(&outcome.tracer, &outcome.layers)?
    } else {
        outcome.e2e.metrics()?
    };
    metrics::print_result(outcome.attempted, outcome.failed, &metrics)?;
    Ok(outcome.failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") if args.len() == 1 => {
            WORKLOADS.iter().for_each(|w| println!("{w}"));
            Ok(true)
        }
        Some("compare") => match (
            args.get(1),
            args.get(2),
            flags(&args[3.min(args.len())..], &["spec"]),
        ) {
            (Some(base), Some(new), Ok(rest)) => {
                let spec = rest.first().map_or("BENCHMARK.json", |(_, v)| *v);
                compare::compare(Path::new(base), Path::new(new), Path::new(spec)).map(|bad| !bad)
            }
            (_, _, Err(e)) => return usage(&e),
            _ => return usage("compare needs BASE_DIR and NEW_DIR"),
        },
        _ => match parse_run_args(&args) {
            Ok(a) => run(&a),
            Err(e) => return usage(&e),
        },
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(3)
        }
    }
}

fn usage(error: &str) -> ExitCode {
    eprintln!("benchmark: {error}\n{USAGE}");
    ExitCode::from(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnemo_bench::perf::json::{self, Json};
    use ycsb::WorkloadSpec;

    fn spec() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn declared(key: &str) -> Vec<(String, String)> {
        spec()
            .get(key)
            .unwrap()
            .arr(key)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).map(|v| v.str(f).unwrap().to_string());
                (field("name").unwrap(), field("unit").unwrap_or_default())
            })
            .collect()
    }

    fn emitted(metrics: &[metrics::Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    fn all_emitted() -> (Vec<metrics::Metric>, Vec<metrics::Metric>) {
        let e2e = metrics::EndToEnd {
            setup_s: vec![1.0],
            op_ms: (0..100).map(f64::from).collect(),
            work_per_s: vec![1.0],
            peak_rss_kib: 1024,
        };
        let layers = metrics::layer_metrics(&trace::Tracer::new(true), &Default::default());
        (e2e.metrics().unwrap(), layers.unwrap())
    }

    #[test]
    fn metric_names_use_the_allowed_characters() {
        let (e2e, layers) = all_emitted();
        for m in e2e.iter().chain(&layers) {
            assert!(
                !m.name.is_empty()
                    && m.name.len() <= 64
                    && m.name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && m.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn emitted_metrics_and_workloads_match_benchmark_json() {
        let (e2e, layers) = all_emitted();
        assert_eq!(emitted(&e2e), declared("end_to_end"));
        assert_eq!(emitted(&layers), declared("per_layer"));
        let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn tiny_consult_run_agrees_with_its_traced_replay() {
        let specs = [
            WorkloadSpec::trending().scaled(200, 2_000),
            WorkloadSpec::ycsb_a().scaled(200, 2_000),
        ];
        let min_ops = stats::min_samples(0.90);
        let cpu = os::pin_to_one_cpu().unwrap();
        let run = |seed, trace| consult::run(&specs, seed, 0.0, min_ops, trace, cpu).unwrap();
        let (plain, traced) = (run(5, false), run(5, true));
        assert_eq!((plain.failed, traced.failed), (0, 0));
        // Six consultations a pass: enough passes for the p90, and a
        // warm-up pass before them.
        let passes = min_ops.div_ceil(6) as u64;
        assert_eq!(plain.attempted, 6 * (passes + 1));
        assert_eq!(traced.attempted, 6 * (passes + 1) + 1, "plus the re-check");
        assert_eq!(plain.digest, traced.digest);
        assert_ne!(
            plain.digest,
            run(6, false).digest,
            "the seed drives the inputs"
        );
        let t = &traced.tracer;
        assert_eq!(t.agg(trace::Span::Consult).calls, 6 * passes);
        assert_eq!(t.agg(trace::Span::KvsimVerify).calls, 6 * passes);
        assert_eq!(t.agg(trace::Span::YcsbGenerate).calls, 2 * passes);
        assert!(t.self_sum_s() <= traced.layers.wall_s);
        assert_eq!(plain.e2e.op_ms.len(), 6 * passes as usize);
    }

    #[test]
    fn run_arguments_are_strict() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_run_args(&argv(
            "--workload serve-mixed --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 10.0, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve-mixed --seed 1 --seconds 1 --trace 2",
            "--workload serve-mixed --seed 1 --seconds 1",
            "--workload serve-mixed --seed 1 --seconds 1 --trace 0 --bogus 1",
            "--workload serve-mixed --seed -1 --seconds 1 --trace 0",
        ] {
            assert!(parse_run_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
