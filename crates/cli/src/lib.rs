//! Implementation of the `mnemo` command-line tool.
//!
//! The paper describes Mnemo as "an open-source, easy to setup tool";
//! this crate is that artifact. All command logic lives in the library
//! so it is unit-testable; `main.rs` only forwards `std::env::args`.
//!
//! ```text
//! mnemo workloads
//! mnemo generate trending --keys 10000 --requests 100000 -o t.trace
//! mnemo consult t.trace --store redis --slo 0.10 --csv curve.csv
//! mnemo downsample t.trace --factor 8 -o sample.trace
//! mnemo plan t.trace --deploy-gib 256 --provider gcp
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod args;
pub mod commands;
pub mod error;

pub use error::CliError;

use std::fmt::Write as _;

/// Top-level usage text.
pub const USAGE: &str = "\
mnemo — memory capacity sizing consultant for hybrid memory systems

USAGE:
  mnemo <command> [options]

COMMANDS:
  workloads                      list the built-in workload presets
  generate <preset> -o <file>    materialise a preset into a trace file
      --keys N --requests N --seed S
  consult <trace-file>           run the full Mnemo pipeline on a trace
      --store redis|memcached|dynamodb   (default redis)
      --slo FRACTION                     (default 0.10)
      --price FRACTION                   (default 0.20)
      --ordering mnemot|touch|hotness    (default mnemot)
      --model global|size-aware          (default global)
      --cache-aware                      enable the LLC correction
      --csv <file>                       write the estimate curve CSV
      --report <file>                    write a Markdown report
  watch <trace-file>             replay the trace through a live server and
      profile it as a stream in O(k) memory, re-advising on workload drift
      --epoch N                          events per drift epoch (default 50000)
      --budget-kib N                     profiler memory budget (default 64)
      --telemetry <dir>                  export drift/advise telemetry
      --faults <plan>                    inject a fault plan (TOML/JSON) into
                                         the baselines and the live replay
      plus consult's --store/--slo/--price/--ordering/--model options
      --follow <socket>                  attach to a running `mnemo serve`
                                         daemon instead and stream its advice
                                         rows to stdout (--rows N to stop)
  serve                          long-lived multi-tenant advisor daemon:
      online JSONL ingest, bounded-latency advising, periodic shared-capacity
      re-planning across tenants
      --replay <file>                    drive a request log on the virtual
                                         clock; stdout is the row transcript
                                         (byte-identical for any --jobs N)
      --socket <path>                    listen on a length-framed Unix socket
                                         until a shutdown command
      (with neither, requests are read from stdin)
      --epoch N                          offered events per scheduler tick
                                         (default 2048)
      --drift-epoch N                    events per tenant drift epoch
                                         (default 1024)
      --budget-kib N                     per-tenant profiler budget (default 64)
      --queue N                          per-tenant queue bound (default 8192)
      --max-tenants N                    admission ceiling (default 64)
      --share-mib N                      shared FastMem pool re-planned across
                                         tenants (default 64)
      --replan-every N                   re-plan every N ticks (default 1)
      --state <file> --state-every N     crash-safe state dumps / warm restart
      --journal <dir>                    durable write-ahead journal (socket
                                         mode): every ingest/advise is
                                         checksummed to disk before it is
                                         applied, and a restart replays the
                                         tail past the dump's watermark
      --journal-segment-kib N            rotate segments at N KiB (default 64)
      --journal-sync-every N             fsync every N records (default 1)
      --telemetry <dir>                  export serve telemetry
      --faults <plan>                    fault plan; events with a tenant key
                                         apply only to that tenant
  chaos <request-log>            deterministic kill/restart harness for the
      durable serve path: replays the log uninterrupted (golden run), then
      with seeded kills + storage faults, restarting from dump+journal each
      time, and byte-diffs the recovered transcript/state against golden
      --kills N                          kill/restart points (default 8; one
                                         mid-dump and one mid-rotation kill
                                         are always anchored when present)
      --seed S                           kill schedule / fault draw seed
      --workdir <dir>                    golden/ and run/ live here (default:
                                         a per-process temp directory)
      --state-every N                    dump state every N ticks (default 1)
      --segment-kib N --sync-every N     journal sizing (defaults 8, 4: small
                                         segments so rotations happen)
      --faults <plan>                    storage faults (torn_write, bit_flip,
                                         fsync_fail, dump_corrupt) strike at
                                         each kill point
      plus serve's --epoch/--drift-epoch/--budget-kib/... options;
      exit code 7 when any recovered run diverges from the golden run
  trace <trace-file|preset>      run a workload with telemetry and print the
      per-epoch summary (p50/p99 latency, throughput, tier hits)
      --epoch N                          requests per epoch (default 20000;
                                         0 = one epoch for the whole run)
      --placement fast|slow|advised      key placement (default advised)
      --telemetry <dir>                  export the per-epoch telemetry
      --faults <plan>                    inject a fault plan (TOML/JSON);
                                         adds degraded/crash columns and
                                         nearest-feasible degraded advising
      plus consult's --store/--slo options; presets accept
      --keys/--requests/--seed like generate
  tier <trace-file|preset>       run the trace on an N-tier hierarchy with a
      pluggable tiering policy and report per-policy throughput,
      cost-efficiency and per-tier occupancy
      --hierarchy <preset|file>          paper_two_tier|dram_optane_ssd, or a
                                         TOML hierarchy spec file (default
                                         dram_optane_ssd)
      --policy greedy|lru|asym|random|oracle|all   (default greedy;
                                         comma-separable, e.g. greedy,lru)
      --epoch N                          re-plan every N requests (default 0 =
                                         static placement, the paper's mode)
      --faults <plan>                    fault plan; tier names resolve
                                         against the hierarchy's own names
      --csv <file>                       write the per-policy results CSV
      presets accept --keys/--requests/--seed like generate
  analyze <trace-file>           skew statistics + synthetic equivalent
  downsample <trace-file> --factor N -o <file>
      randomly downsize a trace (distribution-preserving)
  lint                           run the workspace determinism/robustness
      linter over crates/ (see CONTRIBUTING.md \"Determinism rules\")
      --root DIR                         workspace root (default .)
      --format human|json|sarif          (default human)
      --deny-warnings                    stale/malformed allows also fail
      --cache-dir DIR                    persist per-file analyses; warm
                                         runs re-lex only changed files
      --explain CODE                     print a rule's documentation page
  plan <trace-file>              price the recommendation as cloud VMs
      --provider aws|gcp|azure           (default all)
      --deploy-gib N                     scale the split to N GiB
      --slo FRACTION --price FRACTION
  perf [run|baseline|compare]    perf-audit harness over the bench suite
      run [--suite smoke|core]           run the suite, print the trajectory
      --scale N                          override the suite's scale divisor
      --out <file>                       also write BENCH_CORE.json there
      baseline --out <file>              run the suite and write the baseline
                                         trajectory (default perf/BENCH_CORE.json)
      compare <base.json> <cur.json>     diff two trajectories; non-zero exit
                                         on regression/counter drift
      --findings <file>                  write machine-readable findings.json
      --wall-tolerance X                 wall-clock regression gate (default 1.5)
      --alloc-tolerance X                allocation-count drift gate (default 0.02)

GLOBAL OPTIONS:
  --jobs N     worker threads for parallel stages (default: all cores;
               MNEMO_JOBS environment variable is the equivalent).
               Output is byte-identical for every value of N.

EXIT CODES:
  0 success    1 lint findings    2 usage error    3 I/O error
  4 malformed input    5 simulation/advisor failure    6 perf regression
  7 chaos divergence

Run any command with --help for details.";

/// Run the CLI on an argument vector (without the program name).
/// Returns the text to print, or a classified [`CliError`] whose
/// [`CliError::exit_code`] the binary propagates to the process.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let mut parsed = args::Parsed::parse(argv);
    let command = match parsed.positional.first().cloned() {
        None => return Ok(USAGE.to_string()),
        Some(c) => c,
    };
    if parsed.flag("help") {
        return Ok(USAGE.to_string());
    }
    let Some((options, handler)) = commands::lookup(&command) else {
        let mut msg = String::new();
        let _ = writeln!(msg, "unknown command '{command}'");
        let _ = write!(msg, "{USAGE}");
        return Err(CliError::Usage(msg));
    };
    parsed.check_options(&command, options)?;
    // Global --jobs N: bound the worker pool every parallel stage
    // (baseline runs, curve construction, shard loops) draws from.
    // Results are byte-identical for any value; this only tunes speed.
    let jobs: usize = parsed.number_or("jobs", 0usize)?;
    if parsed.flag("jobs") && jobs == 0 {
        return Err(CliError::Usage("--jobs needs a positive integer".into()));
    }
    if jobs > 0 {
        mnemo_par::set_jobs(jobs);
    }
    parsed.positional.remove(0);
    handler(&mut parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_args_prints_usage() {
        let out = run(&[]).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_is_an_error() {
        let err = run(&argv(&["frobnicate"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("unknown command"));
    }

    #[test]
    fn jobs_flag_is_validated_and_accepted() {
        assert!(run(&argv(&["workloads", "--jobs", "2"])).is_ok());
        let err = run(&argv(&["workloads", "--jobs"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("positive integer"), "{err}");
        assert!(run(&argv(&["workloads", "--jobs", "nope"])).is_err());
        // Leave the global pool unbounded for the other tests.
        mnemo_par::set_jobs(0);
    }

    #[test]
    fn undeclared_options_are_usage_errors() {
        let err = run(&argv(&["serve", "--replay", "x.jsonl", "--jbos", "4"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("--jbos"), "{err}");
        assert!(err.to_string().contains("mnemo serve"), "{err}");
        // `--seed -1` is a bad value, not a flag followed by the default.
        let err = run(&argv(&["generate", "trending", "--seed", "-1", "-o", "x"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(
            err.to_string().contains("'-1' is not a valid number"),
            "{err}"
        );
    }

    #[test]
    fn ci_and_benchmark_option_sets_are_declared() {
        let sets: [&[&str]; 5] = [
            &[
                "serve",
                "--replay",
                "f",
                "--epoch",
                "1",
                "--drift-epoch",
                "1",
                "--budget-kib",
                "8",
                "--telemetry",
                "d",
                "--faults",
                "p",
            ],
            &[
                "chaos",
                "f",
                "--seed",
                "23",
                "--kills",
                "8",
                "--workdir",
                "d",
                "--faults",
                "p",
            ],
            &[
                "perf",
                "compare",
                "a",
                "b",
                "--suite",
                "smoke",
                "--out",
                "o",
                "--wall-tolerance",
                "3.0",
                "--findings",
                "f",
            ],
            &[
                "serve",
                "--socket",
                "s",
                "--journal",
                "j",
                "--jobs",
                "1",
                "--epoch",
                "1",
                "--drift-epoch",
                "1",
                "--budget-kib",
                "8",
                "--journal-sync-every",
                "1",
                "--journal-segment-kib",
                "64",
            ],
            &[
                "lint",
                "--deny-warnings",
                "--format",
                "json",
                "--cache-dir",
                "c",
            ],
        ];
        for set in sets {
            let parsed = args::Parsed::parse(&argv(set));
            let (declared, _) = commands::lookup(set[0]).unwrap();
            assert_eq!(parsed.check_options(set[0], declared), Ok(()), "{set:?}");
        }
    }

    #[test]
    fn every_option_in_usage_is_declared_by_its_command() {
        let commands =
            &USAGE[USAGE.find("COMMANDS:").unwrap()..USAGE.find("GLOBAL OPTIONS:").unwrap()];
        let mut command = "";
        let mut checked = 0;
        for line in commands.lines().skip(1) {
            // A command's entry starts at a two-space indent.
            if line.starts_with("  ") && !line.starts_with("   ") {
                command = line.split_whitespace().next().unwrap();
            }
            let (declared, _) = commands::lookup(command).unwrap();
            for word in line.split(|c: char| c.is_whitespace() || "/([".contains(c)) {
                let Some(name) = word.strip_prefix("--").or((word == "-o").then_some("o")) else {
                    continue;
                };
                let name = name.trim_end_matches(|c: char| !c.is_ascii_alphanumeric());
                if name.is_empty() || name == "jobs" {
                    continue;
                }
                assert!(
                    declared.iter().any(|group| group.contains(&name)),
                    "USAGE documents --{name} for `mnemo {command}`, which does not declare it"
                );
                checked += 1;
            }
        }
        assert!(checked > 60, "only {checked} options found in USAGE");
    }

    #[test]
    fn usage_documents_the_jobs_flag() {
        let out = run(&[]).unwrap();
        assert!(out.contains("--jobs N"));
    }

    #[test]
    fn workloads_lists_presets() {
        let out = run(&argv(&["workloads"])).unwrap();
        assert!(out.contains("trending"));
        assert!(out.contains("ycsb-e"));
    }

    #[test]
    fn generate_consult_downsample_plan_pipeline() {
        let dir = std::env::temp_dir().join(format!("mnemo-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.trace");
        let curve = dir.join("curve.csv");
        let sample = dir.join("s.trace");

        let out = run(&argv(&[
            "generate",
            "trending",
            "--keys",
            "200",
            "--requests",
            "2000",
            "--seed",
            "5",
            "-o",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("wrote"), "{out}");

        let out = run(&argv(&[
            "consult",
            trace.to_str().unwrap(),
            "--store",
            "redis",
            "--slo",
            "0.10",
            "--csv",
            curve.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("recommendation"), "{out}");
        assert!(curve.exists());
        let csv = std::fs::read_to_string(&curve).unwrap();
        assert!(csv.lines().count() > 100, "full curve rows");

        let out = run(&argv(&["analyze", trace.to_str().unwrap()])).unwrap();
        assert!(out.contains("gini"), "{out}");

        let out = run(&argv(&[
            "downsample",
            trace.to_str().unwrap(),
            "--factor",
            "4",
            "-o",
            sample.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("kept"), "{out}");

        let out = run(&argv(&[
            "plan",
            trace.to_str().unwrap(),
            "--provider",
            "gcp",
            "--deploy-gib",
            "256",
        ]))
        .unwrap();
        assert!(out.contains("n1-"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn watch_profiles_a_stream_and_advises() {
        let dir = std::env::temp_dir().join(format!("mnemo-cli-watch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("w.trace");
        run(&argv(&[
            "generate",
            "trending",
            "--keys",
            "300",
            "--requests",
            "9000",
            "--seed",
            "3",
            "-o",
            trace.to_str().unwrap(),
        ]))
        .unwrap();

        let out = run(&argv(&[
            "watch",
            trace.to_str().unwrap(),
            "--epoch",
            "3000",
            "--slo",
            "0.10",
        ]))
        .unwrap();
        assert!(out.contains("profiler:"), "{out}");
        assert!(out.contains("initial epoch"), "{out}");
        assert!(out.contains("FastMem bytes"), "{out}");

        // Shorter than one epoch: the stream-end consultation covers it,
        // and the forced advice still lands in the telemetry export.
        let tel_dir = dir.join("watch-tel");
        let out = run(&argv(&[
            "watch",
            trace.to_str().unwrap(),
            "--telemetry",
            tel_dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("stream end"), "{out}");
        assert!(out.contains("telemetry written to"), "{out}");
        let jsonl = std::fs::read_to_string(tel_dir.join("telemetry.jsonl")).unwrap();
        assert!(jsonl.contains("stream.advise.emitted"), "{jsonl}");

        let err = run(&argv(&[
            "watch",
            trace.to_str().unwrap(),
            "--budget-kib",
            "2",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("budget"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_prints_per_epoch_table_and_exports() {
        let dir = std::env::temp_dir().join(format!("mnemo-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let tel_dir = dir.join("tel");

        // A Table III preset, generated in place, split across epochs.
        let out = run(&argv(&[
            "trace",
            "trending",
            "--keys",
            "300",
            "--requests",
            "8000",
            "--epoch",
            "2000",
            "--telemetry",
            tel_dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("p50_ns"), "{out}");
        assert!(out.contains("p99_ns"), "{out}");
        assert!(out.contains("ops/s"), "{out}");
        assert!(out.contains("fast_hits"), "{out}");
        assert!(out.contains("slow_hits"), "{out}");
        assert!(out.contains("total"), "{out}");
        assert!(out.contains("advised"), "{out}");
        assert!(tel_dir.join("telemetry.jsonl").exists());
        assert!(tel_dir.join("schema.csv").exists());

        // Fixed placements skip the consultation and still tabulate.
        let out = run(&argv(&[
            "trace",
            "trending",
            "--keys",
            "200",
            "--requests",
            "3000",
            "--placement",
            "slow",
            "--epoch",
            "0",
        ]))
        .unwrap();
        assert!(out.contains("the whole run"), "{out}");

        let err = run(&argv(&["trace", "no-such-preset"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(
            err.to_string()
                .contains("neither a trace file nor a preset"),
            "{err}"
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_with_fault_plan_adds_columns_and_classifies_plan_errors() {
        let dir = std::env::temp_dir().join(format!("mnemo-cli-faults-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let plan = dir.join("plan.toml");
        std::fs::write(
            &plan,
            "seed = 7\n\n[[event]]\nkind = \"latency_spike\"\ntier = \"slow\"\nstart_ns = 0\nend_ns = 500000000\nfactor = 8.0\n",
        )
        .unwrap();

        let out = run(&argv(&[
            "trace",
            "trending",
            "--keys",
            "200",
            "--requests",
            "3000",
            "--placement",
            "slow",
            "--epoch",
            "1000",
            "--faults",
            plan.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("fault plan: 1 event(s), seed 7"), "{out}");
        assert!(out.contains("degraded"), "{out}");
        assert!(out.contains("crashes"), "{out}");

        // An unreadable plan path is an I/O error (3); a malformed plan
        // is a parse error (4) carrying the offending line number.
        let err = run(&argv(&[
            "trace",
            "trending",
            "--keys",
            "200",
            "--requests",
            "3000",
            "--faults",
            dir.join("missing.toml").to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");

        let bad = dir.join("bad.toml");
        std::fs::write(&bad, "seed = 1\nnot a directive\n").unwrap();
        let err = run(&argv(&[
            "trace",
            "trending",
            "--keys",
            "200",
            "--requests",
            "3000",
            "--faults",
            bad.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        assert!(err.to_string().contains("line 2"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn consult_rejects_bad_store() {
        let err = run(&argv(&["consult", "/nonexistent", "--store", "oracle"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("store"), "{err}");
    }

    #[test]
    fn generate_requires_output() {
        let err = run(&argv(&["generate", "trending"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("-o"), "{err}");
    }

    fn perf_report(wall_ns: u64) -> mnemo_bench::perf::CoreReport {
        mnemo_bench::perf::CoreReport {
            schema: mnemo_bench::perf::SCHEMA.to_string(),
            suite: "smoke".to_string(),
            scale: 50,
            jobs: 1,
            benches: vec![mnemo_bench::perf::BenchRecord {
                name: "fig5".to_string(),
                wall_ns,
                items: 100,
                ops_per_s: 1000.0,
                peak_rss_kib: 0,
                alloc_count: 10_000,
                alloc_bytes: 640_000,
                stages: Vec::new(),
                counters: vec![("csv_fnv".to_string(), 42)],
            }],
        }
    }

    #[test]
    fn perf_usage_errors_are_classified() {
        let err = run(&argv(&["perf", "--suite", "giant"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        let err = run(&argv(&["perf", "frobnicate"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        let err = run(&argv(&["perf", "compare"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        let err = run(&argv(&[
            "perf",
            "compare",
            "a",
            "b",
            "--wall-tolerance",
            "0.5",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
    }

    #[test]
    fn perf_compare_gates_on_regression() {
        let dir = std::env::temp_dir().join(format!("mnemo-cli-perf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let fast = dir.join("fast.json");
        let slow = dir.join("slow.json");
        std::fs::write(&base, perf_report(1_000_000_000).to_json()).unwrap();
        std::fs::write(&fast, perf_report(400_000_000).to_json()).unwrap();
        std::fs::write(&slow, perf_report(2_000_000_000).to_json()).unwrap();

        // Improvement: informational, exit 0, summary still rendered.
        let out = run(&argv(&[
            "perf",
            "compare",
            base.to_str().unwrap(),
            fast.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("faster"), "{out}");

        // Regression past the default 1.5x: exit 6 with the summary as
        // the payload, and findings.json written where asked.
        let findings = dir.join("findings.json");
        let err = run(&argv(&[
            "perf",
            "compare",
            base.to_str().unwrap(),
            slow.to_str().unwrap(),
            "--findings",
            findings.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 6, "{err}");
        assert!(err.to_string().contains("FAIL"), "{err}");
        let doc = std::fs::read_to_string(&findings).unwrap();
        assert!(doc.contains("wall_regression"), "{doc}");

        // The same regression passes under a wider tolerance.
        let out = run(&argv(&[
            "perf",
            "compare",
            base.to_str().unwrap(),
            slow.to_str().unwrap(),
            "--wall-tolerance",
            "3.0",
        ]))
        .unwrap();
        assert!(out.contains("no findings"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn perf_compare_corrupt_json_is_a_line_numbered_parse_error() {
        let dir = std::env::temp_dir().join(format!("mnemo-cli-perfbad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.json");
        let bad = dir.join("bad.json");
        std::fs::write(&good, perf_report(1_000_000).to_json()).unwrap();
        std::fs::write(
            &bad,
            "{\n  \"schema\": \"mnemo-bench-core/v1\",\n  \"scale\": oops\n}\n",
        )
        .unwrap();
        let err = run(&argv(&[
            "perf",
            "compare",
            good.to_str().unwrap(),
            bad.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        assert!(err.to_string().contains("line 3"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn perf_compare_rejects_schema_mismatch() {
        let dir = std::env::temp_dir().join(format!("mnemo-cli-perfschema-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let other = dir.join("other.json");
        std::fs::write(&base, perf_report(1_000_000).to_json()).unwrap();
        let mut v2 = perf_report(1_000_000);
        v2.schema = "mnemo-bench-core/v2".to_string();
        std::fs::write(&other, v2.to_json()).unwrap();
        let err = run(&argv(&[
            "perf",
            "compare",
            base.to_str().unwrap(),
            other.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 6, "{err}");
        assert!(err.to_string().contains("not comparable"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
