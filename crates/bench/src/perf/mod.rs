//! The `mnemo perf` perf-audit harness.
//!
//! Runs a fixed suite of benches (fig1, fig5, table1, ycsb_core,
//! serve_throughput, components) at a pinned scale, measures each end to end —
//! wall clock per stage via the telemetry-span [`crate::SweepTimer`], ops/s,
//! peak RSS, allocation counts from [`crate::alloc_track`], and the
//! bench's own deterministic counters — and emits the machine-readable
//! `BENCH_CORE.json` trajectory CI gates on. [`compare`] diffs two
//! trajectory files into findings (regressions, improvements, counter
//! drift) with configurable thresholds; wall clock is compared loosely
//! (machines differ), deterministic counters exactly (drift means the
//! simulation changed), allocation counts within a small relative
//! tolerance (toolchains differ slightly).
//!
//! Determinism contract: a suite run pins the worker pool to one
//! worker, so the sim-domain counters and allocation counts are
//! functions of the binary + argv + environment only.

pub mod json;

use crate::suite::{self, SuiteOutcome};
use crate::HarnessError;
use json::Json;
use std::fmt::Write as _;

/// Trajectory schema identifier; bump on breaking layout changes.
pub const SCHEMA: &str = "mnemo-bench-core/v1";

/// The benches every suite runs, in run order.
pub const BENCHES: [&str; 6] = [
    "fig1",
    "fig5",
    "table1",
    "ycsb_core",
    "serve_throughput",
    "components",
];

/// A named suite: the same six benches at a pinned scale divisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuiteSpec {
    /// Suite name (`core`, `smoke`).
    pub name: &'static str,
    /// Default `MNEMO_SCALE`-style divisor the suite pins.
    pub default_scale: u64,
}

/// Look up a suite by name. `core` runs at paper scale (divisor 1);
/// `smoke` at divisor 50, matching the CI bench-smoke jobs.
pub fn suite_spec(name: &str) -> Option<SuiteSpec> {
    match name {
        "core" => Some(SuiteSpec {
            name: "core",
            default_scale: 1,
        }),
        "smoke" => Some(SuiteSpec {
            name: "smoke",
            default_scale: 50,
        }),
        _ => None,
    }
}

/// One per-stage wall-clock sample inside a bench.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRecord {
    /// Stage name (from the bench's own `SweepTimer`).
    pub name: String,
    /// Items the stage processed.
    pub items: u64,
    /// Stage wall clock in nanoseconds.
    pub wall_ns: u64,
}

/// One bench's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Bench name (`fig5`, …).
    pub name: String,
    /// End-to-end wall clock in nanoseconds.
    pub wall_ns: u64,
    /// Work items the bench drove (requests, rows — see its counters).
    pub items: u64,
    /// `items / wall` in items per second.
    pub ops_per_s: f64,
    /// Peak resident set size of the process so far, in KiB
    /// (`VmHWM`; 0 where unavailable). Informational only.
    pub peak_rss_kib: u64,
    /// Heap allocation events during the bench.
    pub alloc_count: u64,
    /// Heap bytes requested during the bench.
    pub alloc_bytes: u64,
    /// Per-stage wall samples from inside the bench.
    pub stages: Vec<StageRecord>,
    /// Deterministic sim-domain counters (sorted by name): request
    /// totals, output-row counts, FNV-1a artifact checksums. Compared
    /// exactly by the CI gate.
    pub counters: Vec<(String, u64)>,
}

/// A full trajectory: one suite run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreReport {
    /// [`SCHEMA`].
    pub schema: String,
    /// Suite name.
    pub suite: String,
    /// Scale divisor the run was pinned to.
    pub scale: u64,
    /// Worker count (always 1 for recorded trajectories).
    pub jobs: u64,
    /// Per-bench records, in run order.
    pub benches: Vec<BenchRecord>,
}

/// FNV-1a over raw bytes — the artifact checksum the counter gate uses.
pub use mnemo_codec::fnv64;

/// Peak resident set size in KiB from `/proc/self/status` (`VmHWM`);
/// 0 when the platform does not expose it. Wall-clock-free but still
/// machine-dependent — reported for humans, never gated on.
pub fn peak_rss_kib() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

fn saturating_u64(n: u128) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Run one suite at the given scale divisor and collect the trajectory.
///
/// Pins the worker pool to 1 for the duration (restored to unbounded
/// afterwards) so allocation counts and stage boundaries are
/// reproducible; sim-domain outputs are `--jobs`-invariant anyway.
pub fn run_suite(spec: SuiteSpec, scale: u64) -> Result<CoreReport, HarnessError> {
    mnemo_par::set_jobs(1);
    let result = run_suite_pinned(spec, scale);
    mnemo_par::set_jobs(0);
    result
}

fn run_suite_pinned(spec: SuiteSpec, scale: u64) -> Result<CoreReport, HarnessError> {
    let mut timer = mnemo_par::SweepTimer::new("perf");
    let mut benches = Vec::with_capacity(BENCHES.len());
    for name in BENCHES {
        println!(
            "\n==== perf: {name} (suite {}, scale {scale}) ====",
            spec.name
        );
        let (alloc0, bytes0) = crate::alloc_track::allocation_counts();
        let outcome = timer.stage(name, 1, || run_bench(name, scale))?;
        let (alloc1, bytes1) = crate::alloc_track::allocation_counts();
        let wall = timer
            .stages()
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map(|s| s.wall)
            .unwrap_or_default();
        let wall_ns = saturating_u64(wall.as_nanos());
        let wall_s = wall.as_secs_f64();
        benches.push(BenchRecord {
            name: name.to_string(),
            wall_ns,
            items: outcome.items,
            ops_per_s: if wall_s > 0.0 {
                outcome.items as f64 / wall_s
            } else {
                0.0
            },
            peak_rss_kib: peak_rss_kib(),
            alloc_count: alloc1.saturating_sub(alloc0),
            alloc_bytes: bytes1.saturating_sub(bytes0),
            stages: outcome
                .stages
                .iter()
                .map(|s| StageRecord {
                    name: s.name.clone(),
                    items: saturating_u64(s.items as u128),
                    wall_ns: saturating_u64(s.wall.as_nanos()),
                })
                .collect(),
            counters: outcome.counters,
        });
    }
    Ok(CoreReport {
        schema: SCHEMA.to_string(),
        suite: spec.name.to_string(),
        scale,
        jobs: 1,
        benches,
    })
}

fn run_bench(name: &str, scale: u64) -> Result<SuiteOutcome, HarnessError> {
    match name {
        "fig1" => suite::fig1::run(),
        "fig5" => suite::fig5::run(scale, None),
        "table1" => suite::table1::run(),
        "ycsb_core" => suite::ycsb_core::run(scale),
        "serve_throughput" => suite::serve_throughput::run(scale),
        "components" => suite::components::run(),
        other => Err(format!("unknown perf bench '{other}'")),
    }
}

// ---------------------------------------------------------------- JSON

impl CoreReport {
    /// Render the trajectory as pretty JSON (stable field order).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{}\",", json::escape(&self.schema));
        let _ = writeln!(out, "  \"suite\": \"{}\",", json::escape(&self.suite));
        let _ = writeln!(out, "  \"scale\": {},", self.scale);
        let _ = writeln!(out, "  \"jobs\": {},", self.jobs);
        out.push_str("  \"benches\": [\n");
        for (i, b) in self.benches.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"name\": \"{}\",", json::escape(&b.name));
            let _ = writeln!(out, "      \"wall_ns\": {},", b.wall_ns);
            let _ = writeln!(out, "      \"items\": {},", b.items);
            let _ = writeln!(out, "      \"ops_per_s\": {:.3},", b.ops_per_s);
            let _ = writeln!(out, "      \"peak_rss_kib\": {},", b.peak_rss_kib);
            let _ = writeln!(out, "      \"alloc_count\": {},", b.alloc_count);
            let _ = writeln!(out, "      \"alloc_bytes\": {},", b.alloc_bytes);
            out.push_str("      \"stages\": [");
            for (j, s) in b.stages.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\n        {{\"name\": \"{}\", \"items\": {}, \"wall_ns\": {}}}",
                    json::escape(&s.name),
                    s.items,
                    s.wall_ns
                );
            }
            if !b.stages.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("],\n");
            out.push_str("      \"counters\": {");
            for (j, (k, v)) in b.counters.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\n        \"{}\": {}", json::escape(k), v);
            }
            if !b.counters.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("}\n");
            out.push_str(if i + 1 < self.benches.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse a trajectory document. Lexical failures carry the source
    /// line ([`json::ParseError`]); structural failures name the field.
    pub fn from_json(src: &str) -> Result<CoreReport, json::ParseError> {
        let doc = json::parse(src)?;
        Self::from_value(&doc).map_err(|msg| json::ParseError { line: 1, msg })
    }

    fn from_value(doc: &Json) -> Result<CoreReport, String> {
        let schema = doc
            .field("schema", "trajectory")?
            .str("schema")?
            .to_string();
        let suite = doc.field("suite", "trajectory")?.str("suite")?.to_string();
        let scale = doc.field("scale", "trajectory")?.u64("scale")?;
        let jobs = doc.field("jobs", "trajectory")?.u64("jobs")?;
        let mut benches = Vec::new();
        for (i, b) in doc
            .field("benches", "trajectory")?
            .arr("benches")?
            .iter()
            .enumerate()
        {
            let what = format!("benches[{i}]");
            let name = b.field("name", &what)?.str("name")?.to_string();
            let mut stages = Vec::new();
            for (j, s) in b.field("stages", &what)?.arr("stages")?.iter().enumerate() {
                let swhat = format!("{what}.stages[{j}]");
                stages.push(StageRecord {
                    name: s.field("name", &swhat)?.str("name")?.to_string(),
                    items: s.field("items", &swhat)?.u64("items")?,
                    wall_ns: s.field("wall_ns", &swhat)?.u64("wall_ns")?,
                });
            }
            let mut counters = Vec::new();
            for (k, v) in b.field("counters", &what)?.obj("counters")? {
                counters.push((k.clone(), v.u64(&format!("{what}.counters.{k}"))?));
            }
            benches.push(BenchRecord {
                wall_ns: b.field("wall_ns", &what)?.u64("wall_ns")?,
                items: b.field("items", &what)?.u64("items")?,
                ops_per_s: b.field("ops_per_s", &what)?.f64("ops_per_s")?,
                peak_rss_kib: b.field("peak_rss_kib", &what)?.u64("peak_rss_kib")?,
                alloc_count: b.field("alloc_count", &what)?.u64("alloc_count")?,
                alloc_bytes: b.field("alloc_bytes", &what)?.u64("alloc_bytes")?,
                stages,
                counters,
                name,
            });
        }
        Ok(CoreReport {
            schema,
            suite,
            scale,
            jobs,
            benches,
        })
    }
}

// ------------------------------------------------------------- compare

/// Regression thresholds for [`compare`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Fail when `current wall > baseline wall * wall_tolerance`.
    /// 1.5 locally; the CI smoke gate passes 3.0 (runner variance).
    pub wall_tolerance: f64,
    /// Fail when allocation counts drift by more than this relative
    /// fraction (toolchain bumps move them slightly; sim counters are
    /// still compared exactly).
    pub alloc_tolerance: f64,
    /// Absolute wall-clock slack added on top of the ratio gate:
    /// a regression only fails when
    /// `current > baseline * wall_tolerance + wall_floor_ns`.
    /// Sub-millisecond benches (table1 prints two rows) are pure
    /// scheduler jitter — without a floor they flap the gate at any
    /// ratio tolerance.
    pub wall_floor_ns: u64,
}

impl Default for Thresholds {
    fn default() -> Thresholds {
        Thresholds {
            wall_tolerance: 1.5,
            alloc_tolerance: 0.02,
            wall_floor_ns: 5_000_000,
        }
    }
}

/// What a finding means for the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// Baseline and current disagree on schema/suite/scale — not
    /// comparable. Fails.
    Incomparable,
    /// A bench present in the baseline is missing from the current
    /// run. Fails.
    MissingBench,
    /// A bench new in the current run. Informational.
    NewBench,
    /// Wall clock regressed past the tolerance. Fails.
    WallRegression,
    /// Wall clock improved past the inverse tolerance. Informational.
    WallImprovement,
    /// A deterministic counter changed, appeared or disappeared. Fails.
    CounterDrift,
    /// Allocation counts drifted past the tolerance. Fails.
    AllocDrift,
}

impl FindingKind {
    /// Stable machine-readable name.
    pub fn as_str(&self) -> &'static str {
        match self {
            FindingKind::Incomparable => "incomparable",
            FindingKind::MissingBench => "missing_bench",
            FindingKind::NewBench => "new_bench",
            FindingKind::WallRegression => "wall_regression",
            FindingKind::WallImprovement => "wall_improvement",
            FindingKind::CounterDrift => "counter_drift",
            FindingKind::AllocDrift => "alloc_drift",
        }
    }

    /// Does this finding fail the compare gate?
    pub fn fails(&self) -> bool {
        !matches!(self, FindingKind::NewBench | FindingKind::WallImprovement)
    }
}

/// One compare finding.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfFinding {
    /// Bench the finding is about (empty for run-level findings).
    pub bench: String,
    /// Metric name (`wall_ns`, `alloc_count`, a counter name, …).
    pub metric: String,
    /// Classification.
    pub kind: FindingKind,
    /// Baseline value, rendered.
    pub baseline: String,
    /// Current value, rendered.
    pub current: String,
    /// `current / baseline` where meaningful.
    pub ratio: Option<f64>,
    /// Human-readable detail.
    pub note: String,
}

/// The outcome of diffing two trajectories.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Comparison {
    /// All findings, in bench order.
    pub findings: Vec<PerfFinding>,
}

impl Comparison {
    /// Findings that fail the gate.
    pub fn failures(&self) -> usize {
        self.findings.iter().filter(|f| f.kind.fails()).count()
    }
}

fn ratio(current: u64, baseline: u64) -> Option<f64> {
    (baseline > 0).then(|| current as f64 / baseline as f64)
}

/// Diff `current` against `baseline` under `thresholds`.
pub fn compare(baseline: &CoreReport, current: &CoreReport, th: &Thresholds) -> Comparison {
    let mut cmp = Comparison::default();
    for (metric, b, c) in [
        ("schema", &baseline.schema, &current.schema),
        ("suite", &baseline.suite, &current.suite),
    ] {
        if b != c {
            cmp.findings.push(PerfFinding {
                bench: String::new(),
                metric: metric.to_string(),
                kind: FindingKind::Incomparable,
                baseline: b.clone(),
                current: c.clone(),
                ratio: None,
                note: format!("{metric} mismatch; runs are not comparable"),
            });
        }
    }
    if baseline.scale != current.scale {
        cmp.findings.push(PerfFinding {
            bench: String::new(),
            metric: "scale".to_string(),
            kind: FindingKind::Incomparable,
            baseline: baseline.scale.to_string(),
            current: current.scale.to_string(),
            ratio: None,
            note: "scale mismatch; counters and walls are not comparable".to_string(),
        });
    }
    if !cmp.findings.is_empty() {
        // Nothing below is meaningful across incompatible runs.
        return cmp;
    }

    for b in &baseline.benches {
        let Some(c) = current.benches.iter().find(|c| c.name == b.name) else {
            cmp.findings.push(PerfFinding {
                bench: b.name.clone(),
                metric: "bench".to_string(),
                kind: FindingKind::MissingBench,
                baseline: "present".to_string(),
                current: "absent".to_string(),
                ratio: None,
                note: format!("bench {} missing from the current run", b.name),
            });
            continue;
        };
        // Wall clock: loose, threshold-gated both ways, with an
        // absolute floor so micro-bench jitter never fires the gate.
        let floor = th.wall_floor_ns as f64;
        if let Some(r) = ratio(c.wall_ns, b.wall_ns) {
            if c.wall_ns as f64 > b.wall_ns as f64 * th.wall_tolerance + floor {
                cmp.findings.push(PerfFinding {
                    bench: b.name.clone(),
                    metric: "wall_ns".to_string(),
                    kind: FindingKind::WallRegression,
                    baseline: b.wall_ns.to_string(),
                    current: c.wall_ns.to_string(),
                    ratio: Some(r),
                    note: format!("{:.2}x slower (tolerance {:.2}x)", r, th.wall_tolerance),
                });
            } else if (b.wall_ns as f64) > c.wall_ns as f64 * th.wall_tolerance + floor {
                cmp.findings.push(PerfFinding {
                    bench: b.name.clone(),
                    metric: "wall_ns".to_string(),
                    kind: FindingKind::WallImprovement,
                    baseline: b.wall_ns.to_string(),
                    current: c.wall_ns.to_string(),
                    ratio: Some(r),
                    note: format!("{:.2}x faster", 1.0 / r),
                });
            }
        }
        // Deterministic counters (and items): exact.
        if c.items != b.items {
            cmp.findings.push(PerfFinding {
                bench: b.name.clone(),
                metric: "items".to_string(),
                kind: FindingKind::CounterDrift,
                baseline: b.items.to_string(),
                current: c.items.to_string(),
                ratio: ratio(c.items, b.items),
                note: "work-item count changed".to_string(),
            });
        }
        for (name, bv) in &b.counters {
            let cv = c.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            match cv {
                Some(cv) if cv == *bv => {}
                Some(cv) => cmp.findings.push(PerfFinding {
                    bench: b.name.clone(),
                    metric: name.clone(),
                    kind: FindingKind::CounterDrift,
                    baseline: bv.to_string(),
                    current: cv.to_string(),
                    ratio: ratio(cv, *bv),
                    note: "deterministic counter drifted".to_string(),
                }),
                None => cmp.findings.push(PerfFinding {
                    bench: b.name.clone(),
                    metric: name.clone(),
                    kind: FindingKind::CounterDrift,
                    baseline: bv.to_string(),
                    current: "absent".to_string(),
                    ratio: None,
                    note: "deterministic counter disappeared".to_string(),
                }),
            }
        }
        for (name, cv) in &c.counters {
            if !b.counters.iter().any(|(n, _)| n == name) {
                cmp.findings.push(PerfFinding {
                    bench: b.name.clone(),
                    metric: name.clone(),
                    kind: FindingKind::CounterDrift,
                    baseline: "absent".to_string(),
                    current: cv.to_string(),
                    ratio: None,
                    note: "deterministic counter appeared".to_string(),
                });
            }
        }
        // Allocation counts: relative tolerance.
        if let Some(r) = ratio(c.alloc_count, b.alloc_count) {
            if (r - 1.0).abs() > th.alloc_tolerance {
                cmp.findings.push(PerfFinding {
                    bench: b.name.clone(),
                    metric: "alloc_count".to_string(),
                    kind: FindingKind::AllocDrift,
                    baseline: b.alloc_count.to_string(),
                    current: c.alloc_count.to_string(),
                    ratio: Some(r),
                    note: format!(
                        "allocation count drifted {:+.2}% (tolerance ±{:.0}%)",
                        (r - 1.0) * 100.0,
                        th.alloc_tolerance * 100.0
                    ),
                });
            }
        }
    }
    for c in &current.benches {
        if !baseline.benches.iter().any(|b| b.name == c.name) {
            cmp.findings.push(PerfFinding {
                bench: c.name.clone(),
                metric: "bench".to_string(),
                kind: FindingKind::NewBench,
                baseline: "absent".to_string(),
                current: "present".to_string(),
                ratio: None,
                note: format!("bench {} is new in the current run", c.name),
            });
        }
    }
    cmp
}

/// Render a comparison as `findings.json`.
pub fn findings_json(cmp: &Comparison, th: &Thresholds) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"mnemo-perf-findings/v1\",");
    let _ = writeln!(out, "  \"wall_tolerance\": {},", th.wall_tolerance);
    let _ = writeln!(out, "  \"alloc_tolerance\": {},", th.alloc_tolerance);
    let _ = writeln!(out, "  \"wall_floor_ns\": {},", th.wall_floor_ns);
    let _ = writeln!(out, "  \"failures\": {},", cmp.failures());
    out.push_str("  \"findings\": [");
    for (i, f) in cmp.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"bench\": \"{}\", \"metric\": \"{}\", \"kind\": \"{}\", \
             \"fails\": {}, \"baseline\": \"{}\", \"current\": \"{}\", \"ratio\": {}, \
             \"note\": \"{}\"}}",
            json::escape(&f.bench),
            json::escape(&f.metric),
            f.kind.as_str(),
            f.kind.fails(),
            json::escape(&f.baseline),
            json::escape(&f.current),
            f.ratio
                .map_or_else(|| "null".to_string(), |r| format!("{r:.4}")),
            json::escape(&f.note)
        );
    }
    if !cmp.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Render the human compare summary: per-bench walls with ratios, then
/// the findings.
pub fn human_summary(baseline: &CoreReport, current: &CoreReport, cmp: &Comparison) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "perf compare: suite {} scale {} — baseline vs current",
        current.suite, current.scale
    );
    let _ = writeln!(
        out,
        "{:<18} {:>14} {:>14} {:>8}",
        "bench", "baseline ms", "current ms", "ratio"
    );
    for b in &baseline.benches {
        if let Some(c) = current.benches.iter().find(|c| c.name == b.name) {
            let r = ratio(c.wall_ns, b.wall_ns).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "{:<18} {:>14.2} {:>14.2} {:>7.2}x",
                b.name,
                b.wall_ns as f64 / 1e6,
                c.wall_ns as f64 / 1e6,
                r
            );
        }
    }
    if cmp.findings.is_empty() {
        let _ = writeln!(out, "\nno findings: trajectories agree within thresholds");
    } else {
        let _ = writeln!(out, "\nfindings ({} fail the gate):", cmp.failures());
        for f in &cmp.findings {
            let _ = writeln!(
                out,
                "  [{}] {}{}{}: {} -> {} ({})",
                if f.kind.fails() { "FAIL" } else { "info" },
                f.bench,
                if f.bench.is_empty() { "" } else { "." },
                f.metric,
                f.baseline,
                f.current,
                f.note
            );
        }
    }
    out
}

/// Render a fresh run as a human table (the `mnemo perf` output).
pub fn run_summary(report: &CoreReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "perf suite {} (scale {}, jobs {}): {} benches",
        report.suite,
        report.scale,
        report.jobs,
        report.benches.len()
    );
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>12} {:>14} {:>12} {:>12}",
        "bench", "wall ms", "items", "items/s", "allocs", "peak MiB"
    );
    for b in &report.benches {
        let _ = writeln!(
            out,
            "{:<18} {:>12.2} {:>12} {:>14.0} {:>12} {:>12.1}",
            b.name,
            b.wall_ns as f64 / 1e6,
            b.items,
            b.ops_per_s,
            b.alloc_count,
            b.peak_rss_kib as f64 / 1024.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, wall_ns: u64, alloc: u64) -> BenchRecord {
        BenchRecord {
            name: name.to_string(),
            wall_ns,
            items: 100,
            // A value exact under the writer's `{:.3}` formatting, so
            // the round-trip test can compare reports for equality.
            ops_per_s: 12_345.5,
            peak_rss_kib: 2048,
            alloc_count: alloc,
            alloc_bytes: alloc * 64,
            stages: vec![StageRecord {
                name: "stage-a".to_string(),
                items: 100,
                wall_ns: wall_ns / 2,
            }],
            counters: vec![
                ("csv_fnv".to_string(), 0xdead_beef),
                ("rows".to_string(), 63),
            ],
        }
    }

    fn report(wall_ns: u64) -> CoreReport {
        CoreReport {
            schema: SCHEMA.to_string(),
            suite: "smoke".to_string(),
            scale: 50,
            jobs: 1,
            benches: vec![record("fig5", wall_ns, 10_000)],
        }
    }

    #[test]
    fn trajectory_json_round_trips() {
        let r = report(1_500_000);
        let parsed = CoreReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn corrupt_json_reports_the_line() {
        let mut doc = report(1_000).to_json();
        // Break a number mid-document.
        let pos = doc.find("\"wall_ns\": 1000").unwrap();
        doc.replace_range(pos..pos + 15, "\"wall_ns\": 10x0");
        let err = CoreReport::from_json(&doc).unwrap_err();
        assert!(err.line > 1, "line {} in {err}", err.line);
    }

    #[test]
    fn schema_mismatch_is_incomparable() {
        let base = report(1_000_000);
        let mut cur = report(1_000_000);
        cur.schema = "mnemo-bench-core/v2".to_string();
        let cmp = compare(&base, &cur, &Thresholds::default());
        assert_eq!(cmp.findings.len(), 1);
        assert_eq!(cmp.findings[0].kind, FindingKind::Incomparable);
        assert_eq!(cmp.failures(), 1);
    }

    #[test]
    fn improvement_is_informational() {
        let base = report(2_000_000_000);
        let cur = report(500_000_000);
        let cmp = compare(&base, &cur, &Thresholds::default());
        assert_eq!(cmp.findings.len(), 1, "{cmp:?}");
        assert_eq!(cmp.findings[0].kind, FindingKind::WallImprovement);
        assert_eq!(cmp.failures(), 0);
    }

    #[test]
    fn regression_over_threshold_fails() {
        let base = report(1_000_000_000);
        let cur = report(1_600_000_000);
        let cmp = compare(&base, &cur, &Thresholds::default());
        assert_eq!(cmp.failures(), 1, "{cmp:?}");
        assert_eq!(cmp.findings[0].kind, FindingKind::WallRegression);
        // Within tolerance: clean.
        let cur = report(1_400_000_000);
        assert_eq!(compare(&base, &cur, &Thresholds::default()).failures(), 0);
        // Wider tolerance forgives the same regression.
        let loose = Thresholds {
            wall_tolerance: 3.0,
            ..Thresholds::default()
        };
        let cur = report(1_600_000_000);
        assert_eq!(compare(&base, &cur, &loose).failures(), 0);
    }

    #[test]
    fn new_counter_is_drift_until_rerecorded() {
        let base = report(1_000_000);
        let mut cur = report(1_000_000);
        cur.benches[0]
            .counters
            .push(("stage.events".to_string(), 7));
        let cmp = compare(&base, &cur, &Thresholds::default());
        assert_eq!(cmp.failures(), 1, "{cmp:?}");
        let f = &cmp.findings[0];
        assert_eq!(f.kind, FindingKind::CounterDrift);
        assert_eq!(
            (f.metric.as_str(), f.baseline.as_str()),
            ("stage.events", "absent")
        );
        // Re-recording the baseline with the counter clears it.
        assert_eq!(compare(&cur, &cur, &Thresholds::default()).failures(), 0);
    }

    #[test]
    fn wall_floor_forgives_microbench_jitter() {
        // 60us -> 100us is a 1.67x "regression" but far below the 5ms
        // floor: micro-benches must not flap the gate.
        let base = report(60_000);
        let cur = report(100_000);
        assert_eq!(compare(&base, &cur, &Thresholds::default()).failures(), 0);
        // With the floor disabled the same pair fails.
        let strict = Thresholds {
            wall_floor_ns: 0,
            ..Thresholds::default()
        };
        assert_eq!(compare(&base, &cur, &strict).failures(), 1);
    }

    #[test]
    fn missing_bench_fails() {
        let base = report(1_000_000);
        let mut cur = report(1_000_000);
        cur.benches.clear();
        let cmp = compare(&base, &cur, &Thresholds::default());
        assert_eq!(cmp.findings[0].kind, FindingKind::MissingBench);
        assert_eq!(cmp.failures(), 1);
    }

    #[test]
    fn counter_drift_fails_exactly() {
        let base = report(1_000_000);
        let mut cur = report(1_000_000);
        cur.benches[0].counters[0].1 ^= 1;
        let cmp = compare(&base, &cur, &Thresholds::default());
        assert_eq!(cmp.failures(), 1, "{cmp:?}");
        assert_eq!(cmp.findings[0].kind, FindingKind::CounterDrift);
    }

    #[test]
    fn alloc_drift_has_tolerance() {
        let base = report(1_000_000);
        let mut cur = report(1_000_000);
        cur.benches[0].alloc_count = 10_100; // +1%: inside the 2% band
        assert_eq!(compare(&base, &cur, &Thresholds::default()).failures(), 0);
        cur.benches[0].alloc_count = 10_500; // +5%: drift
        let cmp = compare(&base, &cur, &Thresholds::default());
        assert_eq!(cmp.failures(), 1, "{cmp:?}");
        assert_eq!(cmp.findings[0].kind, FindingKind::AllocDrift);
    }

    #[test]
    fn findings_json_and_summaries_render() {
        let base = report(1_000_000_000);
        let cur = report(2_000_000_000);
        let th = Thresholds::default();
        let cmp = compare(&base, &cur, &th);
        let doc = findings_json(&cmp, &th);
        assert!(doc.contains("\"wall_regression\""), "{doc}");
        assert!(json::parse(&doc).is_ok(), "findings.json must be valid");
        let human = human_summary(&base, &cur, &cmp);
        assert!(human.contains("FAIL"), "{human}");
        let run = run_summary(&cur);
        assert!(run.contains("fig5"), "{run}");
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv64(b"abc"), fnv64(b"abc"));
        assert_ne!(fnv64(b"abc"), fnv64(b"abd"));
    }

    #[test]
    fn suites_are_pinned() {
        assert_eq!(suite_spec("core").unwrap().default_scale, 1);
        assert_eq!(suite_spec("smoke").unwrap().default_scale, 50);
        assert!(suite_spec("nope").is_none());
    }
}
