//! `benchmark compare BASE_DIR NEW_DIR`: judge recorded runs of a change
//! against recorded runs of its parent, metric by metric and workload by
//! workload, with the bounds in `BENCHMARK.json`.
//!
//! Runs are the untraced result files `<workload>-s<seed>-t0.out` that
//! `run.sh` writes; runs of the two sides pair up by seed. For each
//! end-to-end metric:
//!
//! * `improved` — at least 10 pairs, the change wins at least 9 in 10 of
//!   them (ties count for neither side), the medians differ by more than
//!   the parent's interquartile range, and the change's runs fail no
//!   larger share of their operations than the parent's;
//! * `unresolved` — the parent's own spread (interquartile range over
//!   median) is wider than the bound, unless every run of the change
//!   reads better than every run of the parent;
//! * `REGRESSED` — the change's median is worse than the parent's by
//!   more than the bound;
//! * `ok` otherwise.

use crate::stats;
use mnemo_bench::perf::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;

/// One end-to-end metric's entry in `BENCHMARK.json`.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// One recorded run.
struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    digest: Option<String>,
    metrics: BTreeMap<String, f64>,
}

/// What the benchmark reads from `BENCHMARK.json`.
pub struct Spec {
    workloads: Vec<String>,
    bounds: Vec<Bound>,
    /// How long one run measures, in seconds.
    pub run_seconds: f64,
}

/// Read `BENCHMARK.json` at `path`.
pub fn read_spec(path: &Path) -> Result<Spec, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec = json::parse(&src).map_err(|e| format!("{}: {e}", path.display()))?;
    let workloads = spec
        .field("workloads", "BENCHMARK.json")?
        .arr("workloads")?
        .iter()
        .map(|w| {
            w.field("name", "workload")
                .and_then(|n| n.str("name"))
                .map(str::to_string)
        })
        .collect::<Result<_, _>>()?;
    let bounds = spec
        .field("end_to_end", "BENCHMARK.json")?
        .arr("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m.field("name", "metric")?.str("name")?.to_string(),
                lower_is_better: m.field("better", "metric")?.str("better")? == "lower",
                bound: m.field("bound", "metric")?.f64("bound")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Spec {
        workloads,
        bounds,
        run_seconds: spec
            .field("run_seconds", "BENCHMARK.json")?
            .f64("run_seconds")?,
    })
}

fn parse_run(text: &str) -> Result<Run, String> {
    let digest = text
        .lines()
        .find_map(|l| l.strip_prefix("output_digest "))
        .map(str::to_string);
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty run output")?;
    let result = json::parse(last).map_err(|e| format!("result line: {e}"))?;
    let correct = result.field("correct", "result")? == &Json::Bool(true);
    let attempted = result.field("attempted", "result")?.u64("attempted")?;
    let failed = result.field("failed", "result")?.u64("failed")?;
    let metrics = result
        .field("metrics", "result")?
        .obj("metrics")?
        .iter()
        .map(|(name, m)| Ok((name.clone(), m.field("value", name)?.f64(name)?)))
        .collect::<Result<_, String>>()?;
    Ok(Run {
        correct,
        attempted,
        failed,
        digest,
        metrics,
    })
}

/// Untraced runs in `dir`, by workload then seed.
fn read_runs(dir: &Path) -> Result<BTreeMap<String, BTreeMap<u64, Run>>, String> {
    let mut runs: BTreeMap<String, BTreeMap<u64, Run>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let Some(stem) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_suffix("-t0.out"))
        else {
            continue;
        };
        let Some((workload, seed)) = stem.rsplit_once("-s") else {
            continue;
        };
        let seed: u64 = seed
            .parse()
            .map_err(|_| format!("{}: bad seed in the file name", path.display()))?;
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let run = parse_run(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        runs.entry(workload.to_string())
            .or_default()
            .insert(seed, run);
    }
    Ok(runs)
}

/// Failed operations over attempted ones, over every run.
fn failed_share<'a>(runs: impl Iterator<Item = &'a Run>) -> f64 {
    let (attempted, failed) = runs.fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
    failed as f64 / attempted.max(1) as f64
}

/// The verdict on one metric of one workload. `fails_more`: the change's
/// runs fail a larger share of their operations than the parent's, so
/// no gain counts.
fn verdict(
    bound: &Bound,
    base: &[f64],
    new: &[f64],
    pairs: &[(f64, f64)],
    fails_more: bool,
) -> String {
    let (mb, mn) = (stats::median(base), stats::median(new));
    if base.is_empty() || new.is_empty() || mb == 0.0 {
        return "no data".into();
    }
    let better = |a: f64, b: f64| if bound.lower_is_better { a < b } else { a > b };
    let change = (mn - mb) / mb * 100.0;
    let iqr = stats::quartiles(base).map_or(f64::INFINITY, |(q1, q3)| q3 - q1);
    let wins = pairs.iter().filter(|(b, n)| better(*n, *b)).count();
    let verdict = if !fails_more
        && pairs.len() >= 10
        && wins * 10 >= pairs.len() * 9
        && (mn - mb).abs() > iqr
    {
        "improved"
    } else if iqr / mb > bound.bound && !new.iter().all(|&n| base.iter().all(|&b| better(n, b))) {
        "unresolved"
    } else if better(mb, mn) && (mn - mb).abs() / mb > bound.bound {
        "REGRESSED"
    } else {
        "ok"
    };
    format!("{change:+.1}% {verdict}")
}

/// Print one row per workload; returns whether anything regressed or a
/// run failed its checks.
pub fn compare(base_dir: &Path, new_dir: &Path, spec: &Path) -> Result<bool, String> {
    let Spec {
        workloads, bounds, ..
    } = read_spec(spec)?;
    let (base, new) = (read_runs(base_dir)?, read_runs(new_dir)?);
    let mut bad = false;
    let mut rows = Vec::new();
    for workload in &workloads {
        let (Some(b), Some(n)) = (base.get(workload), new.get(workload)) else {
            rows.push(vec![workload.clone(), "0".into(), "no runs".into()]);
            continue;
        };
        let incorrect = b.values().chain(n.values()).filter(|r| !r.correct).count();
        bad |= incorrect > 0;
        let fails_more = failed_share(n.values()) > failed_share(b.values());
        let paired: Vec<u64> = b.keys().filter(|s| n.contains_key(s)).copied().collect();
        let digests = if paired.iter().all(|s| b[s].digest == n[s].digest) {
            "same"
        } else {
            "differ"
        };
        let mut row = vec![
            workload.clone(),
            paired.len().to_string(),
            if incorrect > 0 {
                format!("{incorrect} incorrect")
            } else {
                digests.to_string()
            },
        ];
        for bound in &bounds {
            let values = |runs: &BTreeMap<u64, Run>| -> Vec<f64> {
                runs.values()
                    .filter_map(|r| r.metrics.get(&bound.name).copied())
                    .collect()
            };
            let pairs: Vec<(f64, f64)> = paired
                .iter()
                .filter_map(|s| {
                    Some((
                        *b[s].metrics.get(&bound.name)?,
                        *n[s].metrics.get(&bound.name)?,
                    ))
                })
                .collect();
            let cell = verdict(bound, &values(b), &values(n), &pairs, fails_more);
            bad |= cell.ends_with("REGRESSED");
            row.push(cell);
        }
        rows.push(row);
    }
    let mut header = vec!["workload".to_string(), "pairs".into(), "digests".into()];
    header.extend(
        bounds
            .iter()
            .map(|b| format!("{} ({:.0}%)", b.name, b.bound * 100.0)),
    );
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    mnemo_bench::print_table(
        &format!("{} vs {}", new_dir.display(), base_dir.display()),
        &header,
        &rows,
    );
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "op_p50_ms".into(),
            lower_is_better: true,
            bound,
        }
    }

    fn paired(base: &[f64], new: &[f64]) -> Vec<(f64, f64)> {
        base.iter().copied().zip(new.iter().copied()).collect()
    }

    #[test]
    fn verdicts_follow_the_guide() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        let faster: Vec<f64> = base.iter().map(|b| b * 0.8).collect();
        let slower: Vec<f64> = base.iter().map(|b| b * 1.3).collect();
        let same = base.clone();
        let judge = |bound: f64, base: &[f64], new: &[f64], fails_more: bool| {
            verdict(&lower(bound), base, new, &paired(base, new), fails_more)
        };
        assert!(judge(0.1, &base, &faster, false).ends_with("improved"));
        assert!(judge(0.1, &base, &slower, false).ends_with("REGRESSED"));
        assert!(judge(0.1, &base, &same, false).ends_with(" ok"));
        // A gain does not count when the change fails more operations.
        assert!(judge(0.1, &base, &faster, true).ends_with(" ok"));
        assert!(judge(0.1, &base, &slower, true).ends_with("REGRESSED"));
        // Nine pairs cannot claim a gain, however large.
        assert!(judge(0.3, &base[..9], &faster[..9], false).ends_with(" ok"));
        // A parent spread wider than the bound leaves a worse median unresolved.
        let noisy = [50.0, 150.0, 60.0, 140.0, 100.0];
        let worse: Vec<f64> = noisy.iter().map(|b| b * 1.2).collect();
        assert!(judge(0.1, &noisy, &worse, false).ends_with("unresolved"));
    }

    #[test]
    fn failed_share_pools_every_run() {
        let run = |attempted, failed| Run {
            correct: failed == 0,
            attempted,
            failed,
            digest: None,
            metrics: BTreeMap::new(),
        };
        let runs = [run(100, 0), run(300, 2)];
        assert_eq!(failed_share(runs.iter()), 0.005);
        assert_eq!(failed_share([].iter()), 0.0);
    }

    #[test]
    fn run_files_parse() {
        let text = "# samples\noutput_digest 00ff\nop_p50_ms 1.5 ms\n{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"op_p50_ms\":{\"value\":1.5,\"unit\":\"ms\"}}}\n";
        let run = parse_run(text).unwrap();
        assert!(run.correct);
        assert_eq!((run.attempted, run.failed), (3, 0));
        assert_eq!(run.digest.as_deref(), Some("00ff"));
        assert_eq!(run.metrics["op_p50_ms"], 1.5);
    }
}
