//! The golden-figure gates, under `cargo test`.
//!
//! Each golden binary runs in a child process at `MNEMO_SCALE=50` with
//! `--telemetry`, once with `--jobs 1` and once with `--jobs 2`: the
//! children keep the scale, the output directory and the global job
//! count out of this process. Then:
//!
//! * every `tests/golden/*.csv` and the `telemetry-fig1` export are
//!   byte-identical to the sequential output, and every CSV the binaries
//!   write has a golden (regenerate with the commands in
//!   `tests/golden/README.md`);
//! * the two job counts write byte-identical trees, wall-clock `timing-*`
//!   files excepted.
//!
//! `table2` and `table3` write no CSV; their stdout at `MNEMO_SCALE=50`
//! is pinned in `tests/golden/table2.txt` and `table3.txt`. CI's
//! `bench-smoke` job runs the binaries its `FIGURES` variable names,
//! which must be `BINARIES`' names in order.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The golden binaries and their paths, in the order CI runs them.
const BINARIES: [(&str, &str); 20] = [
    ("fig1", env!("CARGO_BIN_EXE_fig1")),
    ("fig5", env!("CARGO_BIN_EXE_fig5")),
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("fault_resilience", env!("CARGO_BIN_EXE_fault_resilience")),
    ("tier_matrix", env!("CARGO_BIN_EXE_tier_matrix")),
    ("dynamic_vs_static", env!("CARGO_BIN_EXE_dynamic_vs_static")),
    ("cache_mode", env!("CARGO_BIN_EXE_cache_mode")),
    ("slo_truth", env!("CARGO_BIN_EXE_slo_truth")),
    ("fig8", env!("CARGO_BIN_EXE_fig8")),
    ("pipelining", env!("CARGO_BIN_EXE_pipelining")),
    ("downsampling", env!("CARGO_BIN_EXE_downsampling")),
    ("fig3", env!("CARGO_BIN_EXE_fig3")),
    ("fig4", env!("CARGO_BIN_EXE_fig4")),
    ("fig9", env!("CARGO_BIN_EXE_fig9")),
    ("model_limits", env!("CARGO_BIN_EXE_model_limits")),
    ("streaming", env!("CARGO_BIN_EXE_streaming")),
    ("sweep_slowmem", env!("CARGO_BIN_EXE_sweep_slowmem")),
    ("variance", env!("CARGO_BIN_EXE_variance")),
    ("ycsb_core", env!("CARGO_BIN_EXE_ycsb_core")),
    ("table4", env!("CARGO_BIN_EXE_table4")),
];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// A harness binary's command: no inherited `MNEMO_*`, `MNEMO_OUT=out`.
fn harness(exe: &str, out: &Path) -> Command {
    let mut cmd = Command::new(exe);
    for (var, _) in std::env::vars_os() {
        if var.to_string_lossy().starts_with("MNEMO_") {
            cmd.env_remove(var);
        }
    }
    cmd.env("MNEMO_OUT", out);
    cmd
}

/// Run every golden binary with `--jobs jobs` into a fresh `out`, its
/// telemetry into `out/tel`.
fn run_all(out: &Path, jobs: u32) {
    let _ = fs::remove_dir_all(out);
    fs::create_dir_all(out).unwrap();
    for (name, exe) in BINARIES {
        let run = harness(exe, out)
            .env("MNEMO_SCALE", "50")
            .arg("--jobs")
            .arg(jobs.to_string())
            .arg("--telemetry")
            .arg(out.join("tel"))
            .output()
            .unwrap();
        assert!(
            run.status.success(),
            "{name} --jobs {jobs}: {}\n{}",
            run.status,
            String::from_utf8_lossy(&run.stderr)
        );
    }
}

fn is_timing(path: &Path) -> bool {
    path.file_name()
        .is_some_and(|n| n.to_string_lossy().starts_with("timing-"))
}

/// Every file under `dir` but the `timing-*` ones, by path relative to
/// `dir`.
fn tree(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else if !is_timing(&path) {
                let rel = path.strip_prefix(root).unwrap().to_path_buf();
                out.insert(rel, fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

/// The names of the two trees' files that differ or exist in one only.
fn differing(a: &BTreeMap<PathBuf, Vec<u8>>, b: &BTreeMap<PathBuf, Vec<u8>>) -> Vec<String> {
    a.keys()
        .chain(b.keys())
        .filter(|k| a.get(*k) != b.get(*k))
        .map(|k| k.display().to_string())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect()
}

/// The `*.csv` files directly in `tree`.
fn csvs(tree: &BTreeMap<PathBuf, Vec<u8>>) -> BTreeMap<PathBuf, Vec<u8>> {
    tree.iter()
        .filter(|(p, _)| p.parent() == Some(Path::new("")))
        .filter(|(p, _)| p.extension().is_some_and(|e| e == "csv"))
        .map(|(p, bytes)| (p.clone(), bytes.clone()))
        .collect()
}

#[test]
fn figures_match_goldens_for_every_job_count() {
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
    let (seq, par) = (scratch.join("jobs1"), scratch.join("jobs2"));
    run_all(&seq, 1);
    run_all(&par, 2);
    let (seq, par) = (tree(&seq), tree(&par));

    let goldens = csvs(&tree(&golden_dir()));
    assert!(!goldens.is_empty(), "no golden CSV under tests/golden");
    let mismatched = differing(&goldens, &csvs(&seq));
    assert!(
        mismatched.is_empty(),
        "golden CSVs differ, are missing or have no output \
         (see tests/golden/README.md): {mismatched:?}"
    );

    let golden_telemetry = tree(&golden_dir().join("telemetry-fig1"));
    assert!(!golden_telemetry.is_empty(), "no golden telemetry-fig1");
    let telemetry = tree(&scratch.join("jobs1/tel/telemetry-fig1"));
    let mismatched = differing(&golden_telemetry, &telemetry);
    assert!(
        mismatched.is_empty(),
        "telemetry-fig1 differs from its golden: {mismatched:?}"
    );

    let mismatched = differing(&seq, &par);
    assert!(
        mismatched.is_empty(),
        "--jobs 1 and --jobs 2 differ: {mismatched:?}"
    );
    let _ = fs::remove_dir_all(&scratch);
}

#[test]
fn appendix_of_no_csvs_is_a_harness_error() {
    let empty = Path::new(env!("CARGO_TARGET_TMPDIR")).join("appendix-empty");
    let _ = fs::remove_dir_all(&empty);
    fs::create_dir_all(&empty).unwrap();
    let run = harness(env!("CARGO_BIN_EXE_appendix"), &empty)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("no CSVs found in"), "{stderr}");
    let _ = fs::remove_dir_all(&empty);
}

#[test]
fn tables_print_their_goldens() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (name, exe) in [
        ("table2", env!("CARGO_BIN_EXE_table2")),
        ("table3", env!("CARGO_BIN_EXE_table3")),
    ] {
        let run = harness(exe, out).env("MNEMO_SCALE", "50").output().unwrap();
        assert!(run.status.success(), "{name}: {}", run.status);
        let golden = fs::read_to_string(golden_dir().join(format!("{name}.txt"))).unwrap();
        assert_eq!(String::from_utf8_lossy(&run.stdout), golden, "{name}");
    }
}

#[test]
fn ci_runs_the_golden_binaries() {
    let ci = fs::read_to_string(golden_dir().join("../../.github/workflows/ci.yml")).unwrap();
    let figures: Vec<&str> = ci
        .lines()
        .find_map(|line| line.trim().strip_prefix("FIGURES:"))
        .expect("ci.yml sets FIGURES")
        .trim()
        .trim_matches('"')
        .split_whitespace()
        .collect();
    let names: Vec<&str> = BINARIES.iter().map(|(name, _)| *name).collect();
    assert_eq!(figures, names, "ci.yml FIGURES and golden.rs BINARIES");
}
