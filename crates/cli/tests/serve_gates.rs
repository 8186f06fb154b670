//! The serve and chaos byte gates, under `cargo test`: the built `mnemo`
//! binary runs with the exact arguments of CI's `serve-smoke` job and of
//! the committed chaos fault plans.
//!
//! * `serve --replay` of the committed request log at `--jobs 1` and
//!   `--jobs 4`: each transcript equals `tests/golden/serve/replay.jsonl`,
//!   each telemetry export equals `tests/golden/serve/telemetry`, and the
//!   two output trees are byte-identical (wall-clock `timing-*` files
//!   excepted);
//! * `chaos`, clean and under `tests/fixtures/serve/storage.toml`: both
//!   converge, and the fault run quarantines at least one segment;
//! * `chaos` under the same plan over a small seed sweep: every run
//!   converges, torn writes both truncate and zero unsynced records,
//!   and at least one restart truncates a torn tail;
//! * `chaos` under `tests/fixtures/serve/fsync_mid_tick.toml`: a dump
//!   skipped by a failed fsync waits for the next tick end, so every
//!   restart from a dump converges.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const MNEMO: &str = env!("CARGO_BIN_EXE_mnemo");

/// The fixture configuration CI runs every serve and chaos job with.
const FIXTURE_FLAGS: [&str; 6] = [
    "--epoch",
    "600",
    "--drift-epoch",
    "300",
    "--budget-kib",
    "16",
];

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Run `mnemo args…` from the repository root; panics unless it exits 0.
fn mnemo(args: &[&str]) -> Vec<u8> {
    let run = Command::new(MNEMO)
        .current_dir(repo())
        .args(args)
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "mnemo {args:?}: {}\n{}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );
    run.stdout
}

/// Every file under `dir` but the `timing-*` ones, by path relative to
/// `dir`.
fn tree(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else if !path
                .file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("timing-"))
            {
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
fn differing(a: &BTreeMap<PathBuf, Vec<u8>>, b: &BTreeMap<PathBuf, Vec<u8>>) -> BTreeSet<String> {
    a.keys()
        .chain(b.keys())
        .filter(|k| a.get(*k) != b.get(*k))
        .map(|k| k.display().to_string())
        .collect()
}

#[test]
fn serve_replay_matches_its_goldens_at_jobs_1_and_4() {
    let root = scratch("serve-gates");
    let golden = repo().join("tests/golden/serve");
    let out_for = |jobs: &str| -> PathBuf {
        let out = root.join(format!("jobs{jobs}"));
        fs::create_dir_all(&out).unwrap();
        let tel = out.join("tel");
        let mut args = vec!["serve", "--jobs", jobs];
        args.extend(["--replay", "tests/fixtures/serve/events.jsonl"]);
        args.extend(FIXTURE_FLAGS);
        args.extend(["--telemetry", tel.to_str().unwrap()]);
        fs::write(out.join("replay.jsonl"), mnemo(&args)).unwrap();
        out
    };
    let (jobs1, jobs4) = (out_for("1"), out_for("4"));

    let transcript = fs::read(jobs1.join("replay.jsonl")).unwrap();
    assert!(
        transcript == fs::read(golden.join("replay.jsonl")).unwrap(),
        "the --jobs 1 transcript differs from tests/golden/serve/replay.jsonl"
    );
    let golden_telemetry = tree(&golden.join("telemetry"));
    assert!(!golden_telemetry.is_empty(), "no golden serve telemetry");
    let mismatched = differing(&golden_telemetry, &tree(&jobs1.join("tel")));
    assert!(
        mismatched.is_empty(),
        "serve telemetry differs from its golden: {mismatched:?}"
    );
    let mismatched = differing(&tree(&jobs1), &tree(&jobs4));
    assert!(
        mismatched.is_empty(),
        "--jobs 1 and --jobs 4 differ: {mismatched:?}"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn chaos_converges_clean_and_quarantines_under_storage_faults() {
    let root = scratch("chaos-gates");
    let chaos = |tag: &str, faults: &[&str]| -> String {
        let workdir = root.join(tag);
        let mut args = vec!["chaos", "tests/fixtures/serve/events.jsonl"];
        args.extend(FIXTURE_FLAGS);
        args.extend(faults);
        args.extend(["--seed", "23", "--kills", "8"]);
        args.extend(["--workdir", workdir.to_str().unwrap()]);
        String::from_utf8(mnemo(&args)).unwrap()
    };
    let clean = chaos("clean", &[]);
    assert!(clean.contains("\"converged\":true"), "{clean}");
    let faulted = chaos("faults", &["--faults", "tests/fixtures/serve/storage.toml"]);
    assert!(faulted.contains("\"converged\":true"), "{faulted}");
    let quarantined: u64 = faulted
        .split("\"quarantined_total\":")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no quarantined_total in {faulted}"));
    assert!(
        quarantined > 0,
        "the storage-fault plan quarantined nothing: {faulted}"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn torn_writes_truncate_and_zero_records_and_still_converge() {
    let root = scratch("chaos-torn");
    let mut reports = String::new();
    for seed in ["1", "2", "3"] {
        let workdir = root.join(seed);
        let mut args = vec!["chaos", "tests/fixtures/serve/events.jsonl"];
        args.extend(FIXTURE_FLAGS);
        args.extend(["--faults", "tests/fixtures/serve/storage.toml"]);
        args.extend(["--seed", seed, "--kills", "8"]);
        args.extend(["--workdir", workdir.to_str().unwrap()]);
        let report = String::from_utf8(mnemo(&args)).unwrap();
        assert!(
            report.contains("\"converged\":true"),
            "seed {seed}: {report}"
        );
        reports.push_str(&report);
    }
    for effect in ["truncated", "zeroed"] {
        assert!(
            reports.contains(&format!("\"torn\":\"{effect}\"")),
            "no torn write was {effect}: {reports}"
        );
    }
    let truncated = reports
        .split("\"truncated\":")
        .skip(1)
        .any(|rest| !rest.starts_with('0'));
    assert!(truncated, "no restart truncated a torn tail: {reports}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn a_dump_skipped_by_a_failed_fsync_waits_for_the_next_tick_end() {
    let root = scratch("chaos-mid-tick");
    for seed in ["1", "6"] {
        let workdir = root.join(seed);
        let mut args = vec!["chaos", "tests/fixtures/serve/events.jsonl"];
        args.extend(FIXTURE_FLAGS);
        args.extend(["--faults", "tests/fixtures/serve/fsync_mid_tick.toml"]);
        args.extend(["--seed", seed, "--kills", "4"]);
        args.extend(["--workdir", workdir.to_str().unwrap()]);
        let report = String::from_utf8(mnemo(&args)).unwrap();
        assert!(
            report.contains("\"converged\":true"),
            "seed {seed}: {report}"
        );
    }
    let _ = fs::remove_dir_all(&root);
}
