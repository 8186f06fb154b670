//! Workspace-wide gates under `cargo test`: the linter over the whole
//! workspace with `--deny-warnings`, and three source-text invariants
//! that keep one copy of each shared layer. This file is the only
//! definition of those invariants; CI runs it with
//! `cargo test --workspace`.
//!
//! * **No codec copies:** FNV-64 and the JSON value type live only in
//!   `crates/codec` (use `mnemo-codec`). FNV-64's offset basis or a JSON
//!   value enum in a `.rs` file under `crates/` outside any `codec`
//!   directory fails, case ignored.
//! * **One tier vocabulary:** `hybridmem::StackSpec` describes every
//!   stack and `TierId` names its tiers. A second tier enum, stack-spec
//!   struct or two-tier constructor in a `.rs` file under `crates/`,
//!   `tests/` or `examples/` fails.
//! * **One charge formula:** the stores' per-request charge arithmetic,
//!   header sizes included, lives only in the kvsim engines. A store
//!   header-size constant in a `.rs` file under those roots outside
//!   `crates/kvsim/src/`, or the removed analytic N-tier estimator named
//!   in any file under them, fails.
//!
//! Each is matched line by line, as `grep` would. The patterns are
//! assembled from pieces, so this file does not trip them itself. Each
//! has planted violations that must be found, and near misses that must
//! not. `target` directories are build output, absent from a fresh
//! checkout, and are skipped.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn linter_finds_nothing_in_the_workspace() {
    let run = Command::new(env!("CARGO_BIN_EXE_mnemo-lint"))
        .arg("--root")
        .arg(workspace())
        .arg("--deny-warnings")
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "mnemo-lint --deny-warnings: {}\n{}{}",
        run.status,
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );
}

/// One invariant: the roots it searches, which files of them it reads
/// and what a violating line looks like.
struct Invariant {
    name: &'static str,
    roots: &'static [&'static str],
    applies: fn(&Path) -> bool,
    violates: fn(&str) -> bool,
}

const INVARIANTS: [Invariant; 4] = [
    Invariant {
        name: "No codec copies",
        roots: &["crates"],
        applies: |path| is_rs(path) && !path.iter().any(|c| c == "codec"),
        violates: |line| {
            let line = line.to_ascii_lowercase();
            fnv_offset_basis(&line) || has_word(&line, &["enum", "json"].join(" "))
        },
    },
    Invariant {
        name: "One tier vocabulary",
        roots: &["crates", "tests", "examples"],
        applies: is_rs,
        violates: |line| {
            [
                ["enum", "MemTier"],
                ["struct", "HybridSpec"],
                ["fn", "two_tier"],
            ]
            .iter()
            .any(|words| has_word(line, &words.join(" ")))
        },
    },
    Invariant {
        name: "One charge formula",
        roots: &["crates", "tests", "examples"],
        applies: |path| is_rs(path) && !path.starts_with("crates/kvsim/src"),
        violates: |line| {
            ["VALUE", "ITEM"]
                .iter()
                .any(|store| has_word(line, &format!("const {store}_{}", "HEADER_BYTES")))
        },
    },
    Invariant {
        name: "One charge formula",
        roots: &["crates", "tests", "examples"],
        applies: |_| true,
        violates: |line| line.contains(&["NTier", "Estimator"].concat()),
    },
];

fn is_rs(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "rs")
}

/// `word` occurs in `line` not followed by a word character: grep's
/// `word\b` for a `word` that ends in one.
fn has_word(line: &str, word: &str) -> bool {
    line.match_indices(word).any(|(at, _)| {
        !line[at + word.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
    })
}

/// FNV-64's offset basis in hex, lower case, each 4-digit group after
/// the first optionally preceded by one `_`.
fn fnv_offset_basis(line: &str) -> bool {
    line.match_indices("cbf2").any(|(at, head)| {
        let mut rest = &line[at + head.len()..];
        ["9ce4", "8422", "2325"].iter().all(|group| {
            let tail = rest.strip_prefix('_').unwrap_or(rest);
            tail.strip_prefix(group).map(|r| rest = r).is_some()
        })
    })
}

/// Each violating line of `source`, at `path`, as `path:line: text`.
fn violations(invariant: &Invariant, path: &Path, source: &str) -> Vec<String> {
    if !invariant.roots.iter().any(|root| path.starts_with(root)) || !(invariant.applies)(path) {
        return Vec::new();
    }
    source
        .lines()
        .enumerate()
        .filter(|(_, line)| (invariant.violates)(line))
        .map(|(i, line)| format!("{}:{}: {line}", path.display(), i + 1))
        .collect()
}

/// Every file under `dir`, by path relative to the workspace, skipping
/// `target` directories (build output, absent from a fresh checkout)
/// and symbolic links (`grep -r` does not follow them).
fn files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let kind = entry.file_type().unwrap();
        let path = entry.path();
        if kind.is_dir() && entry.file_name() != "target" {
            files(root, &path, out);
        } else if kind.is_file() {
            out.push(path.strip_prefix(root).unwrap().to_path_buf());
        }
    }
}

#[test]
fn grep_invariants_hold_in_the_workspace() {
    let root = workspace();
    let mut found = Vec::new();
    for invariant in &INVARIANTS {
        let mut paths = Vec::new();
        for dir in invariant.roots {
            files(&root, &root.join(dir), &mut paths);
        }
        assert!(!paths.is_empty(), "{}: no files searched", invariant.name);
        for path in paths.iter().filter(|p| (invariant.applies)(p)) {
            let bytes = fs::read(root.join(path)).unwrap();
            for v in violations(invariant, path, &String::from_utf8_lossy(&bytes)) {
                found.push(format!("{}: {v}", invariant.name));
            }
        }
    }
    assert!(found.is_empty(), "{}", found.join("\n"));
}

#[test]
fn planted_violations_fail_each_grep_invariant() {
    // (invariant, path, planted line in pieces, whether it must be found)
    let cases: [(usize, &str, &[&str], bool); 16] = [
        (
            0,
            "crates/x/src/h.rs",
            &["const B: u64 = 0xcbf2", "9ce484222325;"],
            true,
        ),
        (
            0,
            "crates/x/src/h.rs",
            &["// 0XCBF2", "_9CE4_8422_2325"],
            true,
        ),
        (0, "crates/x/src/h.rs", &["pub Enum", " Json {"], true),
        (0, "crates/x/src/h.rs", &["pub enum", " JsonValue {"], false),
        (
            0,
            "crates/codec/src/h.rs",
            &["const B: u64 = 0xcbf2", "9ce484222325;"],
            false,
        ),
        (
            0,
            "tests/h.rs",
            &["const B: u64 = 0xcbf2", "9ce484222325;"],
            false,
        ),
        (1, "tests/t.rs", &["enum Mem", "Tier { Fast }"], true),
        (1, "examples/e.rs", &["pub struct Hybrid", "Spec;"], true),
        (1, "crates/x/src/t.rs", &["fn two", "_tier() {}"], true),
        (
            1,
            "crates/x/src/t.rs",
            &["fn two", "_tier_spec() {}"],
            false,
        ),
        (1, "crates/x/src/t.md", &["enum Mem", "Tier {}"], false),
        (
            2,
            "crates/x/src/c.rs",
            &["const VALUE", "_HEADER_BYTES: u64 = 8;"],
            true,
        ),
        (
            2,
            "tests/c.rs",
            &["pub const ITEM", "_HEADER_BYTES: u64 = 48;"],
            true,
        ),
        (
            2,
            "crates/kvsim/src/c.rs",
            &["const ITEM", "_HEADER_BYTES: u64 = 8;"],
            false,
        ),
        (3, "crates/x/README.md", &["see NTier", "Estimator"], true),
        (3, "examples/e.rs", &["use x::NTier", "Estimator;"], true),
    ];
    for (index, path, pieces, must_fail) in cases {
        let invariant = &INVARIANTS[index];
        let line = pieces.concat();
        let found = violations(invariant, Path::new(path), &format!("// fixture\n{line}\n"));
        assert_eq!(
            found.len(),
            usize::from(must_fail),
            "{} at {path}: {line:?} gave {found:?}",
            invariant.name
        );
    }
}
