//! Workspace-wide gates under `cargo test`: the linter over the whole
//! workspace with `--deny-warnings`, three source-text invariants that
//! keep one copy of each shared layer, and one that keeps every crate
//! manifest to the dependencies its sources use. This file is the only
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
//! * **No unused dependency:** every dependency a `crates/*/Cargo.toml`
//!   declares, dev-dependencies included, is named as a path (`name::`)
//!   or in a `use name` item by a `.rs` file the crate compiles: any
//!   under its directory, and those its `[[test]]`, `[[example]]`,
//!   `[[bench]]` and `[[bin]]` targets list (the integration crate's
//!   `/tests` files, the core crate's `/examples`). A dependency name's
//!   `-` reads as `_`.
//!
//! The first three are matched line by line, as `grep` would. The
//! patterns are assembled from pieces, so this file does not trip them
//! itself. Each invariant has planted violations that must be found,
//! and near misses that must not. `target` directories are build
//! output, absent from a fresh checkout, and are skipped.

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

/// The dependency names `manifest` declares in its dependency tables,
/// and the paths its `[[…]]` targets list, as written.
fn manifest_parts(manifest: &str) -> (Vec<String>, Vec<String>) {
    let (mut deps, mut target_paths) = (Vec::new(), Vec::new());
    let mut table = "";
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            table = line;
        } else if let Some((key, value)) = line.split_once('=').filter(|_| !line.starts_with('#')) {
            let key = key.trim();
            if table.ends_with("dependencies]") {
                deps.push(key.to_string());
            } else if table.starts_with("[[") && key == "path" {
                target_paths.push(value.trim().trim_matches('"').to_string());
            }
        }
    }
    (deps, target_paths)
}

/// Does `source` name the library `lib` as a path's first segment
/// (`lib::`) or in a `use lib` item?
fn names_crate(source: &str, lib: &str) -> bool {
    source.match_indices(lib).any(|(at, _)| {
        let before = &source[..at];
        let after = &source[at + lib.len()..];
        let bounded =
            !before.ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_' || c == ':');
        bounded
            && (after.starts_with("::")
                || before.ends_with("use ") && after.starts_with([';', ' ']))
    })
}

/// The dependencies of the crate at `dir` (relative to `root`) that
/// none of its sources names, as `dir/Cargo.toml: name`.
fn unused_dependencies(root: &Path, dir: &Path) -> Vec<String> {
    let manifest = fs::read_to_string(root.join(dir).join("Cargo.toml")).unwrap();
    let (deps, target_paths) = manifest_parts(&manifest);
    let mut paths = Vec::new();
    files(root, &root.join(dir), &mut paths);
    let mut sources: Vec<String> = paths
        .iter()
        .filter(|p| is_rs(p))
        .map(|p| fs::read_to_string(root.join(p)).unwrap())
        .collect();
    for target in target_paths.iter().filter(|t| t.starts_with("..")) {
        sources.push(fs::read_to_string(root.join(dir).join(target)).unwrap());
    }
    deps.iter()
        .filter(|dep| {
            let lib = dep.replace('-', "_");
            !sources.iter().any(|source| names_crate(source, &lib))
        })
        .map(|dep| format!("{}/Cargo.toml: {dep}", dir.display()))
        .collect()
}

#[test]
fn no_crate_declares_a_dependency_its_sources_never_name() {
    let root = workspace();
    let mut dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.join("Cargo.toml").is_file())
        .map(|path| path.strip_prefix(&root).unwrap().to_path_buf())
        .collect();
    dirs.sort();
    assert!(dirs.len() > 10, "crates found: {dirs:?}");
    let unused: Vec<String> = dirs
        .iter()
        .flat_map(|dir| unused_dependencies(&root, dir))
        .collect();
    assert!(
        unused.is_empty(),
        "unused dependencies:\n{}",
        unused.join("\n")
    );
}

#[test]
fn planted_dependencies_are_found_unused_or_named() {
    let manifest = "[package]\nname = \"x\"\n\n[dependencies]\n\
                    mnemo-codec = { workspace = true }\nkvsim = { workspace = true }\n\
                    # note = \"a comment\"\n\n[dev-dependencies]\nproptest = { workspace = true }\n\n\
                    [[test]]\nname = \"e2e\"\npath = \"../../tests/e2e.rs\"\n";
    let (deps, targets) = manifest_parts(manifest);
    assert_eq!(deps, ["mnemo-codec", "kvsim", "proptest"]);
    assert_eq!(targets, ["../../tests/e2e.rs"]);
    // (source, library, whether the source names it)
    let cases = [
        ("use mnemo_codec::json;", "mnemo_codec", true),
        ("let v = kvsim::StoreKind::Redis;", "kvsim", true),
        ("use proptest;", "proptest", true),
        ("use proptest as pt;", "proptest", true),
        ("// drives the kvsim engines", "kvsim", false),
        ("let k = my_kvsim::Store;", "kvsim", false),
        ("use crate::kvsim::Store;", "kvsim", false),
        ("use proptests::x;", "proptest", false),
    ];
    for (source, lib, named) in cases {
        assert_eq!(names_crate(source, lib), named, "{source:?} names {lib}");
    }
}
