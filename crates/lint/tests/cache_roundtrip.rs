//! Integration: the incremental cache is invisible in the output.
//! Cold run, warm run, and a run after an edit must produce the exact
//! same rendered report as an uncached run — the cache may only change
//! *how much work* happens, observable via `files_cached`.

use mnemo_lint::{lint_tree, lint_tree_cached, render, Format};
use std::fs;
use std::path::PathBuf;

struct TempTree {
    root: PathBuf,
}

impl TempTree {
    fn new(tag: &str) -> TempTree {
        let root = std::env::temp_dir().join(format!(
            "mnemo-lint-cache-test-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates/core/src")).unwrap();
        fs::create_dir_all(root.join("crates/serve/src")).unwrap();
        TempTree { root }
    }

    fn write(&self, rel: &str, src: &str) {
        fs::write(self.root.join(rel), src).unwrap();
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

const CLEAN: &str = "pub fn id(x: u64) -> u64 {\n    x\n}\n";
const WALL_BELOW_POOL: &str = "fn stamp() -> u128 {\n    std::time::Instant::now().elapsed().as_nanos()\n}\n\nfn sample(i: usize) -> u128 {\n    stamp() + i as u128\n}\n\npub fn run(n: usize) -> Vec<u128> {\n    let pool = mnemo_par::Pool::current();\n    pool.run_jobs(n, |i| sample(i))\n}\n";

#[test]
fn warm_run_is_byte_identical_and_fully_cached() {
    let tree = TempTree::new("warm");
    tree.write("crates/core/src/lib.rs", CLEAN);
    tree.write("crates/core/src/hot.rs", WALL_BELOW_POOL);
    tree.write("crates/serve/src/engine.rs", CLEAN);
    let cache = tree.root.join("lint-cache");

    let cold = lint_tree_cached(&tree.root, Some(&cache)).unwrap();
    assert_eq!(cold.files_cached, 0, "first run must be cold");
    assert!(
        cold.findings.iter().any(|f| f.code.as_str() == "D006"),
        "seed violation must fire: {:?}",
        cold.findings
    );

    let warm = lint_tree_cached(&tree.root, Some(&cache)).unwrap();
    assert_eq!(
        warm.files_cached, warm.files_scanned,
        "unchanged tree must be served entirely from cache"
    );
    for format in [Format::Human, Format::Json, Format::Sarif] {
        assert_eq!(
            render(&cold, format),
            render(&warm, format),
            "cold and warm renders must be byte-identical"
        );
    }

    // And both must match the cache-free path exactly.
    let uncached = lint_tree(&tree.root).unwrap();
    assert_eq!(render(&uncached, Format::Json), render(&warm, Format::Json));
}

#[test]
fn edits_invalidate_only_the_touched_file() {
    let tree = TempTree::new("edit");
    tree.write("crates/core/src/lib.rs", CLEAN);
    tree.write("crates/core/src/hot.rs", CLEAN);
    let cache = tree.root.join("lint-cache");

    let cold = lint_tree_cached(&tree.root, Some(&cache)).unwrap();
    assert!(cold.findings.is_empty(), "{:?}", cold.findings);

    // Introduce the violation after a warm cache exists: the changed
    // file must be re-analyzed (and fire), the other served cached.
    tree.write("crates/core/src/hot.rs", WALL_BELOW_POOL);
    let edited = lint_tree_cached(&tree.root, Some(&cache)).unwrap();
    assert_eq!(edited.files_cached, 1, "only the untouched file is cached");
    assert!(
        edited.findings.iter().any(|f| f.code.as_str() == "D006"),
        "stale cache hid a new violation: {:?}",
        edited.findings
    );
}

#[test]
fn corrupt_cache_degrades_to_cold_run() {
    let tree = TempTree::new("corrupt");
    tree.write("crates/core/src/hot.rs", WALL_BELOW_POOL);
    let cache = tree.root.join("lint-cache");

    let cold = lint_tree_cached(&tree.root, Some(&cache)).unwrap();
    fs::write(
        cache.join("analysis.v1.tsv"),
        "not a cache file\n\x00garbage",
    )
    .unwrap();
    let after = lint_tree_cached(&tree.root, Some(&cache)).unwrap();
    assert_eq!(after.files_cached, 0, "corrupt cache must be ignored");
    assert_eq!(
        render(&cold, Format::Json),
        render(&after, Format::Json),
        "findings must survive cache corruption"
    );
    // The rewritten cache works again.
    let warm = lint_tree_cached(&tree.root, Some(&cache)).unwrap();
    assert_eq!(warm.files_cached, warm.files_scanned);
}
