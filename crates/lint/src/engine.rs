//! Orchestration: walk the tree, analyze each file (token rules +
//! item parse), run the workspace phase (call-graph reachability +
//! allow hygiene), apply allow directives, and assemble a
//! deterministic [`Report`].
//!
//! The per-file half ([`analyze_source`]) is pure in the file's
//! content and path, which is what makes it cacheable ([`crate::cache`]
//! memoizes it on an FNV-64 content hash). The workspace half
//! ([`assemble`]) always runs — it is cheap next to lexing and has to
//! see every file at once.

use crate::allow::{parse_directives, AllowDirective};
use crate::context::test_region_mask;
use crate::diag::{Code, Finding, Severity};
use crate::lexer::{lex, TokenKind};
use crate::parser::{parse_file, FileModel};
use crate::reach::workspace_rules;
use crate::rules::{apply_rules, FileContext};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The result of linting a tree (or a single source).
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Surviving findings, sorted by (file, line, col, code).
    pub findings: Vec<Finding>,
    /// Findings suppressed by a justified allow directive.
    pub allowed: usize,
    /// Files scanned.
    pub files_scanned: usize,
    /// Files whose per-file analysis was served from the cache.
    pub files_cached: usize,
}

impl Report {
    /// Error-severity findings.
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.code.severity() == Severity::Error)
            .count()
    }

    /// Warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.findings.len() - self.errors()
    }

    /// Does this report fail the build?
    pub fn is_failure(&self, deny_warnings: bool) -> bool {
        self.errors() > 0 || (deny_warnings && self.warnings() > 0)
    }
}

/// Everything the per-file pass produces; the unit the incremental
/// cache stores and the workspace phase consumes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FileAnalysis {
    /// Repo-relative path.
    pub path: String,
    /// Token-rule findings, *before* allow application.
    pub raw: Vec<Finding>,
    /// Directive-hygiene findings (M001) — never allowable.
    pub meta: Vec<Finding>,
    /// Parsed allow directives.
    pub directives: Vec<AllowDirective>,
    /// The parsed item model for the workspace phase.
    pub model: FileModel,
}

/// Analyze one source file: lex, mask test regions, parse directives,
/// run the token rules, and parse the item model. Pure in
/// `(path, src)`.
pub fn analyze_source(path: &str, src: &str) -> FileAnalysis {
    let all_tokens = lex(src);
    let mask = test_region_mask(src, &all_tokens);
    let (directives, meta) = parse_directives(path, src, &all_tokens);

    // Rules and the parser see only code tokens, with the test mask
    // carried along.
    let mut tokens = Vec::with_capacity(all_tokens.len());
    let mut in_test = Vec::with_capacity(all_tokens.len());
    for (t, m) in all_tokens.into_iter().zip(mask) {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            tokens.push(t);
            in_test.push(m);
        }
    }
    let raw = apply_rules(&FileContext {
        path,
        src,
        tokens: &tokens,
        in_test: &in_test,
    });
    let model = parse_file(path, src, &tokens, &in_test);
    FileAnalysis {
        path: path.to_string(),
        raw,
        meta,
        directives,
        model,
    }
}

/// How many verbatim copies of one justification string are tolerated
/// before M002 calls it copy-paste (the N+1th copy is flagged).
const MAX_JUSTIFICATION_COPIES: usize = 3;

/// Assemble per-file analyses into the final report: run the
/// workspace reachability rules, apply allow directives, and emit
/// allow-hygiene findings (stale / empty / copy-pasted justification).
/// `analyses` must be sorted by path.
pub fn assemble(analyses: &[FileAnalysis]) -> Report {
    let models: Vec<FileModel> = analyses.iter().map(|a| a.model.clone()).collect();
    let mut findings: Vec<Finding> = Vec::new();
    let mut pre_allow: Vec<Finding> = Vec::new();
    for a in analyses {
        pre_allow.extend(a.raw.iter().cloned());
        findings.extend(a.meta.iter().cloned());
    }
    pre_allow.extend(workspace_rules(&models));

    // Apply allows: a directive suppresses matching-code findings on
    // its target line of its own file. M-codes are not allowable.
    let mut used: Vec<Vec<bool>> = analyses
        .iter()
        .map(|a| vec![false; a.directives.len()])
        .collect();
    let mut allowed = 0usize;
    for f in pre_allow {
        let slot = analyses
            .iter()
            .position(|a| a.path == f.file)
            .and_then(|ai| {
                analyses[ai]
                    .directives
                    .iter()
                    .position(|d| d.code == f.code && d.applies_to == f.line)
                    .map(|di| (ai, di))
            });
        match slot {
            Some((ai, di)) => {
                used[ai][di] = true;
                allowed += 1;
            }
            None => findings.push(f),
        }
    }

    // Allow hygiene. Count justification strings workspace-wide first
    // so copy-paste detection sees the whole file-set.
    let mut copies: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for a in analyses {
        for d in &a.directives {
            *copies.entry(d.justification.as_str()).or_default() += 1;
        }
    }
    let mut seen_so_far: std::collections::BTreeMap<&str, usize> =
        std::collections::BTreeMap::new();
    for (ai, a) in analyses.iter().enumerate() {
        for (di, d) in a.directives.iter().enumerate() {
            if !used[ai][di] {
                findings.push(Finding {
                    code: Code::M002,
                    file: a.path.clone(),
                    line: d.line,
                    col: 1,
                    message: format!("allow({}) with no matching finding", d.code),
                });
            }
            if !d.justification.chars().any(|c| c.is_ascii_alphanumeric()) {
                findings.push(Finding {
                    code: Code::M002,
                    file: a.path.clone(),
                    line: d.line,
                    col: 1,
                    message: format!(
                        "allow({}) justification \"{}\" is effectively empty",
                        d.code, d.justification
                    ),
                });
            }
            let n = seen_so_far.entry(d.justification.as_str()).or_default();
            *n += 1;
            if *n > MAX_JUSTIFICATION_COPIES {
                let total = copies[d.justification.as_str()];
                findings.push(Finding {
                    code: Code::M002,
                    file: a.path.clone(),
                    line: d.line,
                    col: 1,
                    message: format!(
                        "allow({}) justification duplicated verbatim {total} times \
                         across the workspace — write the site-specific reason",
                        d.code
                    ),
                });
            }
        }
    }

    findings.sort_by_key(Finding::sort_key);
    Report {
        findings,
        allowed,
        files_scanned: analyses.len(),
        files_cached: 0,
    }
}

/// Lint a set of in-memory `(path, src)` files as one workspace.
/// Single-element slices exercise the full pipeline including the
/// workspace phase, which is how the fixture suite drives the
/// reachability rules.
pub fn lint_files(files: &[(String, String)]) -> Report {
    let mut sorted: Vec<&(String, String)> = files.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let analyses: Vec<FileAnalysis> = sorted.iter().map(|(p, s)| analyze_source(p, s)).collect();
    assemble(&analyses)
}

/// Lint one source file under its repo-relative `path` (the path drives
/// per-rule policy: wall-clock module, `mnemo-par`, entry points, …).
pub fn lint_source(path: &str, src: &str) -> Report {
    lint_files(&[(path.to_string(), src.to_string())])
}

/// Lint every `crates/**/*.rs` file under `root` (the workspace root).
/// `target/`, `tests/`, and `benches/` directories are skipped — the
/// invariants bind production sources.
pub fn lint_tree(root: &Path) -> io::Result<Report> {
    lint_tree_cached(root, None)
}

/// [`lint_tree`], memoizing per-file analyses in `cache_dir` when
/// given. A stale, missing, or malformed cache silently degrades to a
/// cold run; findings are byte-identical either way.
pub fn lint_tree_cached(root: &Path, cache_dir: Option<&Path>) -> io::Result<Report> {
    let files = workspace_files(root)?;
    let hashes: Vec<(&str, u64)> = files
        .iter()
        .map(|(p, s)| (p.as_str(), mnemo_codec::fnv64(s.as_bytes())))
        .collect();
    // Byte-identical workspace: replay the memoized report and skip
    // everything — per-file analysis, the workspace phase, even
    // loading the per-file cache entries. Nothing changed, so the
    // cache file needs no rewrite either.
    let digest = crate::cache::Cache::fileset_digest(&hashes);
    if let Some(dir) = cache_dir {
        if let Some(mut report) = crate::cache::Cache::load_report(dir, digest) {
            report.files_cached = report.files_scanned;
            return Ok(report);
        }
    }
    let mut cache = match cache_dir {
        Some(dir) => crate::cache::Cache::load(dir),
        None => crate::cache::Cache::empty(),
    };
    let mut analyses = Vec::with_capacity(files.len());
    let mut files_cached = 0usize;
    for ((rel, src), (_, hash)) in files.iter().zip(&hashes) {
        if let Some(hit) = cache.get(rel, *hash) {
            files_cached += 1;
            analyses.push(hit);
        } else {
            let a = analyze_source(rel, src);
            cache.put(rel, *hash, &a);
            analyses.push(a);
        }
    }
    let mut report = assemble(&analyses);
    report.files_cached = files_cached;
    if let Some(dir) = cache_dir {
        // Cache write failures are non-fatal: the lint result stands.
        let keep: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();
        cache.retain(&keep);
        cache.set_report(digest, &report);
        let _ = cache.save(dir);
    }
    Ok(report)
}

/// Collect the workspace file-set `lint_tree` binds: every
/// `crates/**/*.rs` under `root`, sorted by repo-relative path.
pub fn workspace_files(root: &Path) -> io::Result<Vec<(String, String)>> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "{} is not a workspace root (no crates/ dir)",
                root.display()
            ),
        ));
    }
    let mut paths = Vec::new();
    collect_rs_files(&crates_dir, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for file in &paths {
        let bytes = fs::read(file)?;
        let src = String::from_utf8_lossy(&bytes).into_owned();
        files.push((relative_path(root, file), src));
    }
    Ok(files)
}

const SKIP_DIRS: [&str; 3] = ["target", "tests", "benches"];

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_on_same_line_suppresses_and_counts() {
        let src = "fn f() { x.unwrap(); } // mnemo-lint: allow(R001, \"infallible: set above\")\n";
        let r = lint_source("crates/core/src/x.rs", src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.allowed, 1);
    }

    #[test]
    fn standalone_allow_suppresses_next_line() {
        let src = "fn f() {\n    // mnemo-lint: allow(R001, \"checked\")\n    x.unwrap();\n}\n";
        let r = lint_source("crates/core/src/x.rs", src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.allowed, 1);
    }

    #[test]
    fn allow_with_wrong_code_does_not_suppress_and_goes_stale() {
        let src = "fn f() { x.unwrap(); } // mnemo-lint: allow(D001, \"wrong code\")\n";
        let r = lint_source("crates/core/src/x.rs", src);
        let codes: Vec<Code> = r.findings.iter().map(|f| f.code).collect();
        // Both findings land on line 1; the stale directive (col 1)
        // sorts before the unsuppressed unwrap.
        assert_eq!(codes, vec![Code::M002, Code::R001]);
        assert_eq!(r.allowed, 0);
    }

    #[test]
    fn one_allow_covers_multiple_hits_on_its_line() {
        let src = "fn f() { a.unwrap(); b.unwrap(); } // mnemo-lint: allow(R001, \"both set\")\n";
        let r = lint_source("crates/core/src/x.rs", src);
        assert!(r.findings.is_empty());
        assert_eq!(r.allowed, 2);
    }

    #[test]
    fn malformed_directive_is_a_warning_finding() {
        let src = "// mnemo-lint: allow(R001)\nfn f() { x.unwrap(); }\n";
        let r = lint_source("crates/core/src/x.rs", src);
        let codes: Vec<Code> = r.findings.iter().map(|f| f.code).collect();
        assert_eq!(codes, vec![Code::M001, Code::R001]);
        assert_eq!(r.errors(), 1);
        assert_eq!(r.warnings(), 1);
        assert!(r.is_failure(false));
    }

    #[test]
    fn clean_source_passes() {
        let src = "fn f() -> Result<u32, String> { Ok(1) }\n";
        let r = lint_source("crates/core/src/x.rs", src);
        assert!(r.findings.is_empty());
        assert!(!r.is_failure(true));
    }

    #[test]
    fn warnings_fail_only_under_deny() {
        let src = "// mnemo-lint: allow(R001, \"stale\")\nfn f() {}\n";
        let r = lint_source("crates/core/src/x.rs", src);
        assert_eq!(r.warnings(), 1);
        assert!(!r.is_failure(false));
        assert!(r.is_failure(true));
    }

    #[test]
    fn reachability_findings_can_be_allowed_at_the_root_site() {
        let src = "fn build(pool: &Pool) {\n    \
                   // mnemo-lint: allow(D006, \"stamp() reads wall time for the log header only\")\n    \
                   pool.map(|i| step(i));\n}\n\
                   fn step(i: usize) -> u64 { stamp() + i as u64 }\n\
                   // mnemo-lint: allow(D001, \"log header wall time, not sim state\")\n\
                   fn stamp() -> u64 { let t = Instant::now(); 0 }\n";
        let r = lint_source("crates/core/src/curve.rs", src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.allowed, 2);
    }

    #[test]
    fn effectively_empty_justification_is_flagged() {
        let src = "fn f() { x.unwrap(); } // mnemo-lint: allow(R001, \"--\")\n";
        let r = lint_source("crates/core/src/x.rs", src);
        let codes: Vec<Code> = r.findings.iter().map(|f| f.code).collect();
        assert_eq!(codes, vec![Code::M002]);
        assert!(r.findings[0].message.contains("effectively empty"));
        // The directive still suppressed the unwrap — the complaint is
        // about the justification, not the suppression.
        assert_eq!(r.allowed, 1);
    }

    #[test]
    fn copy_pasted_justification_beyond_three_is_flagged() {
        let line = "fn f{n}() {{ x.unwrap(); }} // mnemo-lint: allow(R001, \"known safe\")\n";
        let mut src = String::new();
        for n in 0..4 {
            src.push_str(&line.replace("{n}", &n.to_string()));
        }
        let r = lint_source("crates/core/src/x.rs", src.as_str());
        let codes: Vec<Code> = r.findings.iter().map(|f| f.code).collect();
        assert_eq!(codes, vec![Code::M002], "{:?}", r.findings);
        assert!(r.findings[0]
            .message
            .contains("duplicated verbatim 4 times"));
        assert_eq!(r.findings[0].line, 4);
        // Three copies stay clean.
        let mut three = String::new();
        for n in 0..3 {
            three.push_str(&line.replace("{n}", &n.to_string()));
        }
        let r3 = lint_source("crates/core/src/x.rs", three.as_str());
        assert!(r3.findings.is_empty(), "{:?}", r3.findings);
    }
}
