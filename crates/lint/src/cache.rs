//! Incremental analysis cache: per-file [`FileAnalysis`] results keyed
//! on an FNV-64 hash of the file's bytes.
//!
//! The per-file pass (lex → mask → directives → token rules → item
//! parse) is pure in `(path, content)`, so its result can be reused
//! verbatim across runs for every file that did not change — which in
//! CI is almost all of them. The workspace phase (call graph,
//! reachability, allow hygiene) re-runs whenever *any* file changed;
//! when the entire file-set is byte-identical, the memoized whole-tree
//! report replays instead and no analysis runs at all.
//!
//! Storage is a single versioned text file, `analysis.v1.tsv`, in the
//! cache directory: tab-separated records with `\t`/`\n`/`\\` escaped
//! in string fields. Any mismatch — missing file, wrong header, parse
//! error mid-entry — silently degrades to a cold run for the affected
//! files; findings are byte-identical either way, which CI asserts by
//! diffing cold and warm JSON reports.

use crate::allow::AllowDirective;
use crate::diag::{Code, Finding};
use crate::engine::FileAnalysis;
use crate::parser::{CallRef, FactHit, FactKind, FnInfo, LockAcq, PoolSite, UseDecl};
use mnemo_codec::fnv64;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

/// Cache format version; bump whenever the serialized shape or the
/// meaning of any analysis field changes so stale caches self-evict.
const HEADER: &str = "mnemo-lint-cache v1";
const FILE_NAME: &str = "analysis.v1.tsv";

/// An in-memory cache: path → (content hash, analysis), plus a memo of
/// the whole assembled report keyed on the digest of the complete
/// `(path, hash)` file-set. When the workspace is byte-identical to the
/// previous run the report memo lets the caller skip the workspace
/// phase (graph build + reachability + allow application) outright —
/// per-file reuse alone leaves that, the dominant cost, on the table.
#[derive(Debug, Default)]
pub struct Cache {
    entries: BTreeMap<String, (u64, FileAnalysis)>,
    report: Option<(u64, crate::engine::Report)>,
}

impl Cache {
    /// A cache with no entries (every lookup misses).
    pub fn empty() -> Cache {
        Cache::default()
    }

    /// Load from `dir`, or return an empty cache if the file is
    /// missing or malformed — never an error.
    pub fn load(dir: &Path) -> Cache {
        match fs::read_to_string(dir.join(FILE_NAME)) {
            Ok(text) => parse(&text).unwrap_or_default(),
            Err(_) => Cache::default(),
        }
    }

    /// The cached analysis for `path`, if its content hash matches.
    pub fn get(&self, path: &str, hash: u64) -> Option<FileAnalysis> {
        self.entries
            .get(path)
            .filter(|(h, _)| *h == hash)
            .map(|(_, a)| a.clone())
    }

    /// Insert or replace the entry for `path`.
    pub fn put(&mut self, path: &str, hash: u64, analysis: &FileAnalysis) {
        self.entries
            .insert(path.to_string(), (hash, analysis.clone()));
    }

    /// Drop entries for files no longer in the workspace.
    pub fn retain(&mut self, keep: &[&str]) {
        self.entries.retain(|p, _| keep.contains(&p.as_str()));
    }

    /// Digest of a complete workspace file-set, for the report memo.
    pub fn fileset_digest(paths_and_hashes: &[(&str, u64)]) -> u64 {
        let mut text = String::new();
        for (path, hash) in paths_and_hashes {
            text.push_str(path);
            text.push('\t');
            text.push_str(&format!("{hash:016x}"));
            text.push('\n');
        }
        fnv64(text.as_bytes())
    }

    /// The memoized report, if the file-set digest matches.
    pub fn report(&self, digest: u64) -> Option<crate::engine::Report> {
        self.report
            .as_ref()
            .filter(|(d, _)| *d == digest)
            .map(|(_, r)| r.clone())
    }

    /// Fast path for byte-identical workspaces: parse only the leading
    /// report memo out of `dir`'s cache file, without materializing the
    /// per-file entries. `None` on any mismatch or malformation — the
    /// caller falls back to [`Cache::load`].
    pub fn load_report(dir: &Path, digest: u64) -> Option<crate::engine::Report> {
        let text = fs::read_to_string(dir.join(FILE_NAME)).ok()?;
        let mut lines = text.lines();
        if lines.next()? != HEADER {
            return None;
        }
        let head: Vec<&str> = lines.next()?.split('\t').collect();
        let (tag, rest) = head.split_first()?;
        if *tag != "report" || u64::from_str_radix(rest.first()?, 16).ok()? != digest {
            return None;
        }
        let mut r = crate::engine::Report {
            findings: Vec::new(),
            allowed: rest.get(1)?.parse().ok()?,
            files_scanned: rest.get(2)?.parse().ok()?,
            files_cached: 0,
        };
        for line in lines {
            let fields: Vec<&str> = line.split('\t').collect();
            let (tag, rest) = fields.split_first()?;
            match *tag {
                "rf" => r.findings.push(parse_finding(rest)?),
                "endr" => return Some(r),
                _ => return None, // truncated memo
            }
        }
        None
    }

    /// Memoize the assembled report for `digest`.
    pub fn set_report(&mut self, digest: u64, report: &crate::engine::Report) {
        self.report = Some((digest, report.clone()));
    }

    /// Cached entry count (for tests and diagnostics).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Write to `dir/analysis.v1.tsv`, creating `dir` as needed.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        // The report memo leads the file so [`load_report`] can stop
        // after a few lines instead of parsing every per-file entry.
        if let Some((digest, r)) = &self.report {
            push_record(
                &mut out,
                &[
                    "report".to_string(),
                    format!("{digest:016x}"),
                    r.allowed.to_string(),
                    r.files_scanned.to_string(),
                ],
            );
            for f in &r.findings {
                push_record(&mut out, &finding_record("rf", f));
            }
            push_record(&mut out, &["endr".to_string()]);
        }
        for (path, (hash, a)) in &self.entries {
            write_entry(&mut out, path, *hash, a);
        }
        fs::write(dir.join(FILE_NAME), out)
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            _ => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match it.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

/// Empty-capable string field: `-` means empty, a leading `=` guards a
/// literal value (so a literal `-` round-trips as `=-`).
fn opt_esc(s: &str) -> String {
    if s.is_empty() {
        "-".to_string()
    } else {
        format!("={}", esc(s))
    }
}

fn opt_unesc(s: &str) -> String {
    match s.strip_prefix('=') {
        Some(rest) => unesc(rest),
        None => String::new(),
    }
}

fn push_record(out: &mut String, fields: &[String]) {
    out.push_str(&fields.join("\t"));
    out.push('\n');
}

fn finding_record(tag: &str, f: &Finding) -> Vec<String> {
    vec![
        tag.to_string(),
        f.code.as_str().to_string(),
        f.line.to_string(),
        f.col.to_string(),
        esc(&f.file),
        esc(&f.message),
    ]
}

fn write_entry(out: &mut String, path: &str, hash: u64, a: &FileAnalysis) {
    push_record(
        out,
        &["file".to_string(), format!("{hash:016x}"), esc(path)],
    );
    for f in &a.raw {
        push_record(out, &finding_record("raw", f));
    }
    for f in &a.meta {
        push_record(out, &finding_record("meta", f));
    }
    for d in &a.directives {
        push_record(
            out,
            &[
                "allow".to_string(),
                d.code.as_str().to_string(),
                d.line.to_string(),
                d.applies_to.to_string(),
                esc(&d.justification),
            ],
        );
    }
    for u in &a.model.uses {
        let mut rec = vec!["use".to_string(), esc(&u.leaf)];
        rec.extend(u.segments.iter().map(|s| esc(s)));
        push_record(out, &rec);
    }
    for f in &a.model.fns {
        push_record(
            out,
            &[
                "fn".to_string(),
                esc(&f.name),
                opt_esc(f.impl_ty.as_deref().unwrap_or("")),
                f.line.to_string(),
                f.col.to_string(),
                u32::from(f.in_test).to_string(),
                opt_esc(&f.module.join("::")),
            ],
        );
        write_body(out, "f", &f.facts, &f.calls, Some(&f.locks));
    }
    for s in &a.model.pool_sites {
        push_record(
            out,
            &[
                "site".to_string(),
                esc(&s.method),
                s.line.to_string(),
                s.col.to_string(),
                u32::from(s.in_test).to_string(),
            ],
        );
        write_body(out, "s", &s.facts, &s.calls, None);
    }
    push_record(out, &["end".to_string()]);
}

fn write_body(
    out: &mut String,
    prefix: &str,
    facts: &[FactHit],
    calls: &[CallRef],
    locks: Option<&[LockAcq]>,
) {
    for h in facts {
        push_record(
            out,
            &[
                format!("{prefix}f"),
                h.kind.as_str().to_string(),
                h.line.to_string(),
                esc(&h.what),
            ],
        );
    }
    for c in calls {
        let mut rec = vec![
            format!("{prefix}c"),
            u32::from(c.method).to_string(),
            c.line.to_string(),
            c.order.to_string(),
        ];
        rec.extend(c.segments.iter().map(|s| esc(s)));
        push_record(out, &rec);
    }
    for l in locks.into_iter().flatten() {
        push_record(
            out,
            &[
                format!("{prefix}l"),
                esc(&l.receiver),
                l.line.to_string(),
                l.order.to_string(),
                l.held_until.to_string(),
            ],
        );
    }
}

fn parse_finding(fields: &[&str]) -> Option<Finding> {
    Some(Finding {
        code: Code::parse(fields.first()?)?,
        line: fields.get(1)?.parse().ok()?,
        col: fields.get(2)?.parse().ok()?,
        file: unesc(fields.get(3)?),
        message: unesc(fields.get(4)?),
    })
}

/// Parse the whole cache file. `None` on any structural problem — the
/// caller treats that as an empty cache.
fn parse(text: &str) -> Option<Cache> {
    let mut lines = text.lines();
    if lines.next()? != HEADER {
        return None;
    }
    let mut cache = Cache::default();
    let mut cur: Option<(String, u64, FileAnalysis)> = None;
    let mut cur_report: Option<(u64, crate::engine::Report)> = None;
    for line in lines {
        let fields: Vec<&str> = line.split('\t').collect();
        let (tag, rest) = fields.split_first()?;
        if let Some((digest, r)) = cur_report.as_mut() {
            match *tag {
                "rf" => {
                    r.findings.push(parse_finding(rest)?);
                    continue;
                }
                "endr" => {
                    cache.report = Some((*digest, r.clone()));
                    cur_report = None;
                    continue;
                }
                _ => return None, // only findings between report/endr
            }
        }
        match *tag {
            "report" => {
                if cur.is_some() {
                    return None; // report block inside a file entry
                }
                let digest = u64::from_str_radix(rest.first()?, 16).ok()?;
                let r = crate::engine::Report {
                    findings: Vec::new(),
                    allowed: rest.get(1)?.parse().ok()?,
                    files_scanned: rest.get(2)?.parse().ok()?,
                    files_cached: 0,
                };
                cur_report = Some((digest, r));
            }
            "file" => {
                if cur.is_some() {
                    return None; // missing `end`
                }
                let hash = u64::from_str_radix(rest.first()?, 16).ok()?;
                let path = unesc(rest.get(1)?);
                let a = FileAnalysis {
                    path: path.clone(),
                    ..FileAnalysis::default()
                };
                cur = Some((path.clone(), hash, a));
                if let Some((_, _, a)) = cur.as_mut() {
                    a.model.path = path;
                }
            }
            "end" => {
                let (path, hash, a) = cur.take()?;
                cache.entries.insert(path, (hash, a));
            }
            "raw" => cur.as_mut()?.2.raw.push(parse_finding(rest)?),
            "meta" => cur.as_mut()?.2.meta.push(parse_finding(rest)?),
            "allow" => {
                let d = AllowDirective {
                    code: Code::parse(rest.first()?)?,
                    line: rest.get(1)?.parse().ok()?,
                    applies_to: rest.get(2)?.parse().ok()?,
                    justification: unesc(rest.get(3)?),
                };
                cur.as_mut()?.2.directives.push(d);
            }
            "use" => {
                let leaf = unesc(rest.first()?);
                let segments: Vec<String> = rest[1..].iter().map(|s| unesc(s)).collect();
                cur.as_mut()?.2.model.uses.push(UseDecl { leaf, segments });
            }
            "fn" => {
                let impl_ty = opt_unesc(rest.get(1)?);
                let module = opt_unesc(rest.get(5)?);
                let f = FnInfo {
                    name: unesc(rest.first()?),
                    impl_ty: if impl_ty.is_empty() {
                        None
                    } else {
                        Some(impl_ty)
                    },
                    module: if module.is_empty() {
                        Vec::new()
                    } else {
                        module.split("::").map(str::to_string).collect()
                    },
                    line: rest.get(2)?.parse().ok()?,
                    col: rest.get(3)?.parse().ok()?,
                    in_test: rest.get(4)? == &"1",
                    facts: Vec::new(),
                    calls: Vec::new(),
                    locks: Vec::new(),
                };
                cur.as_mut()?.2.model.fns.push(f);
            }
            "site" => {
                let s = PoolSite {
                    method: unesc(rest.first()?),
                    line: rest.get(1)?.parse().ok()?,
                    col: rest.get(2)?.parse().ok()?,
                    in_test: rest.get(3)? == &"1",
                    facts: Vec::new(),
                    calls: Vec::new(),
                };
                cur.as_mut()?.2.model.pool_sites.push(s);
            }
            "ff" | "sf" => {
                let h = FactHit {
                    kind: FactKind::parse(rest.first()?)?,
                    line: rest.get(1)?.parse().ok()?,
                    what: unesc(rest.get(2)?),
                };
                let m = &mut cur.as_mut()?.2.model;
                if *tag == "ff" {
                    m.fns.last_mut()?.facts.push(h);
                } else {
                    m.pool_sites.last_mut()?.facts.push(h);
                }
            }
            "fc" | "sc" => {
                let c = CallRef {
                    method: rest.first()? == &"1",
                    line: rest.get(1)?.parse().ok()?,
                    order: rest.get(2)?.parse().ok()?,
                    segments: rest[3..].iter().map(|s| unesc(s)).collect(),
                };
                if c.segments.is_empty() {
                    return None;
                }
                let m = &mut cur.as_mut()?.2.model;
                if *tag == "fc" {
                    m.fns.last_mut()?.calls.push(c);
                } else {
                    m.pool_sites.last_mut()?.calls.push(c);
                }
            }
            "fl" => {
                let l = LockAcq {
                    receiver: unesc(rest.first()?),
                    line: rest.get(1)?.parse().ok()?,
                    order: rest.get(2)?.parse().ok()?,
                    held_until: rest.get(3)?.parse().ok()?,
                };
                cur.as_mut()?.2.model.fns.last_mut()?.locks.push(l);
            }
            _ => return None,
        }
    }
    if cur.is_some() || cur_report.is_some() {
        return None; // truncated entry
    }
    Some(cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::analyze_source;

    const SRC: &str = "use beta::helper;\n\
        // mnemo-lint: allow(R001, \"guarded by len check two lines up\")\n\
        fn f(pool: &Pool) {\n    helper();\n    pool.map(|i| step(i));\n    x.unwrap()\n}\n\
        fn step(i: usize) { self.inner.lock(); let t = Instant::now(); }\n";

    #[test]
    fn analysis_round_trips_through_the_tsv() {
        let a = analyze_source("crates/core/src/x.rs", SRC);
        let mut cache = Cache::empty();
        let hash = fnv64(SRC.as_bytes());
        cache.put("crates/core/src/x.rs", hash, &a);
        let dir = std::env::temp_dir().join(format!("mnemo-lint-cache-rt-{hash:x}"));
        cache.save(&dir).unwrap();
        let loaded = Cache::load(&dir);
        let b = loaded.get("crates/core/src/x.rs", hash).unwrap();
        assert_eq!(a, b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hash_mismatch_misses() {
        let a = analyze_source("crates/core/src/x.rs", SRC);
        let mut cache = Cache::empty();
        cache.put("crates/core/src/x.rs", 1, &a);
        assert!(cache.get("crates/core/src/x.rs", 2).is_none());
        assert!(cache.get("crates/core/src/x.rs", 1).is_some());
    }

    #[test]
    fn malformed_cache_degrades_to_empty() {
        for text in [
            "",
            "wrong header\n",
            "mnemo-lint-cache v1\nfile zz notahash\n",
            "mnemo-lint-cache v1\nfile 00000000000000ab x.rs\nraw R001 1 1 f m\n", // no end
            "mnemo-lint-cache v1\nbogus\trecord\n",
        ] {
            let parsed = parse(text);
            assert!(
                parsed.is_none() || parsed.as_ref().is_some_and(Cache::is_empty),
                "{text:?}"
            );
        }
    }

    #[test]
    fn escaped_fields_round_trip() {
        for s in ["a\tb", "a\nb", "a\\b", "tab\\t-literal", "", "-", "=x"] {
            assert_eq!(unesc(&esc(s)), s, "{s:?}");
            assert_eq!(opt_unesc(&opt_esc(s)), s, "{s:?}");
        }
    }

    #[test]
    fn retain_drops_departed_files() {
        let a = analyze_source("crates/core/src/x.rs", "fn f() {}\n");
        let mut cache = Cache::empty();
        cache.put("crates/core/src/x.rs", 1, &a);
        cache.put("crates/core/src/gone.rs", 2, &a);
        cache.retain(&["crates/core/src/x.rs"]);
        assert_eq!(cache.len(), 1);
        assert!(cache.get("crates/core/src/gone.rs", 2).is_none());
    }

    #[test]
    fn report_memo_round_trips_and_fast_path_reads_it() {
        let a = analyze_source("crates/core/src/x.rs", SRC);
        let mut cache = Cache::empty();
        cache.put("crates/core/src/x.rs", 7, &a);
        let digest = Cache::fileset_digest(&[("crates/core/src/x.rs", 7)]);
        let report = crate::engine::assemble(std::slice::from_ref(&a));
        cache.set_report(digest, &report);
        let dir = std::env::temp_dir().join(format!("mnemo-lint-cache-memo-{digest:x}"));
        cache.save(&dir).unwrap();

        // Fast path: right digest hits, wrong digest misses.
        let fast = Cache::load_report(&dir, digest).unwrap();
        assert_eq!(fast.findings, report.findings);
        assert_eq!(fast.allowed, report.allowed);
        assert!(Cache::load_report(&dir, digest ^ 1).is_none());

        // Full load still sees both the memo and the per-file entry.
        let loaded = Cache::load(&dir);
        assert_eq!(loaded.report(digest).unwrap().findings, report.findings);
        assert!(loaded.get("crates/core/src/x.rs", 7).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}
