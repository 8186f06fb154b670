//! Lint codes, severities, and findings.

use std::fmt;

/// Every lint the pass enforces. Codes are stable public API: CI
/// artifacts, allow directives, and CONTRIBUTING.md all refer to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Wall-clock reads (`Instant::now`, `SystemTime`, …) outside the
    /// telemetry wall-time module. Wall time is nondeterministic; sim
    /// results must be functions of `SimClock` and the seed only.
    D001,
    /// `HashMap`/`HashSet` with the default `RandomState` hasher in
    /// non-test code: iteration order varies per process.
    D002,
    /// `thread::spawn` / raw `crossbeam::scope` outside `mnemo-par`,
    /// the one crate allowed to fork.
    D003,
    /// Floating-point `sum()`/`fold`/`product` inside a closure passed
    /// to a `mnemo-par` pool: reduction order would depend on the
    /// worker count. Reduce over the index-ordered result instead.
    D004,
    /// Raw `std::time::Instant` mentioned inside `crates/bench` outside
    /// the perf harness: bench wall-clock must flow through the
    /// telemetry-span `SweepTimer` so it lands in the `timing-*` /
    /// `BENCH_CORE.json` artifacts instead of ad-hoc prints.
    D005,
    /// Nondeterminism (wall-clock read, entropy-seeded RNG, or
    /// default-hasher map) *transitively* reachable — through the
    /// cross-crate call graph — from a closure scheduled on the
    /// `mnemo-par` pool. The token rules (D001/D002) catch the leaf;
    /// this catches the leaf hiding two calls below the closure.
    D006,
    /// Floating-point reduction (`.sum::<f64>()` & friends) reachable
    /// from a pool-scheduled closure through at least one call. The
    /// direct-in-closure case is D004; this is its transitive twin.
    D007,
    /// `unwrap()`/`expect()`/`panic!` outside tests and benches.
    R001,
    /// Bare `as` integer cast in `hybridmem` byte/nanosecond
    /// arithmetic: silently truncates or loses sign. Use the checked
    /// helpers in `hybridmem::num`.
    R002,
    /// `panic!`/`unwrap`/`expect` reachable (transitively) from a
    /// `mnemo-serve` request or journal hot-path function: a panic
    /// there takes down the daemon mid-request instead of degrading.
    R003,
    /// `std::process::exit` outside `main.rs`: skips destructors and
    /// makes library code untestable.
    S001,
    /// Lock-acquisition-order conflict: two lock receivers are acquired
    /// in order A→B on one call path and B→A on another — the classic
    /// deadlock shape, detected lexically across the call graph.
    C001,
    /// Heap allocation reachable from a `hybridmem` per-request charge
    /// path (`touch`/`access*`/`record*`): the PR 7 alloc-count perf
    /// gates pinned these paths alloc-free; an allocation here is a
    /// perf regression the counters would only catch at bench time.
    P001,
    /// Malformed `mnemo-lint:` directive (unknown code, or missing the
    /// mandatory justification string).
    M001,
    /// An allow directive that suppressed nothing — stale escape
    /// hatches get deleted, not collected.
    M002,
}

/// All enforceable codes, in report order.
pub const ALL_CODES: [Code; 15] = [
    Code::D001,
    Code::D002,
    Code::D003,
    Code::D004,
    Code::D005,
    Code::D006,
    Code::D007,
    Code::R001,
    Code::R002,
    Code::R003,
    Code::S001,
    Code::C001,
    Code::P001,
    Code::M001,
    Code::M002,
];

impl Code {
    /// Parse a code name as written in an allow directive.
    pub fn parse(s: &str) -> Option<Code> {
        ALL_CODES.iter().copied().find(|c| c.as_str() == s)
    }

    /// The stable code string (`"D001"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Code::D001 => "D001",
            Code::D002 => "D002",
            Code::D003 => "D003",
            Code::D004 => "D004",
            Code::D005 => "D005",
            Code::D006 => "D006",
            Code::D007 => "D007",
            Code::R001 => "R001",
            Code::R002 => "R002",
            Code::R003 => "R003",
            Code::S001 => "S001",
            Code::C001 => "C001",
            Code::P001 => "P001",
            Code::M001 => "M001",
            Code::M002 => "M002",
        }
    }

    /// One-line rationale, shown with every finding.
    pub fn explain(&self) -> &'static str {
        match self {
            Code::D001 => {
                "wall-clock read outside the telemetry wall-time module breaks \
                           --jobs byte-determinism"
            }
            Code::D002 => {
                "default-hasher HashMap/HashSet iterates in per-process random order; \
                           use BTreeMap/BTreeSet or hybridmem::det::{DetHashMap, DetHashSet}"
            }
            Code::D003 => {
                "thread creation outside mnemo-par bypasses the bounded deterministic \
                           pool"
            }
            Code::D004 => {
                "float reduction inside a pool closure depends on worker scheduling; \
                           reduce over the index-ordered results instead"
            }
            Code::D005 => {
                "ad-hoc Instant timing in crates/bench bypasses the SweepTimer span \
                           pipeline; time stages through mnemo_par::SweepTimer so the \
                           perf harness sees them"
            }
            Code::D006 => {
                "nondeterminism (wall clock, entropy RNG, default hasher) is reachable \
                           through the call graph from a closure scheduled on the mnemo-par \
                           pool; the output would depend on worker timing"
            }
            Code::D007 => {
                "a float reduction is reachable through the call graph from a \
                           pool-scheduled closure; reduction order would depend on the \
                           worker count"
            }
            Code::R001 => {
                "unwrap/expect/panic in non-test code turns recoverable failures into \
                           aborts; propagate a typed error"
            }
            Code::R002 => {
                "bare `as` integer cast on byte/ns arithmetic can truncate; use \
                           hybridmem::num helpers"
            }
            Code::R003 => {
                "a panic (panic!/unwrap/expect) is reachable from a mnemo-serve \
                           request/journal hot path; the daemon must degrade, not abort"
            }
            Code::S001 => {
                "process::exit outside main.rs skips destructors and exits from \
                           library code"
            }
            Code::C001 => {
                "two locks are acquired in opposite orders on different call paths — \
                           the classic deadlock shape; pick one global order"
            }
            Code::P001 => {
                "heap allocation reachable from a hybridmem or kvsim per-request \
                           charge path; these paths are pinned alloc-free by the perf gates"
            }
            Code::M001 => {
                "malformed mnemo-lint directive: expected \
                           `mnemo-lint: allow(CODE, \"justification\")`"
            }
            Code::M002 => "allow directive suppressed nothing; delete it",
        }
    }

    /// Extended help shown by `mnemo lint --explain CODE` and embedded
    /// in the SARIF rule metadata: what the rule matches, why the
    /// invariant exists, and how to fix or suppress a finding.
    pub fn help(&self) -> &'static str {
        match self {
            Code::D001 => {
                "Matches `Instant::now()`, any `SystemTime` mention, and chrono-style \
                 `Utc::now()`/`Local::now()` outside crates/telemetry/src/recorder.rs. \
                 Simulation results must be functions of SimClock and the seed only, or \
                 the --jobs byte-diff gates break. Fix: thread sim time in, or record \
                 wall time through the telemetry recorder's sanctioned span API."
            }
            Code::D002 => {
                "Matches any `HashMap`/`HashSet` identifier in non-test code. The \
                 default RandomState hasher iterates in a per-process random order, so \
                 any iteration leaks nondeterminism. Fix: BTreeMap/BTreeSet when order \
                 matters, or the fixed-seed hybridmem::det::{DetHashMap, DetHashSet}."
            }
            Code::D003 => {
                "Matches `thread::spawn`, `.spawn(`, and `crossbeam::scope/thread` \
                 outside crates/par. All parallelism must go through the bounded \
                 deterministic mnemo-par pool so --jobs invariance holds."
            }
            Code::D004 => {
                "Matches `.sum::<f32|f64>()`, `.product::<f32|f64>()`, and \
                 `.fold(<float literal>, ..)` lexically inside the argument of a \
                 pool-receiver `map/map_slice/map_chunked/run_jobs/join` call. Float \
                 addition is not associative; reduce sequentially over the \
                 index-ordered results the pool hands back instead."
            }
            Code::D005 => {
                "Matches any `Instant` identifier in crates/bench outside \
                 crates/bench/src/perf/. Bench stages timed with a raw Instant never \
                 reach the timing-* CSVs or BENCH_CORE.json, so the perf harness \
                 under-reports them. Fix: time stages through mnemo_par::SweepTimer."
            }
            Code::D006 => {
                "Reachability twin of D001/D002: walks the workspace call graph from \
                 every closure scheduled on a mnemo-par pool entry point \
                 (map/map_slice/map_chunked/run_jobs/join on a pool-ish receiver) and \
                 flags wall-clock reads, entropy-seeded RNG (thread_rng/from_entropy/ \
                 RandomState), or default-hasher maps reachable through at least one \
                 call edge. The finding sits at the pool call site and names the call \
                 path to the offending leaf. Fix the leaf, or allow at the call site \
                 with a justification explaining why the path is benign."
            }
            Code::D007 => {
                "Reachability twin of D004: flags float reductions (turbofished \
                 .sum/.product, float-seeded .fold) in functions reachable from a \
                 pool-scheduled closure through at least one call edge. A per-item \
                 sequential reduction inside one mapped item is deterministic — if \
                 that is what the path does, say so in an allow justification."
            }
            Code::R001 => {
                "Matches `.unwrap()`, `.expect(`, and `panic!(` outside test regions. \
                 Library code propagates typed errors; a panic in production aborts \
                 the whole process. Fix: `?`, `ok_or`, or a typed error enum."
            }
            Code::R002 => {
                "Matches `<expr> as <int type>` in crates/hybridmem. Byte and \
                 nanosecond arithmetic silently truncates or loses sign under `as`; \
                 use the checked helpers in hybridmem::num."
            }
            Code::R003 => {
                "Walks the call graph from the mnemo-serve request hot path \
                 (ServeEngine::ingest/tick/replan/advise_now and their per-tenant \
                 helpers) and the journal write path (append/sync/rotate) and flags \
                 panic!/unwrap/expect reachable through at least one call edge — \
                 including R001-allowed sites, whose local justification does not \
                 cover being on a daemon hot path. The serving contract is degraded \
                 answers, never aborts. Fix the leaf or allow at the root with a \
                 justification for the whole path."
            }
            Code::S001 => {
                "Matches `process::exit` outside main.rs / src/bin/. Exiting from \
                 library code skips destructors (flushes, lock releases) and makes \
                 the code untestable. Fix: return a typed error to the entry point."
            }
            Code::C001 => {
                "Lexical lock-order audit: within each function the linter records \
                 the order in which lock receivers are acquired (`.lock()`, empty-arg \
                 `.read()`/`.write()`, and the serve-style `lock(&x)` helper), \
                 propagates acquisitions through the call graph, and flags any pair \
                 of receivers acquired as A then B on one path and B then A on \
                 another — the classic deadlock shape. Receivers are identified by \
                 field/variable name, so distinct locks sharing a name can alias. \
                 Fix: acquire in one global order, or allow with the reason the \
                 orders can never interleave."
            }
            Code::P001 => {
                "Walks the call graph from the hybridmem per-request charge paths \
                 (touch_n/access/access_at/access_ns/access_ns_n, the \
                 paired walk's probe_llc and quote_ns/quote_ns_n, and the \
                 AccessStats record/record_n sinks) and the kvsim request paths \
                 (EngineCore::charge_op and each *_like.rs engine's \
                 get/put/quote_pair) and flags reachable heap \
                 allocations (vec!/format!/Box::new/with_capacity/to_vec/to_string/ \
                 to_owned/String::from/.collect). The `mnemo perf` alloc-count \
                 gates pin these paths alloc-free; this catches regressions at \
                 lint time instead of bench time."
            }
            Code::M001 => {
                "An allow directive that does not parse: unknown code, missing \
                 parens, or a missing/empty justification string. The format is \
                 `// mnemo-lint: allow(CODE, \"non-empty reason\")`."
            }
            Code::M002 => {
                "Allow-directive hygiene: a directive that suppressed nothing \
                 (stale), whose justification contains no letters or digits, or \
                 whose justification is duplicated verbatim more than three times \
                 across the scanned tree (copy-paste suppressions stop being \
                 justifications). Delete the stale ones; write real reasons for \
                 the rest."
            }
        }
    }

    /// Findings in D/R/S codes are errors; directive hygiene (M*) is a
    /// warning unless `--deny-warnings` promotes it.
    pub fn severity(&self) -> Severity {
        match self {
            Code::M001 | Code::M002 => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a finding gates the build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Fails the run only under `--deny-warnings`.
    Warning,
    /// Always fails the run.
    Error,
}

impl Severity {
    /// Lowercase name used in reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One lint hit at one source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which lint fired.
    pub code: Code,
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// What was matched (e.g. `` `.unwrap()` ``), prepended to the
    /// code's rationale in reports.
    pub message: String,
}

impl Finding {
    /// Stable sort key: file, then position, then code.
    pub fn sort_key(&self) -> (String, u32, u32, Code) {
        (self.file.clone(), self.line, self.col, self.code)
    }
}

/// Render the `--explain CODE` page shared by the standalone binary and
/// the `mnemo lint --explain` subcommand: severity, the one-line
/// rationale, the full help text (also SARIF `fullDescription`), and
/// the suppression recipe. `Err` carries a usage message for unknown
/// codes.
pub fn explain_code(code_str: &str) -> Result<String, String> {
    let code = Code::parse(code_str.trim()).ok_or_else(|| {
        format!(
            "unknown lint code '{code_str}' (try D001..D007, R001..R003, S001, C001, P001, M001, M002)"
        )
    })?;
    Ok(format!(
        "{code} ({})\n\n{}\n\n{}\n\nSuppress a justified exception with:\n  // mnemo-lint: allow({code}, \"why this site is sound\")\n",
        code.severity().as_str(),
        code.explain(),
        code.help()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_and_have_docs() {
        for code in ALL_CODES {
            assert_eq!(Code::parse(code.as_str()), Some(code));
            assert!(!code.explain().is_empty());
        }
        assert_eq!(Code::parse("D999"), None);
    }

    #[test]
    fn meta_codes_are_warnings_rule_codes_are_errors() {
        assert_eq!(Code::M001.severity(), Severity::Warning);
        assert_eq!(Code::M002.severity(), Severity::Warning);
        for code in [Code::D001, Code::D004, Code::R001, Code::S001] {
            assert_eq!(code.severity(), Severity::Error);
        }
    }
}
