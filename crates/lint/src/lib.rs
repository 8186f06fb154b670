//! `mnemo-lint` — the workspace's static determinism/robustness pass.
//!
//! Mnemo's reproduction guarantee (byte-identical figure CSVs and
//! telemetry for any `--jobs N`) is enforced dynamically by the CI
//! byte-diff gates — but those run a handful of benches at small scale.
//! This crate is the *static* half of the contract: a hand-rolled lexer
//! and a set of token-pattern lints that walk every `crates/**/*.rs`
//! source and reject the constructs that historically break determinism
//! or robustness before they reach a smoke gate:
//!
//! | code | invariant |
//! |------|-----------|
//! | D001 | no wall-clock reads outside the telemetry wall-time module |
//! | D002 | no default-hasher `HashMap`/`HashSet` in non-test code |
//! | D003 | no thread creation outside `mnemo-par` |
//! | D004 | no float reductions inside pool closures |
//! | D005 | no ad-hoc `Instant` timing in `crates/bench` (use `SweepTimer`) |
//! | D006 | no nondeterminism *reachable* from pool closures (call graph) |
//! | D007 | no float reduction reachable from pool-scheduled fns |
//! | R001 | no `unwrap`/`expect`/`panic!` outside tests and benches |
//! | R002 | no bare `as` integer casts in `hybridmem` |
//! | R003 | no panic reachable from serve request/journal hot paths |
//! | S001 | no `process::exit` outside `main.rs` |
//! | C001 | no conflicting lock-acquisition orders across call paths |
//! | P001 | no heap allocation reachable from hybridmem charge paths or kvsim engine request paths |
//! | M001 | malformed `mnemo-lint:` directive |
//! | M002 | stale, empty-justification, or copy-pasted allow directive |
//!
//! The D006/D007/R003/C001/P001 family is *semantic*: a recursive-
//! descent [`parser`] lifts each file to items + call references, a
//! workspace [`graph`] resolves those into a cross-crate call graph,
//! and [`reach`] walks it for transitively reachable facts. Findings
//! render as human text, JSON, or SARIF v2.1.0 ([`sarif`]).
//!
//! Violations are suppressed inline — with a mandatory justification —
//! via `// mnemo-lint: allow(CODE, "reason")`; see [`allow`].
//!
//! The pass runs as `mnemo lint` (CLI subcommand) and as the standalone
//! `mnemo-lint` binary the `lint-invariants` CI job invokes; both exit
//! nonzero on any unallowed finding. No `syn`/`proc-macro` is involved
//! (the workspace builds offline against vendored shims), so the rules
//! are deliberately lexical; their exact patterns are pinned by the
//! fixture corpus in `tests/fixtures/lint/` and documented in
//! CONTRIBUTING.md §Determinism rules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allow;
pub mod context;
pub mod diag;
pub mod engine;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod reach;
pub mod report;
pub mod rules;
pub mod sarif;

pub use diag::{explain_code, Code, Finding, Severity};
pub use engine::{lint_files, lint_source, lint_tree, Report};
pub use report::{render, Format};
