//! Property tests: the item parser is *total* like the lexer under it —
//! `parse_file` never panics on any token stream, every position it
//! records points into the source, and everything it extracts (fn
//! names, call heads, lock receivers, pool methods) is the text of a
//! real identifier token, never invented. `analyze_source` (and so the
//! whole semantic pipeline) inherits the guarantee.

use mnemo_lint::engine::analyze_source;
use mnemo_lint::lexer::{lex, TokenKind};
use mnemo_lint::parser::{parse_file, FileModel};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Run the full front half exactly as `analyze_source` does: lex, drop
/// comment tokens, parse. The mask is all-false — the parser must not
/// care.
fn parse_soup(src: &str) -> FileModel {
    let tokens: Vec<_> = lex(src)
        .into_iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    let in_test = vec![false; tokens.len()];
    parse_file("crates/core/src/x.rs", src, &tokens, &in_test)
}

/// Every invariant the downstream graph/reach phases rely on.
fn check_model_invariants(
    src: &str,
    model: &FileModel,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let lines = src.lines().count().max(1) as u32;
    let idents: BTreeSet<&str> = lex(src)
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text(src))
        .collect();
    for f in &model.fns {
        prop_assert!(f.line >= 1 && f.line <= lines, "fn line {f:?}");
        prop_assert!(f.col >= 1, "fn col {f:?}");
        prop_assert!(idents.contains(f.name.as_str()), "invented fn name {f:?}");
        for hit in &f.facts {
            prop_assert!(hit.line >= 1 && hit.line <= lines, "fact line {hit:?}");
        }
        for c in &f.calls {
            prop_assert!(c.line >= 1 && c.line <= lines, "call line {c:?}");
            prop_assert!(!c.segments.is_empty(), "empty call path {c:?}");
            for seg in &c.segments {
                prop_assert!(idents.contains(seg.as_str()), "invented call seg {c:?}");
            }
        }
        for l in &f.locks {
            prop_assert!(l.line >= 1 && l.line <= lines, "lock line {l:?}");
            prop_assert!(
                idents.contains(l.receiver.as_str()),
                "invented receiver {l:?}"
            );
        }
    }
    for u in &model.uses {
        prop_assert!(!u.leaf.is_empty(), "empty use leaf {u:?}");
        prop_assert!(!u.segments.is_empty(), "empty use path {u:?}");
    }
    for s in &model.pool_sites {
        prop_assert!(s.line >= 1 && s.line <= lines, "site line {s:?}");
        prop_assert!(s.col >= 1, "site col {s:?}");
        prop_assert!(idents.contains(s.method.as_str()), "invented site {s:?}");
    }
    Ok(())
}

/// The lexer-props alphabet plus the item keywords and call/lock/pool
/// shapes the parser keys on, so random soup actually exercises the
/// item state machine, not just its error recovery.
fn item_chunk(b: u8) -> &'static str {
    const CHUNKS: &[&str] = &[
        "fn ",
        "impl ",
        "mod ",
        "use ",
        "pub ",
        "for ",
        "{",
        "}",
        "(",
        ")",
        "::",
        ";",
        ",",
        "a",
        "b9",
        "_c",
        "self.",
        ".lock()",
        ".sum::<f64>()",
        "pool.run_jobs(",
        "|i|",
        "Instant::now()",
        "vec![",
        "\"s\"",
        "'c'",
        "// x\n",
        "/* y */",
        "\n",
        "<",
        ">",
        "&",
        "#[test]",
        "r#\"",
        "=",
        "->",
        "unwrap",
    ];
    CHUNKS[b as usize % CHUNKS.len()]
}

proptest! {
    #[test]
    fn parser_total_on_arbitrary_utf8(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let model = parse_soup(&src);
        check_model_invariants(&src, &model)?;
    }

    #[test]
    fn parser_total_on_item_soup(bytes in proptest::collection::vec(0u8..=255, 0..128)) {
        let src: String = bytes.iter().map(|&b| item_chunk(b)).collect();
        let model = parse_soup(&src);
        check_model_invariants(&src, &model)?;
    }

    #[test]
    fn analyze_source_total_on_item_soup(bytes in proptest::collection::vec(0u8..=255, 0..128)) {
        let src: String = bytes.iter().map(|&b| item_chunk(b)).collect();
        // The paths with special semantic-rule policy, plus a plain one.
        for path in [
            "crates/core/src/x.rs",
            "crates/serve/src/engine.rs",
            "crates/hybridmem/src/stack.rs",
            "crates/par/src/lib.rs",
        ] {
            let analysis = analyze_source(path, &src);
            check_model_invariants(&src, &analysis.model)?;
        }
    }

    #[test]
    fn every_fn_token_is_seen_or_skipped_deliberately(bytes in proptest::collection::vec(0u8..=255, 0..128)) {
        // Token coverage: the model never contains more fns than `fn`
        // keyword tokens, and a well-formed prefix (`fn name`) at
        // nesting depth the parser tracks yields exactly that name.
        let src: String = bytes.iter().map(|&b| item_chunk(b)).collect();
        let fn_tokens = lex(&src)
            .iter()
            .filter(|t| t.kind == TokenKind::Ident && t.text(&src) == "fn")
            .count();
        let model = parse_soup(&src);
        prop_assert!(
            model.fns.len() <= fn_tokens,
            "{} fns from {} `fn` tokens",
            model.fns.len(),
            fn_tokens
        );
    }
}

#[test]
fn well_formed_file_has_full_token_coverage() {
    // Deterministic anchor next to the fuzz: on a well-formed file the
    // parser accounts for every item-level construct.
    let src = r#"
use std::sync::Mutex;
pub struct S { m: Mutex<u64> }
impl S {
    pub fn total(&self, xs: &[f64]) -> f64 {
        let g = self.m.lock().unwrap_or_else(|e| e.into_inner());
        let _ = *g;
        xs.iter().sum::<f64>()
    }
}
fn free(n: usize) -> Vec<u64> {
    let pool = mnemo_par::Pool::current();
    pool.run_jobs(n, |i| i as u64)
}
"#;
    let model = parse_soup(src);
    assert_eq!(
        model
            .fns
            .iter()
            .map(|f| f.name.as_str())
            .collect::<Vec<_>>(),
        vec!["total", "free"]
    );
    assert_eq!(model.uses.len(), 1);
    assert_eq!(model.pool_sites.len(), 1);
    assert_eq!(model.fns[0].locks.len(), 1);
    assert_eq!(model.fns[0].facts.len(), 1);
    check_model_invariants(src, &model).unwrap();
}
