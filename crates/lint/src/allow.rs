//! The inline opt-out: `// mnemo-lint: allow(CODE, "justification")`.
//!
//! Every suppression must say *why* — a directive without a non-empty
//! justification string is itself a finding ([`Code::M001`]), and a
//! directive that suppresses nothing is flagged stale ([`Code::M002`]).
//!
//! Placement rules:
//! * a directive in a trailing comment applies to findings on its own
//!   line;
//! * a directive on a line of its own applies to the *next* line.

use crate::diag::{Code, Finding};
use crate::lexer::{Token, TokenKind};

/// A parsed allow directive.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// The code it suppresses.
    pub code: Code,
    /// The mandatory human reason (unquoted).
    pub justification: String,
    /// Line the comment sits on.
    pub line: u32,
    /// The line whose findings it suppresses.
    pub applies_to: u32,
}

/// Scan comment tokens for directives. Returns the well-formed
/// directives plus M001 findings for malformed ones.
pub fn parse_directives(
    path: &str,
    src: &str,
    tokens: &[Token],
) -> (Vec<AllowDirective>, Vec<Finding>) {
    let mut directives = Vec::new();
    let mut findings = Vec::new();
    for tok in tokens {
        if !matches!(tok.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        // A directive must *start* the comment (after the comment
        // opener); prose that merely mentions `mnemo-lint:` — like this
        // sentence — is not a directive.
        let body = comment_body(tok.text(src));
        let Some(rest) = body.strip_prefix("mnemo-lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        match parse_allow(rest) {
            Some((code, justification)) => {
                let standalone = line_is_blank_before(src, tok);
                directives.push(AllowDirective {
                    code,
                    justification,
                    line: tok.line,
                    applies_to: if standalone { tok.line + 1 } else { tok.line },
                });
            }
            None => findings.push(Finding {
                code: Code::M001,
                file: path.to_string(),
                line: tok.line,
                col: tok.col,
                message: format!("`{}`", first_line(body)),
            }),
        }
    }
    (directives, findings)
}

/// Strip the comment opener (`//`, `///`, `//!`, `/*`, `/**`, `/*!`)
/// and leading whitespace.
fn comment_body(text: &str) -> &str {
    let body = if let Some(rest) = text.strip_prefix("//") {
        rest.trim_start_matches(['/', '!'])
    } else if let Some(rest) = text.strip_prefix("/*") {
        rest.trim_start_matches(['*', '!'])
    } else {
        text
    };
    body.trim_start()
}

/// Parse `allow(CODE, "reason")` (the part after the directive name).
fn parse_allow(rest: &str) -> Option<(Code, String)> {
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.rfind(')')?;
    let inner = &rest[..close];
    let comma = inner.find(',')?;
    let code = Code::parse(inner[..comma].trim())?;
    let reason = inner[comma + 1..].trim();
    let reason = reason.strip_prefix('"')?.strip_suffix('"')?;
    if reason.trim().is_empty() {
        return None;
    }
    Some((code, reason.to_string()))
}

/// Is everything before this token on its line whitespace?
fn line_is_blank_before(src: &str, tok: &Token) -> bool {
    src[..tok.start]
        .bytes()
        .rev()
        .take_while(|&b| b != b'\n')
        .all(|b| b == b' ' || b == b'\t')
}

fn first_line(text: &str) -> &str {
    text.lines().next().unwrap_or("")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> (Vec<AllowDirective>, Vec<Finding>) {
        parse_directives("x.rs", src, &lex(src))
    }

    #[test]
    fn trailing_directive_applies_to_its_own_line() {
        let src = "let t = now(); // mnemo-lint: allow(D001, \"bench wall clock\")\n";
        let (dirs, bad) = run(src);
        assert!(bad.is_empty());
        assert_eq!(dirs.len(), 1);
        assert_eq!(dirs[0].code, Code::D001);
        assert_eq!(dirs[0].applies_to, 1);
        assert_eq!(dirs[0].justification, "bench wall clock");
    }

    #[test]
    fn standalone_directive_applies_to_next_line() {
        let src =
            "fn f() {\n    // mnemo-lint: allow(R001, \"len checked above\")\n    x.unwrap();\n}\n";
        let (dirs, _) = run(src);
        assert_eq!(dirs[0].line, 2);
        assert_eq!(dirs[0].applies_to, 3);
    }

    #[test]
    fn missing_justification_is_malformed() {
        for src in [
            "// mnemo-lint: allow(R001)",
            "// mnemo-lint: allow(R001, )",
            "// mnemo-lint: allow(R001, \"\")",
            "// mnemo-lint: allow(R001, \"  \")",
            "// mnemo-lint: allow(R999, \"x\")",
            "// mnemo-lint: alow(R001, \"x\")",
        ] {
            let (dirs, bad) = run(src);
            assert!(dirs.is_empty(), "{src}");
            assert_eq!(bad.len(), 1, "{src}");
            assert_eq!(bad[0].code, Code::M001, "{src}");
        }
    }

    #[test]
    fn prose_mentioning_the_directive_is_not_a_directive() {
        for src in [
            "//! Suppress with `mnemo-lint: allow(CODE, \"reason\")`.\n",
            "// see mnemo-lint: allow syntax in CONTRIBUTING.md\n",
            "/* docs about mnemo-lint: allow(D001) */\n",
        ] {
            let (dirs, bad) = run(src);
            assert!(dirs.is_empty() && bad.is_empty(), "{src}");
        }
        // But a comment that *starts* with the directive name and is
        // malformed is still flagged.
        let (_, bad) = run("// mnemo-lint: allow(D001)\n");
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn directive_inside_string_is_ignored() {
        let src = "let s = \"// mnemo-lint: allow(R001)\";\n";
        let (dirs, bad) = run(src);
        assert!(dirs.is_empty() && bad.is_empty());
    }

    #[test]
    fn reason_may_contain_parens_and_commas() {
        let src = "// mnemo-lint: allow(D002, \"fixed-seed hasher (see det), not RandomState\")";
        let (dirs, bad) = run(src);
        assert!(bad.is_empty());
        assert_eq!(
            dirs[0].justification,
            "fixed-seed hasher (see det), not RandomState"
        );
    }
}
