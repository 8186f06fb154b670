//! Rendering a [`Report`] for humans and for CI (JSON artifact).
//!
//! The JSON is hand-rolled (no serde in this crate) and fully
//! deterministic: findings come pre-sorted from the engine and keys are
//! emitted in a fixed order, so two runs over the same tree produce
//! byte-identical artifacts.

use crate::engine::Report;
use mnemo_codec::json::escape;

/// Output format selector for the CLI layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// One finding per line, `error[CODE] file:line:col: message`.
    Human,
    /// The machine-readable CI artifact.
    Json,
    /// SARIF v2.1.0, for code-scanning UIs (see [`crate::sarif`]).
    Sarif,
}

impl Format {
    /// Parse a `--format` value.
    pub fn parse(s: &str) -> Option<Format> {
        match s {
            "human" => Some(Format::Human),
            "json" => Some(Format::Json),
            "sarif" => Some(Format::Sarif),
            _ => None,
        }
    }
}

/// Render the report in the requested format.
pub fn render(report: &Report, format: Format) -> String {
    match format {
        Format::Human => human(report),
        Format::Json => json(report),
        Format::Sarif => crate::sarif::sarif(report),
    }
}

fn human(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}[{}] {}:{}:{}: {} — {}\n",
            f.code.severity().as_str(),
            f.code,
            f.file,
            f.line,
            f.col,
            f.message,
            f.code.explain()
        ));
    }
    out.push_str(&format!(
        "mnemo-lint: {} error(s), {} warning(s), {} allowed, {} file(s) scanned\n",
        report.errors(),
        report.warnings(),
        report.allowed,
        report.files_scanned
    ));
    out
}

fn json(report: &Report) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str(&format!("  \"allowed\": {},\n", report.allowed));
    out.push_str(&format!("  \"errors\": {},\n", report.errors()));
    out.push_str(&format!("  \"warnings\": {},\n", report.warnings()));
    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"code\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \"line\": {}, \
             \"col\": {}, \"message\": \"{}\", \"explain\": \"{}\"}}",
            f.code,
            f.code.severity().as_str(),
            escape(&f.file),
            f.line,
            f.col,
            escape(&f.message),
            escape(f.code.explain())
        ));
    }
    if !report.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::lint_source;

    #[test]
    fn human_output_carries_span_and_code() {
        let r = lint_source("crates/core/src/x.rs", "fn f() { x.unwrap(); }\n");
        let text = render(&r, Format::Human);
        assert!(
            text.contains("error[R001] crates/core/src/x.rs:1:12:"),
            "{text}"
        );
        assert!(text.contains("1 error(s)"), "{text}");
    }

    #[test]
    fn json_is_parseable_shape_and_escaped() {
        let r = lint_source(
            "crates/core/src/x.rs",
            "fn f() { x.expect(\"weird \\\"quote\\\"\"); }\n",
        );
        let text = render(&r, Format::Json);
        assert!(text.contains("\"version\": 1"), "{text}");
        assert!(text.contains("\"code\": \"R001\""), "{text}");
        assert!(text.contains("\"errors\": 1"), "{text}");
        // Balanced braces/brackets, double-quote count even.
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
    }

    #[test]
    fn empty_report_renders_empty_array() {
        let r = lint_source("crates/core/src/x.rs", "fn f() {}\n");
        let text = render(&r, Format::Json);
        assert!(text.contains("\"findings\": []"), "{text}");
    }

    #[test]
    fn escape_handles_controls() {
        let file = "crates/core/src/a\"b\\c\nd\u{1}.rs";
        let r = lint_source(file, "fn f() { x.unwrap(); }\n");
        let text = render(&r, Format::Json);
        assert!(text.contains("a\\\"b\\\\c\\nd\\u0001.rs"), "{text}");
        let doc = mnemo_codec::json::parse(&text).unwrap();
        let findings = doc.get("findings").unwrap().arr("findings").unwrap();
        assert_eq!(findings[0].get("file").unwrap().str("file").unwrap(), file);
    }

    #[test]
    fn format_parses() {
        assert_eq!(Format::parse("json"), Some(Format::Json));
        assert_eq!(Format::parse("human"), Some(Format::Human));
        assert_eq!(Format::parse("sarif"), Some(Format::Sarif));
        assert_eq!(Format::parse("yaml"), None);
    }
}
