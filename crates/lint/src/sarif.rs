//! SARIF v2.1.0 rendering — the interchange format code-scanning UIs
//! ingest. Hand-rolled like the JSON renderer (no serde) and fully
//! deterministic: rule metadata comes from [`crate::diag::ALL_CODES`]
//! in declaration order, results are pre-sorted by the engine, and
//! keys are emitted in a fixed order, so two runs over the same tree
//! produce byte-identical artifacts.

use crate::diag::{Severity, ALL_CODES};
use crate::engine::Report;
use mnemo_codec::json::escape;

const SCHEMA: &str = "https://json.schemastore.org/sarif-2.1.0.json";

fn level(sev: Severity) -> &'static str {
    match sev {
        Severity::Error => "error",
        Severity::Warning => "warning",
    }
}

/// Render the full SARIF log for a report.
pub fn sarif(report: &Report) -> String {
    let mut out = String::with_capacity(4096 + report.findings.len() * 256);
    out.push_str("{\n");
    out.push_str(&format!("  \"$schema\": \"{}\",\n", escape(SCHEMA)));
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"mnemo-lint\",\n");
    out.push_str(&format!(
        "          \"version\": \"{}\",\n",
        escape(env!("CARGO_PKG_VERSION"))
    ));
    out.push_str("          \"rules\": [\n");
    for (i, code) in ALL_CODES.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}, \
             \"fullDescription\": {{\"text\": \"{}\"}}, \
             \"defaultConfiguration\": {{\"level\": \"{}\"}}}}",
            escape(code.as_str()),
            escape(code.explain()),
            escape(code.help()),
            escape(level(code.severity()))
        ));
    }
    out.push_str("\n          ]\n        }\n      },\n");
    out.push_str("      \"results\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let rule_index = ALL_CODES
            .iter()
            .position(|c| *c == f.code)
            .unwrap_or_default();
        out.push_str(&format!(
            "\n        {{\"ruleId\": \"{}\", \"ruleIndex\": {}, \"level\": \"{}\", \
             \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": \
             {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": \
             {{\"startLine\": {}, \"startColumn\": {}}}}}}}]}}",
            escape(f.code.as_str()),
            rule_index,
            escape(level(f.code.severity())),
            escape(&f.message),
            escape(&f.file),
            f.line,
            f.col
        ));
    }
    if !report.findings.is_empty() {
        out.push_str("\n      ");
    }
    out.push_str("]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::lint_source;

    #[test]
    fn sarif_log_has_schema_rules_and_results() {
        let r = lint_source("crates/core/src/x.rs", "fn f() { x.unwrap(); }\n");
        let text = sarif(&r);
        assert!(text.contains("\"version\": \"2.1.0\""), "{text}");
        assert!(text.contains("sarif-2.1.0.json"), "{text}");
        // All 15 rules described once each.
        for code in ALL_CODES {
            assert!(
                text.contains(&format!("\"id\": \"{}\"", code.as_str())),
                "{code:?} missing"
            );
        }
        assert!(text.contains("\"ruleId\": \"R001\""), "{text}");
        assert!(text.contains("\"startLine\": 1"), "{text}");
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
    }

    #[test]
    fn clean_report_renders_empty_results() {
        let r = lint_source("crates/core/src/x.rs", "fn f() {}\n");
        let text = sarif(&r);
        assert!(text.contains("\"results\": []"), "{text}");
    }

    #[test]
    fn rendering_is_deterministic() {
        let r = lint_source(
            "crates/core/src/x.rs",
            "fn f() { x.unwrap(); y.expect(\"z\"); }\n",
        );
        assert_eq!(sarif(&r), sarif(&r));
    }
}
