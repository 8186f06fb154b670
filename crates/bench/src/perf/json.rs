//! The JSON codec of the perf trajectory files: the workspace's one
//! reader and escaper, re-exported for the harness and its callers.
//! The tests pin this surface, which the repository benchmark imports.

pub use mnemo_codec::json::{escape, parse, Json};
pub use mnemo_codec::ParseError;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_numbers_losslessly() {
        let doc = "{\"a\": 18446744073709551615, \"b\": -1.25e3}";
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().u64("a").unwrap(), u64::MAX);
        assert_eq!(v.get("b").unwrap().f64("b").unwrap(), -1250.0);
    }

    #[test]
    fn parses_nested_structures_and_escapes() {
        let doc = r#"{"rows": [{"name": "a\"b", "ok": true}, null], "n": 3}"#;
        let v = parse(doc).unwrap();
        let rows = v.get("rows").unwrap().arr("rows").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("name").unwrap().str("name").unwrap(), "a\"b");
        assert_eq!(rows[1], Json::Null);
    }

    #[test]
    fn errors_carry_the_line_number() {
        let doc = "{\n  \"a\": 1,\n  \"b\": nope\n}\n";
        let err = parse(doc).unwrap_err();
        assert_eq!(err.line, 3, "{err}");
        assert!(err.to_string().starts_with("line 3:"), "{err}");

        let err = parse("{\"a\": 1\n").unwrap_err();
        assert_eq!(err.line, 2, "{err}");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(parse("{} x").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn escape_handles_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}
