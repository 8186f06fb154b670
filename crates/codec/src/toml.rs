//! The TOML subset fault plans and hierarchy specs are written in.
//!
//! A document is a top-level record, then `[table]` sections (each name
//! at most once) and `[[array]]` entries. Every record holds
//! `key = scalar` lines: a double-quoted string without escapes, an
//! unsigned integer up to `u128`, a finite float or a boolean, with `_`
//! digit separators and `#` comments allowed. The reader accepts any
//! section name; each caller rejects the names it does not know.

use crate::ParseError;

/// One scalar value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string.
    Str(String),
    /// A non-negative integer.
    Int(u128),
    /// A finite float (including negative numbers).
    Float(f64),
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// A number token as an [`Value::Int`] when it is an unsigned
    /// integer, else as a finite [`Value::Float`]. Also converts JSON
    /// number tokens, so both plan formats type numbers alike.
    pub fn number(token: &str) -> Option<Value> {
        if let Ok(n) = token.parse::<u128>() {
            return Some(Value::Int(n));
        }
        token
            .parse::<f64>()
            .ok()
            .filter(|x| x.is_finite())
            .map(Value::Float)
    }

    fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "a string",
            Value::Int(_) => "an integer",
            Value::Float(_) => "a float",
            Value::Bool(_) => "a boolean",
        }
    }
}

/// A record of keyed scalars, each tagged with the line it was on.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The section name (`""` for the top-level record).
    pub name: String,
    /// The header's line (0 for the top-level record).
    pub line: usize,
    fields: Vec<(String, Value, usize)>,
}

impl Record {
    /// An empty record named `name` whose header is on `line`.
    pub fn new(name: &str, line: usize) -> Record {
        Record {
            name: name.to_string(),
            line,
            fields: Vec::new(),
        }
    }

    /// Add a field; a key may appear once.
    pub fn insert(&mut self, key: String, value: Value, line: usize) -> Result<(), ParseError> {
        if self.fields.iter().any(|(k, _, _)| *k == key) {
            return Err(ParseError::at(line, format!("duplicate key `{key}`")));
        }
        self.fields.push((key, value, line));
        Ok(())
    }

    /// The fields as `(key, value, line)`, in source order.
    pub fn fields(&self) -> &[(String, Value, usize)] {
        &self.fields
    }

    /// A field's value and line.
    pub fn get(&self, key: &str) -> Option<(&Value, usize)> {
        self.fields
            .iter()
            .find(|(k, _, _)| k == key)
            .map(|(_, v, l)| (v, *l))
    }

    /// An optional string field, with its line.
    pub fn str(&self, key: &str) -> Result<Option<(&str, usize)>, ParseError> {
        match self.get(key) {
            None => Ok(None),
            Some((Value::Str(s), l)) => Ok(Some((s, l))),
            Some((v, l)) => Err(ParseError::at(
                l,
                format!("`{key}` must be a string, got {}", v.type_name()),
            )),
        }
    }

    /// An optional non-negative integer field.
    pub fn u128(&self, key: &str) -> Result<Option<u128>, ParseError> {
        match self.get(key) {
            None => Ok(None),
            Some((Value::Int(n), _)) => Ok(Some(*n)),
            Some((v, l)) => Err(ParseError::at(
                l,
                format!(
                    "`{key}` must be a non-negative integer, got {}",
                    v.type_name()
                ),
            )),
        }
    }

    /// An optional non-negative integer field that fits 64 bits.
    pub fn u64(&self, key: &str) -> Result<Option<u64>, ParseError> {
        let Some(n) = self.u128(key)? else {
            return Ok(None);
        };
        u64::try_from(n).map(Some).map_err(|_| {
            let line = self.get(key).map_or(self.line, |(_, l)| l);
            ParseError::at(line, format!("`{key}` exceeds 64 bits"))
        })
    }

    /// An optional numeric field; integers widen to `f64`.
    pub fn f64(&self, key: &str) -> Result<Option<f64>, ParseError> {
        match self.get(key) {
            None => Ok(None),
            Some((Value::Float(x), _)) => Ok(Some(*x)),
            Some((Value::Int(n), _)) => Ok(Some(*n as f64)),
            Some((v, l)) => Err(ParseError::at(
                l,
                format!("`{key}` must be a number, got {}", v.type_name()),
            )),
        }
    }

    /// A required numeric field; its absence is reported at the header.
    pub fn require_f64(&self, key: &str) -> Result<f64, ParseError> {
        self.f64(key)?
            .ok_or_else(|| ParseError::at(self.line, format!("missing required field `{key}`")))
    }

    /// Reject the first field whose key is not in `allowed`.
    pub fn known_keys(&self, allowed: &[&str]) -> Result<(), ParseError> {
        match self
            .fields
            .iter()
            .find(|(k, _, _)| !allowed.contains(&k.as_str()))
        {
            Some((k, _, l)) => Err(ParseError::at(*l, format!("unknown field `{k}`"))),
            None => Ok(()),
        }
    }
}

/// A parsed document.
#[derive(Debug, Clone, PartialEq)]
pub struct Doc {
    /// Keys before the first section header.
    pub top: Record,
    /// `[name]` sections, in source order, each name once.
    pub tables: Vec<Record>,
    /// `[[name]]` entries of every name, in source order.
    pub arrays: Vec<Record>,
}

/// Where the next `key = value` line goes.
enum Target {
    Top,
    Table(usize),
    Array(usize),
}

/// Parse a document. Syntax errors carry their 1-based line.
pub fn parse(text: &str) -> Result<Doc, ParseError> {
    let mut doc = Doc {
        top: Record::new("", 0),
        tables: Vec::new(),
        arrays: Vec::new(),
    };
    let mut target = Target::Top;
    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            doc.arrays.push(Record::new(name.trim(), lineno));
            target = Target::Array(doc.arrays.len() - 1);
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let name = name.trim();
            if doc.tables.iter().any(|t| t.name == name) {
                return Err(ParseError::at(
                    lineno,
                    format!("duplicate [{name}] section"),
                ));
            }
            doc.tables.push(Record::new(name, lineno));
            target = Target::Table(doc.tables.len() - 1);
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(ParseError::at(
                lineno,
                format!("expected `key = value`, got `{line}`"),
            ));
        };
        let key = key.trim();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(ParseError::at(lineno, format!("invalid key `{key}`")));
        }
        let value = scalar(value, lineno)?;
        let record = match target {
            Target::Top => &mut doc.top,
            Target::Table(i) => &mut doc.tables[i],
            Target::Array(i) => &mut doc.arrays[i],
        };
        record.insert(key.to_string(), value, lineno)?;
    }
    Ok(doc)
}

/// Strip a trailing comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn scalar(text: &str, line: usize) -> Result<Value, ParseError> {
    let t = text.trim();
    if t.is_empty() {
        return Err(ParseError::at(line, "missing value"));
    }
    if let Some(stripped) = t.strip_prefix('"') {
        let Some(inner) = stripped.strip_suffix('"') else {
            return Err(ParseError::at(line, format!("unterminated string {t}")));
        };
        if inner.contains('"') {
            return Err(ParseError::at(line, format!("malformed string {t}")));
        }
        return Ok(Value::Str(inner.to_string()));
    }
    match t {
        "true" => Ok(Value::Bool(true)),
        "false" => Ok(Value::Bool(false)),
        _ => Value::number(&t.replace('_', ""))
            .ok_or_else(|| ParseError::at(line, format!("cannot parse value `{t}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const DOC: &str = r#"
# a representative document
seed = 42

[backoff]
base_ns = 500
factor = 2.0          # inline comment
cap_ns = 8_000

[[event]]
kind = "latency # not a comment"
start_ns = 340282366920938463463374607431768211455
enabled = true

[[tier]]
name = "dram"
factor = -1.5
"#;

    #[test]
    fn sections_records_and_scalars() {
        let doc = parse(DOC).unwrap();
        assert_eq!(doc.top.line, 0);
        assert_eq!(doc.top.u64("seed").unwrap(), Some(42));
        let backoff = &doc.tables[0];
        assert_eq!((backoff.name.as_str(), backoff.line), ("backoff", 5));
        assert_eq!(backoff.f64("base_ns").unwrap(), Some(500.0));
        assert_eq!(backoff.u64("cap_ns").unwrap(), Some(8_000));
        assert_eq!(backoff.get("factor"), Some((&Value::Float(2.0), 7)));
        let names: Vec<&str> = doc.arrays.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["event", "tier"]);
        let event = &doc.arrays[0];
        assert_eq!(
            event.str("kind").unwrap(),
            Some(("latency # not a comment", 11))
        );
        assert_eq!(event.u128("start_ns").unwrap(), Some(u128::MAX));
        assert_eq!(event.get("enabled"), Some((&Value::Bool(true), 13)));
        assert_eq!(doc.arrays[1].require_f64("factor").unwrap(), -1.5);
    }

    #[test]
    fn accessor_errors_carry_the_field_line() {
        let doc = parse(DOC).unwrap();
        let event = &doc.arrays[0];
        let err = event.u64("start_ns").unwrap_err();
        assert_eq!(
            (err.line, err.msg.as_str()),
            (12, "`start_ns` exceeds 64 bits")
        );
        let err = event.f64("kind").unwrap_err();
        assert_eq!(err.line, 11);
        assert!(err.msg.contains("must be a number, got a string"), "{err}");
        let err = event.str("enabled").unwrap_err();
        assert!(err.msg.contains("must be a string, got a boolean"), "{err}");
        let err = doc.arrays[1].u64("factor").unwrap_err();
        assert!(
            err.msg.contains("non-negative integer, got a float"),
            "{err}"
        );
        let err = event.require_f64("missing").unwrap_err();
        assert_eq!(err.line, 10, "missing fields point at the header");
        let err = doc.tables[0]
            .known_keys(&["base_ns", "factor"])
            .unwrap_err();
        assert_eq!((err.line, err.msg.as_str()), (8, "unknown field `cap_ns`"));
        assert!(event.known_keys(&["kind", "start_ns", "enabled"]).is_ok());
    }

    #[test]
    fn syntax_errors_carry_their_line() {
        let cases = [
            ("a = 1\nbogus line\n", 2, "expected `key = value`"),
            ("a = 1\na = 2\n", 2, "duplicate key `a`"),
            ("[t]\n[u]\n\n[t]\n", 4, "duplicate [t] section"),
            ("x = \n", 1, "missing value"),
            ("x = \"open\n", 1, "unterminated string"),
            ("x = \"a\"b\"\n", 1, "malformed string"),
            ("\n\nx = 1e999\n", 3, "cannot parse value"),
            ("x = nope\n", 1, "cannot parse value `nope`"),
            ("bad key = 1\n", 1, "invalid key `bad key`"),
        ];
        for (text, line, want) in cases {
            let err = parse(text).unwrap_err();
            assert_eq!(err.line, line, "{text:?}: {err}");
            assert!(err.msg.contains(want), "{text:?}: {err}");
        }
    }

    #[test]
    fn numbers_type_alike_in_both_plan_formats() {
        assert_eq!(Value::number("7"), Some(Value::Int(7)));
        assert_eq!(Value::number("-7"), Some(Value::Float(-7.0)));
        assert_eq!(Value::number("2.5e3"), Some(Value::Float(2500.0)));
        assert_eq!(Value::number("1e999"), None);
        assert_eq!(Value::number("x"), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(0u8..=255, 0..96)) {
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn errors_report_the_line_of_the_fault(before in 0usize..16, after in 0usize..16, bad in 0usize..4) {
            let fault = ["x = @", "k = 1 = 2", "y = \"open", "= 1"][bad];
            let text = format!("{}{fault}\n{}", "# pad\n".repeat(before), "z = 1\n".repeat(after));
            prop_assert_eq!(parse(&text).unwrap_err().line, before + 1);
        }
    }
}
