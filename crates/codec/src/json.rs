//! The JSON reader and the string escaper every JSON writer uses.
//!
//! Numbers keep their raw token ([`Json::Num`]): an `f64` detour would
//! corrupt integers above 2^53, such as the distinct-counter bitmap
//! words in a state dump or the FNV checksums in a perf trajectory.
//! Strings are scanned in linear time, duplicate object keys are
//! rejected, and containers may nest at most [`MAX_DEPTH`] deep, so a
//! hostile frame cannot exhaust the stack.
//!
//! The byte-level scanners ([`skip_ws`], [`scan_string`],
//! [`scan_number`], [`scan_value`]) are public for decoders that walk a
//! document without building the whole tree; their errors are plain
//! messages, and [`parse`] adds the line.

use crate::ParseError;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Deepest container nesting the reader accepts. Nothing the workspace
/// writes nests beyond single digits.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, as its raw token.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required object member; `what` names the object in the error.
    pub fn field(&self, key: &str, what: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("{what}: missing field `{key}`"))
    }

    /// The object members, or an error naming `what`.
    pub fn obj(&self, what: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(members) => Ok(members),
            _ => Err(format!("{what} must be an object")),
        }
    }

    /// The array elements, or an error naming `what`.
    pub fn arr(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err(format!("{what} must be an array")),
        }
    }

    /// The string value, or an error naming `what`.
    pub fn str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(format!("{what} must be a string")),
        }
    }

    /// The value as a `u64`, parsed from the raw token (exact).
    pub fn u64(&self, what: &str) -> Result<u64, String> {
        let raw = self.num(what)?;
        raw.parse()
            .map_err(|_| format!("{what} must be an unsigned integer, got {raw}"))
    }

    /// The value as a `u128`, parsed from the raw token (exact).
    pub fn u128(&self, what: &str) -> Result<u128, String> {
        let raw = self.num(what)?;
        raw.parse()
            .map_err(|_| format!("{what} must be an unsigned integer, got {raw}"))
    }

    /// The value as an `f64`.
    pub fn f64(&self, what: &str) -> Result<f64, String> {
        let raw = self.num(what)?;
        raw.parse()
            .map_err(|_| format!("{what} must be a number, got {raw}"))
    }

    fn num(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Num(raw) => Ok(raw),
            _ => Err(format!("{what} must be a number")),
        }
    }
}

/// Parse exactly one JSON value spanning the whole input.
pub fn parse(src: &str) -> Result<Json, ParseError> {
    parse_inner(src, None)
}

/// [`parse`], also returning the 1-based line of every value in
/// document (pre-)order: the root, then each object member (at its key)
/// or array element, each followed by its own children. A schema reader
/// walking the tree in the same order can tag every member with its line.
pub fn parse_with_lines(src: &str) -> Result<(Json, Vec<usize>), ParseError> {
    let mut starts = Vec::new();
    let value = parse_inner(src, Some(&mut starts))?;
    // Pre-order starts never decrease, so one sweep turns them into lines.
    let bytes = src.as_bytes();
    let (mut at, mut line) = (0, 1);
    for start in &mut starts {
        line += bytes.get(at..*start).map_or(0, newlines);
        at = *start;
        *start = line;
    }
    Ok((value, starts))
}

fn parse_inner(src: &str, mut starts: Option<&mut Vec<usize>>) -> Result<Json, ParseError> {
    let bytes = src.as_bytes();
    let mut pos = 0;
    skip_ws(bytes, &mut pos);
    if let Some(s) = starts.as_deref_mut() {
        s.push(pos);
    }
    let parsed = value(src, &mut pos, 0, starts).and_then(|v| {
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Ok(v)
        } else {
            Err(format!("trailing input at byte {pos}"))
        }
    });
    parsed.map_err(|msg| ParseError {
        line: 1 + bytes.get(..pos).map_or(0, newlines),
        msg,
    })
}

fn newlines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// Advance `*pos` past JSON whitespace.
#[inline]
pub fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parse the value at `*pos` (after optional whitespace), leaving `*pos`
/// past it. `depth` is the number of containers already open around it.
pub fn scan_value(src: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    value(src, pos, depth, None)
}

fn value(
    src: &str,
    pos: &mut usize,
    depth: usize,
    starts: Option<&mut Vec<usize>>,
) -> Result<Json, String> {
    let bytes = src.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        )),
        Some(b'{') => object(src, pos, depth + 1, starts),
        Some(b'[') => array(src, pos, depth + 1, starts),
        Some(b'"') => {
            let mut out = String::new();
            scan_string(src, pos, Some(&mut out))?;
            Ok(Json::Str(out))
        }
        Some(b't') => literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => literal(bytes, pos, "null", Json::Null),
        Some(_) => scan_number(src, pos).map(|raw| Json::Num(raw.to_string())),
    }
}

fn literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

/// The raw token of the number at `*pos`: an optional `-`, then a digit,
/// and the whole token must parse as an `f64`.
#[inline]
pub fn scan_number<'a>(src: &'a str, pos: &mut usize) -> Result<&'a str, String> {
    let bytes = src.as_bytes();
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    if !bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        return Err(if *pos == start {
            format!("unexpected character at byte {start}")
        } else {
            format!("invalid number at byte {start}")
        });
    }
    // A plain digit run is always a valid float; skip the float parse.
    let mut plain = *pos == start;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => {}
            b'.' | b'e' | b'E' | b'+' | b'-' => plain = false,
            _ => break,
        }
        *pos += 1;
    }
    plain &= *pos > start;
    // Every byte taken is ASCII, so both ends are char boundaries.
    let raw = &src[start..*pos];
    if !plain && raw.parse::<f64>().is_err() {
        return Err(format!("invalid number at byte {start}"));
    }
    Ok(raw)
}

/// Walk the string literal whose opening quote is at `*pos`, leaving
/// `*pos` past its closing quote. With `out`, the decoded text is
/// appended there: each run between escapes is copied in one go, so the
/// walk is linear in the literal's length. Without `out`, it only
/// validates. Returns whether the literal holds any escape.
#[inline]
pub fn scan_string(
    src: &str,
    pos: &mut usize,
    mut out: Option<&mut String>,
) -> Result<bool, String> {
    let bytes = src.as_bytes();
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut escaped = false;
    loop {
        let run = *pos;
        *pos += bytes[run..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(bytes.len() - run);
        if let Some(out) = out.as_deref_mut() {
            // The run starts after and ends at an ASCII byte (or the end
            // of the input), so both ends are char boundaries.
            out.push_str(&src[run..*pos]);
        }
        let c = match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(escaped);
            }
            Some(_) => {
                *pos += 1;
                escaped = true;
                match bytes.get(*pos) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'n') => '\n',
                    Some(b't') => '\t',
                    Some(b'r') => '\r',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                            .ok_or("invalid \\u escape")?;
                        let code = hex.iter().fold(0, |code, &h| {
                            code * 16 + char::from(h).to_digit(16).unwrap_or(0)
                        });
                        *pos += 4;
                        char::from_u32(code).unwrap_or('\u{fffd}')
                    }
                    _ => return Err("invalid escape".into()),
                }
            }
        };
        if let Some(out) = out.as_deref_mut() {
            out.push(c);
        }
        *pos += 1;
    }
}

fn array(
    src: &str,
    pos: &mut usize,
    depth: usize,
    mut starts: Option<&mut Vec<usize>>,
) -> Result<Json, String> {
    let bytes = src.as_bytes();
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        skip_ws(bytes, pos);
        if let Some(s) = starts.as_deref_mut() {
            s.push(*pos);
        }
        items.push(value(src, pos, depth, starts.as_deref_mut())?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn object(
    src: &str,
    pos: &mut usize,
    depth: usize,
    mut starts: Option<&mut Vec<usize>>,
) -> Result<Json, String> {
    let bytes = src.as_bytes();
    *pos += 1; // '{'
    let mut members: Vec<(String, Json)> = Vec::new();
    // Keys are also kept sorted so the duplicate check stays O(log n): a
    // frame of 100k distinct keys would otherwise take seconds.
    let mut seen = BTreeSet::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected member name at byte {pos}"));
        }
        if let Some(s) = starts.as_deref_mut() {
            s.push(*pos);
        }
        let mut key = String::new();
        scan_string(src, pos, Some(&mut key))?;
        if !seen.insert(key.clone()) {
            return Err(format!("duplicate key `{key}`"));
        }
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        let value = value(src, pos, depth, starts.as_deref_mut())?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

/// Escape a string for embedding between the quotes of a JSON string.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn u128_tokens_and_accessor_errors() {
        let v = parse("{\"c\": 340282366920938463463374607431768211455}").unwrap();
        let c = v.field("c", "doc").unwrap();
        assert_eq!(c.u128("c").unwrap(), u128::MAX);
        assert_eq!(
            c.u64("c").unwrap_err(),
            "c must be an unsigned integer, got 340282366920938463463374607431768211455"
        );
        assert_eq!(v.field("d", "doc").unwrap_err(), "doc: missing field `d`");
        assert_eq!(c.str("c").unwrap_err(), "c must be a string");
    }

    #[test]
    fn short_escapes_decode() {
        let v = parse(r#""\b\f\/\t\r""#).unwrap();
        assert_eq!(v, Json::Str("\u{8}\u{c}/\t\r".to_string()));
    }

    #[test]
    fn numbers_start_with_a_minus_or_a_digit() {
        for ok in ["0", "-1", "1.5e-3", "-0.25E+2"] {
            assert_eq!(parse(ok).unwrap(), Json::Num(ok.to_string()));
        }
        for (bad, msg) in [
            ("+1", "unexpected character at byte 0"),
            (".5", "unexpected character at byte 0"),
            ("+.5", "unexpected character at byte 0"),
            ("[1,@]", "unexpected character at byte 3"),
            ("-.5", "invalid number at byte 0"),
            ("-", "invalid number at byte 0"),
            ("1e", "invalid number at byte 0"),
        ] {
            assert_eq!(parse(bad).unwrap_err().msg, msg, "{bad}");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(
            parse(r#""\u00e9\u00C9""#).unwrap(),
            Json::Str("\u{e9}\u{c9}".into())
        );
        for bad in [
            r#""\u+123""#,
            r#""\u-123""#,
            r#""\u12g4""#,
            r#""\u12""#,
            r#""\u"#,
        ] {
            assert_eq!(parse(bad).unwrap_err().msg, "invalid \\u escape", "{bad}");
        }
    }

    #[test]
    fn member_lines_come_in_document_order() {
        let doc = "{\n\"a\": 1,\n\"b\": [\n  {\"c\": 2},\n  3\n],\n\"d\": {}\n}";
        let (v, lines) = parse_with_lines(doc).unwrap();
        assert!(v.get("d").is_some());
        // root, a, b, b[0], b[0].c, b[1], d
        assert_eq!(lines, vec![1, 2, 3, 4, 4, 5, 7]);
    }

    #[test]
    fn nesting_is_capped_with_a_located_error() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!(
            "\n{}{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let err = parse(&deep).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("nesting deeper than 128"), "{err}");
        // The frame that used to overflow the stack.
        let frame = format!(
            "{{\"v\":1,\"x\":{}{}}}",
            "[".repeat(50_000),
            "]".repeat(50_000)
        );
        assert!(parse(&frame).unwrap_err().msg.contains("nesting"));
        let objects = "{\"k\":".repeat(50_000);
        assert!(parse(&objects).unwrap_err().msg.contains("nesting"));
    }

    #[test]
    fn wide_objects_parse_in_near_linear_time() {
        let keys: Vec<String> = (0..100_000).map(|i| format!("\"k{i}\":0")).collect();
        let started = std::time::Instant::now();
        let wide = format!("{{{}}}", keys.join(","));
        assert_eq!(parse(&wide).unwrap().obj("o").unwrap().len(), 100_000);
        let dup = format!("{{{},\"k99\":1}}", keys.join(","));
        assert_eq!(parse(&dup).unwrap_err().msg, "duplicate key `k99`");
        let early = format!("{{{},\"k3\":1}}", keys[..20].join(","));
        assert_eq!(parse(&early).unwrap_err().msg, "duplicate key `k3`");
        assert!(
            started.elapsed().as_secs() < 5,
            "took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn escape_handles_controls() {
        assert_eq!(
            escape("\u{1}\t\r\u{8}\u{c}\u{1f}"),
            "\\u0001\\t\\r\\u0008\\u000c\\u001f"
        );
        assert_eq!(escape("caf\u{e9} \u{7f}"), "caf\u{e9} \u{7f}");
    }

    /// Fragments that build syntactically interesting inputs.
    const TOKENS: [&str; 24] = [
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        " ",
        "\n",
        "\"",
        "\\",
        "\"k\"",
        "1",
        "-",
        "1.5e3",
        "e",
        "null",
        "tru",
        "\"\\u12\"",
        "\"\\q\"",
        "\u{e9}",
        "\"\\u00e9\"",
        "18446744073709551616",
        "[[[[",
        "{\"a\":",
    ];

    fn string_of(codes: &[u32]) -> String {
        codes.iter().filter_map(|&c| char::from_u32(c)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(0u8..=255, 0..96)) {
            let input = String::from_utf8_lossy(&bytes);
            let _ = parse(&input);
            let _ = parse_with_lines(&input);
        }

        #[test]
        fn never_panics_on_token_soup(
            tokens in proptest::collection::vec(0usize..TOKENS.len(), 0..64),
            repeat in 1usize..80,
        ) {
            let input: String = tokens.iter().map(|&t| TOKENS[t]).collect::<String>().repeat(repeat);
            if let Err(e) = parse(&input) {
                // The reported line exists in the input.
                prop_assert!(e.line >= 1 && e.line <= 1 + input.matches('\n').count());
            }
        }

        #[test]
        fn escape_round_trips(codes in proptest::collection::vec(
            prop_oneof![0u32..0x20, 0x20u32..0x80, 0x80u32..0x11_0000],
            0..48,
        )) {
            let s = string_of(&codes);
            let doc = format!("\"{}\"", escape(&s));
            prop_assert_eq!(parse(&doc).unwrap(), Json::Str(s));
        }

        #[test]
        fn integers_round_trip_exactly(hi in 0u64..=u64::MAX, lo in 0u64..=u64::MAX) {
            let wide = (u128::from(hi) << 64) | u128::from(lo);
            let v = parse(&format!("[{lo},{wide}]")).unwrap();
            let items = v.arr("v").unwrap();
            prop_assert_eq!(items[0].u64("lo").unwrap(), lo);
            prop_assert_eq!(items[1].u128("wide").unwrap(), wide);
        }

        #[test]
        fn errors_report_the_line_of_the_fault(before in 0usize..12, after in 0usize..12) {
            let doc = format!("{{{}\"a\": @{}}}", "\n".repeat(before), "\n".repeat(after));
            prop_assert_eq!(parse(&doc).unwrap_err().line, before + 1);
        }
    }
}
