//! The codecs every Mnemo crate reads and writes through.
//!
//! The workspace builds offline with no `serde_json` or `toml`, so
//! fault plans, hierarchy specs, protocol frames, state dumps, perf
//! trajectories, telemetry and lint reports share these hand-rolled
//! implementations:
//!
//! * [`json`] — a JSON reader that keeps numbers as raw tokens (so
//!   `u64`/`u128` values round-trip exactly), rejects duplicate keys and
//!   nesting deeper than [`json::MAX_DEPTH`], plus the one string
//!   escaper every JSON writer uses;
//! * [`toml`] — the TOML subset plan and hierarchy files use: a
//!   top-level record, `[table]`s and `[[array]]` entries of
//!   line-tagged scalars;
//! * [`decimal`] — exact fixed-precision formatting: the bytes of
//!   `format!("{:.3}", v)` and `n.to_string()` from integer arithmetic,
//!   for the estimate-curve CSV;
//! * [`fnv64`] / [`fnv64_chain`] — FNV-1a 64, the checksum and
//!   deterministic hash of the workspace.
//!
//! Every reader is total: malformed input of any shape comes back as a
//! [`ParseError`] carrying the 1-based line, never as a panic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decimal;
pub mod json;
pub mod toml;

/// FNV-1a 64 offset basis: the hash of the empty input.
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over raw bytes.
#[inline]
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_chain(FNV64_OFFSET, bytes)
}

/// Continue an FNV-1a 64 hash over more bytes:
/// `fnv64_chain(fnv64(a), b) == fnv64(a ++ b)`.
#[inline]
pub fn fnv64_chain(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(FNV64_PRIME);
    }
    hash
}

/// Continue an FNV-1a 64 hash over one 64-bit word taken whole rather
/// than byte by byte: a fast fingerprint of integer sequences, not the
/// reference byte function.
#[inline]
pub fn fnv64_word(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV64_PRIME)
}

/// A syntax or schema error at a 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending input; 0 for document-level errors.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl ParseError {
    /// An error at `line`.
    pub(crate) fn at(line: usize, msg: impl Into<String>) -> ParseError {
        ParseError {
            line,
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_is_the_reference_function() {
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
        assert_ne!(fnv64(b"abc"), fnv64(b"abd"));
    }

    #[test]
    fn chaining_equals_hashing_the_concatenation() {
        let (a, b) = (&b"seq-le-bytes"[..], &b"payload"[..]);
        assert_eq!(fnv64_chain(fnv64(a), b), fnv64(&[a, b].concat()));
        assert_eq!(fnv64_chain(FNV64_OFFSET, a), fnv64(a));
    }
}
