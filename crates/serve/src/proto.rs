//! The serve wire protocol: versioned JSONL requests, deterministic
//! JSONL response rows, and length-delimited socket framing.
//!
//! Every request is one JSON object. Schema version 1:
//!
//! * ingest — `{"v":1,"tenant":"alpha","key":17,"op":"read","bytes":128}`
//! * advise — `{"v":1,"cmd":"advise","tenant":"alpha"}`
//! * status — `{"v":1,"cmd":"status"}`
//! * snapshot — `{"v":1,"cmd":"snapshot"}`
//! * follow — `{"v":1,"cmd":"follow"}` (socket clients only: subscribe
//!   to every emitted row)
//! * shutdown — `{"v":1,"cmd":"shutdown"}`
//!
//! On stdin and in `--replay` files requests are newline-framed; on the
//! Unix socket both directions use 4-byte little-endian length prefixes
//! ([`encode_frame`] / [`FrameBuffer`]), so a row containing a newline
//! can never split a message.
//!
//! Response rows are also single JSON objects (`"row"` keyed), rendered
//! with [`mnemo_telemetry::export::fmt_f64`] so float fields are
//! shortest-roundtrip and the whole transcript is byte-stable across
//! worker counts and replays.

use mnemo::advisor::{DegradedReason, ResilientRecommendation};
use mnemo_codec::json::{self, escape, scan_number, scan_string, skip_ws};
use mnemo_stream::Drift;
use mnemo_telemetry::export::fmt_f64;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::io::Read;
use ycsb::Op;

/// The protocol schema version this build speaks.
pub const PROTO_VERSION: u64 = 1;

/// Frames larger than this are rejected as protocol errors rather than
/// buffered (a corrupt length prefix must not allocate gigabytes).
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Typed serve-layer error. [`ServeError::exit_code`] maps onto the CLI
/// exit-code contract: usage 2, I/O 3, protocol/parse 4, engine 5.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Invalid invocation or configuration.
    Usage(String),
    /// The environment failed us: socket, file, or stream I/O.
    Io(String),
    /// A request violated the wire protocol; `line` is 1-based within
    /// the input (or the frame ordinal on a socket).
    Proto {
        /// 1-based input line / frame ordinal.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The advising engine failed.
    Engine(String),
    /// Persisted bytes (a state dump or journal segment) failed
    /// validation; `line` is the 1-based record ordinal within `path`.
    Corrupt {
        /// The file that failed validation.
        path: String,
        /// 1-based record ordinal inside the file (0 = header).
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl ServeError {
    /// Process exit code for this error class.
    pub fn exit_code(&self) -> i32 {
        match self {
            ServeError::Usage(_) => 2,
            ServeError::Io(_) => 3,
            ServeError::Proto { .. } => 4,
            ServeError::Engine(_) => 5,
            ServeError::Corrupt { .. } => 4,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Usage(m) => write!(f, "usage: {m}"),
            ServeError::Io(m) => write!(f, "io: {m}"),
            ServeError::Proto { line, reason } => write!(f, "protocol (line {line}): {reason}"),
            ServeError::Engine(m) => write!(f, "engine: {m}"),
            ServeError::Corrupt { path, line, reason } => {
                write!(f, "corrupt: {path} record {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// One ingest event, schema v1.
#[derive(Debug, Clone, PartialEq)]
pub struct EventV1 {
    /// Tenant the event belongs to.
    pub tenant: String,
    /// Accessed key.
    pub key: u64,
    /// Operation kind.
    pub op: Op,
    /// Record size in bytes.
    pub bytes: u64,
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Feed one access event into a tenant's profiler.
    Ingest(EventV1),
    /// Answer with a fresh advise row for the tenant, immediately.
    Advise {
        /// Tenant to advise.
        tenant: String,
    },
    /// Answer with a daemon status row.
    Status,
    /// Answer with a merged telemetry snapshot row.
    Snapshot,
    /// Subscribe this connection to every emitted row.
    Follow,
    /// Stop the daemon.
    Shutdown,
}

// ---------------------------------------------------------------------
// Request decoding
// ---------------------------------------------------------------------

fn proto_err(line: usize, reason: impl Into<String>) -> ServeError {
    ServeError::Proto {
        line,
        reason: reason.into(),
    }
}

/// The keys a request may carry, in [`Members::known`] slot order.
const KEYS: [&str; 6] = ["v", "cmd", "tenant", "key", "op", "bytes"];
const V: usize = 0;
const CMD: usize = 1;
const TENANT: usize = 2;
const KEY: usize = 3;
const OP: usize = 4;
const BYTES: usize = 5;

/// One top-level member value, borrowed from the request.
#[derive(Debug)]
enum Val<'a> {
    /// A number, as its raw token.
    Num(&'a str),
    /// A string, decoded (borrowed unless it holds escapes).
    Str(Cow<'a, str>),
    /// `null`, a boolean, an array or an object.
    Other,
}

impl<'a> Val<'a> {
    fn u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Val::Num(raw) => raw
                .parse::<u64>()
                .map_err(|_| format!("{what} must be an unsigned integer, got {raw}")),
            _ => Err(format!("{what} must be a number")),
        }
    }

    fn str(&self, what: &str) -> Result<&str, String> {
        match self {
            Val::Str(s) => Ok(s),
            _ => Err(format!("{what} must be a string")),
        }
    }
}

/// A request object's members, scanned in one pass without building a
/// tree: each protocol key's value and member index, plus the first
/// other key. The scan validates the whole input exactly as
/// [`json::parse`] does and fails with the same error.
#[derive(Debug, Default)]
struct Members<'a> {
    known: [Option<(usize, Val<'a>)>; KEYS.len()],
    unknown: Option<(usize, Cow<'a, str>)>,
}

impl<'a> Members<'a> {
    fn scan(input: &'a str) -> Result<Members<'a>, String> {
        let bytes = input.as_bytes();
        let mut members = Members::default();
        let mut pos = 0;
        skip_ws(bytes, &mut pos);
        if bytes.get(pos) != Some(&b'{') {
            // Not an object, so no members; any syntax error still wins.
            json::parse(input).map_err(|e| e.msg)?;
            return Ok(members);
        }
        pos += 1;
        skip_ws(bytes, &mut pos);
        if bytes.get(pos) == Some(&b'}') {
            pos += 1;
        } else {
            // Other keys are remembered only to reject duplicates, and
            // only a request that is about to be refused has any.
            let mut others = BTreeSet::new();
            for index in 0.. {
                skip_ws(bytes, &mut pos);
                if bytes.get(pos) != Some(&b'"') {
                    return Err(format!("expected member name at byte {pos}"));
                }
                let key = scan_text(input, &mut pos)?;
                let slot = KEYS.iter().position(|k| *k == key);
                let duplicate = match slot {
                    Some(slot) => members.known[slot].is_some(),
                    None => !others.insert(key.clone()),
                };
                if duplicate {
                    return Err(format!("duplicate key `{key}`"));
                }
                skip_ws(bytes, &mut pos);
                if bytes.get(pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                pos += 1;
                let value = scan_value(input, &mut pos)?;
                match slot {
                    Some(slot) => members.known[slot] = Some((index, value)),
                    None => {
                        members.unknown.get_or_insert((index, key));
                    }
                }
                skip_ws(bytes, &mut pos);
                match bytes.get(pos) {
                    Some(b',') => pos += 1,
                    Some(b'}') => {
                        pos += 1;
                        break;
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(members)
    }

    fn get(&self, slot: usize) -> Option<&Val<'a>> {
        self.known[slot].as_ref().map(|(_, v)| v)
    }

    /// Reject the first member, in source order, whose key is not in
    /// `allowed` (slots of [`KEYS`]).
    fn check_keys(&self, allowed: &[usize]) -> Result<(), String> {
        let mut first = self.unknown.as_ref().map(|(i, k)| (*i, k.as_ref()));
        for (slot, member) in self.known.iter().enumerate() {
            if let Some((i, _)) = member {
                if !allowed.contains(&slot) && first.is_none_or(|(j, _)| *i < j) {
                    first = Some((*i, KEYS[slot]));
                }
            }
        }
        match first {
            Some((_, key)) => Err(format!("unknown key `{key}`")),
            None => Ok(()),
        }
    }
}

/// Scan a string literal, copying it only when it holds escapes.
fn scan_text<'a>(input: &'a str, pos: &mut usize) -> Result<Cow<'a, str>, String> {
    let at = *pos;
    let escaped = scan_string(input, pos, None)?;
    // Both ends are quote bytes, hence char boundaries.
    let body = &input[at + 1..*pos - 1];
    if !escaped {
        return Ok(Cow::Borrowed(body));
    }
    let mut text = String::new();
    scan_string(input, &mut { at }, Some(&mut text))?;
    Ok(Cow::Owned(text))
}

/// A top-level member's value: scalars stay borrowed; nested containers,
/// which no request key accepts, are parsed (one level below the
/// request object) only to validate them.
fn scan_value<'a>(input: &'a str, pos: &mut usize) -> Result<Val<'a>, String> {
    let bytes = input.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'"') => scan_text(input, pos).map(Val::Str),
        Some(b'{' | b'[' | b't' | b'f' | b'n') => {
            json::scan_value(input, pos, 1).map(|_| Val::Other)
        }
        Some(_) => scan_number(input, pos).map(Val::Num),
        None => Err("unexpected end of input".into()),
    }
}

/// Decode one request line. `line` is the 1-based input line (or frame
/// ordinal), reported in protocol errors.
pub fn parse_request(input: &str, line: usize) -> Result<Request, ServeError> {
    let err = |e: String| proto_err(line, e);
    let members = Members::scan(input).map_err(err)?;
    let v = members
        .get(V)
        .ok_or_else(|| proto_err(line, "missing `v` (schema version)"))?
        .u64("`v`")
        .map_err(err)?;
    if v != PROTO_VERSION {
        return Err(proto_err(
            line,
            format!("unsupported schema version {v} (this build speaks {PROTO_VERSION})"),
        ));
    }
    if let Some(cmd) = members.get(CMD) {
        let cmd = cmd.str("`cmd`").map_err(err)?;
        return match cmd {
            "advise" => {
                members.check_keys(&[V, CMD, TENANT]).map_err(err)?;
                let tenant = members
                    .get(TENANT)
                    .ok_or_else(|| proto_err(line, "`advise` needs a `tenant`"))?
                    .str("`tenant`")
                    .map_err(err)?;
                if tenant.is_empty() {
                    return Err(proto_err(line, "`tenant` must not be empty"));
                }
                Ok(Request::Advise {
                    tenant: tenant.to_string(),
                })
            }
            "status" | "snapshot" | "follow" | "shutdown" => {
                members.check_keys(&[V, CMD]).map_err(err)?;
                Ok(match cmd {
                    "status" => Request::Status,
                    "snapshot" => Request::Snapshot,
                    "follow" => Request::Follow,
                    _ => Request::Shutdown,
                })
            }
            other => Err(proto_err(line, format!("unknown cmd `{other}`"))),
        };
    }
    // No `cmd`: an ingest event.
    members
        .check_keys(&[V, TENANT, KEY, OP, BYTES])
        .map_err(err)?;
    let tenant = members
        .get(TENANT)
        .ok_or_else(|| proto_err(line, "event needs a `tenant`"))?
        .str("`tenant`")
        .map_err(err)?;
    if tenant.is_empty() {
        return Err(proto_err(line, "`tenant` must not be empty"));
    }
    let key = members
        .get(KEY)
        .ok_or_else(|| proto_err(line, "event needs a `key`"))?
        .u64("`key`")
        .map_err(err)?;
    let op = match members
        .get(OP)
        .ok_or_else(|| proto_err(line, "event needs an `op`"))?
        .str("`op`")
        .map_err(err)?
    {
        "read" => Op::Read,
        "update" | "write" => Op::Update,
        other => {
            return Err(proto_err(
                line,
                format!("unknown op `{other}` (read|update)"),
            ))
        }
    };
    let bytes = match members.get(BYTES) {
        Some(b) => b.u64("`bytes`").map_err(err)?,
        None => 0,
    };
    Ok(Request::Ingest(EventV1 {
        tenant: tenant.to_string(),
        key,
        op,
        bytes,
    }))
}

// ---------------------------------------------------------------------
// Response rows
// ---------------------------------------------------------------------

/// Stable wire label for a drift trigger.
pub fn drift_json(drift: &Drift) -> &'static str {
    match drift {
        Drift::Initial => "initial",
        Drift::Theta { .. } => "theta",
        Drift::HotSet { .. } => "hot_set",
        Drift::Stable => "stable",
    }
}

/// `null` or the stable wire label for a degradation reason.
pub fn degraded_json(degraded: &Option<DegradedReason>) -> &'static str {
    match degraded {
        None => "null",
        Some(DegradedReason::SloClamped { .. }) => "\"slo_clamped\"",
        Some(DegradedReason::SloUnattainable { .. }) => "\"slo_unattainable\"",
        Some(DegradedReason::EmptyCurve) => "\"empty_curve\"",
    }
}

/// One advise row: emitted at a tenant's drift-epoch boundary, or in
/// response to an `advise` command. `at_event` counts the *tenant's own*
/// profiled events, so a tenant's advise rows are invariant under other
/// tenants' traffic.
pub fn advise_row(
    tenant: &str,
    at_event: u64,
    trigger: &Drift,
    resilient: &ResilientRecommendation,
) -> String {
    let r = &resilient.recommendation;
    format!(
        concat!(
            "{{\"v\":1,\"row\":\"advise\",\"tenant\":\"{}\",\"at_event\":{},",
            "\"trigger\":\"{}\",\"prefix\":{},\"fast_bytes\":{},\"fast_ratio\":{},",
            "\"cost_reduction\":{},\"est_slowdown\":{},\"degraded\":{}}}"
        ),
        escape(tenant),
        at_event,
        drift_json(trigger),
        r.prefix,
        r.fast_bytes,
        fmt_f64(r.fast_ratio),
        fmt_f64(r.cost_reduction),
        fmt_f64(r.est_slowdown),
        degraded_json(&resilient.degraded),
    )
}

/// One re-plan row: the shared-capacity grant a tenant received at a
/// scheduler epoch. Carries the *global* epoch: re-planning is a
/// cross-tenant decision and is excluded from per-tenant isolation.
pub fn replan_row(
    epoch: u64,
    tenant: &str,
    fast_bytes: u64,
    budget_bytes: u64,
    est_slowdown: f64,
) -> String {
    format!(
        concat!(
            "{{\"v\":1,\"row\":\"replan\",\"epoch\":{},\"tenant\":\"{}\",",
            "\"fast_bytes\":{},\"budget_bytes\":{},\"est_slowdown\":{}}}"
        ),
        epoch,
        escape(tenant),
        fast_bytes,
        budget_bytes,
        fmt_f64(est_slowdown),
    )
}

/// One crash row: a tenant-scoped shard crash took effect; the tenant's
/// profiler was cold-reset and its ingest drops until `until_ns`.
pub fn crash_row(tenant: &str, at_ns: u128, until_ns: u128) -> String {
    format!(
        "{{\"v\":1,\"row\":\"crash\",\"tenant\":\"{}\",\"at_ns\":{},\"until_ns\":{}}}",
        escape(tenant),
        at_ns,
        until_ns,
    )
}

/// One error row (unknown tenant, rejected admission, …). Kept as a row
/// rather than a hard error so a daemon serving many clients degrades
/// per-request instead of dying.
pub fn error_row(reason: &str) -> String {
    format!(
        "{{\"v\":1,\"row\":\"error\",\"reason\":\"{}\"}}",
        escape(reason)
    )
}

// ---------------------------------------------------------------------
// Socket framing
// ---------------------------------------------------------------------

/// Frame a payload for the socket: 4-byte little-endian length prefix.
pub fn encode_frame(payload: &str) -> Vec<u8> {
    let bytes = payload.as_bytes();
    let mut out = Vec::with_capacity(4 + bytes.len());
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
    out
}

/// Free space [`FrameBuffer::read_from`] asks for before each read.
const READ_CHUNK: usize = 16 * 1024;

/// Incremental decoder for length-prefixed frames arriving in arbitrary
/// chunks.
///
/// Popping a frame only advances a read cursor. The consumed prefix is
/// reclaimed when new bytes need its room, by moving the unconsumed
/// backlog to the front, and the storage doubles only when that is not
/// enough. The capacity therefore stays below twice the largest backlog
/// plus the largest single append (or 16 KiB for a read): bounded by
/// the peer's outstanding bytes, never by uptime.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    /// Initialised storage; `buf[start..end]` is the unconsumed backlog.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Make at least `n` bytes free after the backlog.
    fn reserve(&mut self, n: usize) {
        if self.buf.len() - self.end >= n {
            return;
        }
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() - self.end < n {
            let len = (2 * self.buf.len()).max(self.end + n);
            self.buf.reserve_exact(len - self.buf.len());
            self.buf.resize(len, 0);
        }
    }

    /// Append raw bytes from the wire.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.reserve(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// Read once from `src` straight into the buffer, offering it at
    /// least 16 KiB of room. Returns what `read` returned:
    /// `Ok(0)` is the end of the stream.
    pub fn read_from(&mut self, src: &mut impl Read) -> std::io::Result<usize> {
        self.reserve(READ_CHUNK);
        let n = src.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Pop the next complete frame, if one is buffered. `frame_no` is
    /// reported in protocol errors (oversized frame, non-UTF-8 payload).
    pub fn next_frame(&mut self, frame_no: usize) -> Result<Option<String>, ServeError> {
        let backlog = &self.buf[self.start..self.end];
        let Some(&[a, b, c, d]) = backlog.get(..4) else {
            return Ok(None);
        };
        let len = u32::from_le_bytes([a, b, c, d]) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(proto_err(
                frame_no,
                format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"),
            ));
        }
        let Some(payload) = backlog.get(4..4 + len) else {
            return Ok(None);
        };
        let payload = payload.to_vec();
        self.start += 4 + len;
        String::from_utf8(payload)
            .map(Some)
            .map_err(|_| proto_err(frame_no, "frame payload is not UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnemo_codec::json::Json;
    use proptest::prelude::*;
    use std::time::{Duration, Instant};

    fn oracle_check_keys(obj: &Json, known: &[&str], line: usize) -> Result<(), ServeError> {
        for (key, _) in obj.obj("request").map_err(|e| proto_err(line, e))? {
            if !known.contains(&key.as_str()) {
                return Err(proto_err(line, format!("unknown key `{key}`")));
            }
        }
        Ok(())
    }

    /// The reference decoder: parse the whole `Json` tree, then read the
    /// members from it. `parse_request` must give the same `Ok` value or
    /// the same error for every input.
    fn oracle_parse_request(input: &str, line: usize) -> Result<Request, ServeError> {
        let value = json::parse(input).map_err(|e| proto_err(line, e.msg))?;
        let v = value
            .get("v")
            .ok_or_else(|| proto_err(line, "missing `v` (schema version)"))?
            .u64("`v`")
            .map_err(|e| proto_err(line, e))?;
        if v != PROTO_VERSION {
            return Err(proto_err(
                line,
                format!("unsupported schema version {v} (this build speaks {PROTO_VERSION})"),
            ));
        }
        if let Some(cmd) = value.get("cmd") {
            let cmd = cmd.str("`cmd`").map_err(|e| proto_err(line, e))?;
            return match cmd {
                "advise" => {
                    oracle_check_keys(&value, &["v", "cmd", "tenant"], line)?;
                    let tenant = value
                        .get("tenant")
                        .ok_or_else(|| proto_err(line, "`advise` needs a `tenant`"))?
                        .str("`tenant`")
                        .map_err(|e| proto_err(line, e))?;
                    if tenant.is_empty() {
                        return Err(proto_err(line, "`tenant` must not be empty"));
                    }
                    Ok(Request::Advise {
                        tenant: tenant.to_string(),
                    })
                }
                "status" | "snapshot" | "follow" | "shutdown" => {
                    oracle_check_keys(&value, &["v", "cmd"], line)?;
                    Ok(match cmd {
                        "status" => Request::Status,
                        "snapshot" => Request::Snapshot,
                        "follow" => Request::Follow,
                        _ => Request::Shutdown,
                    })
                }
                other => Err(proto_err(line, format!("unknown cmd `{other}`"))),
            };
        }
        oracle_check_keys(&value, &["v", "tenant", "key", "op", "bytes"], line)?;
        let tenant = value
            .get("tenant")
            .ok_or_else(|| proto_err(line, "event needs a `tenant`"))?
            .str("`tenant`")
            .map_err(|e| proto_err(line, e))?;
        if tenant.is_empty() {
            return Err(proto_err(line, "`tenant` must not be empty"));
        }
        let key = value
            .get("key")
            .ok_or_else(|| proto_err(line, "event needs a `key`"))?
            .u64("`key`")
            .map_err(|e| proto_err(line, e))?;
        let op = match value
            .get("op")
            .ok_or_else(|| proto_err(line, "event needs an `op`"))?
            .str("`op`")
            .map_err(|e| proto_err(line, e))?
        {
            "read" => Op::Read,
            "update" | "write" => Op::Update,
            other => {
                return Err(proto_err(
                    line,
                    format!("unknown op `{other}` (read|update)"),
                ))
            }
        };
        let bytes = match value.get("bytes") {
            Some(b) => b.u64("`bytes`").map_err(|e| proto_err(line, e))?,
            None => 0,
        };
        Ok(Request::Ingest(EventV1 {
            tenant: tenant.to_string(),
            key,
            op,
            bytes,
        }))
    }

    /// Member keys, as they appear between the quotes.
    const KEY_POOL: [&str; 10] = [
        "v",
        "cmd",
        "tenant",
        "key",
        "op",
        "bytes",
        "x",
        "\\u0076",
        "t\\u0065nant",
        "k\\\"ey",
    ];
    /// Member values, as JSON text.
    const VALUE_POOL: [&str; 32] = [
        "1",
        "2",
        "0",
        "-1",
        "1.5",
        "1e2",
        "01",
        "18446744073709551615",
        "18446744073709551616",
        "\"read\"",
        "\"update\"",
        "\"write\"",
        "\"scan\"",
        "\"advise\"",
        "\"status\"",
        "\"snapshot\"",
        "\"follow\"",
        "\"shutdown\"",
        "\"\"",
        "\"alpha\"",
        "\"a\\\"b\"",
        "\"\\u0061lpha\"",
        "\"caf\\u00e9\"",
        "\"\u{e9}t\u{e9}\"",
        "\"\\ud800\"",
        "null",
        "true",
        "[1,{\"a\":1}]",
        "{\"k\":[]}",
        "{\"a\":1,\"a\":2}",
        "[1,]",
        "\"\\u+041\"",
    ];
    const WS_POOL: [&str; 4] = ["", " ", "\n\t", "\r "];
    const TRAILING_POOL: [&str; 6] = ["", " ", "x", "}", "{}", ",1"];
    /// Fragments for unstructured inputs.
    const TOKEN_POOL: [&str; 30] = [
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        " ",
        "\"",
        "\\",
        "\"v\"",
        "\"cmd\"",
        "\"tenant\"",
        "\"key\"",
        "\"op\"",
        "\"x\"",
        "1",
        "-",
        "1.5",
        "e",
        "\"read\"",
        "\"status\"",
        "\"a\"",
        "null",
        "tru",
        "\"\\u12\"",
        "\"\\q\"",
        "\u{e9}",
        "\"\\u0076\"",
        "\n",
        "18446744073709551616",
    ];

    /// A canonical frame of one of four kinds, edited by `(kind, a, b)`
    /// steps: reorder, duplicate, add, revalue, remove or rename members,
    /// or append trailing input. `ws` picks the whitespace between tokens.
    fn mutated_frame(template: usize, edits: &[(u8, usize, usize)], ws: u64) -> String {
        let canonical: &[(&str, &str)] = match template % 4 {
            0 => &[
                ("v", "1"),
                ("tenant", "\"alpha\""),
                ("key", "17"),
                ("op", "\"read\""),
                ("bytes", "128"),
            ],
            1 => &[("v", "1"), ("cmd", "\"advise\""), ("tenant", "\"beta\"")],
            2 => &[("v", "1"), ("cmd", "\"status\"")],
            _ => &[
                ("v", "1"),
                ("tenant", "\"a\""),
                ("key", "3"),
                ("op", "\"update\""),
            ],
        };
        let mut members: Vec<(&str, &str)> = canonical.to_vec();
        let mut trailing = "";
        for &(kind, a, b) in edits {
            let n = members.len();
            match kind {
                0 if n > 1 => members.swap(a % n, b % n),
                1 if n > 0 => members.insert(b % (n + 1), members[a % n]),
                2 => members.insert(
                    b % (n + 1),
                    (
                        KEY_POOL[a % KEY_POOL.len()],
                        VALUE_POOL[b % VALUE_POOL.len()],
                    ),
                ),
                3 if n > 0 => members[a % n].1 = VALUE_POOL[b % VALUE_POOL.len()],
                4 if n > 0 => {
                    members.remove(a % n);
                }
                5 if n > 0 => members[a % n].0 = KEY_POOL[b % KEY_POOL.len()],
                6 => trailing = TRAILING_POOL[a % TRAILING_POOL.len()],
                _ => {}
            }
        }
        let mut turn = 0u32;
        let mut pad = || {
            turn = (turn + 2) % 64;
            WS_POOL[((ws >> turn) & 3) as usize]
        };
        let mut out = String::new();
        out.push_str(pad());
        out.push('{');
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(pad());
            out.push_str(&format!("\"{key}\""));
            out.push_str(pad());
            out.push(':');
            out.push_str(pad());
            out.push_str(value);
            out.push_str(pad());
        }
        out.push('}');
        out.push_str(pad());
        out.push_str(trailing);
        out
    }

    #[test]
    fn decoder_matches_the_oracle_on_edge_cases() {
        let cases = [
            "",
            "   ",
            "{}",
            "{ }",
            "[1]",
            "\"s\"",
            "17",
            "{\"v\":1,",
            "{\"v\" 1}",
            "{\"v\":}",
            "{\"v\":1}}",
            "{\"v\":1e0}",
            "{\"v\":\"1\"}",
            "{\"v\":1,\"cmd\":1}",
            "{\"v\":1,\"cmd\":\"st\\u0061tus\"}",
            "{\"tenant\":\"a\",\"v\":1,\"cmd\":\"status\",\"x\":1}",
            "{\"v\":1,\"cmd\":\"status\",\"x\":1,\"tenant\":\"a\"}",
            "{\"v\":1,\"x\":1,\"x\":2}",
            "{\"v\":1,\"cmd\":\"status\",\"x\":1,\"y\":2}",
            "{\"v\":1,\"x\":1,\"y\":2,\"x\":3}",
            "{\"v\":1,\"\\u0078\":1,\"x\":2}",
            "{\"v\":1,\"v\":1}",
            "{\"v\":1,\"tenant\":\"a\",\"key\":-1,\"op\":\"read\"}",
            "{\"v\":1,\"tenant\":\"a\",\"key\":1.0,\"op\":\"read\"}",
            "{\"v\":1,\"tenant\":\"a\",\"key\":1,\"op\":\"read\",\"bytes\":null}",
            "{\"v\":1,\"tenant\":\"a\",\"key\":1,\"op\":\"read\"} x",
            "{\"v\":1,\"tenant\":\"\u{e9}\",\"key\":1,\"op\":\"read\"}",
            "{\"v\":1,\"tenant\":\"a\\ud800\",\"key\":1,\"op\":\"read\"}",
            "{\"v\":1,\"a\":[1,{\"b\":2,\"b\":3}]}",
            "{\"v\":1,\"a\":[1,}",
            "{\"v\":1,\"s\":\"\\u+041\"}",
            "{\"v\":1,\"s\":\"\\u12\"}",
            "{\"v\":1,\"s\":\"abc",
            "{\"v\":1,\"s\":\"ab\\",
            "{\"v\":1,\"cmd\":\"advise\",\"tenant\":\"\\\"q\\\"\"}",
        ];
        for input in cases {
            assert_eq!(
                parse_request(input, 3),
                oracle_parse_request(input, 3),
                "{input:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn decoder_matches_the_oracle_on_mutated_frames(
            template in 0usize..4,
            edits in proptest::collection::vec((0u8..8, 0usize..64, 0usize..64), 0..6),
            ws in 0u64..u64::MAX,
        ) {
            let input = mutated_frame(template, &edits, ws);
            prop_assert_eq!(
                parse_request(&input, 9),
                oracle_parse_request(&input, 9),
                "{:?}",
                input
            );
        }

        #[test]
        fn decoder_matches_the_oracle_on_token_soup(
            tokens in proptest::collection::vec(0usize..TOKEN_POOL.len(), 0..24),
        ) {
            let input: String = tokens.iter().map(|&t| TOKEN_POOL[t]).collect();
            prop_assert_eq!(
                parse_request(&input, 2),
                oracle_parse_request(&input, 2),
                "{:?}",
                input
            );
        }

        #[test]
        fn decoder_matches_the_oracle_on_arbitrary_bytes(
            bytes in proptest::collection::vec(0u8..=255, 0..48),
        ) {
            let input = String::from_utf8_lossy(&bytes);
            prop_assert_eq!(
                parse_request(&input, 1),
                oracle_parse_request(&input, 1),
                "{:?}",
                input
            );
        }
    }

    #[test]
    fn near_limit_strings_parse_in_linear_time() {
        // A per-character re-validation of the rest of the input made a
        // frame this size take tens of seconds.
        let plain = "t".repeat(MAX_FRAME_BYTES - 100);
        let unit = "ab\\\"\u{e9}\\u00e9";
        let escaped = unit.repeat((MAX_FRAME_BYTES - 100) / unit.len());
        let started = Instant::now();
        for (body, decoded_len) in [
            (&plain, plain.len()),
            (
                &escaped,
                escaped.len() / unit.len() * "ab\"\u{e9}\u{e9}".len(),
            ),
        ] {
            let frame = format!("{{\"v\":1,\"tenant\":\"{body}\",\"key\":1,\"op\":\"read\"}}");
            assert!(frame.len() <= MAX_FRAME_BYTES);
            match parse_request(&frame, 1) {
                Ok(Request::Ingest(event)) => assert_eq!(event.tenant.len(), decoded_len),
                other => panic!("near-limit frame failed to decode: {other:?}"),
            }
            // State dumps share the string parser.
            let doc = format!("{{\"s\":\"{body}\"}}");
            let value = json::parse(&doc).unwrap();
            assert_eq!(value.get("s").unwrap().str("s").unwrap().len(), decoded_len);
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn events_and_commands_decode() {
        let ev = parse_request(
            r#"{"v":1,"tenant":"alpha","key":17,"op":"read","bytes":128}"#,
            1,
        )
        .unwrap();
        assert_eq!(
            ev,
            Request::Ingest(EventV1 {
                tenant: "alpha".into(),
                key: 17,
                op: Op::Read,
                bytes: 128,
            })
        );
        assert_eq!(
            parse_request(r#"{"v":1,"cmd":"advise","tenant":"beta"}"#, 1).unwrap(),
            Request::Advise {
                tenant: "beta".into()
            }
        );
        assert_eq!(
            parse_request(r#"{"v":1,"cmd":"shutdown"}"#, 1).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn protocol_errors_carry_the_line() {
        let cases = [
            (r#"{"tenant":"a","key":1,"op":"read"}"#, "missing `v`"),
            (r#"{"v":2,"cmd":"status"}"#, "unsupported schema version"),
            (r#"{"v":1,"cmd":"warp"}"#, "unknown cmd"),
            (r#"{"v":1,"tenant":"a","key":1,"op":"scan"}"#, "unknown op"),
            (
                r#"{"v":1,"tenant":"a","key":1,"op":"read","x":1}"#,
                "unknown key",
            ),
            (
                r#"{"v":1,"tenant":"","key":1,"op":"read"}"#,
                "must not be empty",
            ),
            (r#"{"v":1,"cmd":"advise"}"#, "needs a `tenant`"),
            ("{]", "expected member name"),
        ];
        for (input, want) in cases {
            match parse_request(input, 7) {
                Err(ServeError::Proto { line, reason }) => {
                    assert_eq!(line, 7, "{input}");
                    assert!(reason.contains(want), "{input}: got `{reason}`");
                }
                other => panic!("{input}: expected protocol error, got {other:?}"),
            }
        }
    }

    #[test]
    fn json_numbers_round_trip_u64_exactly() {
        let frame = r#"{"v":1,"tenant":"a","key":18446744073709551615,"op":"read"}"#;
        match parse_request(frame, 1) {
            Ok(Request::Ingest(event)) => assert_eq!(event.key, u64::MAX),
            other => panic!("expected an ingest event, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        for frame in [
            r#"{"v":1,"v":1,"cmd":"status"}"#,
            r#"{"v":1,"cmd":"status","x":{"a":1,"a":2}}"#,
        ] {
            let err = parse_request(frame, 1).unwrap_err();
            assert!(err.to_string().contains("duplicate key `"), "{err}");
        }
    }

    #[test]
    fn deep_nesting_is_a_protocol_error() {
        // 100,012 bytes, under the frame limit: it used to overflow the
        // stack in the recursive reader.
        let frame = format!(
            "{{\"v\":1,\"x\":{}{}}}",
            "[".repeat(50_000),
            "]".repeat(50_000)
        );
        assert_eq!(frame.len(), 100_012);
        let err = parse_request(&frame, 5).unwrap_err();
        assert_eq!(err, oracle_parse_request(&frame, 5).unwrap_err());
        match err {
            ServeError::Proto { line, reason } => {
                assert_eq!(line, 5);
                assert!(reason.contains("nesting deeper than"), "{reason}");
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn framing_round_trips_in_chunks() {
        // Every chunk size, from one byte to the whole stream, yields the
        // same frames and errors, and the buffer never outgrows twice the
        // largest frame plus a chunk.
        let big = "x".repeat(5_000);
        let frames = [
            "{\"v\":1,\"cmd\":\"status\"}",
            "short",
            "",
            big.as_str(),
            "caf\u{e9}",
        ];
        let mut wire = Vec::new();
        for f in frames {
            wire.extend_from_slice(&encode_frame(f));
        }
        wire.extend_from_slice(&3u32.to_le_bytes());
        wire.extend_from_slice(&[0xff, 0xfe, 0xfd]);
        wire.extend_from_slice(&encode_frame("after"));
        wire.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        let mut want: Vec<Result<String, ServeError>> =
            frames.iter().map(|f| Ok(f.to_string())).collect();
        want.push(Err(proto_err(6, "frame payload is not UTF-8")));
        want.push(Ok("after".into()));
        want.push(Err(proto_err(
            8,
            "frame of 1048577 bytes exceeds the 1048576-byte limit",
        )));
        let largest = 4 + big.len();
        for chunk in 1..=wire.len() {
            let mut buf = FrameBuffer::new();
            let mut got = Vec::new();
            'feed: for piece in wire.chunks(chunk) {
                buf.extend(piece);
                assert!(
                    buf.buf.capacity() <= 2 * (largest + chunk),
                    "chunk {chunk}: capacity {}",
                    buf.buf.capacity()
                );
                loop {
                    match buf.next_frame(got.len() + 1) {
                        Ok(Some(frame)) => got.push(Ok(frame)),
                        Ok(None) => break,
                        Err(e) => {
                            // An oversized frame is never consumed; the
                            // daemon closes the connection instead.
                            let oversized = e.to_string().contains("exceeds");
                            got.push(Err(e));
                            if oversized {
                                break 'feed;
                            }
                        }
                    }
                }
            }
            assert_eq!(got, want, "chunk {chunk}");
        }
    }

    #[test]
    fn read_buffer_stays_bounded_over_a_long_stream() {
        /// Hands out the stream in uneven pieces.
        struct Trickle<'a> {
            data: &'a [u8],
            turn: usize,
        }
        impl Read for Trickle<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                self.turn += 1;
                let n = self
                    .data
                    .len()
                    .min(out.len())
                    .min(1 + self.turn * 7_919 % 90_000);
                out[..n].copy_from_slice(&self.data[..n]);
                self.data = &self.data[n..];
                Ok(n)
            }
        }
        let frames: Vec<String> = (0..5_000).map(|i| "y".repeat(i * 37 % 900)).collect();
        let wire: Vec<u8> = frames.iter().flat_map(|f| encode_frame(f)).collect();
        let mut src = Trickle {
            data: &wire,
            turn: 0,
        };
        let mut buf = FrameBuffer::new();
        let mut popped = 0;
        let mut peak = 0;
        while buf.read_from(&mut src).unwrap() > 0 {
            peak = peak.max(buf.buf.capacity());
            while let Some(frame) = buf.next_frame(popped + 1).unwrap() {
                assert_eq!(frame, frames[popped]);
                popped += 1;
            }
        }
        assert_eq!(popped, frames.len());
        assert!(peak <= 2 * (4 + 900 + READ_CHUNK), "peak capacity {peak}");
    }

    #[test]
    fn oversized_frames_are_protocol_errors() {
        let mut buf = FrameBuffer::new();
        buf.extend(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            buf.next_frame(1),
            Err(ServeError::Proto { line: 1, .. })
        ));
    }

    #[test]
    fn rows_are_single_json_objects() {
        use mnemo::advisor::Recommendation;
        let resilient = ResilientRecommendation {
            recommendation: Recommendation {
                prefix: 3,
                fast_bytes: 4096,
                fast_ratio: 0.25,
                cost_reduction: 0.4,
                est_throughput_ops_s: 1e6,
                est_slowdown: 0.05,
            },
            degraded: Some(DegradedReason::EmptyCurve),
        };
        let row = advise_row("a\"b", 42, &Drift::Initial, &resilient);
        let parsed = json::parse(&row).unwrap();
        assert_eq!(parsed.get("tenant").unwrap().str("t").unwrap(), "a\"b");
        assert_eq!(parsed.get("at_event").unwrap().u64("e").unwrap(), 42);
        assert_eq!(
            parsed.get("degraded").unwrap().str("d").unwrap(),
            "empty_curve"
        );
        let replan = replan_row(2, "alpha", 1 << 20, 1 << 26, 0.1);
        assert!(json::parse(&replan).is_ok());
        assert!(json::parse(&crash_row("beta", 100, 200)).is_ok());
        assert!(json::parse(&error_row("unknown tenant `x`")).is_ok());
    }
}
