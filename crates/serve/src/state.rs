//! Crash-safe daemon state: a JSON dump of every tenant's profiler for
//! warm restarts.
//!
//! The dump is one JSON document holding, per tenant, the full exported
//! [`mnemo_stream::ProfilerState`] plus the serving counters. Floats
//! are rendered shortest-roundtrip ([`fmt_f64`]) and 64-bit integers
//! are kept as raw tokens end to end (see [`mnemo_codec::json::Json`]), so
//! `dump → load → dump` is byte-identical and a reloaded daemon
//! continues *exactly* where the dumped one stopped.
//!
//! [`write_atomic`] writes via a temporary sibling plus rename, so a
//! crash mid-dump leaves the previous state intact rather than a torn
//! file.
//!
//! Version 2 dumps add a `journal_seq` watermark (the last journaled
//! request folded into the dump — warm restart replays the journal tail
//! after it) and an FNV-64 trailer line (`#fnv64:<16 hex>`) over the
//! document, so a bit-flipped dump is rejected as
//! [`ServeError::Corrupt`] rather than half-loaded. Version 1 dumps
//! (no trailer, no watermark) stay loadable; versions newer than this
//! build are rejected with a distinct "too new" message.

use crate::engine::ServeEngine;
use crate::proto::ServeError;
use mnemo_codec::fnv64;
use mnemo_codec::json::{self, escape, Json};
use mnemo_stream::TopEntry;
use mnemo_stream::{
    DistinctState, Drift, EpochSummary, ProfilerState, SketchState, TopKState, TrackerState,
};
use mnemo_telemetry::export::fmt_f64;
use std::fmt::Write as _;
use std::path::Path;

/// Dump format version this build writes (and the newest it reads).
pub const STATE_VERSION: u64 = 2;

/// Prefix of the checksum trailer line appended to v2 dumps.
pub const CHECKSUM_PREFIX: &str = "#fnv64:";

/// One tenant's saved serving state.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantState {
    /// Tenant name.
    pub name: String,
    /// Events offered to this tenant.
    pub offered: u64,
    /// Events dropped by backpressure.
    pub dropped: u64,
    /// Events dropped inside crash windows.
    pub crash_dropped: u64,
    /// Advise rows emitted.
    pub advice_rows: u64,
    /// Drift awaiting its post-reset advice epoch.
    pub pending: Option<Drift>,
    /// The full profiler state.
    pub profiler: ProfilerState,
}

/// A parsed state dump.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedState {
    /// Offered-event clock at dump time.
    pub offered: u64,
    /// Scheduler ticks at dump time.
    pub ticks: u64,
    /// Journal watermark at dump time: the sequence number of the last
    /// journaled request folded into this dump (0 in v1 dumps and in
    /// journal-less daemons).
    pub journal_seq: u64,
    /// Tenants in admission order.
    pub tenants: Vec<TenantState>,
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

fn write_top(out: &mut String, top: &TopKState) {
    out.push_str("{\"entries\":[");
    for (i, e) in top.entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "[{},{},{},{},{},{}]",
            e.key,
            e.count,
            e.error,
            e.reads,
            e.writes,
            fmt_f64(e.size_ewma)
        );
    }
    let _ = write!(out, "],\"observed\":{}}}", top.observed);
}

fn write_sketch(out: &mut String, sketch: &SketchState) {
    let _ = write!(
        out,
        "{{\"width\":{},\"depth\":{},\"total\":{},\"counters\":[",
        sketch.width, sketch.depth, sketch.total
    );
    for (i, c) in sketch.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{c}");
    }
    out.push_str("]}");
}

fn write_distinct(out: &mut String, distinct: &DistinctState) {
    out.push_str("{\"bits\":[");
    for (i, w) in distinct.bits.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{w}");
    }
    out.push_str("]}");
}

fn write_summary(out: &mut String, summary: &Option<EpochSummary>) {
    match summary {
        None => out.push_str("null"),
        Some(s) => {
            let _ = write!(
                out,
                "{{\"index\":{},\"events\":{},\"theta\":",
                s.index, s.events
            );
            match s.theta {
                None => out.push_str("null"),
                Some(t) => out.push_str(&fmt_f64(t)),
            }
            out.push_str(",\"hot_keys\":[");
            for (i, k) in s.hot_keys.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{k}");
            }
            out.push_str("]}");
        }
    }
}

fn write_tracker(out: &mut String, skew: &TrackerState) {
    out.push_str("{\"window\":");
    write_top(out, &skew.window);
    let _ = write!(
        out,
        ",\"in_epoch\":{},\"completed\":{},\"idle_streak\":{},\"reference\":",
        skew.in_epoch, skew.completed, skew.idle_streak
    );
    write_summary(out, &skew.reference);
    out.push_str(",\"last\":");
    write_summary(out, &skew.last);
    out.push('}');
}

fn write_profiler(out: &mut String, p: &ProfilerState) {
    out.push_str("{\"top\":");
    write_top(out, &p.top);
    out.push_str(",\"cm_reads\":");
    write_sketch(out, &p.cm_reads);
    out.push_str(",\"cm_writes\":");
    write_sketch(out, &p.cm_writes);
    out.push_str(",\"distinct\":");
    write_distinct(out, &p.distinct);
    out.push_str(",\"skew\":");
    write_tracker(out, &p.skew);
    let _ = write!(
        out,
        ",\"events\":{},\"reads\":{},\"writes\":{},\"bytes_sum\":{}}}",
        p.events,
        p.reads,
        p.writes,
        fmt_f64(p.bytes_sum)
    );
}

fn write_pending(out: &mut String, pending: &Option<Drift>) {
    match pending {
        None => out.push_str("null"),
        Some(Drift::Initial) => out.push_str("{\"kind\":\"initial\"}"),
        Some(Drift::Stable) => out.push_str("{\"kind\":\"stable\"}"),
        Some(Drift::Theta { from, to }) => {
            let _ = write!(
                out,
                "{{\"kind\":\"theta\",\"from\":{},\"to\":{}}}",
                fmt_f64(*from),
                fmt_f64(*to)
            );
        }
        Some(Drift::HotSet { overlap }) => {
            let _ = write!(
                out,
                "{{\"kind\":\"hot_set\",\"overlap\":{}}}",
                fmt_f64(*overlap)
            );
        }
    }
}

/// Render the engine's full state as one JSON document followed by the
/// FNV-64 checksum trailer line.
pub fn dump(engine: &ServeEngine) -> String {
    let (offered, ticks) = engine.clock_state();
    let journal_seq = engine.journal_seq();
    let mut out = format!(
        "{{\"v\":{STATE_VERSION},\"offered\":{offered},\"ticks\":{ticks},\
         \"journal_seq\":{journal_seq},\"tenants\":["
    );
    for (i, t) in engine.tenant_states().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            concat!(
                "{{\"name\":\"{}\",\"offered\":{},\"dropped\":{},",
                "\"crash_dropped\":{},\"advice_rows\":{},\"pending\":"
            ),
            escape(&t.name),
            t.offered,
            t.dropped,
            t.crash_dropped,
            t.advice_rows,
        );
        write_pending(&mut out, &t.pending);
        out.push_str(",\"profiler\":");
        write_profiler(&mut out, &t.profiler);
        out.push('}');
    }
    out.push_str("]}");
    let check = fnv64(out.as_bytes());
    let _ = write!(out, "\n{CHECKSUM_PREFIX}{check:016x}\n");
    out
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

fn bad(reason: impl Into<String>) -> ServeError {
    ServeError::Proto {
        line: 1,
        reason: reason.into(),
    }
}

fn req<'a>(value: &'a Json, key: &str, what: &str) -> Result<&'a Json, ServeError> {
    value
        .get(key)
        .ok_or_else(|| bad(format!("{what}: missing `{key}`")))
}

fn read_top(value: &Json, what: &str) -> Result<TopKState, ServeError> {
    let mut entries = Vec::new();
    for (i, e) in req(value, "entries", what)?
        .arr("`entries`")
        .map_err(bad)?
        .iter()
        .enumerate()
    {
        let cols = e.arr("entry").map_err(bad)?;
        if cols.len() != 6 {
            return Err(bad(format!("{what}: entry {i} must have 6 columns")));
        }
        entries.push(TopEntry {
            key: cols[0].u64("key").map_err(bad)?,
            count: cols[1].u64("count").map_err(bad)?,
            error: cols[2].u64("error").map_err(bad)?,
            reads: cols[3].u64("reads").map_err(bad)?,
            writes: cols[4].u64("writes").map_err(bad)?,
            size_ewma: cols[5].f64("size_ewma").map_err(bad)?,
        });
    }
    Ok(TopKState {
        entries,
        observed: req(value, "observed", what)?
            .u64("`observed`")
            .map_err(bad)?,
    })
}

fn read_sketch(value: &Json, what: &str) -> Result<SketchState, ServeError> {
    let mut counters = Vec::new();
    for c in req(value, "counters", what)?
        .arr("`counters`")
        .map_err(bad)?
    {
        let wide = c.u64("counter").map_err(bad)?;
        counters.push(
            u32::try_from(wide).map_err(|_| bad(format!("{what}: counter {wide} exceeds u32")))?,
        );
    }
    Ok(SketchState {
        width: req(value, "width", what)?.u64("`width`").map_err(bad)? as usize,
        depth: req(value, "depth", what)?.u64("`depth`").map_err(bad)? as usize,
        total: req(value, "total", what)?.u64("`total`").map_err(bad)?,
        counters,
    })
}

fn read_distinct(value: &Json, what: &str) -> Result<DistinctState, ServeError> {
    let mut bits = Vec::new();
    for w in req(value, "bits", what)?.arr("`bits`").map_err(bad)? {
        bits.push(w.u64("bitmap word").map_err(bad)?);
    }
    Ok(DistinctState { bits })
}

fn read_summary(value: &Json, what: &str) -> Result<Option<EpochSummary>, ServeError> {
    if *value == Json::Null {
        return Ok(None);
    }
    let theta = match req(value, "theta", what)? {
        Json::Null => None,
        t => Some(t.f64("`theta`").map_err(bad)?),
    };
    let mut hot_keys = Vec::new();
    for k in req(value, "hot_keys", what)?
        .arr("`hot_keys`")
        .map_err(bad)?
    {
        hot_keys.push(k.u64("hot key").map_err(bad)?);
    }
    Ok(Some(EpochSummary {
        index: req(value, "index", what)?.u64("`index`").map_err(bad)?,
        events: req(value, "events", what)?.u64("`events`").map_err(bad)?,
        theta,
        hot_keys,
    }))
}

fn read_tracker(value: &Json, what: &str) -> Result<TrackerState, ServeError> {
    Ok(TrackerState {
        window: read_top(req(value, "window", what)?, what)?,
        in_epoch: req(value, "in_epoch", what)?
            .u64("`in_epoch`")
            .map_err(bad)?,
        completed: req(value, "completed", what)?
            .u64("`completed`")
            .map_err(bad)?,
        idle_streak: req(value, "idle_streak", what)?
            .u64("`idle_streak`")
            .map_err(bad)?,
        reference: read_summary(req(value, "reference", what)?, what)?,
        last: read_summary(req(value, "last", what)?, what)?,
    })
}

fn read_profiler(value: &Json, what: &str) -> Result<ProfilerState, ServeError> {
    Ok(ProfilerState {
        top: read_top(req(value, "top", what)?, what)?,
        cm_reads: read_sketch(req(value, "cm_reads", what)?, what)?,
        cm_writes: read_sketch(req(value, "cm_writes", what)?, what)?,
        distinct: read_distinct(req(value, "distinct", what)?, what)?,
        skew: read_tracker(req(value, "skew", what)?, what)?,
        events: req(value, "events", what)?.u64("`events`").map_err(bad)?,
        reads: req(value, "reads", what)?.u64("`reads`").map_err(bad)?,
        writes: req(value, "writes", what)?.u64("`writes`").map_err(bad)?,
        bytes_sum: req(value, "bytes_sum", what)?
            .f64("`bytes_sum`")
            .map_err(bad)?,
    })
}

fn read_pending(value: &Json, what: &str) -> Result<Option<Drift>, ServeError> {
    if *value == Json::Null {
        return Ok(None);
    }
    let kind = req(value, "kind", what)?.str("`kind`").map_err(bad)?;
    Ok(Some(match kind {
        "initial" => Drift::Initial,
        "stable" => Drift::Stable,
        "theta" => Drift::Theta {
            from: req(value, "from", what)?.f64("`from`").map_err(bad)?,
            to: req(value, "to", what)?.f64("`to`").map_err(bad)?,
        },
        "hot_set" => Drift::HotSet {
            overlap: req(value, "overlap", what)?.f64("`overlap`").map_err(bad)?,
        },
        other => return Err(bad(format!("{what}: unknown pending drift `{other}`"))),
    }))
}

fn corrupt(path: &str, reason: impl Into<String>) -> ServeError {
    ServeError::Corrupt {
        path: path.to_string(),
        line: 1,
        reason: reason.into(),
    }
}

/// Parse a state dump produced by [`dump`]. `path` labels corruption
/// reports; use [`parse`] when there is no meaningful file name.
///
/// The checksum trailer is verified *before* the JSON is parsed, so a
/// bit flip anywhere in a v2 document reports as `corrupt` rather than
/// as a confusing schema error. v1 dumps (no trailer) stay loadable.
pub fn parse_named(input: &str, path: &str) -> Result<SavedState, ServeError> {
    let mut lines = input.lines();
    let doc = lines.next().unwrap_or("");
    let trailer = lines.find(|l| !l.trim().is_empty());
    if let Some(extra) = trailer {
        let Some(hex) = extra.strip_prefix(CHECKSUM_PREFIX) else {
            return Err(corrupt(path, format!("unexpected trailing line `{extra}`")));
        };
        let want = u64::from_str_radix(hex.trim(), 16)
            .map_err(|_| corrupt(path, format!("malformed checksum trailer `{extra}`")))?;
        let got = fnv64(doc.as_bytes());
        if got != want {
            return Err(corrupt(
                path,
                format!(
                    "checksum mismatch: document hashes to {got:016x}, trailer says {want:016x}"
                ),
            ));
        }
    }
    let value = json::parse(doc).map_err(|e| bad(e.msg))?;
    let v = req(&value, "v", "state")?.u64("`v`").map_err(bad)?;
    if v > STATE_VERSION {
        return Err(bad(format!(
            "state version {v} too new (this build speaks <= {STATE_VERSION})"
        )));
    }
    if v == 0 {
        return Err(bad("unsupported state version 0"));
    }
    if v >= 2 && trailer.is_none() {
        return Err(corrupt(path, "missing checksum trailer (truncated dump?)"));
    }
    let journal_seq = match value.get("journal_seq") {
        Some(seq) => seq.u64("`journal_seq`").map_err(bad)?,
        None if v == 1 => 0,
        None => return Err(bad("state: missing `journal_seq`")),
    };
    let mut tenants = Vec::new();
    for t in req(&value, "tenants", "state")?
        .arr("`tenants`")
        .map_err(bad)?
    {
        let name = req(t, "name", "tenant")?.str("`name`").map_err(bad)?;
        let what = format!("tenant `{name}`");
        tenants.push(TenantState {
            name: name.to_string(),
            offered: req(t, "offered", &what)?.u64("`offered`").map_err(bad)?,
            dropped: req(t, "dropped", &what)?.u64("`dropped`").map_err(bad)?,
            crash_dropped: req(t, "crash_dropped", &what)?
                .u64("`crash_dropped`")
                .map_err(bad)?,
            advice_rows: req(t, "advice_rows", &what)?
                .u64("`advice_rows`")
                .map_err(bad)?,
            pending: read_pending(req(t, "pending", &what)?, &what)?,
            profiler: read_profiler(req(t, "profiler", &what)?, &what)?,
        });
    }
    Ok(SavedState {
        offered: req(&value, "offered", "state")?
            .u64("`offered`")
            .map_err(bad)?,
        ticks: req(&value, "ticks", "state")?.u64("`ticks`").map_err(bad)?,
        journal_seq,
        tenants,
    })
}

/// [`parse_named`] without a file name.
pub fn parse(input: &str) -> Result<SavedState, ServeError> {
    parse_named(input, "state")
}

/// Load a state dump from disk and warm-restore it into the engine
/// (including the journal watermark). Returns the tenant count.
pub fn reload(engine: &mut ServeEngine, path: &Path) -> Result<usize, ServeError> {
    let bytes = std::fs::read(path)
        .map_err(|e| ServeError::Io(format!("cannot read state '{}': {e}", path.display())))?;
    let input = String::from_utf8(bytes)
        .map_err(|_| corrupt(&path.display().to_string(), "dump is not UTF-8"))?;
    let saved = parse_named(&input, &path.display().to_string())?;
    let n = saved.tenants.len();
    engine.set_journal_seq(saved.journal_seq);
    engine.restore(saved.offered, saved.ticks, saved.tenants)?;
    Ok(n)
}

/// Write `content` to `path` atomically: temporary sibling + rename.
pub fn write_atomic(path: &Path, content: &str) -> Result<(), ServeError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, content)
        .map_err(|e| ServeError::Io(format!("cannot write '{}': {e}", tmp.display())))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| ServeError::Io(format!("cannot rename into '{}': {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ServeConfig, ServeEngine};
    use crate::proto::EventV1;
    use mnemo_stream::{DriftConfig, StreamConfig};
    use ycsb::Op;

    fn small_engine() -> ServeEngine {
        ServeEngine::new(ServeConfig {
            stream: StreamConfig {
                drift: DriftConfig {
                    epoch_len: 150,
                    ..DriftConfig::default()
                },
                ..StreamConfig::with_budget_bytes(16 * 1024)
            },
            tick_events: 300,
            calib_keys: 120,
            calib_requests: 1_500,
            ..ServeConfig::default()
        })
        .unwrap()
    }

    fn feed(engine: &mut ServeEngine, tenant: &str, range: std::ops::Range<u64>) {
        for i in range {
            engine
                .ingest(EventV1 {
                    tenant: tenant.into(),
                    key: i * 13 % 80,
                    op: if i % 3 == 0 { Op::Update } else { Op::Read },
                    bytes: 64 + i % 200,
                })
                .unwrap();
        }
    }

    #[test]
    fn dump_load_dump_is_byte_identical() {
        let mut engine = small_engine();
        feed(&mut engine, "alpha", 0..700);
        feed(&mut engine, "beta", 0..450);
        let first = dump(&engine);
        let saved = parse(&first).unwrap();
        assert_eq!(saved.tenants.len(), 2);
        let mut restored = small_engine();
        restored
            .restore(saved.offered, saved.ticks, saved.tenants)
            .unwrap();
        assert_eq!(dump(&restored), first);
    }

    #[test]
    fn corrupt_dumps_are_rejected_with_reasons() {
        // Newer-than-us is a distinct, explicit message — not "corrupt".
        match parse("{\"v\":99,\"offered\":0,\"ticks\":0,\"journal_seq\":0,\"tenants\":[]}") {
            Err(ServeError::Proto { reason, .. }) => {
                assert!(reason.contains("too new"), "{reason}")
            }
            other => panic!("expected a too-new error, got {other:?}"),
        }
        assert!(parse("{\"v\":1,\"ticks\":0,\"tenants\":[]}").is_err());
        assert!(parse("not json").is_err());
    }

    #[test]
    fn checksum_trailer_rejects_bit_flips_as_corrupt() {
        let mut engine = small_engine();
        feed(&mut engine, "alpha", 0..400);
        let good = dump(&engine);
        assert!(parse(&good).is_ok());
        // Flip one byte inside the document.
        let mut flipped = good.clone().into_bytes();
        let at = good.find("\"offered\"").unwrap() + 12;
        flipped[at] ^= 0x01;
        let flipped = String::from_utf8(flipped).unwrap();
        match parse_named(&flipped, "state.json") {
            Err(ServeError::Corrupt { path, line, reason }) => {
                assert_eq!(path, "state.json");
                assert_eq!(line, 1);
                assert!(reason.contains("checksum mismatch"), "{reason}");
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
        // A v2 dump with the trailer torn off is corrupt, not loadable.
        let torn = good.lines().next().unwrap().to_string();
        assert!(matches!(parse(&torn), Err(ServeError::Corrupt { .. })));
    }

    #[test]
    fn checksum_less_v1_dumps_stay_loadable() {
        let mut engine = small_engine();
        feed(&mut engine, "alpha", 0..400);
        // Rewrite the current dump as a v1 document: no journal_seq, no
        // trailer — exactly what a pre-journal daemon produced.
        let v2 = dump(&engine);
        let doc = v2.lines().next().unwrap();
        let v1 = doc
            .replacen("\"v\":2", "\"v\":1", 1)
            .replacen(",\"journal_seq\":0", "", 1)
            + "\n";
        let saved = parse(&v1).unwrap();
        assert_eq!(saved.journal_seq, 0);
        assert_eq!(saved.tenants.len(), 1);
    }

    #[test]
    fn atomic_write_replaces_not_tears() {
        let dir = std::env::temp_dir().join("mnemo-serve-state-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        write_atomic(&path, "first\n").unwrap();
        write_atomic(&path, "second\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");
        std::fs::remove_file(&path).unwrap();
    }
}
