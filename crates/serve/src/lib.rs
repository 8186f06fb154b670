//! # mnemo-serve — the long-lived multi-tenant advisor daemon
//!
//! Everything before this crate answers one consultation and exits. A
//! production deployment instead runs Mnemo as a sidecar: many tenant
//! workloads stream access events at it continuously, each wants fresh
//! placement advice within a bounded delay, and the box's FastMem is a
//! *shared* pool that must be re-split as tenants come, go, and drift.
//! This crate is that daemon, layered as:
//!
//! * [`proto`] — the versioned JSONL wire protocol, deterministic
//!   response rows, and length-delimited socket framing;
//! * [`engine`] — the tenant registry: one warm
//!   [`mnemo_stream::StreamProfiler`] per tenant behind a bounded
//!   queue, a scheduler epoch driven by the offered-event count (drains
//!   run one-job-per-tenant on the bounded [`mnemo_par::Pool`]),
//!   never-absent degraded-tagged advising via
//!   `Consultation::recommend_resilient`, and periodic shared-capacity
//!   re-planning through [`mnemo::multi::allocate_demands`] (model fit
//!   plus approximate pattern per tenant, no estimate curve);
//! * [`state`] — crash-safe state dumps (atomic write, exact float and
//!   u64 round-trip) for warm restarts;
//! * [`session`] — the durable path: write-ahead journal append, apply,
//!   a state dump where a due tick ends, and warm-restart recovery,
//!   shared by [`ServeLoop`] and the [`chaos`] harness.
//!
//! The same engine serves three front ends: [`run_replay`] (a JSONL
//! file on the virtual clock — byte-identical transcripts for any
//! `--jobs N`), stdin line mode, and a Unix-domain socket
//! ([`ServeLoop`]) with framed requests, where [`follow`] streams every
//! emitted row to `mnemo watch --follow`.
//!
//! # Example
//!
//! ```
//! use mnemo_serve::{engine::ServeConfig, run_replay};
//! use mnemo_stream::{DriftConfig, StreamConfig};
//!
//! let config = ServeConfig {
//!     stream: StreamConfig {
//!         drift: DriftConfig { epoch_len: 100, ..DriftConfig::default() },
//!         ..StreamConfig::with_budget_bytes(16 * 1024)
//!     },
//!     tick_events: 200,
//!     calib_keys: 100,
//!     calib_requests: 1_000,
//!     ..ServeConfig::default()
//! };
//! let mut input = String::new();
//! for i in 0..300u64 {
//!     input.push_str(&format!(
//!         "{{\"v\":1,\"tenant\":\"a\",\"key\":{},\"op\":\"read\",\"bytes\":64}}\n",
//!         i % 40
//!     ));
//! }
//! let outcome = run_replay(&input, config).unwrap();
//! assert!(outcome.transcript.contains("\"row\":\"advise\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod engine;
pub mod journal;
pub mod proto;
pub mod session;
pub mod state;

pub use engine::{ServeConfig, ServeEngine};
pub use journal::{JournalConfig, JournalStats};
pub use proto::{EventV1, Request, ServeError};
pub use session::{Recovered, Session};

use mnemo_faults::Backoff;
use mnemo_telemetry::Snapshot;
use std::io::{ErrorKind, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};

/// Result of replaying a request log through a fresh engine.
pub struct ReplayOutcome {
    /// Every emitted row, newline-joined with a trailing newline (empty
    /// when nothing was emitted).
    pub transcript: String,
    /// The engine after the replay (for state dumps and telemetry).
    pub engine: ServeEngine,
}

/// Drive `input` (newline-framed v1 requests; blank lines and `#`
/// comments skipped) through a fresh engine on the virtual clock. The
/// transcript is a pure function of `(input, config)` — byte-identical
/// for any worker count.
pub fn run_replay(input: &str, config: ServeConfig) -> Result<ReplayOutcome, ServeError> {
    let mut engine = ServeEngine::new(config)?;
    let rows = replay_into(&mut engine, input)?;
    Ok(ReplayOutcome {
        transcript: to_transcript(rows),
        engine,
    })
}

/// [`run_replay`] against an existing engine (used for warm restarts:
/// reload state, then continue the log). Runs the engine's final flush
/// at end of input.
pub fn replay_into(engine: &mut ServeEngine, input: &str) -> Result<Vec<String>, ServeError> {
    let mut rows = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match proto::parse_request(line, i + 1)? {
            Request::Ingest(event) => rows.extend(engine.ingest(event)?),
            Request::Advise { tenant } => rows.push(engine.advise_now(&tenant)),
            Request::Status => rows.push(engine.status_row()),
            Request::Snapshot => rows.push(engine.snapshot_row()),
            Request::Follow => {} // meaningless without a connection
            Request::Shutdown => break,
        }
    }
    rows.extend(engine.finish());
    Ok(rows)
}

fn to_transcript(rows: Vec<String>) -> String {
    let mut out = String::new();
    for row in rows {
        out.push_str(&row);
        out.push('\n');
    }
    out
}

/// Write-ahead journal policy for a durable [`Session`].
#[derive(Debug, Clone)]
pub struct JournalPolicy {
    /// Journal directory (segments live as `wal-*.log` inside it).
    pub dir: PathBuf,
    /// Segment sizing and sync cadence.
    pub config: JournalConfig,
}

/// State-dump and journal policy for a durable [`Session`].
#[derive(Debug, Clone, Default)]
pub struct StatePolicy {
    /// Dump target; `None` disables dumping.
    pub path: Option<PathBuf>,
    /// Dump every N scheduler ticks (0 behaves as 1).
    pub every_ticks: u64,
    /// Write-ahead journal; `None` disables journaling.
    pub journal: Option<JournalPolicy>,
}

struct ClientConn {
    stream: UnixStream,
    buf: proto::FrameBuffer,
    frames_seen: usize,
    follow: bool,
    dead: bool,
}

/// The socket front end: a single-threaded, steppable poll loop over a
/// Unix-domain listener. Requests and responses are length-framed
/// ([`proto::encode_frame`]); `follow` subscribers additionally receive
/// every emitted row.
pub struct ServeLoop {
    listener: UnixListener,
    session: Session,
    clients: Vec<ClientConn>,
    done: bool,
}

impl ServeLoop {
    /// Bind `path` (removing a stale socket file first) and build the
    /// engine. Warm-restores from `state.path` if it exists, then
    /// replays the journal tail past the dump's watermark.
    pub fn bind(
        path: &Path,
        config: ServeConfig,
        state: StatePolicy,
    ) -> Result<ServeLoop, ServeError> {
        if path.exists() {
            std::fs::remove_file(path).map_err(|e| {
                ServeError::Io(format!(
                    "cannot remove stale socket '{}': {e}",
                    path.display()
                ))
            })?;
        }
        let listener = UnixListener::bind(path)
            .map_err(|e| ServeError::Io(format!("cannot bind '{}': {e}", path.display())))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Io(format!("cannot set nonblocking: {e}")))?;
        let (session, _) = Session::start(config, state)?;
        Ok(ServeLoop {
            listener,
            session,
            clients: Vec::new(),
            done: false,
        })
    }

    /// The engine (for inspection in tests and for final dumps).
    pub fn engine(&self) -> &ServeEngine {
        self.session.engine()
    }

    /// Whether a `shutdown` command has been processed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Accept pending connections, read every readable client, handle
    /// complete frames, and fan emitted rows out to followers. Returns
    /// whether any work happened (callers sleep briefly when idle).
    pub fn poll_once(&mut self) -> Result<bool, ServeError> {
        let mut active = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream
                        .set_nonblocking(true)
                        .map_err(|e| ServeError::Io(format!("cannot set nonblocking: {e}")))?;
                    self.clients.push(ClientConn {
                        stream,
                        buf: proto::FrameBuffer::new(),
                        frames_seen: 0,
                        follow: false,
                        dead: false,
                    });
                    active = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(ServeError::Io(format!("accept failed: {e}"))),
            }
        }
        let mut broadcast: Vec<String> = Vec::new();
        for i in 0..self.clients.len() {
            let client = &mut self.clients[i];
            loop {
                match client.buf.read_from(&mut client.stream) {
                    Ok(0) => {
                        client.dead = true;
                        break;
                    }
                    Ok(_) => active = true,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        client.dead = true;
                        break;
                    }
                }
            }
            loop {
                let frame_no = self.clients[i].frames_seen + 1;
                let frame = match self.clients[i].buf.next_frame(frame_no) {
                    Ok(Some(f)) => f,
                    Ok(None) => break,
                    Err(e) => {
                        // Protocol errors answer the offender and close
                        // it; the daemon keeps serving everyone else.
                        self.reply(i, &proto::error_row(&e.to_string()))?;
                        self.clients[i].dead = true;
                        break;
                    }
                };
                self.clients[i].frames_seen += 1;
                active = true;
                match proto::parse_request(&frame, frame_no) {
                    Err(e) => self.reply(i, &proto::error_row(&e.to_string()))?,
                    Ok(request @ Request::Ingest(_)) => {
                        broadcast.extend(self.session.apply(&frame, request)?);
                    }
                    Ok(request @ Request::Advise { .. }) => {
                        let rows = self.session.apply(&frame, request)?;
                        for row in &rows {
                            self.reply(i, row)?;
                        }
                        broadcast.extend(rows);
                    }
                    Ok(Request::Status) => {
                        let row = self.session.engine().status_row();
                        self.reply(i, &row)?;
                    }
                    Ok(Request::Snapshot) => {
                        let row = self.session.engine().snapshot_row();
                        self.reply(i, &row)?;
                    }
                    Ok(Request::Follow) => self.clients[i].follow = true,
                    Ok(Request::Shutdown) => self.done = true,
                }
            }
        }
        // Nothing leaves the process ahead of the records behind it.
        self.session.flush()?;
        if !broadcast.is_empty() {
            for client in &mut self.clients {
                if client.follow && !client.dead {
                    for row in &broadcast {
                        if client.stream.write_all(&proto::encode_frame(row)).is_err() {
                            client.dead = true;
                            break;
                        }
                    }
                }
            }
        }
        self.clients.retain(|c| !c.dead);
        Ok(active)
    }

    /// Send `row` to one client, after the journal records behind it.
    fn reply(&mut self, client: usize, row: &str) -> Result<(), ServeError> {
        self.session.flush()?;
        if self.clients[client]
            .stream
            .write_all(&proto::encode_frame(row))
            .is_err()
        {
            self.clients[client].dead = true;
        }
        Ok(())
    }

    /// Poll until shutdown, sleeping briefly when idle. On exit, flushes
    /// the engine, writes a final state dump if configured, and closes
    /// the journal so its last segment ends at its last record.
    pub fn run(&mut self) -> Result<Vec<String>, ServeError> {
        while !self.done {
            if !self.poll_once()? {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        self.session.finish()
    }
}

/// Connect to a running serve socket, subscribe with `follow`, and copy
/// rows (one per line) into `out` until `max_rows` (when `Some`) or the
/// daemon closes the connection. Returns the number of rows written.
pub fn follow(path: &Path, max_rows: Option<u64>, out: &mut dyn Write) -> Result<u64, ServeError> {
    let mut stream = UnixStream::connect(path)
        .map_err(|e| ServeError::Io(format!("cannot connect to '{}': {e}", path.display())))?;
    stream
        .write_all(&proto::encode_frame("{\"v\":1,\"cmd\":\"follow\"}"))
        .map_err(|e| ServeError::Io(format!("cannot subscribe: {e}")))?;
    let mut buf = proto::FrameBuffer::new();
    let mut rows = 0u64;
    'read: loop {
        match buf.read_from(&mut stream) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(ServeError::Io(format!("read failed: {e}"))),
        }
        while let Some(row) = buf.next_frame(rows as usize + 1)? {
            writeln!(out, "{row}").map_err(|e| ServeError::Io(format!("write failed: {e}")))?;
            rows += 1;
            if max_rows.is_some_and(|limit| rows >= limit) {
                break 'read;
            }
        }
    }
    Ok(rows)
}

/// [`follow`] with reconnection: when the daemon socket drops mid-tail
/// (restart, crash, transient read error), reconnect with the faults
/// crate's capped exponential [`Backoff`] instead of exiting on the
/// first read error. Progress (a received row) resets the retry budget.
/// The tail ends cleanly once `max_rows` rows are written, or — after
/// at least one successful connection — once the daemon stays away for
/// a whole backoff budget (it shut down for good). A daemon that was
/// never reachable is still an error. Returns the rows written.
pub fn follow_retry(
    path: &Path,
    max_rows: Option<u64>,
    out: &mut dyn Write,
) -> Result<u64, ServeError> {
    let backoff = Backoff::default_policy();
    let mut rows = 0u64;
    let mut attempt = 0u32;
    let mut connected_once = false;
    loop {
        let stream = match UnixStream::connect(path) {
            Ok(s) => s,
            Err(e) => {
                if attempt >= backoff.max_retries {
                    return if connected_once {
                        Ok(rows)
                    } else {
                        Err(ServeError::Io(format!(
                            "cannot connect to '{}': {e}",
                            path.display()
                        )))
                    };
                }
                std::thread::sleep(std::time::Duration::from_nanos(
                    backoff.delay_ns(attempt) as u64
                ));
                attempt += 1;
                continue;
            }
        };
        connected_once = true;
        let before = rows;
        if tail_stream(stream, max_rows, &mut rows, out)? {
            return Ok(rows);
        }
        if rows > before {
            attempt = 0;
        }
    }
}

/// One `follow` session over an established connection. `Ok(true)`
/// means the row limit was reached; `Ok(false)` means the connection
/// dropped (close or read error) and the caller may reconnect. Only
/// local write failures are fatal.
fn tail_stream(
    mut stream: UnixStream,
    max_rows: Option<u64>,
    rows: &mut u64,
    out: &mut dyn Write,
) -> Result<bool, ServeError> {
    if stream
        .write_all(&proto::encode_frame("{\"v\":1,\"cmd\":\"follow\"}"))
        .is_err()
    {
        return Ok(false);
    }
    let mut buf = proto::FrameBuffer::new();
    loop {
        match buf.read_from(&mut stream) {
            Ok(0) => return Ok(false),
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Ok(false),
        }
        loop {
            match buf.next_frame(*rows as usize + 1) {
                Ok(Some(row)) => {
                    writeln!(out, "{row}")
                        .map_err(|e| ServeError::Io(format!("write failed: {e}")))?;
                    *rows += 1;
                    if max_rows.is_some_and(|limit| *rows >= limit) {
                        return Ok(true);
                    }
                }
                Ok(None) => break,
                // A garbled frame from a dying daemon: drop the
                // connection and let the reconnect start clean.
                Err(_) => return Ok(false),
            }
        }
    }
}

/// Snapshots accumulated by a replayed engine, for telemetry export.
pub fn snapshots(outcome: &ReplayOutcome) -> &[Snapshot] {
    outcome.engine.snapshots()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnemo_stream::{DriftConfig, StreamConfig};
    use std::io::Read;

    fn small_config() -> ServeConfig {
        ServeConfig {
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
        }
    }

    fn sample_input(tenants: &[&str], events_each: u64) -> String {
        let mut input = String::new();
        for i in 0..events_each {
            for t in tenants {
                input.push_str(&format!(
                    "{{\"v\":1,\"tenant\":\"{t}\",\"key\":{},\"op\":\"{}\",\"bytes\":{}}}\n",
                    i * 17 % 70,
                    if i % 3 == 0 { "update" } else { "read" },
                    80 + i % 160,
                ));
            }
        }
        input
    }

    #[test]
    fn replay_emits_advice_and_is_deterministic() {
        let input = sample_input(&["alpha", "beta"], 400);
        let a = run_replay(&input, small_config()).unwrap();
        let b = run_replay(&input, small_config()).unwrap();
        assert_eq!(a.transcript, b.transcript);
        assert!(a.transcript.contains("\"row\":\"advise\""));
        assert!(a.transcript.contains("\"row\":\"replan\""));
    }

    #[test]
    fn replay_reports_protocol_errors_with_line_numbers() {
        let input = "{\"v\":1,\"tenant\":\"a\",\"key\":1,\"op\":\"read\",\"bytes\":1}\nnot json\n";
        match run_replay(input, small_config()) {
            Err(ServeError::Proto { line, .. }) => assert_eq!(line, 2),
            Err(other) => panic!("expected protocol error, got {other}"),
            Ok(_) => panic!("expected protocol error, got a transcript"),
        }
    }

    /// Poll `served` until `client` has a whole frame, and return it.
    fn poll_for_frame(served: &mut ServeLoop, client: &mut UnixStream) -> String {
        let mut buf = proto::FrameBuffer::new();
        for _ in 0..100 {
            served.poll_once().unwrap();
            match buf.read_from(client) {
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => panic!("client read: {e}"),
            }
            if let Some(frame) = buf.next_frame(1).unwrap() {
                return frame;
            }
        }
        panic!("no frame arrived");
    }

    #[test]
    fn rows_a_client_sees_follow_the_journal_records_behind_them() {
        // The sync cadence never comes due here, so only the flushes
        // ahead of follower rows and replies can put the ingests where a
        // restart finds them.
        let dir = std::env::temp_dir().join(format!("mnemo-serve-flush-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("mnemo.sock");
        let journal_dir = dir.join("journal");
        let state = StatePolicy {
            journal: Some(JournalPolicy {
                dir: journal_dir.clone(),
                config: JournalConfig {
                    segment_bytes: 1 << 20,
                    sync_every: 1 << 20,
                },
            }),
            ..StatePolicy::default()
        };
        let mut served = ServeLoop::bind(&sock, small_config(), state).unwrap();
        let journaled = || -> Vec<String> {
            let recovery = journal::recover(&journal_dir, 0).unwrap();
            assert_eq!(recovery.truncated, 0);
            recovery.frames.into_iter().map(|(_, p)| p).collect()
        };
        let mut follower = UnixStream::connect(&sock).unwrap();
        follower
            .write_all(&proto::encode_frame("{\"v\":1,\"cmd\":\"follow\"}"))
            .unwrap();
        follower.set_nonblocking(true).unwrap();
        served.poll_once().unwrap();
        let events: Vec<String> = sample_input(&["alpha", "beta"], 300)
            .lines()
            .map(String::from)
            .collect();
        let (first, second) = events.split_at(400);
        let mut sender = UnixStream::connect(&sock).unwrap();
        // The rows a tick emits reach the follower after the ingests
        // behind them are journaled.
        let mut wire = Vec::new();
        for event in first {
            wire.extend_from_slice(&proto::encode_frame(event));
        }
        sender.write_all(&wire).unwrap();
        let row = poll_for_frame(&mut served, &mut follower);
        assert!(row.contains("\"row\":\"advise\""), "{row}");
        assert_eq!(journaled(), first);
        // A reply likewise follows every ingest sent before its request.
        wire.clear();
        for event in second {
            wire.extend_from_slice(&proto::encode_frame(event));
        }
        wire.extend_from_slice(&proto::encode_frame("{\"v\":1,\"cmd\":\"status\"}"));
        sender.write_all(&wire).unwrap();
        sender.set_nonblocking(true).unwrap();
        let reply = poll_for_frame(&mut served, &mut sender);
        assert!(reply.contains("\"row\":\"status\""), "{reply}");
        assert_eq!(journaled(), events);
        drop(served);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn socket_round_trip_single_threaded() {
        let dir = std::env::temp_dir().join("mnemo-serve-sock-test");
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("mnemo.sock");
        let mut served = ServeLoop::bind(&sock, small_config(), StatePolicy::default()).unwrap();
        let mut client = UnixStream::connect(&sock).unwrap();
        client.set_nonblocking(true).unwrap();
        client
            .write_all(&proto::encode_frame("{\"v\":1,\"cmd\":\"status\"}"))
            .unwrap();
        let mut buf = proto::FrameBuffer::new();
        let mut reply = None;
        for _ in 0..100 {
            served.poll_once().unwrap();
            let mut chunk = [0u8; 4096];
            match client.read(&mut chunk) {
                Ok(n) => buf.extend(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => panic!("client read: {e}"),
            }
            if let Some(frame) = buf.next_frame(1).unwrap() {
                reply = Some(frame);
                break;
            }
        }
        let reply = reply.expect("no status reply");
        assert!(reply.contains("\"row\":\"status\""), "{reply}");
        client
            .write_all(&proto::encode_frame("{\"v\":1,\"cmd\":\"shutdown\"}"))
            .unwrap();
        for _ in 0..100 {
            served.poll_once().unwrap();
            if served.is_done() {
                break;
            }
        }
        assert!(served.is_done());
        std::fs::remove_file(&sock).unwrap();
    }
}
