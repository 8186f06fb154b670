//! The serve workloads: a child `mnemo serve --socket` daemon with the
//! journal on, driven through its real framed socket by one
//! single-threaded client on one connection.
//!
//! The load is a closed loop, because ingest has no per-event ack: the
//! client writes a window of [`WINDOW`] ingest frames (plus, on some
//! workloads, an `advise`), then a `status` barrier (`snapshot` every
//! [`SNAPSHOT_EVERY`]th window). It keeps [`DEPTH`] windows outstanding:
//! it sends the next window when a barrier's reply arrives. So the
//! daemon always has a window waiting and never takes the 1 ms nap
//! `ServeLoop::run` takes when idle, and the loop measures the daemon's
//! own speed. Every frame is encoded before any daemon is spawned.
//!
//! The benchmark runs pinned to one processor, and the daemons it spawns
//! inherit the pinning, so client and daemon share it. Before each window
//! the client runs a small reference kernel there, timed in its own CPU
//! time, and the window's times are reported at the reference speed of
//! the processor they ran on (see `calib`).
//!
//! The work comes in episodes of a fixed size: a fresh daemon on an
//! empty journal is sent the same [`EPISODE_WINDOWS`] windows, then shut
//! down. Episodes repeat until `--seconds` have passed. Every episode
//! does the same work from the same start, so a faster build runs more
//! episodes but never a longer-lived daemon, whose per-window cost grows
//! with its uptime. After the last episode the daemon is restarted on
//! its journal, which it replays in full.
//!
//! The episode's frames are then replayed in-process through the same
//! public calls `ServeLoop::poll_once` makes, and every episode's advise
//! replies and final status row must match the replay's byte for byte.
//! A traced run also replays inside spans, one per layer call, which
//! gives the per-layer numbers; set against the untraced replay's busy
//! time, window by window, that gives the tracing overhead.

use crate::calib::{Reference, StealMeter};
use crate::metrics::{EndToEnd, Layers};
use crate::stats;
use crate::trace::{now, secs_since, Span, Tracer};
use crate::Outcome;
use kvsim::StoreKind;
use mnemo::advisor::{AdvisorConfig, OrderingKind};
use mnemo::ModelKind;
use mnemo_bench::perf::fnv64;
use mnemo_bench::perf::json::{self, escape, Json};
use mnemo_serve::journal::JournalWriter;
use mnemo_serve::proto::{self, FrameBuffer, Request};
use mnemo_serve::{JournalConfig, ServeConfig, ServeEngine};
use mnemo_stream::StreamConfig;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;
use ycsb::{Op, WorkloadSpec};

/// Ingest frames per window.
pub const WINDOW: usize = 256;
/// Every this many windows the barrier is a `snapshot` instead of a
/// `status`.
pub const SNAPSHOT_EVERY: usize = 64;
/// Windows the client keeps outstanding.
pub const DEPTH: usize = 2;
/// Windows per episode: 131,072 events, 32 scheduler ticks, and about
/// a second of work, so that a run holds several episodes.
pub const EPISODE_WINDOWS: usize = 512;
/// Events per episode, shared evenly among the tenants.
pub const EPISODE_EVENTS: usize = EPISODE_WINDOWS * WINDOW;
/// Set-ups per run, each timed for `setup_s`: generate and encode the
/// episode's frames, then start a daemon until it serves. One more runs
/// first, untimed, so that the daemon's binary is in the page cache.
pub const SETUPS: usize = 9;
/// Reference kernel runs before each set-up, against the noise of a
/// single run.
const SETUP_KERNELS: usize = 5;
/// Episodes a run makes at least: 1,024 windows, enough for the window
/// round trip's p99.
const MIN_EPISODES: usize = 2;
/// Traced replays of the episode: 4 x 32 ticks leave ten beyond the tick
/// span's p90.
const TRACED_REPLAYS: usize = 4;
/// How long any single socket read or daemon exit may take.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Daemon settings, passed as CLI flags to the child and mirrored in
/// [`daemon_config`] for the in-process replay. Every other flag keeps
/// its CLI default.
const EPOCH: u64 = 4_096;
const DRIFT_EPOCH: u64 = 20_000;
const BUDGET_KIB: usize = 32;
const SYNC_EVERY: u64 = 64;
const SEGMENT_KIB: u64 = 4_096;

const STATUS: &str = "{\"v\":1,\"cmd\":\"status\"}";
const SNAPSHOT: &str = "{\"v\":1,\"cmd\":\"snapshot\"}";
const SHUTDOWN: &str = "{\"v\":1,\"cmd\":\"shutdown\"}";

/// A serve traffic mix.
#[derive(Debug, Clone)]
pub struct ServeWorkload {
    /// Tenant streams, interleaved round-robin event by event. The
    /// tenant name is the spec's name.
    pub tenants: Vec<WorkloadSpec>,
    /// Every this many windows carry an `advise` for the next tenant in
    /// turn, placed before the barrier.
    pub advise_every: Option<usize>,
}

/// `serve-ingest`: one `trending` tenant, 20k keys, an episode's events.
pub fn ingest() -> ServeWorkload {
    ServeWorkload {
        tenants: vec![WorkloadSpec::trending().scaled(20_000, EPISODE_EVENTS)],
        advise_every: None,
    }
}

/// `serve-mixed`: eight tenants, 20k keys and an eighth of an episode's
/// events each, with an `advise` in every 4th window.
pub fn mixed() -> ServeWorkload {
    let tenants = [
        WorkloadSpec::trending(),
        WorkloadSpec::news_feed(),
        WorkloadSpec::timeline(),
        WorkloadSpec::edit_thumbnail(),
        WorkloadSpec::trending_preview(),
        WorkloadSpec::ycsb_a(),
        WorkloadSpec::ycsb_b(),
        WorkloadSpec::ycsb_d(),
    ];
    ServeWorkload {
        tenants: tenants
            .iter()
            .map(|w| w.scaled(20_000, EPISODE_EVENTS / tenants.len()))
            .collect(),
        advise_every: Some(4),
    }
}

/// The engine configuration the daemon flags produce.
pub fn daemon_config() -> ServeConfig {
    let mut stream = StreamConfig::with_budget_bytes(BUDGET_KIB * 1024);
    stream.drift.epoch_len = DRIFT_EPOCH;
    ServeConfig {
        store: StoreKind::Redis,
        slo: 0.10,
        advisor: AdvisorConfig {
            price_factor: 0.20,
            ordering: OrderingKind::MnemoT,
            model: ModelKind::GlobalAverage,
            ..AdvisorConfig::default()
        },
        stream,
        tick_events: EPOCH,
        ..ServeConfig::default()
    }
}

fn journal_config() -> JournalConfig {
    JournalConfig {
        segment_bytes: SEGMENT_KIB * 1024,
        sync_every: SYNC_EVERY,
    }
}

fn daemon_flags() -> Vec<String> {
    let flags = [
        ("--jobs", "1".to_string()),
        ("--epoch", EPOCH.to_string()),
        ("--drift-epoch", DRIFT_EPOCH.to_string()),
        ("--budget-kib", BUDGET_KIB.to_string()),
        ("--journal-sync-every", SYNC_EVERY.to_string()),
        ("--journal-segment-kib", SEGMENT_KIB.to_string()),
    ];
    flags
        .into_iter()
        .flat_map(|(k, v)| [k.to_string(), v])
        .collect()
}

/// One pre-encoded window.
#[derive(Debug, Clone)]
pub struct Window {
    /// The framed bytes, written with one `write_all`.
    pub bytes: Vec<u8>,
    /// Ingest events in the window.
    pub events: u64,
    /// Whether an `advise` precedes the barrier.
    pub advise: bool,
    /// Whether the barrier is a `snapshot` (else `status`).
    pub snapshot: bool,
}

/// Generate the tenant traces from `seed` and encode every window. This
/// is the client's own set-up, outside every measurement.
pub fn plan(w: &ServeWorkload, seed: u64) -> Vec<Window> {
    let traces: Vec<ycsb::Trace> = w
        .tenants
        .iter()
        .map(|spec| spec.generate(mnemo_bench::seed_for(&format!("{}#{seed}", spec.name))))
        .collect();
    let names: Vec<String> = w.tenants.iter().map(|s| escape(&s.name)).collect();
    let longest = traces.iter().map(|tr| tr.len()).max().unwrap_or(0);
    let (traces, names_ref) = (&traces, &names);
    let mut events = (0..longest)
        .flat_map(|i| {
            traces
                .iter()
                .zip(names_ref)
                .filter_map(move |(trace, name)| {
                    let r = trace.requests.get(i)?;
                    let op = match r.op {
                        Op::Read => "read",
                        Op::Update => "update",
                    };
                    Some(format!(
                        "{{\"v\":1,\"tenant\":\"{name}\",\"key\":{},\"op\":\"{op}\",\"bytes\":{}}}",
                        r.key, trace.sizes[r.key as usize]
                    ))
                })
        })
        .peekable();
    let mut windows = Vec::new();
    let mut advised = 0usize;
    while events.peek().is_some() {
        let i = windows.len();
        let (mut bytes, mut count) = (Vec::new(), 0u64);
        for event in events.by_ref().take(WINDOW) {
            bytes.extend(proto::encode_frame(&event));
            count += 1;
        }
        let advise = w.advise_every.is_some_and(|k| i % k == k - 1);
        if advise {
            let tenant = &names[advised % names.len()];
            advised += 1;
            bytes.extend(proto::encode_frame(&format!(
                "{{\"v\":1,\"cmd\":\"advise\",\"tenant\":\"{tenant}\"}}"
            )));
        }
        let snapshot = i % SNAPSHOT_EVERY == SNAPSHOT_EVERY - 1;
        bytes.extend(proto::encode_frame(if snapshot {
            SNAPSHOT
        } else {
            STATUS
        }));
        windows.push(Window {
            bytes,
            events: count,
            advise,
            snapshot,
        });
    }
    windows
}

/// One client connection speaking the framed protocol.
pub struct Conn {
    stream: UnixStream,
    buf: FrameBuffer,
    frames: usize,
}

impl Conn {
    /// Connect to a bound socket.
    pub fn connect(sock: &Path) -> Result<Conn, String> {
        let stream = UnixStream::connect(sock)
            .map_err(|e| format!("cannot connect to {}: {e}", sock.display()))?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| format!("cannot set a read timeout: {e}"))?;
        Ok(Conn {
            stream,
            buf: FrameBuffer::new(),
            frames: 0,
        })
    }

    fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(bytes)
            .map_err(|e| format!("socket write failed: {e}"))
    }

    /// The next reply frame.
    fn recv(&mut self) -> Result<String, String> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(frame) = self
                .buf
                .next_frame(self.frames + 1)
                .map_err(|e| e.to_string())?
            {
                self.frames += 1;
                return Ok(frame);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("the daemon closed the connection".into()),
                Ok(n) => self.buf.extend(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("socket read failed: {e}")),
            }
        }
    }

    /// Send one request and wait for its reply.
    pub fn request(&mut self, payload: &str) -> Result<String, String> {
        self.send(&proto::encode_frame(payload))?;
        self.recv()
    }

    /// Ask the daemon to stop (no reply is sent).
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.send(&proto::encode_frame(SHUTDOWN))
    }
}

fn parse_row(row: &str) -> Result<Json, String> {
    json::parse(row).map_err(|e| format!("unparsable reply `{row}`: {e}"))
}

fn row_kind(row: &Json) -> Result<&str, String> {
    row.field("row", "reply")?.str("reply row")
}

/// Check a barrier reply against the events sent so far.
fn check_barrier(row: &str, snapshot: bool, events: u64) -> Result<(), String> {
    let v = parse_row(row)?;
    let (want, offered) = if snapshot {
        // A snapshot folds completed ticks only.
        let counters = v.field("counters", "snapshot")?;
        let offered = counters
            .field("serve.ingest.offered", "snapshot counters")?
            .u64("offered")?;
        (("snapshot", events / EPOCH * EPOCH), offered)
    } else {
        (
            ("status", events),
            v.field("offered", "status")?.u64("offered")?,
        )
    };
    let kind = row_kind(&v)?;
    if kind != want.0 || offered != want.1 {
        return Err(format!(
            "barrier reply `{kind}` reports {offered} offered events, expected a `{}` with {}",
            want.0, want.1
        ));
    }
    Ok(())
}

/// What the client saw over the socket in one episode.
#[derive(Debug, Default)]
pub struct SocketRun {
    /// Windows sent (each acknowledged by its barrier).
    pub windows: usize,
    /// Ingest events sent.
    pub events: u64,
    /// Window round trips, in ms: first byte written until the barrier
    /// reply.
    pub ack_ms: Vec<f64>,
    /// Per window, the factor that adjusts its times (see `calib`): the
    /// speed factor `drive` measured, times the share of the episode's
    /// time the host did not steal once `run` has measured it.
    pub scales: Vec<f64>,
    /// Advise round trips, in ms: the window's first byte until the
    /// reply.
    pub advise_ms: Vec<f64>,
    /// Advise replies, in order.
    pub advise_rows: Vec<String>,
    /// Wall time of the window loop, in seconds.
    pub wall_s: f64,
    /// The same at the reference speed: each span between two barrier
    /// replies scaled by its window's speed factor.
    pub ref_wall_s: f64,
    /// Replies checked, and how many failed their check.
    pub checked: u64,
    /// See `checked`.
    pub failed: u64,
    /// FNV-64 over every reply.
    pub digest: u64,
    /// The `status` reply after the last window.
    pub final_status: String,
}

impl SocketRun {
    fn note(&mut self, check: Result<(), String>) {
        self.checked += 1;
        if let Err(e) = check {
            eprintln!("check failed: {e}");
            self.failed += 1;
        }
    }

    fn fold(&mut self, row: &str) {
        self.digest = fnv64(format!("{:016x}|{row}", self.digest).as_bytes());
    }
}

/// The closed loop over every window of `plan`, [`DEPTH`] windows
/// outstanding, then a final status. Each window is sent right after a
/// run of `r`'s small kernel.
pub fn drive(conn: &mut Conn, plan: &[Window], r: &mut Reference) -> Result<SocketRun, String> {
    let mut run = SocketRun::default();
    // When each window was sent, and the events sent up to and with it.
    let mut sent = Vec::with_capacity(plan.len());
    let start = now();
    let mut last_reply = start;
    for (k, window) in plan.iter().enumerate() {
        for next in &plan[sent.len()..plan.len().min(k + DEPTH)] {
            run.scales.push(r.window_scale());
            let t0 = now();
            conn.send(&next.bytes)?;
            run.events += next.events;
            sent.push((t0, run.events));
        }
        let (t0, events) = sent[k];
        if window.advise {
            let row = conn.recv()?;
            run.advise_ms.push(secs_since(t0) * 1e3);
            let kind = parse_row(&row).and_then(|v| row_kind(&v).map(str::to_string));
            run.note(match kind {
                Ok(k) if k == "advise" => Ok(()),
                Ok(k) => Err(format!("advise answered with a `{k}` row: {row}")),
                Err(e) => Err(e),
            });
            run.fold(&row);
            run.advise_rows.push(row);
        }
        let row = conn.recv()?;
        let reply = now();
        run.ack_ms
            .push(reply.duration_since(t0).as_secs_f64() * 1e3);
        run.ref_wall_s += reply.duration_since(last_reply).as_secs_f64() * run.scales[k];
        last_reply = reply;
        run.note(check_barrier(&row, window.snapshot, events));
        run.fold(&row);
        run.windows += 1;
    }
    run.wall_s = secs_since(start);
    run.final_status = conn.request(STATUS)?;
    Ok(run)
}

/// What the in-process replay produced.
#[derive(Debug, Default)]
pub struct Replayed {
    /// Advise replies, in order.
    pub advise_rows: Vec<String>,
    /// The final `status` row.
    pub final_status: String,
    /// Busy time replaying the windows (final status excluded), in
    /// seconds.
    pub busy_s: f64,
    /// Heap allocations over the same time.
    pub allocs: u64,
    /// Journal bytes on disk afterwards.
    pub journal_bytes: u64,
    /// Re-plan rows emitted, and how many changed the tenant's grant.
    pub replan_rows: u64,
    /// See `replan_rows`.
    pub replan_changed: u64,
    /// Error rows the replay produced (none are expected).
    pub errors: u64,
    /// FNV-64 over the rows the engine emitted to followers (advise at
    /// drift epochs, re-plan grants): these depend on the events'
    /// content, the replies mostly on their count.
    pub digest: u64,
}

/// An in-process replay of a socket run, window by window, through the
/// calls `ServeLoop::poll_once` makes for each frame, journaling into a
/// directory of its own.
pub struct Replayer {
    engine: ServeEngine,
    writer: JournalWriter,
    dir: PathBuf,
    buf: FrameBuffer,
    frames_seen: usize,
    windows: usize,
    grants: BTreeMap<String, u64>,
    emitted: Vec<String>,
    out: Replayed,
}

impl Replayer {
    /// A fresh engine with the daemon's configuration, journaling into
    /// `journal_dir` (which must not exist yet).
    pub fn new(journal_dir: &Path) -> Result<Replayer, String> {
        Ok(Replayer {
            engine: ServeEngine::new(daemon_config()).map_err(|e| e.to_string())?,
            writer: JournalWriter::open(journal_dir, journal_config(), 1, None)
                .map_err(|e| e.to_string())?,
            dir: journal_dir.to_path_buf(),
            buf: FrameBuffer::new(),
            frames_seen: 0,
            windows: 0,
            grants: BTreeMap::new(),
            emitted: Vec::new(),
            out: Replayed::default(),
        })
    }

    /// Replay the next window, inside spans when `t` is on.
    pub fn window(&mut self, window: &Window, t: &mut Tracer) -> Result<(), String> {
        t.request(self.windows as u64);
        self.windows += 1;
        let allocs0 = mnemo_bench::alloc_track::allocation_counts().0;
        let t0 = now();
        t.begin();
        self.buf.extend(&window.bytes);
        loop {
            t.begin();
            let next = self
                .buf
                .next_frame(self.frames_seen + 1)
                .map_err(|e| e.to_string())?;
            let request = next.map(|frame| {
                self.frames_seen += 1;
                (proto::parse_request(&frame, self.frames_seen), frame)
            });
            t.end(Span::ServeDecode);
            let Some((request, frame)) = request else {
                break;
            };
            let engine = &mut self.engine;
            let reply = match request.map_err(|e| e.to_string())? {
                Request::Ingest(event) => {
                    append(t, &mut self.writer, engine, &frame)?;
                    t.begin();
                    let ticks = engine.ticks();
                    let rows = engine.ingest(event).map_err(|e| e.to_string())?;
                    t.end(if engine.ticks() == ticks {
                        Span::ServeAdmit
                    } else {
                        Span::ServeTick
                    });
                    self.emitted.extend(rows);
                    None
                }
                Request::Advise { tenant } => {
                    append(t, &mut self.writer, engine, &frame)?;
                    let row = t.span(Span::ServeAdvise, || engine.advise_now(&tenant));
                    self.out.advise_rows.push(row.clone());
                    Some(row)
                }
                Request::Status => Some(t.span(Span::ServeStatus, || engine.status_row())),
                Request::Snapshot => Some(t.span(Span::ServeStatus, || engine.snapshot_row())),
                other => return Err(format!("unexpected request in the plan: {other:?}")),
            };
            if let Some(row) = reply {
                std::hint::black_box(t.span(Span::ServeEncode, || proto::encode_frame(&row)));
            }
        }
        t.end(Span::ServeWindow);
        self.out.busy_s += secs_since(t0);
        self.out.allocs += mnemo_bench::alloc_track::allocation_counts().0 - allocs0;
        for row in self.emitted.drain(..) {
            tally(&mut self.out, &mut self.grants, &row)?;
            self.out.digest = fnv64(format!("{:016x}|{row}", self.out.digest).as_bytes());
        }
        Ok(())
    }

    /// The final status and journal size; deletes the journal.
    pub fn finish(mut self) -> Result<Replayed, String> {
        self.out.final_status = self.engine.status_row();
        self.out.journal_bytes = dir_bytes(&self.dir)?;
        remove(&self.dir)?;
        Ok(self.out)
    }
}

/// Journal a request before it is applied, as the socket loop does.
fn append(
    t: &mut Tracer,
    writer: &mut JournalWriter,
    engine: &mut ServeEngine,
    frame: &str,
) -> Result<(), String> {
    t.begin();
    let synced = writer.synced_seq();
    let seq = writer
        .append(engine.now_ns(), frame)
        .map_err(|e| e.to_string())?;
    t.end(if writer.synced_seq() == synced {
        Span::ServeJournal
    } else {
        Span::ServeFsync
    });
    engine.set_journal_seq(seq);
    Ok(())
}

/// Count re-plan grant changes and error rows among emitted rows.
fn tally(out: &mut Replayed, grants: &mut BTreeMap<String, u64>, row: &str) -> Result<(), String> {
    let v = parse_row(row)?;
    match row_kind(&v)? {
        "replan" => {
            let tenant = v.field("tenant", "replan")?.str("tenant")?.to_string();
            let bytes = v.field("fast_bytes", "replan")?.u64("fast_bytes")?;
            out.replan_rows += 1;
            if grants.insert(tenant, bytes) != Some(bytes) {
                out.replan_changed += 1;
            }
        }
        "error" => out.errors += 1,
        _ => {}
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let err = |e: std::io::Error| format!("cannot list {}: {e}", dir.display());
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(err)? {
        total += entry.map_err(err)?.metadata().map_err(err)?.len();
    }
    Ok(total)
}

/// Compare the socket run with a replay of the same frames; returns the
/// number of checks made and failed.
pub fn check_replay(run: &SocketRun, rep: &Replayed) -> (u64, u64) {
    let mut failed = 0;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            eprintln!("check failed: {what}");
            failed += 1;
        }
    };
    check(rep.errors == 0, "the replay produced error rows");
    check(
        run.advise_rows == rep.advise_rows,
        "socket advise replies differ from the in-process replay's",
    );
    check(
        run.final_status == rep.final_status,
        "socket final status differs from the in-process replay's",
    );
    (3, failed)
}

/// A child daemon; killed and reaped if dropped while running.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    sock: PathBuf,
}

impl Daemon {
    /// Spawn `mnemo serve --socket` with its socket and journal in `dir`
    /// and wait until it announces it is serving, which it does once the
    /// socket is bound and the journal replayed. Returns the daemon and
    /// the seconds that took.
    fn start(mnemo: &Path, dir: &Path) -> Result<(Daemon, f64), String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let sock = dir.join("s.sock");
        let t0 = now();
        let mut child = Command::new(mnemo)
            .arg("serve")
            .arg("--socket")
            .arg(&sock)
            .arg("--journal")
            .arg(dir.join("journal"))
            .args(daemon_flags())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", mnemo.display()))?;
        let stdout = child.stdout.take().ok_or("the daemon has no stdout")?;
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(stdout),
            sock,
        };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("cannot read the daemon's stdout: {e}"))?;
        let secs = secs_since(t0);
        if !line.starts_with("serving on ") {
            let mut stderr = String::new();
            if let Some(mut err) = daemon.child.stderr.take() {
                let _ = err.read_to_string(&mut stderr);
            }
            return Err(format!("the daemon did not start: {line}{stderr}"));
        }
        Ok((daemon, secs))
    }

    /// The child's peak resident set (`VmHWM`), in KiB.
    fn peak_rss_kib(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("{path} has no VmHWM"))
    }

    /// Send `shutdown` and wait for a clean exit.
    fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        conn.shutdown()?;
        let t0 = now();
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if secs_since(t0) > IO_TIMEOUT.as_secs_f64() => {
                    return Err("the daemon did not exit after shutdown".into())
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("cannot wait for the daemon: {e}")),
            }
        };
        let mut stdout = String::new();
        let mut stderr = String::new();
        let _ = self.stdout.read_to_string(&mut stdout);
        if let Some(mut err) = self.child.stderr.take() {
            let _ = err.read_to_string(&mut stderr);
        }
        if !status.success() || !stdout.contains("shutdown after") {
            return Err(format!("the daemon exited with {status}: {stderr}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reaps a daemon left running by an error path; after a clean
        // shutdown both calls are harmless no-ops.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn remove(dir: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))
}

/// Run a serve workload against the `mnemo` binary at `mnemo`, keeping
/// sockets and journals under `work`.
///
/// Everything runs on processor `cpu`, this process and its daemons: the
/// set-ups, timed after full reference kernels, and the windows, each
/// timed after a small one. The steal time over all set-ups, and over
/// each episode, scales their times (see `calib`).
pub fn run(
    w: &ServeWorkload,
    mnemo: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
    cpu: usize,
) -> Result<Outcome, String> {
    let mut t = Tracer::new(trace);
    let mut r = Reference::default();
    let mut e2e = EndToEnd::default();
    let mut layers = Layers::default();
    let (mut setup_raw, mut start_s) = (Vec::new(), Vec::new());
    let dir = work.join("daemon");
    let mut windows = Vec::new();
    let steal = StealMeter::start(cpu)?;
    for i in 0..=SETUPS {
        windows.clear();
        let before = r.scale(SETUP_KERNELS);
        let t0 = now();
        windows = plan(w, seed);
        let (daemon, secs) = Daemon::start(mnemo, &dir)?;
        let setup = secs_since(t0);
        // The processor may change speed within the set-up's tens of
        // milliseconds: take its speed on both sides.
        let scale = (before + r.scale(SETUP_KERNELS)) / 2.0;
        if i > 0 {
            e2e.setup_s.push(setup * scale);
            setup_raw.push(setup);
            start_s.push(secs);
        }
        let mut conn = Conn::connect(&daemon.sock)?;
        daemon.shutdown(&mut conn)?;
        remove(&dir)?;
    }
    let kept = steal.kept()?;
    e2e.setup_s.iter_mut().for_each(|s| *s *= kept);

    let mut episodes: Vec<SocketRun> = Vec::new();
    let mut raw = EndToEnd {
        setup_s: setup_raw,
        ..EndToEnd::default()
    };
    let start = now();
    loop {
        let (daemon, secs) = Daemon::start(mnemo, &dir)?;
        start_s.push(secs);
        let mut conn = Conn::connect(&daemon.sock)?;
        let steal = StealMeter::start(cpu)?;
        let mut run = drive(&mut conn, &windows, &mut r)?;
        let kept = steal.kept()?;
        run.scales.iter_mut().for_each(|s| *s *= kept);
        if episodes.is_empty() {
            e2e.peak_rss_kib = daemon.peak_rss_kib()?;
        }
        daemon.shutdown(&mut conn)?;
        let scaled = run.ack_ms.iter().zip(&run.scales).map(|(ms, s)| ms * s);
        e2e.op_ms.extend(scaled);
        e2e.work_per_s
            .push(run.events as f64 / (run.ref_wall_s * kept));
        raw.op_ms.extend(&run.ack_ms);
        raw.work_per_s.push(run.events as f64 / run.wall_s);
        episodes.push(run);
        if episodes.len() >= MIN_EPISODES && secs_since(start) >= seconds {
            // The last episode's journal stays for the restart.
            break;
        }
        remove(&dir)?;
    }
    let last = episodes.last().ok_or("no episode ran")?;

    let (daemon, recover_s) = Daemon::start(mnemo, &dir)?;
    let mut conn = Conn::connect(&daemon.sock)?;
    let status = parse_row(&conn.request(STATUS)?)?;
    let offered = status.field("offered", "status")?.u64("offered")?;
    let restarted_ok = offered == last.events;
    if !restarted_ok {
        eprintln!(
            "check failed: the restarted daemon reports {offered} offered events, {} were sent",
            last.events
        );
    }
    daemon.shutdown(&mut conn)?;
    remove(&dir)?;
    let (mut checked, mut failed) = (1, u64::from(!restarted_ok));

    // A traced run replays twice, window by window in alternating order,
    // so that drifts in the host's speed fall on both replays alike; more
    // traced replays then add samples to the layers' tails.
    let mut plain = Replayer::new(&work.join("replay"))?;
    let mut traced = if trace {
        Some(Replayer::new(&work.join("replay-traced"))?)
    } else {
        None
    };
    let mut off = Tracer::new(false);
    for (i, window) in windows.iter().enumerate() {
        match traced.as_mut() {
            None => plain.window(window, &mut off)?,
            Some(traced) if i % 2 == 0 => {
                plain.window(window, &mut off)?;
                traced.window(window, &mut t)?;
            }
            Some(traced) => {
                traced.window(window, &mut t)?;
                plain.window(window, &mut off)?;
            }
        }
    }
    let plain = plain.finish()?;
    let mut replays = vec![plain];
    if let Some(traced) = traced {
        let traced = traced.finish()?;
        layers.overhead_frac = traced.busy_s / replays[0].busy_s - 1.0;
        layers.wall_s = traced.busy_s;
        replays.push(traced);
        for i in 1..TRACED_REPLAYS {
            let mut again = Replayer::new(&work.join(format!("replay-traced-{i}")))?;
            for window in &windows {
                again.window(window, &mut t)?;
            }
            let again = again.finish()?;
            layers.wall_s += again.busy_s;
            replays.push(again);
        }
    }
    for run in &episodes {
        for rep in &replays {
            let (c, f) = check_replay(run, rep);
            checked += c;
            failed += f;
        }
    }
    let plain = &replays[0];
    for run in &episodes {
        checked += run.checked;
        failed += run.failed;
    }

    let events = EPISODE_EVENTS as f64;
    let acks = &e2e.op_ms;
    // Advise round trips at the reference speed of their windows.
    let advised: Vec<usize> = (0..windows.len()).filter(|&k| windows[k].advise).collect();
    let advises: Vec<f64> = episodes
        .iter()
        .flat_map(|e| {
            e.advise_ms
                .iter()
                .zip(&advised)
                .map(|(ms, &k)| ms * e.scales[k])
        })
        .collect();
    layers.journal_bytes_per_event = plain.journal_bytes as f64 / events;
    layers.allocs_per_event = plain.allocs as f64 / events;
    layers.replan_changed_frac = plain.replan_changed as f64 / plain.replan_rows.max(1) as f64;
    layers.recover_s = recover_s;
    layers.start_s = stats::median(&start_s);
    layers.ack_p99_ms = stats::tail(acks, 0.99)?;
    if !advises.is_empty() {
        layers.advise_rtt_p50_ms = stats::median(&advises);
        layers.advise_rtt_p90_ms = stats::tail(&advises, 0.90)?;
    }
    layers.ref_kernel_s = r.kernel_times().to_vec();
    let info = vec![
        format!(
            "samples episodes={} windows={} events={} advises={} setups={} reference_kernels={}",
            episodes.len(),
            acks.len(),
            episodes.iter().map(|e| e.events).sum::<u64>(),
            advises.len(),
            e2e.setup_s.len(),
            r.kernel_times().len()
        ),
        format!("recover_s {recover_s}"),
        format!("replay busy_s {}", plain.busy_s),
        raw.summary()?,
        format!(
            "reference kernel p50_us {} small_p50_us {}",
            stats::median(r.kernel_times()) * 1e6,
            stats::median(r.small_kernel_times()) * 1e6
        ),
    ];
    Ok(Outcome {
        attempted: checked,
        failed,
        digest: fnv64(format!("{:016x}|{:016x}", episodes[0].digest, plain.digest).as_bytes()),
        e2e,
        layers,
        tracer: t,
        info,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnemo_serve::{JournalPolicy, ServeLoop, StatePolicy};

    fn tiny() -> ServeWorkload {
        ServeWorkload {
            tenants: vec![
                WorkloadSpec::trending().scaled(300, 6_000),
                WorkloadSpec::ycsb_a().scaled(300, 6_000),
            ],
            advise_every: Some(4),
        }
    }

    fn replay(plan: &[Window], journal_dir: &Path, t: &mut Tracer) -> Replayed {
        let mut replayer = Replayer::new(journal_dir).unwrap();
        for window in plan {
            replayer.window(window, t).unwrap();
        }
        replayer.finish().unwrap()
    }

    #[test]
    fn an_episode_is_full_windows_on_every_workload() {
        for w in [ingest(), mixed()] {
            let plan = plan(&w, 1);
            assert_eq!(plan.len(), EPISODE_WINDOWS);
            assert!(plan.iter().all(|win| win.events == WINDOW as u64));
            assert_eq!(plan.iter().filter(|win| win.snapshot).count(), 8);
        }
    }

    #[test]
    fn socket_run_against_an_in_process_serve_loop_matches_its_replays() {
        let work =
            std::env::temp_dir().join(format!("mnemo-benchmark-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).unwrap();
        let plan = plan(&tiny(), 7);
        assert_eq!(plan.len(), 12_000 / WINDOW + 1);
        let sock = work.join("s.sock");
        let state = StatePolicy {
            journal: Some(JournalPolicy {
                dir: work.join("journal"),
                config: journal_config(),
            }),
            ..StatePolicy::default()
        };
        let mut served = ServeLoop::bind(&sock, daemon_config(), state).unwrap();
        let server = std::thread::spawn(move || served.run().map(|_| ()));
        let mut conn = Conn::connect(&sock).unwrap();
        let run = drive(&mut conn, &plan, &mut Reference::default()).unwrap();
        conn.shutdown().unwrap();
        server.join().unwrap().unwrap();
        assert_eq!((run.windows, run.events), (plan.len(), 12_000));
        assert_eq!(run.failed, 0, "barrier and advise checks");
        assert_eq!(run.advise_rows.len(), plan.len() / 4);

        let plain = replay(&plan, &work.join("r1"), &mut Tracer::new(false));
        let mut t = Tracer::new(true);
        let traced = replay(&plan, &work.join("r2"), &mut t);
        assert_eq!(check_replay(&run, &plain), (3, 0));
        assert_eq!(check_replay(&run, &traced), (3, 0));
        assert_eq!(t.agg(Span::ServeWindow).calls, plan.len() as u64);
        assert_eq!(
            t.agg(Span::ServeAdmit).calls + t.agg(Span::ServeTick).calls,
            12_000
        );
        assert_eq!(t.agg(Span::ServeTick).calls, 12_000 / EPOCH);
        assert!(t.agg(Span::ServeFsync).calls >= 12_000 / SYNC_EVERY);
        assert!(plain.replan_rows > 0 && plain.journal_bytes > 12_000 * 20);
        std::fs::remove_dir_all(&work).unwrap();
    }
}
