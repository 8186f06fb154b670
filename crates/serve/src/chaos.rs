//! Deterministic kill/restart chaos harness for the durable daemon.
//!
//! The harness drives a replay input through the daemon's own
//! [`Session`] (write-ahead append, apply, a dump where a due tick
//! ends), kills it at seeded event indices — including a mid-dump point
//! (the session's due dump leaves a partial temp file and no rename)
//! and a mid-segment-rotation point — applies the active storage fault
//! effects to the persisted bytes (`torn_write` cuts the unsynced
//! records at a seeded point, then either truncates the file there or
//! zeroes the rest of the records, `bit_flip` flips one persisted
//! journal bit, `dump_corrupt` flips one state-dump bit), restarts
//! through [`Session::start`] as the daemon does, and resends the input
//! from the recovered sequence (an at-least-once client).
//!
//! Convergence is exact, not approximate: the state dump covers
//! sequences `1..=w`, the journal tail replays `w+1..=s`, and the
//! resend covers `s+1..=n`, so every request is applied exactly once in
//! order regardless of where the kills landed or which bytes were lost.
//! [`run_chaos`] byte-diffs the final transcript and final state dump
//! against an uninterrupted golden run of the same input and reports
//! any divergence; `crates/cli/tests/serve_gates.rs` gates on that
//! report.

use crate::engine::ServeConfig;
use crate::journal::{self, JournalConfig};
use crate::proto::{self, Request, ServeError};
use crate::{state, JournalPolicy, Session, StatePolicy};
use mnemo_faults::StorageFaults;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The harness's own seeded draws (kill indices, crash-effect byte
/// positions). Independent of the fault plan seed so the same fault
/// plan can be exercised under many kill schedules.
#[derive(Debug, Clone, Copy)]
struct ChaosRng {
    seed: u64,
}

impl ChaosRng {
    fn draw(&self, salt: u64, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        splitmix64(self.seed ^ splitmix64(salt)) % bound
    }
}

/// Chaos harness configuration.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for the kill schedule and crash-effect draws.
    pub seed: u64,
    /// Kill count (the mid-dump and mid-rotation points count toward
    /// it; at least those two always run when the input produces them).
    pub kills: usize,
    /// Dump every N scheduler ticks.
    pub every_ticks: u64,
    /// Journal sizing; the default uses small segments and a relaxed
    /// sync cadence so rotations and torn writes actually happen within
    /// test-sized inputs.
    pub journal: JournalConfig,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 7,
            kills: 8,
            every_ticks: 1,
            journal: JournalConfig {
                segment_bytes: 8 * 1024,
                sync_every: 4,
            },
        }
    }
}

/// How a scheduled kill strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillKind {
    /// Kill right after the event is applied.
    Seeded,
    /// Kill halfway through the state dump that event triggers (the
    /// temp sibling holds a prefix, the rename never happens).
    MidDump,
    /// Kill right after the event whose append rotated the segment.
    MidRotation,
}

impl KillKind {
    fn name(&self) -> &'static str {
        match self {
            KillKind::Seeded => "seeded",
            KillKind::MidDump => "mid_dump",
            KillKind::MidRotation => "mid_rotation",
        }
    }
}

/// What a `torn_write` power cut did to the unsynced records at a kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornEffect {
    /// No torn write struck, or every record was durable.
    None,
    /// The file ends at a seeded point in the unsynced records: the cut
    /// lost the file size too.
    Truncated,
    /// The unsynced records are zeroed from a seeded point to their end
    /// and the file keeps its length: the size (with a runway past the
    /// records) was durable, only part of the data was not.
    Zeroed,
}

impl TornEffect {
    fn name(&self) -> &'static str {
        match self {
            TornEffect::None => "none",
            TornEffect::Truncated => "truncated",
            TornEffect::Zeroed => "zeroed",
        }
    }
}

/// One kill and the recovery that followed it.
#[derive(Debug, Clone)]
pub struct KillReport {
    /// Input index the session was killed at.
    pub index: usize,
    /// How it struck.
    pub kind: KillKind,
    /// What a torn write did to the journal's unsynced records.
    pub torn: TornEffect,
    /// Input index the restarted session resumed from.
    pub resumed_at: usize,
    /// Journal records replayed during the restart.
    pub replayed: u64,
    /// Torn tail records truncated during the restart.
    pub truncated: u64,
    /// Journal segments quarantined during the restart.
    pub quarantined: u64,
    /// Whether the state dump was rejected as corrupt (degraded to a
    /// full journal replay).
    pub dump_corrupt: bool,
}

/// The harness verdict.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Durable requests driven through both runs.
    pub events: usize,
    /// Every kill, in execution order.
    pub kills: Vec<KillReport>,
    /// Final chaos transcript == golden transcript, byte for byte.
    pub transcript_identical: bool,
    /// Final chaos state dump == golden state dump, byte for byte.
    pub state_identical: bool,
    /// Quarantined segments counted across every restart.
    pub quarantined_total: u64,
    /// `*.quarantined` files actually present in the journal directory
    /// afterwards — must equal `quarantined_total` (no silent leaks).
    pub quarantine_files: u64,
    /// The golden transcript (for diffing on failure).
    pub golden_transcript: String,
    /// The chaos-run transcript.
    pub final_transcript: String,
}

impl ChaosReport {
    /// The gate the CLI and CI enforce: byte-identical convergence and
    /// fully accounted quarantines.
    pub fn converged(&self) -> bool {
        self.transcript_identical
            && self.state_identical
            && self.quarantine_files == self.quarantined_total
    }

    /// One deterministic JSON row summarising the run.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{{\"v\":1,\"row\":\"chaos\",\"events\":{},\"restarts\":{},\"kills\":[",
            self.events,
            self.kills.len()
        );
        for (i, k) in self.kills.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                concat!(
                    "{{\"index\":{},\"kind\":\"{}\",\"torn\":\"{}\",\"resumed_at\":{},",
                    "\"replayed\":{},\"truncated\":{},\"quarantined\":{},\"dump_corrupt\":{}}}"
                ),
                k.index,
                k.kind.name(),
                k.torn.name(),
                k.resumed_at,
                k.replayed,
                k.truncated,
                k.quarantined,
                k.dump_corrupt,
            );
        }
        let _ = write!(
            out,
            concat!(
                "],\"transcript_identical\":{},\"state_identical\":{},",
                "\"quarantined_total\":{},\"quarantine_files\":{},\"converged\":{}}}"
            ),
            self.transcript_identical,
            self.state_identical,
            self.quarantined_total,
            self.quarantine_files,
            self.converged(),
        );
        out
    }
}

/// Parse the replay input down to its durable requests (ingest and
/// advise — the requests the daemon journals). `shutdown` truncates the
/// input; read-only commands are skipped.
fn durable_requests(input: &str) -> Result<Vec<String>, ServeError> {
    let mut requests = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match proto::parse_request(line, i + 1)? {
            Request::Ingest(_) | Request::Advise { .. } => requests.push(line.to_string()),
            Request::Shutdown => break,
            Request::Status | Request::Snapshot | Request::Follow => {}
        }
    }
    Ok(requests)
}

/// Die halfway through [`state::write_atomic`]: the temp sibling holds
/// a prefix of the dump, the rename never happens, the previous dump
/// stays intact.
fn write_half(path: &Path, content: &str) -> Result<(), ServeError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, &content.as_bytes()[..content.len() / 2])
        .map_err(|e| ServeError::Io(format!("cannot write '{}': {e}", tmp.display())))
}

/// A finished session chain: per-event transcript slots plus the golden
/// schedule anchors.
struct ChainOutcome {
    slots: Vec<Vec<String>>,
    kills: Vec<KillReport>,
    quarantined_total: u64,
    first_dump: Option<usize>,
    first_rotation: Option<usize>,
}

/// Simulate the storage faults active at crash time against the bytes
/// on disk. Pure process kills lose nothing (the page cache survives a
/// process); these effects model the power-loss cases. `tail` is the
/// live segment, durable up to `synced` bytes, with records up to
/// `record_end`.
fn apply_crash_effects(
    journal_dir: &Path,
    state_path: &Path,
    (tail, synced, record_end): (PathBuf, u64, u64),
    now_ns: u128,
    faults: &StorageFaults,
    rng: ChaosRng,
    kill_ordinal: u64,
) -> Result<TornEffect, ServeError> {
    let salt = kill_ordinal.wrapping_mul(11_400_714_819_323_198_485);
    let io = |what: &str, p: &Path, e: std::io::Error| {
        ServeError::Io(format!("{what} '{}': {e}", p.display()))
    };
    let mut torn = TornEffect::None;
    if faults.torn_write_at(now_ns) && record_end > synced && tail.exists() {
        // Power loss: records past the last fsync may vanish. Cut them
        // at a seeded point (at their end, nothing is lost). Zeroing
        // needs zeros past the records, as the runway leaves them, so a
        // segment without one is always truncated.
        let cut = synced + rng.draw(salt ^ 1, record_end - synced + 1);
        let len = std::fs::metadata(&tail)
            .map_err(|e| io("cannot stat", &tail, e))?
            .len();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&tail)
            .map_err(|e| io("cannot open", &tail, e))?;
        if len > record_end && rng.draw(salt ^ 5, 2) == 1 {
            let zeros = vec![0u8; (record_end - cut) as usize];
            file.write_all_at(&zeros, cut)
                .map_err(|e| io("cannot zero", &tail, e))?;
            torn = TornEffect::Zeroed;
        } else {
            file.set_len(cut)
                .map_err(|e| io("cannot truncate", &tail, e))?;
            torn = TornEffect::Truncated;
        }
    }
    if faults.bit_flip_at(now_ns) {
        // Media corruption: flip one persisted journal bit, biased
        // toward non-tail segments so mid-journal quarantine (not just
        // tail truncation) gets exercised.
        let segments = journal::list_segments(journal_dir)?;
        if !segments.is_empty() {
            let candidates = if segments.len() > 1 {
                segments.len() - 1
            } else {
                1
            };
            let target = &segments[rng.draw(salt ^ 2, candidates as u64) as usize];
            let mut bytes = std::fs::read(target).map_err(|e| io("cannot read", target, e))?;
            if !bytes.is_empty() {
                let bit = rng.draw(salt ^ 3, bytes.len() as u64 * 8);
                bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
                std::fs::write(target, &bytes).map_err(|e| io("cannot write", target, e))?;
            }
        }
    }
    if faults.dump_corrupt_at(now_ns) && state_path.exists() {
        let mut bytes = std::fs::read(state_path).map_err(|e| io("cannot read", state_path, e))?;
        if !bytes.is_empty() {
            let bit = rng.draw(salt ^ 4, bytes.len() as u64 * 8);
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
            std::fs::write(state_path, &bytes).map_err(|e| io("cannot write", state_path, e))?;
        }
    }
    Ok(torn)
}

/// Drive `requests` through a chain of sessions in `dir`, killing per
/// `schedule` (empty = the uninterrupted golden run). Returns the
/// transcript slots, kill reports, and schedule anchors.
fn run_chain(
    requests: &[String],
    config: &ServeConfig,
    dir: &Path,
    chaos: &ChaosConfig,
    mut schedule: VecDeque<(usize, KillKind)>,
    rng: ChaosRng,
    faults: &StorageFaults,
) -> Result<ChainOutcome, ServeError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| ServeError::Io(format!("cannot create '{}': {e}", dir.display())))?;
    let journal_dir = dir.join("journal");
    let state_path = dir.join("state.json");
    let policy = StatePolicy {
        path: Some(state_path.clone()),
        every_ticks: chaos.every_ticks,
        journal: Some(JournalPolicy {
            dir: journal_dir.clone(),
            config: chaos.journal,
        }),
    };
    let mut outcome = ChainOutcome {
        slots: vec![Vec::new(); requests.len() + 1],
        kills: Vec::new(),
        quarantined_total: 0,
        first_dump: None,
        first_rotation: None,
    };
    let rotations = |session: &Session| session.journal().map_or(0, |w| w.stats().rotations);
    let (mut session, _) = Session::start(config.clone(), policy.clone())?;
    loop {
        let mut struck: Option<(usize, KillKind)> = None;
        // Input index `i` is journal sequence `i + 1`: the session
        // resumes where recovery left off, so resent requests take the
        // sequence numbers they lost.
        let start = (session.engine().journal_seq() as usize).min(requests.len());
        for (index, request) in requests.iter().enumerate().skip(start) {
            let pending = schedule.front().copied().filter(|(k, _)| *k == index);
            let mid_dump = matches!(pending, Some((_, KillKind::MidDump)));
            let rotations_before = rotations(&session);
            let mut dumped = false;
            let parsed = proto::parse_request(request, index + 1)?;
            outcome.slots[index] = session.apply_with(request, parsed, &mut |path, content| {
                if mid_dump {
                    write_half(path, content)
                } else {
                    dumped = true;
                    state::write_atomic(path, content)
                }
            })?;
            if dumped && outcome.first_dump.is_none() {
                outcome.first_dump = Some(index);
            }
            if rotations(&session) > rotations_before && outcome.first_rotation.is_none() {
                outcome.first_rotation = Some(index);
            }
            if pending.is_some() {
                schedule.pop_front();
                struck = pending;
                break;
            }
        }
        let Some((index, kind)) = struck else {
            outcome.slots[requests.len()] = session.finish()?;
            break;
        };
        // Kill: capture the durable frontier, drop the session (the
        // process dies — everything written survives, the faults below
        // decide what a power cut or bad media would have destroyed).
        let now_ns = session.engine().now_ns();
        let frontier = session
            .journal()
            .map(|w| {
                let (tail, synced) = w.sync_point();
                (tail, synced, w.record_end())
            })
            .ok_or_else(|| ServeError::Usage("chaos sessions require a journal".into()))?;
        drop(session);
        let torn = apply_crash_effects(
            &journal_dir,
            &state_path,
            frontier,
            now_ns,
            faults,
            rng,
            outcome.kills.len() as u64 + 1,
        )?;
        let (next, recovered) = Session::start(config.clone(), policy.clone())?;
        outcome.quarantined_total += recovered.quarantined;
        outcome.kills.push(KillReport {
            index,
            kind,
            torn,
            resumed_at: next.engine().journal_seq() as usize,
            replayed: recovered.replayed,
            truncated: recovered.truncated,
            quarantined: recovered.quarantined,
            dump_corrupt: recovered.dump_corrupt,
        });
        session = next;
    }
    Ok(outcome)
}

fn concat_slots(slots: &[Vec<String>]) -> String {
    let mut out = String::new();
    for rows in slots {
        for row in rows {
            out.push_str(row);
            out.push('\n');
        }
    }
    out
}

fn count_quarantine_files(dir: &Path) -> Result<u64, ServeError> {
    if !dir.exists() {
        return Ok(0);
    }
    let mut n = 0u64;
    let entries = std::fs::read_dir(dir)
        .map_err(|e| ServeError::Io(format!("cannot list '{}': {e}", dir.display())))?;
    for entry in entries {
        let entry =
            entry.map_err(|e| ServeError::Io(format!("cannot list '{}': {e}", dir.display())))?;
        if entry.file_name().to_string_lossy().contains(".quarantined") {
            n += 1;
        }
    }
    Ok(n)
}

/// Run the full harness: golden run, seeded kill schedule (anchored at
/// the golden run's first dump and first rotation), chained
/// kill/restart run, and the byte-diff verdict.
///
/// `workdir` gets two subdirectories, `golden/` and `run/`, each with
/// its own `journal/` and `state.json`; pre-existing contents of those
/// subdirectories are removed so reruns start clean.
pub fn run_chaos(
    input: &str,
    config: ServeConfig,
    workdir: &Path,
    chaos: &ChaosConfig,
) -> Result<ChaosReport, ServeError> {
    chaos.journal.validate()?;
    let requests = durable_requests(input)?;
    if requests.len() < 2 {
        return Err(ServeError::Usage(format!(
            "chaos needs at least 2 durable requests, input has {}",
            requests.len()
        )));
    }
    let rng = ChaosRng { seed: chaos.seed };
    let faults = config
        .faults
        .as_ref()
        .map(mnemo_faults::FaultPlan::storage_faults)
        .unwrap_or_default();
    let golden_dir = workdir.join("golden");
    let run_dir = workdir.join("run");
    for dir in [&golden_dir, &run_dir] {
        if dir.exists() {
            std::fs::remove_dir_all(dir)
                .map_err(|e| ServeError::Io(format!("cannot clear '{}': {e}", dir.display())))?;
        }
    }
    let golden = run_chain(
        &requests,
        &config,
        &golden_dir,
        chaos,
        VecDeque::new(),
        rng,
        &faults,
    )?;

    // Kill schedule: anchor the structural points from the golden run,
    // then fill with seeded draws until `chaos.kills` distinct indices.
    let mut schedule: Vec<(usize, KillKind)> = Vec::new();
    if let Some(d) = golden.first_dump {
        schedule.push((d, KillKind::MidDump));
    }
    if let Some(r) = golden
        .first_rotation
        .filter(|r| Some(*r) != golden.first_dump)
    {
        schedule.push((r, KillKind::MidRotation));
    }
    let mut salt = 0u64;
    while schedule.len() < chaos.kills && schedule.len() < requests.len() - 1 {
        let index = 1 + rng.draw(salt, requests.len() as u64 - 1) as usize;
        salt += 1;
        if schedule.iter().any(|(k, _)| *k == index) {
            continue;
        }
        schedule.push((index, KillKind::Seeded));
    }
    schedule.sort_by_key(|(k, _)| *k);

    let run = run_chain(
        &requests,
        &config,
        &run_dir,
        chaos,
        schedule.into(),
        rng,
        &faults,
    )?;

    let golden_transcript = concat_slots(&golden.slots);
    let final_transcript = concat_slots(&run.slots);
    let read = |p: &Path| {
        std::fs::read(p).map_err(|e| ServeError::Io(format!("cannot read '{}': {e}", p.display())))
    };
    let golden_state = read(&golden_dir.join("state.json"))?;
    let run_state = read(&run_dir.join("state.json"))?;
    Ok(ChaosReport {
        events: requests.len(),
        transcript_identical: final_transcript == golden_transcript,
        state_identical: run_state == golden_state,
        quarantined_total: run.quarantined_total,
        quarantine_files: count_quarantine_files(&run_dir.join("journal"))?,
        kills: run.kills,
        golden_transcript,
        final_transcript,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnemo_stream::{DriftConfig, StreamConfig};

    fn small_config(faults: Option<mnemo_faults::FaultPlan>) -> ServeConfig {
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
            faults,
            ..ServeConfig::default()
        }
    }

    fn sample_input(events_each: u64) -> String {
        let mut input = String::new();
        for i in 0..events_each {
            for t in ["alpha", "beta"] {
                input.push_str(&format!(
                    "{{\"v\":1,\"tenant\":\"{t}\",\"key\":{},\"op\":\"{}\",\"bytes\":{}}}\n",
                    i * 17 % 70,
                    if i % 3 == 0 { "update" } else { "read" },
                    80 + i % 160,
                ));
            }
            if i % 100 == 99 {
                input.push_str("{\"v\":1,\"cmd\":\"advise\",\"tenant\":\"alpha\"}\n");
            }
        }
        input
    }

    fn workdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mnemo-chaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn clean_kills_converge_byte_identically() {
        let dir = workdir("clean");
        let report = run_chaos(
            &sample_input(700),
            small_config(None),
            &dir,
            &ChaosConfig {
                kills: 4,
                ..ChaosConfig::default()
            },
        )
        .unwrap();
        assert!(report.kills.len() >= 4, "{}", report.render());
        assert!(
            report.kills.iter().any(|k| k.kind == KillKind::MidDump),
            "{}",
            report.render()
        );
        assert!(report.converged(), "{}", report.render());
        assert!(!report.golden_transcript.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn storage_faults_still_converge() {
        use mnemo_faults::{FaultEvent, FaultPlan};
        let plan = FaultPlan::new(11)
            .with(FaultEvent::TornWrite {
                start_ns: 0,
                end_ns: u128::MAX,
            })
            .with(FaultEvent::BitFlip {
                start_ns: 0,
                end_ns: u128::MAX,
            });
        let dir = workdir("faulted");
        let report = run_chaos(
            &sample_input(700),
            small_config(Some(plan)),
            &dir,
            &ChaosConfig::default(),
        )
        .unwrap();
        assert!(report.kills.len() >= 8, "{}", report.render());
        assert!(report.converged(), "{}", report.render());
        // Bit flips under an always-on window must have cost something.
        let touched: u64 = report
            .kills
            .iter()
            .map(|k| k.truncated + k.quarantined)
            .sum();
        assert!(touched > 0, "{}", report.render());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
