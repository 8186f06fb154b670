//! The daemon's durable path in one place: the engine, the optional
//! write-ahead journal, and the state-dump rule. [`crate::ServeLoop`]
//! routes socket frames and replies around a [`Session`];
//! [`crate::chaos`] kills and restarts the same type.
//!
//! A durable request (ingest or advise) is appended to the journal
//! before it is applied, so a crash after the append replays it and a
//! crash before loses an unacknowledged request, never a half-applied
//! one. A state dump is taken only where a tick ends (queues drained,
//! nothing applied past the journal watermark), every
//! [`StatePolicy::every_ticks`] ticks; a dump skipped because the
//! journal tail could not be synced waits for the next due tick.

use crate::engine::{ServeConfig, ServeEngine};
use crate::journal::{self, JournalWriter};
use crate::proto::{self, Request, ServeError};
use crate::{state, StatePolicy};
use std::path::Path;

/// What [`Session::start`] did on a warm restart.
#[derive(Default)]
pub struct Recovered {
    /// Journal records replayed through the engine.
    pub replayed: u64,
    /// Torn tail records truncated.
    pub truncated: u64,
    /// Journal segments quarantined.
    pub quarantined: u64,
    /// Whether the state dump was rejected as corrupt (recovery then
    /// degraded to a full journal replay).
    pub dump_corrupt: bool,
}

/// How a due state dump reaches its path: [`state::write_atomic`] for
/// [`Session::apply`].
pub(crate) type DumpWriter<'a> = &'a mut dyn FnMut(&Path, &str) -> Result<(), ServeError>;

/// One daemon lifetime: engine, journal writer and dump policy.
pub struct Session {
    engine: ServeEngine,
    writer: Option<JournalWriter>,
    state: StatePolicy,
}

impl Session {
    /// Build the engine and warm-restore it from the state dump (if
    /// any) plus the journal tail past the dump's watermark, then open
    /// the journal writer at the recovered sequence. Recovery is total:
    /// a corrupt dump degrades to a full journal replay (counted, never
    /// fatal); corrupt journal segments quarantine.
    pub fn start(
        config: ServeConfig,
        state: StatePolicy,
    ) -> Result<(Session, Recovered), ServeError> {
        let mut engine = ServeEngine::new(config)?;
        let mut recovered = Recovered::default();
        if let Some(dump_path) = state.path.as_ref().filter(|p| p.exists()) {
            match state::reload(&mut engine, dump_path) {
                Ok(_) => {}
                Err(ServeError::Corrupt { .. }) if state.journal.is_some() => {
                    // The dump is damaged but the journal holds the full
                    // history (segments are never pruned): degrade to a
                    // cold engine plus a complete replay.
                    engine.note("serve.state.corrupt", 1);
                    engine.set_journal_seq(0);
                    recovered.dump_corrupt = true;
                }
                Err(e) => return Err(e),
            }
        }
        let mut writer = None;
        if let Some(policy) = &state.journal {
            let recovery = journal::recover(&policy.dir, engine.journal_seq())?;
            engine.note("serve.journal.truncated", recovery.truncated);
            engine.note("serve.journal.quarantined", recovery.quarantined);
            for (seq, payload) in &recovery.frames {
                // The journal only ever holds admitted requests, so a
                // parse failure here means damage the checksum missed;
                // skip it and count, keeping recovery total.
                match proto::parse_request(payload, *seq as usize) {
                    Ok(request @ (Request::Ingest(_) | Request::Advise { .. })) => {
                        step(&mut engine, request)?;
                    }
                    Ok(_) | Err(_) => engine.note("serve.journal.replay_rejected", 1),
                }
            }
            recovered.replayed = recovery.frames.len() as u64;
            recovered.truncated = recovery.truncated;
            recovered.quarantined = recovery.quarantined;
            engine.note("serve.journal.replayed", recovered.replayed);
            engine.set_journal_seq(recovery.last_seq);
            let faults = engine.config().faults.as_ref();
            writer = Some(JournalWriter::open(
                &policy.dir,
                policy.config,
                recovery.last_seq + 1,
                faults.map(mnemo_faults::FaultPlan::storage_faults),
            )?);
        }
        let session = Session {
            engine,
            writer,
            state,
        };
        Ok((session, recovered))
    }

    /// Journal `payload`, then apply `request` (its parse; only ingest
    /// and advise are durable) and take the state dump if this request
    /// ended a due tick. Returns the rows the request emitted.
    pub fn apply(&mut self, payload: &str, request: Request) -> Result<Vec<String>, ServeError> {
        self.apply_with(payload, request, &mut state::write_atomic)
    }

    /// [`Session::apply`], with a due dump written by `write_dump`.
    pub(crate) fn apply_with(
        &mut self,
        payload: &str,
        request: Request,
        write_dump: DumpWriter<'_>,
    ) -> Result<Vec<String>, ServeError> {
        if let Some(writer) = self.writer.as_mut() {
            let seq = writer.append(self.engine.now_ns(), payload)?;
            self.engine.set_journal_seq(seq);
            self.engine.note("serve.journal.appended", 1);
        }
        let ticks = self.engine.ticks();
        let rows = step(&mut self.engine, request)?;
        let ended = self.engine.ticks();
        if ended > ticks && ended % self.state.every_ticks.max(1) == 0 {
            self.dump(write_dump)?;
        }
        Ok(rows)
    }

    /// Sync the journal, then dump. When the tail cannot be synced
    /// (simulated fsync failure) a dump would claim a watermark the disk
    /// cannot back, so it is skipped and counted.
    fn dump(&mut self, write_dump: DumpWriter<'_>) -> Result<(), ServeError> {
        let Some(path) = self.state.path.as_deref() else {
            return Ok(());
        };
        let now_ns = self.engine.now_ns();
        if self.writer.as_mut().map_or(Ok(true), |w| w.sync(now_ns))? {
            write_dump(path, &state::dump(&self.engine))
        } else {
            self.engine.note("serve.state.dump_skipped", 1);
            Ok(())
        }
    }

    /// Hand pending journal records to the OS (see the journal module's
    /// flush-before-visible-effect rule).
    pub fn flush(&mut self) -> Result<(), ServeError> {
        self.writer.as_mut().map_or(Ok(()), JournalWriter::flush)
    }

    /// End of input: the engine's final tick, a synced final dump, then
    /// close the journal so its last segment ends at its last record.
    pub fn finish(&mut self) -> Result<Vec<String>, ServeError> {
        let rows = self.engine.finish();
        self.dump(&mut state::write_atomic)?;
        if let Some(writer) = self.writer.take() {
            writer.close()?;
        }
        Ok(rows)
    }

    /// The engine.
    pub fn engine(&self) -> &ServeEngine {
        &self.engine
    }

    /// The journal writer (`None` when journaling is disabled or after
    /// [`Session::finish`]).
    pub(crate) fn journal(&self) -> Option<&JournalWriter> {
        self.writer.as_ref()
    }
}

/// Apply one durable request to the engine; the rest are not journaled
/// and emit nothing here.
fn step(engine: &mut ServeEngine, request: Request) -> Result<Vec<String>, ServeError> {
    Ok(match request {
        Request::Ingest(event) => engine.ingest(event)?,
        Request::Advise { tenant } => vec![engine.advise_now(&tenant)],
        Request::Status | Request::Snapshot | Request::Follow | Request::Shutdown => Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JournalConfig, JournalPolicy};
    use mnemo_faults::{FaultEvent, FaultPlan};
    use mnemo_stream::{DriftConfig, StreamConfig};

    #[test]
    fn a_dump_skipped_by_a_failed_fsync_waits_for_the_next_tick_end() {
        // Ticks end every 300 offered events (300 µs of serve clock);
        // the window swallows the dump due at the first tick and closes
        // 150 events into the second.
        let plan = FaultPlan::new(1).with(FaultEvent::FsyncFail {
            start_ns: 200_000,
            end_ns: 450_000,
        });
        let config = ServeConfig {
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
            faults: Some(plan),
            ..ServeConfig::default()
        };
        let dir = std::env::temp_dir().join(format!("mnemo-session-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = StatePolicy {
            path: Some(dir.join("state.json")),
            every_ticks: 1,
            journal: Some(JournalPolicy {
                dir: dir.join("journal"),
                config: JournalConfig {
                    segment_bytes: 8 * 1024,
                    sync_every: 4,
                },
            }),
        };
        let (mut session, _) = Session::start(config, policy).unwrap();
        let mut dumps = Vec::new();
        for i in 0..1_000u64 {
            let line = format!(
                "{{\"v\":1,\"tenant\":\"{}\",\"key\":{},\"op\":\"read\",\"bytes\":{}}}",
                ["alpha", "beta"][i as usize % 2],
                i * 17 % 70,
                80 + i % 160
            );
            let request = proto::parse_request(&line, i as usize + 1).unwrap();
            session
                .apply_with(&line, request, &mut |_, content| {
                    dumps.push(content.to_string());
                    Ok(())
                })
                .unwrap();
        }
        for dump in &dumps {
            let saved = state::parse(dump).unwrap();
            assert_eq!(
                saved.offered,
                saved.ticks * 300,
                "a dump missed queued events"
            );
            assert_eq!(saved.journal_seq, saved.offered);
        }
        // Ticks 2 and 3 dump; tick 1 is skipped, not retried mid-tick.
        assert_eq!(session.engine().ticks(), 3);
        assert_eq!(dumps.len(), 2);
        drop(session);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
