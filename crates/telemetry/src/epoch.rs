//! Epoch rolling: slicing a run's telemetry into fixed-length windows.
//!
//! An [`EpochLog`] wraps a [`Recorder`] and counts events; every
//! `epoch_len` events it freezes the recorder into a [`Snapshot`] and
//! starts the next epoch empty. Epoch boundaries are defined in *event
//! counts*, not time, so they land on the same requests regardless of
//! worker count — a precondition for `--jobs`-invariant exports.

use crate::recorder::Recorder;
use crate::snapshot::Snapshot;

/// A recorder that rolls over into a fresh snapshot every `epoch_len`
/// events.
#[derive(Debug, Clone)]
pub struct EpochLog {
    recorder: Recorder,
    epoch_len: u64,
    events_in_epoch: u64,
    next_epoch: u64,
    done: Vec<Snapshot>,
}

impl EpochLog {
    /// A log that closes an epoch every `epoch_len` events. An
    /// `epoch_len` of 0 means "one epoch for the whole run" (the log
    /// only closes at [`EpochLog::finish`]).
    pub fn new(epoch_len: u64) -> EpochLog {
        EpochLog {
            recorder: Recorder::new(),
            epoch_len,
            events_in_epoch: 0,
            next_epoch: 0,
            done: Vec::new(),
        }
    }

    /// The recorder for the *current* epoch.
    pub fn recorder(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    /// Count one event against the current epoch, closing it if the
    /// epoch length is reached.
    pub fn tick(&mut self) {
        self.events_in_epoch += 1;
        if self.epoch_len > 0 && self.events_in_epoch >= self.epoch_len {
            self.roll();
        }
    }

    fn roll(&mut self) {
        let snap = self.recorder.take_snapshot(self.next_epoch);
        self.done.push(snap);
        self.next_epoch += 1;
        self.events_in_epoch = 0;
    }

    /// Close the trailing partial epoch (if it saw any events or
    /// metrics) and return all snapshots in epoch order.
    pub fn finish(mut self) -> Vec<Snapshot> {
        if self.events_in_epoch > 0 || !self.recorder.is_empty() {
            self.roll();
        }
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_every_epoch_len_events() {
        let mut log = EpochLog::new(3);
        for i in 0..7 {
            log.recorder().count("events", 1);
            log.recorder().observe("v", i as f64);
            log.tick();
        }
        let snaps = log.finish();
        assert_eq!(snaps.len(), 3); // 3 + 3 + trailing 1
        assert_eq!(snaps[0].epoch(), 0);
        assert_eq!(snaps[2].epoch(), 2);
        assert_eq!(snaps[0].counter("events"), 3);
        assert_eq!(snaps[2].counter("events"), 1);
        assert_eq!(snaps[1].histogram("v").unwrap().count(), 3);
    }

    #[test]
    fn zero_epoch_len_means_single_epoch() {
        let mut log = EpochLog::new(0);
        for _ in 0..100 {
            log.recorder().count("events", 1);
            log.tick();
        }
        let snaps = log.finish();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].counter("events"), 100);
    }

    #[test]
    fn empty_log_finishes_empty() {
        assert!(EpochLog::new(10).finish().is_empty());
    }
}
