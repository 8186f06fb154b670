//! Sliding-window epochs and the skew-drift detector.
//!
//! The streaming profiler chops the event stream into fixed-length
//! epochs. Within each epoch a small, separate Space-Saving summary
//! tracks the epoch's own heavy hitters; at the boundary the zipfian
//! exponent `theta` is fitted to their rank-frequency curve (the same
//! least-squares fit the offline [`ycsb::fit::SkewReport`] uses, via
//! [`ycsb::fit::fit_zipf_theta`]). Comparing successive epochs' fits —
//! and the overlap of their hot-key sets — yields a drift signal: only
//! when the workload's shape actually moved is a fresh consultation
//! worth its cost.

use crate::topk::SpaceSaving;
use ycsb::fit::fit_zipf_theta;
use ycsb::AccessEvent;

/// What a completed epoch looked like.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSummary {
    /// Epoch ordinal (0-based).
    pub index: u64,
    /// Events in the epoch.
    pub events: u64,
    /// Zipf exponent fitted to the epoch's heavy-hitter counts; `None`
    /// when the epoch saw too few distinct keys to fit.
    pub theta: Option<f64>,
    /// The epoch's *provably* heavy keys — guaranteed count at or above
    /// the Space-Saving churn ceiling `events / epoch_top_k` — hottest
    /// first. Monitored-but-unproven entries are churn and carry no
    /// cross-epoch signal, so they are excluded.
    pub hot_keys: Vec<u64>,
}

/// Decision issued at an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Drift {
    /// The first completed epoch: there is nothing to compare against,
    /// but downstream consumers need an initial recommendation.
    Initial,
    /// Skew moved: the fitted theta changed by more than the threshold.
    Theta {
        /// Previous accepted theta.
        from: f64,
        /// Newly fitted theta.
        to: f64,
    },
    /// The hot set itself rotated: too few of the reference epoch's
    /// proven heavy hitters are still monitored in the current epoch.
    HotSet {
        /// Fraction of the reference epoch's proven heavy hitters still
        /// monitored, in `[0,1]`.
        overlap: f64,
    },
    /// No significant change.
    Stable,
}

impl Drift {
    /// Whether this decision should trigger a re-consultation.
    pub fn is_significant(&self) -> bool {
        !matches!(self, Drift::Stable)
    }
}

/// Configuration of the drift detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Events per epoch.
    pub epoch_len: u64,
    /// Re-advise when `|theta_now - theta_then|` exceeds this.
    pub theta_threshold: f64,
    /// Re-advise when the hot-set overlap falls below this fraction.
    pub min_hot_overlap: f64,
    /// Heavy hitters tracked per epoch (also the hot-set comparison
    /// width).
    pub epoch_top_k: usize,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            epoch_len: 50_000,
            theta_threshold: 0.15,
            min_hot_overlap: 0.5,
            epoch_top_k: 128,
        }
    }
}

/// Epoch-windowed skew tracking with drift detection.
#[derive(Debug, Clone)]
pub struct SkewTracker {
    config: DriftConfig,
    window: SpaceSaving,
    in_epoch: u64,
    completed: u64,
    /// Consecutive epochs that elapsed with no traffic (see
    /// [`SkewTracker::note_idle_epoch`]). Reset by every closed epoch.
    idle_streak: u64,
    /// The last epoch accepted as the drift reference (set on `Initial`
    /// and on every significant drift).
    reference: Option<EpochSummary>,
    last: Option<EpochSummary>,
}

impl SkewTracker {
    /// Build a tracker.
    pub fn new(config: DriftConfig) -> SkewTracker {
        assert!(config.epoch_len > 0, "epoch length must be nonzero");
        assert!(config.epoch_top_k > 0, "epoch top-k must be nonzero");
        SkewTracker {
            window: SpaceSaving::new(config.epoch_top_k, 0.2),
            config,
            in_epoch: 0,
            completed: 0,
            idle_streak: 0,
            reference: None,
            last: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DriftConfig {
        &self.config
    }

    /// The most recently completed epoch.
    pub fn last_epoch(&self) -> Option<&EpochSummary> {
        self.last.as_ref()
    }

    /// Feed one event. Returns a drift decision exactly at epoch
    /// boundaries, `None` inside an epoch.
    pub fn observe(&mut self, event: &AccessEvent) -> Option<Drift> {
        self.window.observe(event);
        self.in_epoch += 1;
        if self.in_epoch < self.config.epoch_len {
            return None;
        }
        Some(self.close_epoch())
    }

    fn close_epoch(&mut self) -> Drift {
        let entries = self.window.entries();
        let counts: Vec<u64> = entries.iter().map(|e| e.count).collect();
        // A key is provably heavy once its guaranteed (count - error)
        // tally clears the eviction ceiling n/K: churned-in entries
        // cannot reach that, so these keys are real heavy hitters.
        let threshold = (self.in_epoch / self.config.epoch_top_k as u64).max(1);
        let summary = EpochSummary {
            index: self.completed,
            events: self.in_epoch,
            theta: fit_zipf_theta(&counts),
            hot_keys: entries
                .iter()
                .filter(|e| e.guaranteed() >= threshold)
                .map(|e| e.key)
                .collect(),
        };
        let monitored: hybridmem::DetHashSet<u64> = entries.iter().map(|e| e.key).collect();
        self.window.clear();
        self.in_epoch = 0;
        self.completed += 1;
        self.idle_streak = 0;

        let decision = match &self.reference {
            None => Drift::Initial,
            Some(reference) => Self::compare(&self.config, reference, &summary, &monitored),
        };
        if decision.is_significant() {
            self.reference = Some(summary.clone());
        }
        self.last = Some(summary);
        decision
    }

    fn compare(
        config: &DriftConfig,
        reference: &EpochSummary,
        now: &EpochSummary,
        now_monitored: &hybridmem::DetHashSet<u64>,
    ) -> Drift {
        if let (Some(from), Some(to)) = (reference.theta, now.theta) {
            if (from - to).abs() > config.theta_threshold {
                return Drift::Theta { from, to };
            }
        }
        // Are the reference epoch's proven heavy hitters still at least
        // *monitored* now? Dropping out of the whole summary is a much
        // stronger signal than slipping below the proof threshold, which
        // borderline keys do from epoch to epoch by chance. Fewer than 4
        // proven keys carries no signal (one miss swings the fraction).
        let width = reference.hot_keys.len();
        if width >= 4 {
            let kept = reference
                .hot_keys
                .iter()
                .filter(|k| now_monitored.contains(k))
                .count();
            let overlap = kept as f64 / width as f64;
            if overlap < config.min_hot_overlap {
                return Drift::HotSet { overlap };
            }
        }
        Drift::Stable
    }

    /// Note that one epoch's worth of scheduler time elapsed with *no*
    /// traffic. Drivers with their own clock (the serve daemon's epoch
    /// tick) call this instead of [`SkewTracker::observe`] when a tenant
    /// was silent for the whole epoch.
    ///
    /// One idle epoch is tolerated — brief gaps between bursts carry no
    /// drift signal. Beyond that the retained reference and last
    /// summaries describe traffic that is now stale, so they are
    /// dropped: when the tenant resumes, the next completed epoch
    /// compares against nothing and yields [`Drift::Initial`], forcing a
    /// fresh consultation instead of a comparison with a frozen
    /// pre-idle snapshot. Without this, a tenant idle for hours would
    /// come back and be judged "stable" against advice sized for
    /// traffic that no longer exists.
    pub fn note_idle_epoch(&mut self) {
        self.completed += 1;
        self.idle_streak += 1;
        if self.idle_streak > 1 {
            self.reference = None;
            self.last = None;
        }
    }

    /// Consecutive idle epochs noted since the last closed epoch.
    pub fn idle_streak(&self) -> u64 {
        self.idle_streak
    }

    /// Heap footprint in bytes (the per-epoch summary window; the two
    /// retained summaries are bounded by `2 * epoch_top_k` keys).
    pub fn memory_bytes(&self) -> usize {
        self.window.memory_bytes() + 2 * self.config.epoch_top_k * std::mem::size_of::<u64>()
    }

    /// Serialisable snapshot of the tracker, for warm restarts.
    pub fn export_state(&self) -> TrackerState {
        TrackerState {
            window: self.window.export_state(),
            in_epoch: self.in_epoch,
            completed: self.completed,
            idle_streak: self.idle_streak,
            reference: self.reference.clone(),
            last: self.last.clone(),
        }
    }

    /// Rebuild a tracker from an exported state under `config`.
    pub fn import_state(config: DriftConfig, state: &TrackerState) -> Result<SkewTracker, String> {
        if state.in_epoch >= config.epoch_len {
            return Err(format!(
                "in-epoch count {} at or above epoch length {}",
                state.in_epoch, config.epoch_len
            ));
        }
        let mut out = SkewTracker::new(config);
        out.window = SpaceSaving::import_state(config.epoch_top_k, 0.2, &state.window)?;
        out.in_epoch = state.in_epoch;
        out.completed = state.completed;
        out.idle_streak = state.idle_streak;
        out.reference = state.reference.clone();
        out.last = state.last.clone();
        Ok(out)
    }
}

/// Exported [`SkewTracker`] state (see [`SkewTracker::export_state`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TrackerState {
    /// The in-progress epoch's heavy-hitter window.
    pub window: crate::topk::TopKState,
    /// Events in the in-progress epoch.
    pub in_epoch: u64,
    /// Completed epochs.
    pub completed: u64,
    /// Consecutive idle epochs.
    pub idle_streak: u64,
    /// The drift reference epoch, if any.
    pub reference: Option<EpochSummary>,
    /// The most recently completed epoch, if any.
    pub last: Option<EpochSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ycsb::dist::DistKind;
    use ycsb::opmix::OpMix;
    use ycsb::sizes::{SizeClass, SizeModel};
    use ycsb::WorkloadSpec;

    fn events_for(dist: DistKind, seed: u64, requests: usize) -> Vec<AccessEvent> {
        WorkloadSpec {
            name: "epoch".into(),
            distribution: dist,
            ops: OpMix::read_only(),
            sizes: SizeModel::Single(SizeClass::Caption),
            keys: 2_000,
            requests,
            use_case: String::new(),
        }
        .generate(seed)
        .events()
        .collect()
    }

    fn drive(tracker: &mut SkewTracker, events: &[AccessEvent]) -> Vec<Drift> {
        events.iter().filter_map(|e| tracker.observe(e)).collect()
    }

    #[test]
    fn boundaries_fire_every_epoch_len() {
        let config = DriftConfig {
            epoch_len: 1_000,
            ..DriftConfig::default()
        };
        let mut tracker = SkewTracker::new(config);
        let events = events_for(DistKind::Zipfian { theta: 0.99 }, 1, 5_500);
        let decisions = drive(&mut tracker, &events);
        assert_eq!(decisions.len(), 5, "5 full epochs out of 5500 events");
        assert_eq!(decisions[0], Drift::Initial);
    }

    #[test]
    fn steady_workload_is_stable_after_the_initial_epoch() {
        let config = DriftConfig {
            epoch_len: 5_000,
            ..DriftConfig::default()
        };
        let mut tracker = SkewTracker::new(config);
        let events = events_for(DistKind::Zipfian { theta: 0.99 }, 2, 40_000);
        let decisions = drive(&mut tracker, &events);
        assert_eq!(decisions[0], Drift::Initial);
        assert!(
            decisions[1..].iter().all(|d| !d.is_significant()),
            "steady zipfian must not re-trigger: {decisions:?}"
        );
    }

    #[test]
    fn skew_change_is_detected() {
        let config = DriftConfig {
            epoch_len: 5_000,
            ..DriftConfig::default()
        };
        let mut tracker = SkewTracker::new(config);
        // Zipfian 0.99, then near-uniform: theta collapses.
        let mut events = events_for(DistKind::Zipfian { theta: 0.99 }, 3, 20_000);
        events.extend(events_for(DistKind::Uniform, 4, 20_000));
        let decisions = drive(&mut tracker, &events);
        assert!(
            decisions[4..].iter().any(|d| d.is_significant()),
            "uniform switch must drift: {decisions:?}"
        );
    }

    #[test]
    fn hot_set_rotation_is_detected_even_at_equal_skew() {
        let config = DriftConfig {
            epoch_len: 5_000,
            ..DriftConfig::default()
        };
        let mut tracker = SkewTracker::new(config);
        // Same zipfian shape, but the key popularity ranking is permuted
        // differently per phase (scrambled zipfian with different seeds
        // maps ranks to different keys).
        let mut events = events_for(DistKind::ScrambledZipfian { theta: 0.99 }, 5, 20_000);
        let mut phase2 = events_for(DistKind::ScrambledZipfian { theta: 0.99 }, 99, 20_000);
        // Shift phase-2 keys so the hot sets are disjoint while sizes stay
        // in range.
        for e in &mut phase2 {
            e.key = 1_999 - e.key;
        }
        events.extend(phase2);
        let decisions = drive(&mut tracker, &events);
        let significant: Vec<&Drift> = decisions[4..]
            .iter()
            .filter(|d| d.is_significant())
            .collect();
        assert!(
            !significant.is_empty(),
            "rotated hot set must drift: {decisions:?}"
        );
    }

    #[test]
    fn idle_gap_resets_the_drift_reference() {
        let config = DriftConfig {
            epoch_len: 5_000,
            ..DriftConfig::default()
        };
        let mut tracker = SkewTracker::new(config);
        // Two active epochs establish a reference...
        let events = events_for(DistKind::Zipfian { theta: 0.99 }, 11, 10_000);
        let decisions = drive(&mut tracker, &events);
        assert_eq!(decisions[0], Drift::Initial);
        assert!(tracker.last_epoch().is_some());
        // ...then the tenant goes idle for more than one epoch.
        tracker.note_idle_epoch();
        assert!(
            tracker.last_epoch().is_some(),
            "a single idle epoch is tolerated"
        );
        tracker.note_idle_epoch();
        assert_eq!(tracker.idle_streak(), 2);
        assert!(
            tracker.last_epoch().is_none(),
            "an idle gap must drop the stale summaries"
        );
        // Traffic resumes: the first completed epoch re-advises from
        // scratch instead of comparing against the pre-idle snapshot.
        let resumed = events_for(DistKind::Zipfian { theta: 0.99 }, 12, 5_000);
        let decisions = drive(&mut tracker, &resumed);
        assert_eq!(decisions, vec![Drift::Initial]);
        assert_eq!(tracker.idle_streak(), 0, "traffic clears the streak");
    }

    #[test]
    fn single_idle_epoch_keeps_the_reference() {
        let config = DriftConfig {
            epoch_len: 5_000,
            ..DriftConfig::default()
        };
        let mut tracker = SkewTracker::new(config);
        drive(
            &mut tracker,
            &events_for(DistKind::Zipfian { theta: 0.99 }, 13, 10_000),
        );
        tracker.note_idle_epoch();
        // The same steady workload after a one-epoch gap stays stable.
        let decisions = drive(
            &mut tracker,
            &events_for(DistKind::Zipfian { theta: 0.99 }, 13, 5_000),
        );
        assert_eq!(decisions, vec![Drift::Stable]);
    }

    #[test]
    fn state_round_trips() {
        let config = DriftConfig {
            epoch_len: 5_000,
            ..DriftConfig::default()
        };
        let mut tracker = SkewTracker::new(config);
        let events = events_for(DistKind::Zipfian { theta: 0.99 }, 14, 12_500);
        drive(&mut tracker, &events);
        let back = SkewTracker::import_state(config, &tracker.export_state()).unwrap();
        assert_eq!(back.last_epoch(), tracker.last_epoch());
        // Both continue identically.
        let more = events_for(DistKind::Zipfian { theta: 0.99 }, 15, 7_500);
        let mut a = tracker;
        let mut b = back;
        assert_eq!(drive(&mut a, &more), drive(&mut b, &more));
    }

    #[test]
    fn import_rejects_overfull_epoch() {
        let config = DriftConfig {
            epoch_len: 100,
            ..DriftConfig::default()
        };
        let mut state = SkewTracker::new(config).export_state();
        state.in_epoch = 100;
        assert!(SkewTracker::import_state(config, &state).is_err());
    }

    #[test]
    fn memory_is_bounded_by_configuration() {
        let tracker = SkewTracker::new(DriftConfig::default());
        assert!(
            tracker.memory_bytes() < 16 * 1024,
            "{}",
            tracker.memory_bytes()
        );
    }
}
