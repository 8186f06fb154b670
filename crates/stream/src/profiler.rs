//! The streaming Pattern Engine: bounded-memory `Req(keys)`.
//!
//! Where the offline [`mnemo::PatternEngine`] walks a materialised trace
//! and holds one [`mnemo::KeyStats`] per key, the [`StreamProfiler`]
//! consumes an unbounded [`ycsb::AccessEvent`] stream and keeps only:
//!
//! * a Space-Saving top-K of the hottest keys (with per-key read/write
//!   split and a size EWMA) — the *head* of the distribution, tracked
//!   exactly up to the summary's guaranteed error;
//! * two Count-Min sketches (reads / writes) for point queries on any
//!   key, with computed `eps * N` error bounds;
//! * a linear-counting bitmap for the distinct-key cardinality;
//! * a per-epoch skew tracker for drift detection.
//!
//! Memory is O(K + sketch area), independent of both key count and
//! stream length; [`StreamProfiler::memory_bytes`] reports the exact
//! footprint so callers can assert a budget.
//!
//! [`StreamProfiler::approx_pattern`] converts the summary back into a
//! full per-key [`mnemo::PatternEngine`] the estimate/advisor pipeline
//! accepts: monitored keys become individual synthetic keys with their
//! tracked statistics ("head-exact"); the residual request mass is
//! spread over the estimated remaining distinct keys as a power-law
//! continuation of the head's rank-frequency curve, at the global mean
//! record size ("tail-fitted").

use crate::distinct::{DistinctCounter, DistinctState};
use crate::epoch::{Drift, DriftConfig, SkewTracker, TrackerState};
use crate::sketch::{CountMinSketch, SketchState};
use crate::topk::{SpaceSaving, TopEntry, TopKState};
use mnemo::{KeyStats, PatternEngine};
use std::sync::OnceLock;
use ycsb::fit::fit_zipf_theta;
use ycsb::{AccessEvent, Op};

/// Sizing of every bounded structure in the profiler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Keys monitored exactly (Space-Saving capacity).
    pub top_k: usize,
    /// Count-Min row width (rounded up to a power of two).
    pub cm_width: usize,
    /// Count-Min rows.
    pub cm_depth: usize,
    /// Distinct-counter bitmap bits, as a power of two (`2^log2_bits`).
    pub distinct_log2_bits: u32,
    /// Smoothing factor for per-key size EWMAs.
    pub ewma_alpha: f64,
    /// Epoch and drift thresholds.
    pub drift: DriftConfig,
}

impl Default for StreamConfig {
    /// The reference configuration: fits the 64 KiB default budget with
    /// headroom (see `memory_bytes`), sized for workloads of ~10k keys.
    fn default() -> Self {
        StreamConfig {
            top_k: 256,
            cm_width: 1024,
            cm_depth: 4,
            distinct_log2_bits: 15,
            ewma_alpha: 0.2,
            drift: DriftConfig::default(),
        }
    }
}

impl StreamConfig {
    /// Scale the default configuration to approximately fit a memory
    /// budget, splitting it in the default shape: about half to the two
    /// Count-Min sketches, a quarter to the top-K summary, the rest to
    /// the distinct bitmap and the epoch tracker. Panics below 4 KiB —
    /// no useful summary fits there.
    pub fn with_budget_bytes(budget: usize) -> StreamConfig {
        assert!(budget >= 4 * 1024, "streaming budget below 4 KiB");
        let scale = budget as f64 / (64.0 * 1024.0);
        let default = StreamConfig::default();
        let top_k = ((default.top_k as f64 * scale) as usize).max(16);
        StreamConfig {
            top_k,
            cm_width: ((default.cm_width as f64 * scale) as usize).max(64),
            cm_depth: default.cm_depth,
            distinct_log2_bits: {
                // Bitmap scales in power-of-two steps.
                let target = (1u64 << default.distinct_log2_bits) as f64 * scale;
                (target as u64).max(4096).ilog2()
            },
            ewma_alpha: default.ewma_alpha,
            drift: DriftConfig {
                epoch_top_k: (default.drift.epoch_top_k as f64 * scale).max(16.0) as usize,
                ..default.drift
            },
        }
    }
}

/// The streaming profiler.
#[derive(Debug, Clone)]
pub struct StreamProfiler {
    config: StreamConfig,
    top: SpaceSaving,
    cm_reads: CountMinSketch,
    cm_writes: CountMinSketch,
    distinct: DistinctCounter,
    skew: SkewTracker,
    events: u64,
    reads: u64,
    writes: u64,
    /// Global mean record size over events (exact; mass-weighted, which
    /// biases toward hot keys' sizes — documented tail approximation).
    bytes_sum: f64,
    /// [`Self::approx_pattern`] of the current state, built on first
    /// use. Every `&mut self` method clears it, so it is always a pure
    /// function of the fields above; it is neither exported nor counted
    /// by [`Self::memory_bytes`].
    approx: OnceLock<ApproxPattern>,
}

impl StreamProfiler {
    /// Build a profiler.
    pub fn new(config: StreamConfig) -> StreamProfiler {
        StreamProfiler {
            top: SpaceSaving::new(config.top_k, config.ewma_alpha),
            cm_reads: CountMinSketch::new(config.cm_width, config.cm_depth),
            cm_writes: CountMinSketch::new(config.cm_width, config.cm_depth),
            distinct: DistinctCounter::new(config.distinct_log2_bits),
            skew: SkewTracker::new(config.drift),
            config,
            events: 0,
            reads: 0,
            writes: 0,
            bytes_sum: 0.0,
            approx: OnceLock::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Discard all accumulated state, keeping the configuration. Used
    /// after a regime change: the sketches then describe a mixture of
    /// the old and new workloads, and restarting yields advice for the
    /// new regime alone after one fresh epoch.
    pub fn reset(&mut self) {
        *self = StreamProfiler::new(self.config);
    }

    /// Consume one event. Returns a drift decision at epoch boundaries.
    pub fn observe(&mut self, event: &AccessEvent) -> Option<Drift> {
        self.approx.take();
        self.events += 1;
        self.bytes_sum += event.bytes as f64;
        match event.op {
            Op::Read => {
                self.reads += 1;
                self.cm_reads.increment(event.key);
            }
            Op::Update => {
                self.writes += 1;
                self.cm_writes.increment(event.key);
            }
        }
        self.top.observe(event);
        self.distinct.insert(event.key);
        self.skew.observe(event)
    }

    /// Apply one idle epoch's decay. Long-lived consumers whose
    /// scheduler (not the event count) defines epochs call this when a
    /// tenant saw no traffic for a whole epoch: the heavy-hitter counts
    /// halve and the size EWMAs relax instead of freezing at their
    /// last-traffic values, and after more than one idle epoch the
    /// drift reference is dropped so resuming traffic re-advises fresh
    /// (see [`SkewTracker::note_idle_epoch`]). The Count-Min sketches
    /// and the distinct bitmap are whole-stream totals, not rates, and
    /// are left untouched.
    pub fn note_idle_epoch(&mut self) {
        self.approx.take();
        self.top.decay_idle_epoch();
        self.skew.note_idle_epoch();
    }

    /// Events consumed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Estimated distinct keys seen.
    pub fn distinct_keys(&self) -> u64 {
        self.distinct.estimate()
    }

    /// The monitored heavy hitters, hottest first.
    pub fn top_entries(&self) -> Vec<TopEntry> {
        self.top.entries()
    }

    /// Sketch-estimated `(reads, writes)` of an arbitrary key — never
    /// undercounts; over by at most [`Self::count_error_bound`] each.
    pub fn estimate_key(&self, key: u64) -> (u64, u64) {
        (self.cm_reads.estimate(key), self.cm_writes.estimate(key))
    }

    /// Count-Min one-sided error ceiling at the current stream length,
    /// in requests (the larger of the two sketches' bounds).
    pub fn count_error_bound(&self) -> u64 {
        self.cm_reads
            .error_bound()
            .max(self.cm_writes.error_bound())
    }

    /// The epoch/drift tracker.
    pub fn skew(&self) -> &SkewTracker {
        &self.skew
    }

    /// Exact profiler state footprint in bytes: every bounded structure,
    /// summed. Constant in stream length and key count; the memoised
    /// [`Self::approx_pattern`] is derived output, not state, and is not
    /// counted.
    pub fn memory_bytes(&self) -> usize {
        self.top.memory_bytes()
            + self.cm_reads.memory_bytes()
            + self.cm_writes.memory_bytes()
            + self.distinct.memory_bytes()
            + self.skew.memory_bytes()
    }

    /// Reconstruct an approximate [`PatternEngine`].
    ///
    /// Head: each monitored key becomes one synthetic key. Its access
    /// count is the Space-Saving *guaranteed* count (`count - error`,
    /// never an overcount), split into reads/writes by the Count-Min
    /// point estimates (clamped to the total), with its EWMA size. Tail:
    /// the residual mass — total events minus head mass — spreads over
    /// the estimated remaining distinct keys following the zipf exponent
    /// fitted to the head (uniformly when the head is flat), at the
    /// global mean record size. Key ids are synthetic (head first, then
    /// tail); [`ApproxPattern::head_keys`] maps them back.
    ///
    /// The result feeds `Advisor::consult_with_pattern` unchanged: the
    /// estimate curve depends only on the per-key statistics multiset,
    /// not on key identity.
    ///
    /// The pattern is built once per profiler state and shared until the
    /// next `&mut self` call, so a re-plan and the advises that follow
    /// it before more events arrive pay for one reconstruction.
    pub fn approx_pattern(&self) -> &ApproxPattern {
        self.approx.get_or_init(|| self.build_approx_pattern())
    }

    /// [`Self::approx_pattern`] computed afresh.
    fn build_approx_pattern(&self) -> ApproxPattern {
        let entries = self.top.entries();
        let mut stats: Vec<KeyStats> = Vec::with_capacity(entries.len() + 1);
        let mut head_keys: Vec<u64> = Vec::with_capacity(entries.len());
        let mut head_mass = 0u64;
        for e in &entries {
            let total = e.guaranteed();
            if total == 0 {
                continue;
            }
            // Count-Min point estimates split the total into ops. Both
            // are over-estimates, so normalise to the (reliable) total.
            let (cm_r, cm_w) = self.estimate_key(e.key);
            let reads = if cm_r + cm_w > 0 {
                ((total as f64 * cm_r as f64 / (cm_r + cm_w) as f64).round() as u64).min(total)
            } else {
                e.reads.min(total)
            };
            stats.push(KeyStats {
                reads,
                writes: total - reads,
                bytes: (e.size_ewma.round() as u64).max(1),
            });
            head_keys.push(e.key);
            head_mass += total;
        }

        let tail_mass = self.events.saturating_sub(head_mass);
        let tail_keys = self
            .distinct
            .estimate()
            .saturating_sub(head_keys.len() as u64);
        let mean_size = if self.events > 0 {
            (self.bytes_sum / self.events as f64).round().max(1.0) as u64
        } else {
            1
        };
        if tail_keys > 0 {
            // Continue the head's rank-frequency curve into the tail: fit
            // the zipf exponent to the guaranteed head counts and give
            // tail rank r weight (head + r)^-theta. A flat head (theta 0)
            // degenerates to a uniform tail. Shape matters: a uniform
            // tail makes the advisor buy far more FastMem than the real
            // decaying distribution needs.
            let guaranteed: Vec<u64> = entries.iter().map(|e| e.guaranteed()).collect();
            let theta = fit_zipf_theta(&guaranteed).unwrap_or(0.0);
            let head_len = head_keys.len() as u64;
            // powf dominates this loop and the serve daemon re-plans
            // from approx patterns every tick: compute each rank's
            // weight once and reuse it in the assignment pass below.
            let weights: Vec<f64> = (1..=tail_keys)
                .map(|r| ((head_len + r) as f64).powf(-theta))
                .collect();
            let total_weight: f64 = weights.iter().sum();
            let read_frac = if self.events > 0 {
                self.reads as f64 / self.events as f64
            } else {
                0.0
            };
            // Cumulative rounding conserves the mass exactly; the last
            // rank absorbs any float drift.
            let mut cum = 0.0;
            let mut assigned = 0u64;
            for r in 1..=tail_keys {
                cum += weights[(r - 1) as usize] / total_weight * tail_mass as f64;
                let upto = if r == tail_keys {
                    tail_mass
                } else {
                    (cum.round() as u64).min(tail_mass)
                };
                let total = upto - assigned;
                assigned = upto;
                let reads = (total as f64 * read_frac).round() as u64;
                stats.push(KeyStats {
                    reads,
                    writes: total - reads,
                    bytes: mean_size,
                });
            }
        } else if tail_mass > 0 {
            // Cardinality underestimated below the head size: keep the
            // mass on one synthetic overflow key rather than lose it.
            let reads =
                (tail_mass as f64 * self.reads as f64 / self.events.max(1) as f64).round() as u64;
            stats.push(KeyStats {
                reads,
                writes: tail_mass - reads,
                bytes: mean_size,
            });
        }

        ApproxPattern {
            pattern: PatternEngine::from_stats(stats),
            head_keys,
        }
    }

    /// Serialisable snapshot of the whole profiler, for warm restarts of
    /// long-lived consumers (the serve daemon's state dump).
    pub fn export_state(&self) -> ProfilerState {
        ProfilerState {
            top: self.top.export_state(),
            cm_reads: self.cm_reads.export_state(),
            cm_writes: self.cm_writes.export_state(),
            distinct: self.distinct.export_state(),
            skew: self.skew.export_state(),
            events: self.events,
            reads: self.reads,
            writes: self.writes,
            bytes_sum: self.bytes_sum,
        }
    }

    /// Rebuild a profiler from an exported state under `config`. The
    /// state must have come from a profiler of the same shape; any
    /// structural mismatch (sketch dimensions, over-capacity summaries)
    /// fails with a description rather than resuming silently wrong.
    pub fn from_state(
        config: StreamConfig,
        state: &ProfilerState,
    ) -> Result<StreamProfiler, String> {
        let reference = StreamProfiler::new(config);
        let cm_reads = CountMinSketch::import_state(&state.cm_reads)?;
        let cm_writes = CountMinSketch::import_state(&state.cm_writes)?;
        if cm_reads.width() != reference.cm_reads.width()
            || cm_reads.depth() != reference.cm_reads.depth()
            || cm_writes.width() != reference.cm_writes.width()
            || cm_writes.depth() != reference.cm_writes.depth()
        {
            return Err("sketch dimensions do not match the configuration".into());
        }
        let distinct = DistinctCounter::import_state(&state.distinct)?;
        if distinct.memory_bytes() != reference.distinct.memory_bytes() {
            return Err("distinct bitmap size does not match the configuration".into());
        }
        if !state.bytes_sum.is_finite() || state.bytes_sum < 0.0 {
            return Err(format!(
                "bytes_sum {} is not a valid total",
                state.bytes_sum
            ));
        }
        Ok(StreamProfiler {
            top: SpaceSaving::import_state(config.top_k, config.ewma_alpha, &state.top)?,
            cm_reads,
            cm_writes,
            distinct,
            skew: SkewTracker::import_state(config.drift, &state.skew)?,
            config,
            events: state.events,
            reads: state.reads,
            writes: state.writes,
            bytes_sum: state.bytes_sum,
            approx: OnceLock::new(),
        })
    }
}

/// Exported [`StreamProfiler`] state (see
/// [`StreamProfiler::export_state`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilerState {
    /// Heavy-hitter summary.
    pub top: TopKState,
    /// Read-op sketch.
    pub cm_reads: SketchState,
    /// Write-op sketch.
    pub cm_writes: SketchState,
    /// Distinct-key bitmap.
    pub distinct: DistinctState,
    /// Epoch/drift tracker.
    pub skew: TrackerState,
    /// Events consumed.
    pub events: u64,
    /// Read events.
    pub reads: u64,
    /// Write events.
    pub writes: u64,
    /// Sum of event sizes in bytes.
    pub bytes_sum: f64,
}

/// An approximate pattern plus the mapping from synthetic head ids back
/// to real keys.
#[derive(Debug, Clone)]
pub struct ApproxPattern {
    /// The reconstructed pattern (synthetic key ids: head entries first,
    /// in descending hotness, then uniform tail keys).
    pub pattern: PatternEngine,
    /// Real key of each head id (`head_keys[i]` is synthetic key `i`).
    pub head_keys: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ycsb::WorkloadSpec;

    fn profile(spec: WorkloadSpec, seed: u64) -> (StreamProfiler, ycsb::Trace) {
        let trace = spec.generate(seed);
        let mut p = StreamProfiler::new(StreamConfig::default());
        for e in trace.events() {
            p.observe(&e);
        }
        (p, trace)
    }

    #[test]
    fn default_config_fits_64_kib() {
        let p = StreamProfiler::new(StreamConfig::default());
        assert!(
            p.memory_bytes() <= 64 * 1024,
            "footprint {}",
            p.memory_bytes()
        );
        // And it is a real summary, not a degenerate one.
        assert!(
            p.memory_bytes() >= 32 * 1024,
            "footprint {}",
            p.memory_bytes()
        );
    }

    #[test]
    fn budget_scaling_is_monotone_and_respected() {
        let mut last = 0;
        for budget in [8 * 1024, 16 * 1024, 64 * 1024, 256 * 1024] {
            let p = StreamProfiler::new(StreamConfig::with_budget_bytes(budget));
            let used = p.memory_bytes();
            assert!(used <= budget + budget / 2, "budget {budget} used {used}");
            assert!(used > last, "more budget must buy more summary");
            last = used;
        }
    }

    #[test]
    fn totals_and_cardinality_are_tracked() {
        let (p, trace) = profile(WorkloadSpec::trending().scaled(2_000, 30_000), 7);
        assert_eq!(p.events(), trace.len() as u64);
        let true_distinct = trace.unique_keys_requested() as f64;
        let est = p.distinct_keys() as f64;
        assert!(
            (est - true_distinct).abs() / true_distinct < 0.05,
            "distinct est {est} vs true {true_distinct}"
        );
    }

    #[test]
    fn approx_pattern_conserves_request_mass() {
        let (p, trace) = profile(WorkloadSpec::trending().scaled(2_000, 30_000), 8);
        let approx = p.approx_pattern();
        let total = approx.pattern.total_requests();
        // Head uses guaranteed (lower-bound) counts, so the tail absorbs
        // the difference: totals match exactly.
        assert_eq!(total, trace.len() as u64);
        // Reads/writes split approximately matches the workload mix.
        let reads: u64 = approx.pattern.stats().iter().map(|s| s.reads).sum();
        let true_reads = (trace.read_fraction() * trace.len() as f64).round();
        assert!(
            (reads as f64 - true_reads).abs() / true_reads.max(1.0) < 0.05,
            "reads {reads} vs {true_reads}"
        );
    }

    #[test]
    fn head_keys_are_the_true_hottest_keys() {
        // A zipfian head is steep enough that the hottest keys exceed the
        // Space-Saving guarantee threshold `n / K` by a wide margin.
        let spec = WorkloadSpec {
            distribution: ycsb::DistKind::ScrambledZipfian { theta: 0.99 },
            ..WorkloadSpec::trending().scaled(2_000, 30_000)
        };
        let (p, trace) = profile(spec, 9);
        let counts = trace.key_counts();
        let mut true_order: Vec<u64> = (0..trace.keys()).collect();
        true_order.sort_by_key(|&k| std::cmp::Reverse(counts[k as usize].0 + counts[k as usize].1));
        let approx = p.approx_pattern();
        let head: std::collections::HashSet<u64> = approx.head_keys.iter().copied().collect();
        // The 16 genuinely hottest keys must all be monitored.
        for &k in &true_order[..16] {
            assert!(head.contains(&k), "hot key {k} missing from head");
        }
    }

    #[test]
    fn point_estimates_never_undercount() {
        let (p, trace) = profile(WorkloadSpec::timeline().scaled(1_000, 20_000), 10);
        let counts = trace.key_counts();
        let bound = p.count_error_bound();
        for key in (0..trace.keys()).step_by(37) {
            let (r, w) = p.estimate_key(key);
            let (tr, tw) = counts[key as usize];
            assert!(r >= tr && w >= tw, "undercount at {key}");
            assert!(r <= tr + bound && w <= tw + bound, "bound blown at {key}");
        }
    }

    #[test]
    fn idle_decay_shrinks_head_and_resumes_fresh() {
        let spec = WorkloadSpec::trending().scaled(500, 12_000);
        let (mut p, _) = profile(spec, 11);
        let hot_before = p.top_entries()[0].count;
        let ewma_before = p.top_entries()[0].size_ewma;
        p.note_idle_epoch();
        p.note_idle_epoch();
        let top = p.top_entries();
        assert!(top[0].count < hot_before, "counts must decay while idle");
        assert!(
            top[0].size_ewma < ewma_before,
            "sizes must decay while idle"
        );
        assert!(
            p.skew().last_epoch().is_none(),
            "idle gap must drop the drift reference"
        );
    }

    #[test]
    fn state_round_trip_preserves_behaviour() {
        let spec = WorkloadSpec::trending().scaled(800, 15_000);
        let trace = spec.generate(12);
        let config = StreamConfig::default();
        let mut p = StreamProfiler::new(config);
        for e in trace.events().take(9_000) {
            p.observe(&e);
        }
        let back = StreamProfiler::from_state(config, &p.export_state()).unwrap();
        assert_eq!(back.events(), p.events());
        assert_eq!(back.distinct_keys(), p.distinct_keys());
        assert_eq!(back.top_entries(), p.top_entries());
        // Continuing both with the rest of the trace stays identical.
        let mut a = p;
        let mut b = back;
        for e in trace.events().skip(9_000) {
            assert_eq!(a.observe(&e), b.observe(&e));
        }
        assert_eq!(
            a.approx_pattern().pattern.stats(),
            b.approx_pattern().pattern.stats()
        );
    }

    #[test]
    fn from_state_rejects_mismatched_config() {
        let p = StreamProfiler::new(StreamConfig::default());
        let state = p.export_state();
        let other = StreamConfig {
            cm_width: 64,
            ..StreamConfig::default()
        };
        assert!(StreamProfiler::from_state(other, &state).is_err());
    }

    #[test]
    fn empty_profiler_reconstructs_an_empty_pattern() {
        let p = StreamProfiler::new(StreamConfig::default());
        let approx = p.approx_pattern();
        assert_eq!(approx.pattern.key_count(), 0);
        assert_eq!(approx.pattern.total_requests(), 0);
        assert!(approx.head_keys.is_empty());
    }

    /// Assert the memoised pattern is the one a fresh build gives, and
    /// that filling the memo leaves the reported footprint alone.
    fn assert_memo_coherent(
        p: &StreamProfiler,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let before = p.memory_bytes();
        let memo = p.approx_pattern();
        let fresh = p.build_approx_pattern();
        prop_assert_eq!(memo.pattern.stats(), fresh.pattern.stats());
        prop_assert_eq!(&memo.head_keys, &fresh.head_keys);
        prop_assert_eq!(p.memory_bytes(), before);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Steps 0-6 observe a burst of events, 7 resets, 8 applies an
        /// idle epoch and 9 round-trips the exported state. The memo is
        /// filled after every step, so a mutation that failed to clear
        /// it would leave a stale pattern behind.
        #[test]
        fn memoised_pattern_tracks_every_state_change(
            steps in proptest::collection::vec(
                (0u8..10, proptest::collection::vec((0u64..300, proptest::bool::ANY, 1u64..900), 1..40)),
                1..30,
            ),
        ) {
            let config = StreamConfig {
                drift: DriftConfig {
                    epoch_len: 64,
                    ..DriftConfig::default()
                },
                ..StreamConfig::with_budget_bytes(4 * 1024)
            };
            let mut p = StreamProfiler::new(config);
            assert_memo_coherent(&p)?;
            for (kind, burst) in &steps {
                match kind {
                    0..=6 => {
                        for &(key, write, bytes) in burst {
                            let op = if write { Op::Update } else { Op::Read };
                            p.observe(&AccessEvent { key, op, bytes });
                        }
                    }
                    7 => p.reset(),
                    8 => p.note_idle_epoch(),
                    _ => {
                        let state = p.export_state();
                        p = StreamProfiler::from_state(config, &state).unwrap();
                        prop_assert_eq!(p.export_state(), state);
                    }
                }
                assert_memo_coherent(&p)?;
            }
        }
    }
}
