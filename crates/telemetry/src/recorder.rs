//! The low-overhead recording core.
//!
//! A [`Recorder`] is deliberately *unshared*: every shard, server or
//! sweep owns its own, so recording is plain memory writes — no locks,
//! no atomics on the hot path ("lock-free" by construction). Cross-shard
//! aggregation happens at snapshot time, where
//! [`Snapshot::merge`](crate::Snapshot::merge) is associative and
//! commutative, so the merged result is independent of shard completion
//! order and worker count.

use crate::snapshot::{GaugeAgg, Snapshot};
use hybridmem::CacheStats;
use hybridmem::{AccessStats, Histogram, SimClock};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Which clock a metric's values come from.
///
/// The distinction is load-bearing for CI: sim-domain values are derived
/// from [`hybridmem::SimClock`] arithmetic and deterministic counters, so
/// their export is byte-identical for every `--jobs` value and is gated;
/// wall-domain values are host timings, excluded from every determinism
/// and golden diff (the columnar writer prefixes their files `timing-`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TimeDomain {
    /// Simulated time / deterministic logical quantities.
    Sim,
    /// Host wall-clock time (diagnostic only).
    Wall,
}

impl TimeDomain {
    /// Lower-case schema name.
    pub fn name(&self) -> &'static str {
        match self {
            TimeDomain::Sim => "sim",
            TimeDomain::Wall => "wall",
        }
    }
}

/// The shared histogram abstraction: what the telemetry pipeline needs
/// from a log-bucketed histogram. Implemented for
/// [`hybridmem::Histogram`] so the simulator's service-time machinery is
/// reused rather than re-implemented; alternative backends (e.g. a
/// fixed-bucket histogram for constrained targets) only need this trait.
pub trait MetricHistogram: Default + Clone {
    /// Record one sample.
    fn observe(&mut self, value: f64);
    /// Merge another histogram of the same resolution into this one.
    fn merge_with(&mut self, other: &Self);
    /// Number of samples.
    fn samples(&self) -> u64;
    /// Mean sample; 0 when empty.
    fn mean_value(&self) -> f64;
    /// Smallest sample; 0 when empty.
    fn min_value(&self) -> f64;
    /// Largest sample; 0 when empty.
    fn max_value(&self) -> f64;
    /// Approximate quantile in `[0, 1]`.
    fn quantile_value(&self, q: f64) -> f64;
    /// Sum of all samples (derived; deterministic for identical inputs).
    fn value_sum(&self) -> f64 {
        self.mean_value() * self.samples() as f64
    }
}

impl MetricHistogram for Histogram {
    fn observe(&mut self, value: f64) {
        self.record(value);
    }
    fn merge_with(&mut self, other: &Self) {
        self.merge(other);
    }
    fn samples(&self) -> u64 {
        self.count()
    }
    fn mean_value(&self) -> f64 {
        self.mean()
    }
    fn min_value(&self) -> f64 {
        self.min()
    }
    fn max_value(&self) -> f64 {
        self.max()
    }
    fn quantile_value(&self, q: f64) -> f64 {
        self.quantile(q)
    }
}

/// One completed span: a named, timed region with an item count.
/// Spans are kept in execution order (the legacy `timing-*.csv` stage
/// table is ordered) *and* aggregated into the recorder's histograms,
/// so snapshots see them without needing ordered event storage.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Stage/span name (e.g. `"consult"`, `"panel-a"`).
    pub name: String,
    /// Which clock timed it.
    pub domain: TimeDomain,
    /// Items the span processed (0 when not meaningful).
    pub items: u64,
    /// Span duration in nanoseconds of its domain's clock.
    pub duration_ns: f64,
}

/// An open sim-domain span: captures the virtual clock at start so the
/// matching [`Recorder::end_sim_span`] can charge the difference.
#[derive(Debug, Clone, Copy)]
pub struct SimSpan {
    start_ns: u128,
}

impl SimSpan {
    /// Open a span at the clock's current virtual time.
    pub fn begin(clock: &SimClock) -> SimSpan {
        SimSpan {
            start_ns: clock.now_ns(),
        }
    }
}

/// Precomputed metric names for one [`AccessStats`] prefix, so the
/// per-request telemetry block formats each name once per run instead
/// of six times per request.
#[derive(Debug, Clone)]
pub struct AccessStatKeys {
    reads: String,
    writes: String,
    read_bytes: String,
    write_bytes: String,
    read_ns: String,
    write_ns: String,
}

impl AccessStatKeys {
    /// Build the six metric names under `prefix` (e.g. `kv.fast`).
    pub fn new(prefix: &str) -> AccessStatKeys {
        AccessStatKeys {
            reads: format!("{prefix}.reads"),
            writes: format!("{prefix}.writes"),
            read_bytes: format!("{prefix}.read_bytes"),
            write_bytes: format!("{prefix}.write_bytes"),
            read_ns: format!("{prefix}.read_ns"),
            write_ns: format!("{prefix}.write_ns"),
        }
    }
}

/// Precomputed metric names for one [`CacheStats`] prefix (e.g.
/// `kv.llc`); the cache-stats analogue of [`AccessStatKeys`].
#[derive(Debug, Clone)]
pub struct CacheStatKeys {
    hits: String,
    misses: String,
    hit_bytes: String,
    miss_bytes: String,
}

impl CacheStatKeys {
    /// Build the four metric names under `prefix`.
    pub fn new(prefix: &str) -> CacheStatKeys {
        CacheStatKeys {
            hits: format!("{prefix}.hits"),
            misses: format!("{prefix}.misses"),
            hit_bytes: format!("{prefix}.hit_bytes"),
            miss_bytes: format!("{prefix}.miss_bytes"),
        }
    }
}

/// A single-owner metrics recorder.
#[derive(Debug, Default, Clone)]
pub struct Recorder {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, (TimeDomain, GaugeAgg)>,
    hists: BTreeMap<String, (TimeDomain, Histogram)>,
    spans: Vec<SpanRecord>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Add `n` to a counter. Counters are logical counts — always
    /// sim-domain, always deterministic. The name is only copied the
    /// first time a counter is seen, so steady-state recording does not
    /// allocate.
    pub fn count(&mut self, name: &str, n: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += n,
            None => {
                self.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Record a sim-domain gauge observation (aggregated as
    /// sum/count/min/max so shard merges are order-independent).
    pub fn gauge(&mut self, name: &str, value: f64) {
        match self.gauges.get_mut(name) {
            Some(entry) => entry.1.observe(value),
            None => {
                let mut agg = GaugeAgg::default();
                agg.observe(value);
                self.gauges.insert(name.to_string(), (TimeDomain::Sim, agg));
            }
        }
    }

    /// Record a sample into a sim-domain histogram.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.observe_in(name, TimeDomain::Sim, value);
    }

    /// Record a sample into a wall-domain histogram.
    pub fn observe_wall(&mut self, name: &str, value: f64) {
        self.observe_in(name, TimeDomain::Wall, value);
    }

    fn observe_in(&mut self, name: &str, domain: TimeDomain, value: f64) {
        match self.hists.get_mut(name) {
            Some(entry) => {
                debug_assert_eq!(entry.0, domain, "histogram '{name}' changed time domain");
                entry.1.observe(value);
            }
            None => {
                let mut h = Histogram::new();
                h.observe(value);
                self.hists.insert(name.to_string(), (domain, h));
            }
        }
    }

    /// Record a completed span: kept in execution order and aggregated
    /// into `span.<name>.<domain>_ns` (histogram) and
    /// `span.<name>.items` (counter).
    pub fn record_span(&mut self, name: &str, domain: TimeDomain, items: u64, duration_ns: f64) {
        self.observe_in(
            &format!("span.{name}.{}_ns", domain.name()),
            domain,
            duration_ns,
        );
        self.count(&format!("span.{name}.items"), items);
        self.spans.push(SpanRecord {
            name: name.to_string(),
            domain,
            items,
            duration_ns,
        });
    }

    /// Run `f` as a wall-clock span over `items` items.
    pub fn time_wall<T>(&mut self, name: &str, items: u64, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.record_wall_span(name, items, t.elapsed());
        out
    }

    /// Record an externally wall-timed span.
    pub fn record_wall_span(&mut self, name: &str, items: u64, wall: Duration) {
        self.record_span(name, TimeDomain::Wall, items, wall.as_secs_f64() * 1e9);
    }

    /// Close a sim-domain span opened with [`SimSpan::begin`] against the
    /// same virtual clock.
    pub fn end_sim_span(&mut self, name: &str, items: u64, span: SimSpan, clock: &SimClock) {
        let elapsed = clock.now_ns().saturating_sub(span.start_ns);
        self.record_span(name, TimeDomain::Sim, items, elapsed as f64);
    }

    /// Fold a device's [`AccessStats`] into counters/gauges under
    /// `prefix` (e.g. `kv.fast`): access + byte counters (sim domain)
    /// and total service-nanosecond gauges. Per-request callers should
    /// precompute an [`AccessStatKeys`] once and use
    /// [`Recorder::record_access_stats_with`] instead, which skips the
    /// six name formats.
    pub fn record_access_stats(&mut self, prefix: &str, stats: &AccessStats) {
        self.record_access_stats_with(&AccessStatKeys::new(prefix), stats);
    }

    /// [`Recorder::record_access_stats`] through precomputed names — no
    /// per-call allocation.
    pub fn record_access_stats_with(&mut self, keys: &AccessStatKeys, stats: &AccessStats) {
        self.count(&keys.reads, stats.reads);
        self.count(&keys.writes, stats.writes);
        self.count(&keys.read_bytes, stats.read_bytes);
        self.count(&keys.write_bytes, stats.write_bytes);
        self.gauge(&keys.read_ns, stats.read_ns);
        self.gauge(&keys.write_ns, stats.write_ns);
    }

    /// Fold LLC [`CacheStats`] into counters under `prefix` (e.g.
    /// `kv.llc`). Per-request callers should precompute a
    /// [`CacheStatKeys`] and use [`Recorder::record_cache_stats_with`].
    pub fn record_cache_stats(&mut self, prefix: &str, stats: &CacheStats) {
        self.record_cache_stats_with(&CacheStatKeys::new(prefix), stats);
    }

    /// [`Recorder::record_cache_stats`] through precomputed names — no
    /// per-call allocation.
    pub fn record_cache_stats_with(&mut self, keys: &CacheStatKeys, stats: &CacheStats) {
        self.count(&keys.hits, stats.hits);
        self.count(&keys.misses, stats.misses);
        self.count(&keys.hit_bytes, stats.hit_bytes);
        self.count(&keys.miss_bytes, stats.miss_bytes);
    }

    /// Completed spans in execution order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Snapshot the current aggregate state (leaves the recorder
    /// untouched).
    pub fn snapshot(&self, epoch: u64) -> Snapshot {
        Snapshot::from_parts(
            epoch,
            self.counters.clone(),
            self.gauges.clone(),
            self.hists.clone(),
        )
    }

    /// Snapshot and reset: the epoch-boundary operation. Spans are
    /// cleared too (they were aggregated into the snapshot's histograms
    /// when recorded).
    pub fn take_snapshot(&mut self, epoch: u64) -> Snapshot {
        let snap = Snapshot::from_parts(
            epoch,
            std::mem::take(&mut self.counters),
            std::mem::take(&mut self.gauges),
            std::mem::take(&mut self.hists),
        );
        self.spans.clear();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridmem::spec::AccessKind;

    #[test]
    fn counters_accumulate() {
        let mut r = Recorder::new();
        r.count("a", 2);
        r.count("a", 3);
        assert_eq!(r.snapshot(0).counter("a"), 5);
        assert_eq!(r.snapshot(0).counter("missing"), 0);
    }

    #[test]
    fn gauges_aggregate_order_independently() {
        let mut r = Recorder::new();
        r.gauge("g", 1.0);
        r.gauge("g", 9.0);
        r.gauge("g", 5.0);
        let snap = r.snapshot(0);
        let g = snap.gauge("g").unwrap();
        assert_eq!(g.count, 3);
        assert_eq!(g.sum, 15.0);
        assert_eq!(g.min, 1.0);
        assert_eq!(g.max, 9.0);
        assert_eq!(g.mean(), 5.0);
    }

    #[test]
    fn histograms_reuse_hybridmem_buckets() {
        let mut r = Recorder::new();
        for v in [10.0, 20.0, 30.0] {
            r.observe("h", v);
        }
        let snap = r.snapshot(0);
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.samples(), 3);
        assert_eq!(h.mean_value(), 20.0);
        assert!((h.value_sum() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn spans_keep_order_and_aggregate() {
        let mut r = Recorder::new();
        let x = r.time_wall("stage-a", 3, || 42);
        assert_eq!(x, 42);
        r.record_wall_span("stage-b", 1, Duration::from_millis(2));
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[0].name, "stage-a");
        assert_eq!(r.spans()[1].name, "stage-b");
        let snap = r.snapshot(0);
        assert_eq!(snap.counter("span.stage-a.items"), 3);
        assert!(snap.histogram("span.stage-b.wall_ns").is_some());
    }

    #[test]
    fn sim_spans_charge_virtual_time() {
        let mut r = Recorder::new();
        let mut clock = SimClock::new();
        let span = SimSpan::begin(&clock);
        clock.advance(1500.0);
        r.end_sim_span("run", 10, span, &clock);
        let snap = r.snapshot(0);
        let h = snap.histogram("span.run.sim_ns").unwrap();
        assert_eq!(h.samples(), 1);
        assert_eq!(h.max_value(), 1500.0);
        assert_eq!(snap.counter("span.run.items"), 10);
    }

    #[test]
    fn take_snapshot_resets() {
        let mut r = Recorder::new();
        r.count("c", 1);
        r.observe("h", 5.0);
        let first = r.take_snapshot(0);
        assert_eq!(first.counter("c"), 1);
        assert!(r.is_empty());
        let second = r.take_snapshot(1);
        assert_eq!(second.counter("c"), 0);
        assert!(second.histogram("h").is_none());
    }

    #[test]
    fn stats_bridges_fold_into_metrics() {
        let mut stats = AccessStats::default();
        stats.record(AccessKind::Read, 64, 100.0);
        stats.record(AccessKind::Write, 32, 200.0);
        let cache = CacheStats {
            hits: 3,
            misses: 1,
            hit_bytes: 300,
            miss_bytes: 100,
        };
        let mut r = Recorder::new();
        r.record_access_stats("dev", &stats);
        r.record_cache_stats("llc", &cache);
        let snap = r.snapshot(0);
        assert_eq!(snap.counter("dev.reads"), 1);
        assert_eq!(snap.counter("dev.write_bytes"), 32);
        assert_eq!(snap.gauge("dev.read_ns").unwrap().sum, 100.0);
        assert_eq!(snap.counter("llc.hits"), 3);
        assert_eq!(snap.counter("llc.miss_bytes"), 100);
    }
}
