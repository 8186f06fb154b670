//! Epoch snapshots and their order-independent merge.
//!
//! A [`Snapshot`] is the unit of aggregation and export: the frozen
//! state of one recorder (or one shard's slice of an epoch). Merging is
//! **associative and commutative** — counters add, gauges combine
//! sum/count/min/max, histograms merge bucket-wise — so folding shard
//! snapshots in any order equals recording everything into a single
//! recorder. That property is what makes sim-domain telemetry
//! byte-identical under any `--jobs` value, and it is property-tested
//! in this crate.

use crate::recorder::{MetricHistogram, TimeDomain};
use hybridmem::Histogram;
use std::collections::BTreeMap;

/// Version of the exported schema. Bump when the column list or the
/// meaning of any exported field changes; exporters embed it in every
/// artifact so downstream readers can detect drift.
pub const SCHEMA_VERSION: u32 = 1;

/// Order-independent gauge aggregate. Individual observations are not
/// kept; `sum`/`count`/`min`/`max` merge commutatively, which is exactly
/// the set of reductions that survive sharding without an ordered log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeAgg {
    /// Sum of all observations.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
    /// Smallest observation (`f64::INFINITY` when empty).
    pub min: f64,
    /// Largest observation (`f64::NEG_INFINITY` when empty).
    pub max: f64,
}

impl Default for GaugeAgg {
    fn default() -> GaugeAgg {
        GaugeAgg {
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl GaugeAgg {
    /// Fold one observation in.
    pub fn observe(&mut self, value: f64) {
        self.sum += value;
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merge another aggregate in (commutative, associative).
    pub fn merge(&mut self, other: &GaugeAgg) {
        self.sum += other.sum;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean observation; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Frozen aggregate state of one epoch (or one shard's slice of it).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    epoch: u64,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, (TimeDomain, GaugeAgg)>,
    hists: BTreeMap<String, (TimeDomain, Histogram)>,
}

impl Snapshot {
    /// An empty snapshot for `epoch` — the identity element of
    /// [`Snapshot::merge`].
    pub fn empty(epoch: u64) -> Snapshot {
        Snapshot {
            epoch,
            ..Snapshot::default()
        }
    }

    pub(crate) fn from_parts(
        epoch: u64,
        counters: BTreeMap<String, u64>,
        gauges: BTreeMap<String, (TimeDomain, GaugeAgg)>,
        hists: BTreeMap<String, (TimeDomain, Histogram)>,
    ) -> Snapshot {
        Snapshot {
            epoch,
            counters,
            gauges,
            hists,
        }
    }

    /// Which epoch this snapshot covers.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Merge another snapshot of the same epoch into this one.
    /// Commutative and associative; metric names union, values combine
    /// by their type's reduction.
    pub fn merge(&mut self, other: &Snapshot) {
        debug_assert_eq!(
            self.epoch, other.epoch,
            "merging snapshots from different epochs"
        );
        self.fold(other);
    }

    /// [`Snapshot::merge`] across epoch boundaries: combines the values
    /// but keeps this snapshot's epoch number. This is the whole-run
    /// accumulation behind summary totals, where the epoch identity is
    /// deliberately discarded.
    pub fn fold(&mut self, other: &Snapshot) {
        for (name, n) in &other.counters {
            fold_entry(&mut self.counters, name, || 0, |total| *total += n);
        }
        for (name, (domain, agg)) in &other.gauges {
            let empty = || (*domain, GaugeAgg::default());
            fold_entry(&mut self.gauges, name, empty, |entry| {
                debug_assert_eq!(entry.0, *domain, "gauge '{name}' domain mismatch in merge");
                entry.1.merge(agg);
            });
        }
        for (name, (domain, hist)) in &other.hists {
            let empty = || (*domain, Histogram::new());
            fold_entry(&mut self.hists, name, empty, |entry| {
                debug_assert_eq!(
                    entry.0, *domain,
                    "histogram '{name}' domain mismatch in merge"
                );
                entry.1.merge_with(hist);
            });
        }
    }

    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge aggregate, if recorded.
    pub fn gauge(&self, name: &str) -> Option<&GaugeAgg> {
        self.gauges.get(name).map(|(_, agg)| agg)
    }

    /// Histogram, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name).map(|(_, h)| h)
    }

    /// Time domain of a gauge or histogram metric, if present.
    pub fn domain_of(&self, name: &str) -> Option<TimeDomain> {
        self.gauges
            .get(name)
            .map(|(d, _)| *d)
            .or_else(|| self.hists.get(name).map(|(d, _)| *d))
    }

    /// Counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, TimeDomain, &GaugeAgg)> {
        self.gauges.iter().map(|(k, (d, g))| (k.as_str(), *d, g))
    }

    /// Histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, TimeDomain, &Histogram)> {
        self.hists.iter().map(|(k, (d, h))| (k.as_str(), *d, h))
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }
}

/// Apply `add` to the value under `name`, starting from `empty()` when
/// the name is absent. The name is cloned only on insert: a running
/// fold meets the same names every epoch.
fn fold_entry<V>(
    map: &mut BTreeMap<String, V>,
    name: &String,
    empty: impl FnOnce() -> V,
    add: impl FnOnce(&mut V),
) {
    match map.get_mut(name) {
        Some(value) => add(value),
        None => {
            let mut value = empty();
            add(&mut value);
            map.insert(name.clone(), value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn sample(epoch: u64, base: f64) -> Snapshot {
        let mut r = Recorder::new();
        r.count("c", base as u64);
        r.gauge("g", base);
        r.observe("h", base * 2.0);
        r.snapshot(epoch)
    }

    #[test]
    fn empty_is_merge_identity() {
        let a = sample(3, 5.0);
        let mut merged = Snapshot::empty(3);
        merged.merge(&a);
        assert_eq!(merged.counter("c"), a.counter("c"));
        assert_eq!(merged.gauge("g"), a.gauge("g"));
        assert_eq!(
            merged.histogram("h").unwrap().count(),
            a.histogram("h").unwrap().count()
        );
    }

    #[test]
    fn merge_is_commutative_on_all_types() {
        let a = sample(0, 4.0);
        let b = sample(0, 9.0);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.counter("c"), ba.counter("c"));
        assert_eq!(ab.gauge("g"), ba.gauge("g"));
        assert_eq!(
            ab.histogram("h").unwrap().mean(),
            ba.histogram("h").unwrap().mean()
        );
    }

    #[test]
    fn merge_unions_disjoint_names() {
        let mut r1 = Recorder::new();
        r1.count("only.left", 1);
        let mut r2 = Recorder::new();
        r2.count("only.right", 2);
        let mut merged = r1.snapshot(0);
        merged.merge(&r2.snapshot(0));
        assert_eq!(merged.counter("only.left"), 1);
        assert_eq!(merged.counter("only.right"), 2);
    }

    #[test]
    fn fold_accumulates_across_epochs() {
        let mut total = Snapshot::empty(0);
        total.fold(&sample(0, 3.0));
        total.fold(&sample(1, 4.0));
        assert_eq!(total.epoch(), 0, "fold keeps the accumulator's epoch");
        assert_eq!(total.counter("c"), 7);
        assert_eq!(total.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn domain_survives_merge() {
        let mut r1 = Recorder::new();
        r1.observe_wall("w", 1.0);
        r1.observe("s", 2.0);
        let mut merged = Snapshot::empty(0);
        merged.merge(&r1.snapshot(0));
        assert_eq!(merged.domain_of("w"), Some(TimeDomain::Wall));
        assert_eq!(merged.domain_of("s"), Some(TimeDomain::Sim));
        assert_eq!(merged.domain_of("missing"), None);
    }
}
