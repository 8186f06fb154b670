//! Space-Saving heavy hitters: the top-K keys of an unbounded stream in
//! O(K) memory.
//!
//! Metwally, Agrawal & El Abbadi's algorithm: keep at most `K` monitored
//! entries. A monitored key's arrival increments its counter; an
//! unmonitored key evicts the entry with the *smallest* counter,
//! inheriting that counter as its over-estimation `error`. Guarantees,
//! for a stream of `n` events:
//!
//! * every entry satisfies `count - error <= true <= count`;
//! * any key with true frequency `> n / K` is monitored — the reported
//!   set is a **superset** of the true heavy hitters at that threshold.
//!
//! Beyond the textbook algorithm, each entry also tracks what Mnemo's
//! Pattern Engine needs per key: the read/write split of its counted
//! arrivals and an EWMA of the record sizes observed for it, so the
//! monitored head of the distribution can be converted back into
//! [`mnemo::KeyStats`].
//!
//! # Eviction without a scan
//!
//! The victim is the entry with the smallest count, the lowest slot
//! among equal counts (what `min_by_key` over the entry array picks).
//! Finding it does not scan the array per takeover. A full summary
//! keeps the minimum count, the number of entries at it and a cursor
//! at or below the lowest slot holding it. Between rescans no entry is
//! added and counts only grow, so the set of slots at the minimum only
//! shrinks and its lowest slot only moves up: the cursor walks forward
//! over slots that have left the minimum, at most `K` steps in all.
//! Every bump of an entry at the minimum (a takeover bumps its victim
//! from the minimum too) lowers the number at it; when that reaches 0
//! the next takeover rescans. `clear`, `decay_idle_epoch` and
//! `import_state` zero it as well. The entry order, [`TopKState`] and
//! `memory_bytes` are those of the scanning summary.

use hybridmem::DetHashMap;
use ycsb::{AccessEvent, Op};

/// One monitored key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopEntry {
    /// The key.
    pub key: u64,
    /// Upper bound on the key's true count.
    pub count: u64,
    /// Over-estimation inherited at takeover: `count - error` lower-bounds
    /// the true count.
    pub error: u64,
    /// Read arrivals counted while monitored.
    pub reads: u64,
    /// Write arrivals counted while monitored.
    pub writes: u64,
    /// EWMA of record sizes observed for this key (bytes).
    pub size_ewma: f64,
}

impl TopEntry {
    /// Guaranteed lower bound on the true count.
    pub fn guaranteed(&self) -> u64 {
        self.count - self.error
    }
}

/// Exported [`SpaceSaving`] state, for warm restarts of long-lived
/// consumers (see [`SpaceSaving::export_state`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TopKState {
    /// Monitored entries, in internal (not sorted) order.
    pub entries: Vec<TopEntry>,
    /// Events observed.
    pub observed: u64,
}

/// The Space-Saving summary.
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    capacity: usize,
    ewma_alpha: f64,
    entries: Vec<TopEntry>,
    /// key -> index into `entries`.
    index: DetHashMap<u64, usize>,
    observed: u64,
    /// The smallest count in a full summary; meaningful only while
    /// `at_min > 0`.
    min_count: u64,
    /// Entries whose count is `min_count`; 0 means "rescan at the next
    /// takeover".
    at_min: usize,
    /// No slot below this one holds `min_count`.
    min_from: usize,
}

impl SpaceSaving {
    /// Track up to `capacity` keys; `ewma_alpha` is the smoothing factor
    /// for per-key size estimates (weight of the newest observation).
    pub fn new(capacity: usize, ewma_alpha: f64) -> SpaceSaving {
        assert!(capacity > 0, "capacity must be nonzero");
        assert!((0.0..=1.0).contains(&ewma_alpha), "alpha out of [0,1]");
        SpaceSaving {
            capacity,
            ewma_alpha,
            entries: Vec::with_capacity(capacity),
            index: DetHashMap::with_capacity_and_hasher(capacity, Default::default()),
            observed: 0,
            min_count: 0,
            at_min: 0,
            min_from: 0,
        }
    }

    /// Number of keys that can be monitored at once.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events observed so far (the `n` of the guarantees).
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Record one access.
    pub fn observe(&mut self, event: &AccessEvent) {
        self.observed += 1;
        if let Some(&i) = self.index.get(&event.key) {
            self.bump(i, event);
            return;
        }
        if self.entries.len() < self.capacity {
            self.index.insert(event.key, self.entries.len());
            self.entries.push(TopEntry {
                key: event.key,
                count: 0,
                error: 0,
                reads: 0,
                writes: 0,
                size_ewma: event.bytes as f64,
            });
            let i = self.entries.len() - 1;
            self.bump(i, event);
            return;
        }
        // Take over the minimum-count entry; its count becomes our error.
        let min = self.victim();
        let evicted = self.entries[min];
        self.index.remove(&evicted.key);
        self.index.insert(event.key, min);
        // The inherited count is all error; the op split and size of the
        // evicted key do not transfer. The bump below takes the slot off
        // the minimum.
        self.entries[min] = TopEntry {
            key: event.key,
            count: evicted.count,
            error: evicted.count,
            reads: 0,
            writes: 0,
            size_ewma: event.bytes as f64,
        };
        self.bump(min, event);
    }

    /// The lowest slot among the minimum counts of a full summary.
    fn victim(&mut self) -> usize {
        if self.at_min == 0 {
            self.rescan_min();
        }
        while self.entries[self.min_from].count != self.min_count {
            self.min_from += 1;
        }
        self.min_from
    }

    /// Recount the minimum of a nonempty summary from scratch.
    fn rescan_min(&mut self) {
        self.min_count = u64::MAX;
        for (i, e) in self.entries.iter().enumerate() {
            if e.count < self.min_count {
                self.min_count = e.count;
                self.at_min = 1;
                self.min_from = i;
            } else if e.count == self.min_count {
                self.at_min += 1;
            }
        }
    }

    fn bump(&mut self, i: usize, event: &AccessEvent) {
        let e = &mut self.entries[i];
        if self.at_min > 0 && e.count == self.min_count {
            self.at_min -= 1;
        }
        e.count += 1;
        match event.op {
            Op::Read => e.reads += 1,
            Op::Update => e.writes += 1,
        }
        e.size_ewma += self.ewma_alpha * (event.bytes as f64 - e.size_ewma);
    }

    /// Monitored entries, hottest first (descending count, ties by key).
    pub fn entries(&self) -> Vec<TopEntry> {
        let mut out = self.entries.clone();
        out.sort_by_key(|e| (std::cmp::Reverse(e.count), e.key));
        out
    }

    /// The monitored key set.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().map(|e| e.key)
    }

    /// Whether `key` is currently monitored.
    pub fn contains(&self, key: u64) -> bool {
        self.index.contains_key(&key)
    }

    /// Forget everything (capacity and alpha are kept). Used by the
    /// per-epoch skew tracker between windows.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
        self.observed = 0;
        self.at_min = 0;
    }

    /// Decay every monitored entry for one epoch that saw *no* traffic.
    ///
    /// A long-lived consumer (the serve daemon) calls this once per idle
    /// epoch so a tenant that stops sending requests sees its rate
    /// statistics halve and its size EWMAs relax toward zero instead of
    /// freezing at their last-traffic values forever. Counts, errors and
    /// the read/write split halve (integer floor, which preserves
    /// `error <= count` and hence the `guaranteed()` lower bound); the
    /// size EWMA takes one smoothing step toward zero — the same update
    /// the live path would apply to a zero-byte pseudo-observation.
    /// Entries whose count reaches zero are dropped and `observed`
    /// halves with them, keeping the `n / K` guarantee consistent.
    pub fn decay_idle_epoch(&mut self) {
        for e in &mut self.entries {
            e.count /= 2;
            e.error /= 2;
            e.reads /= 2;
            e.writes /= 2;
            e.size_ewma -= self.ewma_alpha * e.size_ewma;
        }
        self.entries.retain(|e| e.count > 0);
        self.index.clear();
        for (i, e) in self.entries.iter().enumerate() {
            self.index.insert(e.key, i);
        }
        self.observed /= 2;
        self.at_min = 0;
    }

    /// Serialisable snapshot of the summary: the monitored entries (in
    /// internal order) and the observation count. Capacity and alpha are
    /// configuration and travel separately.
    pub fn export_state(&self) -> TopKState {
        TopKState {
            entries: self.entries.clone(),
            observed: self.observed,
        }
    }

    /// Rebuild a summary from an exported state under the given
    /// configuration. Fails when the state cannot have come from a
    /// summary of this shape (too many entries, duplicate keys, or an
    /// entry whose error exceeds its count).
    pub fn import_state(
        capacity: usize,
        ewma_alpha: f64,
        state: &TopKState,
    ) -> Result<SpaceSaving, String> {
        if state.entries.len() > capacity {
            return Err(format!(
                "top-k state holds {} entries but capacity is {capacity}",
                state.entries.len()
            ));
        }
        let mut out = SpaceSaving::new(capacity, ewma_alpha);
        for (i, e) in state.entries.iter().enumerate() {
            if e.error > e.count {
                return Err(format!("entry for key {} has error > count", e.key));
            }
            if out.index.insert(e.key, i).is_some() {
                return Err(format!("duplicate key {} in top-k state", e.key));
            }
            out.entries.push(*e);
        }
        out.observed = state.observed;
        Ok(out)
    }

    /// Heap footprint in bytes: the entry array plus the key index
    /// (estimated at one entry-slot pair per monitored key).
    pub fn memory_bytes(&self) -> usize {
        self.capacity * std::mem::size_of::<TopEntry>()
            + self.capacity * (std::mem::size_of::<u64>() + std::mem::size_of::<usize>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(key: u64, bytes: u64) -> AccessEvent {
        AccessEvent {
            key,
            op: Op::Read,
            bytes,
        }
    }

    fn write(key: u64, bytes: u64) -> AccessEvent {
        AccessEvent {
            key,
            op: Op::Update,
            bytes,
        }
    }

    #[test]
    fn exact_when_under_capacity() {
        let mut ss = SpaceSaving::new(8, 0.2);
        for _ in 0..5 {
            ss.observe(&read(1, 100));
        }
        ss.observe(&write(2, 200));
        let entries = ss.entries();
        assert_eq!(entries[0].key, 1);
        assert_eq!(entries[0].count, 5);
        assert_eq!(entries[0].error, 0);
        assert_eq!(entries[0].reads, 5);
        assert_eq!(
            entries[1],
            TopEntry {
                key: 2,
                count: 1,
                error: 0,
                reads: 0,
                writes: 1,
                size_ewma: 200.0,
            }
        );
    }

    #[test]
    fn heavy_hitters_survive_churn() {
        // Two heavy keys among a parade of one-shot keys: capacity 4
        // must keep both heavies monitored with tight bounds.
        let mut ss = SpaceSaving::new(4, 0.2);
        for i in 0..1000u64 {
            ss.observe(&read(1, 50));
            ss.observe(&read(2, 50));
            ss.observe(&read(1000 + i, 10)); // never repeats
        }
        assert!(ss.contains(1));
        assert!(ss.contains(2));
        let hot: Vec<_> = ss.entries().into_iter().take(2).collect();
        for e in hot {
            assert!(e.count >= 1000, "count {}", e.count);
            assert!(e.guaranteed() <= 1000);
        }
    }

    #[test]
    fn takeover_inherits_count_as_error() {
        let mut ss = SpaceSaving::new(1, 0.5);
        for _ in 0..10 {
            ss.observe(&read(7, 100));
        }
        ss.observe(&write(9, 40));
        let e = ss.entries()[0];
        assert_eq!(e.key, 9);
        assert_eq!(e.count, 11);
        assert_eq!(e.error, 10);
        assert_eq!(e.guaranteed(), 1);
        assert_eq!((e.reads, e.writes), (0, 1), "op split restarts at takeover");
        assert_eq!(e.size_ewma, 40.0, "size restarts at takeover");
    }

    #[test]
    fn size_ewma_tracks_observed_bytes() {
        let mut ss = SpaceSaving::new(2, 0.5);
        ss.observe(&read(3, 100));
        ss.observe(&read(3, 200)); // 100 + 0.5*(200-100) = 150
        let e = ss.entries()[0];
        assert!((e.size_ewma - 150.0).abs() < 1e-9);
    }

    #[test]
    fn idle_decay_halves_counts_and_relaxes_sizes() {
        let mut ss = SpaceSaving::new(4, 0.2);
        for _ in 0..8 {
            ss.observe(&read(1, 100));
        }
        ss.observe(&write(2, 50));
        ss.decay_idle_epoch();
        let entries = ss.entries();
        assert_eq!(entries[0].key, 1);
        assert_eq!(entries[0].count, 4);
        assert_eq!(entries[0].reads, 4);
        assert!(entries[0].size_ewma < 100.0, "EWMA must relax, not freeze");
        // Key 2 had count 1 -> halves to 0 -> dropped entirely.
        assert!(!ss.contains(2), "zero-count entries are dropped");
        assert_eq!(ss.observed(), 4);
        // Repeated idle epochs drain the summary completely.
        for _ in 0..8 {
            ss.decay_idle_epoch();
        }
        assert!(ss.entries().is_empty());
    }

    #[test]
    fn idle_decay_preserves_guarantee_invariant() {
        let mut ss = SpaceSaving::new(1, 0.2);
        for _ in 0..9 {
            ss.observe(&read(7, 10));
        }
        ss.observe(&read(8, 10)); // takeover: count 10, error 9
        ss.decay_idle_epoch();
        let e = ss.entries()[0];
        assert!(e.error <= e.count, "error {} > count {}", e.error, e.count);
        assert_eq!(e.guaranteed(), 1);
    }

    #[test]
    fn state_round_trips() {
        let mut ss = SpaceSaving::new(4, 0.2);
        for i in 0..20u64 {
            ss.observe(&read(i % 6, 10 + i));
        }
        let state = ss.export_state();
        let back = SpaceSaving::import_state(4, 0.2, &state).unwrap();
        assert_eq!(back.entries(), ss.entries());
        assert_eq!(back.observed(), ss.observed());
        // And the rebuilt index keeps working.
        let mut a = ss.clone();
        let mut b = back;
        for i in 0..50u64 {
            a.observe(&read(i % 9, 64));
            b.observe(&read(i % 9, 64));
        }
        assert_eq!(a.entries(), b.entries());
    }

    #[test]
    fn import_rejects_corrupt_state() {
        let over = TopKState {
            entries: (0..5)
                .map(|k| TopEntry {
                    key: k,
                    count: 1,
                    error: 0,
                    reads: 1,
                    writes: 0,
                    size_ewma: 1.0,
                })
                .collect(),
            observed: 5,
        };
        assert!(SpaceSaving::import_state(4, 0.2, &over).is_err());
        let dup = TopKState {
            entries: vec![
                TopEntry {
                    key: 1,
                    count: 2,
                    error: 0,
                    reads: 2,
                    writes: 0,
                    size_ewma: 1.0,
                };
                2
            ],
            observed: 4,
        };
        assert!(SpaceSaving::import_state(4, 0.2, &dup).is_err());
    }

    #[test]
    fn clear_resets_but_keeps_shape() {
        let mut ss = SpaceSaving::new(3, 0.2);
        for i in 0..10 {
            ss.observe(&read(i, 10));
        }
        let mem = ss.memory_bytes();
        ss.clear();
        assert_eq!(ss.observed(), 0);
        assert!(ss.entries().is_empty());
        assert_eq!(
            ss.memory_bytes(),
            mem,
            "budget is capacity-, not fill-, based"
        );
    }
}
