//! Property tests for the sketch guarantees, checked against exact
//! per-key counts on seeded zipfian and uniform traces.
//!
//! * Count-Min estimates never undercount, and stay within the computed
//!   `eps * N` ceiling.
//! * Space-Saving monitors a superset of the true heavy hitters (every
//!   key with frequency above `n / K`), and brackets each monitored
//!   key's true count between `guaranteed()` and `count`.
//! * Space-Saving's scan-free eviction picks the victim the linear
//!   first-minimum scan picks, through every mutation.

use mnemo_stream::{CountMinSketch, SpaceSaving, TopEntry};
use proptest::prelude::*;
use ycsb::{AccessEvent, DistKind, Op, Trace, WorkloadSpec};

fn trace_for(uniform: bool, theta: f64, seed: u64) -> Trace {
    let distribution = if uniform {
        DistKind::Uniform
    } else {
        DistKind::ScrambledZipfian { theta }
    };
    WorkloadSpec {
        distribution,
        ..WorkloadSpec::trending().scaled(400, 6_000)
    }
    .generate(seed)
}

/// Oracle for [`SpaceSaving`]: the same summary over a plain entry
/// array, evicting the first minimum-count entry found by a linear scan.
struct ScanSummary {
    capacity: usize,
    alpha: f64,
    entries: Vec<TopEntry>,
    observed: u64,
}

impl ScanSummary {
    /// Observe one event; returns the evicted key, if any.
    fn observe(&mut self, event: &AccessEvent) -> Option<u64> {
        self.observed += 1;
        let mut evicted = None;
        let i = match self.entries.iter().position(|e| e.key == event.key) {
            Some(i) => i,
            None => {
                let fresh = TopEntry {
                    key: event.key,
                    count: 0,
                    error: 0,
                    reads: 0,
                    writes: 0,
                    size_ewma: event.bytes as f64,
                };
                if self.entries.len() < self.capacity {
                    self.entries.push(fresh);
                    self.entries.len() - 1
                } else {
                    let (min, victim) = self
                        .entries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.count)
                        .map(|(i, e)| (i, *e))
                        .unwrap();
                    evicted = Some(victim.key);
                    self.entries[min] = TopEntry {
                        count: victim.count,
                        error: victim.count,
                        ..fresh
                    };
                    min
                }
            }
        };
        let e = &mut self.entries[i];
        e.count += 1;
        match event.op {
            Op::Read => e.reads += 1,
            Op::Update => e.writes += 1,
        }
        e.size_ewma += self.alpha * (event.bytes as f64 - e.size_ewma);
        evicted
    }

    fn decay_idle_epoch(&mut self) {
        for e in &mut self.entries {
            e.count /= 2;
            e.error /= 2;
            e.reads /= 2;
            e.writes /= 2;
            e.size_ewma -= self.alpha * e.size_ewma;
        }
        self.entries.retain(|e| e.count > 0);
        self.observed /= 2;
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.observed = 0;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn count_min_never_undercounts_and_stays_within_epsilon_n(
        seed in 0u64..1_000_000,
        theta in 0.5f64..0.99,
        uniform in proptest::bool::ANY,
    ) {
        let trace = trace_for(uniform, theta, seed);
        let mut cm = CountMinSketch::new(512, 5);
        for e in trace.events() {
            cm.increment(e.key);
        }
        let bound = cm.error_bound();
        let counts = trace.key_counts();
        for key in 0..trace.keys() {
            let (r, w) = counts[key as usize];
            let true_count = r + w;
            let est = cm.estimate(key);
            prop_assert!(
                est >= true_count,
                "undercount: key {} est {} true {}",
                key, est, true_count
            );
            prop_assert!(
                est <= true_count + bound,
                "bound blown: key {} est {} true {} eps*N {}",
                key, est, true_count, bound
            );
        }
    }

    #[test]
    fn space_saving_monitors_a_superset_of_the_true_heavy_hitters(
        seed in 0u64..1_000_000,
        theta in 0.5f64..0.99,
        uniform in proptest::bool::ANY,
    ) {
        let trace = trace_for(uniform, theta, seed);
        let capacity = 64usize;
        let mut ss = SpaceSaving::new(capacity, 0.2);
        for e in trace.events() {
            ss.observe(&e);
        }
        let by_key: std::collections::HashMap<u64, (u64, u64)> =
            ss.entries().iter().map(|e| (e.key, (e.guaranteed(), e.count))).collect();
        let counts = trace.key_counts();
        let threshold = trace.len() as u64 / capacity as u64;
        for key in 0..trace.keys() {
            let (r, w) = counts[key as usize];
            let true_count = r + w;
            if true_count > threshold {
                prop_assert!(
                    by_key.contains_key(&key),
                    "heavy hitter {} ({} > n/K {}) not monitored",
                    key, true_count, threshold
                );
            }
            if let Some(&(guaranteed, count)) = by_key.get(&key) {
                prop_assert!(
                    guaranteed <= true_count && true_count <= count,
                    "key {}: true {} outside [{}, {}]",
                    key, true_count, guaranteed, count
                );
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Capacities 1–16 over few keys, so summaries fill, counts tie and
    /// takeovers are frequent. Alpha 0.2 is also the skew tracker's
    /// window, which clears between epochs; `import_state` swaps in a
    /// rebuilt summary mid-stream.
    #[test]
    fn scan_free_eviction_matches_the_linear_first_minimum_scan(
        capacity in 1usize..17,
        alpha in prop_oneof![Just(0.2f64), 0.0f64..1.0],
        steps in proptest::collection::vec(
            (0u8..40, 0u64..24, proptest::bool::ANY, 1u64..300),
            0..400,
        ),
    ) {
        let mut ss = SpaceSaving::new(capacity, alpha);
        let mut oracle = ScanSummary { capacity, alpha, entries: Vec::new(), observed: 0 };
        for (step, &(kind, key, read, bytes)) in steps.iter().enumerate() {
            let before = ss.export_state();
            let mut want_victim = None;
            match kind {
                0 => {
                    ss.decay_idle_epoch();
                    oracle.decay_idle_epoch();
                }
                1 => {
                    ss.clear();
                    oracle.clear();
                }
                2 => ss = SpaceSaving::import_state(capacity, alpha, &before).unwrap(),
                _ => {
                    let op = if read { Op::Read } else { Op::Update };
                    let event = AccessEvent { key, op, bytes };
                    ss.observe(&event);
                    want_victim = oracle.observe(&event);
                }
            }
            let state = ss.export_state();
            prop_assert_eq!(&state.entries, &oracle.entries, "step {}", step);
            prop_assert_eq!(state.observed, oracle.observed, "step {}", step);
            let victim = before
                .entries
                .iter()
                .map(|e| e.key)
                .find(|&k| kind > 2 && !ss.contains(k));
            prop_assert_eq!(victim, want_victim, "step {}", step);
            let mut sorted = oracle.entries.clone();
            sorted.sort_by_key(|e| (std::cmp::Reverse(e.count), e.key));
            prop_assert_eq!(ss.entries(), sorted, "step {}", step);
        }
    }
}
