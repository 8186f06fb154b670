//! MnemoT — the key-value-store-optimised Pattern Engine (Fig. 7).
//!
//! "The Pattern Engine now takes as an input the key-value sizes and
//! associates each key with a placement weight. The weight is the number
//! of accesses the key receives, divided by the size of the key-value
//! pair. In this way, keys that are heavily accessed (hot keys) are
//! prioritized for DRAM allocations, as well as small keys also get an
//! advantage, so that more key-value pairs can be satisfied by FastMem
//! until capacity is full."
//!
//! This is the tiering methodology of X-Mem/Unimem-style systems, but
//! computed from the workload description alone — at "zero overhead
//! compared to existing profiling solutions" (§V-B) because no memory
//! access instrumentation is required. The ranking and the capacity fill
//! are `mnemo_tier::density`'s.

use crate::knapsack::{self, Item, Solution};
use crate::model::PerfModel;
use crate::pattern::PatternEngine;
use hybridmem::DetHashSet;
use mnemo_tier::density;
use ycsb::Op;

/// MnemoT's tiering engine.
#[derive(Debug, Clone, Default)]
pub struct MnemoT;

impl MnemoT {
    /// Keys ordered by descending placement weight (`accesses / size`,
    /// a zero size counted as one byte) — MnemoT's priority ordering for
    /// FastMem allocations. Ties break by key id.
    pub fn weight_order(pattern: &PatternEngine) -> Vec<u64> {
        density::order(weight_items(pattern))
            .map(|key| key as u64)
            .collect()
    }

    /// The 0/1-knapsack selection for one fixed FastMem capacity, as
    /// existing tiering solutions perform it: items are key-value pairs
    /// with their sizes as weights; values are the estimated runtime
    /// saved by promoting each key (from the fitted model).
    pub fn knapsack_select(
        pattern: &PatternEngine,
        model: &PerfModel,
        capacity_bytes: u64,
    ) -> Solution {
        let items: Vec<Item> = pattern
            .stats()
            .iter()
            .enumerate()
            .map(|(k, s)| Item {
                id: k as u64,
                weight: s.bytes,
                value: s.reads as f64 * model.promotion_benefit(Op::Read, s.bytes)
                    + s.writes as f64 * model.promotion_benefit(Op::Update, s.bytes),
            })
            .collect();
        knapsack::solve(&items, capacity_bytes)
    }

    /// The FastMem key set chosen by the weight ordering for a fixed
    /// capacity (greedy fill in weight order, skipping keys that no
    /// longer fit) — the cheap ordering-based equivalent of the knapsack.
    pub fn fill_capacity(pattern: &PatternEngine, capacity_bytes: u64) -> DetHashSet<u64> {
        let keys = weight_items(pattern).map(|(accesses, bytes, _)| Some((accesses, bytes)));
        let grant = density::fill([keys], capacity_bytes).remove(0);
        grant.positions.into_iter().collect()
    }
}

/// Each key's `(accesses, bytes, key)`: the items MnemoT ranks.
pub(crate) fn weight_items(
    pattern: &PatternEngine,
) -> impl ExactSizeIterator<Item = (f64, u64, u64)> + Clone + '_ {
    pattern
        .stats()
        .iter()
        .enumerate()
        .map(|(key, s)| (s.accesses() as f64, s.bytes, key as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelKind;
    use crate::pattern::KeyStats;
    use crate::sensitivity::SensitivityEngine;
    use kvsim::StoreKind;
    use ycsb::{Request, Trace, WorkloadSpec};

    #[test]
    fn weight_prefers_hot_and_small() {
        // Weights 0.1, 0.01, 1, 5 and 6: hotter wins (0 before 1),
        // smaller wins (2 before 0), and a zero size counts as one byte
        // (3 after 4).
        let stats = [(100, 1000), (10, 1000), (100, 100), (5, 0), (6, 1)];
        let p = PatternEngine::from_stats(
            stats
                .map(|(reads, bytes)| KeyStats {
                    reads,
                    writes: 0,
                    bytes,
                })
                .to_vec(),
        );
        assert_eq!(MnemoT::weight_order(&p), vec![4, 3, 2, 0, 1]);
    }

    #[test]
    fn weight_order_on_crafted_trace() {
        // key 0: 2 accesses / 1000 B (w=0.002)
        // key 1: 2 accesses / 100 B  (w=0.02)  <- first
        // key 2: 1 access   / 100 B  (w=0.01)
        // key 3: 0 accesses          (w=0)     <- last
        let t = Trace {
            name: "crafted".into(),
            sizes: vec![1000, 100, 100, 100],
            requests: [0, 0, 1, 1, 2]
                .map(|key| Request { key, op: Op::Read })
                .to_vec(),
        };
        let p = PatternEngine::analyze(&t);
        assert_eq!(MnemoT::weight_order(&p), vec![1, 2, 0, 3]);
    }

    /// The ordering as first written: a comparator sort recomputing
    /// both weights in every comparison — the oracle for the ranked order.
    fn comparator_order(pattern: &PatternEngine) -> Vec<u64> {
        let weight = |s: &KeyStats| s.accesses() as f64 / s.bytes.max(1) as f64;
        let mut order: Vec<u64> = (0..pattern.key_count() as u64).collect();
        order.sort_by(|&a, &b| {
            let wa = weight(&pattern.key(a));
            let wb = weight(&pattern.key(b));
            wb.total_cmp(&wa).then(a.cmp(&b))
        });
        order
    }

    proptest::proptest! {
        #[test]
        fn weight_order_matches_the_comparator_sort(
            // Few distinct sizes and zero-byte keys force weight ties.
            sizes in proptest::collection::vec(0u64..4, 1..80),
            picks in proptest::collection::vec((0usize..80, proptest::bool::ANY), 0..300)
        ) {
            let sizes: Vec<u64> = sizes.iter().map(|&s| s * 100).collect();
            // Picks past the key count leave some keys with no accesses.
            let requests = picks
                .into_iter()
                .filter(|&(k, _)| k < sizes.len())
                .map(|(k, read)| Request {
                    key: k as u64,
                    op: if read { Op::Read } else { Op::Update },
                })
                .collect();
            let t = Trace { name: "ties".into(), sizes, requests };
            let p = PatternEngine::analyze(&t);
            proptest::prop_assert_eq!(MnemoT::weight_order(&p), comparator_order(&p));
        }
    }

    #[test]
    fn weight_order_is_a_permutation() {
        let t = WorkloadSpec::trending_preview()
            .scaled(400, 4_000)
            .generate(1);
        let p = PatternEngine::analyze(&t);
        p.validate_order(&MnemoT::weight_order(&p)).unwrap();
    }

    #[test]
    fn scrambled_zipfian_becomes_zipfian_like_under_reordering() {
        // §V-A: MnemoT "identifies the hot keys and transforms the input
        // distribution into a zipfian like one" — after reordering, the
        // hottest keys come first, so the cumulative mass curve in the
        // new order dominates the id-order curve.
        let t = WorkloadSpec::timeline().scaled(500, 20_000).generate(2);
        let p = PatternEngine::analyze(&t);
        let order = MnemoT::weight_order(&p);
        let total: u64 = p.total_requests();
        let mass_in_order: u64 = order[..100].iter().map(|&k| p.key(k).accesses()).sum();
        let mass_by_id: u64 = (0..100).map(|k| p.key(k).accesses()).sum();
        assert!(
            mass_in_order as f64 / total as f64 > 0.5,
            "top-20% by weight carries the zipfian head: {mass_in_order}/{total}"
        );
        assert!(
            mass_in_order > 2 * mass_by_id,
            "reordering concentrates the head"
        );
    }

    #[test]
    fn fill_capacity_respects_budget() {
        let t = WorkloadSpec::trending().scaled(200, 2_000).generate(3);
        let p = PatternEngine::analyze(&t);
        let cap = p.total_bytes() / 4;
        let set = MnemoT::fill_capacity(&p, cap);
        let used: u64 = set.iter().map(|&k| p.key(k).bytes).sum();
        assert!(used <= cap);
        assert!(!set.is_empty());
    }

    #[test]
    fn knapsack_select_close_to_weight_fill() {
        let t = WorkloadSpec::trending().scaled(150, 2_000).generate(4);
        let b = SensitivityEngine::default()
            .measure(StoreKind::Redis, &t)
            .unwrap();
        let m = PerfModel::fit(ModelKind::GlobalAverage, &b, &t.sizes);
        let p = PatternEngine::analyze(&t);
        let cap = p.total_bytes() / 3;
        let ks = MnemoT::knapsack_select(&p, &m, cap);
        assert!(ks.weight <= cap);
        // The knapsack value must be at least as good as the greedy
        // weight-order fill scored under the same value function.
        let fill = MnemoT::fill_capacity(&p, cap);
        let value_of = |keys: &DetHashSet<u64>| -> f64 {
            keys.iter()
                .map(|&k| {
                    let s = p.key(k);
                    s.reads as f64 * m.promotion_benefit(Op::Read, s.bytes)
                        + s.writes as f64 * m.promotion_benefit(Op::Update, s.bytes)
                })
                .sum()
        };
        assert!(ks.value >= value_of(&fill) - 1e-6);
    }
}
