//! 0/1 knapsack solvers for capacity-constrained tiering.
//!
//! Section IV: "Some of the existing solutions map the tiering problem to
//! the 0/1 knapsack, where the items are the key-value pairs, together
//! with their calculated weights and sizes, and the size of the knapsacks
//! are the fixed capacities." This module provides that formulation: an
//! exact dynamic program over quantised capacities for small instances,
//! and the density greedy (`mnemo_tier::density`'s fill) for large ones.

use mnemo_tier::density;

/// One knapsack item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// Identifier carried through to the solution (key id).
    pub id: u64,
    /// Capacity the item consumes (bytes).
    pub weight: u64,
    /// Benefit of selecting the item (e.g. estimated runtime saved).
    pub value: f64,
}

/// A knapsack solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Ids of the selected items.
    pub selected: Vec<u64>,
    /// Total weight used.
    pub weight: u64,
    /// Total value achieved.
    pub value: f64,
}

/// Greedy by value density (value/weight), the approximation used in
/// practice by tiering systems: items with a positive value, densest
/// first, each taken if it still fits ([`density::fill`]). A zero-weight
/// item ranks as a one-weight item: it always fits, but it is selected
/// after any denser item. Ties break by position; `selected` holds ids
/// in selection order, and `value` sums in that order.
pub fn greedy(items: &[Item], capacity: u64) -> Solution {
    let candidates = items
        .iter()
        .map(|i| (i.value > 0.0).then_some((i.value, i.weight)));
    let grant = density::fill([candidates], capacity).remove(0);
    Solution {
        selected: grant
            .positions
            .iter()
            .map(|&p| items[p as usize].id)
            .collect(),
        weight: grant.bytes,
        value: grant.value,
    }
}

/// Exact DP over capacities quantised to `unit`-byte buckets. Memory and
/// time are `O(items * capacity/unit)`; the caller picks `unit` so the
/// table stays small (the quantisation rounds item weights *up*, so the
/// solution never exceeds the true capacity).
pub fn dp_exact(items: &[Item], capacity: u64, unit: u64) -> Solution {
    assert!(unit > 0, "quantisation unit must be positive");
    let cap = (capacity / unit) as usize;
    let n = items.len();
    // value[w] = best value using weight <= w; choice bitmap for recovery.
    let mut best = vec![0.0f64; cap + 1];
    let mut take = vec![false; n * (cap + 1)];
    for (i, item) in items.iter().enumerate() {
        let w = (item.weight.div_ceil(unit)) as usize;
        if w > cap || item.value <= 0.0 {
            continue;
        }
        for c in (w..=cap).rev() {
            let candidate = best[c - w] + item.value;
            if candidate > best[c] {
                best[c] = candidate;
                take[i * (cap + 1) + c] = true;
            }
        }
    }
    // Recover the chosen set.
    let mut c = cap;
    let mut selected = Vec::new();
    let mut weight = 0u64;
    let mut value = 0.0;
    for i in (0..n).rev() {
        if c > 0 || items[i].weight == 0 {
            let w = (items[i].weight.div_ceil(unit)) as usize;
            if w <= c && take[i * (cap + 1) + c] {
                selected.push(items[i].id);
                weight += items[i].weight;
                value += items[i].value;
                c -= w;
            }
        }
    }
    selected.reverse();
    Solution {
        selected,
        weight,
        value,
    }
}

/// Budget of DP table cells above which [`solve`] falls back to greedy.
pub const DP_CELL_BUDGET: usize = 20_000_000;

/// Solve with the exact DP when the quantised table fits the cell budget,
/// otherwise greedy. `unit` defaults to 1/4096 of the capacity (so the DP
/// table has at most ~4k columns) but never below 1 byte.
pub fn solve(items: &[Item], capacity: u64) -> Solution {
    let unit = (capacity / 4096).max(1);
    let cells = items.len().saturating_mul((capacity / unit) as usize + 1);
    if cells <= DP_CELL_BUDGET {
        let dp = dp_exact(items, capacity, unit);
        let gr = greedy(items, capacity);
        // Quantisation can (rarely) make DP worse than greedy; return the
        // better of the two so `solve` dominates `greedy` always.
        if dp.value >= gr.value {
            dp
        } else {
            gr
        }
    } else {
        greedy(items, capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn item(id: u64, weight: u64, value: f64) -> Item {
        Item { id, weight, value }
    }

    #[test]
    fn dp_beats_greedy_on_classic_counterexample() {
        // Greedy by density takes the small dense item and misses the
        // optimal pair.
        let items = vec![item(0, 6, 60.0), item(1, 5, 45.0), item(2, 5, 45.0)];
        let g = greedy(&items, 10);
        let d = dp_exact(&items, 10, 1);
        assert_eq!(g.selected, vec![0]);
        assert_eq!(d.selected, vec![1, 2]);
        assert!(d.value > g.value);
    }

    #[test]
    fn zero_capacity_selects_nothing_with_weight() {
        let items = vec![item(0, 1, 10.0), item(1, 0, 5.0)];
        let g = greedy(&items, 0);
        assert_eq!(g.selected, vec![1], "zero-weight items always fit");
        assert_eq!(g.weight, 0);
    }

    #[test]
    fn a_denser_item_outranks_a_zero_weight_one() {
        // The zero-weight item ranks at density 1 (value over one unit),
        // behind the density-5 item; it still fits a full knapsack.
        let items = vec![item(0, 0, 1.0), item(1, 2, 10.0), item(2, 1, 0.5)];
        let g = greedy(&items, 2);
        assert_eq!((g.selected, g.weight, g.value), (vec![1, 0], 2, 11.0));
    }

    #[test]
    fn negative_and_zero_value_items_are_skipped() {
        let items = vec![item(0, 1, 0.0), item(1, 1, -5.0), item(2, 1, 1.0)];
        let g = greedy(&items, 10);
        assert_eq!(g.selected, vec![2]);
        let d = dp_exact(&items, 10, 1);
        assert_eq!(d.selected, vec![2]);
    }

    #[test]
    fn dp_respects_capacity_under_quantisation() {
        let items: Vec<Item> = (0..20)
            .map(|i| item(i, 100 + i * 7, (i + 1) as f64))
            .collect();
        for unit in [1, 8, 64, 512] {
            let s = dp_exact(&items, 1000, unit);
            assert!(s.weight <= 1000, "unit {unit}: weight {}", s.weight);
        }
    }

    #[test]
    fn solve_uses_dp_for_small_and_greedy_for_huge() {
        let small = vec![item(0, 6, 60.0), item(1, 5, 45.0), item(2, 5, 45.0)];
        let s = solve(&small, 10);
        assert_eq!(s.selected, vec![1, 2], "small instance must be exact");
        // Huge instance: just verify it completes and respects capacity.
        let huge: Vec<Item> = (0..200_000)
            .map(|i| item(i, 1000 + (i % 977), 1.0 + (i % 13) as f64))
            .collect();
        let s = solve(&huge, 50_000_000);
        assert!(s.weight <= 50_000_000);
        assert!(!s.selected.is_empty());
    }

    proptest! {
        #[test]
        fn dp_never_worse_than_greedy(
            weights in proptest::collection::vec(1u64..50, 1..12),
            capacity in 10u64..200,
        ) {
            let items: Vec<Item> = weights
                .iter()
                .enumerate()
                .map(|(i, &w)| item(i as u64, w, (w as f64) * ((i % 3) as f64 + 0.5)))
                .collect();
            let g = greedy(&items, capacity);
            let d = dp_exact(&items, capacity, 1);
            prop_assert!(d.value >= g.value - 1e-9);
            prop_assert!(d.weight <= capacity);
            prop_assert!(g.weight <= capacity);
        }

        #[test]
        fn dp_is_optimal_vs_bruteforce(
            weights in proptest::collection::vec(1u64..20, 1..10),
            capacity in 5u64..60,
        ) {
            let items: Vec<Item> = weights
                .iter()
                .enumerate()
                .map(|(i, &w)| item(i as u64, w, ((i * 7 + 3) % 11) as f64))
                .collect();
            let d = dp_exact(&items, capacity, 1);
            // Brute force over all subsets.
            let mut best = 0.0f64;
            for mask in 0u32..(1 << items.len()) {
                let (mut w, mut v) = (0u64, 0.0);
                for (i, it) in items.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        w += it.weight;
                        v += it.value;
                    }
                }
                if w <= capacity {
                    best = best.max(v);
                }
            }
            prop_assert!((d.value - best).abs() < 1e-9, "dp {} vs brute {}", d.value, best);
        }
    }
}
