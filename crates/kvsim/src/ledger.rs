//! The per-key cost ledger of a paired run.
//!
//! With measurement noise off and no fault plan, a simulated run's
//! runtime is exactly additive over keys: each request's charge depends
//! only on its own key's tier (the LLC and the engines' index state are
//! keyed by object and key count, never by tier), and the clock rounds
//! each charge to whole nanoseconds. So for any set `P` of keys kept in
//! the own tier, with every other key in the alternative tier,
//!
//! ```text
//! T(P) = T(all own) + Σ_{k ∉ P} Δ_k,   Δ_k = Σ_{requests of k} (round(alt) − round(own))
//! ```
//!
//! holds to the nanosecond. [`Server::run_paired`](crate::Server::run_paired)
//! fills a [`CostLedger`] with `T(all own)` and every `Δ_k` on its one
//! trace walk; [`CostLedger::truth_curve`] then prices every prefix of a
//! key order in O(keys) — an independent oracle for the estimate curve
//! and for any simulated split.

use hybridmem::num;

/// `T(all own)` and the per-key slow-minus-fast deltas of one paired
/// run, from unperturbed charges in integer nanoseconds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostLedger {
    /// Runtime with every key in its own tier: the sum of the rounded
    /// unperturbed own-lane charges.
    own_ns: u128,
    /// Per key: the rounded alt-lane charges minus the rounded own-lane
    /// charges, summed over the key's requests.
    delta_ns: Vec<i64>,
}

impl CostLedger {
    /// An empty ledger over `keys` dense keys.
    pub fn new(keys: usize) -> CostLedger {
        CostLedger {
            own_ns: 0,
            delta_ns: vec![0; keys],
        }
    }

    /// Record one request of `key` with unperturbed charges `own` and
    /// `alt`, each rounded as the run's clock rounds it. A key outside
    /// the ledger adds to the own runtime only.
    pub fn record(&mut self, key: u64, own: f64, alt: f64) {
        let own = num::u128_from_f64(own);
        self.own_ns += own;
        if let Some(delta) = self.delta_ns.get_mut(num::usize_from_u64(key)) {
            let step = as_i64(num::u128_from_f64(alt)).saturating_sub(as_i64(own));
            *delta = delta.saturating_add(step);
        }
    }

    /// Runtime with every key in its own tier, in nanoseconds.
    pub fn own_runtime_ns(&self) -> u128 {
        self.own_ns
    }

    /// The per-key deltas `Δ_k`, indexed by key.
    pub fn delta_ns(&self) -> &[i64] {
        &self.delta_ns
    }

    /// Exact runtime, in nanoseconds, of the placement that keeps the
    /// first `i` keys of `order` in the own tier and every other key in
    /// the alternative tier, for every `i` in `0..=order.len()`. Keys
    /// repeated in `order` or outside the ledger change nothing when
    /// they come round.
    pub fn truth_curve(&self, order: &[u64]) -> Vec<f64> {
        let mut remaining = self.delta_ns.clone();
        let mut extra: i128 = remaining.iter().map(|&d| i128::from(d)).sum();
        let own = i128::try_from(self.own_ns).unwrap_or(i128::MAX);
        let mut curve = Vec::with_capacity(order.len() + 1);
        curve.push((own + extra) as f64);
        for &key in order {
            if let Some(delta) = remaining.get_mut(num::usize_from_u64(key)) {
                extra -= i128::from(std::mem::take(delta));
            }
            curve.push((own + extra) as f64);
        }
        curve
    }
}

/// A rounded charge as a signed delta term, saturating: one key would
/// need ~292 years of simulated time to reach the bound.
fn as_i64(ns: u128) -> i64 {
    i64::try_from(ns).unwrap_or(i64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_runs_from_all_alt_to_all_own() {
        let mut ledger = CostLedger::new(3);
        ledger.record(0, 10.4, 30.6); // 10 own, +21
        ledger.record(1, 5.5, 5.5); // 6 own, +0
        ledger.record(2, 7.0, 9.0); // 7 own, +2
        ledger.record(0, 10.0, 20.0); // 10 own, +10
        assert_eq!(ledger.own_runtime_ns(), 33);
        assert_eq!(ledger.delta_ns(), &[31, 0, 2]);
        assert_eq!(ledger.truth_curve(&[2, 0, 1]), vec![66.0, 64.0, 33.0, 33.0]);
    }

    #[test]
    fn repeated_and_foreign_keys_change_nothing() {
        let mut ledger = CostLedger::new(2);
        ledger.record(0, 1.0, 4.0);
        ledger.record(1, 1.0, 2.0);
        ledger.record(9, 1.0, 100.0); // outside: counted in own only
        assert_eq!(ledger.own_runtime_ns(), 3);
        assert_eq!(
            ledger.truth_curve(&[0, 0, 7, 1]),
            vec![7.0, 4.0, 4.0, 4.0, 3.0]
        );
    }
}
