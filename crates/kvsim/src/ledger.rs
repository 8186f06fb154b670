//! The charge tape of a paired run, and the per-key cost ledger folded
//! from it.
//!
//! A request's charge depends only on its own key's tier: the LLC and
//! the engines' index state are keyed by object and key count, never by
//! tier. So one walk that prices every request in two tiers
//! ([`Server::run_paired`](crate::Server::run_paired)) records all there
//! is to know about every split of the keys between them: the
//! [`ChargeTape`], one unperturbed `(own, alt)` charge pair per request.
//!
//! * **Replay.** A split's run is the tape read back with each request's
//!   charge picked by its key's tier, perturbed by the split run's own
//!   noise stream and rounded into a [`SimClock`] — exactly the
//!   arithmetic of [`Server::run`](crate::Server::run), without the
//!   lookups, the LLC probe or the cost formula
//!   ([`ChargeTape::replay`]). A lane's per-request samples replay the
//!   same way through that lane's own stream ([`ChargeTape::samples`]).
//! * **Ledger.** With noise off, a run's runtime is exactly additive over
//!   keys, and the clock rounds each charge to whole nanoseconds. So for
//!   any set `P` of keys kept in the own tier, with every other key in
//!   the alternative tier,
//!
//!   ```text
//!   T(P) = T(all own) + Σ_{k ∉ P} Δ_k,   Δ_k = Σ_{requests of k} (round(alt) − round(own))
//!   ```
//!
//!   holds to the nanosecond. [`ChargeTape::ledger`] folds `T(all own)`
//!   and every `Δ_k` from the tape; [`CostLedger::truth_curve`] then
//!   prices every prefix of a key order in O(keys) — an independent
//!   oracle for the estimate curve and for any simulated split.

use crate::server::{PairedDecline, Placement, RequestSample, RunReport};
use crate::StoreKind;
use hybridmem::clock::NoiseConfig;
use hybridmem::{num, NoiseModel, SimClock, StackSpec, TierId};
use mnemo_codec::{fnv64_chain, fnv64_word, FNV64_OFFSET};
use ycsb::{Request, Trace};

/// One lane of a paired walk: where its keys live and the noise stream
/// its reported service times were drawn from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TapeLane {
    /// The tier holding every key in this lane; `None` for an own lane
    /// whose keys were spread over several tiers, which the tape cannot
    /// price key by key.
    pub(crate) tier: Option<TierId>,
    /// The lane's noise config.
    pub(crate) noise: NoiseConfig,
    /// Factors of the lane's stream consumed before the walk: a server's
    /// stream continues across its runs.
    pub(crate) start: u64,
}

/// Why a run could not be replayed from a tape, so that it has to be
/// simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayDecline {
    /// There is no tape: the paired walk declined, or the baselines were
    /// built some other way.
    NoTape,
    /// The tape was walked on another trace, store or stack spec.
    Fingerprint {
        /// Fingerprint of the walk the tape recorded.
        tape: u64,
        /// Fingerprint of the run asked for.
        run: u64,
    },
    /// The walk's own reason: here, the split puts a key in a tier the
    /// tape does not price ([`PairedDecline::UnknownTier`]).
    Paired(PairedDecline),
}

impl std::fmt::Display for ReplayDecline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayDecline::NoTape => write!(f, "no charge tape"),
            ReplayDecline::Fingerprint { tape, run } => write!(
                f,
                "the tape's walk {tape:016x} is not this run's {run:016x}"
            ),
            ReplayDecline::Paired(decline) => decline.fmt(f),
        }
    }
}

impl std::error::Error for ReplayDecline {}

/// FNV-1a folding of a [`std::fmt::Debug`] rendering, without
/// allocating it.
struct FnvWriter(u64);

impl std::fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 = fnv64_chain(self.0, s.as_bytes());
        Ok(())
    }
}

/// Each request's unperturbed charge in the own and the alternative
/// lane of one paired walk, in trace order, with what it takes to read
/// them back: the walk's fingerprint, its requests and its lanes.
#[derive(Debug, Clone, PartialEq)]
pub struct ChargeTape {
    fingerprint: u64,
    keys: usize,
    requests: Vec<Request>,
    /// `[own, alt]` raw charge per request, in nanoseconds.
    charges: Vec<[f64; 2]>,
    lanes: [TapeLane; 2],
}

impl ChargeTape {
    /// An empty tape for a walk of `trace` on `store` over `spec`.
    pub(crate) fn new(
        store: StoreKind,
        spec: &StackSpec,
        trace: &Trace,
        lanes: [TapeLane; 2],
    ) -> ChargeTape {
        ChargeTape {
            fingerprint: ChargeTape::fingerprint_of(store, spec, trace),
            keys: trace.sizes.len(),
            requests: trace.requests.clone(),
            charges: Vec::with_capacity(trace.len()),
            lanes,
        }
    }

    /// Append the next request's raw charges.
    pub(crate) fn push(&mut self, own: f64, alt: f64) {
        self.charges.push([own, alt]);
    }

    /// The fingerprint of a run of `trace` on `store` over `spec`: FNV-64
    /// of the requests (word by word), the key sizes, the store and the
    /// spec. A tape replays only runs with its own walk's fingerprint.
    fn fingerprint_of(store: StoreKind, spec: &StackSpec, trace: &Trace) -> u64 {
        let mut hash = FNV64_OFFSET;
        for r in &trace.requests {
            hash = fnv64_word(fnv64_word(hash, r.key), r.op as u64);
        }
        hash = fnv64_word(hash, num::u64_from_usize(trace.sizes.len()));
        for &bytes in &trace.sizes {
            hash = fnv64_word(hash, bytes);
        }
        let mut w = FnvWriter(hash);
        // Writing into a hash cannot fail.
        let _ = std::fmt::Write::write_fmt(&mut w, format_args!("{store}|{spec:?}"));
        w.0
    }

    /// The lane index whose keys all live in `tier`.
    fn lane_of(&self, tier: TierId) -> Option<usize> {
        self.lanes.iter().position(|l| l.tier == Some(tier))
    }

    /// The per-key ledger, folded from the tape: `T(all own)` and every
    /// `Δ_k` over the walk's dense key space.
    pub fn ledger(&self) -> CostLedger {
        let mut ledger = CostLedger::new(self.keys);
        for (r, &[own, alt]) in self.requests.iter().zip(&self.charges) {
            ledger.record(r.key, own, alt);
        }
        ledger
    }

    /// The per-request samples of the lane whose keys all live in
    /// `tier`, replayed through that lane's noise stream from where the
    /// walk started it: bit-identical to the samples the lane's own run
    /// records. `None` when no lane holds every key in `tier`.
    pub fn samples(&self, tier: TierId) -> Option<Vec<RequestSample>> {
        let lane = self.lane_of(tier)?;
        let mut noise = NoiseModel::at(self.lanes[lane].noise, self.lanes[lane].start);
        let samples = self
            .requests
            .iter()
            .zip(&self.charges)
            .map(|(r, charge)| RequestSample {
                key: r.key,
                op: r.op,
                service_ns: noise.perturb(charge[lane]),
            })
            .collect();
        Some(samples)
    }

    /// The run of `trace` on a freshly built `store` server over `spec`
    /// with `noise` and `placement`, replayed from the tape: bit-identical
    /// to simulating it in every total and histogram, without samples.
    /// Declines, typed, when the run is not the walk's trace, store and
    /// spec, or when the placement puts a key in a tier no lane prices.
    pub fn replay(
        &self,
        store: StoreKind,
        spec: &StackSpec,
        trace: &Trace,
        noise: NoiseConfig,
        placement: &Placement,
    ) -> Result<RunReport, ReplayDecline> {
        let run = ChargeTape::fingerprint_of(store, spec, trace);
        if run != self.fingerprint {
            return Err(ReplayDecline::Fingerprint {
                tape: self.fingerprint,
                run,
            });
        }
        let mut lane_of_key = Vec::with_capacity(self.keys);
        for key in 0..trace.keys() {
            let tier = placement.tier_of(key);
            let lane = self
                .lane_of(tier)
                .ok_or(ReplayDecline::Paired(PairedDecline::UnknownTier(tier)))?;
            lane_of_key.push(lane);
        }
        let mut noise = NoiseModel::new(noise);
        let mut clock = SimClock::new();
        let mut report = RunReport::unsampled(store, trace);
        for (r, charge) in trace.requests.iter().zip(&self.charges) {
            let ns = noise.perturb(charge[lane_of_key[num::usize_from_u64(r.key)]]);
            clock.advance(ns);
            report.record(r.key, r.op, ns);
        }
        report.runtime_ns = clock.now_ns() as f64;
        Ok(report)
    }
}

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
