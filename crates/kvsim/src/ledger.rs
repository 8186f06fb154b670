//! The charge tape of a paired run, and the per-key cost ledger folded
//! from it.
//!
//! A request's charge depends only on its own key's tier: the LLC and
//! the engines' index state are keyed by object and key count, never by
//! tier. So one walk that prices every request in two tiers
//! ([`Server::run_paired`](crate::Server::run_paired)) records all there
//! is to know about every split of the keys between them: the
//! [`ChargeTape`], one unperturbed `(own, alt)` charge pair per request,
//! beside the request itself packed into 32 bits: 20 bytes per request.
//!
//! * **Replay.** A split's run is the tape read back with each request's
//!   charge picked by its key's tier, perturbed by the split run's own
//!   noise stream and rounded into a [`SimClock`] — exactly the
//!   arithmetic of [`Server::run`](crate::Server::run), without the
//!   lookups, the LLC probe or the cost formula
//!   ([`ChargeTape::replay`]). The walk's own two reports are the same
//!   fold, both lanes in one pass, keeping totals only; a lane's
//!   per-request samples replay the same way through that lane's own
//!   stream ([`ChargeTape::samples`]), and its full report, histograms
//!   included, is [`RunReport::from_samples`] of them.
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

use crate::server::{OpHistograms, PairedDecline, Placement, RequestSample, RunReport};
use crate::StoreKind;
use hybridmem::clock::NoiseConfig;
use hybridmem::{num, NoiseModel, SimClock, StackSpec, TierId};
use mnemo_codec::{fnv64_chain, fnv64_word, FNV64_OFFSET};
use ycsb::{Op, Request, Trace};

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
    /// The tape was walked on a trace of another length or other key
    /// sizes, or on another store or stack spec.
    Fingerprint {
        /// Fingerprint of the walk the tape recorded.
        tape: u64,
        /// Fingerprint of the run asked for.
        run: u64,
    },
    /// The run's requests are not the walk's: the first that differs,
    /// by its index in the trace.
    Request {
        /// Index of the first request whose key or op differs.
        index: usize,
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
            ReplayDecline::Request { index } => {
                write!(f, "request {index} is not the tape's")
            }
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

/// Bits of a packed request's key: the tape keeps a request as one
/// `u32`, its key above a one-bit op.
const PACKED_KEY_BITS: u32 = 31;

/// `requests` as the tape keeps them: each key shifted left by one, the
/// low bit set for an update. Declines, naming the first, when a key
/// needs more than [`PACKED_KEY_BITS`] bits.
fn pack(requests: &[Request]) -> Result<Vec<u32>, PairedDecline> {
    // Pack truncating and check the width once, over every key's bits.
    let mut bits = 0;
    let packed = requests
        .iter()
        .map(|r| {
            bits |= r.key;
            ((r.key as u32) << 1) | u32::from(r.op == Op::Update)
        })
        .collect();
    if bits >> PACKED_KEY_BITS == 0 {
        return Ok(packed);
    }
    let key = requests
        .iter()
        .map(|r| r.key)
        .find(|key| key >> PACKED_KEY_BITS != 0)
        .unwrap_or(bits);
    Err(PairedDecline::KeySpace { key })
}

/// The key and op of a packed request.
fn unpack(packed: u32) -> (u64, Op) {
    let op = if packed & 1 == 0 {
        Op::Read
    } else {
        Op::Update
    };
    (u64::from(packed >> 1), op)
}

/// Each request's unperturbed charge in the own and the alternative
/// lane of one paired walk, in trace order, with what it takes to read
/// them back: the walk's requests, the fingerprint of the rest of its
/// run, and its lanes.
#[derive(Debug, Clone, PartialEq)]
pub struct ChargeTape {
    /// Fingerprint of the walk's run but its requests (see
    /// [`Self::fingerprint_of`]).
    fingerprint: u64,
    keys: usize,
    /// Each request's key and op, packed (see [`pack`]).
    requests: Vec<u32>,
    /// `[own, alt]` raw charge per request, in nanoseconds.
    charges: Vec<[f64; 2]>,
    lanes: [TapeLane; 2],
}

impl ChargeTape {
    /// An empty tape for a walk of `trace` on `store` over `spec`;
    /// declines when a request's key does not fit the packed form.
    pub(crate) fn new(
        store: StoreKind,
        spec: &StackSpec,
        trace: &Trace,
        lanes: [TapeLane; 2],
    ) -> Result<ChargeTape, PairedDecline> {
        Ok(ChargeTape {
            requests: pack(&trace.requests)?,
            fingerprint: ChargeTape::fingerprint_of(store, spec, trace),
            keys: trace.sizes.len(),
            charges: Vec::with_capacity(trace.len()),
            lanes,
        })
    }

    /// Append the next request's raw charges.
    pub(crate) fn push(&mut self, own: f64, alt: f64) {
        self.charges.push([own, alt]);
    }

    /// The fingerprint of a run of `trace` on `store` over `spec` but its
    /// requests: FNV-64 of the request count, the key sizes, the store
    /// and the spec. A tape replays only runs with its own walk's
    /// fingerprint and, request for request, its own walk's requests.
    fn fingerprint_of(store: StoreKind, spec: &StackSpec, trace: &Trace) -> u64 {
        let mut hash = fnv64_word(FNV64_OFFSET, num::u64_from_usize(trace.len()));
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

    /// The tape read back as `N` runs at once, in trace order: run `i`
    /// takes each request's charge from lane `pick(key)[i]`, perturbs it
    /// by `noise[i]`, rounds it into its own [`SimClock`] and hands it to
    /// `record(i, ..)` — the arithmetic of
    /// [`Server::run`](crate::Server::run), in its order. Returns each
    /// run's runtime.
    ///
    /// The tape is read a noise block at a time
    /// ([`NoiseModel::read_blocks`]): every stream asks the factor table
    /// for the same chunks, at the same request and in the same order as
    /// perturbing request by request, and inside a block a charge is
    /// perturbed by one multiply.
    fn fold<const N: usize>(
        &self,
        noise: [&mut NoiseModel; N],
        pick: impl Fn(u64) -> [usize; N],
        mut record: impl FnMut(usize, u64, Op, f64),
    ) -> [f64; N] {
        let mut clocks = [SimClock::new(); N];
        NoiseModel::read_blocks(noise, self.requests.len(), |range, factors| {
            // By reference: a by-value `(key, op, [own, alt])` item
            // compiles to overlapping stack copies that stall every
            // iteration.
            let block = self.requests[range.clone()]
                .iter()
                .zip(&self.charges[range]);
            for (j, (&packed, charge)) in block.enumerate() {
                let (key, op) = unpack(packed);
                let lanes = pick(key);
                for run in 0..N {
                    let ns = charge[lanes[run]] * factors[run][j];
                    clocks[run].advance(ns);
                    record(run, key, op, ns);
                }
            }
        });
        clocks.map(|clock| clock.now_ns() as f64)
    }

    /// [`Self::fold`] into `reports`, each of which keeps what it was
    /// made to keep: totals, and histograms or samples if asked for.
    /// The paired walk folds both lanes' totals in one such pass, so
    /// their noise streams ask the process-wide factor table for chunks
    /// alternately, in request order: folded one after the other, they
    /// change which chunks the table keeps once the streams overflow it.
    pub(crate) fn fold_into<const N: usize>(
        &self,
        mut reports: [RunReport; N],
        noise: [&mut NoiseModel; N],
        pick: impl Fn(u64) -> [usize; N],
    ) -> [RunReport; N] {
        let runtimes = self.fold(noise, pick, |run, key, op, ns| {
            reports[run].record(key, op, ns)
        });
        for (report, runtime_ns) in reports.iter_mut().zip(runtimes) {
            report.runtime_ns = runtime_ns;
        }
        reports
    }

    /// The per-key ledger, folded from the tape: `T(all own)` and every
    /// `Δ_k` over the walk's dense key space.
    pub fn ledger(&self) -> CostLedger {
        let mut ledger = CostLedger::new(self.keys);
        for (&packed, &[own, alt]) in self.requests.iter().zip(&self.charges) {
            ledger.record(unpack(packed).0, own, alt);
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
        let mut samples = Vec::with_capacity(self.requests.len());
        self.fold(
            [&mut noise],
            |_| [lane],
            |_, key, op, service_ns| {
                samples.push(RequestSample {
                    key,
                    op,
                    service_ns,
                })
            },
        );
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
        // The same count, so a differing request is the only way left
        // for the run to be another; unpacked, the comparison is exact.
        let differs = self
            .requests
            .iter()
            .zip(&trace.requests)
            .position(|(&packed, r)| unpack(packed) != (r.key, r.op));
        if let Some(index) = differs {
            return Err(ReplayDecline::Request { index });
        }
        let mut lane_of_key = Vec::with_capacity(self.keys);
        for key in 0..trace.keys() {
            let tier = placement.tier_of(key);
            let lane = self
                .lane_of(tier)
                .ok_or(ReplayDecline::Paired(PairedDecline::UnknownTier(tier)))?;
            lane_of_key.push(lane);
        }
        let [report] = self.fold_into(
            [RunReport {
                histograms: Some(OpHistograms::new()),
                ..RunReport::totals(store, trace)
            }],
            [&mut NoiseModel::new(noise)],
            |key| [lane_of_key[num::usize_from_u64(key)]],
        );
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
    fn packed_requests_round_trip_and_wide_keys_decline() {
        let widest = (1u64 << PACKED_KEY_BITS) - 1;
        let requests: Vec<Request> = [0, 1, 0x1234_5678, widest]
            .into_iter()
            .flat_map(|key| [Op::Read, Op::Update].map(|op| Request { key, op }))
            .collect();
        let packed = pack(&requests).unwrap();
        let unpacked: Vec<(u64, Op)> = packed.into_iter().map(unpack).collect();
        let expected: Vec<(u64, Op)> = requests.iter().map(|r| (r.key, r.op)).collect();
        assert_eq!(unpacked, expected);
        for key in [widest + 1, u64::from(u32::MAX), u64::MAX] {
            // The first wide key is named, wherever it stands.
            let mut wide = requests.clone();
            wide.insert(3, Request { key, op: Op::Read });
            wide.push(Request {
                key: u64::MAX - 1,
                op: Op::Update,
            });
            assert_eq!(pack(&wide), Err(PairedDecline::KeySpace { key }));
        }
    }

    /// The fold as it read the tape before it went a noise block at a
    /// time: one `perturb` per request and run. Kept as the oracle of
    /// [`ChargeTape::fold`].
    fn per_request_fold<const N: usize>(
        tape: &ChargeTape,
        noise: [&mut NoiseModel; N],
        pick: impl Fn(u64) -> [usize; N],
        mut record: impl FnMut(usize, u64, Op, f64),
    ) -> [f64; N] {
        let mut clocks = [SimClock::new(); N];
        for (&packed, charge) in tape.requests.iter().zip(&tape.charges) {
            let (key, op) = unpack(packed);
            let lanes = pick(key);
            for run in 0..N {
                let ns = noise[run].perturb(charge[lanes[run]]);
                clocks[run].advance(ns);
                record(run, key, op, ns);
            }
        }
        clocks.map(|clock| clock.now_ns() as f64)
    }

    /// [`ChargeTape::fold_into`] over [`per_request_fold`].
    fn per_request_fold_into<const N: usize>(
        tape: &ChargeTape,
        mut reports: [RunReport; N],
        noise: [&mut NoiseModel; N],
        pick: impl Fn(u64) -> [usize; N],
    ) -> [RunReport; N] {
        let runtimes = per_request_fold(tape, noise, pick, |run, key, op, ns| {
            reports[run].record(key, op, ns)
        });
        for (report, runtime_ns) in reports.iter_mut().zip(runtimes) {
            report.runtime_ns = runtime_ns;
        }
        reports
    }

    /// A report's totals, histograms and samples, floats as bits.
    type ReportBits = ([u64; 5], Option<OpHistograms>, Option<Vec<(u64, Op, u64)>>);

    /// Everything a report holds, floats as bits.
    fn report_bits(r: &RunReport) -> ReportBits {
        (
            [
                r.runtime_ns.to_bits(),
                r.reads,
                r.writes,
                r.read_ns_total.to_bits(),
                r.write_ns_total.to_bits(),
            ],
            r.histograms.clone(),
            r.samples.as_ref().map(|s| sample_bits(s)),
        )
    }

    fn sample_bits(samples: &[RequestSample]) -> Vec<(u64, Op, u64)> {
        samples
            .iter()
            .map(|s| (s.key, s.op, s.service_ns.to_bits()))
            .collect()
    }

    #[test]
    fn block_folds_match_the_per_request_fold() {
        let (store, spec) = (StoreKind::Redis, StackSpec::paper_testbed());
        let chunk = 4096;
        let alt_noise = NoiseConfig::default_jitter(0xa17);
        let own_lanes = [
            (NoiseConfig::disabled(), 0),
            (NoiseConfig::default_jitter(0x0e7), 0),
            (NoiseConfig::default_jitter(0x0e7), 100),
            (NoiseConfig::default_jitter(0x0e7), chunk + 5),
        ];
        let split = Placement::FastSet((0..13).filter(|k| k % 3 != 0).collect());
        for len in [0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 17] {
            let trace = Trace {
                name: format!("len {len}"),
                sizes: vec![100; 13],
                requests: (0..len)
                    .map(|i| Request {
                        key: (i * 7 % 13) as u64,
                        op: if i % 3 == 0 { Op::Update } else { Op::Read },
                    })
                    .collect(),
            };
            for (own_noise, start) in own_lanes {
                let cell = format!(
                    "len {len}, own sigma {} from {start}",
                    own_noise.relative_sigma
                );
                let lanes = [
                    TapeLane {
                        tier: Some(TierId::FAST),
                        noise: own_noise,
                        start: start as u64,
                    },
                    TapeLane {
                        tier: Some(TierId::SLOW),
                        noise: alt_noise,
                        start: 0,
                    },
                ];
                let mut tape = ChargeTape::new(store, &spec, &trace, lanes).unwrap();
                for i in 0..len {
                    let own = 40.0 + (i % 11) as f64 * 3.3;
                    tape.push(own, own * 2.7 + 0.1);
                }
                let models = || {
                    [
                        NoiseModel::at(own_noise, start as u64),
                        NoiseModel::new(alt_noise),
                    ]
                };
                // N = 2, totals only: the paired walk's fold.
                let totals = || {
                    [
                        RunReport::totals(store, &trace),
                        RunReport::totals(store, &trace),
                    ]
                };
                let [mut a, mut b] = models();
                let folded = tape.fold_into(totals(), [&mut a, &mut b], |_| [0, 1]);
                let [mut ra, mut rb] = models();
                let expected =
                    per_request_fold_into(&tape, totals(), [&mut ra, &mut rb], |_| [0, 1]);
                for lane in 0..2 {
                    assert_eq!(
                        report_bits(&folded[lane]),
                        report_bits(&expected[lane]),
                        "{cell} N=2 lane {lane}"
                    );
                }
                assert_eq!(
                    [a.position(), b.position()],
                    [ra.position(), rb.position()],
                    "{cell} N=2 positions"
                );
                // N = 1, with histograms and samples, on the own stream.
                let [mut a, _] = models();
                let [folded] = tape.fold_into([RunReport::empty(store, &trace)], [&mut a], |_| [0]);
                let [mut ra, _] = models();
                let [expected] = per_request_fold_into(
                    &tape,
                    [RunReport::empty(store, &trace)],
                    [&mut ra],
                    |_| [0],
                );
                assert_eq!(report_bits(&folded), report_bits(&expected), "{cell} N=1");
                assert_eq!(a.position(), ra.position(), "{cell} N=1 position");
                // Each lane's samples.
                for (lane, tier) in [(0, TierId::FAST), (1, TierId::SLOW)] {
                    let mut noise = NoiseModel::at(lanes[lane].noise, lanes[lane].start);
                    let mut expected = Vec::new();
                    per_request_fold(
                        &tape,
                        [&mut noise],
                        |_| [lane],
                        |_, key, op, ns| expected.push((key, op, ns.to_bits())),
                    );
                    let samples = tape.samples(tier).unwrap();
                    assert_eq!(sample_bits(&samples), expected, "{cell} samples {lane}");
                }
                // A split's replay, keys picked from both lanes.
                let replayed = tape
                    .replay(store, &spec, &trace, own_noise, &split)
                    .unwrap();
                let [expected] = per_request_fold_into(
                    &tape,
                    [RunReport {
                        histograms: Some(OpHistograms::new()),
                        ..RunReport::totals(store, &trace)
                    }],
                    [&mut NoiseModel::new(own_noise)],
                    |key| [usize::from(split.tier_of(key) != TierId::FAST)],
                );
                assert_eq!(
                    report_bits(&replayed),
                    report_bits(&expected),
                    "{cell} replay"
                );
            }
        }
    }

    #[test]
    fn packed_tape_folds_match_folds_over_the_trace() {
        use crate::{Placement, Server};
        // YCSB A: half reads, half updates, so both op bits are exercised.
        let trace = ycsb::WorkloadSpec::ycsb_a().scaled(300, 6_000).generate(5);
        for store in StoreKind::ALL {
            for noise in [NoiseConfig::disabled(), NoiseConfig::default_jitter(11)] {
                let spec = StackSpec::paper_testbed();
                let mut server =
                    Server::build_with(store, spec, noise, &trace, Placement::AllFast).unwrap();
                let alt_noise = NoiseConfig::default_jitter(12);
                let tape = server
                    .run_paired(&trace, TierId::SLOW, alt_noise)
                    .unwrap()
                    .tape;
                let cell = format!("{store} sigma {}", noise.relative_sigma);
                // The ledger and each lane's samples, folded over the
                // trace's own requests as the unpacked tape did.
                let mut ledger = CostLedger::new(trace.sizes.len());
                for (r, &[own, alt]) in trace.requests.iter().zip(&tape.charges) {
                    ledger.record(r.key, own, alt);
                }
                assert_eq!(tape.ledger(), ledger, "{cell}");
                for (lane, tier) in [(0, TierId::FAST), (1, TierId::SLOW)] {
                    let mut lane_noise =
                        NoiseModel::at(tape.lanes[lane].noise, tape.lanes[lane].start);
                    let expected: Vec<(u64, Op, u64)> = trace
                        .requests
                        .iter()
                        .zip(&tape.charges)
                        .map(|(r, c)| (r.key, r.op, lane_noise.perturb(c[lane]).to_bits()))
                        .collect();
                    let samples: Vec<(u64, Op, u64)> = tape
                        .samples(tier)
                        .unwrap()
                        .iter()
                        .map(|s| (s.key, s.op, s.service_ns.to_bits()))
                        .collect();
                    assert_eq!(samples, expected, "{cell} lane {lane}");
                }
            }
        }
    }

    #[test]
    fn curve_runs_from_all_alt_to_all_own() {
        let mut ledger = CostLedger::new(3);
        ledger.record(0, 10.4, 30.6); // 10 own, +21
        ledger.record(1, 5.5, 5.5); // 6 own, +0
        ledger.record(2, 7.0, 9.0); // 7 own, +2
        ledger.record(0, 10.0, 20.0); // 10 own, +10
        assert_eq!(ledger.delta_ns(), &[31, 0, 2]);
        assert_eq!(ledger.truth_curve(&[2, 0, 1]), vec![66.0, 64.0, 33.0, 33.0]);
    }

    #[test]
    fn repeated_and_foreign_keys_change_nothing() {
        let mut ledger = CostLedger::new(2);
        ledger.record(0, 1.0, 4.0);
        ledger.record(1, 1.0, 2.0);
        ledger.record(9, 1.0, 100.0); // outside: counted in own only
        assert_eq!(
            ledger.truth_curve(&[0, 0, 7, 1]),
            vec![7.0, 4.0, 4.0, 4.0, 3.0]
        );
    }
}
