//! Simulated time and measurement noise.
//!
//! All timing in the simulator is *virtual*: device models return
//! nanosecond costs which a [`SimClock`] accumulates. The paper's curves
//! are means of repeated wall-clock measurements on real hardware; to keep
//! the estimate-accuracy evaluation (Fig. 8a) meaningful, a seeded
//! [`NoiseModel`] can perturb each service time multiplicatively, standing
//! in for run-to-run hardware variability. A noise stream is a pure
//! function of its seed and sigma, so its factors are drawn once per
//! process into a shared, read-only table that every model on that
//! stream reads. Every reader reads a stream from its start, so the
//! table, bounded by [`NOISE_TABLE_BYTES`], keeps the front of each
//! stream and gives up the tails of the longest ones first.

use crate::det::DetHashMap;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::{Arc, LazyLock, Mutex};

/// A monotonically advancing virtual nanosecond clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct SimClock {
    now_ns: u128,
}

impl SimClock {
    /// A clock at time zero.
    pub fn new() -> SimClock {
        SimClock::default()
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u128 {
        self.now_ns
    }

    /// Advance by a (fractional) nanosecond cost; negative or non-finite
    /// costs are rejected.
    pub fn advance(&mut self, ns: f64) {
        assert!(ns.is_finite() && ns >= 0.0, "invalid time advance: {ns}");
        self.now_ns += crate::num::u128_from_f64(ns);
    }

    /// Reset to time zero.
    pub fn reset(&mut self) {
        self.now_ns = 0;
    }
}

/// Configuration for multiplicative Gaussian measurement noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseConfig {
    /// Relative standard deviation (e.g. 0.02 = 2% jitter per request).
    pub relative_sigma: f64,
    /// RNG seed, so "measurements" are reproducible.
    pub seed: u64,
}

impl NoiseConfig {
    /// No noise at all.
    pub fn disabled() -> NoiseConfig {
        NoiseConfig {
            relative_sigma: 0.0,
            seed: 0,
        }
    }

    /// The default measurement jitter used by the experiment harness: 2%
    /// relative sigma, which lands the estimate error distribution in the
    /// sub-percent band the paper reports.
    pub fn default_jitter(seed: u64) -> NoiseConfig {
        NoiseConfig {
            relative_sigma: 0.02,
            seed,
        }
    }
}

/// Number of perturbation factors drawn per chunk. Must be even so
/// Box–Muller cos/sin pairs never split across chunks — that keeps the
/// factor stream identical to the old draw-per-request model with its
/// cached spare variate.
const NOISE_CHUNK: usize = 4096;

/// Byte budget of the process-wide factor table: every factor a whole
/// consultation re-reads, at the longest trace the repository benchmark
/// consults. A consultation reads three streams from the front — its two
/// baseline lanes, then the verify run — so it needs three times its
/// trace's length in factors. The longest `consult-ycsb` trace (YCSB E
/// with its scans expanded, seeds 1–10, every pass) has 1,212,946
/// requests: three streams of 297 chunks, about 27.9 MiB with each
/// chunk's generator state, which 32 MiB holds with room for chunk
/// rounding. It also holds a `fig5` cell at paper scale (two lanes, the
/// verify seed and nine `evaluate` seeds over 100,000 requests, about
/// 1.2 M factors). Past the budget, a chunk is kept only in place of the
/// tail of a longer resident prefix (see the module docs); a model whose
/// chunk is not kept redraws it in place.
pub const NOISE_TABLE_BYTES: usize = 32 << 20;

/// One drawn chunk of a factor stream.
struct Chunk {
    /// `NOISE_CHUNK` perturbation factors `max(0, 1 + sigma * N(0,1))`.
    factors: [f64; NOISE_CHUNK],
    /// The generator after drawing this chunk: where the next one starts.
    rng_after: StdRng,
}

impl std::fmt::Debug for Chunk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chunk").finish_non_exhaustive()
    }
}

/// Table bytes charged per resident chunk.
const CHUNK_BYTES: usize = std::mem::size_of::<Chunk>();

impl Chunk {
    /// The chunk that starts at generator state `rng`, in one allocation.
    fn drawn(sigma: f64, rng: StdRng) -> Arc<Chunk> {
        let mut chunk = Arc::new(Chunk {
            factors: [0.0; NOISE_CHUNK],
            rng_after: rng,
        });
        // A fresh `Arc` has no other owner, so this always fills it.
        if let Some(c) = Arc::get_mut(&mut chunk) {
            c.fill(sigma);
        }
        chunk
    }

    /// Overwrite the factors with the next chunk of the stream, drawn from
    /// `rng_after` via Box–Muller (rand's core crate has no normal
    /// distribution; `rand_distr` is outside the allowed set). Each pass
    /// draws `(u1, u2)`, retries while `u1` is subnormal, then yields the
    /// cos variate followed by the sin variate.
    fn fill(&mut self, sigma: f64) {
        for pair in self.factors.chunks_exact_mut(2) {
            let (r, theta) = loop {
                let u1: f64 = self.rng_after.random::<f64>();
                let u2: f64 = self.rng_after.random::<f64>();
                if u1 > f64::MIN_POSITIVE {
                    break ((-2.0 * u1.ln()).sqrt(), 2.0 * std::f64::consts::PI * u2);
                }
            };
            pair[0] = (1.0 + sigma * (r * theta.cos())).max(0.0);
            pair[1] = (1.0 + sigma * (r * theta.sin())).max(0.0);
        }
    }
}

/// A stream's identity: its seed and the bits of its sigma.
type StreamKey = (u64, u64);

/// The resident prefix of one factor stream.
struct Stream {
    chunks: Vec<Arc<Chunk>>,
    last_used: u64,
}

#[derive(Default)]
struct TableState {
    streams: DetHashMap<StreamKey, Stream>,
    tick: u64,
    bytes: usize,
    /// Chunks drawn through this table, kept or not.
    #[cfg(test)]
    draws: usize,
}

/// Read-only factor streams shared by every [`NoiseModel`] of the
/// process. A stream is a pure function of `(seed, sigma)`, so a chunk
/// is drawn once and then read by every model on that stream, whatever
/// thread it runs on. Residency is bounded by a byte budget and kept by
/// prefix priority: every reader reads a stream from its start, so chunk
/// `i` is read at least as often as chunk `i + 1`, and each stream keeps
/// a resident prefix. When the table is full, a newly drawn chunk is
/// kept only if its index is lower than that of the last chunk of the
/// longest resident prefix (least recently used among equal lengths),
/// which it then replaces; otherwise it is not kept. Every chunk carries
/// the generator state after it, so a model always draws a missing chunk
/// from the chunk before it: residency and races change only who draws,
/// never a value.
struct FactorTable {
    budget: usize,
    state: Mutex<TableState>,
}

impl FactorTable {
    fn new(budget: usize) -> FactorTable {
        FactorTable {
            budget,
            state: Mutex::new(TableState::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TableState> {
        // The state is consistent between statements, so a panic in
        // another holder leaves nothing half-updated.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Chunk `index` of stream `key`, where `prev` is chunk `index - 1`
    /// (`None` for chunk 0), handed over by the model that read it.
    fn chunk(&self, key: StreamKey, index: usize, prev: Option<Arc<Chunk>>) -> Arc<Chunk> {
        {
            let mut state = self.lock();
            state.tick += 1;
            let tick = state.tick;
            if let Some(stream) = state.streams.get_mut(&key) {
                stream.last_used = tick;
                if let Some(chunk) = stream.chunks.get(index) {
                    return Arc::clone(chunk);
                }
            }
        }
        let sigma = f64::from_bits(key.1);
        let chunk = match prev {
            // Not resident and held by no one else: the table did not
            // keep it, so the next chunk is redrawn in place, as a model
            // without the table would refill its own buffer.
            Some(mut own) if Arc::strong_count(&own) == 1 => {
                if let Some(c) = Arc::get_mut(&mut own) {
                    c.fill(sigma);
                }
                own
            }
            Some(shared) => Chunk::drawn(sigma, shared.rng_after.clone()),
            None => Chunk::drawn(sigma, StdRng::seed_from_u64(key.0)),
        };
        self.keep(key, index, &chunk);
        chunk
    }

    /// Make `chunk` resident as chunk `index` of stream `key` if it
    /// extends the stream's resident prefix and either fits the budget or
    /// has a lower index than the last chunk of the longest resident
    /// prefix, which it then replaces.
    fn keep(&self, key: StreamKey, index: usize, chunk: &Arc<Chunk>) {
        let mut state = self.lock();
        #[cfg(test)]
        {
            state.draws += 1;
        }
        let resident = state.streams.get(&key).map_or(0, |s| s.chunks.len());
        if resident != index {
            return;
        }
        if state.bytes + CHUNK_BYTES > self.budget {
            // Ticks are unique, so the victim does not depend on the
            // map's iteration order.
            let victim = state
                .streams
                .values_mut()
                .max_by_key(|s| (s.chunks.len(), std::cmp::Reverse(s.last_used)))
                .filter(|s| index + 1 < s.chunks.len());
            let Some(victim) = victim else {
                return;
            };
            // The victim held more than `index + 1` chunks, so it keeps
            // at least one.
            victim.chunks.pop();
            state.bytes -= CHUNK_BYTES;
        }
        state.tick += 1;
        let tick = state.tick;
        state.bytes += CHUNK_BYTES;
        let stream = state.streams.entry(key).or_insert(Stream {
            chunks: Vec::new(),
            last_used: tick,
        });
        stream.last_used = tick;
        stream.chunks.push(Arc::clone(chunk));
    }

    #[cfg(test)]
    fn resident_bytes(&self) -> usize {
        self.lock().bytes
    }

    #[cfg(test)]
    fn draws(&self) -> usize {
        self.lock().draws
    }

    /// Each resident stream's prefix length, in chunks.
    #[cfg(test)]
    fn resident_lengths(&self) -> std::collections::BTreeMap<StreamKey, usize> {
        let state = self.lock();
        state
            .streams
            .iter()
            .map(|(key, s)| (*key, s.chunks.len()))
            .collect()
    }
}

/// The process-wide factor table every [`NoiseModel`] reads.
static FACTORS: LazyLock<FactorTable> = LazyLock::new(|| FactorTable::new(NOISE_TABLE_BYTES));

#[cfg(test)]
thread_local! {
    /// A private table the models of this test thread read instead of
    /// [`FACTORS`], so a test can count its draws and residency alone.
    static TEST_TABLE: std::cell::Cell<Option<&'static FactorTable>> =
        const { std::cell::Cell::new(None) };
}

/// The table this thread's models read.
fn table() -> &'static FactorTable {
    #[cfg(test)]
    if let Some(table) = TEST_TABLE.with(std::cell::Cell::get) {
        return table;
    }
    &FACTORS
}

/// The factors a noiseless run multiplies by: one, which changes no bit.
static UNIT: [f64; NOISE_CHUNK] = [1.0; NOISE_CHUNK];

/// Seeded multiplicative Gaussian noise source.
///
/// Perturbation factors `max(0, 1 + sigma * N(0,1))` come in chunks from
/// a process-wide table keyed by `(seed, sigma)`: a stream's factors are
/// drawn once, in exactly the order of the old per-request Box–Muller
/// path, and every later model on that stream — the same baseline lane
/// in the next consultation, a replayed split — reads them instead of
/// redrawing. The per-request work is a table load and one multiply.
#[derive(Debug)]
pub struct NoiseModel {
    sigma: f64,
    seed: u64,
    /// The chunk being consumed; `None` before the first perturb.
    chunk: Option<Arc<Chunk>>,
    /// Index of `chunk` in the stream.
    index: usize,
    /// Next unconsumed factor in `chunk`.
    next: usize,
}

impl NoiseModel {
    /// Build from a config.
    pub fn new(config: NoiseConfig) -> NoiseModel {
        NoiseModel {
            sigma: config.relative_sigma,
            seed: config.seed,
            chunk: None,
            index: 0,
            next: NOISE_CHUNK,
        }
    }

    /// A model on `config`'s stream whose next factor is factor
    /// `position` (a fresh model is at position 0).
    pub fn at(config: NoiseConfig, position: u64) -> NoiseModel {
        let mut model = NoiseModel::new(config);
        if model.sigma == 0.0 || position == 0 {
            return model;
        }
        let position = crate::num::usize_from_u64(position);
        while model.chunk.is_none() || model.index < position / NOISE_CHUNK {
            model.advance();
        }
        model.next = position % NOISE_CHUNK;
        model
    }

    /// A noiseless model.
    pub fn disabled() -> NoiseModel {
        NoiseModel::new(NoiseConfig::disabled())
    }

    /// The config this model draws from.
    pub fn config(&self) -> NoiseConfig {
        NoiseConfig {
            relative_sigma: self.sigma,
            seed: self.seed,
        }
    }

    /// Factors consumed so far: where [`Self::at`] resumes this stream.
    pub fn position(&self) -> u64 {
        match self.chunk {
            None => 0,
            Some(_) => crate::num::u64_from_usize(self.index * NOISE_CHUNK + self.next),
        }
    }

    /// Move to the next chunk of the stream.
    fn advance(&mut self) {
        let key = (self.seed, self.sigma.to_bits());
        let (index, prev) = match self.chunk.take() {
            None => (0, None),
            Some(chunk) => (self.index + 1, Some(chunk)),
        };
        self.chunk = Some(table().chunk(key, index, prev));
        self.index = index;
        self.next = 0;
    }

    /// The factors left in the current chunk, moving to the next chunk
    /// first when none are left: the next [`Self::perturb`] multiplies
    /// by the first of them. `None` when sigma is 0, which perturbs
    /// nothing. Read a block of them, then [`Self::consume`] it: the
    /// chunks are asked of the process-wide table at the same request as
    /// by perturbing one by one.
    pub fn factors(&mut self) -> Option<&[f64]> {
        if self.sigma == 0.0 {
            return None;
        }
        if self.next == NOISE_CHUNK {
            self.advance();
        }
        let next = self.next;
        self.chunk.as_ref().map(|c| &c.factors[next..])
    }

    /// Step past `n` factors of the current chunk, as `n` perturbs
    /// would; `n` is at most what [`Self::factors`] returned.
    pub fn consume(&mut self, n: usize) {
        if self.sigma != 0.0 {
            debug_assert!(self.next + n <= NOISE_CHUNK, "consumed past the chunk");
            self.next += n;
        }
    }

    /// Read the next `len` factors of every model in `models` together,
    /// a block at a time: `block(range, factors)` gets factor
    /// `range.start + j` of model `i` as `factors[i][j]`, or 1 for a
    /// noiseless model. A block ends where any model's chunk ends, and
    /// at each block's start the models take their factors in model
    /// order, so every stream asks the factor table for the same chunks,
    /// at the same factor and in the same order as `len` rounds of
    /// [`Self::perturb`] over `models` in turn.
    pub fn read_blocks<const N: usize>(
        mut models: [&mut NoiseModel; N],
        len: usize,
        mut block: impl FnMut(std::ops::Range<usize>, [&[f64]; N]),
    ) {
        let mut start = 0;
        while start < len {
            let factors = models.each_mut().map(|m| m.factors().unwrap_or(&UNIT));
            let n = factors
                .iter()
                .map(|f| f.len())
                .fold(len - start, usize::min);
            block(start..start + n, factors.map(|f| &f[..n]));
            for model in &mut models {
                model.consume(n);
            }
            start += n;
        }
    }

    /// Perturb a nanosecond cost: `ns * max(0, 1 + sigma * N(0,1))`.
    pub fn perturb(&mut self, ns: f64) -> f64 {
        if self.sigma == 0.0 {
            return ns;
        }
        if self.next == NOISE_CHUNK {
            self.advance();
        }
        let factor = self.chunk.as_ref().map_or(1.0, |c| c.factors[self.next]);
        self.next += 1;
        ns * factor
    }

    /// The configured relative sigma.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_accumulates_and_resets() {
        let mut c = SimClock::new();
        c.advance(100.4);
        c.advance(0.6);
        assert_eq!(c.now_ns(), 101);
        c.reset();
        assert_eq!(c.now_ns(), 0);
    }

    #[test]
    #[should_panic(expected = "invalid time advance")]
    fn clock_rejects_negative() {
        SimClock::new().advance(-1.0);
    }

    #[test]
    fn disabled_noise_is_identity() {
        let mut n = NoiseModel::disabled();
        for ns in [0.0, 1.0, 123.456, 1e9] {
            assert_eq!(n.perturb(ns), ns);
        }
    }

    #[test]
    fn noise_is_reproducible_per_seed() {
        let mut a = NoiseModel::new(NoiseConfig::default_jitter(42));
        let mut b = NoiseModel::new(NoiseConfig::default_jitter(42));
        for _ in 0..100 {
            assert_eq!(a.perturb(1000.0), b.perturb(1000.0));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = NoiseModel::new(NoiseConfig::default_jitter(1));
        let mut b = NoiseModel::new(NoiseConfig::default_jitter(2));
        let xa: Vec<f64> = (0..10).map(|_| a.perturb(1000.0)).collect();
        let xb: Vec<f64> = (0..10).map(|_| b.perturb(1000.0)).collect();
        assert_ne!(xa, xb);
    }

    #[test]
    fn table_stream_matches_per_request_box_muller() {
        // Reference: the pre-table implementation — one Box–Muller pair
        // per two perturbs, with the sin variate cached as a spare.
        struct Reference {
            sigma: f64,
            rng: StdRng,
            spare: Option<f64>,
        }
        impl Reference {
            fn perturb(&mut self, ns: f64) -> f64 {
                let z = if let Some(z) = self.spare.take() {
                    z
                } else {
                    loop {
                        let u1: f64 = self.rng.random::<f64>();
                        let u2: f64 = self.rng.random::<f64>();
                        if u1 <= f64::MIN_POSITIVE {
                            continue;
                        }
                        let r = (-2.0 * u1.ln()).sqrt();
                        let theta = 2.0 * std::f64::consts::PI * u2;
                        self.spare = Some(r * theta.sin());
                        break r * theta.cos();
                    }
                };
                ns * (1.0 + self.sigma * z).max(0.0)
            }
        }
        for seed in [0u64, 7, 1234] {
            let config = NoiseConfig::default_jitter(seed);
            let mut table = NoiseModel::new(config);
            let mut reference = Reference {
                sigma: config.relative_sigma,
                rng: StdRng::seed_from_u64(seed),
                spare: None,
            };
            // Cross more than one refill boundary (chunk = 4096).
            for i in 0..10_000 {
                let ns = 100.0 + i as f64;
                assert_eq!(
                    table.perturb(ns).to_bits(),
                    reference.perturb(ns).to_bits(),
                    "seed={seed} i={i}"
                );
            }
        }
    }

    /// The first `chunks` chunks of stream `key` read through `table`.
    fn read_stream(table: &FactorTable, key: StreamKey, chunks: usize) -> Vec<f64> {
        let mut out = Vec::new();
        let mut prev: Option<Arc<Chunk>> = None;
        for index in 0..chunks {
            let chunk = table.chunk(key, index, prev.take());
            out.extend_from_slice(&chunk.factors);
            prev = Some(chunk);
        }
        out
    }

    fn bits(factors: &[f64]) -> Vec<u64> {
        factors.iter().map(|f| f.to_bits()).collect()
    }

    #[test]
    fn table_residency_stays_within_the_budget() {
        let budget = 5 * CHUNK_BYTES;
        let table = FactorTable::new(budget);
        let sigma = 0.02f64.to_bits();
        // Eight two-chunk streams: more than the budget holds.
        for seed in 0..8u64 {
            read_stream(&table, (seed, sigma), 2);
            assert!(table.resident_bytes() <= budget, "seed {seed}");
        }
        assert!(table.resident_bytes() > 0);
        // One stream longer than the whole budget keeps only a prefix;
        // the chunks past it, redrawn in place, are the same values.
        let long = read_stream(&table, (99, sigma), 9);
        assert!(table.resident_bytes() <= budget);
        let roomy = FactorTable::new(NOISE_TABLE_BYTES);
        assert_eq!(bits(&long), bits(&read_stream(&roomy, (99, sigma), 9)));
    }

    #[test]
    fn evicted_stream_refills_with_the_same_bits() {
        let table = FactorTable::new(3 * CHUNK_BYTES);
        let sigma = 0.02f64.to_bits();
        let first = read_stream(&table, (5, sigma), 3);
        // Two other streams' first chunks evict its tail...
        read_stream(&table, (6, sigma), 2);
        read_stream(&table, (7, sigma), 1);
        assert_eq!(table.resident_lengths()[&(5, sigma)], 1);
        // ... and its refill draws those values again, bit for bit, as
        // does the process-wide table behind `NoiseModel`.
        assert_eq!(bits(&read_stream(&table, (5, sigma), 3)), bits(&first));
        let mut model = NoiseModel::new(NoiseConfig::default_jitter(5));
        let direct: Vec<f64> = (0..first.len()).map(|_| model.perturb(1.0)).collect();
        assert_eq!(bits(&direct), bits(&first));
    }

    #[test]
    fn cyclic_readers_keep_prefixes_and_draw_only_the_overflow() {
        // Three streams read in turn from the front, as a consultation
        // reads its two walk lanes and then verify: twelve chunks of
        // demand against a budget of seven.
        let (streams, length, budget_chunks) = (3u64, 4, 7);
        let budget = budget_chunks * CHUNK_BYTES;
        let table = FactorTable::new(budget);
        let roomy = FactorTable::new(NOISE_TABLE_BYTES);
        let sigma = 0.02f64.to_bits();
        for round in 0..4 {
            let drawn_before = table.draws();
            for key in (0..streams).map(|s| (0xc1c1e + s, sigma)) {
                let mut factors = Vec::new();
                let mut prev: Option<Arc<Chunk>> = None;
                for index in 0..length {
                    let before = table.resident_lengths();
                    let full = table.resident_bytes() + CHUNK_BYTES > budget;
                    let tail = before.values().max().map_or(0, |&len| len - 1);
                    let chunk = table.chunk(key, index, prev.take());
                    if full && index >= tail {
                        // Not lower than the longest prefix's tail: the
                        // chunk is not admitted and nothing is evicted.
                        assert_eq!(table.resident_lengths(), before, "{round} {key:?} {index}");
                    }
                    assert!(table.resident_bytes() <= budget);
                    factors.extend_from_slice(&chunk.factors);
                    prev = Some(chunk);
                }
                assert_eq!(bits(&factors), bits(&read_stream(&roomy, key, length)));
            }
            let demand = usize::try_from(streams).unwrap_or(usize::MAX) * length;
            if round > 0 {
                let drawn = table.draws() - drawn_before;
                assert!(
                    drawn <= demand - budget_chunks,
                    "round {round}: {drawn} draws"
                );
            }
        }
    }

    #[test]
    fn two_workers_filling_one_stream_agree() {
        let pool = mnemo_par::Pool::new(2);
        // A seed no other test uses, so both workers race to draw it.
        let config = NoiseConfig::default_jitter(0x7ab1e);
        let draw = || {
            let mut model = NoiseModel::new(config);
            (0..3 * NOISE_CHUNK + 5)
                .map(|_| model.perturb(1.0).to_bits())
                .collect::<Vec<u64>>()
        };
        let (a, b) = pool.join(draw, draw);
        assert_eq!(a, b);
        // A private table filled in one thread agrees with both.
        let private = read_stream(
            &FactorTable::new(NOISE_TABLE_BYTES),
            (config.seed, config.relative_sigma.to_bits()),
            4,
        );
        assert_eq!(bits(&private[..a.len()]), a);
        // Two workers filling one private table agree too.
        let table = FactorTable::new(NOISE_TABLE_BYTES);
        let key = (0x7ab1f, config.relative_sigma.to_bits());
        let (c, d) = pool.join(
            || read_stream(&table, key, 3),
            || read_stream(&table, key, 3),
        );
        assert_eq!(bits(&c), bits(&d));
    }

    /// Run `f` with this thread's models on a fresh table of `budget`
    /// bytes, and hand back what it returned with the table's draws and
    /// resident prefix lengths.
    fn on_private_table<R>(
        budget: usize,
        f: impl FnOnce() -> R,
    ) -> (R, usize, std::collections::BTreeMap<StreamKey, usize>) {
        let table: &'static FactorTable = Box::leak(Box::new(FactorTable::new(budget)));
        TEST_TABLE.with(|t| t.set(Some(table)));
        let out = f();
        TEST_TABLE.with(|t| t.set(None));
        (out, table.draws(), table.resident_lengths())
    }

    #[test]
    fn block_reads_ask_the_table_as_perturbs_do() {
        // Three chunks of budget against up to eight of demand: which
        // chunks stay depends on the order the streams ask for them.
        let budget = 3 * CHUNK_BYTES;
        let own = NoiseConfig::default_jitter(0xb10c);
        let alt = NoiseConfig::default_jitter(0xb10d);
        let configs = [
            (own, 0),
            (own, 100),
            (own, NOISE_CHUNK as u64),
            (NoiseConfig::disabled(), 0),
        ];
        let lengths = [
            0,
            1,
            NOISE_CHUNK - 1,
            NOISE_CHUNK,
            NOISE_CHUNK + 1,
            3 * NOISE_CHUNK + 17,
        ];
        for (config, start) in configs {
            for len in lengths {
                let cell = format!("sigma {} start {start} len {len}", config.relative_sigma);
                // N = 1: factor by factor, then a block at a time.
                let by_factor = on_private_table(budget, || {
                    let mut m = NoiseModel::at(config, start);
                    let f: Vec<u64> = (0..len).map(|_| m.perturb(1.0).to_bits()).collect();
                    (f, m.position())
                });
                let by_block = on_private_table(budget, || {
                    let mut m = NoiseModel::at(config, start);
                    let mut f = Vec::new();
                    NoiseModel::read_blocks([&mut m], len, |range, [block]| {
                        assert_eq!(range.len(), block.len());
                        assert_eq!(range.start, f.len());
                        f.extend(block.iter().map(|x| x.to_bits()));
                    });
                    (f, m.position())
                });
                assert_eq!(by_block, by_factor, "N=1 {cell}");
                // N = 2: the second stream from its start, as a paired
                // walk's alternative lane.
                let by_factor = on_private_table(budget, || {
                    let (mut a, mut b) = (NoiseModel::at(config, start), NoiseModel::new(alt));
                    let mut f = Vec::new();
                    for _ in 0..len {
                        f.push([a.perturb(1.0).to_bits(), b.perturb(1.0).to_bits()]);
                    }
                    (f, a.position(), b.position())
                });
                let by_block = on_private_table(budget, || {
                    let (mut a, mut b) = (NoiseModel::at(config, start), NoiseModel::new(alt));
                    let mut f = Vec::new();
                    NoiseModel::read_blocks([&mut a, &mut b], len, |_, [x, y]| {
                        f.extend(x.iter().zip(y).map(|(x, y)| [x.to_bits(), y.to_bits()]));
                    });
                    (f, a.position(), b.position())
                });
                assert_eq!(by_block, by_factor, "N=2 {cell}");
            }
        }
    }

    #[test]
    fn a_model_resumes_its_stream_at_any_position() {
        let config = NoiseConfig::default_jitter(42);
        let mut model = NoiseModel::new(config);
        assert_eq!(model.position(), 0);
        let stream: Vec<f64> = (0..2 * NOISE_CHUNK + 10)
            .map(|_| model.perturb(1.0))
            .collect();
        assert_eq!(model.position(), stream.len() as u64);
        for position in [
            0,
            1,
            NOISE_CHUNK - 1,
            NOISE_CHUNK,
            NOISE_CHUNK + 3,
            2 * NOISE_CHUNK,
        ] {
            let mut resumed = NoiseModel::at(config, position as u64);
            assert_eq!(resumed.position(), position as u64);
            assert_eq!(
                resumed.perturb(1.0).to_bits(),
                stream[position].to_bits(),
                "{position}"
            );
        }
        assert_eq!(NoiseModel::at(NoiseConfig::disabled(), 9).perturb(3.0), 3.0);
    }

    #[test]
    fn noise_mean_is_close_to_identity_and_never_negative() {
        let mut n = NoiseModel::new(NoiseConfig {
            relative_sigma: 0.05,
            seed: 7,
        });
        let samples: Vec<f64> = (0..20_000).map(|_| n.perturb(1000.0)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 1000.0).abs() < 5.0, "mean {mean}");
        assert!(samples.iter().all(|&x| x >= 0.0));
        // And the spread matches the configured sigma roughly.
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        let sd = var.sqrt();
        assert!((sd - 50.0).abs() < 5.0, "sd {sd}");
    }
}
